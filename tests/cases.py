"""Frozen worked-example fixtures shared across the test suite.

The graphs are the 7- and 5-vertex illustrations used throughout the module
docstrings: a DAG, its essential graphs under several families, and the
result of each move kind applied to them. Edge lists are spelled out in
full; builders return fresh objects so tests may mutate their copies. One
helper reads a dataset's row sets.
"""

from __future__ import annotations

from gieskit import Dag, Graph, TargetFamily

FAM_OBS = TargetFamily([()])
FAM_T4 = TargetFamily([(), (4,)])
FAM_T35 = TargetFamily([(), (3, 5)])


def dag_7v() -> Dag:
    """Reference 7-vertex DAG."""
    return Dag(7, arrows=[(2, 1), (2, 3), (3, 4), (1, 5), (2, 5),
                          (2, 6), (3, 6), (5, 6), (3, 7), (4, 7)])


def dag_7v_b() -> Dag:
    """Equivalent to dag_7v under {(), (4,)}: the component on {1, 2, 3, 5}
    is oriented differently."""
    return Dag(7, arrows=[(5, 1), (1, 2), (5, 2), (2, 3), (3, 4),
                          (2, 6), (3, 6), (5, 6), (3, 7), (4, 7)])


def dag_7v_c() -> Dag:
    """Same skeleton as dag_7v but not equivalent (orientations around the
    4-7-3 triangle differ)."""
    return Dag(7, arrows=[(2, 1), (3, 2), (4, 3), (7, 3), (7, 4),
                          (1, 5), (2, 5), (2, 6), (3, 6), (5, 6)])


def ig_7v_t4() -> Dag:
    """dag_7v after cutting the arrows into target {4}."""
    return Dag(7, arrows=[(2, 1), (2, 3), (1, 5), (2, 5),
                          (2, 6), (3, 6), (5, 6), (3, 7), (4, 7)])


def ig_7v_t35() -> Dag:
    """dag_7v after cutting the arrows into target {3, 5}."""
    return Dag(7, arrows=[(2, 1), (3, 4), (2, 6), (3, 6), (5, 6), (3, 7), (4, 7)])


def eg_7v_t4() -> Graph:
    """Essential graph of dag_7v under {(), (4,)}."""
    return Graph(7, arrows=[(3, 4), (2, 6), (3, 6), (5, 6), (3, 7), (4, 7)],
                 lines=[(1, 2), (2, 3), (1, 5), (2, 5)])


def eg_7v_after_insert() -> Graph:
    """eg_7v_t4 after inserting the arrow 4 -> 2 with C = {3}."""
    return Graph(7, arrows=[(2, 1), (3, 2), (3, 4), (2, 5), (2, 6),
                            (3, 6), (5, 6), (3, 7), (4, 7), (4, 2)],
                 lines=[(1, 5)])


def eg_7v_after_delete() -> Graph:
    """eg_7v_t4 after deleting the line 2 - 5 with C = {}."""
    return Graph(7, arrows=[(2, 1), (5, 1), (3, 4), (2, 6),
                            (3, 6), (5, 6), (3, 7), (4, 7)],
                 lines=[(2, 3)])


def eg_7v_after_turn_line() -> Graph:
    """eg_7v_t4 after turning the line 2 - 5 into 5 -> 2 with C = {3}."""
    return Graph(7, arrows=[(2, 1), (5, 1), (3, 2), (5, 2), (3, 4),
                            (3, 6), (5, 6), (3, 7), (4, 7)],
                 lines=[(2, 6)])


def eg_5v() -> Graph:
    """5-vertex essential graph illustrating the turning of an arrow."""
    return Graph(5, arrows=[(2, 1), (4, 1), (2, 5), (4, 5)],
                 lines=[(1, 5), (2, 3)])


def eg_5v_after_turn_arrow() -> Graph:
    """eg_5v after turning the arrow 2 -> 1 into 1 -> 2 with C = {3}."""
    return Graph(5, arrows=[(4, 1), (1, 2), (3, 2), (1, 5), (2, 5), (4, 5)])


def chordal_7v() -> Graph:
    """Connected chordal undirected graph used for the LexBFS fixture."""
    return Graph(7, lines=[(1, 2), (1, 5), (2, 3), (2, 5), (2, 6),
                           (3, 4), (3, 6), (3, 7), (4, 7), (5, 6)])


LEXBFS_START = (6, 3, 1, 2, 4, 5, 7)
LEXBFS_ORDER = (6, 3, 2, 5, 4, 7, 1)


def oriented_7v() -> Dag:
    """chordal_7v oriented along LEXBFS_ORDER (lower position wins)."""
    return Dag(7, arrows=[(2, 1), (5, 1), (3, 2), (6, 2), (6, 3),
                          (3, 4), (2, 5), (6, 5), (3, 7), (4, 7)])


def cg_7v() -> Graph:
    """Chain graph with components {1, 2, 3, 5}, {4, 7}, {6}."""
    return Graph(7, arrows=[(5, 6), (2, 6), (3, 6), (3, 4), (3, 7)],
                 lines=[(2, 5), (1, 5), (1, 2), (2, 3), (4, 7)])


def chain_dag(p: int, source: int) -> Dag:
    """Path DAG 1 - 2 - ... - p with every arrow pointing away from the
    source vertex."""
    arrows = [(v + 1, v) for v in range(1, source)]
    arrows += [(v, v + 1) for v in range(source, p)]
    return Dag(p, arrows=arrows)


def row_set(data, v: int):
    """Indices of the rows whose target does not contain v, as the fits read
    them: vertices with the same such rows share one array."""
    rows, group_of = data._row_groups
    return rows[group_of[v - 1]]
