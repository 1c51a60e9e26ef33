"""Comparison algorithms: greedy DAG search, observational greedy search
and an exact dynamic-programming optimizer.

gds hill-climbs in the space of DAGs with single-arrow insertions, deletions
and reversals. It runs on the class-space search's own driver and candidate
ranking: a DAG is a graph without lines, on which the class-space moves are
exactly those single-arrow edits and their path conditions are the
acyclicity checks; only the application differs: the in-place edge edit
of the class-space moves alone, instead of a move to the next essential
graph. With a complete single-vertex intervention family every
equivalence class is a singleton and the two searches coincide move for
move. ges erases all intervention
labels and searches with the purely observational family. dp_exact
maximizes the decomposable score over all DAGs by dynamic programming over
vertex subsets, exponential in the vertex count: array passes over the
2^p subset bitmasks build every vertex's best-parent-set table, one pass
per vertex, and a best-sink recursion then runs over the subsets layer by
layer of size. One total order breaks every tie (higher score, then the
parent set with fewer members, then the smaller bitmask; the smallest
sink), so the result does not depend on the order of the comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# has_path is no longer called here but stays importable from this module:
# perfbench/tracing.py wraps it in place, like local_score and MoveCandidate
from .graphs import Dag, GraphError, _check_limit, has_path  # noqa: F401
from .interventions import OBSERVATIONAL, TargetFamily, _require_conservative
from .scoring import UNFITTABLE, InterventionalDataset, ScoreCache, local_score
from .search import (  # noqa: F401
    GiesOptions,
    MoveCandidate,
    SearchResult,
    SearchTrace,
    _edit,
    gies,
    run_phases,
)


class TooLarge(GraphError):
    """Vertex count exceeds the limit of the exponential-time optimizer."""

    def __init__(self, p: int, max_p: int):
        super().__init__(f"p = {p} exceeds the exact-search limit {max_p}")
        self.p = p
        self.max_p = max_p

    def __reduce__(self):
        # rebuilt from the fields: the default pickles only the message
        return TooLarge, (self.p, self.max_p)


@dataclass
class DagSearchResult:
    dag: Dag
    score: float
    steps: int
    trace: SearchTrace | None


@dataclass
class DpResult:
    dag: Dag
    score: float
    metadata: dict = field(default_factory=dict)


# -- greedy DAG search ------------------------------------------------------


def gds(
    data: InterventionalDataset,
    fam: TargetFamily,
    options: GiesOptions | None = None,
) -> DagSearchResult:
    """Greedy DAG-space search from the empty DAG."""
    g, score, steps, trace = run_phases(data, fam, options or GiesOptions(), _edit)
    return DagSearchResult(
        dag=Dag(data.p, arrows=g.arrows), score=score, steps=steps, trace=trace
    )


# -- observational greedy search --------------------------------------------


def ges(
    data: InterventionalDataset, options: GiesOptions | None = None
) -> SearchResult:
    """Class-space greedy search with all intervention labels erased."""
    return gies(data.erase_targets(), TargetFamily([OBSERVATIONAL]), options)


# -- exact dynamic programming ----------------------------------------------


def dp_exact(
    data: InterventionalDataset,
    fam: TargetFamily,
    max_p: int = 15,
    max_parents: int | None = None,
) -> DpResult:
    """Globally optimal DAG for the decomposable score.

    Runs the subset dynamic program as array passes over the 2^p vertex
    subsets: for all vertices at once, the best parent set within every
    candidate set (p passes, pass w comparing each set that contains w with
    that set minus w); then the best sink of every vertex subset, one pass
    per subset size. Ties go to the parent set with fewer members, then to
    the smaller bitmask, and to the smallest sink. Time grows as p * 2^p
    and memory holds two (p + 1) x 2^p arrays (scores and parent-set
    ranks), hence the hard max_p guard. max_parents caps the parent-set
    size of the local-score table (defaults to unlimited up to 12 vertices
    and 5 beyond); a cap can exclude the true optimum, so the applied value
    is reported in the metadata. A max_p or max_parents that is not an
    integer (a bool is not one), or a negative max_parents, raises
    GraphError.
    """
    p = data.p
    _check_limit("max_p", max_p)
    if max_parents is not None:
        _check_limit("max_parents", max_parents, 0)
    if p > max_p:
        raise TooLarge(p, max_p)
    _require_conservative(fam, p)
    data.check_family(fam)
    data.check_columns()
    cache = ScoreCache(data)
    # the metadata holds Python ints, which json can write, for numpy limits
    cap = (p - 1 if p <= 12 else 5) if max_parents is None else int(max_parents)
    full = (1 << p) - 1
    # sets[S]: the parent set of the bitmask S (bit w - 1 for vertex w), for
    # every S of at most cap members, in ascending order of S: each pass
    # adds a vertex above every bit set before it
    sets = {0: frozenset()}
    for w in range(1, p + 1):
        sets.update(
            {S | 1 << w - 1: pa | {w} for S, pa in list(sets.items()) if len(pa) < cap}
        )
    size = np.zeros(full + 1, dtype=np.int64)  # size[S]: the members of S
    for w in range(p):
        size[1 << w : 2 << w] = size[: 1 << w] + 1

    def own(v: int, pa: frozenset[int]) -> float:
        try:
            return local_score(v, pa, data, cache=cache)
        except UNFITTABLE:
            if not pa:  # no DAG can score v
                raise
            return -np.inf

    # best[v, S]: the best local score of v over the parent sets inside S,
    # and rank[v, S] = |P| << p | P for the bitmask P of that set. One total
    # order ranks the sets: higher score, then lower rank (fewer members,
    # then the smaller bitmask). Seeded with each set's own score, the best
    # within every S is reached by one pass per vertex w, comparing each S
    # that contains w (b1, r1) with S minus w (b0, r0)
    best = np.full((p + 1, full + 1), -np.inf)
    rank = np.tile(size << p | np.arange(full + 1), (p + 1, 1))
    # one fill per parent-set size, for all vertices at once: the keys of
    # the vertices that regress on one set over the same rows meet in one
    # fill and share one design, while each fill's transient fits stay
    # those of one size
    for k in range(min(cap, p - 1) + 1):
        layer = [S for S, pa in sets.items() if len(pa) == k]
        cache.fill(
            (v, sets[S]) for v in range(1, p + 1) for S in layer if not S & 1 << v - 1
        )
    for v in range(1, p + 1):
        table = [S for S in sets if not S & 1 << v - 1]
        best[v, table] = [own(v, sets[S]) for S in table]
    for w in range(p):
        (b0, b1), (r0, r1) = (
            np.moveaxis(a.reshape(p + 1, -1, 2, 1 << w), 2, 0) for a in (best, rank)
        )
        take = (b0 > b1) | (b0 == b1) & (r0 < r1)
        np.copyto(b1, b0, where=take)
        np.copyto(r1, r0, where=take)

    # net[U]: best score of a DAG on the vertex set U; sink[U]: its last
    # vertex in topological order. The sets of k vertices read only those
    # of k - 1, and a strict > over ascending s keeps the smallest sink on
    # ties
    net = np.zeros(full + 1)
    sink = np.zeros(full + 1, dtype=np.int64)
    for k in range(1, p + 1):
        U = np.flatnonzero(size == k)
        top = np.full(U.size, -np.inf)
        for s in range(1, p + 1):
            rest = U & ~(1 << s - 1)
            cand = np.where(rest < U, net[rest] + best[s, rest], -np.inf)
            win = cand > top
            top[win], sink[U[win]] = cand[win], s
        net[U] = top

    arrows: list[tuple[int, int]] = []
    U = full
    while U:
        s = int(sink[U])
        U ^= 1 << s - 1
        arrows.extend((w, s) for w in sets[int(rank[s, U]) & full])
    dag = Dag(p, arrows=arrows)
    score = float(net[full])
    return DpResult(
        dag=dag,
        score=score,
        metadata={
            "max_p": int(max_p),
            "max_parents": cap,
            "capped": cap < p - 1,
            "score": score,
        },
    )
