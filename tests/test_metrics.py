"""Structural Hamming distance and evaluation reports."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cases
import oracles
from gieskit import (
    EvaluationReport,
    Graph,
    GraphError,
    ShdBreakdown,
    SizeMismatch,
    count_non_essential,
    essential_graph,
    evaluate,
    shd,
)
import itertools


@st.composite
def graph_tuples(draw, count=2, max_p=6):
    """count graphs on a shared vertex set, arbitrary pair states."""
    p = draw(st.integers(3, max_p))
    out = []
    for _ in range(count):
        arrows, lines = [], []
        for a, b in itertools.combinations(range(1, p + 1), 2):
            c = draw(st.integers(0, 3))
            if c == 1:
                lines.append((a, b))
            elif c == 2:
                arrows.append((a, b))
            elif c == 3:
                arrows.append((b, a))
        out.append(Graph(p, arrows=arrows, lines=lines))
    return tuple(out)


def test_shd_breakdown_fields():
    b = ShdBreakdown(fp=2, fn=1, wo=3)
    assert b.shd == 6
    assert b.to_dict() == {"shd": 6, "fp": 2, "fn": 1, "wo": 3}


def test_shd_of_essential_graph_from_member():
    # the essential graph differs from a member only in orientation
    b = shd(cases.eg_7v_t4(), cases.dag_7v())
    assert (b.fp, b.fn, b.wo) == (0, 0, 4)
    assert b.shd == 4


def test_shd_identity_is_zero():
    assert shd(cases.cg_7v(), cases.cg_7v()).shd == 0


def test_shd_counts_each_mismatch_kind():
    truth = Graph(4, arrows=[(1, 2)], lines=[(2, 3)])
    est = Graph(4, arrows=[(2, 1), (3, 4)], lines=[])
    b = shd(est, truth)
    assert (b.fp, b.fn, b.wo) == (1, 1, 1)


def test_shd_size_mismatch():
    with pytest.raises(SizeMismatch):
        shd(Graph(3), Graph(4))


@given(graph_tuples())
def test_shd_matches_pairwise_oracle(pair):
    g, h = pair
    b = shd(g, h)
    assert (b.fp, b.fn, b.wo) == oracles.shd_counts(g, h)


@given(graph_tuples())
def test_shd_swaps_roles_symmetrically(pair):
    g, h = pair
    b = shd(g, h)
    r = shd(h, g)
    assert (b.fp, b.fn) == (r.fn, r.fp)
    assert b.wo == r.wo and b.shd == r.shd


@given(graph_tuples(count=3))
def test_shd_triangle_inequality(triple):
    g, h, k = triple
    assert shd(g, k).shd <= shd(g, h).shd + shd(h, k).shd


def test_evaluate_reports_both_distances():
    truth = cases.dag_7v()
    rep = evaluate(cases.dag_7v_b(), truth, cases.FAM_T4)
    assert isinstance(rep, EvaluationReport)
    # equivalent member: pure orientation error against the DAG itself, and
    # its 4 extra arrows count against the essential graph's lines too
    assert rep.shd_vs_essential == 4
    assert rep.breakdown.fn == 0 and rep.breakdown.fp == 0
    assert rep.breakdown.wo > 0
    eg = essential_graph(truth, cases.FAM_T4)
    assert rep.non_essential_true == count_non_essential(eg)
    d = rep.to_dict()
    assert set(d) == {"shd", "fp", "fn", "wo", "shd_vs_essential", "non_essential_true"}
    assert d["shd"] == rep.breakdown.shd


def test_evaluate_perfect_estimate():
    truth = cases.dag_7v()
    eg = essential_graph(truth, cases.FAM_T4)
    rep = evaluate(eg.graph, truth, cases.FAM_T4)
    assert rep.shd_vs_essential == 0
    assert rep.breakdown.shd == rep.non_essential_true == 4


@pytest.mark.parametrize("truth, why", [
    (Graph(3, arrows=[(1, 2), (2, 3), (3, 1)]), "an acyclic graph, got a directed cycle"),
    (Graph(3, lines=[(1, 2)]), "a fully directed graph, got the line 1 - 2"),
], ids=["cycle", "line"])
def test_evaluate_names_the_line_or_cycle_of_the_truth(truth, why):
    # a 3-cycle truth once gave a report
    with pytest.raises(GraphError) as exc:
        evaluate(Graph(3), truth, cases.FAM_OBS)
    assert str(exc.value) == f"evaluate requires {why} in the truth"


@given(st.integers(0, 3))
def test_evaluate_empty_estimate_counts_every_true_edge(seed):
    from gieskit import random_dag, substream

    truth = random_dag(5, 0.5, substream(seed))
    rep = evaluate(Graph(5), truth, cases.FAM_OBS)
    assert rep.breakdown.fn == truth.num_arrows
    assert rep.breakdown.fp == rep.breakdown.wo == 0
