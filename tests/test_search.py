"""Class-space moves and the greedy equivalence search."""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings, strategies as st

import cases
import oracles
from gieskit import (
    Dag,
    GiesOptions,
    Graph,
    GraphError,
    InvalidMove,
    MoveCandidate,
    MoveKind,
    NonConservativeFamily,
    NotALine,
    NotAnArrow,
    NotAnEdge,
    ScoringError,
    SimConfig,
    TargetFamily,
    VerticesAdjacent,
    apply_delete,
    apply_insert,
    apply_move,
    apply_turn_arrow,
    apply_turn_line,
    best_move,
    delta_delete,
    delta_insert,
    delta_turn_arrow,
    delta_turn_line,
    essential_graph,
    gies,
    is_essential_graph,
    random_model,
    representative,
    sample,
    simulate,
    substream,
    total_score,
    valid_delete,
    valid_insert,
    valid_turn_arrow,
    valid_turn_line,
)

dag4_arrows = st.sampled_from(oracles.all_dag_arrow_sets(4))
families4 = st.lists(
    st.sets(st.integers(1, 4), max_size=3), max_size=2
).map(lambda ts: [()] + ts)

SIM6 = simulate(SimConfig(p=6, s=0.35, k=3, m=1, n=3000, seed=7))


# -- move candidates -----------------------------------------------------------


def test_move_kind_tie_break_order():
    assert MoveKind.INSERT < MoveKind.DELETE < MoveKind.TURN_LINE < MoveKind.TURN_ARROW


def test_move_candidate_key():
    m = MoveCandidate(MoveKind.DELETE, u=5, v=2, C=frozenset({3, 1}), delta=0.5)
    assert m.key() == (1, 2, 5, (1, 3))
    # ranking is by delta first, key second
    better = MoveCandidate(MoveKind.TURN_ARROW, 9, 9, frozenset(), 0.6)
    ranked = sorted([m, better], key=lambda c: (-c.delta, c.key()))
    assert ranked[0] is better


# -- validity fixtures ----------------------------------------------------------


def test_valid_insert_fixture():
    e = cases.eg_7v_t4()
    assert valid_insert(e, 4, 2, {3})
    # without orienting 3 into 2 first, a directed path 2 -> ... -> 4 remains
    assert not valid_insert(e, 4, 2, frozenset())
    assert not valid_insert(e, 4, 2, {1})
    with pytest.raises(VerticesAdjacent):
        valid_insert(e, 2, 5, frozenset())
    with pytest.raises(GraphError):
        valid_insert(e, 2, 2, frozenset())


def test_valid_insert_requires_clique_c():
    # 1 and 3 are both line-neighbours of 2 but not joined themselves
    e = cases.eg_7v_t4()
    assert not valid_insert(e, 4, 2, {1, 3})


def test_valid_delete_fixture():
    e = cases.eg_7v_t4()
    assert valid_delete(e, 2, 5, frozenset())
    assert valid_delete(e, 2, 5, {1})
    # C must stay inside the common neighbourhood
    assert not valid_delete(e, 2, 5, {3})
    assert valid_delete(e, 3, 4, frozenset())
    with pytest.raises(NotAnEdge):
        valid_delete(e, 4, 2, frozenset())


def test_valid_turn_line_fixture():
    e = cases.eg_7v_t4()
    assert valid_turn_line(e, 5, 2, {3})
    # C entirely inside N leaves the class unchanged
    assert not valid_turn_line(e, 5, 2, {1})
    assert not valid_turn_line(e, 5, 2, frozenset())
    with pytest.raises(NotALine):
        valid_turn_line(e, 4, 3, frozenset())


def test_valid_turn_arrow_fixture():
    e = cases.eg_5v()
    assert valid_turn_arrow(e, 1, 2, {3})
    # N = nb(2) & ad(1) = {} so any clique C of nb(2) qualifies structurally
    assert valid_turn_arrow(e, 1, 2, frozenset())
    with pytest.raises(NotAnArrow):
        valid_turn_arrow(e, 2, 1, {3})
    with pytest.raises(NotAnArrow):
        valid_turn_arrow(e, 5, 1, frozenset())


# -- application fixtures --------------------------------------------------------


def test_apply_insert_fixture():
    got = apply_insert(cases.eg_7v_t4(), 4, 2, {3}, cases.FAM_T4)
    assert got == cases.eg_7v_after_insert()
    assert is_essential_graph(got, cases.FAM_T4).ok


def test_apply_delete_fixture():
    got = apply_delete(cases.eg_7v_t4(), 2, 5, frozenset(), cases.FAM_T4)
    assert got == cases.eg_7v_after_delete()
    assert is_essential_graph(got, cases.FAM_T4).ok


def test_apply_turn_line_fixture():
    got = apply_turn_line(cases.eg_7v_t4(), 5, 2, {3}, cases.FAM_T4)
    assert got == cases.eg_7v_after_turn_line()
    assert is_essential_graph(got, cases.FAM_T4).ok


def test_apply_turn_arrow_fixture():
    # under {(), (4,)} the result is fully directed; the observational
    # family would leave 4 - 1 unoriented
    got = apply_turn_arrow(cases.eg_5v(), 1, 2, {3}, cases.FAM_T4)
    assert got == cases.eg_5v_after_turn_arrow()
    assert is_essential_graph(got, cases.FAM_T4).ok


def test_apply_rejects_invalid_moves():
    e = cases.eg_7v_t4()
    with pytest.raises(InvalidMove):
        apply_insert(e, 4, 2, frozenset(), cases.FAM_T4)
    with pytest.raises(InvalidMove):
        apply_turn_line(e, 5, 2, {1}, cases.FAM_T4)
    with pytest.raises(NotAnEdge):
        apply_delete(e, 4, 2, frozenset(), cases.FAM_T4)


def test_apply_move_dispatch():
    move = MoveCandidate(MoveKind.INSERT, 4, 2, frozenset({3}), 0.0)
    assert apply_move(cases.eg_7v_t4(), move, cases.FAM_T4) == cases.eg_7v_after_insert()
    move = MoveCandidate(MoveKind.TURN_LINE, 5, 2, frozenset({3}), 0.0)
    assert apply_move(cases.eg_7v_t4(), move, cases.FAM_T4) == cases.eg_7v_after_turn_line()


# -- move semantics against full rescoring --------------------------------------


def _all_valid_moves(e):
    """Exhaustive (kind, u, v, C) scan over subsets of each neighbourhood."""
    out = []
    for v in e.vertices:
        nb = sorted(e.neighbors(v))
        subsets = [
            frozenset(c)
            for r in range(len(nb) + 1)
            for c in itertools.combinations(nb, r)
        ]
        for u in e.vertices:
            if u == v:
                continue
            for C in subsets:
                if not e.is_adjacent(u, v):
                    if valid_insert(e, u, v, C):
                        out.append((MoveKind.INSERT, u, v, C))
                else:
                    if (e.has_arrow(u, v) or e.has_line(u, v)) and valid_delete(e, u, v, C):
                        out.append((MoveKind.DELETE, u, v, C))
                    if e.has_line(u, v) and valid_turn_line(e, u, v, C):
                        out.append((MoveKind.TURN_LINE, u, v, C))
                    if e.has_arrow(v, u) and valid_turn_arrow(e, u, v, C):
                        out.append((MoveKind.TURN_ARROW, u, v, C))
    return out


DELTAS = {
    MoveKind.INSERT: delta_insert,
    MoveKind.DELETE: delta_delete,
    MoveKind.TURN_LINE: delta_turn_line,
    MoveKind.TURN_ARROW: delta_turn_arrow,
}
APPLIES = {
    MoveKind.INSERT: apply_insert,
    MoveKind.DELETE: apply_delete,
    MoveKind.TURN_LINE: apply_turn_line,
    MoveKind.TURN_ARROW: apply_turn_arrow,
}


@settings(max_examples=25)
@given(dag4_arrows, families4, st.integers(0, 2**16))
def test_every_valid_move_rescores_and_lands_on_an_essential_graph(
    arrows, targets, seed
):
    # score equivalence only holds when the data targets match the family,
    # so the dataset is drawn under the family being tested
    fam = TargetFamily(targets)
    model = random_model(Dag(4, arrows=arrows), substream(seed, 0))
    data = sample(model, fam, 240, substream(seed, 1))
    e = essential_graph(Dag(4, arrows=arrows), fam).graph
    base = total_score(representative(e), data)
    for kind, u, v, C in _all_valid_moves(e):
        delta = DELTAS[kind](e, u, v, C, data)
        nxt = APPLIES[kind](e, u, v, C, fam)
        report = is_essential_graph(nxt, fam)
        assert report.ok, (kind, u, v, C, report.violated, report.witness)
        rescored = total_score(representative(nxt), data)
        assert delta == pytest.approx(rescored - base, rel=1e-9, abs=1e-7), (
            kind, u, v, C,
        )


@settings(max_examples=25)
@given(dag4_arrows, families4)
def test_moves_change_the_class(arrows, targets):
    # a valid move must never return the class it started from
    fam = TargetFamily(targets)
    e = essential_graph(Dag(4, arrows=arrows), fam).graph
    for kind, u, v, C in _all_valid_moves(e):
        assert APPLIES[kind](e, u, v, C, fam) != e, (kind, u, v, C)


# -- best_move -----------------------------------------------------------------


def test_best_move_picks_the_highest_delta():
    g = Graph(6)
    move = best_move(g, "forward", SIM6.data)
    assert move is not None and move.kind == MoveKind.INSERT
    deltas = [
        delta_insert(g, u, v, frozenset(), SIM6.data)
        for u in g.vertices
        for v in g.vertices
        if u != v
    ]
    assert move.delta == pytest.approx(max(deltas))


def test_best_move_unknown_phase():
    with pytest.raises(GraphError):
        best_move(Graph(3), "sideways", SIM6.data)


def test_best_move_returns_none_at_a_fixpoint():
    done = gies(SIM6.data, SIM6.fam).graph.graph
    for phase in ("forward", "backward", "turning"):
        assert best_move(done, phase, SIM6.data) is None


# -- the full search -------------------------------------------------------------


def test_gies_recovers_an_identified_truth():
    res = gies(SIM6.data, SIM6.fam)
    want = essential_graph(SIM6.dag, SIM6.fam).graph
    assert res.graph.graph == want
    assert res.graph.targets == SIM6.fam
    assert res.steps >= res.graph.graph.num_edges


def test_gies_score_bookkeeping():
    res = gies(SIM6.data, SIM6.fam, GiesOptions(trace=True))
    rescored = total_score(representative(res.graph), SIM6.data)
    assert res.score == pytest.approx(rescored, rel=1e-9)
    empty = total_score(Dag(6), SIM6.data)
    assert res.score >= empty
    # the trace accumulates the deltas onto the empty-graph score
    running = empty
    for entry in res.trace.entries:
        assert entry.delta > 0
        running += entry.delta
        assert entry.score == pytest.approx(running)
    assert len(res.trace.entries) == res.steps


def test_gies_is_deterministic():
    a = gies(SIM6.data, SIM6.fam, GiesOptions(trace=True))
    b = gies(SIM6.data, SIM6.fam, GiesOptions(trace=True))
    assert a.graph.graph == b.graph.graph
    assert a.score == b.score
    assert a.trace.to_jsonl() == b.trace.to_jsonl()


def test_gies_trace_jsonl_round_trips():
    res = gies(SIM6.data, SIM6.fam, GiesOptions(trace=True))
    lines = res.trace.to_jsonl().splitlines()
    assert len(lines) == res.steps
    first = json.loads(lines[0])
    assert first["phase"] == "forward" and first["kind"] == "insert"
    assert set(first) == {"phase", "kind", "u", "v", "C", "delta", "score"}


def test_gies_validate_steps():
    res = gies(SIM6.data, SIM6.fam, GiesOptions(validate_steps=True))
    assert is_essential_graph(res.graph.graph, SIM6.fam).ok


def test_gies_nt_variant_skips_turning():
    res = gies(SIM6.data, SIM6.fam, GiesOptions(variant="gies-nt", trace=True))
    assert all(e.phase != "turning" for e in res.trace.entries)
    assert is_essential_graph(res.graph.graph, SIM6.fam).ok


def test_gies_option_validation():
    with pytest.raises(GraphError):
        gies(SIM6.data, SIM6.fam, GiesOptions(variant="tabu"))
    with pytest.raises(NonConservativeFamily):
        gies(SIM6.data, TargetFamily([(1,)]), GiesOptions())
    with pytest.raises(ScoringError):
        gies(SIM6.data, TargetFamily([(), (1,)]), GiesOptions())


def test_gies_max_degree_caps_the_skeleton():
    sim = simulate(SimConfig(p=8, s=0.6, k=2, m=1, n=500, seed=2))
    res = gies(sim.data, sim.fam, GiesOptions(max_degree=2))
    g = res.graph.graph
    assert max(len(g.adjacent(v)) for v in g.vertices) <= 2


def test_gies_result_is_essential_for_every_family_tested():
    for seed in range(3):
        sim = simulate(SimConfig(p=5, s=0.4, k=2, m=2, n=250, seed=seed))
        res = gies(sim.data, sim.fam)
        report = is_essential_graph(res.graph.graph, sim.fam)
        assert report.ok, (seed, report.violated, report.witness)
