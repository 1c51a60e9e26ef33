"""Class-space moves and the greedy equivalence search."""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import replace
from functools import partial
from math import fsum
from operator import attrgetter

import pytest
from hypothesis import example, given, settings, strategies as st

import cases
import gieskit
import oracles
from gieskit import (
    Dag,
    DegenerateFit,
    GiesOptions,
    Graph,
    GraphError,
    InsufficientSamples,
    InvalidMove,
    MoveCandidate,
    MoveKind,
    NonConservativeFamily,
    NotALine,
    NotAnArrow,
    NotAnEdge,
    ScoreCache,
    ScoringError,
    SimConfig,
    SingularDesign,
    TargetFamily,
    VerticesAdjacent,
    apply_move,
    best_move,
    essential_graph,
    gds,
    ges,
    gies,
    has_path,
    is_essential_graph,
    local_score,
    move_delta,
    random_model,
    representative,
    sample,
    simulate,
    substream,
    total_score,
    valid_move,
)
from gieskit.scoring import UNFITTABLE
from gieskit.search import _ADMITS, _PHASE_KINDS, _move_keys, _moves, _scored

dag4_arrows = st.sampled_from(oracles.all_dag_arrow_sets(4))
families4 = st.lists(
    st.sets(st.integers(1, 4), max_size=3), max_size=2
).map(lambda ts: [()] + ts)

SIM6 = simulate(SimConfig(p=6, s=0.35, k=3, m=1, n=3000, seed=7))


# -- move candidates -----------------------------------------------------------


def test_public_names_resolve_once():
    assert len(set(gieskit.__all__)) == len(gieskit.__all__)
    for name in gieskit.__all__:
        assert hasattr(gieskit, name), name


def test_move_kind_tie_break_order():
    assert MoveKind.INSERT < MoveKind.DELETE < MoveKind.TURN_LINE < MoveKind.TURN_ARROW


def test_move_candidate_key():
    m = MoveCandidate(MoveKind.DELETE, u=5, v=2, C=frozenset({3, 1}), delta=0.5)
    assert m.rank[1:] == (1, 2, 5, (1, 3))
    # ranking is by delta first, key second
    better = MoveCandidate(MoveKind.TURN_ARROW, 9, 9, frozenset(), 0.6)
    ranked = sorted([m, better], key=lambda c: c.rank)
    assert ranked[0] is better


# -- validity fixtures ----------------------------------------------------------


def test_valid_insert_fixture():
    e = cases.eg_7v_t4()
    assert valid_move(MoveKind.INSERT, e, 4, 2, {3})
    # without orienting 3 into 2 first, a directed path 2 -> ... -> 4 remains
    assert not valid_move(MoveKind.INSERT, e, 4, 2, frozenset())
    assert not valid_move(MoveKind.INSERT, e, 4, 2, {1})
    with pytest.raises(VerticesAdjacent):
        valid_move(MoveKind.INSERT, e, 2, 5, frozenset())
    with pytest.raises(GraphError):
        valid_move(MoveKind.INSERT, e, 2, 2, frozenset())


def test_valid_insert_requires_clique_c():
    # 1 and 3 are both line-neighbours of 2 but not joined themselves
    e = cases.eg_7v_t4()
    assert not valid_move(MoveKind.INSERT, e, 4, 2, {1, 3})


def test_valid_delete_fixture():
    e = cases.eg_7v_t4()
    assert valid_move(MoveKind.DELETE, e, 2, 5, frozenset())
    assert valid_move(MoveKind.DELETE, e, 2, 5, {1})
    # C must stay inside the common neighbourhood
    assert not valid_move(MoveKind.DELETE, e, 2, 5, {3})
    assert valid_move(MoveKind.DELETE, e, 3, 4, frozenset())
    with pytest.raises(NotAnEdge):
        valid_move(MoveKind.DELETE, e, 4, 2, frozenset())


def test_valid_turn_line_fixture():
    e = cases.eg_7v_t4()
    assert valid_move(MoveKind.TURN_LINE, e, 5, 2, {3})
    # C entirely inside N leaves the class unchanged
    assert not valid_move(MoveKind.TURN_LINE, e, 5, 2, {1})
    assert not valid_move(MoveKind.TURN_LINE, e, 5, 2, frozenset())
    with pytest.raises(NotALine):
        valid_move(MoveKind.TURN_LINE, e, 4, 3, frozenset())


def test_valid_turn_arrow_fixture():
    e = cases.eg_5v()
    assert valid_move(MoveKind.TURN_ARROW, e, 1, 2, {3})
    # N = nb(2) & ad(1) = {} so any clique C of nb(2) qualifies structurally
    assert valid_move(MoveKind.TURN_ARROW, e, 1, 2, frozenset())
    with pytest.raises(NotAnArrow):
        valid_move(MoveKind.TURN_ARROW, e, 2, 1, {3})
    with pytest.raises(NotAnArrow):
        valid_move(MoveKind.TURN_ARROW, e, 5, 1, frozenset())


# -- application fixtures --------------------------------------------------------


def _apply(kind, g, u, v, C, fam):
    return apply_move(g, MoveCandidate(kind, u, v, frozenset(C), 0.0), fam)


def test_apply_insert_fixture():
    got = _apply(MoveKind.INSERT, cases.eg_7v_t4(), 4, 2, {3}, cases.FAM_T4)
    assert got == cases.eg_7v_after_insert()
    assert is_essential_graph(got, cases.FAM_T4).ok


def test_apply_delete_fixture():
    got = _apply(MoveKind.DELETE, cases.eg_7v_t4(), 2, 5, frozenset(), cases.FAM_T4)
    assert got == cases.eg_7v_after_delete()
    assert is_essential_graph(got, cases.FAM_T4).ok


def test_apply_turn_line_fixture():
    got = _apply(MoveKind.TURN_LINE, cases.eg_7v_t4(), 5, 2, {3}, cases.FAM_T4)
    assert got == cases.eg_7v_after_turn_line()
    assert is_essential_graph(got, cases.FAM_T4).ok


def test_apply_turn_arrow_fixture():
    # under {(), (4,)} the result is fully directed; the observational
    # family would leave 4 - 1 unoriented
    got = _apply(MoveKind.TURN_ARROW, cases.eg_5v(), 1, 2, {3}, cases.FAM_T4)
    assert got == cases.eg_5v_after_turn_arrow()
    assert is_essential_graph(got, cases.FAM_T4).ok


def test_apply_rejects_invalid_moves():
    e = cases.eg_7v_t4()
    with pytest.raises(InvalidMove):
        _apply(MoveKind.INSERT, e, 4, 2, frozenset(), cases.FAM_T4)
    with pytest.raises(InvalidMove):
        _apply(MoveKind.TURN_LINE, e, 5, 2, {1}, cases.FAM_T4)
    with pytest.raises(NotAnEdge):
        _apply(MoveKind.DELETE, e, 4, 2, frozenset(), cases.FAM_T4)


def test_apply_move_dispatch():
    move = MoveCandidate(MoveKind.INSERT, 4, 2, frozenset({3}), 0.0)
    assert apply_move(cases.eg_7v_t4(), move, cases.FAM_T4) == cases.eg_7v_after_insert()
    move = MoveCandidate(MoveKind.TURN_LINE, 5, 2, frozenset({3}), 0.0)
    assert apply_move(cases.eg_7v_t4(), move, cases.FAM_T4) == cases.eg_7v_after_turn_line()


# -- move semantics against full rescoring --------------------------------------


def _neighbour_subsets(e, v):
    nb = sorted(e.neighbors(v))
    return [
        frozenset(c) for r in range(len(nb) + 1) for c in itertools.combinations(nb, r)
    ]


def _all_valid_moves(e):
    """Exhaustive (kind, u, v, C) scan over subsets of each neighbourhood."""
    out = []
    for v in e.vertices:
        subsets = _neighbour_subsets(e, v)
        for u in e.vertices:
            if u == v:
                continue
            for C in subsets:
                for kind in MoveKind:
                    try:
                        if valid_move(kind, e, u, v, C):
                            out.append((kind, u, v, C))
                    except (VerticesAdjacent, NotAnEdge, NotALine, NotAnArrow):
                        pass  # the pair lacks the edge this kind acts on
    return out


DELTAS = {kind: partial(move_delta, kind) for kind in MoveKind}
APPLIES = {kind: partial(_apply, kind) for kind in MoveKind}


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


@settings(max_examples=25)
@given(dag4_arrows, dag4_arrows, families4, st.integers(0, 2**16))
def test_candidates_are_the_valid_moves_with_their_deltas(arrows, truth, targets, seed):
    # the generator yields every valid move; the scorer yields each generated
    # move with a positive delta exactly once, scored exactly as move_delta
    # does, and no other move; after the deferred path checks these are the
    # valid moves of the brute-force scan with a positive delta. The data
    # come from another DAG, so that many deltas are positive
    fam = TargetFamily(targets)
    model = random_model(Dag(4, arrows=truth), substream(seed, 0))
    data = sample(model, fam, 240, substream(seed, 1))
    cache = ScoreCache(data)
    e = essential_graph(Dag(4, arrows=arrows), fam).graph
    brute = _all_valid_moves(e)

    def delta(move):
        try:
            return DELTAS[move[0]](e, *move[1:], data, cache)
        except UNFITTABLE:
            return None

    for phase, kinds in _PHASE_KINDS.items():
        got = {}
        for c in _scored(e, _moves(e, kinds), cache):
            move = (c.kind, c.u, c.v, c.C)
            assert move not in got, (phase, move)
            got[move] = c.delta
        generated = list(_moves(e, kinds))
        valid = {m for m in brute if m[0] in kinds}
        assert {m for m in generated if valid_move(m[0], e, *m[1:])} == valid, phase
        deltas = {m: delta(m) for m in generated}
        positive = {m: d for m, d in deltas.items() if d is not None and d > 0.0}
        # == on floats: each delta must be bitwise move_delta's
        assert got == positive, phase
        valid_positive = {m for m in valid if (d := delta(m)) is not None and d > 0.0}
        assert {m for m in got if valid_move(m[0], e, *m[1:])} == valid_positive, phase


SIM3 = simulate(SimConfig(p=3, s=0.5, k=0, m=1, n=50, seed=1))


@pytest.mark.parametrize("kind, errors, raised", [
    # (v, B | {u}) first, then (v, B); a turn adds (u, P - {v}), (u, P | {v})
    (MoveKind.INSERT, (SingularDesign, DegenerateFit), None),
    (MoveKind.INSERT, (DegenerateFit, SingularDesign), DegenerateFit),
    (MoveKind.INSERT, (None, InsufficientSamples), None),
    (MoveKind.INSERT, (None, DegenerateFit), DegenerateFit),
    (MoveKind.TURN_ARROW, (None, None, DegenerateFit, SingularDesign), DegenerateFit),
    (MoveKind.TURN_ARROW, (None, None, None, InsufficientSamples), None),
], ids=["unfittable-first", "degenerate-first", "unfittable-base", "degenerate-base",
        "turn-degenerate-first", "turn-unfittable"])
def test_the_first_erroring_key_decides_a_move(kind, errors, raised):
    # the memo holds an error per key; the first key in _move_keys order
    # that holds one skips the move (UNFITTABLE) or raises a copy of it
    g = Graph(3, arrows=[(3, 1)])
    u, v = (1, 3) if kind is MoveKind.TURN_ARROW else (2, 1)
    cache = ScoreCache(SIM3.data)
    keys = _move_keys(kind, g, u, v, frozenset(), frozenset(g._pa[v]))
    for key, error in zip(keys, errors):
        cache.memo[key] = error(f"{key}") if error else 0.5 * len(key[1])
    moves = [(kind, u, v, frozenset())]
    if raised is None:
        assert list(_scored(g, moves, cache)) == []
        return
    with pytest.raises(raised) as info:
        list(_scored(g, moves, cache))
    first = keys[errors.index(raised)]
    assert str(info.value) == f"{first}"
    assert info.value is not cache.memo[first]
    assert cache.memo[first].__traceback__ is None


# The per-kind delta formulas that search.move_delta replaced, kept as its
# reference: one subtraction for insert and delete, one fsum of four local
# scores for the turns.


def _ref_insert(e, u, v, C, data):
    base = frozenset(e.parents(v)) | C
    return local_score(v, base | {u}, data) - local_score(v, base, data)


def _ref_delete(e, u, v, C, data):
    base = frozenset(e.parents(v)) | C
    return local_score(v, base - {u}, data) - local_score(v, base | {u}, data)


def _ref_turn_line(e, u, v, C, data):
    CN = C & (e.neighbors(v) & e.adjacent(u))
    base_v = frozenset(e.parents(v)) | C
    base_u = frozenset(e.parents(u)) | CN
    return fsum((
        local_score(v, base_v | {u}, data),
        local_score(u, base_u, data),
        -local_score(v, base_v, data),
        -local_score(u, base_u | {v}, data),
    ))


def _ref_turn_arrow(e, u, v, C, data):
    base_v = frozenset(e.parents(v)) | C
    pa_u = frozenset(e.parents(u))
    return fsum((
        local_score(v, base_v | {u}, data),
        local_score(u, pa_u - {v}, data),
        -local_score(v, base_v, data),
        -local_score(u, pa_u, data),
    ))


REFERENCE_DELTAS = {
    MoveKind.INSERT: _ref_insert,
    MoveKind.DELETE: _ref_delete,
    MoveKind.TURN_LINE: _ref_turn_line,
    MoveKind.TURN_ARROW: _ref_turn_arrow,
}


@settings(max_examples=25)
@given(dag4_arrows, families4, st.integers(0, 2**16))
def test_deltas_equal_the_reference_formulas(arrows, targets, seed):
    fam = TargetFamily(targets)
    model = random_model(Dag(4, arrows=arrows), substream(seed, 0))
    data = sample(model, fam, 240, substream(seed, 1))
    e = essential_graph(Dag(4, arrows=arrows), fam).graph
    for kind, u, v, C in _all_valid_moves(e):
        assert DELTAS[kind](e, u, v, C, data) == REFERENCE_DELTAS[kind](
            e, u, v, C, data
        ), (kind, u, v, C)


# The four validity checks that search.valid_move replaced, kept as its
# reference.


def _ref_admitted(g, kind, u, v, C):
    nb_v = frozenset(g._nb[v])
    N = nb_v & g.adjacent(u)
    clique = all(g.has_line(a, b) for a, b in itertools.combinations(C, 2))
    return C <= nb_v and clique and _ADMITS[kind](g, nb_v, N, u, C)


def _ref_valid_insert(g, u, v, C):
    if u == v:
        raise GraphError("u and v must differ")
    if g.is_adjacent(u, v):
        raise VerticesAdjacent(f"{u} and {v} are already adjacent")
    C = frozenset(C)
    return _ref_admitted(g, MoveKind.INSERT, u, v, C) and not has_path(g, v, u, forbidden=C)


def _ref_valid_delete(g, u, v, C):
    if not (g.has_arrow(u, v) or g.has_line(u, v)):
        raise NotAnEdge(f"no arrow {u} -> {v} and no line {u} - {v}")
    return _ref_admitted(g, MoveKind.DELETE, u, v, frozenset(C))


def _ref_valid_turn_line(g, u, v, C):
    if not g.has_line(u, v):
        raise NotALine(f"no line {u} - {v}")
    return _ref_admitted(g, MoveKind.TURN_LINE, u, v, frozenset(C))


def _ref_valid_turn_arrow(g, u, v, C):
    if not g.has_arrow(v, u):
        raise NotAnArrow(f"no arrow {v} -> {u}")
    C = frozenset(C)
    if not _ref_admitted(g, MoveKind.TURN_ARROW, u, v, C):
        return False
    cut = g.copy()
    cut._pa[u].discard(v)
    cut._ch[v].discard(u)
    return not has_path(cut, v, u, forbidden=C | g._nb[u])


REFERENCE_VALID = {
    MoveKind.INSERT: _ref_valid_insert,
    MoveKind.DELETE: _ref_valid_delete,
    MoveKind.TURN_LINE: _ref_valid_turn_line,
    MoveKind.TURN_ARROW: _ref_valid_turn_arrow,
}


def _outcome(check, *args):
    """The bool a check returns, or the type of the error it raises."""
    try:
        return check(*args)
    except GraphError as exc:
        return type(exc)


@settings(max_examples=50)
@given(dag4_arrows, families4)
def test_valid_move_equals_the_reference_checks(arrows, targets):
    # every kind, every ordered pair (u = v included) and every C in nb(v)
    e = essential_graph(Dag(4, arrows=arrows), TargetFamily(targets)).graph
    for v in e.vertices:
        for u, C, (kind, ref) in itertools.product(
            e.vertices, _neighbour_subsets(e, v), REFERENCE_VALID.items()
        ):
            want = _outcome(ref, e, u, v, C)
            assert _outcome(valid_move, kind, e, u, v, C) is want, (kind, u, v, sorted(C))


# -- best_move -----------------------------------------------------------------


def test_best_move_picks_the_highest_delta():
    g = Graph(6)
    move = best_move(g, "forward", SIM6.data)
    assert move is not None and move.kind == MoveKind.INSERT
    deltas = [
        move_delta(MoveKind.INSERT, g, u, v, frozenset(), SIM6.data)
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


@pytest.mark.parametrize("phase", ["forward", "backward", "turning"])
def test_stateless_best_move_fits_each_key_once(phase, monkeypatch):
    # backward and turning deltas share terms across u, so a call without a
    # cache must still score through one cache
    g = gies(SIM6.data, SIM6.fam).graph.graph
    fits = []
    fit = gieskit.scoring._fit
    monkeypatch.setattr(
        gieskit.scoring, "_fit", lambda data, keys: fits.extend(keys) or fit(data, keys)
    )
    best_move(g, phase, SIM6.data)
    assert fits and len(set(fits)) == len(fits)


def test_best_move_refuses_a_cache_bound_to_other_data():
    # a foreign cache is a caller's error, not a parent set to skip
    foreign = ScoreCache(SIM6.data.erase_targets())
    with pytest.raises(ScoringError, match="bound to a different dataset"):
        best_move(Graph(6), "forward", SIM6.data, cache=foreign)
    # refused before any key is scored into the foreign memo, and before
    # a ranking is kept there
    assert foreign.memo == {} and foreign.misses == 0
    assert foreign.rankings == {}


def test_move_delta_refuses_a_cache_bound_to_other_data():
    foreign = ScoreCache(SIM6.data.erase_targets())
    with pytest.raises(ScoringError, match="bound to a different dataset"):
        move_delta(MoveKind.INSERT, Graph(6), 1, 2, (), SIM6.data, foreign)


def _key(c):
    return (c.rank[1:], c.delta)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(6, 8),
    st.integers(0, 2),
    st.integers(0, 2**16),
    st.sampled_from(["gies", "gies-nt", "gds"]),
    st.sampled_from([None, 2]),
)
# a line 1 - 4 appears between two neighbours of the unchanged vertex 7,
# which gives the inserts at 7 the new clique C = {1, 4}
@example(8, 0, 20, "gies", None)
# the second insert, a line 4 - 5, changes ad(4) outside nb(1) | {1} =
# {1, 6}: the inserts 4 -> 1 are kept as they were
@example(6, 0, 2, "gies", None)
# the insert 4 -> 6 adds 4, the only neighbour of the unchanged vertex 5,
# to ad(6): the insert 6 -> 5 now needs C = {4}, so the pair is enumerated
# again
@example(6, 0, 0, "gies", None)
# the insert 5 -> 1 brings |ad(5)| to the cap while pa(5) and nb(5) stay,
# which closes the inserts at 5; the insert 4 -> 6 brings |ad(4)| to the
# cap, which closes partner 4 of the unchanged vertices 1, 2 and 3
@example(6, 0, 0, "gies", 2)
# the turn-arrow 5 -> 1 adds 5 to pa(1) and leaves ad(1) as it was: the
# turn-arrow (1, 4) of the unchanged vertex 4 reads pa(1), and its delta
# falls from 27.9 to 18.3
@example(6, 0, 1, "gies", None)
def test_ranking_state_equals_a_full_rebuild_after_every_step(p, k, seed, learner, max_degree):
    # after every call in a run, the cache's ranking of the phase holds
    # exactly the positive candidates a full enumeration builds, in rank
    # order, and the move is the one a fresh cache gives
    sim = simulate(SimConfig(p=p, s=0.6, k=k, m=1, n=300, seed=seed))
    real = gieskit.search.best_move
    calls = []

    def checked(g, phase, data, cache=None, max_degree=None):
        move = real(g, phase, data, cache, max_degree)
        # best_move walks the one list unsorted, so its order is checked too
        full = _full_positive(g, phase, data, cache, max_degree)
        assert list(map(_key, _positive(cache.rankings[phase, max_degree]))) == [
            _key(c) for c in sorted(full, key=attrgetter("rank"))
        ]
        assert move == real(g, phase, data, ScoreCache(data, cache.penalty), max_degree)
        calls.append(move)
        return move

    opts = GiesOptions(variant="gies-nt" if learner == "gies-nt" else "gies",
                       max_degree=max_degree)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gieskit.search, "best_move", checked)
        if learner == "gds":
            res = gds(sim.data, sim.fam, opts)
        else:
            res = gies(sim.data, sim.fam, opts)
    assert res.steps == sum(m is not None for m in calls)


def _positive(ranking):
    return ranking.ranked


def _full_positive(g, phase, data, cache, max_degree=None):
    moves = _moves(g, _PHASE_KINDS[phase], max_degree)
    return list(_scored(g, moves, cache))


@settings(max_examples=10, deadline=None)
@given(st.integers(6, 8), st.integers(0, 2**16))
def test_rankings_of_every_phase_and_cap_share_one_cache(p, seed):
    # one cache keeps a ranking per (phase, max_degree); called in any
    # order, on graphs that differ by more than one move, each call still
    # gives the move of a fresh cache
    sim = simulate(SimConfig(p=p, s=0.6, k=2, m=1, n=300, seed=seed))
    res = gies(sim.data, sim.fam, GiesOptions(trace=True))
    g, graphs = Graph(p), [Graph(p)]
    for e in res.trace.entries:
        move = MoveCandidate(MoveKind[e.kind.upper()], e.u, e.v, frozenset(e.C), e.delta)
        g = apply_move(g, move, sim.fam)
        graphs.append(g)
    cache = ScoreCache(sim.data)
    for g in graphs[::2] + graphs[1::2]:
        for max_degree in (None, 2):
            for phase in _PHASE_KINDS:
                move = best_move(g, phase, sim.data, cache, max_degree)
                assert move == best_move(g, phase, sim.data, ScoreCache(sim.data), max_degree)
    assert set(cache.rankings) == {
        (phase, cap) for phase in _PHASE_KINDS for cap in (None, 2)
    }


def test_a_failed_call_leaves_the_ranking_as_it_was(monkeypatch):
    # the ranking outlives a call that raises inside the caller's cache; it
    # must not then count the vertices of that call as up to date
    sim = SIM6_N300
    cache = ScoreCache(sim.data)
    g = Graph(6)
    first = best_move(g, "forward", sim.data, cache)
    g = apply_move(g, first, sim.fam)
    scored = gieskit.search._scored

    def fail_once(*args):
        monkeypatch.setattr(gieskit.search, "_scored", scored)
        raise ScoringError("scoring failed")

    monkeypatch.setattr(gieskit.search, "_scored", fail_once)
    with pytest.raises(ScoringError, match="scoring failed"):
        best_move(g, "forward", sim.data, cache)
    move = best_move(g, "forward", sim.data, cache)
    assert sorted(map(_key, _positive(cache.rankings["forward", None]))) == sorted(
        map(_key, _full_positive(g, "forward", sim.data, cache))
    )
    assert move == best_move(g, "forward", sim.data, ScoreCache(sim.data))


SIM6_N300 = simulate(SimConfig(p=6, s=0.4, k=2, m=1, n=300, seed=3))


@pytest.mark.parametrize("call", [
    lambda data: best_move(Graph(4), "forward", data),
    lambda data: move_delta(MoveKind.INSERT, Graph(4), 1, 2, (), data),
], ids=["best_move", "move_delta"])
def test_a_graph_of_another_size_is_refused_before_any_score(call):
    # four of the six columns would otherwise be scored as the whole data
    with pytest.raises(ScoringError, match="^graph has 4 vertices, data has 6$"):
        call(SIM6_N300.data)


@pytest.mark.parametrize("kind, u, v", [
    (MoveKind.INSERT, 1, 7),
    (MoveKind.INSERT, 0, 2),
    (MoveKind.TURN_LINE, 7, 1),
    (MoveKind.TURN_ARROW, 7, 1),
    (MoveKind.DELETE, 2, -1),
])
def test_move_delta_refuses_a_vertex_outside_the_graph(kind, u, v):
    bad = u if not 1 <= u <= 6 else v
    with pytest.raises(GraphError, match=f"^vertex {bad} outside 1..6$"):
        move_delta(kind, Graph(6), u, v, (), SIM6_N300.data)


@pytest.mark.parametrize("cap, message", [
    (-1, "max_degree must be >= 0, got -1"),
    (1.5, "max_degree must be an integer, got 1.5"),
    (True, "max_degree must be an integer, got True"),
    ("2", "max_degree must be an integer, got '2'"),
])
def test_best_move_refuses_a_cap_that_is_not_a_count(cap, message):
    # refused before a ranking is kept under the bad cap
    cache = ScoreCache(SIM6_N300.data)
    with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
        best_move(Graph(6), "forward", SIM6_N300.data, cache, cap)
    assert cache.rankings == {} and cache.misses == 0


@pytest.mark.parametrize("kind", [0, 3, "insert", None, "TURN_ARROW"])
def test_a_kind_that_is_not_a_move_kind_is_refused(kind):
    # the delta and the validity rules branch on the member; any other
    # value was taken as a turn
    message = f"^unknown move kind {re.escape(repr(kind))}$"
    g, data = Graph(6), SIM6_N300.data
    with pytest.raises(GraphError, match=message):
        valid_move(kind, g, 1, 2, ())
    with pytest.raises(GraphError, match=message):
        move_delta(kind, g, 1, 2, (), data)
    with pytest.raises(GraphError, match=message):
        apply_move(g, MoveCandidate(kind, 1, 2, frozenset(), 1.0), SIM6_N300.fam)


@pytest.mark.parametrize("u, v", [(1, 7), (0, 2), (5, 1)])
def test_a_move_naming_a_vertex_outside_the_graph_is_refused(u, v):
    bad = u if not 1 <= u <= 4 else v
    message = f"^vertex {bad} outside 1..4$"
    with pytest.raises(GraphError, match=message):
        valid_move(MoveKind.INSERT, Graph(4), u, v, ())
    with pytest.raises(GraphError, match=message):
        apply_move(Graph(4), MoveCandidate(MoveKind.INSERT, u, v, frozenset(), 1.0),
                   TargetFamily([()]))


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


@settings(max_examples=20)
@given(
    st.integers(3, 6),
    st.integers(0, 2),
    st.integers(0, 2**16),
    st.sampled_from(["total", "per-node"]),
)
def test_reported_score_is_the_total_score_of_a_representative(p, k, seed, penalty):
    # per-node differs from total only through the rows a target removes
    sim = simulate(SimConfig(p=p, s=0.4, k=k, m=1, n=200, seed=seed))
    opts = GiesOptions(penalty=penalty)
    runs = [
        (gies(sim.data, sim.fam, replace(opts, variant=v)), sim.data)
        for v in ("gies", "gies-nt")
    ]
    runs.append((ges(sim.data, opts), sim.data.erase_targets()))
    for res, data in runs:
        rescored = total_score(representative(res.graph), data, penalty=penalty)
        assert res.score == pytest.approx(rescored, rel=1e-9)


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


def test_gies_trace_replays_through_essential_graphs():
    res = gies(SIM6.data, SIM6.fam, GiesOptions(trace=True))
    g = Graph(6)
    for step, e in enumerate(res.trace.entries):
        kind = MoveKind[e.kind.upper()]
        g = apply_move(g, MoveCandidate(kind, e.u, e.v, frozenset(e.C), e.delta), SIM6.fam)
        report = is_essential_graph(g, SIM6.fam)
        assert report.ok, (step, e, report.violated, report.witness)
    assert g == res.graph.graph


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
