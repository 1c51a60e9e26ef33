"""DAG-space greedy search, observational search and the exact optimizer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gieskit
import oracles
from gieskit import (
    Dag,
    DagSearchResult,
    DegenerateColumns,
    DegenerateFit,
    DpResult,
    GiesOptions,
    Graph,
    GraphError,
    InsufficientSamples,
    InterventionalDataset,
    MoveCandidate,
    MoveKind,
    NonConservativeFamily,
    ScoringError,
    SimConfig,
    TargetFamily,
    TooLarge,
    dp_exact,
    essential_graph,
    gds,
    ges,
    gies,
    is_acyclic,
    markov_equivalent,
    random_dag,
    random_model,
    sample,
    simulate,
    substream,
    total_score,
)
from gieskit.search import _edit

SIM6 = simulate(SimConfig(p=6, s=0.35, k=3, m=1, n=3000, seed=7))
SIM4 = simulate(SimConfig(p=4, s=0.5, k=2, m=1, n=300, seed=3))


# -- greedy DAG search ---------------------------------------------------------


def test_gds_finds_the_same_class_as_gies():
    res = gds(SIM6.data, SIM6.fam)
    assert isinstance(res, DagSearchResult)
    assert res.score == pytest.approx(total_score(res.dag, SIM6.data), rel=1e-9)
    want = gies(SIM6.data, SIM6.fam)
    assert essential_graph(res.dag, SIM6.fam).graph == want.graph.graph
    assert res.score == pytest.approx(want.score, rel=1e-9)


def test_gds_matches_gies_move_for_move_on_singleton_families():
    # with every vertex intervened on, classes are singletons and the two
    # searches walk identical move sequences
    p = 5
    fam = TargetFamily([(v,) for v in range(1, p + 1)])
    model = random_model(random_dag(p, 0.5, substream(4, 0)), substream(4, 1))
    data = sample(model, fam, 1000, substream(4, 3))
    a = gds(data, fam, GiesOptions(trace=True))
    b = gies(data, fam, GiesOptions(trace=True))
    assert a.score == pytest.approx(b.score, rel=1e-12)
    got = [(e.phase, e.kind, e.u, e.v, tuple(e.C)) for e in a.trace.entries]
    want = [(e.phase, e.kind, e.u, e.v, tuple(e.C)) for e in b.trace.entries]
    assert got == want
    assert b.graph.graph == Dag(p, arrows=a.dag.arrows)


def test_gds_is_deterministic():
    a = gds(SIM6.data, SIM6.fam, GiesOptions(trace=True))
    b = gds(SIM6.data, SIM6.fam, GiesOptions(trace=True))
    assert a.dag == b.dag
    assert a.trace.to_jsonl() == b.trace.to_jsonl()
    assert a.steps == len(a.trace.entries)


def test_gds_max_degree():
    sim = simulate(SimConfig(p=8, s=0.6, k=2, m=1, n=500, seed=2))
    res = gds(sim.data, sim.fam, GiesOptions(max_degree=2))
    d = res.dag
    assert max(len(d.adjacent(v)) for v in d.vertices) <= 2


def test_gds_validation():
    with pytest.raises(GraphError):
        gds(SIM6.data, SIM6.fam, GiesOptions(variant="tabu"))
    with pytest.raises(NonConservativeFamily):
        gds(SIM6.data, TargetFamily([(1,)]))
    with pytest.raises(ScoringError):
        gds(SIM6.data, TargetFamily([(), (1,)]))


def test_gds_trace_replays_through_dags_and_nt_variant():
    full = gds(SIM6.data, SIM6.fam, GiesOptions(trace=True))
    assert full.dag == gds(SIM6.data, SIM6.fam).dag
    g = Graph(6)
    for step, e in enumerate(full.trace.entries):
        kind = MoveKind[e.kind.upper()]
        g = _edit(g, MoveCandidate(kind, e.u, e.v, frozenset(e.C), e.delta))
        assert is_acyclic(g), (step, e)
    assert Dag(6, arrows=g.arrows) == full.dag
    nt = gds(SIM6.data, SIM6.fam, GiesOptions(variant="gies-nt", trace=True))
    assert all(e.phase != "turning" for e in nt.trace.entries)


# -- observational search --------------------------------------------------------


def test_ges_ignores_intervention_labels():
    res = ges(SIM6.data)
    want = gies(SIM6.data.erase_targets(), TargetFamily([()]))
    assert res.graph.graph == want.graph.graph
    assert res.score == pytest.approx(want.score, rel=1e-12)
    assert res.graph.targets == TargetFamily([()])


# -- exact optimizer --------------------------------------------------------------


def test_dp_exact_matches_brute_force():
    res = dp_exact(SIM4.data, SIM4.fam)
    assert isinstance(res, DpResult)
    want_score, want_arrows = oracles.best_dag_score(
        4, SIM4.data.X, SIM4.data.targets
    )
    assert res.score == pytest.approx(want_score, rel=1e-9)
    assert res.score == pytest.approx(total_score(res.dag, SIM4.data), rel=1e-12)
    # any optimum must at least tie the oracle's optimum class
    assert markov_equivalent(res.dag, Dag(4, arrows=want_arrows), SIM4.fam)


def test_dp_exact_dominates_the_greedy_searches():
    for sim in (SIM4, SIM6):
        opt = dp_exact(sim.data, sim.fam)
        assert opt.score >= gies(sim.data, sim.fam).score - 1e-9
        assert opt.score >= gds(sim.data, sim.fam).score - 1e-9


def test_dp_exact_metadata_and_limits():
    res = dp_exact(SIM4.data, SIM4.fam)
    assert res.metadata["max_p"] == 15
    assert res.metadata["max_parents"] == 3
    assert res.metadata["capped"] is False
    assert res.metadata["score"] == res.score
    with pytest.raises(TooLarge) as err:
        dp_exact(SIM4.data, SIM4.fam, max_p=3)
    assert err.value.p == 4 and err.value.max_p == 3


def test_dp_exact_parent_cap():
    res = dp_exact(SIM4.data, SIM4.fam, max_parents=1)
    assert res.metadata["capped"] is True
    assert all(len(res.dag.parents(v)) <= 1 for v in res.dag.vertices)
    # the cap can only lower the attainable score
    assert res.score <= dp_exact(SIM4.data, SIM4.fam).score + 1e-12


def test_dp_exact_validation():
    with pytest.raises(NonConservativeFamily):
        dp_exact(SIM4.data, TargetFamily([(1,)]))
    with pytest.raises(ScoringError):
        dp_exact(SIM4.data, TargetFamily([(), (1,)]))


@pytest.mark.parametrize("option, learn", [
    ("max_degree",
     lambda cap: gies(SIM4.data, SIM4.fam, GiesOptions(max_degree=cap)).graph.graph),
    ("max_degree",
     lambda cap: gds(SIM4.data, SIM4.fam, GiesOptions(max_degree=cap)).dag),
    ("max_degree", lambda cap: ges(SIM4.data, GiesOptions(max_degree=cap)).graph.graph),
    ("max_parents", lambda cap: dp_exact(SIM4.data, SIM4.fam, max_parents=cap).dag),
], ids=["gies", "gds", "ges", "dp"])
def test_learners_reject_negative_caps(option, learn):
    with pytest.raises(GraphError, match=f"^{option} must be >= 0, got -1$"):
        learn(-1)
    graph = learn(0)  # a cap of 0 admits no edge
    assert not graph.arrows and not graph.lines


def test_dp_exact_is_deterministic():
    a = dp_exact(SIM4.data, SIM4.fam)
    b = dp_exact(SIM4.data, SIM4.fam)
    assert a.dag == b.dag and a.score == b.score


def _dp_on_scores(monkeypatch, scores):
    """dp_exact on p = 4 through a cache that serves fake local scores:
    s(v, P) from `scores` (None: an unfittable set), else 0 for the empty
    set and -1 for every other."""
    class FakeScores(gieskit.ScoreCache):
        def fill(self, keys):
            for v, pa in keys:
                got = scores.get((v, pa), 0.0 if not pa else -1.0)
                self.memo[v, pa] = InsufficientSamples("unfittable") if got is None else got

    monkeypatch.setattr(gieskit.baselines, "ScoreCache", FakeScores)
    data = InterventionalDataset(np.random.default_rng(0).normal(size=(20, 4)), [()] * 20)
    return dp_exact(data, TargetFamily([()]))


@pytest.mark.parametrize("scores, want", [
    # equal scores: the set with fewer members wins
    ({(1, frozenset({2})): 5.0, (1, frozenset({3, 4})): 5.0}, {(2, 1)}),
    # equal scores and sizes: the smaller bitmask wins; an unfittable set
    # never does
    ({(1, frozenset({2})): None, (1, frozenset({3, 4})): 5.0,
      (1, frozenset({2, 3})): 5.0}, {(2, 1), (3, 1)}),
])
def test_dp_exact_breaks_score_ties_by_size_then_bitmask(monkeypatch, scores, want):
    res = _dp_on_scores(monkeypatch, scores)
    assert set(res.dag.arrows) == want
    assert res.score == 5.0


# -- data no learner can score ---------------------------------------------------


def _learners(fam):
    """Each learner as a call on a dataset, by its CLI name."""
    return {
        "gies": lambda data: gies(data, fam),
        "gies-nt": lambda data: gies(data, fam, GiesOptions(variant="gies-nt")),
        "ges": ges,
        "gds": lambda data: gds(data, fam),
        "dp": lambda data: dp_exact(data, fam),
    }


SIM6_N300 = simulate(SimConfig(p=6, s=0.4, k=2, m=1, n=300, seed=3))


def _duplicate_x3_as_x5(X):
    X[:, 4] = X[:, 2]


def _zero_x2(X):
    X[:, 1] = 0.0


@pytest.mark.parametrize("algo", ["gies", "gies-nt", "ges", "gds", "dp"])
@pytest.mark.parametrize("edit, named", [
    (_duplicate_x3_as_x5, "duplicated columns: x5 = x3"),
    (_zero_x2, "constant columns: x2"),
], ids=["duplicated", "constant"])
def test_learners_reject_constant_and_duplicated_columns(
    algo, edit, named, monkeypatch
):
    # without the check each column lets a regression fit exactly, and the
    # learner stops at that fit with DegenerateFit instead of naming the
    # column
    X = SIM6_N300.data.X.copy()
    edit(X)
    data = InterventionalDataset(X, SIM6_N300.data.targets)
    fits = []
    fit = gieskit.scoring._fit
    monkeypatch.setattr(
        gieskit.scoring, "_fit", lambda data, keys: fits.extend(keys) or fit(data, keys)
    )
    with pytest.raises(DegenerateColumns, match=named):
        _learners(SIM6_N300.fam)[algo](data)
    assert not fits  # rejected before any fit
    assert issubclass(DegenerateColumns, ScoringError)


@pytest.mark.parametrize("algo", ["gies", "gies-nt", "ges", "gds", "dp"])
def test_learners_reject_fits_clamped_at_the_variance_floor(algo):
    # x2 = 1e-7 z has a variance below the floor, so s(2, {}) and s(2, {1})
    # are both clamped while s(1, {2}) is a real fit: without the check the
    # class-space search inserts 2 -> 1 and deletes it as 1 -> 2, each a
    # gain, forever
    rng = np.random.default_rng(0)
    z = rng.standard_normal(50)
    X = np.column_stack([z + 0.5 * rng.standard_normal(50), 1e-7 * z])
    data = InterventionalDataset(X, [()] * 50)
    with pytest.raises(DegenerateFit, match="below 1e-12"):
        _learners(TargetFamily([()]))[algo](data)


@st.composite
def raw_datasets(draw):
    """Observational datasets with arbitrary finite cells: tiny n, and
    columns that are exact or nearly exact multiples of earlier ones."""
    p = draw(st.integers(2, 6))
    n = draw(st.integers(1, 12))
    cells = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    X = np.array(draw(st.lists(
        st.lists(cells, min_size=p, max_size=p), min_size=n, max_size=n
    )))
    for j in range(1, p):
        noise = draw(st.sampled_from([None, 0.0, 1e-13, 1e-9, 1e-6]))
        if noise is not None:
            i = draw(st.integers(0, j - 1))
            X[:, j] = X[:, i] * draw(st.floats(-2, 2)) + noise * X[:, j]
    return InterventionalDataset(X, [()] * n)


@settings(max_examples=80)
@given(raw_datasets())
def test_learners_raise_only_scoring_errors_on_raw_matrices(data):
    for algo in ("gies", "gds", "dp"):
        try:
            _learners(TargetFamily([()]))[algo](data)
        except ScoringError:
            pass
