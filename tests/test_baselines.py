"""DAG-space greedy search, observational search and the exact optimizer."""

from __future__ import annotations

import pytest

import oracles
from gieskit import (
    Dag,
    DagSearchResult,
    DpResult,
    GiesOptions,
    GraphError,
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
    markov_equivalent,
    random_dag,
    random_model,
    sample,
    simulate,
    substream,
    total_score,
)

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


def test_gds_validate_steps_and_nt_variant():
    full = gds(SIM6.data, SIM6.fam, GiesOptions(validate_steps=True))
    assert full.dag == gds(SIM6.data, SIM6.fam).dag
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


def test_dp_exact_is_deterministic():
    a = dp_exact(SIM4.data, SIM4.fam)
    b = dp_exact(SIM4.data, SIM4.fam)
    assert a.dag == b.dag and a.score == b.score
