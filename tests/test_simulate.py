"""Random scenarios: DAGs, Gaussian models, targets and samples."""

from __future__ import annotations

import math

import numpy as np
import pytest

from gieskit import (
    OBSERVATIONAL,
    Dag,
    InfeasibleTargets,
    InvalidSimConfig,
    SimConfig,
    TargetFamily,
    mle_params,
    random_dag,
    random_model,
    random_targets,
    sample,
    simulate,
    substream,
)


def implied_covariance(model):
    p = model.dag.p
    inv = np.linalg.inv(np.eye(p) - model.B)
    return inv @ np.diag(model.sigma2) @ inv.T


# -- substreams ---------------------------------------------------------------


def test_substream_determinism_and_independence():
    a = substream(7, 0, 3).normal(size=5)
    b = substream(7, 0, 3).normal(size=5)
    assert np.array_equal(a, b)
    c = substream(7, 1, 3).normal(size=5)
    d = substream(8, 0, 3).normal(size=5)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# -- random DAGs ---------------------------------------------------------------


def test_random_dag_degenerate_cases():
    assert random_dag(1, 0.5, substream(0)) == Dag(1)
    assert random_dag(6, 0.0, substream(0)) == Dag(6)
    full = random_dag(6, 1.0, substream(0))
    assert full.num_arrows == 15


def test_random_dag_determinism():
    assert random_dag(8, 0.3, substream(5, 1)) == random_dag(8, 0.3, substream(5, 1))


def test_random_dag_edge_count_is_binomial():
    # 400 draws at p=10, s=0.2: mean count 9, sd sqrt(45*.2*.8) ~ 2.7
    rng = substream(99)
    counts = [random_dag(10, 0.2, rng).num_arrows for _ in range(400)]
    mean = sum(counts) / len(counts)
    assert abs(mean - 9.0) < 4 * 2.7 / math.sqrt(400)


def test_random_dag_shuffles_labels():
    # with s=1 the unshuffled construction would always orient i -> j for
    # i < j; shuffling must produce other orders eventually
    rng = substream(3)
    draws = {tuple(sorted(random_dag(4, 1.0, rng).arrows)) for _ in range(50)}
    assert len(draws) > 1


# -- random models ---------------------------------------------------------------


def test_random_model_support_and_normalization():
    d = random_dag(6, 0.5, substream(1, 0))
    model = random_model(d, substream(1, 1))
    mask = np.zeros((6, 6), dtype=bool)
    for a, b in d.arrows:
        mask[b - 1, a - 1] = True
    assert np.all(model.B[~mask] == 0.0)
    assert np.all(model.B[mask] != 0.0)
    assert np.all(model.sigma2 > 0.0)
    assert np.allclose(np.diag(implied_covariance(model)), 1.0, atol=1e-9)


def test_random_model_unit_diagonal_across_many_draws():
    for i in range(100):
        d = random_dag(5, 0.5, substream(2, i, 0))
        model = random_model(d, substream(2, i, 1))
        assert np.allclose(np.diag(implied_covariance(model)), 1.0, atol=1e-9)


def test_random_model_empty_dag():
    model = random_model(Dag(4), substream(0))
    assert np.all(model.B == 0.0)
    assert np.allclose(model.sigma2, 1.0)


def test_model_covariance_matches_monte_carlo():
    d = random_dag(4, 0.6, substream(6, 0))
    model = random_model(d, substream(6, 1))
    data = sample(model, TargetFamily([()]), 100_000, substream(6, 2))
    emp = np.cov(data.X, rowvar=False)
    assert np.allclose(emp, implied_covariance(model), atol=0.02)


# -- random targets ---------------------------------------------------------------


def test_random_targets_shape():
    fam = random_targets(6, 3, 2, substream(0))
    assert fam[0] == OBSERVATIONAL
    assert len(fam) == 4
    non_obs = fam.members[1:]
    assert all(len(t) == 2 for t in non_obs)
    assert len(set(non_obs)) == 3
    assert fam.conservative(6)


def test_random_targets_degenerate_cases():
    assert random_targets(5, 0, 1, substream(0)) == TargetFamily([()])
    fam = random_targets(5, 5, 1, substream(0))
    assert sorted(map(tuple, (sorted(t) for t in fam))) == [
        (), (1,), (2,), (3,), (4,), (5,)
    ]


def test_random_targets_infeasible():
    with pytest.raises(InfeasibleTargets):
        random_targets(4, 7, 1, substream(0))
    with pytest.raises(InfeasibleTargets):
        random_targets(4, 1, 5, substream(0))
    with pytest.raises(InfeasibleTargets):
        random_targets(4, -1, 1, substream(0))
    # the only size-0 target is the observational one, already a member
    with pytest.raises(InfeasibleTargets, match="besides the observational one"):
        random_targets(4, 1, 0, substream(0))
    with pytest.raises(InfeasibleTargets):
        simulate(SimConfig(p=4, s=0.5, k=1, m=0, n=20))
    assert random_targets(4, 0, 0, substream(0)).to_lists() == [[]]


# -- sampling ----------------------------------------------------------------------


def test_sample_round_robin_allocation():
    model = random_model(random_dag(4, 0.5, substream(0, 0)), substream(0, 1))
    fam = TargetFamily([(), (2,), (3,)])
    data = sample(model, fam, 10, substream(0, 3))
    assert data.n == 10 and data.p == 4
    assert data.targets == tuple(fam[i % 3] for i in range(10))
    counts = [sum(t == member for t in data.targets) for member in fam]
    assert max(counts) - min(counts) <= 1


def test_sample_intervened_coordinates_follow_the_level_density():
    model = random_model(random_dag(5, 0.4, substream(9, 0)), substream(9, 1))
    fam = TargetFamily([(), (3,)])
    data = sample(model, fam, 20_000, substream(9, 3), level_mean=2.0, level_sd=0.2)
    rows = [i for i, t in enumerate(data.targets) if 3 in t]
    col = data.X[rows, 2]
    assert abs(col.mean() - 2.0) < 4 * 0.2 / math.sqrt(len(rows))
    assert abs(col.std() - 0.2) < 0.02
    # observational coordinates keep unit scale
    obs = [i for i, t in enumerate(data.targets) if not t]
    assert abs(data.X[obs, 2].std() - 1.0) < 0.05


def test_sample_respects_truncated_factorization():
    # children of an intervened vertex still follow their equations, so a
    # regression over the intervened rows recovers the same weights
    sim = simulate(SimConfig(p=5, s=0.6, k=2, m=1, n=50_000, seed=13))
    fit = mle_params(sim.dag, sim.data)
    assert np.allclose(fit.B, sim.model.B, atol=0.05)


def test_sample_requires_a_target():
    model = random_model(Dag(2), substream(0))
    with pytest.raises(InfeasibleTargets):
        sample(model, TargetFamily([]), 10, substream(0))


@pytest.mark.parametrize("n", [0, 3, 4])
def test_simulate_rejects_fewer_rows_than_targets(n):
    # k = 4 singleton targets plus the observational one: 5 members
    with pytest.raises(InfeasibleTargets, match=f"n = {n} samples cannot label all 5"):
        simulate(SimConfig(p=6, s=0.5, k=4, m=1, n=n))
    sim = simulate(SimConfig(p=6, s=0.5, k=4, m=1, n=5))
    sim.data.check_family(sim.fam)


# -- end-to-end scenarios --------------------------------------------------------


def test_simulate_is_deterministic_per_replicate():
    cfg = SimConfig(p=6, s=0.4, k=2, m=1, n=100, seed=21)
    a = simulate(cfg, replicate=3)
    b = simulate(cfg, replicate=3)
    assert a.dag == b.dag and a.fam == b.fam
    assert np.array_equal(a.data.X, b.data.X)
    c = simulate(cfg, replicate=4)
    assert not np.array_equal(a.data.X, c.data.X)


def test_simulate_result_is_internally_consistent():
    res = simulate(SimConfig(p=6, s=0.4, k=2, m=2, n=120, seed=2), replicate=1)
    assert res.model.dag == res.dag
    assert res.fam.conservative(6)
    res.data.check_family(res.fam)
    md = res.metadata()
    assert md["p"] == 6 and md["k"] == 2 and md["m"] == 2
    assert md["seed"] == 2 and md["replicate"] == 1
    assert md["rng"] == "philox"


@pytest.mark.parametrize("field, p, value", [
    ("p", 0, 0.5),
    ("p", -3, 0.5),
    ("s", 4, 1.5),
    ("s", 4, -0.5),
    ("s", 4, math.nan),
    ("level_sd", 4, -1.0),
    ("level_sd", 4, math.nan),
    ("level_sd", 4, math.inf),
    ("level_mean", 4, math.nan),
    ("level_mean", 4, math.inf),
    ("level_mean", 4, -math.inf),
    ("level_mean", 4, 10**400),  # once a bare OverflowError in sample
    ("seed", 4, -1),
])
def test_simulate_rejects_out_of_range_parameters(field, p, value):
    # value is the bad value of the field, and s where the bad one is p
    params = {"s": 0.5, field: value, "p": p}
    with pytest.raises(InvalidSimConfig, match=f"^{field} must"):
        simulate(SimConfig(**params, k=0, m=1, n=10))


@pytest.mark.parametrize("field, value", [
    ("p", 2.5), ("p", True), ("k", 1.5), ("m", True), ("n", 10.5), ("n", "10"),
    ("seed", 1.5),
])
def test_sim_config_rejects_non_integer_counts(field, value):
    # k = 1.5 once drew two targets; the others raised bare TypeErrors
    params = {"p": 4, "s": 0.5, "k": 1, "m": 1, "n": 10, field: value}
    with pytest.raises(InvalidSimConfig, match=f"^{field} must be an integer, got {value!r}$"):
        SimConfig(**params)


_MODEL2 = random_model(Dag(2, arrows=[(1, 2)]), substream(1))


@pytest.mark.parametrize("call, name, value", [
    (lambda x: random_dag(x, 0.5, substream(1)), "p", 2.5),
    (lambda x: random_dag(x, 0.5, substream(1)), "p", True),
    (lambda x: random_targets(x, 1, 1, substream(1)), "p", 4.0),
    (lambda x: random_targets(4, x, 1, substream(1)), "k", 1.5),
    (lambda x: random_targets(4, 1, x, substream(1)), "m", True),
    (lambda x: sample(_MODEL2, TargetFamily([()]), x, substream(2)), "n", 1.5),
    (lambda x: sample(_MODEL2, TargetFamily([()]), x, substream(2)), "n", True),
], ids=["random_dag-p", "random_dag-p-bool", "random_targets-p", "random_targets-k",
        "random_targets-m", "sample-n", "sample-n-bool"])
def test_scenario_parts_reject_counts_that_are_not_integers(call, name, value):
    # random_targets once drew two targets for k = 1.5 and random_dag built
    # a graph with p = True; the others raised bare TypeErrors
    with pytest.raises(InvalidSimConfig, match=f"^{name} must be an integer, got {value!r}$"):
        call(value)


def _sample_levels(**levels):
    return sample(_MODEL2, TargetFamily([(), (1,)]), 10, substream(2), **levels)


@pytest.mark.parametrize("call, field, value", [
    (lambda x: random_dag(x, 0.5, substream(1)), "p", 0),
    (lambda x: random_dag(3, x, substream(1)), "s", 1.5),
    (lambda x: random_dag(3, x, substream(1)), "s", -0.5),
    (lambda x: random_dag(3, x, substream(1)), "s", math.nan),
    (lambda x: random_dag(3, x, substream(1)), "s", None),
    (lambda x: random_dag(3, x, substream(1)), "s", True),
    (lambda x: random_targets(x, 0, 0, substream(1)), "p", -1),
    (lambda x: random_targets(x, 0, 0, substream(1)), "p", 0),
    (lambda x: _sample_levels(level_mean=x), "level_mean", math.inf),
    (lambda x: _sample_levels(level_mean=x), "level_mean", "2"),
    (lambda x: _sample_levels(level_sd=x), "level_sd", -1.0),
    (lambda x: _sample_levels(level_sd=x), "level_sd", math.nan),
    (lambda x: _sample_levels(level_sd=x), "level_sd", None),
], ids=["random_dag-p", "random_dag-s-above", "random_dag-s-below", "random_dag-s-nan",
        "random_dag-s-none", "random_dag-s-bool",
        "random_targets-p-negative", "random_targets-p-zero",
        "sample-level_mean-inf", "sample-level_mean-str", "sample-level_sd-negative",
        "sample-level_sd-nan", "sample-level_sd-none"])
def test_scenario_parts_apply_the_config_ranges(call, field, value):
    # random_dag(3, 1.5) once returned the complete DAG, random_dag(3, nan)
    # an empty one, and random_targets(-1, 0, 0) the family [[]]; sample's
    # levels went unchecked: -1.0 raised numpy's bare ValueError, inf and
    # nan a NonFiniteData of the finished rows
    with pytest.raises(InvalidSimConfig, match=f"^{field} must"):
        call(value)


@pytest.mark.parametrize("field, value", [
    ("s", "0.5"), ("s", None), ("s", True),
    ("level_mean", "2"), ("level_mean", None), ("level_mean", True),
    ("level_sd", "x"), ("level_sd", False),
])
def test_sim_config_rejects_reals_that_are_not_numbers(field, value):
    # a string or None once raised a bare TypeError, and a bool passed as
    # 0 or 1; a bool is not a number here, as it is not an integer
    params = {"p": 3, "s": 0.5, "k": 0, "m": 1, "n": 10, field: value}
    with pytest.raises(InvalidSimConfig) as exc:
        SimConfig(**params)
    assert str(exc.value).startswith(f"{field} must be a finite number in [")
    assert str(exc.value).endswith(f"], got {value!r}")


@pytest.mark.parametrize("replicate", [1.5, True, "1"])
def test_simulate_rejects_a_non_integer_replicate(replicate):
    with pytest.raises(InvalidSimConfig, match=f"^replicate must be an integer, got {replicate!r}$"):
        simulate(SimConfig(p=4, s=0.5, k=0, m=1, n=10), replicate=replicate)


def test_simulate_rejects_a_negative_replicate():
    with pytest.raises(InvalidSimConfig, match="^replicate must"):
        simulate(SimConfig(p=4, s=0.5, k=0, m=1, n=10), replicate=-1)


@pytest.mark.parametrize("p, s, arrows", [(1, 0.5, 0), (4, 0.0, 0), (4, 1.0, 6)])
def test_simulate_accepts_the_range_ends(p, s, arrows):
    assert len(simulate(SimConfig(p=p, s=s, k=0, m=1, n=10)).dag.arrows) == arrows


def test_simulate_accepts_a_zero_level_sd():
    res = simulate(SimConfig(p=3, s=0.5, k=1, m=1, n=10, level_sd=0.0))
    (v,) = res.fam[1]
    assert set(res.data.X[1::2, v - 1]) == {2.0}


def test_simulate_config_is_frozen():
    cfg = SimConfig(p=3, s=0.5, k=0, m=1, n=10)
    with pytest.raises(AttributeError):
        cfg.p = 4
