"""The stacked fit routine against the per-key fit it replaced, and the
score cache's fill."""

from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gieskit import (
    Dag,
    DegenerateFit,
    Graph,
    InsufficientSamples,
    InterventionalDataset,
    ScoreCache,
    ScoringError,
    SimConfig,
    SingularDesign,
    best_move,
    gies,
    local_score,
    mle_params,
    simulate,
)
from gieskit.scoring import RANK_RTOL, STACK_BUDGET, VARIANCE_FLOOR, _fit


# The per-key fit that the stacked routine replaced, frozen as its reference.
@np.errstate(all="ignore")
def _per_key_fit(data, v, parents):
    rows = data.rows_excluding(v)
    n_v = rows.size
    k = len(parents)
    if n_v <= k + 1:
        raise InsufficientSamples(
            f"vertex {v}: {n_v} usable rows cannot identify {k} coefficients"
        )
    y = data.X[rows, v - 1]
    if k == 0:
        coef, rss = np.empty(0), float(y @ y)
    else:
        A = data.X[np.ix_(rows, [u - 1 for u in parents])]
        Q, R = np.linalg.qr(A)
        diag = np.abs(np.diag(R))
        if diag.max() == 0.0 or diag.min() < RANK_RTOL * diag.max():
            raise SingularDesign(
                f"vertex {v}: parent columns {sorted(parents)} are rank deficient"
            )
        coef = np.linalg.solve(R, Q.T @ y)
        resid = y - A @ coef
        rss = float(resid @ resid)
        if not math.isfinite(rss):
            raise SingularDesign(
                f"vertex {v}: parent columns {sorted(parents)} give a non-finite fit"
            )
    sigma2 = rss / n_v
    if sigma2 < VARIANCE_FLOOR:
        raise DegenerateFit(
            f"vertex {v}, parents {sorted(parents)}: residual variance "
            f"{sigma2:.3g} below {VARIANCE_FLOOR:g}: a column is numerically "
            "a linear function of others, or of negligible scale"
        )
    return coef, sigma2, n_v


def _dataset() -> InterventionalDataset:
    """300 rows on 12 columns with every outcome a fit can have:
    - x1..x6 independent, observed in every row but those targeting them:
      x1 and x2 are each intervened on in 30 rows, x3 in all but 3
      (too few rows for two or more parents), so row counts differ
    - x7 = 2 x6 exactly (rank deficient with x6)
    - x8 = x5 + 1e-9 noise (near-collinear with x5, still of full rank)
    - x9 of scale 1e-7 (variance below the floor with no parents)
    - x10..x12 mix the others with noise (non-trivial fits)
    """
    rng = np.random.default_rng(20)
    n = 300
    X = rng.standard_normal((n, 12))
    X[:, 6] = 2.0 * X[:, 5]
    X[:, 7] = X[:, 4] + 1e-9 * rng.standard_normal(n)
    X[:, 8] = 1e-7 * rng.standard_normal(n)
    X[:, 9] += X[:, 0] - 0.5 * X[:, 3]
    X[:, 10] += 0.7 * X[:, 9] + X[:, 1]
    X[:, 11] += X[:, 10] - X[:, 2]
    targets = []
    for i in range(n):
        t = set()
        if i < 30:
            t.add(1)
        elif i < 60:
            t.add(2)
        if i >= 3:
            t.add(3)
        targets.append(t)
    return InterventionalDataset(X, targets)


DATA = _dataset()
P = DATA.p


def _assert_same(keys, data=DATA):
    got = _fit(data, keys)
    assert len(got) == len(keys)
    for (v, parents), fit in zip(keys, got):
        try:
            coef, sigma2, n_v = _per_key_fit(data, v, parents)
        except ScoringError as exc:
            assert type(fit) is type(exc), (v, parents, fit)
            assert str(fit) == str(exc)
            continue
        assert not isinstance(fit, ScoringError), (v, parents, fit)
        assert fit[0].tobytes() == coef.tobytes(), (v, parents)
        assert fit[0].shape == coef.shape
        assert fit[1] == sigma2 and type(fit[1]) is float, (v, parents)
        assert fit[2] == n_v, (v, parents)


def _keys(rng, m, k, vertices=range(1, P + 1)):
    """m keys with k parents each, on vertices drawn from `vertices`."""
    keys = []
    for _ in range(m):
        v = int(rng.choice(list(vertices)))
        others = [u for u in range(1, P + 1) if u != v]
        keys.append((v, tuple(sorted(int(u) for u in rng.choice(others, k, replace=False)))))
    return keys


def test_the_data_has_every_outcome():
    # guard the fixture: each outcome the comparison must cover occurs
    outcomes = set()
    for v in range(1, P + 1):
        others = [u for u in range(1, P + 1) if u != v]
        for k in range(7):
            for parents in (tuple(others[:k]), tuple(others[-k:]) if k else ()):
                try:
                    _per_key_fit(DATA, v, parents)
                    outcomes.add("fit")
                except ScoringError as exc:
                    outcomes.add(type(exc).__name__)
    for parents in ((6, 7), (5, 8)):
        try:
            _per_key_fit(DATA, 12, parents)
            outcomes.add(f"fit {parents}")
        except SingularDesign:
            outcomes.add(f"singular {parents}")
    assert outcomes >= {
        "fit", "InsufficientSamples", "SingularDesign", "DegenerateFit",
        "singular (6, 7)", "fit (5, 8)",
    }
    assert len({DATA.rows_excluding(v).size for v in range(1, P + 1)}) == 3


@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("k", range(7))
def test_a_stack_equals_the_per_key_fits(m, k):
    # one stack: vertices 4..12 share all 300 rows
    rng = np.random.default_rng(100 * m + k)
    _assert_same(_keys(rng, m, k, vertices=range(4, P + 1)))


@pytest.mark.parametrize("k", [1, 3, 6])
def test_a_stack_spanning_two_chunks_equals_the_per_key_fits(k):
    per_chunk = STACK_BUDGET // (DATA.n * k)
    rng = np.random.default_rng(k)
    keys = _keys(rng, per_chunk + 2, k, vertices=range(4, P + 1))
    assert len(keys) > max(1, per_chunk)  # two chunks
    _assert_same(keys)


@pytest.mark.parametrize("seed", range(8))
def test_mixed_keys_equal_the_per_key_fits(seed):
    # every row count, size 0..6 and outcome in one call, duplicates included
    rng = np.random.default_rng(seed)
    keys = [key for k in rng.integers(0, 7, 60) for key in _keys(rng, 1, int(k))]
    keys += [(9, ()), (12, (6, 7)), (12, (5, 8)), (3, (1, 2)), (3, (4,)), keys[0]]
    rng.shuffle(keys)
    _assert_same([tuple(key) for key in keys])


def test_a_stack_of_rank_deficient_members_only():
    _assert_same([(12, (6, 7)), (11, (6, 7)), (10, (7, 6))])


@st.composite
def _targeted_batches(draw):
    """A dataset and a shuffled batch of keys on it. Its row targets include
    a target of three vertices, two singleton targets labelling equally
    many rows and a vertex that no target contains, plus up to three
    random targets; one column is twice another and one is of scale 1e-7."""
    p = draw(st.integers(7, 9))
    order = draw(st.permutations(range(1, p + 1)))
    several = frozenset(order[:3])
    x, y = order[3], order[4]
    # few unlabelled rows and small x, y targets leave the three vertices
    # of `several` with too few rows for some keys
    c = draw(st.integers(1, 2) | st.integers(1, 12))
    labels = (
        [frozenset()] * draw(st.integers(0, 3) | st.integers(0, 30))
        + [several] * draw(st.integers(1, 30))
        + [frozenset({x})] * c
        + [frozenset({y})] * c
    )
    # neither x nor y nor the last vertex is in a random target
    others = st.sampled_from(order[:3] + order[5:-1])
    for t in draw(st.lists(st.frozensets(others, min_size=1, max_size=3), max_size=3)):
        labels += [t] * draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rng.shuffle(labels)
    X = rng.standard_normal((len(labels), p))
    X[:, order[5] - 1] = 2.0 * X[:, order[6] - 1]
    X[:, order[1] - 1] *= 1e-7
    drawn = draw(st.lists(
        st.tuples(st.integers(1, p), st.frozensets(st.integers(1, p), max_size=5)),
        min_size=1, max_size=40,
    ))
    keys = [(v, tuple(sorted(pa - {v}))) for v, pa in drawn]
    rng.shuffle(keys)
    return InterventionalDataset(X, labels), keys, (x, y)


@settings(max_examples=60, deadline=None)
@given(_targeted_batches())
def test_fits_over_any_targets_equal_the_per_key_fits(batch):
    data, keys, (x, y) = batch
    # fit first, so that the row sets are found by the fit
    _assert_same(keys, data)
    for v in range(1, data.p + 1):
        want = [i for i, t in enumerate(data.targets) if v not in t]
        assert data.rows_excluding(v).tolist() == want
        for w in range(1, v):
            same = data.rows_excluding(v).tolist() == data.rows_excluding(w).tolist()
            assert (data.rows_excluding(v) is data.rows_excluding(w)) == same, (v, w)
    assert data.rows_excluding(x).size == data.rows_excluding(y).size
    assert data.rows_excluding(x) is not data.rows_excluding(y)


def _arrays_held(obj) -> list[np.ndarray]:
    """Every array reachable from obj's attributes through containers."""
    seen, stack, found = set(), [vars(obj)], []
    while stack:
        o = stack.pop()
        if id(o) in seen:
            continue
        seen.add(id(o))
        if isinstance(o, np.ndarray):
            found.append(o)
        elif isinstance(o, dict):
            stack.extend(o.values())
        elif isinstance(o, (list, tuple, set, frozenset)):
            stack.extend(o)
    return found


def test_a_fit_keeps_one_column_major_copy_of_x():
    # the dataset's one copy of X is the column-major matrix taken at
    # construction. 8 singleton targets give 9 row sets; a fit over keys of
    # every vertex takes a transient copy of the rows of each of the 8
    # short ones, and keeps none of them
    rng = np.random.default_rng(5)
    n, p = 400, 20
    targets = [{1 + i % 8} if i < 160 else set() for i in range(n)]
    data = InterventionalDataset(rng.standard_normal((n, p)), targets)
    keys = [(v, ()) for v in range(1, p + 1)]
    keys += [(v, (v % p + 1, (v + 1) % p + 1)) for v in range(1, p + 1)]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        _assert_same(keys, data)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    matrices = [a for a in _arrays_held(data) if a.dtype == np.float64]
    assert len(matrices) == 1
    assert np.shares_memory(matrices[0], data.X)
    assert matrices[0].flags.c_contiguous
    assert np.array_equal(matrices[0], data.X.T)
    rows = {id(r): r for r in map(data.rows_excluding, range(1, p + 1))}
    assert len(rows) == 9
    # the row sets, plus a little bookkeeping; a kept copy of X, or of a
    # short row set (19/20 of X), would add more than a quarter of X
    want = sum(r.nbytes for r in rows.values())
    assert want <= held < want + data.X.nbytes // 4


def test_the_dataset_keeps_its_own_read_only_matrix():
    # the dataset's one copy of the samples, taken at construction, is the
    # column-major matrix the fits read, and X is a view of it: neither the
    # caller's array nor a write through X may change it under them
    X = DATA.X.copy()
    data = InterventionalDataset(X, DATA.targets)
    before = _fit(data, [(10, (1,))])[0]
    X[:] = 0.0
    assert np.array_equal(data.X, DATA.X)
    assert _fit(data, [(10, (1,))])[0][1] == before[1]
    with pytest.raises(ValueError, match="read-only"):
        data.X[0, 0] = 1.0


def test_an_empty_batch():
    assert _fit(DATA, []) == []


def test_an_unfittable_key_is_fitted_once():
    cache = ScoreCache(DATA)
    for _ in range(2):
        with pytest.raises(SingularDesign, match="rank deficient"):
            local_score(12, {6, 7}, DATA, cache=cache)
    assert (cache.misses, cache.hits) == (1, 1)


def test_fill_scores_each_missing_key_once():
    cache = ScoreCache(DATA)
    local_score(10, {1}, DATA, cache=cache)
    cache.fill([(10, frozenset({1})), (10, frozenset()), (10, frozenset())])
    assert cache.misses == 2
    for key in ((10, frozenset()), (10, frozenset({1}))):
        want = local_score(key[0], key[1], DATA)
        assert cache.memo[key] == want
    assert cache.hits == 0


def test_fill_keeps_the_error_of_each_unscorable_key():
    cache = ScoreCache(DATA)
    keys = [(9, frozenset()), (3, frozenset({1, 2})), (12, frozenset({6, 7}))]
    cache.fill(keys)
    errors = [DegenerateFit, InsufficientSamples, SingularDesign]
    for (v, pa), error in zip(keys, errors):
        assert type(cache.memo[v, pa]) is error
        with pytest.raises(error):
            local_score(v, pa, DATA, cache=cache)
    assert (cache.misses, cache.hits) == (3, 3)


SIMS = [simulate(SimConfig(p=6, s=0.4, k=2, m=1, n=200, seed=s)) for s in range(3)]
GRAPHS = [gies(sim.data, sim.fam).graph.graph for sim in SIMS]


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, len(SIMS) - 1),
    st.booleans(),
    st.sampled_from(["forward", "backward", "turning"]),
    st.sets(st.tuples(st.integers(1, 6), st.frozensets(st.integers(1, 6), max_size=4)),
            max_size=40),
)
def test_best_move_does_not_depend_on_what_the_cache_holds(i, empty, phase, prefill):
    # the fits are exact per key, so a cache filled in any order and any
    # batches ranks the same move with the same delta as an empty one
    sim = SIMS[i]
    g = Graph(6) if empty else GRAPHS[i]
    cache = ScoreCache(sim.data)
    cache.fill((v, pa - {v}) for v, pa in prefill)
    got = best_move(g, phase, sim.data, cache=cache)
    want = best_move(g, phase, sim.data, cache=ScoreCache(sim.data))
    assert got == want
    if got is not None:
        assert got.delta == want.delta


def test_mle_params_reads_the_stacked_fits():
    keep = InterventionalDataset(DATA.X[:, [0, 1, 3, 9, 10]], [()] * DATA.n)
    d = Dag(5, arrows=[(1, 4), (3, 4), (4, 5), (2, 5)])
    fit = mle_params(d, keep)
    for v in d.vertices:
        parents = tuple(sorted(d.parents(v)))
        coef, sigma2, _ = _per_key_fit(keep, v, parents)
        assert fit.sigma2[v - 1] == sigma2
        assert [fit.B[v - 1, u - 1] for u in parents] == list(coef)

