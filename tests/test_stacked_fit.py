"""The stacked fit routine against the per-key fit it replaced, and the
score cache's fill."""

from __future__ import annotations

import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cases
import gieskit.scoring
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
    rows = cases.row_set(data, v)
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
    assert len({cases.row_set(DATA, v).size for v in range(1, P + 1)}) == 3


@pytest.mark.parametrize("m", [1, 2, 7])
@pytest.mark.parametrize("k", range(7))
def test_a_stack_equals_the_per_key_fits(m, k):
    # one stack: vertices 4..12 share all 300 rows
    rng = np.random.default_rng(100 * m + k)
    _assert_same(_keys(rng, m, k, vertices=range(4, P + 1)))


@pytest.mark.parametrize("k", [1, 3, 6])
def test_a_stack_spanning_two_chunks_equals_the_per_key_fits(k):
    # a design of one key costs n * (k + 1) entries
    per_chunk = STACK_BUDGET // (DATA.n * (k + 1))
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


def test_a_zero_diagonal_under_a_subnormal_one_is_singular():
    # R's diagonal is (5e-324, 0): RANK_RTOL * 5e-324 underflows to 0, which
    # a non-strict test let through to a solve that raised LinAlgError
    X = np.zeros((6, 3))
    X[5, :2] = 5e-324, 0.5
    X[:, 2] = np.arange(1.0, 7.0)
    data = InterventionalDataset(X, [()] * 6)
    (fit,) = _fit(data, [(3, (1, 2))])
    assert isinstance(fit, SingularDesign)
    assert "rank deficient" in str(fit)


def test_a_design_shared_by_several_vertices_equals_the_per_key_fits():
    # vertices 4..12 share all 300 rows, so each parent set is one design
    # for every one of them that it does not contain
    _assert_same([
        (v, parents)
        for parents in ((1,), (1, 2), (4, 5, 6), (2, 5, 9, 10, 11))
        for v in range(4, P + 1) if v not in parents
    ])


def test_one_parent_set_on_different_row_sets_is_not_shared():
    # vertices 1, 2 and 10 each have their own rows (270, 270 and 300), so
    # (4, 5) is three designs; vertex 3 has 3 rows and fits one parent
    keys = [(1, (4, 5)), (2, (4, 5)), (10, (4, 5)), (11, (4, 5)), (3, (4,)), (1, (4,))]
    _assert_same(keys)
    shapes = sorted((k, rows) for k, rows, _ in _factored(keys))
    assert shapes == [(1, 3), (1, 270), (2, 270), (2, 270), (2, 300)]


def test_a_shared_rank_deficient_design_equals_the_per_key_fits():
    # (6, 7) is singular and (5, 8) of full rank, each shared by two
    # vertices: one stack of the two designs, beside one unshared design
    _assert_same([(12, (6, 7)), (12, (5, 8)), (11, (6, 7)), (10, (1, 4)), (11, (5, 8))])


def _every_design(k):
    """Every design of k parents among 1..12, with a key for each of the
    vertices 4..12 (which share all 300 rows) outside it: 9 - |P & 4..12|
    keys per design."""
    return [
        (v, parents)
        for parents in itertools.combinations(range(1, P + 1), k)
        for v in range(4, P + 1) if v not in parents
    ]


def _chunks_of(keys, monkeypatch) -> list[list[list[tuple[int, tuple[int, ...]]]]]:
    """The chunks _fit passes to _fit_stack for keys: per chunk, the keys
    of each of its designs."""
    chunks = []
    fit_stack = gieskit.scoring._fit_stack

    def recorded(XT, keys, chunk, out):
        chunks.append([[keys[i] for i in members] for members in chunk])
        return fit_stack(XT, keys, chunk, out)

    monkeypatch.setattr(gieskit.scoring, "_fit_stack", recorded)
    _fit(DATA, keys)
    return chunks


def _assert_chunk_rule(keys, chunks, budget=STACK_BUDGET) -> dict:
    """Check _fit's chunk rule on chunks (from _chunks_of) of keys on DATA:
    every key with enough rows is fitted exactly once, each design's keys
    stay in one chunk, every chunk holds designs of one row set, parent-set
    size k and key count r, and the chunks of one such group hold
    max(1, budget // (n_v * (k + r))) designs each, but for the group's last
    chunk. Returns {(id of the row set, k, r): the group's chunk sizes}."""
    fittable = [(v, pa) for v, pa in keys if cases.row_set(DATA, v).size > len(pa) + 1]
    fitted = [key for chunk in chunks for design in chunk for key in design]
    assert sorted(fitted) == sorted(fittable)
    designs = set()
    groups: dict[tuple[int, int, int], list[int]] = {}
    for chunk in chunks:
        rows = {id(cases.row_set(DATA, v)) for design in chunk for v, _ in design}
        shapes = {(len(design[0][1]), len(design)) for design in chunk}
        assert len(rows) == len(shapes) == 1
        for design in chunk:
            assert len({parents for _, parents in design}) == 1
            designs.add((*rows, design[0][1]))
        ((k, r),) = shapes
        groups.setdefault((*rows, k, r), []).append(len(chunk))
    assert len(designs) == sum(map(sum, groups.values()))
    n_v = {id(rows): rows.size for rows in DATA._row_groups[0]}
    for (rows, k, r), sizes in groups.items():
        size = max(1, budget // (n_v[rows] * (k + r)))
        assert sizes[:-1] == [size] * (len(sizes) - 1)
        assert 1 <= sizes[-1] <= size
    return groups


@pytest.mark.parametrize("k", [2, 3])
def test_shared_designs_spanning_chunks_stay_whole(k, monkeypatch):
    # every design of k parents on the vertices 4..12 outside it, with 6 to
    # 9 keys each: one group per key count, some of several chunks
    keys = _every_design(k)
    _assert_same(keys)
    groups = _assert_chunk_rule(keys, _chunks_of(keys, monkeypatch))
    assert len(groups) > 1
    assert max(map(len, groups.values())) > 1


def test_one_qr_per_chunk(monkeypatch):
    # the chunks of every design of 2 parents, beside designs of other
    # sizes and row sets: one np.linalg.qr per chunk with parents, none for
    # the empty parent set
    keys = _every_design(2) + [(1, (4, 5)), (2, ()), (10, ()), (11, (1, 2, 3))]
    calls = []
    qr = np.linalg.qr
    monkeypatch.setattr(
        np.linalg, "qr", lambda a, *args, **kw: calls.append(a.shape) or qr(a, *args, **kw)
    )
    chunks = _chunks_of(keys, monkeypatch)
    factored = [chunk for chunk in chunks if chunk[0][0][1]]
    assert len(chunks) - len(factored) == 2  # (2, ()) and (10, ()): two row sets
    assert len(calls) == len(factored) > 3
    assert [shape[0] for shape in calls] == [len(chunk) for chunk in factored]


@st.composite
def _chunked_batches(draw):
    """A stack budget and a shuffled batch of keys on DATA whose designs of
    k parents on all 300 rows form three groups of key counts a < b < c:
    group a holds one rank-deficient design (parents 6 and 7, with
    x7 = 2 x6) among full-rank ones, every design of group b is rank
    deficient, and group c holds full-rank designs only. The budget takes
    group a into one chunk, and group c is too large for one chunk. Keys of
    other sizes and row sets ride along."""
    k = draw(st.integers(3, 4))
    a, b, c = sorted(draw(st.lists(st.integers(1, 9 - k), min_size=3, max_size=3,
                                   unique=True)))
    m_a, m_b = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    m_c = m_a + 3 + draw(st.integers(0, 2))
    sets = list(itertools.combinations(range(1, P + 1), k))
    singular = [s for s in sets if {6, 7} <= set(s)]
    full = [s for s in sets if not {6, 7} <= set(s)]
    deficient = draw(st.lists(st.sampled_from(singular), min_size=m_b + 1,
                              max_size=m_b + 1, unique=True))
    regular = draw(st.lists(st.sampled_from(full), min_size=m_a - 1 + m_c,
                            max_size=m_a - 1 + m_c, unique=True))
    groups = [(a, regular[: m_a - 1] + deficient[:1]), (b, deficient[1:]),
              (c, regular[m_a - 1 :])]
    keys = []
    for r, parent_sets in groups:
        for parents in parent_sets:
            others = [v for v in range(4, P + 1) if v not in parents]
            keys += [(v, parents) for v in draw(st.permutations(others))[:r]]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # keys of k parents on vertices 1..3 fall on other row sets
    keys += [key for size in (0, 1) for key in _keys(rng, draw(st.integers(0, 4)), size)]
    keys += _keys(rng, draw(st.integers(0, 4)), k, vertices=(1, 2, 3))
    keys = draw(st.permutations(keys))
    # m_a designs of group a and no more fit; a design of group c costs
    # more than one of group a, so fewer than m_a + 1 < m_c of them fit
    budget = DATA.n * (k + a) * (m_a + 1) - 1 - draw(st.integers(0, DATA.n * (k + a) - 1))
    return budget, keys, k, groups


@settings(max_examples=40, deadline=None)
@given(_chunked_batches())
def test_chunks_of_mixed_key_counts_equal_the_per_key_fits(batch):
    budget, keys, k, ((a, group_a), (b, group_b), (c, group_c)) = batch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gieskit.scoring, "STACK_BUDGET", budget)
        _assert_same(keys)
        groups = _assert_chunk_rule(keys, _chunks_of(keys, mp), budget)
    rows = id(cases.row_set(DATA, 4))  # all 300 rows
    assert groups[rows, k, a] == [len(group_a)]
    assert sum(groups[rows, k, b]) == len(group_b)
    assert sum(groups[rows, k, c]) == len(group_c)
    assert len(groups[rows, k, c]) >= 2


def _factored(keys, data=DATA) -> list[tuple[int, int, bytes]]:
    """(parent count, rows, bytes) of every design that np.linalg.qr
    factors in one _fit of the keys."""
    factored = []
    qr = np.linalg.qr

    def counted(a, *args, **kwargs):
        factored.extend(
            (m.shape[1], m.shape[0], m.tobytes()) for m in a.reshape(-1, *a.shape[-2:])
        )
        return qr(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "qr", counted)
        _fit(data, keys)
    return factored


@pytest.mark.parametrize("seed", range(4))
def test_each_distinct_design_is_factored_once_per_call(seed):
    # the batch of test_mixed_keys_equal_the_per_key_fits, plus one design
    # on all nine vertices that share every row: every row set, size,
    # outcome and duplicate keys in one call
    rng = np.random.default_rng(seed)
    keys = [key for k in rng.integers(0, 7, 60) for key in _keys(rng, 1, int(k))]
    keys += [(12, (6, 7)), (11, (6, 7)), (12, (5, 8)), (3, (1, 2)), (3, (4,)), keys[0]]
    keys += [(v, (1, 2)) for v in range(4, P + 1)]
    designs = {
        (id(cases.row_set(DATA, v)), parents)
        for v, parents in keys
        if parents and cases.row_set(DATA, v).size > len(parents) + 1
    }
    factored = [design for _, _, design in _factored(keys)]
    assert len(factored) == len(set(factored)) == len(designs)


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
        assert cases.row_set(data, v).tolist() == want
        for w in range(1, v):
            same = cases.row_set(data, v).tolist() == cases.row_set(data, w).tolist()
            assert (cases.row_set(data, v) is cases.row_set(data, w)) == same, (v, w)
    assert cases.row_set(data, x).size == cases.row_set(data, y).size
    assert cases.row_set(data, x) is not cases.row_set(data, y)


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
    rows = {id(r): r for r in (cases.row_set(data, v) for v in range(1, p + 1))}
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

