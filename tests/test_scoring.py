"""Interventional datasets and the decomposable Gaussian BIC score."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cases
import oracles
from gieskit import (
    Dag,
    DegenerateColumns,
    DegenerateFit,
    FamilyMismatch,
    GaussianModel,
    Graph,
    InsufficientSamples,
    InterventionalDataset,
    MoveKind,
    NonFiniteData,
    ScoreCache,
    ScoringError,
    SimConfig,
    SingularDesign,
    TargetFamily,
    best_move,
    enumerate_representatives,
    essential_graph,
    evaluate,
    local_score,
    markov_equivalent,
    mle_params,
    move_delta,
    simulate,
    total_score,
)

dag4_arrows = st.sampled_from(oracles.all_dag_arrow_sets(4))

# module-level so hypothesis examples can share them without fixture scoping
DATA5 = simulate(SimConfig(p=5, s=0.5, k=2, m=1, n=400, seed=11)).data


@pytest.fixture(scope="module")
def sim4():
    return simulate(SimConfig(p=4, s=0.5, k=2, m=1, n=300, seed=3))


# -- dataset container --------------------------------------------------------


def test_dataset_basics():
    X = np.arange(12.0).reshape(4, 3)
    data = InterventionalDataset(X, [(), (2,), (), (1, 3)])
    assert data.n == 4 and data.p == 3
    assert data.targets == (frozenset(), {2}, frozenset(), {1, 3})
    assert list(cases.row_set(data, 2)) == [0, 2, 3]
    assert list(cases.row_set(data, 1)) == [0, 1, 2]
    obs = data.erase_targets()
    assert obs.targets == (frozenset(),) * 4
    assert np.array_equal(obs.X, data.X)



def test_erased_targets_share_the_samples_and_find_their_own_rows():
    data = simulate(SimConfig(p=6, s=0.4, k=3, m=1, n=300, seed=3)).data
    assert min(cases.row_set(data, v).size for v in range(1, 7)) < data.n
    erased = data.erase_targets()
    assert np.shares_memory(erased.X, data.X)
    assert erased.targets == (frozenset(),) * data.n
    # the row sets of the targeted data are not carried over
    assert all(cases.row_set(erased, v).size == data.n for v in range(1, 7))
    fresh = InterventionalDataset(data.X, [()] * data.n)
    for v in range(1, 7):
        assert local_score(v, [v % 6 + 1], erased) == local_score(v, [v % 6 + 1], fresh)

def test_dataset_validation():
    with pytest.raises(ScoringError):
        InterventionalDataset(np.zeros(4), [()])
    with pytest.raises(ScoringError):
        InterventionalDataset(np.zeros((2, 3)), [()])
    with pytest.raises(ScoringError):
        InterventionalDataset(np.zeros((2, 3)), [(), (4,)])
    with pytest.raises(ScoringError):
        InterventionalDataset(np.zeros((2, 3)), [(), (0,)])


@pytest.mark.parametrize("X, targets, message", [
    (np.ones((3, 2)) * 1j, [()] * 3, "^X must hold real numbers, got dtype complex128$"),
    (np.array([["a", "b"]] * 3), [()] * 3, "^X must hold real numbers, got dtype <U1$"),
    (np.ones((3, 2)), [(), None, ()], "^row 2: None is not a set of vertex ids$"),
    (np.ones((3, 2)), [(), (), [[1]]], r"^row 3: \[\[1\]\] is not a set of vertex ids$"),
], ids=["complex", "strings", "none-target", "unhashable-target"])
def test_dataset_names_bad_samples_and_row_targets(X, targets, message):
    # complex samples once lost their imaginary parts with only a warning,
    # and the others raised numpy's or Python's bare errors
    with pytest.raises(ScoringError, match=message):
        InterventionalDataset(X, targets)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_values(bad):
    # a bad cell makes the local scores of its column non-finite, which the
    # search would read as "no improving move" and stop at the empty graph
    sim = simulate(SimConfig(p=6, s=0.4, k=2, m=1, n=300, seed=3))
    X = sim.data.X.copy()
    X[0, 2] = bad
    with pytest.raises(NonFiniteData, match="row 1, column x3"):
        InterventionalDataset(X, sim.data.targets)
    assert issubclass(NonFiniteData, ScoringError)


def test_read_csv_rejects_non_finite_values(tmp_path):
    for cell in ("nan", "inf", "-inf"):
        path = tmp_path / "d.csv"
        path.write_text(f"x1,x2,target\n1.0,2.0,\n3.0,{cell},1\n")
        with pytest.raises(NonFiniteData, match="line 3, column x2"):
            InterventionalDataset.read_csv(path)


def test_read_csv_counts_blank_lines_in_the_line_number(tmp_path):
    # blank lines are skipped, so the data row index would name line 3
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,target\n\n1.0,2.0,\n\n3.0,nan,1\n")
    with pytest.raises(NonFiniteData, match="line 5, column x2"):
        InterventionalDataset.read_csv(path)


def test_check_columns():
    DATA5.check_columns()
    X = np.array([[1.0, 0.0, 2.0], [2.0, -0.0, 2.0], [3.0, 1.0, 2.0]])
    with pytest.raises(DegenerateColumns, match="constant columns: x3$"):
        InterventionalDataset(X, [()] * 3).check_columns()
    X[:, 2] = [1.0, 2.0, 3.0]
    with pytest.raises(DegenerateColumns, match="duplicated columns: x3 = x1$"):
        InterventionalDataset(X, [()] * 3).check_columns()
    # a signed zero does not make two equal columns differ
    X[:, 2] = [0.0, 0.0, 1.0]
    with pytest.raises(DegenerateColumns, match="x3 = x2"):
        InterventionalDataset(X, [()] * 3).check_columns()
    X[:, 2] = [0.0, 0.0, 1.5]
    InterventionalDataset(X, [()] * 3).check_columns()


def test_dataset_rejects_columns_whose_squares_overflow():
    # every cell is finite, but the column's sum of squares is not: its
    # local scores would be -inf and the turning deltas inf - inf
    sim = simulate(SimConfig(p=6, s=0.4, k=2, m=1, n=300, seed=3))
    X = sim.data.X.copy()
    X[:, 2] *= 1e160
    with pytest.raises(NonFiniteData, match="column x3 overflows"):
        InterventionalDataset(X, sim.data.targets)
    # the largest magnitudes whose squares still sum finitely are accepted
    InterventionalDataset(np.full((4, 2), 1e153), [()] * 4)


def test_read_csv_rejects_columns_whose_squares_overflow(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,target\n1.0,1e200,\n3.0,2.0,1\n")
    with pytest.raises(NonFiniteData, match="column x2 overflows"):
        InterventionalDataset.read_csv(path)


def test_check_family():
    data = InterventionalDataset(np.zeros((3, 2)), [(), (1,), ()])
    data.check_family(TargetFamily([(), (1,)]))
    with pytest.raises(FamilyMismatch, match=r"row targets \[\[1\]\] not in the family"):
        data.check_family(TargetFamily([()]))
    with pytest.raises(FamilyMismatch, match=r"family members \[\[2\]\] label no row"):
        data.check_family(TargetFamily([(), (1,), (2,)]))
    assert issubclass(FamilyMismatch, ScoringError)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    data = InterventionalDataset(rng.normal(size=(5, 3)), [(), (2,), (1, 3), (), (2,)])
    path = tmp_path / "d.csv"
    data.to_csv(path)
    back = InterventionalDataset.read_csv(path)
    assert np.array_equal(back.X, data.X)
    assert back.targets == data.targets
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3,target"
    # past the reader's first two buffer sizes (1024 and 2048 rows)
    big = InterventionalDataset(rng.normal(size=(2500, 2)), [(), (1,)] * 1250)
    big.to_csv(path)
    back = InterventionalDataset.read_csv(path)
    assert back.X.tobytes() == big.X.tobytes()
    assert back.targets == big.targets


def test_rows_share_one_frozenset_per_distinct_target(tmp_path):
    data = simulate(SimConfig(p=6, s=0.4, k=3, m=1, n=300, seed=3)).data
    path = tmp_path / "d.csv"
    data.to_csv(path)
    back = InterventionalDataset.read_csv(path)
    assert back.targets == data.targets
    assert len({id(t) for t in back.targets}) == len(set(back.targets)) > 1
    # each distinct target is checked once, and still checked
    path.write_text(path.read_text() + ",".join(["0.5"] * 6) + ",2;7\n")
    with pytest.raises(
        ScoringError, match="^line 302, column target: target vertex 7 outside 1..6$"
    ):
        InterventionalDataset.read_csv(path)


def test_read_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,x2\n1.0,2.0\n")
    with pytest.raises(ScoringError):
        InterventionalDataset.read_csv(path)
    path.write_text("x1,x2,target\n1.0,2.0,\n3.0,\n")
    with pytest.raises(ScoringError):
        InterventionalDataset.read_csv(path)


@pytest.mark.parametrize("body, message", [
    ("", "line 1: last CSV column must be 'target'"),
    ("x1,x2,target\n", "no data rows after the header on line 1"),
    ("x1,x2,target\n1.0,2.0,\n3.0,abc,1\n", "line 3, column x2: 'abc' is not a number"),
    ("x1,x2,target\n1.0,,\n", "line 2, column x2: '' is not a number"),
    ("x1,x2,target\n1.0,2.0,1;a\n", "line 2, column target: '1;a' is not"),
    ("x1,x3,target\n1.0,2.0,\n", "line 1: CSV columns must be x1..xp,target"),
    # a target id outside 1..p, named at the first line of its cell
    ("x1,x2,target\n1.0,2.0,\n3.0,4.5,7\n", "line 3, column target: target vertex 7 outside 1..2"),
    ("x1,x2,target\n1.0,2.0,1\n3.0,4.5,0\n", "line 3, column target: target vertex 0 outside 1..2"),
    ("x1,x2,target\n1.0,2.0,1;-1\n", "line 2, column target: target vertex -1 outside 1..2"),
    ("x1,x2,target\n1.0,2.0,\n1.0,2.0,3\n3.0,4.5,3\n1.0,2.0,5\n",
     "line 3, column target: target vertex 3 outside 1..2"),
])
def test_read_csv_names_the_bad_line_and_column(tmp_path, body, message):
    path = tmp_path / "d.csv"
    path.write_text(body)
    with pytest.raises(ScoringError) as err:
        InterventionalDataset.read_csv(path)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("cell", ["1_000", " 1.5", "0x10", "", "nan", "1e400", "\u0661"])
def test_read_csv_parses_a_cell_as_float_does(tmp_path, cell):
    # numpy parses the cells of a row assigned to a float64 row; float()
    # names the bad cell
    path = tmp_path / "d.csv"
    path.write_text(f"x1,x2,target\n1.0,{cell},\n1.5,2.5,\n", encoding="utf-8")
    row = np.empty(1)
    try:
        want = float(cell)
    except ValueError:
        with pytest.raises(ValueError):
            row[:] = [cell]
        with pytest.raises(ScoringError, match=f"^line 2, column x2: {cell!r} is not a number$"):
            InterventionalDataset.read_csv(path)
        return
    row[:] = [cell]
    assert row.tobytes() == np.float64(want).tobytes() or np.isnan(row[0]) and np.isnan(want)
    if not np.isfinite(want):
        with pytest.raises(NonFiniteData, match="^line 2, column x2: "):
            InterventionalDataset.read_csv(path)
        return
    assert InterventionalDataset.read_csv(path).X[0, 1] == want


# -- local scores --------------------------------------------------------------


@given(st.sets(st.integers(1, 4), max_size=3), st.integers(1, 5),
       st.sampled_from(["total", "per-node"]))
def test_local_score_matches_least_squares_oracle(parents, v, penalty):
    parents = parents - {v}
    got = local_score(v, parents, DATA5, penalty=penalty)
    want = oracles.local_score(v, parents, DATA5.X, DATA5.targets, penalty)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_local_score_excludes_intervened_rows(data5):
    # scoring vertex v must ignore rows where v was intervened on
    v = sorted(data5.targets[-1])[0] if data5.targets[-1] else 1
    rows = cases.row_set(data5, v)
    sub = InterventionalDataset(data5.X[rows], [data5.targets[i] for i in rows])
    a = local_score(v, set(), data5)
    # same rows scored as a smaller dataset, holding the penalty at log n
    n_v = len(rows)
    rss = float(sub.X[:, v - 1] @ sub.X[:, v - 1])
    want = -0.5 * n_v * (np.log(rss / n_v) + 1.0) - 0.5 * np.log(data5.n)
    assert a == pytest.approx(want, rel=1e-12)


def test_score_cache(data5):
    cache = ScoreCache(data5)
    a = local_score(1, {2}, data5, cache=cache)
    b = local_score(1, {2}, data5, cache=cache)
    assert a == b
    assert cache.hits == 1 and cache.misses == 1
    assert cache.memo[(1, frozenset({2}))] == a
    other = simulate(SimConfig(p=5, s=0.3, k=1, m=1, n=50, seed=1)).data
    with pytest.raises(ScoringError):
        local_score(1, {2}, other, cache=cache)


@given(st.sets(st.integers(1, 4), max_size=3), st.integers(1, 5),
       st.sampled_from(["total", "per-node"]))
def test_cached_and_uncached_scores_are_equal(parents, v, penalty):
    parents = parents - {v}
    want = local_score(v, parents, DATA5, penalty=penalty)
    cache = ScoreCache(DATA5, penalty)
    assert local_score(v, parents, DATA5, cache=cache) == want  # miss
    assert local_score(v, parents, DATA5, cache=cache) == want  # hit
    assert (cache.misses, cache.hits) == (1, 1)


@pytest.mark.parametrize("v, parents, wrong", [
    (0, [], "vertex 0 outside 1..3"),
    (1, [0], "parent 0 outside 1..3"),
    (4, [], "vertex 4 outside 1..3"),
    (1, [4], "parent 4 outside 1..3"),
    (2, [2], "vertex 2 is its own parent"),
    # ids that do not compare are listed in repr order: "'a'" before "2"
    (1, ["a", 2], "parent 'a' is not an integer vertex id"),
])
def test_a_key_outside_the_dataset_is_rejected_before_any_fit(v, parents, wrong):
    # vertex 0 and parent 0 would read column 3, vertex 4 and parent 4 run
    # past the matrix, and a vertex among its parents fits itself exactly
    X = np.random.default_rng(1).normal(size=(50, 3))
    data = InterventionalDataset(X, [()] * 50)
    cache = ScoreCache(data)
    cache.fill([(3, frozenset())])
    for _ in range(2):
        with pytest.raises(ScoringError) as exc:
            local_score(v, parents, data, cache=cache)
        assert type(exc.value) is ScoringError
        assert str(exc.value) == f"key (vertex {v}, parents {parents}): {wrong}"
    with pytest.raises(ScoringError):
        cache.fill([(3, frozenset({1})), (v, frozenset(parents))])
    # nothing fitted, memoized or counted for the rejected calls
    assert list(cache.memo) == [(3, frozenset())]
    assert (cache.misses, cache.hits) == (1, 0)


def test_a_key_of_ids_that_do_not_compare_names_the_same_parent_under_any_hash_seed():
    # a frozenset of strings iterates in an order set by string hashing;
    # the message must not follow it
    code = (
        "import numpy as np; from gieskit import InterventionalDataset, local_score\n"
        "data = InterventionalDataset(np.eye(3), [()] * 3)\n"
        "try: local_score(1, frozenset({2, 'a', 'b'}), data)\n"
        "except ValueError as exc: print(exc)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    outs = {
        subprocess.run(
            [sys.executable, "-c", code], env={**env, "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True,
        ).stdout
        for seed in ("1", "2")
    }
    assert outs == {
        "key (vertex 1, parents ['a', 'b', 2]): parent 'a' is not an integer vertex id\n"
    }


@pytest.mark.parametrize("bad", [0, 6, -1, 1.5, 2.0, True], ids=repr)
def test_a_bad_vertex_id_raises_a_named_error(data5, bad):
    # TargetFamily's rule: an integer that is not a bool, in 1..p; a fresh
    # cache each time, because only keys missing from the memo are checked
    for v, parents, who in ((bad, [], "vertex"), (1, [bad], "parent")):
        with pytest.raises(ScoringError, match=f": {who} {bad!r} ") as exc:
            local_score(v, parents, data5, cache=ScoreCache(data5))
        assert type(exc.value) is ScoringError
    with pytest.raises(ScoringError, match=f"^target vertex {bad!r} ") as exc:
        InterventionalDataset(data5.X, [[bad]] * data5.n)
    assert type(exc.value) is ScoringError


def test_a_memo_hit_is_not_checked(data5):
    # True == 1, so (True, P) is the memoized key (1, P)
    cache = ScoreCache(data5)
    want = local_score(1, [2], data5, cache=cache)
    assert local_score(True, [2], data5, cache=cache) == want
    assert (cache.misses, cache.hits) == (1, 1)


def test_score_cache_fixes_the_penalty(data5):
    # without a penalty argument, a cache bound to per-node scores per-node
    cache = ScoreCache(data5, penalty="per-node")
    got = local_score(1, {2}, data5, cache=cache)
    assert got == pytest.approx(local_score(1, {2}, data5, penalty="per-node"))


def test_unknown_penalty_rejected(data5):
    with pytest.raises(ScoringError, match="unknown penalty mode 'aic'"):
        local_score(1, set(), data5, penalty="aic")
    with pytest.raises(ScoringError, match="unknown penalty mode 'aic'"):
        ScoreCache(data5, penalty="aic")
    # a penalty given with a cache must be the cache's
    disagrees = "penalty {!r} disagrees with the cache's penalty {!r}"
    cache = ScoreCache(data5)
    with pytest.raises(ScoringError, match=disagrees.format("aic", "total")):
        local_score(1, set(), data5, penalty="aic", cache=cache)
    with pytest.raises(ScoringError, match=disagrees.format("aic", "total")):
        total_score(Dag(5), data5, penalty="aic", cache=cache)
    per_node = ScoreCache(data5, "per-node")
    with pytest.raises(ScoringError, match=disagrees.format("total", "per-node")):
        local_score(1, set(), data5, penalty="total", cache=per_node)
    with pytest.raises(ScoringError, match=disagrees.format("total", "per-node")):
        total_score(Dag(5), data5, penalty="total", cache=per_node)
    assert (cache.misses, per_node.misses) == (0, 0)
    # an agreeing penalty is the cache's own
    assert local_score(1, set(), data5, penalty="per-node", cache=per_node) == (
        local_score(1, set(), data5, penalty="per-node")
    )


def test_insufficient_samples():
    X = np.random.default_rng(0).normal(size=(3, 4))
    data = InterventionalDataset(X, [(), (), ()])
    with pytest.raises(InsufficientSamples):
        local_score(1, {2, 3, 4}, data)


def test_singular_design():
    rng = np.random.default_rng(0)
    col = rng.normal(size=20)
    X = np.column_stack([col, col, rng.normal(size=20)])
    data = InterventionalDataset(X, [()] * 20)
    with pytest.raises(SingularDesign):
        local_score(3, {1, 2}, data)


@pytest.mark.filterwarnings("error")
def test_a_non_finite_fit_is_a_singular_design():
    # subnormal parent columns pass the rank test, but their solution
    # overflows and the residual is NaN
    rng = np.random.default_rng(0)
    z = rng.standard_normal((50, 3))
    X = np.column_stack([z[:, 0], 1e-310 * z[:, 1], 1e-310 * z[:, 2]])
    data = InterventionalDataset(X, [()] * 50)
    named = r"^vertex 1: parent columns \[2, 3\] give a non-finite fit$"
    with pytest.raises(SingularDesign, match=named):
        local_score(1, (2, 3), data)


# x2 = 1e-7 z has a residual variance below the floor with or without x1
_rng = np.random.default_rng(0)
_z = _rng.standard_normal(50)
TINY_X2 = InterventionalDataset(
    np.column_stack([_z + 0.5 * _rng.standard_normal(50), 1e-7 * _z]), [()] * 50
)


@pytest.mark.parametrize("score", [
    lambda: local_score(2, (), TINY_X2),
    lambda: local_score(2, (1,), TINY_X2),
    lambda: total_score(Dag(2), TINY_X2),
    lambda: mle_params(Dag(2, arrows=[(1, 2)]), TINY_X2),
    lambda: move_delta(MoveKind.INSERT, Graph(2), 1, 2, (), TINY_X2),
    lambda: best_move(Graph(2), "forward", TINY_X2),
], ids=["local_score", "local_score-parent", "total_score", "mle_params",
        "move_delta", "best_move"])
def test_a_fit_below_the_variance_floor_names_its_vertex(score):
    with pytest.raises(DegenerateFit, match=r"^vertex 2, parents \[(1)?\]: .* below 1e-12"):
        score()
    assert np.isfinite(local_score(1, (2,), TINY_X2))  # a real fit still scores


# -- total score ---------------------------------------------------------------


def test_total_score_sums_local_terms(data5):
    d = Dag(5, arrows=[(1, 2), (2, 3), (4, 5)])
    want = sum(local_score(v, d.parents(v), data5) for v in d.vertices)
    assert total_score(d, data5) == pytest.approx(want, rel=1e-12)


# data on 3 vertices, and two graphs on them that are not DAGs: a line,
# which mle_params once dropped, and a directed cycle, which both once scored
DATA3 = simulate(SimConfig(p=3, s=0.5, k=1, m=1, n=200, seed=1)).data
NOT_DAGS = [
    (Graph(3, lines=[(1, 2)]), "a fully directed graph, got the line 1 - 2"),
    (Graph(3, arrows=[(1, 2), (2, 3), (3, 1)]), "an acyclic graph, got a directed cycle"),
]


def test_total_score_requires_directed_graph(data5):
    with pytest.raises(ScoringError):
        total_score(Graph(5, lines=[(1, 2)]), data5)
    with pytest.raises(ScoringError):
        total_score(Dag(4), data5)
    for graph, why in NOT_DAGS:
        with pytest.raises(ScoringError, match=f"^scoring requires {why}$"):
            total_score(graph, DATA3)


def test_a_graph_with_no_line_and_no_cycle_is_taken_as_its_dag():
    # every DAG check accepts a plain Graph that is a DAG, and each result
    # is the one for the same Dag
    g, d = Graph(3, arrows=[(1, 2), (2, 3)]), Dag(3, arrows=[(1, 2), (2, 3)])
    fam = TargetFamily(dict.fromkeys(DATA3.targets))
    assert total_score(g, DATA3) == total_score(d, DATA3)
    got, want = mle_params(g, DATA3), mle_params(d, DATA3)
    assert np.array_equal(got.B, want.B) and np.array_equal(got.sigma2, want.sigma2)
    assert essential_graph(g, fam) == essential_graph(d, fam)
    assert markov_equivalent(g, d, fam) and markov_equivalent(d, g, fam)
    assert evaluate(d, g, fam) == evaluate(d, d, fam)


def test_total_score_matches_oracle(sim4):
    for arrows in list(oracles.all_dag_arrow_sets(4))[::50]:
        got = total_score(Dag(4, arrows=arrows), sim4.data)
        want = oracles.total_score(arrows, 4, sim4.data.X, sim4.data.targets)
        assert got == pytest.approx(want, rel=1e-9)


@given(dag4_arrows)
def test_equivalent_dags_score_identically(arrows):
    sim = simulate(SimConfig(p=4, s=0.5, k=2, m=1, n=300, seed=3))
    fam = sim.fam
    e = essential_graph(Dag(4, arrows=arrows), fam)
    scores = [
        total_score(d, sim.data) for d in enumerate_representatives(e)
    ]
    ref = scores[0]
    assert all(s == pytest.approx(ref, rel=1e-9) for s in scores)


def test_score_cache_reuse_across_total_scores(data5):
    cache = ScoreCache(data5)
    d = Dag(5, arrows=[(1, 2), (2, 3)])
    a = total_score(d, data5, cache=cache)
    misses = cache.misses
    b = total_score(d, data5, cache=cache)
    assert a == b and cache.misses == misses


# -- parameter fit --------------------------------------------------------------


def test_mle_params_recovers_the_generating_model():
    sim = simulate(SimConfig(p=5, s=0.5, k=2, m=1, n=20000, seed=5))
    fit = mle_params(sim.dag, sim.data)
    assert fit.dag == sim.dag
    assert np.allclose(fit.B, sim.model.B, atol=0.05)
    assert np.allclose(fit.sigma2, sim.model.sigma2, atol=0.05)
    # weights live only on the parent sets
    mask = np.zeros((5, 5), dtype=bool)
    for a, b in sim.dag.arrows:
        mask[b - 1, a - 1] = True
    assert np.all(fit.B[~mask] == 0.0)


@pytest.mark.parametrize("B, sigma2, message", [
    (np.zeros((2, 2)), np.ones(3), "B must be 3 x 3"),
    (np.zeros((3, 3)), np.ones(2), "sigma2 must have length 3"),
    (np.zeros((3, 3)), np.array([1.0, 0.0, 1.0]), "error variances must be positive"),
    (np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 0.0]]), np.ones(3),
     r"B\[1\]\[0\] nonzero but 1 is not a parent of 2"),
    (np.zeros((3, 3)), np.array([np.nan, 1.0, 1.0]),
     "^error variances must be positive and finite$"),
    (np.zeros((3, 3)), np.array([1.0, np.inf, 1.0]),
     "^error variances must be positive and finite$"),
    (np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, np.inf, 0.0]]), np.ones(3),
     "^B must be finite$"),
    (np.zeros((3, 3)) * 1j, np.ones(3), "^B must hold real numbers, got dtype complex128$"),
    (np.zeros((3, 3)), np.array(["1", "1", "1"]),
     "^sigma2 must hold real numbers, got dtype <U1$"),
], ids=["B-shape", "sigma2-length", "variance-zero", "weight-off-parents", "variance-nan",
        "variance-inf", "weight-inf", "B-complex", "sigma2-strings"])
def test_gaussian_model_names_bad_parameters(B, sigma2, message):
    with pytest.raises(ScoringError, match=message):
        GaussianModel(Dag(3, arrows=[(2, 3)]), B, sigma2)


def test_mle_params_size_mismatch(data5):
    with pytest.raises(ScoringError):
        mle_params(Dag(4), data5)


@pytest.mark.parametrize("graph, why", NOT_DAGS, ids=["line", "cycle"])
def test_mle_params_requires_a_dag(graph, why):
    with pytest.raises(ScoringError, match=f"^scoring requires {why}$"):
        mle_params(graph, DATA3)
