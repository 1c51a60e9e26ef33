"""Target families, equivalence, essential graphs and representatives."""

from __future__ import annotations

import itertools
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cases
import oracles
from gieskit import (
    Dag,
    EssentialGraph,
    Graph,
    GraphError,
    MoveCandidate,
    MoveKind,
    NonConservativeFamily,
    NotAnArrow,
    TargetFamily,
    TooLarge,
    TooManyRepresentatives,
    apply_move,
    count_non_essential,
    enumerate_representatives,
    essential_graph,
    intervention_graph,
    is_essential_graph,
    markov_equivalent,
    replace_unprotected,
    representative,
    strongly_protected,
)

dag4_arrows = st.sampled_from(oracles.all_dag_arrow_sets(4))

# conservative by construction: the observational target excludes everything
families4 = st.lists(
    st.sets(st.integers(1, 4), max_size=3), max_size=3
).map(lambda ts: [()] + ts)


# -- target families ----------------------------------------------------------


def test_target_family_basics():
    fam = TargetFamily([(), (4,), (3, 5), (4,)])
    assert len(fam) == 4
    assert fam[1] == frozenset({4})
    assert list(fam) == [frozenset(), {4}, {3, 5}, {4}]
    assert fam.unique == (frozenset(), frozenset({4}), frozenset({3, 5}))
    assert fam == TargetFamily([[], [4], [5, 3], [4]])
    assert hash(fam) == hash(TargetFamily([(), (4,), (3, 5), (4,)]))


def test_target_family_validation():
    with pytest.raises(GraphError):
        TargetFamily([(0,)])
    with pytest.raises(GraphError):
        TargetFamily([(-2,)])
    TargetFamily([(9,)]).check_vertices(9)
    with pytest.raises(GraphError):
        TargetFamily([(9,)]).check_vertices(8)


@pytest.mark.parametrize("targets", [
    [4], [[1], 2], ["12"], [b"1"], [[1.5]], [[1.0]], [[True]], [["4"]], [[None]],
])
def test_target_family_rejects_malformed_members(targets):
    with pytest.raises(GraphError, match="target"):
        TargetFamily(targets)


@pytest.mark.parametrize("text", ["[[1.5]]", '[["4"]]', "[4]", "[[true]]"])
def test_target_family_from_json_rejects_malformed_members(text):
    with pytest.raises(GraphError):
        TargetFamily.from_json(text)


def test_target_family_accepts_any_collection_of_integer_ids():
    want = TargetFamily([[1, 3], [2]])
    assert TargetFamily([(3, 1), {2}]) == want
    assert TargetFamily([frozenset({1, 3}), iter([2])]) == want
    assert TargetFamily([np.array([1, 3]), [np.int64(2)]]) == want


def test_conservative():
    assert TargetFamily([()]).conservative(5)
    assert TargetFamily([(1,), (2,)]).conservative(2)
    assert not TargetFamily([(1,)]).conservative(2)
    assert not TargetFamily([]).conservative(2)
    assert not TargetFamily([(1,), (1, 2)]).conservative(2)


def test_membership_index_separates_pairs():
    fam = TargetFamily([(), (4,), (3, 5)])
    idx = fam.membership_index()
    assert idx == {4: frozenset({1}), 3: frozenset({2}), 5: frozenset({2})}
    # 3 and 5 always co-occur, so no target separates them
    assert idx[3] == idx[5]
    assert idx[3] != idx.get(4)


@given(st.lists(st.sets(st.integers(1, 6), max_size=4), max_size=5))
def test_family_builds_its_unique_members_and_index_once(targets):
    fam = TargetFamily(targets)
    unique = tuple(dict.fromkeys(map(frozenset, targets)))
    assert fam.unique == unique
    fresh = {
        v: frozenset(i for i, t in enumerate(unique) if v in t)
        for v in set().union(*unique)
    }
    assert fam.membership_index() == fresh
    assert fam.membership_index() is fam.membership_index()
    with pytest.raises(TypeError):
        fam.membership_index()[1] = frozenset()


def test_target_family_serialization():
    fam = TargetFamily([(), (4,), (3, 5)])
    assert TargetFamily.from_json(fam.to_json()) == fam
    assert TargetFamily.parse("[[], [4], [3, 5]]") == fam
    assert TargetFamily.parse("[]; [4]; [3,5]") == fam
    with pytest.raises(GraphError):
        TargetFamily.parse("")


@pytest.mark.parametrize("text", ["4", "[[1], 2]", "x", "[[1.5]]", '[["4"]]'])
def test_target_family_parse_rejects_other_text(text):
    with pytest.raises(GraphError, match=re.escape(repr(text))):
        TargetFamily.parse(text)


# -- intervention graphs ------------------------------------------------------


def test_intervention_graph_fixtures():
    d = cases.dag_7v()
    assert intervention_graph(d, {4}) == Graph(7, arrows=cases.ig_7v_t4().arrows)
    assert intervention_graph(d, {3, 5}) == Graph(7, arrows=cases.ig_7v_t35().arrows)
    assert intervention_graph(d, ()) == Graph(7, arrows=d.arrows)
    with pytest.raises(GraphError):
        intervention_graph(d, {8})


@pytest.mark.parametrize("call", [
    lambda d, x: intervention_graph(d, [x]),
    lambda d, x: strongly_protected(d, 1, x, TargetFamily([[], [1]])),
    lambda d, x: strongly_protected(d, x, 3, TargetFamily([[], [1]])),
], ids=["intervention_graph", "strongly_protected-head", "strongly_protected-tail"])
@pytest.mark.parametrize("x", [-1, 0, 4])
def test_a_vertex_outside_the_dag_is_refused(call, x):
    # -1 used to stand for vertex 3: intervention_graph cut both arrows into
    # 3, and strongly_protected answered for the arrow 1 -> 3
    with pytest.raises(GraphError, match=f"^vertex {x} outside 1..3$"):
        call(Dag(3, arrows=[(1, 3), (2, 3)]), x)


def test_intervention_graph_keeps_outgoing_arrows():
    d = cases.dag_7v()
    cut = intervention_graph(d, {3})
    assert not cut.parents(3)
    assert cut.children(3) == d.children(3)


# -- equivalence --------------------------------------------------------------


def test_markov_equivalent_fixtures():
    d, db, dc = cases.dag_7v(), cases.dag_7v_b(), cases.dag_7v_c()
    assert markov_equivalent(d, db, cases.FAM_T4)
    assert markov_equivalent(d, db, cases.FAM_OBS)
    # same skeleton and v-structures, but intervening at 4 tells them apart
    assert markov_equivalent(d, dc, cases.FAM_OBS)
    assert not markov_equivalent(d, dc, cases.FAM_T4)
    # intervening inside the undirected component breaks the equivalence
    fam15 = TargetFamily([(), (1,)])
    assert not markov_equivalent(d, db, fam15)


def test_markov_equivalent_requires_conservative_family():
    d = Dag(2, arrows=[(1, 2)])
    with pytest.raises(NonConservativeFamily):
        markov_equivalent(d, d, TargetFamily([(1,)]))
    with pytest.raises(NonConservativeFamily):
        markov_equivalent(d, d, TargetFamily([]))
    with pytest.raises(GraphError):
        markov_equivalent(d, Dag(3), cases.FAM_OBS)


@pytest.mark.parametrize("call", [
    lambda fam: essential_graph(Dag(3, arrows=[(1, 2), (2, 3)]), fam),
    lambda fam: replace_unprotected(Dag(3, arrows=[(1, 2), (2, 3)]), fam),
    lambda fam: strongly_protected(Dag(3, arrows=[(1, 2), (2, 3)]), 1, 2, fam),
    lambda fam: apply_move(
        Graph(3), MoveCandidate(MoveKind.INSERT, 1, 2, frozenset(), 1.0), fam
    ),
], ids=["essential_graph", "replace_unprotected", "strongly_protected", "apply_move"])
@pytest.mark.parametrize("targets, error, message", [
    ([[1]], NonConservativeFamily, "^some vertex is contained in every target"),
    ([[], [7]], GraphError, "^target vertex 7 outside 1..3$"),
], ids=["not-conservative", "outside"])
def test_every_way_to_an_essential_graph_checks_the_family(call, targets, error, message):
    # apply_move once returned the graph 1 -> 2 for the family {{1}}, and
    # replace_unprotected and strongly_protected answered for a family naming
    # vertex 7 of a graph on 3
    with pytest.raises(error, match=message):
        call(TargetFamily(targets))


# a directed cycle and a line, which both functions once took for DAGs: the
# cycle's essential graph was the undirected triangle, the line came back
# unchanged, and the cycle was equivalent to 1 -> 2 -> 3, 1 -> 3
NOT_DAGS = [
    (Graph(3, arrows=[(1, 2), (2, 3), (3, 1)]), "an acyclic graph, got a directed cycle"),
    (Graph(3, lines=[(1, 2)]), "a fully directed graph, got the line 1 - 2"),
]


@pytest.mark.parametrize("g, why", NOT_DAGS, ids=["cycle", "line"])
def test_markov_equivalent_names_the_line_or_cycle_of_either_graph(g, why):
    d = Dag(3, arrows=[(1, 2), (2, 3), (1, 3)])
    for args, name in (((g, d), "d1"), ((d, g), "d2")):
        with pytest.raises(GraphError) as exc:
            markov_equivalent(*args, cases.FAM_OBS)
        assert str(exc.value) == f"markov_equivalent requires {why} in {name}"


def test_markov_equivalent_exhaustive_p3():
    fams = [((),), ((), (1,)), ((1,), (2,), (3,))]
    dags = [Dag(3, arrows=a) for a in oracles.all_dag_arrow_sets(3)]
    for targets in fams:
        fam = TargetFamily(targets)
        for d1, d2 in itertools.product(dags, dags):
            want = oracles.equivalent(3, d1.arrows, d2.arrows, targets)
            assert markov_equivalent(d1, d2, fam) == want


@given(dag4_arrows, dag4_arrows, families4)
def test_markov_equivalent_matches_oracle_p4(a1, a2, targets):
    got = markov_equivalent(Dag(4, arrows=a1), Dag(4, arrows=a2), TargetFamily(targets))
    assert got == oracles.equivalent(4, a1, a2, targets)


# -- strong protection --------------------------------------------------------


def test_strongly_protected_local_configurations():
    obs = cases.FAM_OBS
    # chain c -> a -> b with c, b non-adjacent
    assert strongly_protected(Graph(3, arrows=[(1, 2), (2, 3)]), 2, 3, obs)
    # collider a -> b <- c with a, c non-adjacent
    g = Graph(3, arrows=[(1, 2), (3, 2)])
    assert strongly_protected(g, 1, 2, obs)
    assert strongly_protected(g, 3, 2, obs)
    # both a -> b and the detour a -> c -> b
    g = Graph(3, arrows=[(1, 2), (1, 3), (3, 2)])
    assert strongly_protected(g, 1, 2, obs)
    # two line-neighbours of a pointing into b, mutually non-adjacent
    g = Graph(4, arrows=[(1, 4), (2, 4), (3, 4)], lines=[(1, 2), (1, 3)])
    assert strongly_protected(g, 1, 4, obs)


def test_strongly_protected_by_target_separation():
    g = Graph(2, arrows=[(1, 2)])
    assert not strongly_protected(g, 1, 2, cases.FAM_OBS)
    assert strongly_protected(g, 1, 2, TargetFamily([(), (2,)]))
    assert strongly_protected(g, 1, 2, TargetFamily([(), (1,)]))
    # a target containing both endpoints separates neither
    assert not strongly_protected(g, 1, 2, TargetFamily([(), (1, 2)]))


def test_strongly_protected_requires_the_arrow():
    g = Graph(3, arrows=[(1, 2)], lines=[(2, 3)])
    with pytest.raises(NotAnArrow):
        strongly_protected(g, 2, 1, cases.FAM_OBS)
    with pytest.raises(NotAnArrow):
        strongly_protected(g, 2, 3, cases.FAM_OBS)


def test_all_arrows_of_the_fixture_essential_graph_are_protected():
    e = cases.eg_7v_t4()
    for a, b in e.arrows:
        assert strongly_protected(e, a, b, cases.FAM_T4)
    assert not strongly_protected(e, 3, 4, cases.FAM_OBS)


# -- essential graphs ---------------------------------------------------------


def test_essential_graph_fixture():
    e = essential_graph(cases.dag_7v(), cases.FAM_T4)
    assert isinstance(e, EssentialGraph)
    assert e.graph == cases.eg_7v_t4()
    assert e.targets == cases.FAM_T4
    assert e.p == 7


@pytest.mark.parametrize("g, why", NOT_DAGS, ids=["cycle", "line"])
def test_essential_graph_names_the_line_or_cycle(g, why):
    with pytest.raises(GraphError) as exc:
        essential_graph(g, cases.FAM_OBS)
    assert str(exc.value) == f"essential_graph requires {why}"


def test_essential_graph_under_richer_families_orients_more():
    d = cases.dag_7v()
    obs = essential_graph(d, cases.FAM_OBS).graph
    t4 = essential_graph(d, cases.FAM_T4).graph
    singletons = essential_graph(
        d, TargetFamily([(v,) for v in range(1, 8)])
    ).graph
    # arrows only ever gain, never lose, when targets are added
    assert set(obs.arrows) <= set(t4.arrows)
    assert set(t4.arrows) <= set(singletons.arrows)
    assert singletons == Graph(7, arrows=d.arrows)
    # the observational essential graph frees exactly the 3 -> 4 arrow
    assert obs == Graph(
        7,
        arrows=[(2, 6), (3, 6), (5, 6)],
        lines=[(1, 2), (2, 3), (1, 5), (2, 5), (3, 4), (3, 7), (4, 7)],
    )


def test_replace_unprotected_reaches_the_essential_graph():
    got = replace_unprotected(cases.dag_7v(), cases.FAM_T4)
    assert got == cases.eg_7v_t4()
    # already-essential graphs are a fixpoint
    assert replace_unprotected(cases.eg_7v_t4(), cases.FAM_T4) == cases.eg_7v_t4()


@given(dag4_arrows, families4)
def test_essential_graph_is_the_class_union(arrows, targets):
    e = essential_graph(Dag(4, arrows=arrows), TargetFamily(targets)).graph
    members = oracles.class_members(4, arrows, targets)
    want_arrows, want_lines = oracles.union_graph(4, members)
    assert frozenset(e.arrows) == want_arrows
    assert frozenset(tuple(sorted(l)) for l in e.lines) == want_lines


@given(dag4_arrows, families4)
def test_essential_graphs_pass_their_own_validity_check(arrows, targets):
    fam = TargetFamily(targets)
    e = essential_graph(Dag(4, arrows=arrows), fam)
    report = is_essential_graph(e.graph, fam)
    assert report.ok, (report.violated, report.witness)


# -- essential-graph validity diagnostics -------------------------------------


def test_is_essential_graph_accepts_fixture():
    report = is_essential_graph(cases.eg_7v_t4(), cases.FAM_T4)
    assert report.ok and bool(report)
    assert report.violated is None and report.witness is None


def test_is_essential_graph_violations():
    obs = cases.FAM_OBS
    r = is_essential_graph(Graph(3, arrows=[(1, 2)], lines=[(2, 3), (1, 3)]), obs)
    assert not r.ok and r.violated == "chain-graph"
    r = is_essential_graph(Graph(4, lines=[(1, 2), (2, 3), (3, 4), (1, 4)]), obs)
    assert r.violated == "chordal-components"
    r = is_essential_graph(Graph(3, arrows=[(1, 2)], lines=[(2, 3)]), obs)
    assert r.violated == "arrow-line-subgraph"
    r = is_essential_graph(Graph(2, lines=[(1, 2)]), TargetFamily([(), (1,)]))
    assert r.violated == "separated-line"
    r = is_essential_graph(cases.eg_7v_t4(), obs)
    assert r.violated == "unprotected-arrow"
    assert r.witness == "arrow 3 -> 4"


# -- representatives ----------------------------------------------------------


def test_representative_is_a_class_member():
    e = essential_graph(cases.dag_7v(), cases.FAM_T4)
    d = representative(e)
    assert isinstance(d, Dag)
    assert markov_equivalent(d, cases.dag_7v(), cases.FAM_T4)
    assert essential_graph(d, cases.FAM_T4).graph == e.graph


def test_enumerate_representatives_fixture_class():
    e = essential_graph(cases.dag_7v(), cases.FAM_T4)
    reps = enumerate_representatives(e)
    assert len(reps) == 8
    rep_sets = {frozenset(d.arrows) for d in reps}
    assert frozenset(cases.dag_7v().arrows) in rep_sets
    assert frozenset(cases.dag_7v_b().arrows) in rep_sets
    for d in reps:
        assert markov_equivalent(d, cases.dag_7v(), cases.FAM_T4)
    # orientations of the one non-trivial component, found by brute force
    base = frozenset(cases.eg_7v_t4().arrows)
    want = {
        base | o
        for o in oracles.component_orientations(
            cases.eg_7v_t4().lines, frozenset({1, 2, 3, 5})
        )
    }
    assert rep_sets == want


def test_enumerate_representatives_respects_limit():
    e = essential_graph(cases.dag_7v(), cases.FAM_T4)
    with pytest.raises(TooManyRepresentatives):
        enumerate_representatives(e, limit=3)
    # two lines: each component has 2 orientations, within the limit, but
    # the class has their product, 4
    two = Graph(4, lines=[(1, 2), (3, 4)])
    assert len(enumerate_representatives(two, limit=4)) == 4
    with pytest.raises(TooManyRepresentatives):
        enumerate_representatives(two, limit=3)


def test_errors_with_fields_and_families_survive_pickling():
    # a worker process returns its result or error pickled: TooLarge once
    # failed to unpickle, and TooManyRepresentatives came back with its
    # message twice
    for value, fields in (
        (TooLarge(16, 15), {"p": 16, "max_p": 15}),
        (TooManyRepresentatives(3), {"limit": 3}),
    ):
        got = pickle.loads(pickle.dumps(value))
        assert type(got) is type(value) and str(got) == str(value)
        assert vars(got) == fields
    fam = TargetFamily([(), (2, 1), (2, 1)])
    got = pickle.loads(pickle.dumps(fam))
    assert got == fam and got.unique == fam.unique
    assert got.membership_index() == fam.membership_index()


@pytest.mark.parametrize("limit", [0, -1])
@pytest.mark.parametrize("graph", [
    Graph(3, arrows=[(1, 2)]),  # a one-DAG class
    Graph(3, lines=[(1, 2)]),
], ids=["arrow", "line"])
def test_enumerate_representatives_rejects_a_limit_below_one(graph, limit):
    with pytest.raises(GraphError, match=f"^limit must be >= 1, got {limit}$"):
        enumerate_representatives(graph, limit=limit)


@pytest.mark.parametrize("limit", [1.5, True, "2"], ids=repr)
def test_enumerate_representatives_rejects_a_limit_that_is_not_an_integer(limit):
    # 1.5 and True once ran, the first with "exceeds limit of 1.5 DAGs"
    with pytest.raises(GraphError, match=f"^limit must be an integer, got {limit!r}$"):
        enumerate_representatives(Graph(3, lines=[(1, 2)]), limit=limit)


@given(dag4_arrows, families4)
def test_enumerate_representatives_is_exactly_the_class(arrows, targets):
    fam = TargetFamily(targets)
    e = essential_graph(Dag(4, arrows=arrows), fam)
    got = {frozenset(d.arrows) for d in enumerate_representatives(e)}
    assert got == set(oracles.class_members(4, arrows, targets))


def test_representatives_accept_a_bare_graph():
    g = cases.eg_7v_t4()
    assert representative(g).p == 7
    assert len(enumerate_representatives(g)) == 8


def test_count_non_essential():
    assert count_non_essential(essential_graph(cases.dag_7v(), cases.FAM_T4)) == 4
    assert count_non_essential(cases.eg_7v_t4()) == 4
    full = TargetFamily([(v,) for v in range(1, 8)])
    assert count_non_essential(essential_graph(cases.dag_7v(), full)) == 0


def test_chain_identifiability_small():
    # path DAG oriented away from the source: a single extra target {v}
    # pins down p - v arrows below the source, v - 1 above, all at v = s
    p, s = 5, 3
    d = cases.chain_dag(p, s)
    for v in range(1, p + 1):
        fam = TargetFamily([(), (v,)])
        n = len(enumerate_representatives(essential_graph(d, fam)))
        want = 1 if v == s else (p - v if v < s else v - 1)
        assert n == want, (v, n, want)
