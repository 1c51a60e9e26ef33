"""Graph container, traversals, chordality and LexBFS."""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cases
import oracles
from gieskit import (
    ChainGraph,
    Dag,
    DirectedCycle,
    Graph,
    GraphError,
    InterventionalDataset,
    MoveCandidate,
    MoveKind,
    NotUndirected,
    TargetFamily,
    apply_move,
    as_chain_graph,
    chain_components,
    cliques_in_neighborhood,
    component_of,
    has_path,
    intervention_graph,
    is_acyclic,
    is_chordal,
    is_perfect_elimination,
    lexbfs,
    move_delta,
    orient_by,
    skeleton,
    strongly_protected,
    topological_order,
    v_structures,
    valid_move,
)

# -- strategies --------------------------------------------------------------

dag4_arrows = st.sampled_from(oracles.all_dag_arrow_sets(4))


@st.composite
def mixed_graphs(draw, max_p=6):
    """Arbitrary partially directed graph: each pair none/line/either arrow."""
    p = draw(st.integers(3, max_p))
    arrows, lines = [], []
    for a, b in itertools.combinations(range(1, p + 1), 2):
        c = draw(st.integers(0, 3))
        if c == 1:
            lines.append((a, b))
        elif c == 2:
            arrows.append((a, b))
        elif c == 3:
            arrows.append((b, a))
    return Graph(p, arrows=arrows, lines=lines)


@st.composite
def interval_graphs(draw, max_p=8):
    """Undirected intersection graph of random intervals; always chordal."""
    p = draw(st.integers(2, max_p))
    ivs = []
    for _ in range(p):
        a = draw(st.integers(0, 20))
        b = draw(st.integers(0, 20))
        ivs.append((min(a, b), max(a, b)))
    lines = [
        (i, j)
        for i, j in itertools.combinations(range(1, p + 1), 2)
        if ivs[i - 1][0] <= ivs[j - 1][1] and ivs[j - 1][0] <= ivs[i - 1][1]
    ]
    return Graph(p, lines=lines)


# -- construction and accessors ----------------------------------------------


def test_graph_basic_accessors():
    g = Graph(4, arrows=[(1, 2), (3, 2)], lines=[(2, 4)])
    assert g.p == 4
    assert list(g.vertices) == [1, 2, 3, 4]
    assert g.arrows == [(1, 2), (3, 2)]
    assert g.lines == [(2, 4)]
    assert g.parents(2) == {1, 3}
    assert g.children(1) == {2}
    assert g.neighbors(2) == {4}
    assert g.adjacent(2) == {1, 3, 4}
    assert g.has_arrow(1, 2) and not g.has_arrow(2, 1)
    assert g.has_line(2, 4) and g.has_line(4, 2)
    assert g.is_adjacent(4, 2)
    assert not g.is_adjacent(1, 3)
    assert g.num_arrows == 2 and g.num_lines == 1 and g.num_edges == 3


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph(3, arrows=[(1, 4)])
    with pytest.raises(GraphError):
        Graph(3, arrows=[(0, 1)])
    with pytest.raises(GraphError):
        Graph(3, arrows=[(1, 1)])
    with pytest.raises(GraphError):
        Graph(-1)


@pytest.mark.parametrize("p", [True, 3.0, "3", None], ids=repr)
def test_graph_rejects_a_vertex_count_that_is_not_an_integer(p):
    # True once built p=True, and 3.0 raised a bare TypeError
    with pytest.raises(GraphError, match=f"^vertex count must be an integer, got {p!r}$"):
        Graph(p)


def test_graph_merges_conflicting_pair_specs_into_a_line():
    # both orientations of a pair, or arrow plus line, collapse to a line
    assert Graph(3, arrows=[(1, 2), (2, 1)]) == Graph(3, lines=[(1, 2)])
    assert Graph(3, arrows=[(1, 2)], lines=[(1, 2)]) == Graph(3, lines=[(1, 2)])
    assert Graph(3, arrows=[(1, 2), (1, 2)]) == Graph(3, arrows=[(1, 2)])
    # and equal graphs hash alike
    assert hash(Graph(3, arrows=[(1, 2), (2, 1)])) == hash(Graph(3, lines=[(1, 2)]))


def test_graph_equality_ignores_insertion_order():
    g1 = Graph(3, arrows=[(1, 2), (1, 3)])
    g2 = Graph(3, arrows=[(1, 3), (1, 2)])
    assert g1 == g2
    assert g1 != Graph(3, arrows=[(1, 2)])
    assert g1 != Graph(4, arrows=[(1, 2), (1, 3)])
    # a Dag equals, and hashes like, the Graph of its arrows
    assert Dag(3, arrows=[(1, 3), (1, 2)]) == g1
    assert hash(Dag(3, arrows=[(1, 3), (1, 2)])) == hash(g1)
    # other types are left to compare themselves
    assert g1.__eq__(g1.to_dict()) is NotImplemented and g1 != g1.to_dict()


def test_dag_refuses_cycles_and_lines():
    with pytest.raises(DirectedCycle):
        Dag(3, arrows=[(1, 2), (2, 3), (3, 1)])
    with pytest.raises(GraphError):
        Dag(3, arrows=[(1, 2)], lines=[(2, 3)])
    d = Dag(3, arrows=[(1, 2), (2, 3)])
    assert d.is_directed()


def test_chain_graph_refuses_partially_directed_cycle():
    with pytest.raises(DirectedCycle):
        ChainGraph(3, arrows=[(1, 2)], lines=[(2, 3), (3, 1)])
    cg = as_chain_graph(cases.cg_7v())
    assert isinstance(cg, ChainGraph)


def test_copy_is_a_plain_mutable_graph():
    d = cases.dag_7v()
    h = d.copy()
    assert type(h) is Graph
    assert h == Graph(7, arrows=d.arrows)
    h._drop_edge(2, 1)
    assert d.has_arrow(2, 1)


@pytest.mark.parametrize("d, field", [
    ({"arrows": [[1, 2]]}, "'p'"),
    ({"p": "3"}, "'p'"),
    ({"p": 3.0}, "'p'"),
    ({"p": True}, "'p'"),
    ({"p": 3, "arrows": [[1]]}, "'arrows'"),
    ({"p": 3, "arrows": [[1, 2, 3]]}, "'arrows'"),
    ({"p": 3, "arrows": {"1": 2}}, "'arrows'"),
    ({"p": 3, "lines": [[1, 2.0]]}, "'lines'"),
    ({"p": 3, "lines": [["1", "2"]]}, "'lines'"),
    ({"p": 3, "lines": [1, 2]}, "'lines'"),
])
def test_from_dict_names_the_malformed_field(d, field):
    for cls in (Graph, Dag):
        with pytest.raises(GraphError, match=field):
            cls.from_dict(d)


@pytest.mark.parametrize("text", ["[[1, 2]]", "5", "null"])
def test_from_dict_rejects_a_non_object(text):
    with pytest.raises(GraphError, match="'p'"):
        Graph.from_json(text)


def test_json_round_trip():
    g = cases.cg_7v()
    assert Graph.from_json(g.to_json()) == g
    d = cases.dag_7v()
    assert Dag.from_json(d.to_json()) == d
    assert isinstance(Dag.from_json(d.to_json()), Dag)
    assert eval(repr(g), {"Graph": Graph}) == g and eval(repr(d), {"Graph": Graph}) == d
    with pytest.raises(GraphError):
        Dag.from_dict(g.to_dict())


def test_directedness_predicates():
    assert cases.dag_7v().is_directed()
    assert cases.chordal_7v().is_undirected()
    assert not cases.cg_7v().is_directed()
    assert not cases.cg_7v().is_undirected()


# -- skeleton / v-structures ---------------------------------------------


def test_skeleton_of_reference_dag():
    sk = skeleton(cases.dag_7v())
    assert sk.num_arrows == 0
    assert {frozenset(e) for e in sk.lines} == oracles.skeleton_pairs(cases.dag_7v())


def test_v_structures_of_reference_dag():
    assert v_structures(cases.dag_7v()) == {(3, 6, 5)}


@given(mixed_graphs())
def test_skeleton_and_v_structures_match_oracle(g):
    sk = skeleton(g)
    assert {frozenset(e) for e in sk.lines} == oracles.skeleton_pairs(g)
    assert v_structures(g) == oracles.v_structures(g)


# -- acyclicity, paths, components -----------------------------------------


def test_topological_order_is_consistent():
    d = cases.dag_7v()
    order = topological_order(d)
    pos = {v: i for i, v in enumerate(order)}
    assert sorted(order) == list(range(1, 8))
    assert all(pos[a] < pos[b] for a, b in d.arrows)
    with pytest.raises(DirectedCycle):
        topological_order(Graph(3, arrows=[(1, 2), (2, 3), (3, 1)]))


@given(mixed_graphs())
def test_is_acyclic_matches_quotient_construction(g):
    # a chain graph admits a topological component order; a partially
    # directed cycle does not
    try:
        comps = chain_components(g)
    except DirectedCycle:
        assert not is_acyclic(g)
    else:
        assert is_acyclic(g)
        assert set(comps) == oracles.chain_components(g)


def test_chain_components_fixture_order():
    assert chain_components(cases.cg_7v()) == [
        frozenset({1, 2, 3, 5}),
        frozenset({4, 7}),
        frozenset({6}),
    ]


def test_component_of():
    g = cases.cg_7v()
    assert component_of(g, 2) == frozenset({1, 2, 3, 5})
    assert component_of(g, 6) == frozenset({6})


@given(mixed_graphs(), st.data())
def test_has_path_matches_oracle(g, data):
    frm = data.draw(st.integers(1, g.p))
    to = data.draw(st.integers(1, g.p))
    forbidden = data.draw(st.sets(st.integers(1, g.p), max_size=2))
    if frm == to:
        return
    assert has_path(g, frm, to, forbidden) == oracles.has_path(g, frm, to, forbidden)


def _bfs_has_path(g, frm, to, forbidden=()):
    """The breadth-first search that has_path ran before it answered
    through _reach, kept as its reference."""
    blocked = set(forbidden)
    if frm in blocked or to in blocked:
        return False
    seen = {frm}
    queue = deque([frm])
    while queue:
        a = queue.popleft()
        for b in g._ch[a] | g._nb[a]:
            if b == to:
                return True
            if b not in seen and b not in blocked:
                seen.add(b)
                queue.append(b)
    return False


@settings(max_examples=300)
@given(mixed_graphs(max_p=8), st.data())
def test_has_path_matches_the_breadth_first_reference(g, data):
    # every ordered pair, frm == to and forbidden endpoints included
    forbidden = data.draw(st.sets(st.integers(1, g.p), max_size=3))
    for frm, to in itertools.product(g.vertices, repeat=2):
        assert has_path(g, frm, to, forbidden) == _bfs_has_path(g, frm, to, forbidden)


def test_has_path_respects_forbidden_endpoints():
    g = Graph(3, arrows=[(1, 2), (2, 3)])
    assert has_path(g, 1, 3)
    assert not has_path(g, 1, 3, forbidden=(2,))
    assert not has_path(g, 1, 3, forbidden=(1,))
    assert not has_path(g, 3, 1)


# -- chordality, cliques ---------------------------------------------------


def test_is_chordal_fixtures():
    assert is_chordal(cases.chordal_7v())
    assert not is_chordal(Graph(4, lines=[(1, 2), (2, 3), (3, 4), (1, 4)]))
    # restricting to a vertex subset checks the induced subgraph
    g = Graph(5, lines=[(1, 2), (2, 3), (3, 4), (1, 4), (1, 5)])
    assert not is_chordal(g)
    assert is_chordal(g, vertices={1, 2, 5})


@given(mixed_graphs())
def test_is_chordal_matches_elimination_oracle(g):
    for comp in oracles.chain_components(g):
        # the restriction must be purely undirected to be checkable
        if any(a in comp and b in comp for a, b in g.arrows):
            with pytest.raises(NotUndirected):
                is_chordal(g, comp)
        else:
            assert is_chordal(g, comp) == oracles.is_chordal(comp, g.lines)


def test_cliques_in_neighborhood_fixture():
    g = cases.eg_7v_t4()
    got = cliques_in_neighborhood(g, sorted(g.neighbors(2)))
    assert set(got) == set(oracles.cliques_within(g.lines, g.neighbors(2)))
    assert frozenset() in got


def test_cliques_in_neighborhood_lists_each_clique_once():
    # a repeated member once listed {1} and {1, 2} twice each; repeats are
    # dropped after the ids are checked, so True beside 1 is still refused
    g = Graph(3, lines=[(1, 2)])
    got = cliques_in_neighborhood(g, [1, 1, 2])
    assert got == [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})]
    with pytest.raises(GraphError, match="True is not an integer vertex id"):
        cliques_in_neighborhood(g, [1, True])


@given(mixed_graphs(), st.data())
def test_cliques_in_neighborhood_matches_oracle(g, data):
    v = data.draw(st.integers(1, g.p))
    got = cliques_in_neighborhood(g, g.neighbors(v))
    assert set(got) == set(oracles.cliques_within(g.lines, g.neighbors(v)))


# -- LexBFS and orientation --------------------------------------------------


def test_lexbfs_reference_ordering():
    assert lexbfs(cases.LEXBFS_START, cases.chordal_7v()) == cases.LEXBFS_ORDER


def test_lexbfs_restricted_to_component():
    g = cases.eg_7v_t4()
    comp = component_of(g, 2)
    order = lexbfs(sorted(comp), g, comp)
    assert set(order) == comp


def test_orient_by_reference_dag():
    order = lexbfs(cases.LEXBFS_START, cases.chordal_7v())
    assert orient_by(order, cases.chordal_7v()) == cases.oriented_7v()


@pytest.mark.parametrize("call, error, message", [
    (lambda g: lexbfs([2, 2], g), GraphError, "start_order contains duplicates"),
    (lambda g: lexbfs([3], g, {1, 2}), GraphError, "start vertex 3 not in"),
    (lambda g: is_chordal(g, {1, 5}), GraphError, "vertex 5 outside 1..4"),
    (lambda g: orient_by([1, 2, 3, 4], Graph(4, arrows=[(1, 2)])), NotUndirected,
     "requires an undirected graph"),
    (lambda g: orient_by([1, 2, 2, 4], g), GraphError, "must be a permutation"),
    (lambda g: topological_order(g), NotUndirected, "requires a fully directed"),
    (lambda g: is_perfect_elimination([1, 2, 1], g), GraphError,
     "ordering contains duplicates"),
], ids=["lexbfs-duplicate", "lexbfs-foreign", "restriction-outside", "orient-arrows",
        "orient-not-permutation", "topological-lines", "elimination-duplicate"])
def test_graph_algorithms_name_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call(Graph(4, lines=[(1, 2), (2, 3), (3, 4)]))


_D3 = Dag(3, arrows=[(1, 3), (2, 3)])
_DATA3 = InterventionalDataset(np.random.default_rng(0).standard_normal((20, 3)), [()] * 20)
_INSERT = MoveKind.INSERT


# every exported function that takes vertex ids, on Graph(3, lines=[(2, 3)]);
# True marks a constructor, whose message names the edge (x, 3)
@pytest.mark.parametrize("call, edge", [
    (lambda g, x: component_of(g, x), False),
    (lambda g, x: has_path(g, x, 2), False),
    (lambda g, x: has_path(g, 2, x), False),
    (lambda g, x: cliques_in_neighborhood(g, [x]), False),
    (lambda g, x: cliques_in_neighborhood(g, [3, x, 2]), False),
    (lambda g, x: is_perfect_elimination([2, x], g), False),
    (lambda g, x: Graph(3, arrows=[(x, 3)]), True),
    (lambda g, x: Graph(3, lines=[(x, 3)]), True),
    (lambda g, x: Dag(3, arrows=[(x, 3)]), True),
    (lambda g, x: ChainGraph(3, lines=[(x, 3)]), True),
    (lambda g, x: lexbfs([x], g), False),
    (lambda g, x: lexbfs([], g, [x]), False),
    (lambda g, x: is_chordal(g, [x]), False),
    (lambda g, x: orient_by([1, x, 3], g), False),
    (lambda g, x: intervention_graph(g, [x]), False),
    (lambda g, x: strongly_protected(_D3, x, 3, TargetFamily([()])), False),
    (lambda g, x: strongly_protected(_D3, 1, x, TargetFamily([()])), False),
    (lambda g, x: valid_move(_INSERT, g, x, 1, ()), False),
    (lambda g, x: valid_move(_INSERT, g, 1, x, ()), False),
    (lambda g, x: valid_move(_INSERT, g, 1, 2, [x]), False),
    (lambda g, x: move_delta(_INSERT, g, x, 1, (), _DATA3), False),
    (lambda g, x: move_delta(_INSERT, g, 1, x, (), _DATA3), False),
    (lambda g, x: move_delta(_INSERT, g, 1, 2, [x], _DATA3), False),
    (lambda g, x: apply_move(g, MoveCandidate(_INSERT, 1, x, frozenset(), 1.0),
                             TargetFamily([()])), False),
    (lambda g, x: apply_move(g, MoveCandidate(_INSERT, 1, 2, frozenset({x}), 1.0),
                             TargetFamily([()])), False),
], ids=["component_of", "has_path-from", "has_path-to", "cliques-alone",
        "cliques-among-others", "perfect-elimination", "Graph-arrows", "Graph-lines",
        "Dag", "ChainGraph", "lexbfs-start", "lexbfs-vertices", "is_chordal",
        "orient_by", "intervention_graph", "strongly_protected-tail",
        "strongly_protected-head", "valid_move-u", "valid_move-v", "valid_move-C",
        "move_delta-u", "move_delta-v", "move_delta-C", "apply_move-v", "apply_move-C"])
@pytest.mark.parametrize("x", [-1, 0, 4, 1.5, 2.0, True])
def test_a_vertex_outside_the_graph_is_refused(call, edge, x):
    # TargetFamily's rule: an Integral that is not a bool, in 1..p. -1 used
    # to index vertex 3 and 4 to raise IndexError; the clique and elimination
    # checks answered quietly, cliques_in_neighborhood(g, [4]) with
    # [frozenset(), frozenset({4})]; 1.5 and 2.0 raised a bare TypeError or
    # passed as 2, and True passed as vertex 1
    if isinstance(x, float) or x is True:
        why = f"{x!r} is not an integer vertex id"
    else:
        why = f"{x} outside 1..3"
    message = f"edge ({x!r}, 3): vertex {why}" if edge else f"vertex {why}"
    with pytest.raises(GraphError) as exc:
        call(Graph(3, lines=[(2, 3)]), x)
    assert str(exc.value) == message


def test_a_graph_stores_integral_ids_as_ints():
    g = Graph(3, arrows=[(np.int64(1), 2)], lines=[(np.int32(2), 3)])
    assert [type(a) for e in g.arrows + g.lines for a in e] == [int] * 4
    assert Graph.from_json(g.to_json()) == g


@pytest.mark.parametrize("cls", [Graph, Dag])
def test_a_graph_stores_an_integral_vertex_count_as_an_int(cls):
    # a numpy vertex count was once kept, and to_json then raised TypeError
    g = cls(np.int64(3), arrows=[(1, 2)])
    assert type(g.p) is int and type(g.copy().p) is int
    assert cls.from_json(g.to_json()) == g


def test_is_perfect_elimination_fixture():
    g = cases.chordal_7v()
    assert is_perfect_elimination(cases.LEXBFS_ORDER, g)
    # 4-cycle has no perfect elimination ordering at all
    c4 = Graph(4, lines=[(1, 2), (2, 3), (3, 4), (1, 4)])
    for perm in itertools.permutations(range(1, 5)):
        assert not is_perfect_elimination(perm, c4)


@given(interval_graphs(), st.data())
def test_lexbfs_yields_perfect_elimination_on_chordal(g, data):
    start = data.draw(st.permutations(list(range(1, g.p + 1))))
    order = lexbfs(start, g)
    assert sorted(order) == list(range(1, g.p + 1))
    assert is_perfect_elimination(order, g)
    d = orient_by(order, g)
    assert skeleton(d) == skeleton(g)
    assert v_structures(d) == set()


@given(interval_graphs())
def test_orienting_a_chordal_graph_preserves_its_class(g):
    # the oriented DAG must be a member of the class whose union is g
    order = lexbfs(list(range(1, g.p + 1)), g)
    d = orient_by(order, g)
    assert oracles.v_structures(d) == set()
    assert oracles.is_acyclic_arrows(d.p, d.arrows)


def _bucket_lexbfs(start_order, g, vertices=None):
    """The bucket-refinement LexBFS that the label definition in lexbfs
    replaced, kept as its reference: emit the front vertex of the front
    bucket, then split every bucket into (neighbours of it, rest)."""
    vs = set(g.vertices) if vertices is None else set(vertices)
    start = list(start_order)
    seed = start + sorted(vs - set(start))
    buckets = [seed] if seed else []
    out = []
    while buckets:
        front = buckets[0]
        a = front.pop(0)
        if not front:
            buckets.pop(0)
        out.append(a)
        nxt = []
        for bucket in buckets:
            moved = [b for b in bucket if g.has_line(a, b)]
            rest = [b for b in bucket if not g.has_line(a, b)]
            nxt.extend(part for part in (moved, rest) if part)
        buckets = nxt
    return tuple(out)


@settings(max_examples=300)
@given(mixed_graphs(max_p=8), st.data())
def test_lexbfs_matches_bucket_refinement(g, data):
    # a restriction may hold no arrow, so grow one from a random vertex order
    vs = []
    for v in data.draw(st.permutations(list(g.vertices))):
        if data.draw(st.booleans()) and not (g.parents(v) | g.children(v)) & set(vs):
            vs.append(v)
    start = data.draw(st.permutations(vs))[: data.draw(st.integers(0, len(vs)))]
    assert lexbfs(start, g, vs) == _bucket_lexbfs(start, g, vs)
    sk = skeleton(g)
    start = data.draw(st.permutations(list(g.vertices)))[: data.draw(st.integers(1, g.p))]
    assert lexbfs(start, sk) == _bucket_lexbfs(start, sk)


@given(interval_graphs(), st.data())
def test_lexbfs_matches_bucket_refinement_on_chordal_graphs(g, data):
    start = data.draw(st.permutations(list(g.vertices)))[: data.draw(st.integers(0, g.p))]
    assert lexbfs(start, g) == _bucket_lexbfs(start, g)
