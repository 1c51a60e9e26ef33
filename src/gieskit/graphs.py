"""Partially directed graphs on vertices 1..p: arrows, lines, chain
components, chordality, lexicographic BFS and orientations.

An edge is an ordered pair of distinct vertices: the pair (a, b) alone is the
arrow a -> b; the presence of both (a, b) and (b, a) is the line a - b.
A pair and its reverse therefore never encode a directed 2-cycle.

Paths follow arrows forward and lines in either direction; a partially
directed cycle is a cyclic path containing at least one arrow. Graphs without
partially directed cycles are chain graphs; their line-connected components
("chain components") carry a partial order induced by the arrows.
"""

from __future__ import annotations

import heapq
import json
from itertools import combinations
from numbers import Integral
from typing import Callable, Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Invalid graph input or operation."""


class DirectedCycle(GraphError):
    """A (partially) directed cycle where none is allowed."""


class NotUndirected(GraphError):
    """Operation requires a graph whose edges are all lines."""


class NotAnArrow(GraphError):
    """Operation requires an arrow a -> b."""


class NotALine(GraphError):
    """Operation requires a line a - b."""


class NotAnEdge(GraphError):
    """Operation requires an edge between the two vertices."""


class VerticesAdjacent(GraphError):
    """Operation requires the two vertices to be non-adjacent."""


#: An ordering of vertices, e.g. a LexBFS output or a topological order.
VertexOrdering = tuple[int, ...]


def _is_integer(v: object) -> bool:
    """The one rule for an integer: an Integral that is not a bool. Target
    members, vertex ids and the learners' and simulator's integer limits
    follow it."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def _check_limit(
    name: str, value: object, least: int | None = None, error: type[Exception] = GraphError
) -> None:
    """Raise error naming the limit `name` unless value is an integer by
    _is_integer's rule, and at least `least` if one is given."""
    if not _is_integer(value):
        raise error(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise error(f"{name} must be >= {least}, got {value}")


def _vertex_error(v: object, p: int) -> str | None:
    """Why v is not a vertex id of 1..p by _is_integer's rule, or None if it
    is one."""
    if not _is_integer(v):
        return f"{v!r} is not an integer vertex id"
    return None if 1 <= v <= p else f"{v} outside 1..{p}"


class Graph:
    """Partially directed graph with O(1) edge queries.

    Parameters
    ----------
    p : number of vertices, an integer >= 0 (not a bool); the vertex set
        is 1..p.
    arrows : iterable of (tail, head) pairs.
    lines : iterable of {a, b} pairs, orientation-free.

    An arrow listed together with its reverse collapses to a line. Listing
    a pair both as an arrow and a line keeps the line.
    """

    __slots__ = ("p", "_pa", "_ch", "_nb")

    def __init__(
        self,
        p: int,
        arrows: Iterable[tuple[int, int]] = (),
        lines: Iterable[tuple[int, int]] = (),
    ):
        _check_limit("vertex count", p, 0)
        p = self.p = int(p)  # e.g. a numpy integer, which JSON cannot write
        self._pa: list[set[int]] = [set() for _ in range(p + 1)]
        self._ch: list[set[int]] = [set() for _ in range(p + 1)]
        self._nb: list[set[int]] = [set() for _ in range(p + 1)]
        for a, b in arrows:
            a, b = self._check_pair(a, b)
            if a in self._pa[b] or b in self._nb[a]:
                continue
            if b in self._pa[a]:
                # reverse arrow already present: the pair set encodes a line
                self._pa[a].discard(b)
                self._ch[b].discard(a)
                self._add_line(a, b)
            else:
                self._pa[b].add(a)
                self._ch[a].add(b)
        for a, b in lines:
            a, b = self._check_pair(a, b)
            self._drop_edge(a, b)
            self._add_line(a, b)

    def _check_pair(self, a: int, b: int) -> tuple[int, int]:
        """The edge (a, b) as a pair of ints; GraphError if an end is not a
        vertex id by _vertex_error's rule, or for a self-loop."""
        p = self.p
        if not (type(a) is int and type(b) is int and 0 < a <= p and 0 < b <= p):
            why = _vertex_error(a, p) or _vertex_error(b, p)
            if why:
                raise GraphError(f"edge ({a!r}, {b!r}): vertex {why}")
            a, b = int(a), int(b)  # e.g. numpy integers, which JSON cannot write
        if a == b:
            raise GraphError(f"self-loop at {a}")
        return a, b

    # -- private mutators; public Graph values are never mutated in place --

    def _add_line(self, a: int, b: int) -> None:
        self._nb[a].add(b)
        self._nb[b].add(a)

    def _add_arrow(self, a: int, b: int) -> None:
        self._pa[b].add(a)
        self._ch[a].add(b)

    def _drop_edge(self, a: int, b: int) -> None:
        self._pa[a].discard(b)
        self._pa[b].discard(a)
        self._ch[a].discard(b)
        self._ch[b].discard(a)
        self._nb[a].discard(b)
        self._nb[b].discard(a)

    def _orient(self, a: int, b: int) -> None:
        """Turn the line a - b into the arrow a -> b."""
        self._nb[a].discard(b)
        self._nb[b].discard(a)
        self._add_arrow(a, b)

    def _disorient(self, a: int, b: int) -> None:
        """Turn the arrow a -> b into the line a - b."""
        self._pa[b].discard(a)
        self._ch[a].discard(b)
        self._add_line(a, b)

    # -- queries --

    def parents(self, v: int) -> set[int]:
        return set(self._pa[v])

    def children(self, v: int) -> set[int]:
        return set(self._ch[v])

    def neighbors(self, v: int) -> set[int]:
        """Vertices joined to v by a line."""
        return set(self._nb[v])

    def adjacent(self, v: int) -> set[int]:
        """Vertices joined to v by any edge."""
        return self._pa[v] | self._ch[v] | self._nb[v]

    def has_arrow(self, a: int, b: int) -> bool:
        return a in self._pa[b]

    def has_line(self, a: int, b: int) -> bool:
        return b in self._nb[a]

    def is_adjacent(self, a: int, b: int) -> bool:
        return b in self._nb[a] or a in self._pa[b] or b in self._pa[a]

    @property
    def vertices(self) -> range:
        return range(1, self.p + 1)

    @property
    def arrows(self) -> list[tuple[int, int]]:
        """Sorted (tail, head) pairs."""
        return sorted((a, b) for b in self.vertices for a in self._pa[b])

    @property
    def lines(self) -> list[tuple[int, int]]:
        """Sorted (a, b) pairs with a < b, one per line."""
        return sorted((a, b) for b in self.vertices for a in self._nb[b] if a < b)

    @property
    def num_arrows(self) -> int:
        return sum(len(s) for s in self._pa)

    @property
    def num_lines(self) -> int:
        return sum(len(s) for s in self._nb) // 2

    @property
    def num_edges(self) -> int:
        return self.num_arrows + self.num_lines

    def is_undirected(self) -> bool:
        return self.num_arrows == 0

    def is_directed(self) -> bool:
        return self.num_lines == 0

    def copy(self) -> "Graph":
        """Mutable plain-Graph copy; subclasses drop their validated type
        so the copy can be edited freely and rewrapped afterwards."""
        g = Graph.__new__(Graph)
        g.p = self.p
        g._pa = [set(s) for s in self._pa]
        g._ch = [set(s) for s in self._ch]
        g._nb = [set(s) for s in self._nb]
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.p == other.p
            and self._pa == other._pa
            and self._nb == other._nb
        )

    def __hash__(self) -> int:
        return hash(
            (
                self.p,
                frozenset((a, b) for b in self.vertices for a in self._pa[b]),
                frozenset(self.lines),
            )
        )

    def __repr__(self) -> str:
        return f"Graph(p={self.p}, arrows={self.arrows}, lines={self.lines})"

    # -- serialization --

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "arrows": [list(e) for e in self.arrows],
            "lines": [list(e) for e in self.lines],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Graph":
        """The graph of {"p": int, "arrows": [[a, b], ...], "lines": [...]}
        (both edge lists optional, other keys ignored); raises GraphError
        naming the field that is missing or malformed."""
        p = d.get("p") if isinstance(d, dict) else None
        if type(p) is not int:
            raise GraphError(f"graph JSON needs an integer field 'p', got {p!r}")
        edges = {}
        for name in ("arrows", "lines"):
            pairs = d.get(name, [])
            for e in pairs if isinstance(pairs, list) else [pairs]:
                if not (isinstance(e, list) and len(e) == 2
                        and all(type(x) is int for x in e)):
                    raise GraphError(
                        f"graph field {name!r} must list [a, b] vertex-id "
                        f"pairs; {e!r} is not one"
                    )
            edges[name] = [tuple(e) for e in pairs]
        return cls(p, **edges)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, s: str) -> "Graph":
        return cls.from_dict(json.loads(s))


class Dag(Graph):
    """Graph whose edges are all arrows and whose arrows are acyclic."""

    __slots__ = ()

    def __init__(
        self,
        p: int,
        arrows: Iterable[tuple[int, int]] = (),
        lines: Iterable[tuple[int, int]] = (),
    ):
        super().__init__(p, arrows=arrows, lines=lines)
        if self.num_lines:
            raise GraphError(f"DAG cannot contain lines: {self.lines}")
        topological_order(self)  # raises DirectedCycle


class ChainGraph(Graph):
    """Graph without partially directed cycles."""

    __slots__ = ()

    def __init__(
        self,
        p: int,
        arrows: Iterable[tuple[int, int]] = (),
        lines: Iterable[tuple[int, int]] = (),
    ):
        super().__init__(p, arrows=arrows, lines=lines)
        chain_components(self)  # raises DirectedCycle


def as_chain_graph(g: Graph) -> ChainGraph:
    """Validate g as a chain graph and rewrap it without re-normalizing."""
    chain_components(g)
    cg = g.copy()
    cg.__class__ = ChainGraph
    return cg  # type: ignore[return-value]


def skeleton(g: Graph) -> Graph:
    """The undirected graph with a line wherever g has any edge."""
    out = Graph(g.p)
    for b in g.vertices:
        for a in g._pa[b]:
            out._add_line(a, b)
        for a in g._nb[b]:
            if a < b:
                out._add_line(a, b)
    return out


def v_structures(g: Graph) -> set[tuple[int, int, int]]:
    """Canonical triples (a, b, c), a < c, with a -> b <- c and a, c
    non-adjacent."""
    out = set()
    for b in g.vertices:
        pa = sorted(g._pa[b])
        for a, c in combinations(pa, 2):
            if not g.is_adjacent(a, c):
                out.add((a, b, c))
    return out


def _reach(
    sources: Iterable[int], step: Callable[[int], Iterable[int]]
) -> Iterator[int]:
    """Every vertex reachable from `sources` by repeated `step`, sources
    included, each yielded once as soon as it is found; the search goes no
    further than the caller reads."""
    seen = set(sources)
    stack = list(seen)
    yield from stack
    while stack:
        for y in step(stack.pop()):
            if y not in seen:
                seen.add(y)
                stack.append(y)
                yield y


def _kahn(succ: Sequence[Iterable[int]], cycle: str) -> list[int]:
    """Kahn's algorithm on the nodes 1..len(succ)-1 with successor sets
    `succ` (index 0 unused), smallest ready node first; raises
    DirectedCycle with the message `cycle` if some node never gets ready."""
    indeg = [0] * len(succ)
    for js in succ:
        for j in js:
            indeg[j] += 1
    ready = [i for i in range(1, len(succ)) if indeg[i] == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for j in succ[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != len(succ) - 1:
        raise DirectedCycle(cycle)
    return order


def chain_components(g: Graph) -> list[frozenset[int]]:
    """Line-connected components in a topological order of the component
    quotient; raises DirectedCycle if g has a partially directed cycle."""
    comp_of = [0] * (g.p + 1)
    comps: list[frozenset[int]] = []
    for s in g.vertices:
        if not comp_of[s]:
            comps.append(frozenset(_reach([s], g._nb.__getitem__)))
            for a in comps[-1]:
                comp_of[a] = len(comps)
    succ: list[set[int]] = [set() for _ in range(len(comps) + 1)]
    for b in g.vertices:
        for a in g._pa[b]:
            if comp_of[a] == comp_of[b]:
                raise DirectedCycle(
                    f"arrow ({a}, {b}) inside a line-connected component"
                )
            succ[comp_of[a]].add(comp_of[b])
    return [comps[i - 1] for i in _kahn(succ, "cycle in the component quotient graph")]


def is_acyclic(g: Graph) -> bool:
    """True iff g has no partially directed cycle (chain-graph property)."""
    try:
        chain_components(g)
    except DirectedCycle:
        return False
    return True


def _dag_error(g: Graph) -> str | None:
    """Why g is not a DAG, in the words of scoring's errors (its first
    line, or that it has a directed cycle), or None if it is one."""
    if isinstance(g, Dag):
        return None  # its constructor checked it
    if g.num_lines:
        a, b = g.lines[0]
        return f"requires a fully directed graph, got the line {a} - {b}"
    if not is_acyclic(g):
        return "requires an acyclic graph, got a directed cycle"
    return None


def topological_order(g: Graph) -> VertexOrdering:
    """Topological order of a fully directed graph, smallest vertex first
    among the ready set; raises DirectedCycle."""
    if g.num_lines:
        raise NotUndirected("topological_order requires a fully directed graph")
    return tuple(_kahn(g._ch, "arrows contain a directed cycle"))


def _check_vertices(g: Graph, vertices: Iterable[int]) -> None:
    """Raise GraphError for the first of the vertices that is not a vertex
    id of g by _vertex_error's rule. The O(1) edge queries of Graph do not
    check, so functions taking vertex ids from a caller check them here."""
    p = g.p
    for v in vertices:
        # ints in 1..p pass at once; any other id meets the full rule
        if type(v) is not int or not 0 < v <= p:
            why = _vertex_error(v, p)
            if why:
                raise GraphError(f"vertex {why}")


def component_of(g: Graph, v: int) -> frozenset[int]:
    """The line-connected component containing v."""
    _check_vertices(g, (v,))
    return frozenset(_reach([v], g._nb.__getitem__))


def _check_restriction(g: Graph, vertices: Iterable[int] | None) -> set[int]:
    vs = set(g.vertices) if vertices is None else set(vertices)
    _check_vertices(g, vs)
    for v in vs:
        for w in g._pa[v]:
            if w in vs:
                raise NotUndirected(
                    f"arrow ({w}, {v}) inside the restriction; lines required"
                )
    return vs


def lexbfs(
    start_order: Sequence[int],
    g: Graph,
    vertices: Iterable[int] | None = None,
) -> VertexOrdering:
    """Lexicographic breadth-first search over the lines of g, restricted to
    `vertices` (default: all).

    Each vertex carries a label: the negated emission positions of its
    emitted neighbours, in emission order. The vertex with the largest label
    (lists compared lexicographically, so an earlier emitted neighbour
    outweighs any later ones) goes next. `start_order` seeds the ties: its
    vertices come first, remaining vertices follow in ascending id, so the
    first emitted vertex is start_order[0] and ties are broken by seed
    position throughout.
    """
    vs = _check_restriction(g, vertices)
    start = list(start_order)
    _check_vertices(g, start)
    if len(set(start)) != len(start):
        raise GraphError("start_order contains duplicates")
    for v in start:
        if v not in vs:
            raise GraphError(f"start vertex {v} not in the searched vertex set")
    remaining = start + sorted(vs - set(start))
    label: dict[int, list[int]] = {v: [] for v in remaining}
    out: list[int] = []
    while remaining:
        # max keeps the first of equal labels, i.e. the earliest seed
        a = max(remaining, key=label.__getitem__)
        remaining.remove(a)
        out.append(a)
        for b in g._nb[a]:
            if b in label:
                label[b].append(-len(out))
    return tuple(out)


def _orient_component(h: Graph, comp: Iterable[int], order: Sequence[int]) -> None:
    """Orient, in place, every line of h inside the chain component comp
    from its earlier to its later endpoint in `order`, which lists comp (for
    a lexBFS order of a chordal comp the orientation has no cycle and no
    v-structure)."""
    pos = {x: i for i, x in enumerate(order)}
    for a in comp:
        for b in list(h._nb[a]):
            if pos[a] < pos[b]:
                h._orient(a, b)


def is_perfect_elimination(ordering: Sequence[int], g: Graph) -> bool:
    """True iff, for every vertex, its neighbours occurring earlier in
    `ordering` are pairwise adjacent (so orienting every line towards the
    later endpoint yields clique in-neighbourhoods, hence no v-structures).

    `ordering` must enumerate exactly the vertices it is checked on; edges
    of g between vertices outside `ordering` are ignored.
    """
    _check_vertices(g, ordering)
    pos = {v: i for i, v in enumerate(ordering)}
    if len(pos) != len(ordering):
        raise GraphError("ordering contains duplicates")
    for v in ordering:
        earlier = [w for w in g._nb[v] if pos.get(w, len(pos)) < pos[v]]
        for a, b in combinations(earlier, 2):
            if not g.has_line(a, b):
                return False
    return True


def is_chordal(g: Graph, vertices: Iterable[int] | None = None) -> bool:
    """True iff the undirected graph (restriction) has no chordless cycle of
    length >= 4; raises NotUndirected if the restriction contains arrows."""
    vs = _check_restriction(g, vertices)
    order = lexbfs(sorted(vs)[:1], g, vs)
    return is_perfect_elimination(order, g)


def orient_by(ordering: Sequence[int], g: Graph) -> Dag:
    """Orient every line of the undirected graph g from the earlier to the
    later endpoint of `ordering` (a permutation of 1..p)."""
    if not g.is_undirected():
        raise NotUndirected("orient_by requires an undirected graph")
    _check_vertices(g, ordering)
    if sorted(ordering) != list(g.vertices):
        raise GraphError("ordering must be a permutation of 1..p")
    h = g.copy()
    _orient_component(h, g.vertices, ordering)
    return Dag(g.p, arrows=h.arrows)


def has_path(
    g: Graph,
    frm: int,
    to: int,
    forbidden: Iterable[int] = (),
) -> bool:
    """True iff a path of >= 1 edges leads from `frm` to `to`, following
    arrows forward and lines either way, visiting no forbidden vertex."""
    _check_vertices(g, (frm, to))
    blocked = set(forbidden)
    if frm in blocked or to in blocked:
        return False

    def step(a: int) -> set[int]:
        return (g._ch[a] | g._nb[a]) - blocked

    return to in _reach(step(frm), step)


def cliques_in_neighborhood(
    g: Graph,
    within: Iterable[int],
) -> list[frozenset[int]]:
    """All subsets of `within` (including the empty set) that are cliques of
    the line subgraph of g, each once, in increasing size then lexicographic
    order. A member that is not a vertex id of g raises GraphError."""
    base = list(within)
    _check_vertices(g, base)
    base = sorted(set(base))
    levels: list[list[tuple[int, ...]]] = [[()]]
    while levels[-1]:
        prev = levels[-1]
        nxt = []
        for c in prev:
            last = c[-1] if c else 0
            for w in base:
                if w <= last:
                    continue
                if all(g.has_line(u, w) for u in c):
                    nxt.append(c + (w,))
        levels.append(nxt)
    return [frozenset(c) for level in levels[:-1] for c in level]
