"""Intervention targets, interventional Markov equivalence and essential
graphs.

A target is the set of intervened vertices; the empty target is purely
observational data. A family of targets is conservative if every vertex is
missing from at least one target; only then does the graph union of an
equivalence class characterize the class (the essential graph).

Two DAGs are equivalent given a family iff they share skeleton and
v-structures and, for every target I, the graphs obtained by cutting all
arrows into I share skeletons. The essential graph of a DAG keeps an arrow
iff the arrow is "strongly protected": either some target separates its
endpoints, or reversing it would change v-structures or create a cycle.
Arrows that are not strongly protected are relaxed to lines until a fixpoint
is reached; the fixpoint is the essential graph and does not depend on the
sweep order.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType
from typing import Iterator

from .graphs import (
    Dag,
    DirectedCycle,
    Graph,
    GraphError,
    NotAnArrow,
    _check_limit,
    _check_vertices,
    _dag_error,
    _is_integer,
    _orient_component,
    _reach,
    as_chain_graph,
    chain_components,
    is_chordal,
    lexbfs,
    skeleton,
    v_structures,
)

Target = frozenset  # of vertex ids

OBSERVATIONAL: Target = frozenset()


class NonConservativeFamily(GraphError):
    """The target family leaves some vertex covered by every target."""


class TooManyRepresentatives(GraphError):
    """Equivalence class larger than the requested enumeration limit."""

    def __init__(self, limit: int):
        super().__init__(f"equivalence class exceeds limit of {limit} DAGs")
        self.limit = limit

    def __reduce__(self):
        # rebuilt from the limit: the default passes the message as the limit
        return TooManyRepresentatives, (self.limit,)


class TargetFamily:
    """Ordered multiset of intervention targets.

    Order and duplicates are preserved (they matter for round-robin sample
    allocation); equivalence and protection checks use the deduplicated
    member list `unique`. The family is immutable, so `unique` and the
    membership index are built once, here.
    """

    __slots__ = ("members", "unique", "_index")

    def __init__(self, targets: Iterable[Iterable[int]] = ()):
        members = []
        for t in targets:
            if isinstance(t, (str, bytes)) or not isinstance(t, Iterable):
                raise GraphError(f"target {t!r} is not a collection of vertex ids")
            t = list(t)
            for v in t:
                if not _is_integer(v):
                    raise GraphError(f"target {t!r}: {v!r} is not an integer vertex id")
                if v < 1:
                    raise GraphError(f"target vertex {v} is not a positive id")
            members.append(frozenset(int(v) for v in t))
        self.members: tuple[Target, ...] = tuple(members)
        self.unique: tuple[Target, ...] = tuple(dict.fromkeys(members))
        self._index = MappingProxyType({
            v: frozenset(i for i, t in enumerate(self.unique) if v in t)
            for v in set().union(*self.unique)
        })

    def __iter__(self) -> Iterator[Target]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i: int) -> Target:
        return self.members[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TargetFamily):
            return NotImplemented
        return self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __repr__(self) -> str:
        return f"TargetFamily({[sorted(t) for t in self.members]})"

    def __reduce__(self):
        # rebuilt from the members: the read-only index does not pickle
        return TargetFamily, (self.members,)

    def conservative(self, p: int) -> bool:
        """True iff every vertex 1..p is absent from at least one member."""
        if not self.members:
            return False
        return all(any(v not in t for t in self.members) for v in range(1, p + 1))

    def check_vertices(self, p: int) -> None:
        for t in self.members:
            for v in t:
                if v > p:
                    raise GraphError(f"target vertex {v} outside 1..{p}")

    def membership_index(self) -> Mapping[int, frozenset[int]]:
        """Map vertex -> indices of unique members containing it; two
        vertices are separated by some target iff their index sets differ.
        A read-only view of the map built once by __init__."""
        return self._index

    # -- serialization: JSON array of arrays, e.g. [[], [4], [3, 5]] --

    def to_lists(self) -> list[list[int]]:
        return [sorted(t) for t in self.members]

    def to_json(self) -> str:
        return json.dumps(self.to_lists())

    @classmethod
    def from_json(cls, s: str) -> "TargetFamily":
        return cls(json.loads(s))

    @classmethod
    def parse(cls, text: str) -> "TargetFamily":
        """Parse the inline CLI form "[]; [4]; [3,5]" or the JSON form
        [[], [4], [3, 5]]; any other text raises GraphError."""
        text = text.strip()
        if not text:
            raise GraphError("empty target family text")
        for form in (text, "[" + text.replace(";", ",") + "]"):
            try:
                data = json.loads(form)
                if isinstance(data, list) and data:
                    return cls(data)
            except (json.JSONDecodeError, GraphError):
                continue
        raise GraphError(f"target family {text!r} is not a list of vertex-id lists")


@dataclass(frozen=True)
class EssentialGraph:
    """A chain graph together with the target family it is essential for."""

    graph: Graph
    targets: TargetFamily

    @property
    def p(self) -> int:
        return self.graph.p


def _require_conservative(fam: TargetFamily, p: int) -> None:
    fam.check_vertices(p)
    if not fam.conservative(p):
        raise NonConservativeFamily(
            "some vertex is contained in every target (or the family is "
            "empty); edges at such a vertex carry no information"
        )


def intervention_graph(g: Graph, target: Iterable[int]) -> Graph:
    """Cut every arrow pointing into the target set."""
    t = frozenset(target)
    _check_vertices(g, t)
    out = g.copy()
    for b in t:
        for a in list(out._pa[b]):
            out._drop_edge(a, b)
    return out


def markov_equivalent(d1: Dag, d2: Dag, fam: TargetFamily) -> bool:
    """Whether d1 and d2 are indistinguishable from data generated under
    every target of a conservative family. A d1 or d2 that is not a DAG
    raises GraphError naming its line or directed cycle."""
    for name, d in (("d1", d1), ("d2", d2)):
        why = _dag_error(d)
        if why:
            raise GraphError(f"markov_equivalent {why} in {name}")
    if d1.p != d2.p:
        raise GraphError(f"vertex counts differ: {d1.p} != {d2.p}")
    _require_conservative(fam, d1.p)
    if skeleton(d1) != skeleton(d2):
        return False
    if v_structures(d1) != v_structures(d2):
        return False
    for t in fam.unique:
        if skeleton(intervention_graph(d1, t)) != skeleton(intervention_graph(d2, t)):
            return False
    return True


def _pair_separated(memb: Mapping[int, frozenset[int]], a: int, b: int) -> bool:
    # some target contains exactly one of a, b
    return memb.get(a, frozenset()) != memb.get(b, frozenset())


def _strongly_protected(
    g: Graph, a: int, b: int, memb: Mapping[int, frozenset[int]]
) -> bool:
    if _pair_separated(memb, a, b):
        return True
    pa_a, pa_b = g._pa[a], g._pa[b]
    ad_a, ad_b = g.adjacent(a), g.adjacent(b)
    # c -> a -> b, c and b non-adjacent: reversal would create a v-structure
    if any(c not in ad_b for c in pa_a):
        return True
    # a -> b <- c, a and c non-adjacent: reversal would destroy a v-structure
    if any(c != a and c not in ad_a for c in pa_b):
        return True
    # a -> c -> b alongside a -> b: reversal would create a cycle
    if pa_b & g._ch[a]:
        return True
    # a - c1, a - c2, c1 -> b, c2 -> b with c1, c2 non-adjacent
    flanks = sorted(g._nb[a] & pa_b)
    return any(
        not g.is_adjacent(c1, c2) for c1, c2 in combinations(flanks, 2)
    )


def strongly_protected(g: Graph, a: int, b: int, fam: TargetFamily) -> bool:
    """Whether the arrow a -> b is strongly protected in g given fam, a
    conservative family on g's vertices (NonConservativeFamily or
    GraphError otherwise)."""
    _check_vertices(g, (a, b))
    _require_conservative(fam, g.p)
    if not g.has_arrow(a, b):
        raise NotAnArrow(f"({a}, {b}) is not an arrow of the graph")
    return _strongly_protected(g, a, b, fam.membership_index())


def replace_unprotected(g: Graph, fam: TargetFamily) -> Graph:
    """Relax arrows that are not strongly protected into lines until a
    fixpoint is reached. Each sweep scans arrows in sorted order and relaxes
    every arrow found unprotected in the current graph; the fixpoint does
    not depend on this order. fam must be a conservative family on g's
    vertices (NonConservativeFamily or GraphError otherwise)."""
    _require_conservative(fam, g.p)
    memb = fam.membership_index()
    h = g.copy()
    while True:
        drop = [(a, b) for a, b in h.arrows if not _strongly_protected(h, a, b, memb)]
        if not drop:
            return h
        for a, b in drop:
            h._disorient(a, b)


def essential_graph(d: Dag, fam: TargetFamily) -> EssentialGraph:
    """The graph union of the equivalence class of d: arrows shared by every
    member stay arrows, disputed arrows become lines. A d that is not a DAG
    raises GraphError naming its line or directed cycle."""
    why = _dag_error(d)
    if why:
        raise GraphError(f"essential_graph {why}")
    return EssentialGraph(as_chain_graph(replace_unprotected(d, fam)), fam)


@dataclass(frozen=True)
class EssentialityReport:
    """Outcome of the essential-graph validity check.

    `violated` names the first failed condition, one of "chain-graph",
    "chordal-components", "arrow-line-subgraph", "separated-line",
    "unprotected-arrow"; `witness` describes the offending substructure.
    """

    ok: bool
    violated: str | None = None
    witness: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_essential_graph(g: Graph, fam: TargetFamily) -> EssentialityReport:
    """Check the five structural conditions characterizing essential graphs:
    chain graph, chordal chain components, no induced a -> b - c, no line
    whose endpoints are separated by a target, all arrows strongly
    protected."""
    _require_conservative(fam, g.p)
    try:
        comps = chain_components(g)
    except DirectedCycle:
        return EssentialityReport(False, "chain-graph", "partially directed cycle")
    for comp in comps:
        if not is_chordal(g, comp):
            return EssentialityReport(
                False, "chordal-components",
                f"component {sorted(comp)} is not chordal",
            )
    for a, b in g.arrows:
        for c in g._nb[b]:
            if not g.is_adjacent(a, c):
                return EssentialityReport(
                    False, "arrow-line-subgraph",
                    f"induced {a} -> {b} - {c}",
                )
    memb = fam.membership_index()
    for a, b in g.lines:
        if _pair_separated(memb, a, b):
            return EssentialityReport(
                False, "separated-line",
                f"line {a} - {b} with a target containing exactly one endpoint",
            )
    for a, b in g.arrows:
        if not _strongly_protected(g, a, b, memb):
            return EssentialityReport(
                False, "unprotected-arrow", f"arrow {a} -> {b}"
            )
    return EssentialityReport(True)


def _as_graph(e: EssentialGraph | Graph) -> Graph:
    return e.graph if isinstance(e, EssentialGraph) else e


def representative(e: EssentialGraph | Graph) -> Dag:
    """One member of the equivalence class: orient every chain component by
    a lexicographic BFS seeded with ascending vertex ids."""
    g = _as_graph(e)
    h = g.copy()
    for comp in chain_components(g):
        _orient_component(h, comp, lexbfs(sorted(comp), g, comp))
    return Dag(g.p, arrows=h.arrows)


def _component_orientations(
    g: Graph, comp: frozenset[int], limit: int
) -> list[tuple[tuple[int, int], ...]]:
    """All acyclic, v-structure-free orientations of the lines of one chain
    component (each is induced by some perfect elimination ordering)."""
    edges = sorted((a, b) for a in comp for b in g._nb[a] if a < b)
    out: list[tuple[tuple[int, int], ...]] = []
    ch: dict[int, set[int]] = {v: set() for v in comp}
    pa: dict[int, set[int]] = {v: set() for v in comp}

    def assign(i: int) -> None:
        if i == len(edges):
            out.append(tuple((x, y) for x in sorted(comp) for y in sorted(ch[x])))
            if len(out) > limit:
                raise TooManyRepresentatives(limit)
            return
        a, b = edges[i]
        for tail, head in ((a, b), (b, a)):
            # no directed cycle, and no second non-adjacent parent
            if tail in _reach([head], ch.__getitem__):
                continue
            if any(not g.is_adjacent(z, tail) for z in pa[head]):
                continue
            ch[tail].add(head)
            pa[head].add(tail)
            assign(i + 1)
            ch[tail].remove(head)
            pa[head].remove(tail)

    assign(0)
    return out


def enumerate_representatives(
    e: EssentialGraph | Graph, limit: int = 10_000
) -> list[Dag]:
    """Every member of the equivalence class, as DAGs; raises
    TooManyRepresentatives once more than `limit` members are seen. A
    limit that is not an integer of at least 1 raises GraphError."""
    _check_limit("limit", limit, 1)
    g = _as_graph(e)
    base = list(g.arrows)
    per_comp: list[list[tuple[tuple[int, int], ...]]] = []
    total = 1
    for comp in chain_components(g):
        if len(comp) == 1:
            continue
        options = _component_orientations(g, comp, limit)
        total *= len(options)
        if total > limit:
            raise TooManyRepresentatives(limit)
        per_comp.append(options)
    dags = [tuple(base)]
    for options in per_comp:
        dags = [d + o for d in dags for o in options]
    return [Dag(g.p, arrows=d) for d in dags]


def count_non_essential(e: EssentialGraph | Graph) -> int:
    """Number of arrows of the underlying DAG whose orientation the family
    cannot identify, i.e. the essential graph's line count."""
    return _as_graph(e).num_lines
