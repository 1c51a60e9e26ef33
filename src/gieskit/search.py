"""Greedy equivalence-class search over interventional essential graphs.

The search walks the space of equivalence classes directly. A move is a
triple (u, v, C): C is a clique of line-neighbours of v describing how a
representative DAG orients the lines at v before the single-edge change is
made. Insert adds the arrow u -> v between non-adjacent vertices, delete
removes the edge between u and v, and turn reverses an existing arrow
v -> u (or orients a line) to u -> v. Each move kind has purely structural
validity conditions, a score delta expressed through at most two local
scores, and an application step that orients the affected chain components,
performs the edge change, and relaxes unprotected arrows to reach the new
class's essential graph.

The driver repeats three phases to a fixpoint each: forward (inserts),
backward (deletes) and turning; the outer loop continues while backward or
turning still improve. Candidates are ranked by score delta; exact ties fall
back to the lexicographic key (kind, v, u, sorted C), so runs are
deterministic. Only strictly positive deltas are accepted. The same driver
runs the DAG-space search of `baselines.gds`: a DAG is a graph without
lines, on which every C is empty and the candidates are exactly the
single-arrow insertions, deletions and reversals.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from enum import IntEnum
from math import fsum
from typing import Callable, Iterable, Iterator

from .graphs import (
    Dag,
    Graph,
    GraphError,
    NotALine,
    NotAnArrow,
    NotAnEdge,
    VerticesAdjacent,
    as_chain_graph,
    cliques_in_neighborhood,
    component_of,
    has_path,
    lexbfs,
)
from .interventions import (
    EssentialGraph,
    TargetFamily,
    _require_conservative,
    is_essential_graph,
    replace_unprotected,
)
from .scoring import (
    InterventionalDataset,
    ScoreCache,
    ScoringError,
    local_score,
    total_score,
)


class InvalidMove(GraphError):
    """The (u, v, C) triple fails the validity conditions of its move kind."""


class MoveKind(IntEnum):
    """Tie-break order of move kinds."""

    INSERT = 0
    DELETE = 1
    TURN_LINE = 2
    TURN_ARROW = 3


@dataclass(frozen=True)
class MoveCandidate:
    kind: MoveKind
    u: int
    v: int
    C: frozenset[int]
    delta: float

    def key(self) -> tuple:
        """Deterministic tie-break key (kind, v, u, sorted C)."""
        return (int(self.kind), self.v, self.u, tuple(sorted(self.C)))


@dataclass
class TraceEntry:
    phase: str
    kind: str
    u: int
    v: int
    C: list[int]
    delta: float
    score: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(", ", ": "))


@dataclass
class SearchTrace:
    entries: list[TraceEntry] = field(default_factory=list)

    def to_jsonl(self) -> str:
        return "\n".join(e.to_json() for e in self.entries)


@dataclass
class GiesOptions:
    """Knobs of the greedy search.

    variant: "gies" (full loop) or "gies-nt" (one forward fixpoint, one
    backward fixpoint, no turning). max_degree bounds the number of
    neighbours a vertex may reach through inserts, guarding the clique
    enumeration. validate_steps re-checks the graph after every applied
    move: the essential graph conditions for gies, acyclicity for gds.
    """

    variant: str = "gies"
    max_degree: int | None = None
    trace: bool = False
    penalty: str = "total"
    validate_steps: bool = False


@dataclass
class SearchResult:
    graph: EssentialGraph
    score: float
    steps: int
    trace: SearchTrace | None


def _clique_of_lines(g: Graph, C: frozenset[int]) -> bool:
    return all(g.has_line(a, b) for a in C for b in C if a < b)


def _neighborhood_separated(
    g: Graph,
    domain: frozenset[int],
    side_a: frozenset[int],
    side_b: frozenset[int],
    separator: frozenset[int],
) -> bool:
    """Whether every path inside g[domain] from side_a to side_b passes
    through the separator (empty sides are trivially separated)."""
    if not side_a or not side_b:
        return True
    allowed = domain - separator
    seen = set(side_a)
    stack = list(side_a)
    while stack:
        x = stack.pop()
        if x in side_b:
            return False
        for y in g._nb[x]:
            if y in allowed and y not in seen:
                seen.add(y)
                stack.append(y)
    return False if seen & side_b else True


# -- validity ---------------------------------------------------------------


def valid_insert(g: Graph, u: int, v: int, C: Iterable[int]) -> bool:
    """Insert of u -> v with representative orientation C at v: C must be a
    clique of line-neighbours of v containing N := nb(v) & ad(u), and every
    partially directed path from v to u must pass through C."""
    if u == v:
        raise GraphError("u and v must differ")
    if g.is_adjacent(u, v):
        raise VerticesAdjacent(f"{u} and {v} are already adjacent")
    C = frozenset(C)
    if not C <= g._nb[v] or not _clique_of_lines(g, C):
        return False
    if not (g._nb[v] & g.adjacent(u)) <= C:
        return False
    return not has_path(g, v, u, forbidden=C)


def valid_delete(g: Graph, u: int, v: int, C: Iterable[int]) -> bool:
    """Delete of the edge u -> v or u - v: C must be a clique of
    line-neighbours of v inside N := nb(v) & ad(u)."""
    if not (g.has_arrow(u, v) or g.has_line(u, v)):
        raise NotAnEdge(f"no arrow {u} -> {v} and no line {u} - {v}")
    C = frozenset(C)
    N = g._nb[v] & g.adjacent(u)
    return C <= N and _clique_of_lines(g, C)


def valid_turn_line(g: Graph, u: int, v: int, C: Iterable[int]) -> bool:
    """Turn of the line u - v into u -> v: with N := nb(v) & ad(u), C must
    be a clique of line-neighbours of v avoiding u, C \\ N must be nonempty
    (otherwise the class does not change), and C & N must separate C \\ N
    from N \\ C inside g[nb(v)]."""
    if not g.has_line(u, v):
        raise NotALine(f"no line {u} - {v}")
    C = frozenset(C)
    nbv = frozenset(g._nb[v])
    if u in C or not C <= nbv or not _clique_of_lines(g, C):
        return False
    N = nbv & g.adjacent(u)
    if not C - N:
        return False
    return _neighborhood_separated(g, nbv, C - N, N - C, C & N)


def valid_turn_arrow(g: Graph, u: int, v: int, C: Iterable[int]) -> bool:
    """Turn of the arrow v -> u into u -> v: C must be a clique of
    line-neighbours of v containing N := nb(v) & ad(u), and every partially
    directed path from v to u other than the arrow itself must pass through
    C or nb(u)."""
    if not g.has_arrow(v, u):
        raise NotAnArrow(f"no arrow {v} -> {u}")
    C = frozenset(C)
    if not C <= g._nb[v] or not _clique_of_lines(g, C):
        return False
    if not (g._nb[v] & g.adjacent(u)) <= C:
        return False
    cut = g.copy()
    cut._pa[u].discard(v)
    cut._ch[v].discard(u)
    return not has_path(cut, v, u, forbidden=C | g._nb[u])


# -- score deltas -----------------------------------------------------------


def delta_insert(
    g: Graph,
    u: int,
    v: int,
    C: Iterable[int],
    data: InterventionalDataset,
    cache: ScoreCache | None = None,
) -> float:
    C = frozenset(C)
    base = frozenset(g._pa[v]) | C
    return local_score(v, base | {u}, data, cache=cache) - local_score(
        v, base, data, cache=cache
    )


def delta_delete(
    g: Graph,
    u: int,
    v: int,
    C: Iterable[int],
    data: InterventionalDataset,
    cache: ScoreCache | None = None,
) -> float:
    C = frozenset(C)
    base = frozenset(g._pa[v]) | C
    return local_score(v, base - {u}, data, cache=cache) - local_score(
        v, base | {u}, data, cache=cache
    )


def delta_turn_line(
    g: Graph,
    u: int,
    v: int,
    C: Iterable[int],
    data: InterventionalDataset,
    cache: ScoreCache | None = None,
) -> float:
    C = frozenset(C)
    CN = C & (g._nb[v] & g.adjacent(u))
    base_v = frozenset(g._pa[v]) | C
    base_u = frozenset(g._pa[u]) | CN
    # fsum keeps the sign exact: the reverse move's delta is then exactly the
    # negation, so score-neutral turns cannot cycle on rounding noise
    return fsum((
        local_score(v, base_v | {u}, data, cache=cache),
        local_score(u, base_u, data, cache=cache),
        -local_score(v, base_v, data, cache=cache),
        -local_score(u, base_u | {v}, data, cache=cache),
    ))


def delta_turn_arrow(
    g: Graph,
    u: int,
    v: int,
    C: Iterable[int],
    data: InterventionalDataset,
    cache: ScoreCache | None = None,
) -> float:
    C = frozenset(C)
    base_v = frozenset(g._pa[v]) | C
    pa_u = frozenset(g._pa[u])
    return fsum((
        local_score(v, base_v | {u}, data, cache=cache),
        local_score(u, pa_u - {v}, data, cache=cache),
        -local_score(v, base_v, data, cache=cache),
        -local_score(u, pa_u, data, cache=cache),
    ))


# -- application ------------------------------------------------------------


def _orient_component(h: Graph, comp: frozenset[int], order: tuple[int, ...]) -> None:
    pos = {x: i for i, x in enumerate(order)}
    for a in comp:
        for b in list(h._nb[a]):
            if a < b:
                if pos[a] < pos[b]:
                    h._orient(a, b)
                else:
                    h._orient(b, a)


def _in_component_parents(h: Graph, comp: frozenset[int], x: int) -> frozenset[int]:
    return frozenset(h._pa[x] & comp)


def apply_insert(
    g: Graph, u: int, v: int, C: Iterable[int], fam: TargetFamily
) -> Graph:
    """Essential graph of the class obtained by adding u -> v to a
    representative orienting C into v."""
    C = frozenset(C)
    if not valid_insert(g, u, v, C):
        raise InvalidMove(f"insert ({u}, {v}, {sorted(C)}) is not valid")
    h = g.copy()
    comp = component_of(g, v)
    _orient_component(h, comp, lexbfs(sorted(C) + [v], g, comp))
    h._add_arrow(u, v)
    return replace_unprotected(h, fam)


def apply_delete(
    g: Graph, u: int, v: int, C: Iterable[int], fam: TargetFamily
) -> Graph:
    """Essential graph of the class obtained by removing the edge between u
    and v from a representative orienting C (and u, if u - v is a line)
    into v."""
    C = frozenset(C)
    if not valid_delete(g, u, v, C):
        raise InvalidMove(f"delete ({u}, {v}, {sorted(C)}) is not valid")
    h = g.copy()
    comp = component_of(g, v)
    if u in g._nb[v]:
        start = sorted(C) + [u, v]
    else:
        start = sorted(C) + [v]
    _orient_component(h, comp, lexbfs(start, g, comp))
    h._drop_edge(u, v)
    return replace_unprotected(h, fam)


def apply_turn_line(
    g: Graph, u: int, v: int, C: Iterable[int], fam: TargetFamily
) -> Graph:
    """Essential graph of the class obtained by orienting the line u - v as
    u -> v in a representative orienting C into v.

    The representative orients v's chain component by a lexicographic BFS
    seeded (C, v, u, ...); for a valid move that seed provably realizes the
    in-neighbourhoods C at v and (C & N) | {v} at u, which is verified.
    """
    C = frozenset(C)
    if not valid_turn_line(g, u, v, C):
        raise InvalidMove(f"turn-line ({u}, {v}, {sorted(C)}) is not valid")
    h = g.copy()
    comp = component_of(g, v)
    want_u = (C & (g._nb[v] & g.adjacent(u))) | {v}
    _orient_component(h, comp, lexbfs(sorted(C) + [v, u], g, comp))
    if (
        _in_component_parents(h, comp, v) != C
        or _in_component_parents(h, comp, u) != want_u
    ):
        raise InvalidMove(
            f"no representative realizes turn-line ({u}, {v}, {sorted(C)})"
        )
    h._drop_edge(u, v)
    h._add_arrow(u, v)
    return replace_unprotected(h, fam)


def apply_turn_arrow(
    g: Graph, u: int, v: int, C: Iterable[int], fam: TargetFamily
) -> Graph:
    """Essential graph of the class obtained by reversing the arrow v -> u
    in a representative orienting C into v and nothing into u."""
    C = frozenset(C)
    if not valid_turn_arrow(g, u, v, C):
        raise InvalidMove(f"turn-arrow ({u}, {v}, {sorted(C)}) is not valid")
    h = g.copy()
    comp_u = component_of(g, u)
    _orient_component(h, comp_u, lexbfs([u], g, comp_u))
    comp_v = component_of(g, v)
    _orient_component(h, comp_v, lexbfs(sorted(C) + [v], g, comp_v))
    h._drop_edge(v, u)
    h._add_arrow(u, v)
    return replace_unprotected(h, fam)


_APPLY: dict[MoveKind, Callable[..., Graph]] = {
    MoveKind.INSERT: apply_insert,
    MoveKind.DELETE: apply_delete,
    MoveKind.TURN_LINE: apply_turn_line,
    MoveKind.TURN_ARROW: apply_turn_arrow,
}


def apply_move(g: Graph, move: MoveCandidate, fam: TargetFamily) -> Graph:
    return _APPLY[move.kind](g, move.u, move.v, move.C, fam)


# -- enumeration ------------------------------------------------------------


def _forward_candidates(
    g: Graph,
    data: InterventionalDataset,
    cache: ScoreCache | None,
    max_degree: int | None,
) -> Iterator[tuple[float, MoveCandidate]]:
    for v in g.vertices:
        ad_v = g.adjacent(v)
        if max_degree is not None and len(ad_v) >= max_degree:
            continue
        nb_v = g._nb[v]
        pa_v = frozenset(g._pa[v])
        cliques = cliques_in_neighborhood(g, nb_v)
        for u in g.vertices:
            if u == v or u in ad_v:
                continue
            if max_degree is not None and len(g.adjacent(u)) >= max_degree:
                continue
            N = nb_v & g.adjacent(u)
            for C in cliques:
                if not N <= C:
                    continue
                try:
                    base = local_score(v, pa_v | C, data, cache=cache)
                    grown = local_score(v, pa_v | C | {u}, data, cache=cache)
                except ScoringError:
                    continue
                yield grown - base, MoveCandidate(
                    MoveKind.INSERT, u, v, C, grown - base
                )


def _backward_candidates(
    g: Graph,
    data: InterventionalDataset,
    cache: ScoreCache | None,
) -> Iterator[tuple[float, MoveCandidate]]:
    for v in g.vertices:
        pa_v = frozenset(g._pa[v])
        for u in sorted(g._pa[v] | g._nb[v]):
            N = g._nb[v] & g.adjacent(u)
            for C in cliques_in_neighborhood(g, N):
                try:
                    base = local_score(v, pa_v | C | {u}, data, cache=cache)
                    shrunk = local_score(v, (pa_v | C) - {u}, data, cache=cache)
                except ScoringError:
                    continue
                yield shrunk - base, MoveCandidate(
                    MoveKind.DELETE, u, v, C, shrunk - base
                )


def _turning_candidates(
    g: Graph,
    data: InterventionalDataset,
    cache: ScoreCache | None,
) -> Iterator[tuple[float, MoveCandidate]]:
    for v in g.vertices:
        nb_v = frozenset(g._nb[v])
        pa_v = frozenset(g._pa[v])
        cliques = cliques_in_neighborhood(g, nb_v)
        for u in sorted(nb_v):
            N = nb_v & g.adjacent(u)
            for C in cliques:
                if u in C or not C - N:
                    continue
                if not _neighborhood_separated(g, nb_v, C - N, N - C, C & N):
                    continue
                try:
                    delta = delta_turn_line(g, u, v, C, data, cache=cache)
                except ScoringError:
                    continue
                yield delta, MoveCandidate(MoveKind.TURN_LINE, u, v, C, delta)
        for u in sorted(g._ch[v]):
            N = nb_v & g.adjacent(u)
            for C in cliques:
                if not N <= C:
                    continue
                try:
                    delta = delta_turn_arrow(g, u, v, C, data, cache=cache)
                except ScoringError:
                    continue
                yield delta, MoveCandidate(MoveKind.TURN_ARROW, u, v, C, delta)


# enumeration checks every condition except the path conditions of insert
# and turn-arrow, which are deferred to the ranked walk
_LAZY_VALID: dict[MoveKind, Callable[..., bool]] = {
    MoveKind.INSERT: valid_insert,
    MoveKind.TURN_ARROW: valid_turn_arrow,
}


def _lazy_valid(g: Graph, move: MoveCandidate) -> bool:
    check = _LAZY_VALID.get(move.kind)
    return check is None or check(g, move.u, move.v, move.C)


def best_move(
    g: Graph,
    phase: str,
    data: InterventionalDataset,
    cache: ScoreCache | None = None,
    max_degree: int | None = None,
) -> MoveCandidate | None:
    """Best strictly improving valid move of one phase, or None.

    Candidates are sorted by delta (descending) with the lexicographic key
    as tie-break; the expensive path conditions are only checked on this
    sorted walk, best first.
    """
    if phase == "forward":
        it = _forward_candidates(g, data, cache, max_degree)
    elif phase == "backward":
        it = _backward_candidates(g, data, cache)
    elif phase == "turning":
        it = _turning_candidates(g, data, cache)
    else:
        raise GraphError(f"unknown phase {phase!r}")
    ranked = sorted(
        (c for _, c in it), key=lambda c: (-c.delta, c.key())
    )
    for cand in ranked:
        if cand.delta <= 0.0:
            return None
        if _lazy_valid(g, cand):
            return cand
    return None


# -- driver -----------------------------------------------------------------


def run_phases(
    data: InterventionalDataset,
    fam: TargetFamily,
    opts: GiesOptions,
    apply: Callable[[Graph, MoveCandidate], Graph],
    check: Callable[[Graph], object],
) -> tuple[Graph, float, int, SearchTrace | None]:
    """The greedy phase loop from the empty graph, shared by gies and gds.

    `apply` returns the graph after a move (it may edit its argument in
    place); `check` is the validate_steps test, falsy on a broken graph.
    Returns (graph, score, steps, trace).
    """
    if opts.variant not in ("gies", "gies-nt"):
        raise GraphError(f"unknown variant {opts.variant!r}")
    _require_conservative(fam, data.p)
    data.check_family(fam)
    cache = ScoreCache(data, penalty=opts.penalty)
    g: Graph = Graph(data.p)
    score = total_score(Dag(data.p), data, cache=cache)
    trace = SearchTrace() if opts.trace else None
    steps = 0

    def run_phase(phase: str) -> bool:
        nonlocal g, score, steps
        changed = False
        while True:
            move = best_move(g, phase, data, cache=cache, max_degree=opts.max_degree)
            if move is None:
                return changed
            g = apply(g, move)
            score += move.delta
            steps += 1
            changed = True
            if trace is not None:
                trace.entries.append(
                    TraceEntry(
                        phase=phase,
                        kind=move.kind.name.lower(),
                        u=move.u,
                        v=move.v,
                        C=sorted(move.C),
                        delta=move.delta,
                        score=score,
                    )
                )
            if opts.validate_steps:
                report = check(g)
                if not report:
                    raise AssertionError(
                        f"step {steps} left an invalid graph: {report}"
                    )

    if opts.variant == "gies-nt":
        run_phase("forward")
        run_phase("backward")
    else:
        # a forward fixpoint is only disturbed by backward or turning moves
        while True:
            run_phase("forward")
            backward = run_phase("backward")
            turning = run_phase("turning")
            if not (backward or turning):
                break
    return g, score, steps, trace


def gies(
    data: InterventionalDataset,
    fam: TargetFamily,
    options: GiesOptions | None = None,
) -> SearchResult:
    """Greedy interventional equivalence search from the empty graph."""
    g, score, steps, trace = run_phases(
        data,
        fam,
        options or GiesOptions(),
        lambda g, move: apply_move(g, move, fam),
        lambda g: is_essential_graph(g, fam),
    )
    return SearchResult(
        graph=EssentialGraph(as_chain_graph(g), fam),
        score=score,
        steps=steps,
        trace=trace,
    )
