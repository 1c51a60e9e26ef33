"""Greedy equivalence-class search over interventional essential graphs.

The search walks the space of equivalence classes directly. A move is a
triple (u, v, C): C is a clique of line-neighbours of v describing how a
representative DAG orients the lines at v before the single-edge change is
made. Insert adds the arrow u -> v between non-adjacent vertices, delete
removes the edge between u and v, and turn reverses an existing arrow
v -> u (or orients a line) to u -> v. One check (`valid_move`) holds the
structural validity conditions of every kind. Beyond those, every kind
changes the parent set of v (a turn also that of u) in a representative
that orients C into v, so one score delta (`move_delta`) and one
application (`apply_move`) serve all four: the application orients the
affected chain components, makes the single-edge change (`_edit`) and
relaxes unprotected arrows to reach the new class's essential graph.

The driver repeats three phases to a fixpoint each: forward (inserts),
backward (deletes) and turning; the outer loop continues while backward or
turning still improve. One generator lists the moves of every phase,
visiting each v once. The local-score keys of all the moves of a call are
scored in one cache fill (`ScoreCache.fill`, one stacked fit), and every
delta is then formed from the memo. The candidates are ranked by delta;
exact ties fall back to the lexicographic key (kind, v, u, sorted C),
computed once per candidate, so runs are deterministic. The path conditions
are checked on this ranked walk only, and only strictly positive deltas are
accepted. A move changes the pa/nb/ch sets of a few vertices (D), so the
score cache keeps one ranking per phase and max_degree, which `best_move`
brings up to date by diffing those sets: it rebuilds the candidates of
each v in D or with a neighbour in D, and for every other v re-scores only
the pairs (u, v) with u in D. The same driver runs the DAG-space search
of `baselines.gds`: a DAG is a graph without lines, on which every C is
empty, the candidates are exactly the single-arrow insertions, deletions
and reversals, and `_edit` alone applies a move.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from enum import IntEnum
from functools import cached_property
from itertools import chain
from math import fsum
from operator import attrgetter
from typing import Callable, Iterable, Iterator

from .graphs import (
    Dag,
    Graph,
    GraphError,
    NotALine,
    NotAnArrow,
    NotAnEdge,
    VerticesAdjacent,
    _check_vertices,
    _orient_component,
    _reach,
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
    replace_unprotected,
)
from .scoring import (
    UNFITTABLE,
    InterventionalDataset,
    ScoreCache,
    ScoringError,
    _check_vertex_count,
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

    @cached_property
    def rank(self) -> tuple:
        """Sort key of the ranking, computed once: best delta first, then
        key()."""
        return (-self.delta, int(self.kind), self.v, self.u, tuple(sorted(self.C)))

    def key(self) -> tuple:
        """Deterministic tie-break key (kind, v, u, sorted C)."""
        return self.rank[1:]


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
        return json.dumps(asdict(self))


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
    enumeration.
    """

    variant: str = "gies"
    max_degree: int | None = None
    trace: bool = False
    penalty: str = "total"


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
    allowed = domain - separator
    return side_b.isdisjoint(_reach(side_a, lambda x: g._nb[x] & allowed))


# -- validity ---------------------------------------------------------------


# With N := nb(v) & ad(u), the rule by which each move kind admits a clique C
# of line-neighbours of v, shared by the enumeration and valid_move.
# Turn-line: C avoids u, C \ N is nonempty (otherwise the class does not
# change), and C & N separates C \ N from N \ C inside g[nb(v)].
_ADMITS: dict[MoveKind, Callable[..., bool]] = {
    MoveKind.INSERT: lambda g, nb_v, N, u, C: N <= C,
    MoveKind.DELETE: lambda g, nb_v, N, u, C: C <= N,
    MoveKind.TURN_LINE: lambda g, nb_v, N, u, C: (
        u not in C
        and bool(C - N)
        and _neighborhood_separated(g, nb_v, C - N, N - C, C & N)
    ),
}
_ADMITS[MoveKind.TURN_ARROW] = _ADMITS[MoveKind.INSERT]


def valid_move(kind: MoveKind, g: Graph, u: int, v: int, C: Iterable[int]) -> bool:
    """Whether (u, v, C) is a valid move of the kind on g.

    Each kind first needs its edge: insert needs u and v non-adjacent
    (VerticesAdjacent; GraphError when u == v), delete an arrow u -> v or a
    line u - v (NotAnEdge), turn-line a line u - v (NotALine) and
    turn-arrow an arrow v -> u (NotAnArrow). C must then be a clique of
    line-neighbours of v that the kind's rule (_ADMITS) admits. Insert also
    needs every partially directed path from v to u to pass through C, and
    turn-arrow every such path other than the arrow itself to pass through
    C or nb(u). A u or v outside 1..p raises GraphError.
    """
    for x in (u, v):
        if not 1 <= x <= g.p:
            raise GraphError(f"vertex {x} outside 1..{g.p}")
    if kind is MoveKind.INSERT:
        if u == v:
            raise GraphError("u and v must differ")
        if g.is_adjacent(u, v):
            raise VerticesAdjacent(f"{u} and {v} are already adjacent")
    elif kind is MoveKind.DELETE:
        if not (g.has_arrow(u, v) or g.has_line(u, v)):
            raise NotAnEdge(f"no arrow {u} -> {v} and no line {u} - {v}")
    elif kind is MoveKind.TURN_LINE:
        if not g.has_line(u, v):
            raise NotALine(f"no line {u} - {v}")
    elif not g.has_arrow(v, u):
        raise NotAnArrow(f"no arrow {v} -> {u}")
    C = frozenset(C)
    nb_v = frozenset(g._nb[v])
    N = nb_v & g.adjacent(u)
    if not (C <= nb_v and _clique_of_lines(g, C) and _ADMITS[kind](g, nb_v, N, u, C)):
        return False
    if kind is MoveKind.INSERT:
        return not has_path(g, v, u, forbidden=C)
    if kind is MoveKind.TURN_ARROW:
        cut = g.copy()
        cut._pa[u].discard(v)
        cut._ch[v].discard(u)
        return not has_path(cut, v, u, forbidden=C | g._nb[u])
    return True


# -- score deltas -----------------------------------------------------------


def _move_keys(
    kind: MoveKind, g: Graph, u: int, v: int, C: frozenset[int]
) -> tuple[tuple[int, frozenset[int]], ...]:
    """The local-score keys of a move's delta, in the order move_delta
    reads them: with B = pa(v) | C, (v, B | {u}) and (v, B - {u}); a turn
    adds (u, P - {v}) and (u, P | {v}), with P = pa(u) | (C & N) for a
    turn-line and P = pa(u) for a turn-arrow."""
    B = frozenset(g._pa[v]) | C
    keys = ((v, B | {u}), (v, B - {u}))
    if kind is MoveKind.INSERT or kind is MoveKind.DELETE:
        return keys
    P = frozenset(g._pa[u])
    if kind is MoveKind.TURN_LINE:
        P |= C & g._nb[v] & g.adjacent(u)
    return keys + ((u, P - {v}), (u, P | {v}))


def _delta(
    kind: MoveKind,
    keys: tuple[tuple[int, frozenset[int]], ...],
    data: InterventionalDataset,
    cache: ScoreCache,
) -> float:
    """The delta of a move from its keys (_move_keys): the first score of
    each pair minus the second, negated for a delete."""
    s = [local_score(w, P, data, cache=cache) for w, P in keys]
    # one subtraction, like fsum, rounds the exact difference once
    if kind is MoveKind.INSERT:
        return s[0] - s[1]
    if kind is MoveKind.DELETE:
        return s[1] - s[0]
    # fsum rounds the exact sum once: the reverse move's delta is exactly the
    # negation, so score-neutral turns cannot cycle on rounding noise
    return fsum((s[0], -s[1], s[2], -s[3]))


def move_delta(
    kind: MoveKind,
    g: Graph,
    u: int,
    v: int,
    C: Iterable[int],
    data: InterventionalDataset,
    cache: ScoreCache | None = None,
) -> float:
    """Score change of the move (u, v, C) of the kind: with B = pa(v) | C,
    s(v, B | {u}) - s(v, B - {u}), negated for a delete; a turn adds
    s(u, P - {v}) - s(u, P | {v}), with P = pa(u) | (C & N) for a turn-line
    and P = pa(u) for a turn-arrow. A graph on other than data.p vertices
    raises ScoringError, and a u or v outside 1..p GraphError."""
    _check_vertex_count(g, data)
    _check_vertices(g, (u, v))
    if cache is None:
        cache = ScoreCache(data)
    return _delta(kind, _move_keys(kind, g, u, v, frozenset(C)), data, cache)


# -- application ------------------------------------------------------------


def _edit(g: Graph, move: MoveCandidate) -> Graph:
    """The single-edge change of a move, in place: insert adds u -> v,
    delete drops the edge between u and v, and a turn does both."""
    if move.kind is not MoveKind.INSERT:
        g._drop_edge(move.u, move.v)
    if move.kind is not MoveKind.DELETE:
        g._add_arrow(move.u, move.v)
    return g


def apply_move(g: Graph, move: MoveCandidate, fam: TargetFamily) -> Graph:
    """Essential graph of the class reached by making the move's edge change
    on a representative and relaxing its unprotected arrows.

    The representative orients v's chain component by a lexicographic BFS
    seeded (C, v): (C, u, v) for a delete of a line, and (C, v, u) for a
    turn-line, which for a valid move provably realizes the in-neighbourhoods
    C at v and (C & N) | {v} at u (verified). A turn-arrow first orients u's
    component from u, so that only v points into u.
    """
    kind, u, v, C = move.kind, move.u, move.v, move.C
    if not valid_move(kind, g, u, v, C):
        raise InvalidMove(f"{kind.name.lower()} ({u}, {v}, {sorted(C)}) is not valid")
    h = g.copy()
    if kind is MoveKind.TURN_ARROW:
        comp_u = component_of(g, u)
        _orient_component(h, comp_u, lexbfs([u], g, comp_u))
    if kind is MoveKind.DELETE and u in g._nb[v]:
        seed = [u, v]
    elif kind is MoveKind.TURN_LINE:
        seed = [v, u]
    else:
        seed = [v]
    comp = component_of(g, v)
    _orient_component(h, comp, lexbfs(sorted(C) + seed, g, comp))
    if kind is MoveKind.TURN_LINE:
        want_u = (C & (g._nb[v] & g.adjacent(u))) | {v}
        if h._pa[v] & comp != C or h._pa[u] & comp != want_u:
            raise InvalidMove(
                f"no representative realizes turn_line ({u}, {v}, {sorted(C)})"
            )
    return replace_unprotected(_edit(h, move), fam)


def apply_insert(
    g: Graph, u: int, v: int, C: Iterable[int], fam: TargetFamily
) -> Graph:
    """Essential graph of the class obtained by adding u -> v to a
    representative orienting C into v."""
    return apply_move(g, MoveCandidate(MoveKind.INSERT, u, v, frozenset(C), 0.0), fam)


def apply_delete(
    g: Graph, u: int, v: int, C: Iterable[int], fam: TargetFamily
) -> Graph:
    """Essential graph of the class obtained by removing the edge between u
    and v from a representative orienting C (and u, if u - v is a line)
    into v."""
    return apply_move(g, MoveCandidate(MoveKind.DELETE, u, v, frozenset(C), 0.0), fam)


def apply_turn_line(
    g: Graph, u: int, v: int, C: Iterable[int], fam: TargetFamily
) -> Graph:
    """Essential graph of the class obtained by orienting the line u - v as
    u -> v in a representative orienting C into v."""
    return apply_move(
        g, MoveCandidate(MoveKind.TURN_LINE, u, v, frozenset(C), 0.0), fam
    )


def apply_turn_arrow(
    g: Graph, u: int, v: int, C: Iterable[int], fam: TargetFamily
) -> Graph:
    """Essential graph of the class obtained by reversing the arrow v -> u
    in a representative orienting C into v and nothing into u."""
    return apply_move(
        g, MoveCandidate(MoveKind.TURN_ARROW, u, v, frozenset(C), 0.0), fam
    )


# -- enumeration ------------------------------------------------------------

_PHASE_KINDS: dict[str, tuple[MoveKind, ...]] = {
    "forward": (MoveKind.INSERT,),
    "backward": (MoveKind.DELETE,),
    "turning": (MoveKind.TURN_LINE, MoveKind.TURN_ARROW),
}


def _partners(
    g: Graph, kind: MoveKind, v: int, ad: list, cap: int, pool: Iterable[int]
) -> Iterable[int]:
    """The u in pool of the pairs (u, v) that a move of the kind acts on."""
    if kind is MoveKind.INSERT:
        if len(ad[v]) >= cap:
            return ()
        return [u for u in pool if u != v and u not in ad[v] and len(ad[u]) < cap]
    if kind is MoveKind.DELETE:
        edges = g._pa[v] | g._nb[v]
    else:
        edges = g._nb[v] if kind is MoveKind.TURN_LINE else g._ch[v]
    return [u for u in edges if u in pool]


def _moves(
    g: Graph,
    kinds: tuple[MoveKind, ...],
    max_degree: int | None = None,
    vertices: Iterable[int] | None = None,
    partners: Iterable[int] | None = None,
) -> Iterator[tuple[MoveKind, int, int, frozenset[int]]]:
    """Every (kind, u, v, C) of the given kinds whose C passes its kind's
    rule, visiting each v once. max_degree closes inserts at vertices with
    that many neighbours. vertices and partners restrict v and u (default:
    every vertex)."""
    ad = [g._pa[x] | g._ch[x] | g._nb[x] for x in range(g.p + 1)]
    cap = g.p if max_degree is None else max_degree  # no vertex has p neighbours
    pool = g.vertices if partners is None else partners
    for v in g.vertices if vertices is None else vertices:
        nb_v = frozenset(g._nb[v])
        pairs = [
            (u, nb_v & ad[u], kind, _ADMITS[kind])
            for kind in kinds
            for u in _partners(g, kind, v, ad, cap, pool)
        ]
        if not pairs:
            continue
        for C in cliques_in_neighborhood(g, nb_v):
            for u, N, kind, admits in pairs:
                if admits(g, nb_v, N, u, C):
                    yield kind, u, v, C


def _scored(
    g: Graph,
    moves: Iterable[tuple[MoveKind, int, int, frozenset[int]]],
    data: InterventionalDataset,
    cache: ScoreCache,
) -> Iterator[MoveCandidate]:
    """The moves as scored candidates, in order; moves that cannot be fitted
    are skipped. One cache fill scores every key the moves need, so each
    delta is formed from memo hits."""
    moves = list(moves)
    keys = [_move_keys(kind, g, u, v, C) for kind, u, v, C in moves]
    cache.fill(chain.from_iterable(keys))
    for (kind, u, v, C), move_keys in zip(moves, keys):
        try:
            delta = _delta(kind, move_keys, data, cache)
        except UNFITTABLE:
            continue
        yield MoveCandidate(kind, u, v, C, delta)


class _Ranking:
    """What best_move keeps between the calls of one phase and max_degree on
    one cache (its key in ScoreCache.rankings): the pa/nb/ch sets of each
    vertex at the last call, and the candidates with a positive delta per
    v built from them. A fresh ranking has no sets, so its first call finds
    every vertex changed and builds every candidate."""

    def __init__(self, p: int):
        self.sets: list[tuple | None] = [None] * (p + 1)
        self.positive: list[list[MoveCandidate]] = [[] for _ in range(p + 1)]

    def refresh(
        self,
        g: Graph,
        kinds: tuple[MoveKind, ...],
        data: InterventionalDataset,
        cache: ScoreCache,
        max_degree: int | None,
    ) -> None:
        """Bring the candidates up to date with g.

        The candidates of a pair (u, v) depend on the sets of u and v, on
        the lines among nb(v) (the cliques C and how they separate), and
        under max_degree on |ad(u)| and |ad(v)|. With D the vertices whose
        sets differ from the last call's, v is rebuilt when v is in D or
        nb(v) meets D; every other v keeps its candidates with u outside D
        and re-scores its pairs with u in D. The ranking changes only once
        every candidate is scored, so a call that raises leaves it as it
        was.
        """
        changed = {
            x for x in g.vertices
            if self.sets[x] != (g._pa[x], g._nb[x], g._ch[x])
        }
        positive: list[list[MoveCandidate]] = [[] for _ in range(g.p + 1)]
        rebuild, keep = [], []
        for v in g.vertices:
            if v in changed or not changed.isdisjoint(g._nb[v]):
                rebuild.append(v)
            else:
                keep.append(v)
                positive[v] = [c for c in self.positive[v] if c.u not in changed]
        moves = chain(
            _moves(g, kinds, max_degree, rebuild),
            _moves(g, kinds, max_degree, keep, changed),
        )
        for c in _scored(g, moves, data, cache):
            if c.delta > 0.0:
                positive[c.v].append(c)
        self.positive = positive
        for x in changed:
            self.sets[x] = tuple(map(frozenset, (g._pa[x], g._nb[x], g._ch[x])))


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
    sorted walk, best first. The cache keeps one ranking per phase and
    max_degree (ScoreCache.rankings): a call rebuilds only the candidates
    of the vertices that changed since the ranking's last call or have a
    changed neighbour, and re-scores the pairs whose u changed
    (_Ranking.refresh). Without a cache, the call scores through one fresh
    cache and builds every candidate. A graph on other than data.p vertices,
    or a cache bound to other data, raises ScoringError.
    """
    kinds = _PHASE_KINDS.get(phase)
    if kinds is None:
        raise GraphError(f"unknown phase {phase!r}")
    _check_vertex_count(g, data)
    if cache is None:
        cache = ScoreCache(data)
    elif cache.data is not data:
        raise ScoringError("cache is bound to a different dataset")
    ranking = cache.rankings.get((phase, max_degree))
    if ranking is None:
        ranking = cache.rankings[phase, max_degree] = _Ranking(data.p)
    ranking.refresh(g, kinds, data, cache, max_degree)
    ranked = sorted(
        (c for cs in ranking.positive for c in cs), key=attrgetter("rank")
    )
    # the enumeration checked every condition except the path conditions of
    # insert and turn-arrow, which valid_move checks here on the ranked walk
    return next((c for c in ranked if valid_move(c.kind, g, c.u, c.v, c.C)), None)


# -- driver -----------------------------------------------------------------


def run_phases(
    data: InterventionalDataset,
    fam: TargetFamily,
    opts: GiesOptions,
    apply: Callable[[Graph, MoveCandidate], Graph],
) -> tuple[Graph, float, int, SearchTrace | None]:
    """The greedy phase loop from the empty graph, shared by gies and gds.

    `apply` returns the graph after a move (it may edit its argument in
    place). Returns (graph, score, steps, trace).
    """
    if opts.variant not in ("gies", "gies-nt"):
        raise GraphError(f"unknown variant {opts.variant!r}")
    if opts.max_degree is not None and opts.max_degree < 0:
        raise GraphError(f"max_degree must be >= 0, got {opts.max_degree}")
    _require_conservative(fam, data.p)
    data.check_family(fam)
    data.check_columns()
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
    )
    return SearchResult(
        graph=EssentialGraph(as_chain_graph(g), fam),
        score=score,
        steps=steps,
        trace=trace,
    )
