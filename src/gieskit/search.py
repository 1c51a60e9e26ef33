"""Greedy equivalence-class search over interventional essential graphs.

The search walks the space of equivalence classes directly. A move is a
triple (u, v, C): C is a clique of line-neighbours of v describing how a
representative DAG orients the lines at v before the single-edge change is
made. Insert adds the arrow u -> v between non-adjacent vertices, delete
removes the edge between u and v, and turn reverses an existing arrow
v -> u (or orients a line) to u -> v. Validity is defined once: the move
generator (`_moves`) yields the cliques C that each kind's rule (`_ADMITS`)
admits, one private function (`_paths_clear`) holds the path rule of
insert and turn-arrow, and `valid_move` asks both. Beyond that, every kind
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
delta is then read straight from the memo, with no `local_score` call;
B = pa(v) | C is built once per (v, C), not per partner u. Only strictly
positive deltas can be accepted, so a candidate object (`MoveCandidate`)
exists only for a positive delta. The candidates are ranked by delta;
exact ties fall back to the lexicographic key (kind, v, u, sorted C),
computed once per candidate, so runs are deterministic. Every candidate
already meets its edge and clique rules, so the ranked walk checks only the
path rule (`_paths_clear`). A move changes the pa/nb/ch sets of a few
vertices (D), so the score cache keeps one ranking per phase and
max_degree: one list of the positive candidates in rank order, which
`best_move` brings up to date by diffing those sets, by one rule for every
phase: it rebuilds the candidates of a v whose pa(v), nb(v), lines among
nb(v) or side of the degree cap may have changed, and for every other v
enumerates again only the pairs (u, v) with u in D whose ad(u) changed
inside nb(v) | {v}, whose side of the cap changed or, in a phase with
turns, whose pa(u) changed. The kept candidates stay in order and the new
ones are merged in, so the walk needs no sort of its own. The same phase
loop (`run_phases`) runs the DAG-space search of `baselines.gds`: a DAG is
a graph without lines, on which every C is empty, the candidates are
exactly the single-arrow insertions, deletions and reversals, and `_edit`
alone applies a move.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from enum import IntEnum
from functools import cached_property
from itertools import chain
from math import fsum
from operator import attrgetter
from typing import Callable, Collection, Iterable, Iterator

from .graphs import (
    Dag,
    Graph,
    GraphError,
    NotALine,
    NotAnArrow,
    NotAnEdge,
    VerticesAdjacent,
    _check_limit,
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
    _bound_cache,
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
        the deterministic tie-break key (kind, v, u, sorted C), rank[1:]."""
        return (-self.delta, int(self.kind), self.v, self.u, tuple(sorted(self.C)))


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
    backward fixpoint, no turning). max_degree, an integer >= 0 (not a
    bool), bounds the number of neighbours a vertex may reach through
    inserts, guarding the clique enumeration.
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


# -- validity ---------------------------------------------------------------


# With N := nb(v) & ad(u), the rule by which each move kind admits a clique C
# of line-neighbours of v. The move generator (_moves) alone applies it;
# valid_move asks the generator.
# Turn-line: C avoids u, C \ N is nonempty (otherwise the class does not
# change), and C & N separates C \ N from N \ C inside g[nb(v)]: no line
# path from C \ N leads to N \ C through nb(v) \ C (the walk starts at all
# of C \ N, so it need not pass through C).
_ADMITS: dict[MoveKind, Callable[..., bool]] = {
    MoveKind.INSERT: lambda g, nb_v, N, u, C: N <= C,
    MoveKind.DELETE: lambda g, nb_v, N, u, C: C <= N,
    MoveKind.TURN_LINE: lambda g, nb_v, N, u, C: (
        u not in C
        and bool(C - N)
        and (N - C).isdisjoint(_reach(C - N, lambda x: g._nb[x] & (nb_v - C)))
    ),
}
_ADMITS[MoveKind.TURN_ARROW] = _ADMITS[MoveKind.INSERT]


def _check_kind(kind: object) -> None:
    """Raise GraphError naming kind unless it is a MoveKind member (an int
    such as 0 is not)."""
    if not isinstance(kind, MoveKind):
        raise GraphError(f"unknown move kind {kind!r}")


def valid_move(kind: MoveKind, g: Graph, u: int, v: int, C: Iterable[int]) -> bool:
    """Whether (u, v, C) is a valid move of the kind on g.

    Each kind first needs its edge: insert needs u and v non-adjacent
    (VerticesAdjacent; GraphError when u == v), delete an arrow u -> v or a
    line u - v (NotAnEdge), turn-line a line u - v (NotALine) and
    turn-arrow an arrow v -> u (NotAnArrow). C must then be one of the
    cliques of line-neighbours of v that the move generator (_moves) yields
    for the pair, and the move's paths must be clear (_paths_clear). A kind
    that is not a MoveKind member, or a u, v or member of C that is not a
    vertex id of g, raises GraphError.
    """
    _check_kind(kind)
    C = frozenset(C)
    _check_vertices(g, (u, v, *C))
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
    generated = (c for *_, c in _moves(g, (kind,), visits=[(v, (u,))]))
    return C in generated and _paths_clear(kind, g, u, v, C)


def _paths_clear(kind: MoveKind, g: Graph, u: int, v: int, C: frozenset[int]) -> bool:
    """The path rule of a move whose C its kind's rule admits: an insert needs
    every partially directed path from v to u to pass through C, and a
    turn-arrow every such path other than the arrow itself to pass through
    C or nb(u); the other kinds have none."""
    if kind is MoveKind.INSERT:
        return not has_path(g, v, u, forbidden=C)
    if kind is MoveKind.TURN_ARROW:
        cut = g.copy()
        cut._drop_edge(v, u)
        return not has_path(cut, v, u, forbidden=C | g._nb[u])
    return True


# -- score deltas -----------------------------------------------------------


def _move_keys(
    kind: MoveKind, g: Graph, u: int, v: int, C: frozenset[int], B: frozenset[int]
) -> tuple[tuple[int, frozenset[int]], ...]:
    """The local-score keys of a move's delta, in the order _delta reads
    them, given B = pa(v) | C: (v, B | {u}) and (v, B - {u}); a turn adds
    (u, P - {v}) and (u, P | {v}), with P = pa(u) | (C & N) for a turn-line
    and P = pa(u) for a turn-arrow."""
    # an insert's u is outside B, so its base key reuses B itself
    keys = ((v, B | {u}), (v, B - {u} if u in B else B))
    if kind is MoveKind.INSERT or kind is MoveKind.DELETE:
        return keys
    P = frozenset(g._pa[u])
    if kind is MoveKind.TURN_LINE:
        P |= C & g._nb[v] & g.adjacent(u)
    return keys + ((u, P - {v}), (u, P | {v}))


def _delta(kind: MoveKind, s: list[float]) -> float:
    """The delta of a move from the scores of its keys (_move_keys): the
    first score of each pair minus the second, negated for a delete."""
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
    and P = pa(u) for a turn-arrow. A graph on other than data.p vertices,
    or a cache bound to other data, raises ScoringError, and a kind that
    is not a MoveKind member, or a u, v or member of C that is not a vertex
    id of g, GraphError."""
    _check_kind(kind)
    _check_vertex_count(g, data)
    C = frozenset(C)
    _check_vertices(g, (u, v, *C))
    cache = _bound_cache(data, cache)
    keys = _move_keys(kind, g, u, v, C, frozenset(g._pa[v]) | C)
    return _delta(kind, [local_score(w, P, data, cache=cache) for w, P in keys])


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
    turn-line, which for a valid move realizes the in-neighbourhoods C at v
    and (C & N) | {v} at u: C - N is nonempty and u is adjacent to none of
    it, so once C is emitted the BFS emits v before u (verified by
    tests/test_operator_oracle.py, which compares the reached classes with
    brute force over the members, and by acceptance criterion 5). A
    turn-arrow first orients u's component from u, so that only v points
    into u.
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
    return replace_unprotected(_edit(h, move), fam)


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
    visits: Iterable[tuple[int, Collection[int]]] | None = None,
) -> Iterator[tuple[MoveKind, int, int, frozenset[int]]]:
    """Every (kind, u, v, C) of the given kinds whose C passes its kind's
    rule, visiting each v once. max_degree closes inserts at vertices with
    that many neighbours. visits lists the v to visit, each with the pool
    of its partners u; by default every v is visited with every partner."""
    ad = [g._pa[x] | g._ch[x] | g._nb[x] for x in range(g.p + 1)]
    cap = g.p if max_degree is None else max_degree  # no vertex has p neighbours
    for v, pool in ((v, g.vertices) for v in g.vertices) if visits is None else visits:
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
    cache: ScoreCache,
) -> Iterator[MoveCandidate]:
    """The moves with a positive delta as candidates, in order. One cache
    fill scores every key the moves need, and each delta is then read from
    the memo. The first of a move's keys (in _move_keys order) that holds an
    error decides: an UNFITTABLE one skips the move, and any other is raised
    as a copy, as local_score does."""
    moves = list(moves)
    keys, last = [], None
    for kind, u, v, C in moves:
        if last != (v, C):  # the generator yields a run of partners per (v, C)
            last, B = (v, C), frozenset(g._pa[v]) | C
        keys.append(_move_keys(kind, g, u, v, C, B))
    cache.fill(chain.from_iterable(keys))
    memo = cache.memo
    for (kind, u, v, C), move_keys in zip(moves, keys):
        scores = [memo[key] for key in move_keys]
        try:
            delta = _delta(kind, scores)
        except TypeError:  # the arithmetic met a memoized ScoringError
            err = next(s for s in scores if isinstance(s, ScoringError))
            if isinstance(err, UNFITTABLE):
                continue
            raise type(err)(*err.args) from None
        if delta > 0.0:
            yield MoveCandidate(kind, u, v, C, delta)


class _Ranking:
    """What best_move keeps between the calls of one phase and max_degree on
    one cache (its key in ScoreCache.rankings): the pa/nb/ch sets of each
    vertex at the last call, and the candidates with a positive delta built
    from them, as one list in rank order (MoveCandidate.rank). A fresh
    ranking has no sets, so its first call builds every candidate.

    A move (kind, u, v, C) reads, from v: pa(v) (the base B), nb(v) and the
    lines among nb(v) (the cliques C and _ADMITS), ad(v) (insert partners
    are not adjacent, turn-arrow partners are ch(v)) and whether |ad(v)| is
    under the cap; from u: ad(u) within nb(v) | {v} (N = nb(v) & ad(u), and
    u's adjacency to v), whether |ad(u)| is under the cap, and for a turn
    pa(u). refresh keeps a pair's candidates only when none of these
    changed."""

    def __init__(self, p: int):
        self.sets: list[tuple | None] = [None] * (p + 1)
        self.ranked: list[MoveCandidate] = []

    def refresh(
        self,
        g: Graph,
        kinds: tuple[MoveKind, ...],
        cache: ScoreCache,
        max_degree: int | None,
    ) -> None:
        """Bring the ranked candidates up to date with g, by one rule for
        every phase. With D the vertices whose sets differ from the last
        call's, v is rebuilt in full when pa(v) or nb(v) changed, when two
        or more members of nb(v) have a changed nb (a line among nb(v) may
        have changed), or when |ad(v)| crossed max_degree. Every other v
        keeps its candidates, except those with a partner u in D whose ad(u)
        changed inside nb(v) | {v}, whose |ad(u)| crossed the cap, or, in a
        phase with turns, whose pa(u) changed: those pairs are enumerated
        again. redo maps each v to the partners of its pairs enumerated
        again (every vertex for a v rebuilt in full). The kept candidates
        stay one ascending run and every rank is unique, so the sort only
        merges the new candidates in. The ranking changes only once every
        candidate is scored, so a call that raises leaves it as it was.
        """
        cap = g.p if max_degree is None else max_degree
        # D (changed); the vertices of D whose pa, nb or side of the cap
        # changed; and per x in D, the vertices whose adjacency to x changed
        changed, moved_pa, moved_nb, crossed = [], set(), set(), set()
        moved_ad: dict[int, set[int]] = {}
        for x in g.vertices:
            old, pa, nb, ch = self.sets[x], g._pa[x], g._nb[x], g._ch[x]
            if old == (pa, nb, ch):
                continue
            changed.append(x)
            if old is None:  # a fresh ranking: every v is rebuilt
                moved_pa.add(x)
                continue
            if old[0] != pa:
                moved_pa.add(x)
            if old[1] != nb:
                moved_nb.add(x)
            ad_old, ad = old[0] | old[1] | old[2], pa | nb | ch
            if (len(ad_old) < cap) != (len(ad) < cap):
                crossed.add(x)
            if ad_old != ad:
                moved_ad[x] = ad_old ^ ad
        # partners whose pairs are enumerated again at every kept v: those
        # whose side of the cap changed, and for a turn, which reads pa(u),
        # those whose pa changed
        turns = not {MoveKind.TURN_LINE, MoveKind.TURN_ARROW}.isdisjoint(kinds)
        always = crossed | moved_pa if turns else crossed
        redo: dict[int, Collection[int]] = {}
        for v in g.vertices:
            nb_v = g._nb[v]
            if (
                v in moved_pa
                or v in moved_nb
                or v in crossed
                or len(moved_nb & nb_v) > 1  # a line among nb(v) may have changed
            ):
                redo[v] = g.vertices
                continue
            pool = always | {
                u for u, moved in moved_ad.items()
                if v in moved or not nb_v.isdisjoint(moved)
            }
            if pool:
                redo[v] = pool
        kept = (c for c in self.ranked if c.u not in redo.get(c.v, ()))
        new = _scored(g, _moves(g, kinds, max_degree, redo.items()), cache)
        self.ranked = sorted(chain(kept, new), key=attrgetter("rank"))
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

    The cache keeps one ranking per phase and max_degree
    (ScoreCache.rankings): the positive candidates in one list, ordered by
    delta (descending) with the lexicographic key as tie-break. A call
    enumerates again only the pairs (u, v) whose candidates read something
    that changed since the ranking's last call (_Ranking.refresh), then
    walks that list best first. The enumeration has applied every rule but
    the path rule, which is checked (_paths_clear) only on this walk.
    Without a cache, the call scores through one fresh cache and builds
    every candidate. max_degree, if given, must be an integer >= 0 (not a
    bool; GraphError). A graph on other than data.p vertices, or a cache
    bound to other data, raises ScoringError.
    """
    kinds = _PHASE_KINDS.get(phase)
    if kinds is None:
        raise GraphError(f"unknown phase {phase!r}")
    if max_degree is not None:
        _check_limit("max_degree", max_degree, 0)
    _check_vertex_count(g, data)
    cache = _bound_cache(data, cache)
    ranking = cache.rankings.get((phase, max_degree))
    if ranking is None:
        ranking = cache.rankings[phase, max_degree] = _Ranking(data.p)
    ranking.refresh(g, kinds, cache, max_degree)
    # the enumeration checked every condition except the path rule, which is
    # checked here on the ranked walk only
    return next((c for c in ranking.ranked if _paths_clear(c.kind, g, c.u, c.v, c.C)), None)


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
    if opts.max_degree is not None:
        _check_limit("max_degree", opts.max_degree, 0)
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
