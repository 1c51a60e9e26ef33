"""Comparison algorithms: greedy DAG search, observational greedy search
and an exact dynamic-programming optimizer.

gds hill-climbs in the space of DAGs with single-arrow insertions, deletions
and reversals. It runs on the class-space search's own driver and candidate
ranking: a DAG is a graph without lines, on which the class-space moves are
exactly those single-arrow edits and their path conditions are the
acyclicity checks; only the application differs: the in-place edge edit
of the class-space moves alone, instead of a move to the next essential
graph. With a complete single-vertex intervention family every
equivalence class is a singleton and the two searches coincide move for
move. ges erases all intervention
labels and searches with the purely observational family. dp_exact
maximizes the decomposable score over all DAGs by dynamic programming over
vertex subsets (best-parent-set tables followed by a best-sink recursion),
exponential in the vertex count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

# has_path is no longer called here but stays importable from this module:
# perfbench/tracing.py wraps it in place, like local_score and MoveCandidate
from .graphs import Dag, GraphError, has_path  # noqa: F401
from .interventions import OBSERVATIONAL, TargetFamily, _require_conservative
from .scoring import UNFITTABLE, InterventionalDataset, ScoreCache, local_score
from .search import (  # noqa: F401
    GiesOptions,
    MoveCandidate,
    SearchResult,
    SearchTrace,
    _edit,
    gies,
    run_phases,
)


class TooLarge(GraphError):
    """Vertex count exceeds the limit of the exponential-time optimizer."""

    def __init__(self, p: int, max_p: int):
        super().__init__(f"p = {p} exceeds the exact-search limit {max_p}")
        self.p = p
        self.max_p = max_p


@dataclass
class DagSearchResult:
    dag: Dag
    score: float
    steps: int
    trace: SearchTrace | None


@dataclass
class DpResult:
    dag: Dag
    score: float
    metadata: dict = field(default_factory=dict)


# -- greedy DAG search ------------------------------------------------------


def gds(
    data: InterventionalDataset,
    fam: TargetFamily,
    options: GiesOptions | None = None,
) -> DagSearchResult:
    """Greedy DAG-space search from the empty DAG."""
    g, score, steps, trace = run_phases(data, fam, options or GiesOptions(), _edit)
    return DagSearchResult(
        dag=Dag(data.p, arrows=g.arrows), score=score, steps=steps, trace=trace
    )


# -- observational greedy search --------------------------------------------


def ges(
    data: InterventionalDataset, options: GiesOptions | None = None
) -> SearchResult:
    """Class-space greedy search with all intervention labels erased."""
    return gies(data.erase_targets(), TargetFamily([OBSERVATIONAL]), options)


# -- exact dynamic programming ----------------------------------------------


def dp_exact(
    data: InterventionalDataset,
    fam: TargetFamily,
    max_p: int = 15,
    max_parents: int | None = None,
) -> DpResult:
    """Globally optimal DAG for the decomposable score.

    Runs the subset dynamic program: per vertex, the best parent set within
    every candidate set; then the best sink per vertex subset. Time and
    memory grow as p * 2^p, hence the hard max_p guard. max_parents caps
    the parent-set size of the local-score table (defaults to unlimited up
    to 12 vertices and 5 beyond); a cap can exclude the true optimum, so
    the applied value is reported in the metadata.
    """
    p = data.p
    if p > max_p:
        raise TooLarge(p, max_p)
    if max_parents is not None and max_parents < 0:
        raise GraphError(f"max_parents must be >= 0, got {max_parents}")
    _require_conservative(fam, p)
    data.check_family(fam)
    data.check_columns()
    cache = ScoreCache(data)
    if max_parents is None:
        cap = p - 1 if p <= 12 else 5
    else:
        cap = max_parents
    full = (1 << p) - 1
    neg_inf = float("-inf")

    def bit(v: int) -> int:
        return 1 << (v - 1)

    def members(mask: int) -> list[int]:
        return [v for v in range(1, p + 1) if mask & bit(v)]

    # best_local[v][S]: best local score of v over parent sets inside S;
    # best_pa[v][S]: the parent set achieving it (smaller sets win ties)
    best_local = [None] + [[neg_inf] * (full + 1) for _ in range(p)]
    best_pa = [None] + [[0] * (full + 1) for _ in range(p)]
    for v in range(1, p + 1):
        # v's table: every S without v within the cap, each parent set built
        # once for the fill that scores them all and for the lookups below
        table = {
            S: frozenset(members(S))
            for S in range(full + 1)
            if not S & bit(v) and S.bit_count() <= cap
        }
        cache.fill((v, pa) for pa in table.values())
        bl, bp = best_local[v], best_pa[v]
        bl[0] = local_score(v, table[0], data, cache=cache)
        for S in range(1, full + 1):
            if S & bit(v):
                continue
            best, arg = neg_inf, 0
            for w in members(S):
                sub = S & ~bit(w)
                if bl[sub] > best:
                    best, arg = bl[sub], bp[sub]
            if S in table:
                try:
                    own = local_score(v, table[S], data, cache=cache)
                except UNFITTABLE:
                    own = neg_inf
                if own > best:
                    best, arg = own, S
            bl[S], bp[S] = best, arg

    # best_net[U]: best score of a DAG on the vertex set U; sink[U]: its
    # last vertex in topological order (smallest such vertex on ties)
    best_net = [0.0] * (full + 1)
    sink = [0] * (full + 1)
    for U in range(1, full + 1):
        best, arg = neg_inf, 0
        for s in members(U):
            rest = U & ~bit(s)
            cand = best_net[rest] + best_local[s][rest]
            if cand > best:
                best, arg = cand, s
        best_net[U], sink[U] = best, arg

    arrows: list[tuple[int, int]] = []
    U = full
    while U:
        s = sink[U]
        U &= ~bit(s)
        arrows.extend((w, s) for w in members(best_pa[s][U]))
    dag = Dag(p, arrows=arrows)
    return DpResult(
        dag=dag,
        score=best_net[full],
        metadata={
            "max_p": max_p,
            "max_parents": cap,
            "capped": cap < p - 1,
            "score": best_net[full],
        },
    )
