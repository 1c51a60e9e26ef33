"""Workloads of the benchmark: input generation, the learner call and the
correctness checks run on every learner result.

Each workload fixes one simulation scenario (vertex count, edge density,
targets, sample size) and one learner. The DAG, its weights and the target
family are drawn from the scenario seed 400 (the seed of the ROADMAP
baseline); the --seed argument draws the samples of REPLICATES datasets,
replicate r from the samples substream (seed, r). Drawing a fresh DAG per
seed changes the learner's work by up to 2x between seeds (gds at p = 40
ranged from 3.9 s to 11 s over nine seeds on a 2-core x86 machine), which
no per-run median can absorb; with the structure fixed, seeds change only
the sample noise. Replicate 0 of `--seed 400` is exactly
`simulate(SimConfig(..., seed=400))`.

Importing this module imports numpy and gieskit, so pin the BLAS threads
before importing it.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from gieskit import (
    Dag,
    GiesOptions,
    InterventionalDataset,
    TargetFamily,
    dp_exact,
    gds,
    gies,
    is_essential_graph,
    random_dag,
    random_model,
    random_targets,
    representative,
    sample,
    shd,
    substream,
    total_score,
)

#: Seed of the fixed structure (DAG, weights, targets) of every workload.
STRUCTURE_SEED = 400

#: Sample sets per run. The learner's work depends on the samples (gds
#: made 10% more fits on one seed than on another), so a run averages its
#: timing and quality over several.
REPLICATES = 3

#: Relative tolerance of the reported-score check.
SCORE_RTOL = 1e-9

DIGESTS_PATH = Path(__file__).resolve().with_name("digests.json")

# substream purposes of gieskit.simulate: DAG, model, targets, samples
_DAG, _MODEL, _TARGETS, _SAMPLE = 0, 1, 2, 3


@dataclass(frozen=True)
class Workload:
    name: str
    learner: str  # "gies", "dp_exact" or "gds"
    p: int
    s: float
    k: int
    n: int

    def tiny(self) -> "Workload":
        """The same learner on p = 8 vertices, for the self-test."""
        return replace(self, name=self.name + "-tiny", p=8, s=0.4, k=min(self.k, 3), n=300)


# Why each workload exists (perfbench/README.md has the full map):
# gies-sparse-p40 - the criterion-11 shape at p = 40; enumeration and
#   ranking in best_move dominate and the score cache serves ~99% hits.
# dp-exact-p11 - uncapped parent sets; wide fits, every one a cache miss,
#   and no search layer at all.
# gds-large-n - the DAG-space driver on 5x the rows; small-parent fits
#   whose cost scales with n.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("gies-sparse-p40", "gies", p=40, s=4 / 39, k=16, n=1000),
        Workload("dp-exact-p11", "dp_exact", p=11, s=4 / 10, k=4, n=1000),
        Workload("gds-large-n", "gds", p=30, s=4 / 29, k=12, n=5000),
    )
}


@dataclass
class Inputs:
    dag: Dag
    fam: TargetFamily
    data: InterventionalDataset


def make_inputs(w: Workload, seed: int) -> list[Inputs]:
    """The workload's fixed structure with REPLICATES sample sets drawn
    from `seed`, replicate r from the samples substream (seed, r)."""
    dag = random_dag(w.p, w.s, substream(STRUCTURE_SEED, 0, _DAG))
    model = random_model(dag, substream(STRUCTURE_SEED, 0, _MODEL))
    fam = random_targets(w.p, w.k, 1, substream(STRUCTURE_SEED, 0, _TARGETS))
    return [
        Inputs(dag, fam, sample(model, fam, w.n, substream(seed, r, _SAMPLE)))
        for r in range(REPLICATES)
    ]


def load(csv_path, span=lambda name, fn: fn) -> tuple[InterventionalDataset, TargetFamily]:
    """What `gieskit fit` does before learning: read the CSV, take the
    family from the row labels and check it against the rows. `span` wraps
    the two library calls when tracing."""
    data = span("scoring.read_csv", InterventionalDataset.read_csv)(csv_path)
    fam = TargetFamily(dict.fromkeys(data.targets))
    span("scoring.check_family", data.check_family)(fam)
    return data, fam


@dataclass
class Result:
    """A learner's output reduced to what the checks and metrics need."""

    graph: object  # Graph: essential graph for gies, DAG otherwise
    dag: Dag | None  # the returned DAG; None for gies
    score: float
    moves: list  # [phase, kind, u, v, sorted C] per step; arrows for dp


def run_learner(learner: str, data: InterventionalDataset, fam: TargetFamily) -> Result:
    """One learner call with default options (plus the move trace)."""
    if learner == "gies":
        r = gies(data, fam, GiesOptions(trace=True))
        return Result(r.graph.graph, None, r.score, _moves(r.trace))
    if learner == "gds":
        r = gds(data, fam, GiesOptions(trace=True))
        return Result(r.dag, r.dag, r.score, _moves(r.trace))
    if learner == "dp_exact":
        r = dp_exact(data, fam)
        return Result(r.dag, r.dag, r.score, [["dp", "arrow", a, b, []] for a, b in r.dag.arrows])
    raise ValueError(f"unknown learner {learner!r}")


def _moves(trace) -> list:
    return [[e.phase, e.kind, e.u, e.v, sorted(e.C)] for e in trace.entries]


def digest(moves: list) -> str:
    """Hash of the move sequence; float values stay out of it."""
    text = json.dumps(moves, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def recorded_digests() -> dict:
    """{workload: {seed: digest}} as recorded by record_digests.py."""
    return json.loads(DIGESTS_PATH.read_text())


def check(
    w: Workload,
    res: Result,
    inputs: Inputs,
    data: InterventionalDataset,
    fam: TargetFamily,
    expected_digest: str | None,
) -> list[str]:
    """Names of the failed correctness checks of one learner result. A
    result the checks cannot even evaluate (GraphError and ScoringError are
    ValueErrors) fails as "invalid"."""
    failed = []
    if expected_digest is not None and digest(res.moves) != expected_digest:
        failed.append("digest")
    try:
        if w.learner == "gies":
            if not is_essential_graph(res.graph, fam):
                failed.append("essential-graph")
            dag = representative(res.graph)
        else:
            dag = res.dag
        if not math.isclose(res.score, total_score(dag, data), rel_tol=SCORE_RTOL):
            failed.append("score")
        if w.learner == "dp_exact":
            floor = total_score(inputs.dag, data)
            if res.score < floor - SCORE_RTOL * abs(floor):
                failed.append("dp-below-truth")
    except ValueError:
        failed.append("invalid")
    return failed


def quality(res: Result, inputs: Inputs) -> dict:
    """BIC and structural distance of one result against the true DAG."""
    b = shd(res.graph, inputs.dag)
    tp = inputs.dag.num_edges - b.fn - b.wo
    # F1 of exactly matched edges: 1 iff shd == 0, 0 iff nothing matches
    denom = 2 * tp + b.fp + b.fn + 2 * b.wo
    return {"score": res.score, "shd": b.shd, "edge_f1": 2 * tp / denom if denom else 1.0}
