"""Structural Hamming distance and evaluation reports.

Two graphs are compared pair by pair: each unordered vertex pair whose edge
state differs (absent, line, or either arrow) contributes one count, split
into false positives (edge only in the estimate), false negatives (edge only
in the truth) and wrong orientations (edge in both, different kind or
direction; a line against an arrow counts here).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Dag, Graph, GraphError, _require_dag
from .interventions import TargetFamily, count_non_essential, essential_graph


class SizeMismatch(GraphError):
    """Graphs on different vertex counts cannot be compared."""


@dataclass(frozen=True)
class ShdBreakdown:
    """fp + fn + wo mismatching pairs between an estimate and a truth."""

    fp: int
    fn: int
    wo: int

    @property
    def shd(self) -> int:
        return self.fp + self.fn + self.wo

    def to_dict(self) -> dict:
        return {"shd": self.shd, "fp": self.fp, "fn": self.fn, "wo": self.wo}


def _pair_state(g: Graph, a: int, b: int) -> int:
    if g.has_line(a, b):
        return 1
    if g.has_arrow(a, b):
        return 2
    if g.has_arrow(b, a):
        return 3
    return 0


def shd(estimate: Graph, truth: Graph) -> ShdBreakdown:
    """Structural Hamming distance of estimate from truth."""
    if estimate.p != truth.p:
        raise SizeMismatch(f"{estimate.p} vs {truth.p} vertices")
    fp = fn = wo = 0
    for a, b in combinations(estimate.vertices, 2):
        s_est = _pair_state(estimate, a, b)
        s_tru = _pair_state(truth, a, b)
        if s_est == s_tru:
            continue
        if s_tru == 0:
            fp += 1
        elif s_est == 0:
            fn += 1
        else:
            wo += 1
    return ShdBreakdown(fp=fp, fn=fn, wo=wo)


@dataclass(frozen=True)
class EvaluationReport:
    """Distance of an estimate from a known truth, both against the DAG
    itself and against what is identifiable from the target family."""

    breakdown: ShdBreakdown
    shd_vs_essential: int
    non_essential_true: int

    def to_dict(self) -> dict:
        out = self.breakdown.to_dict()
        out["shd_vs_essential"] = self.shd_vs_essential
        out["non_essential_true"] = self.non_essential_true
        return out


def evaluate(estimate: Graph, truth: Dag, fam: TargetFamily) -> EvaluationReport:
    """Compare an estimated graph against the true DAG and against the true
    DAG's essential graph under fam (the identifiable part). A truth that
    is not a DAG raises GraphError naming its line or directed cycle."""
    _require_dag(truth, "evaluate {} in the truth")
    eg = essential_graph(truth, fam)
    return EvaluationReport(
        breakdown=shd(estimate, truth),
        shd_vs_essential=shd(estimate, eg.graph).shd,
        non_essential_true=count_non_essential(eg),
    )
