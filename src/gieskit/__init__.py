"""Causal DAG structure learning from observational and interventional data.

Graphs with arrows and lines, interventional Markov equivalence and
essential graphs, a decomposable Gaussian likelihood score, greedy search
over equivalence classes and over DAGs, an exact exponential-time
optimizer, a simulation suite and structural evaluation metrics.
"""

from .baselines import DagSearchResult, DpResult, TooLarge, dp_exact, gds, ges
from .graphs import (
    ChainGraph,
    Dag,
    DirectedCycle,
    Graph,
    GraphError,
    NotALine,
    NotAnArrow,
    NotAnEdge,
    NotUndirected,
    VerticesAdjacent,
    as_chain_graph,
    chain_components,
    component_of,
    cliques_in_neighborhood,
    has_path,
    is_acyclic,
    is_chordal,
    is_perfect_elimination,
    lexbfs,
    orient_by,
    skeleton,
    topological_order,
    v_structures,
)
from .interventions import (
    OBSERVATIONAL,
    EssentialGraph,
    EssentialityReport,
    NonConservativeFamily,
    TargetFamily,
    TooManyRepresentatives,
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
from .metrics import EvaluationReport, ShdBreakdown, SizeMismatch, evaluate, shd
from .scoring import (
    DegenerateColumns,
    DegenerateFit,
    FamilyMismatch,
    GaussianModel,
    InsufficientSamples,
    InterventionalDataset,
    NonFiniteData,
    ScoreCache,
    ScoringError,
    SingularDesign,
    local_score,
    mle_params,
    total_score,
)
from .search import (
    GiesOptions,
    InvalidMove,
    MoveCandidate,
    MoveKind,
    SearchResult,
    SearchTrace,
    TraceEntry,
    apply_move,
    best_move,
    gies,
    move_delta,
    valid_move,
)
from .simulate import (
    InfeasibleTargets,
    InvalidSimConfig,
    SimConfig,
    SimResult,
    random_dag,
    random_model,
    random_targets,
    sample,
    simulate,
    substream,
)

__version__ = "0.1.0"

__all__ = [
    "ChainGraph", "Dag", "DirectedCycle", "Graph", "GraphError",
    "NotALine", "NotAnArrow", "NotAnEdge", "NotUndirected",
    "VerticesAdjacent", "as_chain_graph", "chain_components", "component_of",
    "cliques_in_neighborhood", "has_path", "is_acyclic", "is_chordal",
    "is_perfect_elimination", "lexbfs", "orient_by", "skeleton",
    "topological_order", "v_structures",
    "OBSERVATIONAL", "EssentialGraph", "EssentialityReport",
    "NonConservativeFamily", "TargetFamily", "TooManyRepresentatives",
    "count_non_essential", "enumerate_representatives", "essential_graph",
    "intervention_graph", "is_essential_graph", "markov_equivalent",
    "replace_unprotected", "representative", "strongly_protected",
    "EvaluationReport", "ShdBreakdown", "SizeMismatch", "evaluate", "shd",
    "DegenerateColumns", "DegenerateFit", "FamilyMismatch", "GaussianModel",
    "InsufficientSamples", "InterventionalDataset", "NonFiniteData",
    "ScoreCache", "ScoringError", "SingularDesign", "local_score",
    "mle_params", "total_score",
    "GiesOptions", "InvalidMove", "MoveCandidate", "MoveKind",
    "SearchResult", "SearchTrace", "TraceEntry",
    "apply_move", "best_move", "gies", "move_delta", "valid_move",
    "DagSearchResult", "DpResult", "TooLarge", "dp_exact", "gds", "ges",
    "InfeasibleTargets", "InvalidSimConfig", "SimConfig", "SimResult",
    "random_dag", "random_model", "random_targets", "sample", "simulate",
    "substream",
    "__version__",
]
