"""Gaussian BIC scoring of DAGs on mixed observational and interventional
data.

Each sample row carries the set of vertices that were intervened on when it
was drawn (empty set: observational). A variable's mechanism is only
informative in rows where the variable itself was not intervened on, so the
local score of vertex v regresses column v on its parent columns over
exactly those rows, without intercept:

    s(v, P) = -n_v/2 * (log(RSS/n_v) + 1) - (1 + |P|)/2 * log(n)

with n_v the number of usable rows and RSS the residual sum of squares.
Summed over vertices this is the maximized log-likelihood minus
(p + #edges)/2 * log(n): the BIC. The score is decomposable and assigns
equal values to equivalent DAGs, which is what the greedy search exploits.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .graphs import Dag, Graph
from .interventions import Target, TargetFamily

log = logging.getLogger(__name__)

#: Error variances are clamped to this floor before taking logs.
VARIANCE_FLOOR = 1e-12

#: Relative tolerance on QR diagonals below which a design is singular.
RANK_RTOL = 1e-10


class ScoringError(ValueError):
    """Invalid scoring input."""


class InsufficientSamples(ScoringError):
    """Too few usable rows to fit the requested regression."""


class SingularDesign(ScoringError):
    """Parent columns are (numerically) linearly dependent."""


class NonFiniteData(ScoringError):
    """The sample matrix holds a NaN or infinite value."""


class DegenerateColumns(ScoringError):
    """A sample column is constant or repeats another column."""


class DegenerateFit(ScoringError):
    """A learner's fit left a residual variance below VARIANCE_FLOOR."""


class FamilyMismatch(ScoringError):
    """The row targets and the target family do not name the same sets."""


class InterventionalDataset:
    """An n x p sample matrix plus one intervention target per row."""

    def __init__(self, X: np.ndarray, targets: Sequence[Iterable[int]]):
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ScoringError(f"X must be 2-dimensional, got shape {X.shape}")
        if len(targets) != X.shape[0]:
            raise ScoringError(
                f"{len(targets)} row targets for {X.shape[0]} rows"
            )
        if not np.isfinite(X).all():
            row, col = np.argwhere(~np.isfinite(X))[0]
            raise NonFiniteData(f"{X[row, col]} in row {row + 1}, column x{col + 1}")
        # a finite sum of squares bounds every residual sum of squares
        with np.errstate(over="ignore"):
            squares = np.einsum("ij,ij->j", X, X)
        if not np.isfinite(squares).all():
            col = np.flatnonzero(~np.isfinite(squares))[0]
            raise NonFiniteData(f"the sum of squares of column x{col + 1} overflows")
        self.X = np.ascontiguousarray(X)
        self.targets: tuple[Target, ...] = tuple(frozenset(t) for t in targets)
        for t in self.targets:
            for v in t:
                if not 1 <= v <= self.p:
                    raise ScoringError(f"target vertex {v} outside 1..{self.p}")
        self._rows_excluding: dict[int, np.ndarray] = {}

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def rows_excluding(self, v: int) -> np.ndarray:
        """Indices of rows whose target does not contain v."""
        got = self._rows_excluding.get(v)
        if got is None:
            got = np.array(
                [i for i, t in enumerate(self.targets) if v not in t],
                dtype=np.intp,
            )
            self._rows_excluding[v] = got
        return got

    def check_family(self, fam: TargetFamily) -> None:
        """Every row label must be a family member and every member must
        label at least one row."""
        members = set(fam.unique)
        seen = set(self.targets)
        stray = seen - members
        if stray:
            raise FamilyMismatch(
                f"row targets {sorted(map(sorted, stray))} not in the family"
            )
        missing = members - seen
        if missing:
            raise FamilyMismatch(
                f"family members {sorted(map(sorted, missing))} label no row"
            )

    def check_columns(self) -> None:
        """Reject constant columns, which carry no information about any
        mechanism (a zero column fits exactly with no parents), and columns
        equal to an earlier one, which fit each other exactly: the clamped
        zero residual variance of an exact fit outweighs every other term
        of the score."""
        cols = self.X.T + 0.0  # adding 0.0 turns -0.0 into 0.0
        constant = [f"x{j}" for j, c in enumerate(cols, 1) if (c == c[:1]).all()]
        if constant:
            raise DegenerateColumns(f"constant columns: {', '.join(constant)}")
        first: dict[bytes, int] = {}
        repeats = []
        for j, c in enumerate(cols, 1):
            i = first.setdefault(c.tobytes(), j)
            if i != j:
                repeats.append(f"x{j} = x{i}")
        if repeats:
            raise DegenerateColumns(f"duplicated columns: {', '.join(repeats)}")

    def erase_targets(self) -> "InterventionalDataset":
        """The same samples relabelled as purely observational."""
        return InterventionalDataset(self.X, [()] * self.n)

    # -- CSV: header x1..xp,target; target "" or semicolon-joined ids --

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"x{j}" for j in range(1, self.p + 1)] + ["target"])
            for row, t in zip(self.X, self.targets):
                w.writerow([repr(float(x)) for x in row] + [";".join(map(str, sorted(t)))])

    @classmethod
    def read_csv(cls, path) -> "InterventionalDataset":
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            header = next(r, [])
            if not header or header[-1] != "target":
                raise ScoringError("line 1: last CSV column must be 'target'")
            p = len(header) - 1
            if header[:-1] != [f"x{j}" for j in range(1, p + 1)]:
                raise ScoringError("line 1: CSV columns must be x1..xp,target")
            rows, targets, lines = [], [], []
            for rec in r:
                if not rec:
                    continue
                if len(rec) != p + 1:
                    raise ScoringError(
                        f"line {r.line_num}: {len(rec)} fields, expected {p + 1}"
                    )
                try:
                    rows.append([float(x) for x in rec[:p]])
                    cell = rec[p].strip()
                    targets.append([int(v) for v in cell.split(";")] if cell else [])
                except ValueError:
                    raise _cell_error(r.line_num, header, rec) from None
                lines.append(r.line_num)
            if not rows:
                raise ScoringError("no data rows after the header on line 1")
        X = np.asarray(rows, dtype=np.float64)
        bad = np.argwhere(~np.isfinite(X))
        if bad.size:
            row, col = bad[0]
            raise NonFiniteData(
                f"line {lines[row]}, column {header[col]}: {X[row, col]} is not finite"
            )
        return cls(X, targets)


def _cell_error(line: int, header: list[str], rec: list[str]) -> ScoringError:
    """The error naming the first cell of a CSV record that does not parse."""
    for column, cell in zip(header[:-1], rec):
        try:
            float(cell)
        except ValueError:
            return ScoringError(
                f"line {line}, column {column}: {cell!r} is not a number"
            )
    return ScoringError(
        f"line {line}, column target: {rec[-1]!r} is not a ';'-joined vertex list"
    )


class ScoreCache:
    """Memo of local scores keyed by (vertex, parent set), bound to one
    dataset; also accumulates scoring diagnostics."""

    def __init__(self, data: InterventionalDataset, penalty: str = "total"):
        if penalty not in ("total", "per-node"):
            raise ScoringError(f"unknown penalty mode {penalty!r}")
        self.data = data
        self.penalty = penalty
        self.memo: dict[tuple[int, frozenset[int]], float] = {}
        self.hits = 0
        self.misses = 0
        self.variance_clamps = 0

    def check_clamps(self) -> None:
        """Raise DegenerateFit once some fit has been clamped. A clamped
        score is no longer equal on equivalent DAGs, so a class-space search
        could accept a move and its reverse forever, and any learner would
        rank graphs by the floor instead of the data."""
        if self.variance_clamps:
            raise DegenerateFit(
                f"residual variance below {VARIANCE_FLOOR:g} in "
                f"{self.variance_clamps} fit(s), each logged with its vertex: a "
                "column is numerically a linear function of others, or of "
                "negligible scale"
            )


def _fit(
    data: InterventionalDataset, v: int, parents: tuple[int, ...]
) -> tuple[np.ndarray, float, int]:
    """No-intercept least squares of column v on the parent columns over the
    rows not intervening on v; returns (coefficients, RSS, row count)."""
    rows = data.rows_excluding(v)
    n_v = rows.size
    k = len(parents)
    if n_v <= k + 1:
        raise InsufficientSamples(
            f"vertex {v}: {n_v} usable rows cannot identify {k} coefficients"
        )
    y = data.X[rows, v - 1]
    if k == 0:
        return np.empty(0), float(y @ y), n_v
    A = data.X[np.ix_(rows, [u - 1 for u in parents])]
    Q, R = np.linalg.qr(A)
    diag = np.abs(np.diag(R))
    if diag.max() == 0.0 or diag.min() < RANK_RTOL * diag.max():
        raise SingularDesign(
            f"vertex {v}: parent columns {sorted(parents)} are rank deficient"
        )
    coef = np.linalg.solve(R, Q.T @ y)
    resid = y - A @ coef
    return coef, float(resid @ resid), n_v


def local_score(
    v: int,
    parents: Iterable[int],
    data: InterventionalDataset,
    penalty: str = "total",
    cache: ScoreCache | None = None,
) -> float:
    """BIC contribution of vertex v with the given parent set. A cache
    fixes the penalty mode, and `penalty` is then not read."""
    if cache is None:
        cache = ScoreCache(data, penalty)
    elif cache.data is not data:
        raise ScoringError("cache is bound to a different dataset")
    pa = frozenset(parents)
    got = cache.memo.get((v, pa))
    if got is not None:
        cache.hits += 1
        return got
    cache.misses += 1
    _, rss, n_v = _fit(data, v, tuple(sorted(pa)))
    sigma2 = rss / n_v
    if sigma2 < VARIANCE_FLOOR:
        sigma2 = VARIANCE_FLOOR
        cache.variance_clamps += 1
        log.warning("vertex %d: residual variance clamped to %g", v, VARIANCE_FLOOR)
    n_pen = data.n if cache.penalty == "total" else n_v
    score = -0.5 * n_v * (np.log(sigma2) + 1.0) - 0.5 * (1 + len(pa)) * np.log(n_pen)
    score = float(score)
    cache.memo[(v, pa)] = score
    return score


def total_score(
    d: Graph,
    data: InterventionalDataset,
    penalty: str = "total",
    cache: ScoreCache | None = None,
) -> float:
    """Sum of local scores over all vertices of a fully directed acyclic
    graph: the BIC of the DAG."""
    if d.p != data.p:
        raise ScoringError(f"graph has {d.p} vertices, data has {data.p}")
    if d.num_lines:
        raise ScoringError("total_score requires a fully directed graph")
    return sum(
        local_score(v, d._pa[v], data, penalty=penalty, cache=cache)
        for v in d.vertices
    )


@dataclass
class GaussianModel:
    """Linear Gaussian structural model: each variable is a weighted sum of
    its parents plus independent noise. B[i][j] is the weight of parent j+1
    in the equation of variable i+1 and is zero off the parent sets."""

    dag: Dag
    B: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        p = self.dag.p
        self.B = np.asarray(self.B, dtype=np.float64)
        self.sigma2 = np.asarray(self.sigma2, dtype=np.float64)
        if self.B.shape != (p, p):
            raise ScoringError(f"B must be {p} x {p}, got {self.B.shape}")
        if self.sigma2.shape != (p,):
            raise ScoringError(f"sigma2 must have length {p}")
        if np.any(self.sigma2 <= 0):
            raise ScoringError("error variances must be positive")
        for i in range(p):
            for j in range(p):
                if self.B[i, j] != 0.0 and not self.dag.has_arrow(j + 1, i + 1):
                    raise ScoringError(
                        f"B[{i}][{j}] nonzero but {j + 1} is not a parent of {i + 1}"
                    )

    def covariance(self) -> np.ndarray:
        p = self.dag.p
        inv = np.linalg.inv(np.eye(p) - self.B)
        return inv @ np.diag(self.sigma2) @ inv.T


def mle_params(d: Dag, data: InterventionalDataset) -> GaussianModel:
    """Maximum-likelihood weights and error variances of d on the data.
    Variances are clamped at the floor used by the score."""
    if d.p != data.p:
        raise ScoringError(f"graph has {d.p} vertices, data has {data.p}")
    p = d.p
    B = np.zeros((p, p))
    sigma2 = np.zeros(p)
    for v in d.vertices:
        parents = tuple(sorted(d._pa[v]))
        coef, rss, n_v = _fit(data, v, parents)
        for u, c in zip(parents, coef):
            B[v - 1, u - 1] = c
        sigma2[v - 1] = max(rss / n_v, VARIANCE_FLOOR)
    return GaussianModel(dag=d, B=B, sigma2=sigma2)
