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

Scores are computed in batches: `ScoreCache.fill` fits every missing
(v, P) key of a batch at once, stacking the designs of one row set and
parent-set size into one QR. A dataset stores its samples once, from
construction, as the column-major matrix the fits read (`X` is a read-only
view of it), and a batch holds at most one transient copy of the rows of
one row set short of all rows, while it fits that set. numpy
makes the same LAPACK/BLAS call per stack member as for a single matrix,
so each score is bitwise the score of its own fit, whatever batch it was
computed in.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .graphs import Dag, Graph
from .interventions import Target, TargetFamily

#: A fit whose residual variance falls below this floor raises DegenerateFit.
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
    """A fit left a residual variance below VARIANCE_FLOOR. Its log would
    outweigh every other term, and a score clamped at the floor is no
    longer equal on equivalent DAGs, so no score is returned for it."""


class FamilyMismatch(ScoringError):
    """The row targets and the target family do not name the same sets."""


#: The errors of a parent set that cannot be fitted. Learners skip such a
#: set; every other ScoringError stops them.
UNFITTABLE = (InsufficientSamples, SingularDesign)


class InterventionalDataset:
    """An n x p sample matrix plus one intervention target per row. The
    dataset holds the one copy of the samples it reads: a read-only p x n
    C-ordered matrix whose row j - 1 is column j of X, taken at
    construction. `X` is a view of it, not a copy."""

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
        # an own, read-only copy, so no caller can write under the fits
        self._columns = np.array(X.T, order="C")
        self._columns.flags.writeable = False
        # rows share their target's frozenset; each distinct target is checked once
        distinct: dict[Target, Target] = {}
        self.targets: tuple[Target, ...] = tuple(
            distinct.setdefault(t, t) for t in map(frozenset, targets)
        )
        for t in distinct:
            for v in t:
                if not 1 <= v <= self.p:
                    raise ScoringError(f"target vertex {v} outside 1..{self.p}")

    @property
    def X(self) -> np.ndarray:
        """The n x p sample matrix: a read-only view of the column-major copy."""
        return self._columns.T

    @property
    def n(self) -> int:
        return self._columns.shape[1]

    @property
    def p(self) -> int:
        return self._columns.shape[0]

    def rows_excluding(self, v: int) -> np.ndarray:
        """Indices of rows whose target does not contain v. Vertices with
        the same such rows share one array."""
        rows, group_of = self._row_groups
        return rows[group_of[v - 1]]

    @cached_property
    def _row_groups(self) -> tuple[list[np.ndarray], list[int]]:
        """The distinct sets of rows excluding a vertex, and the index of
        vertex v's set at position v - 1. Two vertices have the same rows
        iff the same distinct row targets contain them, since each distinct
        target labels at least one row."""
        index: dict[Target, int] = {}
        codes = np.fromiter(
            (index.setdefault(t, len(index)) for t in self.targets), np.intp, self.n
        )
        # contains[i, v - 1]: the i-th distinct target contains v
        contains = np.zeros((len(index), self.p), dtype=bool)
        for i, t in enumerate(index):
            contains[i, [v - 1 for v in t]] = True
        seen: dict[bytes, int] = {}
        rows: list[np.ndarray] = []
        group_of = []
        for col in contains.T:
            g = seen.setdefault(col.tobytes(), len(seen))
            if g == len(rows):
                rows.append(np.flatnonzero(~col[codes]))
            group_of.append(g)
        return rows, group_of

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
        equal to an earlier one, which fit each other exactly: both would
        stop a learner at its first exact fit with DegenerateFit."""
        cols = self._columns + 0.0  # adding 0.0 turns -0.0 into 0.0
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
        """The same samples relabelled as purely observational: a dataset
        that shares this one's read-only sample matrix, labels every row
        with the one empty target and finds its own row sets."""
        erased = InterventionalDataset.__new__(InterventionalDataset)
        erased._columns = self._columns
        erased.targets = (frozenset(),) * self.n
        return erased

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
    dataset. A key that cannot be scored keeps its error, so a later lookup
    raises it again without a refit. `misses` counts the keys scored,
    `hits` the lookups served from the memo. `rankings` holds the search's
    ranking of each (phase, max_degree) scored against this cache
    (search.best_move), so a ranking never meets other data, another
    penalty or another vertex count."""

    def __init__(self, data: InterventionalDataset, penalty: str = "total"):
        if penalty not in ("total", "per-node"):
            raise ScoringError(f"unknown penalty mode {penalty!r}")
        self.data = data
        self.penalty = penalty
        self.memo: dict[tuple[int, frozenset[int]], float | ScoringError] = {}
        self.rankings: dict[tuple[str, int | None], object] = {}
        self.hits = 0
        self.misses = 0

    def fill(self, keys: Iterable[tuple[int, frozenset[int]]]) -> None:
        """Score every key missing from the memo, in one stacked fit. A
        missing key whose vertex or a parent lies outside 1..p, or whose
        vertex is among its parents, raises ScoringError before any fit and
        is not memoized."""
        memo = self.memo
        missing = list(dict.fromkeys(key for key in keys if key not in memo))
        if not missing:
            return
        p = self.data.p
        sorted_keys = []
        for v, pa in missing:
            parents = tuple(sorted(pa))
            if not 1 <= v <= p or v in pa or parents and not (
                1 <= parents[0] and parents[-1] <= p
            ):
                raise ScoringError(_bad_key(v, parents, p))
            sorted_keys.append((v, parents))
        self.misses += len(missing)
        fits = _fit(self.data, sorted_keys)
        n = self.data.n
        for (v, pa), fit in zip(missing, fits):
            if isinstance(fit, ScoringError):
                memo[v, pa] = fit
                continue
            _, sigma2, n_v = fit
            n_pen = n if self.penalty == "total" else n_v
            score = -0.5 * n_v * (np.log(sigma2) + 1.0) - 0.5 * (1 + len(pa)) * np.log(n_pen)
            memo[v, pa] = float(score)


def _bad_key(v: int, parents: tuple[int, ...], p: int) -> str:
    """Why a (vertex, sorted parents) key names no local score on p vertices."""
    if not 1 <= v <= p:
        why = f"vertex {v} outside 1..{p}"
    elif v in parents:
        why = f"vertex {v} is its own parent"
    else:
        why = f"parent {min(u for u in parents if not 1 <= u <= p)} outside 1..{p}"
    return f"key (vertex {v}, parents {list(parents)}): {why}"


#: Element budget of one stacked fit: the parent sets of one size on one row
#: set are fitted in chunks of at most this many design entries (members
#: x rows x parents), and of at least one member.
STACK_BUDGET = 32768

Fit = tuple[np.ndarray, float, int]


# numpy's warnings are off: the finite check names what they would flag
@np.errstate(all="ignore")
def _fit(
    data: InterventionalDataset, keys: Sequence[tuple[int, tuple[int, ...]]]
) -> list[Fit | ScoringError]:
    """No-intercept least squares of column v on the parent columns over the
    rows not intervening on v, for every (v, parents) key; returns per key
    (coefficients, residual variance RSS/n_v, row count n_v), or the error
    of a key that cannot be scored: an UNFITTABLE error, or DegenerateFit
    for a variance below VARIANCE_FLOOR.

    Keys of one row set and parent-set size are fitted together, by QR on a
    stack of designs gathered from the dataset's column-major matrix (for
    a row set short of all rows, from a copy of those rows taken once
    per call and dropped when the set's keys are done). numpy's stacked
    qr, solve and matmul make the same LAPACK/BLAS call per member as on
    one matrix, so each member's result is bitwise the result of fitting it
    alone."""
    out: list[Fit | ScoringError | None] = [None] * len(keys)
    rows, group_of = data._row_groups
    groups: dict[int, dict[int, list[int]]] = {}
    for i, (v, parents) in enumerate(keys):
        g = group_of[v - 1]
        n_v = rows[g].size
        k = len(parents)
        if n_v <= k + 1:
            out[i] = InsufficientSamples(
                f"vertex {v}: {n_v} usable rows cannot identify {k} coefficients"
            )
        else:
            groups.setdefault(g, {}).setdefault(k, []).append(i)
    for g, sizes in groups.items():
        n_v = rows[g].size
        XT = data._columns if n_v == data.n else data._columns.take(rows[g], axis=1)
        for k, members in sizes.items():
            step = max(1, STACK_BUDGET // (n_v * max(k, 1)))
            for start in range(0, len(members), step):
                chunk = members[start : start + step]
                fits = _fit_stack(XT, [keys[i] for i in chunk])
                for i, fit in zip(chunk, fits):
                    out[i] = fit
        del XT  # before the next set's copy is taken
    return out


def _fit_stack(
    XT: np.ndarray, keys: list[tuple[int, tuple[int, ...]]]
) -> list[Fit | ScoringError]:
    """_fit of keys that share their rows and the parent-set size; row
    j - 1 of XT holds column j of X over those rows, in C order."""
    n_v = XT.shape[1]
    # rows of XT are contiguous, so these gathers copy whole rows; the
    # designs must be C-ordered, because a matmul on F-ordered members
    # rounds differently
    Y = XT[[v - 1 for v, _ in keys]]
    if len(keys[0][1]) == 0:
        full_rank = [True] * len(keys)
        fitted = ((np.empty(0), float(y @ y)) for y in Y)
    else:
        cols = np.array([parents for _, parents in keys]) - 1
        A = np.ascontiguousarray(XT[cols].transpose(0, 2, 1))
        Q, R = np.linalg.qr(A)
        diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
        dmax = diag.max(axis=1)
        full_rank = (dmax != 0.0) & ~(diag.min(axis=1) < RANK_RTOL * dmax)
        # a rank-deficient member would fail solve for the whole stack
        if not full_rank.all():
            Q, R, A, Y = Q[full_rank], R[full_rank], A[full_rank], Y[full_rank]
        Yc = Y[:, :, None]
        coefs = np.linalg.solve(R, Q.transpose(0, 2, 1) @ Yc)
        resid = Yc - A @ coefs
        rss = (resid.transpose(0, 2, 1) @ resid)[:, 0, 0]
        fitted = zip(coefs[:, :, 0], rss.tolist())
    out: list[Fit | ScoringError] = []
    for (v, parents), good in zip(keys, full_rank):
        if not good:
            out.append(SingularDesign(
                f"vertex {v}: parent columns {sorted(parents)} are rank deficient"
            ))
            continue
        coef, rss_v = next(fitted)
        # a non-finite coefficient leaves a non-finite residual, so one
        # check covers both
        if not math.isfinite(rss_v):
            out.append(SingularDesign(
                f"vertex {v}: parent columns {sorted(parents)} give a non-finite fit"
            ))
            continue
        sigma2 = rss_v / n_v
        if sigma2 < VARIANCE_FLOOR:
            out.append(DegenerateFit(
                f"vertex {v}, parents {sorted(parents)}: residual variance "
                f"{sigma2:.3g} below {VARIANCE_FLOOR:g}: a column is numerically "
                "a linear function of others, or of negligible scale"
            ))
            continue
        out.append((coef, sigma2, n_v))
    return out


def local_score(
    v: int,
    parents: Iterable[int],
    data: InterventionalDataset,
    penalty: str = "total",
    cache: ScoreCache | None = None,
) -> float:
    """BIC contribution of vertex v with the given parent set. A cache
    fixes the penalty mode, and `penalty` is then not read. A key missing
    from the cache is scored by a fill of that one key."""
    if cache is None:
        cache = ScoreCache(data, penalty)
    elif cache.data is not data:
        raise ScoringError("cache is bound to a different dataset")
    key = (v, frozenset(parents))
    got = cache.memo.get(key)
    if got is None:
        cache.fill((key,))
        got = cache.memo[key]
    else:
        cache.hits += 1
    if isinstance(got, ScoringError):
        # a copy, so the memo holds no traceback and the frames it keeps
        raise type(got)(*got.args)
    return got


def _check_vertex_count(g: Graph, data: InterventionalDataset) -> None:
    """A graph scored on data must have one vertex per column."""
    if g.p != data.p:
        raise ScoringError(f"graph has {g.p} vertices, data has {data.p}")


def total_score(
    d: Graph,
    data: InterventionalDataset,
    penalty: str = "total",
    cache: ScoreCache | None = None,
) -> float:
    """Sum of local scores over all vertices of a fully directed acyclic
    graph: the BIC of the DAG."""
    _check_vertex_count(d, data)
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
    """Maximum-likelihood weights and error variances of d on the data,
    from the fits the score uses: a variance below VARIANCE_FLOOR raises
    DegenerateFit."""
    _check_vertex_count(d, data)
    p = d.p
    B = np.zeros((p, p))
    sigma2 = np.zeros(p)
    keys = [(v, tuple(sorted(d._pa[v]))) for v in d.vertices]
    for (v, parents), fit in zip(keys, _fit(data, keys)):
        if isinstance(fit, ScoringError):
            raise fit
        coef, sigma2[v - 1], _ = fit
        for u, c in zip(parents, coef):
            B[v - 1, u - 1] = c
    return GaussianModel(dag=d, B=B, sigma2=sigma2)
