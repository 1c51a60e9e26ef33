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

Scores are computed in batches: `ScoreCache.fill` fits every missing (v, P)
key of a batch at once. A design is a (row set, P) pair, and every vertex
of the row set that regresses on P reads the same one, so a batch factors
each distinct design once and each of its keys reuses that factorization
for its own response column. The designs of one row set, parent-set size and
key count have one shape; they are cut into chunks of as many whole designs
as fit in `STACK_BUDGET`, and each chunk is one stacked QR and one solve.
A dataset stores its samples once, from construction, as the column-major
matrix the fits read (`X` is a read-only view of it), and a batch holds at
most one transient copy of the rows of one row set short of all rows, while
it fits that set. numpy makes the same LAPACK/BLAS call per stack member as
for a single matrix, so each score is bitwise the score of its own fit,
whatever batch it was computed in.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat, starmap
from typing import Iterable, Sequence

import numpy as np

from .graphs import Dag, Graph, _require_dag, _vertex_error
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


def _real_array(name: str, value: object) -> np.ndarray:
    """value as a float64 array, or ScoringError naming `name` and the dtype
    unless it holds booleans, integers or real floats (a complex part is not
    dropped, and a string is not parsed)."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise ScoringError(f"{name} must hold real numbers, got dtype {arr.dtype}")
    return arr.astype(np.float64, copy=False)


def _row_target(row: int, target: object) -> Target:
    """The target of a row (counted from 1) as a set, or ScoringError naming
    the row unless it is a collection of hashable ids."""
    try:
        return frozenset(target)
    except TypeError:
        raise ScoringError(f"row {row}: {target!r} is not a set of vertex ids") from None


class InterventionalDataset:
    """An n x p sample matrix plus one intervention target per row. The
    dataset holds the one copy of the samples it reads: a read-only p x n
    C-ordered matrix whose row j - 1 is column j of X, taken at
    construction. `X` is a view of it, not a copy.

    X must hold booleans, integers or real floats, and each row target must
    be a collection of vertex ids, else ScoringError naming the dtype or the
    row. Each distinct row target is checked once: a target vertex must be
    an integer id in 1..p, else ScoringError. A row target equal to an earlier
    one shares its set, so {True} after {1} is read as {1} (True == 1)."""

    def __init__(self, X: np.ndarray, targets: Sequence[Iterable[int]]):
        X = _real_array("X", X)
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
        rows = starmap(_row_target, enumerate(targets, 1))
        self.targets: tuple[Target, ...] = tuple(distinct.setdefault(t, t) for t in rows)
        for t in distinct:
            for v in t:
                why = _vertex_error(v, self.p)
                if why:
                    raise ScoringError(f"target vertex {why}")

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
            # one float64 buffer that doubles when full: no boxed float and
            # no small array per row (thousands of small blocks, once freed,
            # left a fresh process's heap slower for the fits that follow)
            X = np.empty((1024, p))
            # each distinct target cell is parsed once, with its first line
            targets, lines, parsed = [], [], {}
            for rec in r:
                if not rec:
                    continue
                if len(rec) != p + 1:
                    raise ScoringError(
                        f"line {r.line_num}: {len(rec)} fields, expected {p + 1}"
                    )
                if len(lines) == len(X):
                    X = np.concatenate([X, np.empty_like(X)])
                try:
                    X[len(lines)] = rec[:p]  # numpy parses each cell as float() does
                    cell = rec[p].strip()
                    if cell not in parsed:
                        ids = [int(v) for v in cell.split(";")] if cell else []
                        parsed[cell] = ids, r.line_num
                    targets.append(parsed[cell][0])
                except ValueError:
                    raise _cell_error(r.line_num, header, rec) from None
                lines.append(r.line_num)
            if not lines:
                raise ScoringError("no data rows after the header on line 1")
        X = X[: len(lines)]
        bad = np.argwhere(~np.isfinite(X))
        if bad.size:
            row, col = bad[0]
            raise NonFiniteData(
                f"line {lines[row]}, column {header[col]}: {X[row, col]} is not finite"
            )
        for ids, line in parsed.values():
            for why in filter(None, (_vertex_error(v, p) for v in ids)):
                raise ScoringError(f"line {line}, column target: target vertex {why}")
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
    `hits` only the local_score lookups served from the memo: the search
    reads the memo directly after its fill, uncounted. `rankings` holds
    the search's ranking of each (phase, max_degree) scored against this
    cache (search.best_move), so a ranking never meets other data, another
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
        missing key whose vertex or a parent is not an integer id in 1..p,
        or whose vertex is among its parents, raises ScoringError before any
        fit and is not memoized. Only missing keys are checked: a key equal
        to a memoized one is served from the memo, so (True, P) finds a
        memoized (1, P), since True == 1."""
        memo = self.memo
        missing = list(dict.fromkeys(key for key in keys if key not in memo))
        if not missing:
            return
        p = self.data.p
        sorted_keys = []
        for v, pa in missing:
            ids = (v, *pa)
            # ints in 1..p pass at once; any other id meets _vertex_error's rule
            fast = {int}.issuperset(map(type, ids)) and 0 < min(ids) and max(ids) <= p
            if not fast and any(map(_vertex_error, ids, repeat(p))) or v in pa:
                raise ScoringError(_bad_key(v, pa, p))
            sorted_keys.append((v, tuple(sorted(pa))))
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


def _bad_key(v: object, pa: frozenset, p: int) -> str:
    """Why a (vertex, parents) key names no local score on p vertices."""
    try:
        parents = sorted(pa)
    except TypeError:
        # ids of types that do not compare: order by repr, which, unlike
        # set order, does not follow string hashing
        parents = sorted(pa, key=repr)
    why = _vertex_error(v, p)
    if why:
        why = f"vertex {why}"
    else:
        bad = next(filter(None, map(_vertex_error, parents, repeat(p))), None)
        why = f"parent {bad}" if bad else f"vertex {v} is its own parent"
    return f"key (vertex {v}, parents {parents}): {why}"


#: Element budget of one stacked fit, in rows x (|P| + keys) per design:
#: the designs of one row set, parent-set size and key count are fitted in
#: chunks of as many whole designs as fit in this many entries of A and Y,
#: and at least one.
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

    A design is one (row set, parent set): the keys of all vertices that
    regress on it share one factorization, so each call factors each
    distinct design once. The designs of one row set, parent-set size k and
    key count r have one shape, and _fit_stack fits them in chunks of
    max(1, STACK_BUDGET // (n_v * (k + r))) designs from the dataset's
    column-major matrix (for a row set short of all rows, from a copy of
    those rows taken once per call and dropped when the set's keys are
    done)."""
    out: list[Fit | ScoringError | None] = [None] * len(keys)
    rows, group_of = data._row_groups
    # (row set, parent set): the keys of one design
    designs: dict[tuple[int, tuple[int, ...]], list[int]] = {}
    for i, (v, parents) in enumerate(keys):
        g = group_of[v - 1]
        n_v = rows[g].size
        k = len(parents)
        if n_v <= k + 1:
            out[i] = InsufficientSamples(
                f"vertex {v}: {n_v} usable rows cannot identify {k} coefficients"
            )
        else:
            designs.setdefault((g, parents), []).append(i)
    # row set -> (parent-set size, key count) -> its designs' key lists
    shapes: dict[int, dict[tuple[int, int], list[list[int]]]] = {}
    for (g, parents), members in designs.items():
        shapes.setdefault(g, {}).setdefault((len(parents), len(members)), []).append(members)
    for g, same_rows in shapes.items():
        n_v = rows[g].size
        XT = data._columns if n_v == data.n else data._columns.take(rows[g], axis=1)
        for (k, r), same in same_rows.items():
            size = max(1, STACK_BUDGET // (n_v * (k + r)))
            for lo in range(0, len(same), size):
                _fit_stack(XT, keys, same[lo : lo + size], out)
        del XT  # before the next set's copy is taken
    return out


def _fit_stack(
    XT: np.ndarray,
    keys: Sequence[tuple[int, tuple[int, ...]]],
    chunk: list[list[int]],
    out: list,
) -> None:
    """Fit one chunk of _fit: the designs whose keys' indices (into keys)
    `chunk` lists, all on the rows of XT, of one parent-set size and with
    equally many keys; each fit goes to out at its key's index. Row j - 1
    of XT holds column j of X over those rows, in C order.

    One QR factors every design of the chunk, and one solve on the factors,
    broadcast over the keys, fits them all, so no design is copied per key.
    numpy's stacked qr, solve and matmul make the same LAPACK/BLAS call per
    member, broadcast or not, as on one matrix: each key's result is
    bitwise the result of fitting it alone."""
    n_v = XT.shape[1]
    d, r = len(chunk), len(chunk[0])
    parents = [keys[members[0]][1] for members in chunk]
    k = len(parents[0])
    # key j of every design, for j = 0 .. r - 1: the order the response
    # rows are gathered in, so that Y reshapes to (r, d, n_v)
    order = [i for row in zip(*chunk) for i in row]
    # rows of XT are contiguous, so this gather copies whole rows
    Y = XT[[keys[i][0] - 1 for i in order]]
    fitted: list[tuple[np.ndarray, float] | None]
    if k == 0:
        fitted = [(np.empty(0), float(y @ y)) for y in Y]
    else:
        cols = np.array(parents) - 1
        # filled one parent column at a time: the designs must be C-ordered,
        # because a matmul on F-ordered members rounds differently
        A = np.empty((d, n_v, k))
        for j in range(k):
            A[:, :, j] = XT[cols[:, j]]
        Q, R = np.linalg.qr(A)
        diag = np.abs(np.diagonal(R, axis1=1, axis2=2))
        # strict, so a zero diagonal is singular even when RANK_RTOL times a
        # subnormal maximum underflows to zero
        good = diag.min(axis=1) > RANK_RTOL * diag.max(axis=1)
        Y = Y.reshape(r, d, n_v)
        # a rank-deficient member would fail solve for the whole chunk
        if not good.all():
            Q, R, A, Y = Q[good], R[good], A[good], Y[:, good]
        Yc = Y[..., None]
        coefs = np.linalg.solve(R, Q.transpose(0, 2, 1) @ Yc)
        resid = Yc - A @ coefs
        rss = (resid.swapaxes(2, 3) @ resid)[..., 0, 0]
        results = iter(zip(coefs.reshape(-1, k), rss.ravel().tolist()))
        fitted = [next(results) if ok else None for ok in list(good) * r]
    for i, fit in zip(order, fitted):
        v, pa = keys[i]
        if fit is None:
            out[i] = SingularDesign(
                f"vertex {v}: parent columns {sorted(pa)} are rank deficient"
            )
            continue
        coef, rss_v = fit
        # a non-finite coefficient leaves a non-finite residual, so one
        # check covers both
        if not math.isfinite(rss_v):
            out[i] = SingularDesign(
                f"vertex {v}: parent columns {sorted(pa)} give a non-finite fit"
            )
            continue
        sigma2 = rss_v / n_v
        if sigma2 < VARIANCE_FLOOR:
            out[i] = DegenerateFit(
                f"vertex {v}, parents {sorted(pa)}: residual variance "
                f"{sigma2:.3g} below {VARIANCE_FLOOR:g}: a column is numerically "
                "a linear function of others, or of negligible scale"
            )
            continue
        out[i] = (coef, sigma2, n_v)


def _bound_cache(
    data: InterventionalDataset, cache: ScoreCache | None, penalty: str | None = None
) -> ScoreCache:
    """The cache that scores a call on data: without a cache, a fresh one
    with the penalty ("total" if none is given); else the given cache. A
    cache bound to other data, or to a penalty other than a given one,
    raises ScoringError."""
    if cache is None:
        return ScoreCache(data, "total" if penalty is None else penalty)
    if cache.data is not data:
        raise ScoringError("cache is bound to a different dataset")
    if penalty is not None and penalty != cache.penalty:
        raise ScoringError(
            f"penalty {penalty!r} disagrees with the cache's penalty {cache.penalty!r}"
        )
    return cache


def local_score(
    v: int,
    parents: Iterable[int],
    data: InterventionalDataset,
    penalty: str | None = None,
    cache: ScoreCache | None = None,
) -> float:
    """BIC contribution of vertex v with the given parent set, scored
    through the cache _bound_cache picks. A key missing from the cache is
    scored by a fill of that one key."""
    cache = _bound_cache(data, cache, penalty)
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


def _check_dag(g: Graph, data: InterventionalDataset) -> None:
    """A DAG scored on data must have one vertex per column, and no line
    and no directed cycle (graphs._require_dag): else ScoringError."""
    _check_vertex_count(g, data)
    _require_dag(g, "scoring {}", ScoringError)


def total_score(
    d: Graph,
    data: InterventionalDataset,
    penalty: str | None = None,
    cache: ScoreCache | None = None,
) -> float:
    """Sum of local scores over all vertices of a fully directed acyclic
    graph: the BIC of the DAG, scored through the cache _bound_cache
    picks."""
    _check_dag(d, data)
    cache = _bound_cache(data, cache, penalty)
    return sum(local_score(v, d._pa[v], data, cache=cache) for v in d.vertices)


@dataclass
class GaussianModel:
    """Linear Gaussian structural model: each variable is a weighted sum of
    its parents plus independent noise. B[i][j] is the weight of parent j+1
    in the equation of variable i+1 and is zero off the parent sets. The
    weights must be finite and the error variances sigma2 positive and
    finite, else ScoringError."""

    dag: Dag
    B: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        p = self.dag.p
        self.B = _real_array("B", self.B)
        self.sigma2 = _real_array("sigma2", self.sigma2)
        if self.B.shape != (p, p):
            raise ScoringError(f"B must be {p} x {p}, got {self.B.shape}")
        if self.sigma2.shape != (p,):
            raise ScoringError(f"sigma2 must have length {p}")
        if not np.isfinite(self.B).all():
            raise ScoringError("B must be finite")
        if not (np.isfinite(self.sigma2) & (self.sigma2 > 0)).all():
            raise ScoringError("error variances must be positive and finite")
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
    DegenerateFit. d must be a DAG, as for total_score."""
    _check_dag(d, data)
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
