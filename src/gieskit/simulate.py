"""Random linear Gaussian models and mixed observational/interventional
samples for benchmarking structure learners.

The generator draws a DAG with independent forward edges on a random vertex
order, weights bounded away from zero, and error variances that are then
rescaled so every variable has unit marginal variance. Interventions replace
a variable by an independent draw concentrated around a nonzero level, so an
intervened variable keeps a comparable scale but carries no signal about its
own mechanism.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import comb, inf
from numbers import Real

import numpy as np

from .graphs import Dag, _check_limit, topological_order
from .interventions import TargetFamily
from .scoring import GaussianModel, InterventionalDataset

RNG_ALGORITHM = "philox"

# substream purposes
_DAG, _MODEL, _TARGETS, _SAMPLE = 0, 1, 2, 3


class InfeasibleTargets(ValueError):
    """Too few distinct targets of the requested size exist, or too few
    samples to give every target a row."""


class InvalidSimConfig(ValueError):
    """A scenario parameter lies outside its range; the message names it."""


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent counter-based generator for (seed, path). Streams with
    different paths never overlap, so replicates can run in any order or in
    parallel with identical results."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=tuple(path)))
    )


@dataclass(frozen=True)
class SimConfig:
    """Scenario description; equal configs with equal seeds reproduce
    bit-identical outputs.

    p: vertex count (>= 1); s: forward-edge probability (in [0, 1]); k:
    number of interventional targets besides the observational one; m:
    intervened vertices per target; n: total sample count; level_mean,
    level_sd: mean (finite) and standard deviation (finite, >= 0) of an
    intervened variable; seed: RNG seed (>= 0). An out-of-range p, s,
    level_mean, level_sd or seed, a p, k, m, n or seed that is not an
    integer, or an s, level_mean or level_sd that is not a real number (a
    bool is neither), raises InvalidSimConfig naming it.
    """

    p: int
    s: float
    k: int
    m: int
    n: int
    level_mean: float = 2.0
    level_sd: float = 0.2
    seed: int = 0

    def __post_init__(self):
        for name, least in (("p", 1), ("k", None), ("m", None), ("n", None), ("seed", 0)):
            _check_limit(name, getattr(self, name), least, InvalidSimConfig)
        for name, low, high in (("s", 0, 1), ("level_mean", -inf, inf), ("level_sd", 0, inf)):
            _check_real(name, getattr(self, name), low, high)


def _check_real(name: str, value: object, low: float = -inf, high: float = inf) -> None:
    """Raise InvalidSimConfig naming `name` unless value is a real number (a
    bool is not one, as under _is_integer's rule) in [low, high] that a
    finite float can hold."""
    real = isinstance(value, Real) and not isinstance(value, bool)
    # NaN fails every comparison; a Python float compares exactly with any int
    if not (real and low <= value <= high and abs(value) <= float(np.finfo(float).max)):
        raise InvalidSimConfig(f"{name} must be a finite number in [{low}, {high}], got {value!r}")


def random_dag(p: int, s: float, rng: np.random.Generator) -> Dag:
    """DAG with each forward edge of a uniformly shuffled vertex order
    present independently with probability s. A p that is not an integer
    >= 1, or an s that is not a real number in [0, 1], raises
    InvalidSimConfig as SimConfig does."""
    _check_limit("p", p, 1, InvalidSimConfig)
    _check_real("s", s, 0, 1)
    forward = [
        (i, j)
        for i in range(1, p + 1)
        for j in range(i + 1, p + 1)
        if rng.random() < s
    ]
    relabel = {i + 1: int(v) + 1 for i, v in enumerate(rng.permutation(p))}
    return Dag(p, arrows=[(relabel[a], relabel[b]) for a, b in forward])


def random_model(dag: Dag, rng: np.random.Generator) -> GaussianModel:
    """Weights uniform on +-[0.1, 1], raw variances uniform on [0.5, 1],
    rescaled so the implied covariance has unit diagonal."""
    p = dag.p
    B = np.zeros((p, p))
    for a, b in sorted(dag.arrows):
        weight = rng.uniform(0.1, 1.0) * (1.0 if rng.random() < 0.5 else -1.0)
        B[b - 1, a - 1] = weight
    sigma2 = rng.uniform(0.5, 1.0, size=p)
    scale = np.sqrt(np.diag(GaussianModel(dag, B, sigma2).covariance()))
    B = B * scale[np.newaxis, :] / scale[:, np.newaxis]
    sigma2 = sigma2 / scale**2
    return GaussianModel(dag=dag, B=B, sigma2=sigma2)


def random_targets(
    p: int, k: int, m: int, rng: np.random.Generator
) -> TargetFamily:
    """The observational target plus k distinct uniformly drawn targets of
    size m. The only target of size 0 is the observational one, so k > 0
    needs m > 0. A p that is not an integer >= 1, or a k or m that is not
    an integer, raises InvalidSimConfig."""
    for name, value, least in (("p", p, 1), ("k", k, None), ("m", m, None)):
        _check_limit(name, value, least, InvalidSimConfig)
    if k < 0 or m < 0 or (k > 0 and (m == 0 or m > p or comb(p, m) < k)):
        raise InfeasibleTargets(
            f"cannot draw {k} distinct targets of size {m} besides the "
            f"observational one from {p} vertices"
        )
    targets: list[list[int]] = [[]]
    seen: set[frozenset[int]] = set()
    attempts = 0
    while len(seen) < k:
        attempts += 1
        if attempts > 10_000 * max(k, 1):
            raise InfeasibleTargets(
                f"rejection sampling stalled at {len(seen)}/{k} targets"
            )
        t = frozenset(int(v) + 1 for v in rng.choice(p, size=m, replace=False))
        if t not in seen:
            seen.add(t)
            targets.append(sorted(t))
    return TargetFamily(targets)


def sample(
    model: GaussianModel,
    fam: TargetFamily,
    n: int,
    rng: np.random.Generator,
    level_mean: float = 2.0,
    level_sd: float = 0.2,
) -> InterventionalDataset:
    """n rows allocated round-robin over the family (row i gets member
    i mod len(fam), so group sizes differ by at most one, and n must reach
    len(fam) so that every member labels a row). Each group is
    generated in topological order; intervened coordinates are independent
    draws from N(level_mean, level_sd^2). An n that is not an integer, or a
    level_mean or level_sd outside SimConfig's ranges, raises
    InvalidSimConfig."""
    _check_limit("n", n, error=InvalidSimConfig)
    _check_real("level_mean", level_mean)
    _check_real("level_sd", level_sd, 0)
    if not len(fam):
        raise InfeasibleTargets("family must contain at least one target")
    if n < len(fam):
        raise InfeasibleTargets(
            f"n = {n} samples cannot label all {len(fam)} family members"
        )
    p = model.dag.p
    order = topological_order(model.dag)
    X = np.zeros((n, p))
    row_targets = [fam[i % len(fam)] for i in range(n)]
    for idx in range(len(fam)):
        rows = np.arange(idx, n, len(fam))
        t = fam[idx]
        for v in order:
            if v in t:
                X[rows, v - 1] = rng.normal(level_mean, level_sd, size=rows.size)
            else:
                mean = X[rows] @ model.B[v - 1]
                noise = rng.normal(
                    0.0, np.sqrt(model.sigma2[v - 1]), size=rows.size
                )
                X[rows, v - 1] = mean + noise
    return InterventionalDataset(X, row_targets)


@dataclass
class SimResult:
    config: SimConfig
    replicate: int
    dag: Dag
    model: GaussianModel
    fam: TargetFamily
    data: InterventionalDataset

    def metadata(self) -> dict:
        return asdict(self.config) | {"replicate": self.replicate, "rng": RNG_ALGORITHM}


def simulate(config: SimConfig, replicate: int = 0) -> SimResult:
    """Draw one scenario instance: DAG, model, targets and samples, each
    from its own substream of (seed, replicate). A replicate that is not
    an integer, or is negative, raises InvalidSimConfig."""
    _check_limit("replicate", replicate, 0, InvalidSimConfig)
    c = config
    dag = random_dag(c.p, c.s, substream(c.seed, replicate, _DAG))
    model = random_model(dag, substream(c.seed, replicate, _MODEL))
    fam = random_targets(c.p, c.k, c.m, substream(c.seed, replicate, _TARGETS))
    data = sample(
        model,
        fam,
        c.n,
        substream(c.seed, replicate, _SAMPLE),
        level_mean=c.level_mean,
        level_sd=c.level_sd,
    )
    return SimResult(c, replicate, dag, model, fam, data)
