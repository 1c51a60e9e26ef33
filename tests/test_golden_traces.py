"""Golden move traces of the greedy searches.

`golden_traces.json` holds, for a fixed grid of simulated scenarios, the
move sequence (phase, kind, u, v, sorted C) and the final score of gies,
gies-nt, gds and ges, plus gies and gds under a max_degree cap on the p = 12
scenarios. The searches are deterministic, so a change to the
search engine that keeps its behaviour must walk exactly the same moves and
end on the same score. Re-record only when a change of behaviour is
intended:

    PYTHONPATH=src python tests/test_golden_traces.py --record
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from gieskit import GiesOptions, SimConfig, gds, ges, gies, simulate

GOLDEN_PATH = Path(__file__).resolve().with_name("golden_traces.json")

ALGOS = ("gies", "gies-nt", "gds", "ges")
# a sparse large-sample and a dense small-sample setting; the dense one
# makes backward and turning moves more frequent
GRID = [
    SimConfig(p=p, s=s, k=k, m=1, n=n, seed=seed)
    for s, n in ((0.3, 400), (0.5, 150))
    for p in (8, 12)
    for k in (0, 2, 8)
    for seed in range(4)
]


def case_id(
    cfg: SimConfig, algo: str, max_degree: int | None = None, penalty: str = "total"
) -> str:
    cap = "" if max_degree is None else f"-maxdeg{max_degree}"
    pen = "" if penalty == "total" else f"-{penalty}"
    return f"{algo}{cap}{pen}-p{cfg.p}-s{cfg.s}-k{cfg.k}-n{cfg.n}-seed{cfg.seed}"


def run_case(
    cfg: SimConfig, algo: str, max_degree: int | None = None, penalty: str = "total"
) -> dict:
    sim = simulate(cfg)
    opts = GiesOptions(
        variant="gies-nt" if algo == "gies-nt" else "gies",
        max_degree=max_degree,
        trace=True,
        penalty=penalty,
    )
    if algo == "gds":
        res = gds(sim.data, sim.fam, opts)
    elif algo == "ges":
        res = ges(sim.data, opts)
    else:
        res = gies(sim.data, sim.fam, opts)
    moves = [[e.phase, e.kind, e.u, e.v, sorted(e.C)] for e in res.trace.entries]
    return {"moves": moves, "score": res.score}


CASES = [(cfg, algo, None) for cfg in GRID for algo in ALGOS] + [
    (cfg, algo, max_degree)
    for cfg in GRID
    if cfg.p == 12
    for algo in ("gies", "gds")
    for max_degree in (2, 3)
] + [
    (cfg, algo, None, "per-node")
    for cfg in GRID
    if cfg.p == 8
    for algo in ("gies", "gds")
]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_the_grid(golden):
    assert set(golden) == {case_id(*case) for case in CASES}
    # the grid exercises every phase and move kind
    kinds = {(m[0], m[1]) for case in golden.values() for m in case["moves"]}
    assert {("forward", "insert"), ("backward", "delete"),
            ("turning", "turn_arrow"), ("turning", "turn_line")} <= kinds


@pytest.mark.parametrize("case", CASES, ids=[case_id(*case) for case in CASES])
def test_search_walks_the_golden_trace(golden, case):
    want = golden[case_id(*case)]
    got = run_case(*case)
    assert got["moves"] == want["moves"]
    assert got["score"] == pytest.approx(want["score"], rel=1e-12)


def record() -> None:
    book = {case_id(*case): run_case(*case) for case in CASES}
    GOLDEN_PATH.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
