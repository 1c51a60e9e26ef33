"""Golden move traces of the greedy searches.

`golden_traces.json` holds, for a fixed grid of simulated scenarios, the
move sequence (phase, kind, u, v, sorted C) and the final score of gies,
gies-nt, gds and ges. The searches are deterministic, so a change to the
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


def case_id(cfg: SimConfig, algo: str) -> str:
    return f"{algo}-p{cfg.p}-s{cfg.s}-k{cfg.k}-n{cfg.n}-seed{cfg.seed}"


def run_case(cfg: SimConfig, algo: str) -> dict:
    sim = simulate(cfg)
    opts = GiesOptions(variant="gies-nt" if algo == "gies-nt" else "gies", trace=True)
    if algo == "gds":
        res = gds(sim.data, sim.fam, opts)
    elif algo == "ges":
        res = ges(sim.data, opts)
    else:
        res = gies(sim.data, sim.fam, opts)
    moves = [[e.phase, e.kind, e.u, e.v, sorted(e.C)] for e in res.trace.entries]
    return {"moves": moves, "score": res.score}


CASES = [(cfg, algo) for cfg in GRID for algo in ALGOS]


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_the_grid(golden):
    assert set(golden) == {case_id(cfg, algo) for cfg, algo in CASES}
    # the grid exercises every phase and move kind
    kinds = {(m[0], m[1]) for case in golden.values() for m in case["moves"]}
    assert {("forward", "insert"), ("backward", "delete"),
            ("turning", "turn_arrow"), ("turning", "turn_line")} <= kinds


@pytest.mark.parametrize(
    "cfg, algo", CASES, ids=[case_id(cfg, algo) for cfg, algo in CASES]
)
def test_search_walks_the_golden_trace(golden, cfg, algo):
    want = golden[case_id(cfg, algo)]
    got = run_case(cfg, algo)
    assert got["moves"] == want["moves"]
    assert got["score"] == pytest.approx(want["score"], rel=1e-12)


def record() -> None:
    book = {case_id(cfg, algo): run_case(cfg, algo) for cfg, algo in CASES}
    GOLDEN_PATH.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
