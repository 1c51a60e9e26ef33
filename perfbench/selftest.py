#!/usr/bin/env python3
"""Self-test of the benchmark on p = 8 versions of every workload.

    python3 perfbench/selftest.py

Checks, in a few seconds, that:
- an honest learner result passes every check (error_rate 0);
- a perturbed score, a dropped edge, a wrong digest, a dp score below the
  truth and a cyclic gies graph are each counted as failures on every call,
  not raised;
- two traced runs report identical counts.
Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import sys

import run


def perturb_score(res) -> None:
    res.score += 1e-6 * abs(res.score) + 1e-3


def lower_score(res) -> None:
    res.score -= 1e3


def drop_edge(res) -> None:
    from gieskit import Dag, Graph

    g = res.graph
    if g.arrows:
        arrows, lines = g.arrows[1:], g.lines
    else:
        arrows, lines = g.arrows, g.lines[1:]
    if res.dag is None:  # essential graph
        res.graph = Graph(g.p, arrows=arrows, lines=lines)
    else:
        res.graph = res.dag = Dag(g.p, arrows=arrows)


def make_cycle(res) -> None:
    from gieskit import Graph

    cyclic = Graph(res.graph.p, arrows=[(1, 2), (2, 3), (3, 1)])
    res.graph = cyclic
    if res.dag is not None:
        res.dag = cyclic


COUNT_SUFFIXES = (".calls", ".hits", ".fits", ".candidates", ".steps",
                  ".lazy_checks", ".lazy_rejects", "SingularDesign", "InsufficientSamples")


def main() -> int:
    run.bootstrap()
    import workloads as wl

    problems = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            problems.append(what)

    for full in wl.WORKLOADS.values():
        w = full.tiny()
        clean = run.measure(w, 1, 0, False, None)
        expect(clean["result"]["correct"] and clean["result"]["failed"] == 0,
               f"{w.name}: honest result passes ({clean['summary']['failures']})")
        digest = clean["summary"]["digests"]
        again = run.measure(w, 1, 0, False, digest)
        expect(again["result"]["failed"] == 0, f"{w.name}: recorded digest matches")
        cases = [
            ("perturbed score", perturb_score, digest, "score"),
            ("dropped edge", drop_edge, None, "score"),
            ("wrong digest", None, ["0" * 16] * len(digest), "digest"),
        ]
        if w.learner == "dp_exact":
            cases.append(("score below the truth", lower_score, digest, "dp-below-truth"))
        if w.learner == "gies":
            cases.append(("directed cycle", make_cycle, None, "invalid"))
        for label, corrupt, expected, check in cases:
            out = run.measure(w, 1, 0, False, expected, corrupt=corrupt)
            r = out["result"]
            expect(not r["correct"] and r["failed"] == r["attempted"] >= 1
                   and check in out["summary"]["failures"],
                   f"{w.name}: {label} counted as a {check!r} failure")
        t1, t2 = (run.measure(w, 1, 0, True, digest)["result"] for _ in range(2))
        counts1 = {k: v["value"] for k, v in t1["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
        counts2 = {k: v["value"] for k, v in t2["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
        expect(t1["failed"] == 0 and counts1 == counts2 and counts1["scoring.local_score.calls"] > 0,
               f"{w.name}: traced counts repeat exactly")
    print("selftest " + ("passed" if not problems else f"failed: {len(problems)}"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
