#!/usr/bin/env python3
"""SHD of each learner against the truth as interventions are added.

Simulates replicated scenarios per number of targets k, fits every
requested algorithm, and reports median SHD to the true DAG. DAG-valued
estimates are converted to their essential graphs before comparison.
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gieskit import Dag, GiesOptions, SimConfig, essential_graph, shd, simulate
from gieskit.cli import _run_algo


def fit(algo, data, fam):
    graph = _run_algo(algo, data, fam, GiesOptions())[0]
    # gds and dp estimate a DAG: compare its class, as for the class learners
    return essential_graph(graph, fam).graph if isinstance(graph, Dag) else graph


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=10)
    ap.add_argument("--s", type=float, default=0.2)
    ap.add_argument("--m", type=int, default=1)
    ap.add_argument("--n", type=int, default=1000)
    ap.add_argument("--k", type=int, nargs="+", default=[0, 2, 4, 8])
    ap.add_argument("--algo", nargs="+",
                    default=["gies", "gies-nt", "gds", "ges", "dp"])
    ap.add_argument("--replicates", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="comparison.csv")
    args = ap.parse_args()

    rows = []
    for k in args.k:
        cfg = SimConfig(p=args.p, s=args.s, k=k, m=args.m, n=args.n,
                        seed=args.seed)
        for r in range(args.replicates):
            sim = simulate(cfg, replicate=r)
            for algo in args.algo:
                t0 = time.perf_counter()
                est = fit(algo, sim.data, sim.fam)
                rows.append({
                    "k": k, "replicate": r, "algo": algo,
                    "shd": shd(est, sim.dag).shd,
                    "runtime_s": round(time.perf_counter() - t0, 4),
                })

    with open(args.out, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)

    print(f"p={args.p} s={args.s} m={args.m} n={args.n},"
          f" {args.replicates} replicates -> {args.out}")
    print("median SHD to the true DAG per (algorithm, k):")
    width = max(map(len, args.algo))
    print(" " * width + " " + "".join(f"{k:>6}" for k in args.k))
    for algo in args.algo:
        meds = [
            statistics.median(
                r["shd"] for r in rows if r["algo"] == algo and r["k"] == k
            )
            for k in args.k
        ]
        print(f"{algo:>{width}} " + "".join(f"{v:>6g}" for v in meds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
