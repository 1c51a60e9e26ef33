#!/usr/bin/env python3
"""SHD of each learner against the truth as interventions are added.

Runs `gieskit sweep` over replicated scenarios per number of targets k for
every requested algorithm, writes its CSV rows to --out, and reports the
median SHD to the true DAG. The sweep compares the DAG-valued estimates
(gds, dp) by their essential graphs, as it does the class learners'.
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gieskit import cli


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
    if args.replicates < 1:
        ap.error("--replicates must be at least 1")

    status = cli.main([
        "sweep", "--p", str(args.p), "--s", str(args.s), "--m", str(args.m),
        "--n", str(args.n), "--k", *map(str, args.k), "--algo", *args.algo,
        "--replicates", str(args.replicates), "--seed", str(args.seed),
        "--format", "csv", "--out", args.out,
    ])
    if status:
        return status
    with open(args.out, newline="") as f:
        rows = list(csv.DictReader(f))

    print(f"p={args.p} s={args.s} m={args.m} n={args.n},"
          f" {args.replicates} replicates -> {args.out}")
    print("median SHD to the true DAG per (algorithm, k):")
    width = max(map(len, args.algo))
    print(" " * width + " " + "".join(f"{k:>6}" for k in args.k))
    for algo in args.algo:
        meds = [
            statistics.median(
                int(r["shd"]) for r in rows
                if r["algo"] == algo and int(r["k"]) == k
            )
            for k in args.k
        ]
        print(f"{algo:>{width}} " + "".join(f"{v:>6g}" for v in meds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
