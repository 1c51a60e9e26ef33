#!/usr/bin/env python3
"""How many arrows stay unidentifiable as interventions are added.

For each target size m, draws random DAGs and counts the lines of the
essential graph under growing numbers k of random targets. Writes one CSV
row per (m, k, dag) and prints the median table.
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gieskit import (
    count_non_essential,
    essential_graph,
    random_dag,
    random_targets,
    substream,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=10)
    ap.add_argument("--s", type=float, default=0.2)
    ap.add_argument("--dags", type=int, default=100)
    ap.add_argument("--m", type=int, nargs="+", default=[1, 2, 4])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="identifiability.csv")
    args = ap.parse_args()
    if args.dags < 1:
        ap.error("--dags must be at least 1")

    ks = [round(f * args.p) for f in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)]
    rows = []
    for i in range(args.dags):
        d = random_dag(args.p, args.s, substream(args.seed, 0, i))
        for m in args.m:
            for k in ks:
                fam = random_targets(args.p, k, m, substream(args.seed, 1, i, m, k))
                lines = count_non_essential(essential_graph(d, fam))
                rows.append({"p": args.p, "s": args.s, "m": m, "k": k,
                             "dag": i, "non_essential": lines})

    with open(args.out, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=list(rows[0]))
        w.writeheader()
        w.writerows(rows)

    print(f"{args.dags} DAGs at p={args.p}, s={args.s} -> {args.out}")
    print("median non-essential arrows per (m, k):")
    print("m\\k " + "".join(f"{k:>6}" for k in ks))
    for m in args.m:
        meds = [
            statistics.median(
                r["non_essential"] for r in rows if r["m"] == m and r["k"] == k
            )
            for k in ks
        ]
        print(f"{m:>3} " + "".join(f"{v:>6g}" for v in meds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
