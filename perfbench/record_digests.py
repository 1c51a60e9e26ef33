#!/usr/bin/env python3
"""Record the move-sequence digests that the benchmark checks results
against, one per workload, seed and replicate, in perfbench/digests.json.

    python3 perfbench/record_digests.py --seeds 0 1 2 400
    python3 perfbench/record_digests.py --workload dp-exact-p11 --seeds 5

Run it only on a commit whose search behaviour is the reference; seeds
already recorded are recomputed and must agree, or the script stops.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", nargs="+")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args()
    run.bootstrap()
    import workloads as wl

    book = wl.recorded_digests()
    for name in args.workload or list(wl.WORKLOADS):
        w = wl.WORKLOADS[name]
        for seed in args.seeds:
            summary = run.measure(w, seed, 0, False, None)["summary"]
            if summary["failures"]:
                print(f"{name} seed {seed}: failed {summary['failures']}", file=sys.stderr)
                return 1
            old = book.setdefault(name, {}).get(str(seed))
            if old is not None and old != summary["digests"]:
                print(f"{name} seed {seed}: digests {summary['digests']} != recorded {old}",
                      file=sys.stderr)
                return 1
            book[name][str(seed)] = summary["digests"]
            print(f"{name} seed {seed}: {summary['digests']} ({sum(summary['fit_wall_s']):.2f} s)",
                  flush=True)
            wl.DIGESTS_PATH.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
