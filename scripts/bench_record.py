#!/usr/bin/env python3
"""Record a BENCH_<n>.json: the benchmark on a parent checkout and on this
one, in alternating pairs, plus the criterion-11 medians of each.

    python3 scripts/bench_record.py --parent ../parent \
        --seeds 40 41 42 43 44 45 46 47 48 49 --trace-seed 3 --out BENCH_9.json

For every workload of BENCHMARK.json and every seed, runs
`perfbench/run.py --trace 0` once in each checkout for the benchmark's
`run_seconds`, the parent first in even-numbered pairs and the change first
in odd ones; then one `--trace 1` run per checkout at --trace-seed. Each
run's result line (the last line it prints) is stored with its workload,
seed and side, and with the user and system CPU seconds and minor page
faults of its process. Two one-off timings follow, each run twice per checkout in
the order parent, change, change, parent, so that a drift of the host over
the recording falls on both sides alike; every run is stored, and per side
the best time of each p over its two runs:
- criterion 11 of tests/test_acceptance.py, whose slope and medians are
  parsed from the line it prints;
- `dp_exact` on the criterion-11 shape at p = 12..15 (degree 4, 40% of
  vertices as singleton targets, n = 1000, seed 400), each p recording
  the best wall time of two calls and the score.
For each workload and end-to-end metric, the file also holds each side's
median and quartiles and the number of pairs the change won (ties count
for neither side). `library_lines` holds each side's code lines of
src/gieskit per file, as scripts/library_size.py counts them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shlex
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from library_size import sizes  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
CRITERION_11 = re.compile(
    r"criterion 11: (PASS|FAIL) - log-log slope (\S+) over p=(\S+) "
    r"\(medians (\S+)s\); (\d+)s total"
)


def bench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench/run.py run: its result line, and its process's user and
    system CPU seconds and minor page faults."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "result": json.loads(proc.stdout.splitlines()[-1]),
        "user_s": after.ru_utime - before.ru_utime,
        "sys_s": after.ru_stime - before.ru_stime,
        "minflt": after.ru_minflt - before.ru_minflt,
    }


def criterion_11(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests/test_acceptance.py", "-k", "criterion_11"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    m = CRITERION_11.search(proc.stdout)
    if m is None:
        raise RuntimeError(f"no criterion-11 line from {tree}:\n{proc.stdout}")
    return {
        "passed": m[1] == "PASS",
        "slope": float(m[2]),
        "medians_s": dict(zip(m[3].split("/"), map(float, m[4].split("/")))),
        "total_s": int(m[5]),
    }


DP_EXACT_TIMES = """
import json, time
from gieskit import SimConfig, dp_exact, simulate
out = {}
for p in (12, 13, 14, 15):
    sim = simulate(SimConfig(p=p, s=4 / (p - 1), k=int(0.4 * p), m=1, n=1000, seed=400))
    times = []
    for _ in range(2):
        t0 = time.perf_counter()
        score = dp_exact(sim.data, sim.fam).score
        times.append(time.perf_counter() - t0)
    out[p] = {"best_s": min(times), "score": score}
print(json.dumps(out))
"""


def dp_exact_times(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", DP_EXACT_TIMES],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


#: The order of the one-off timings' runs.
ALTERNATING = ("parent", "change", "change", "parent")


def alternate(run, sides: dict[str, Path], times) -> dict:
    """`run(tree)` on each side in ALTERNATING order: every result in run
    order, and per side the best time of each p, where `times(result)` maps
    p to the run's seconds."""
    runs = [{"side": side, "result": run(sides[side])} for side in ALTERNATING]
    best: dict[str, dict] = {}
    for r in runs:
        side_best = best.setdefault(r["side"], {})
        for p, seconds in times(r["result"]).items():
            side_best[p] = min(seconds, side_best.get(p, seconds))
    return {"runs": runs, "best_s": best}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, and the
    pairs the change won."""
    out = {}
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
        values = {
            side: [r["result"]["metrics"][name]["value"] for r in runs if r["side"] == side]
            for side in ("parent", "change")
        }
        out[name] = {
            side: dict(zip(("q1", "median", "q3"), statistics.quantiles(v, n=4)))
            if len(v) > 1 else {"median": v[0]}
            for side, v in values.items()
        }
        out[name]["change_wins"] = sum(
            sign * (a - b) > 0 for a, b in zip(values["parent"], values["change"])
        )
        out[name]["pairs"] = len(values["change"])
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace-seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    record = {
        "command": shlex.join(["python3", "scripts/bench_record.py", *sys.argv[1:]]),
        "run_seconds": seconds,
        "library_lines": {
            side: sizes(tree / "src" / "gieskit") for side, tree in sides.items()
        },
        "workloads": {},
    }
    for w in (w["name"] for w in spec["workloads"]):
        runs = []
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = bench(sides[side], w, seed, seconds, 0)
                runs.append({"side": side, "seed": seed, **run})
                print(w, seed, side, json.dumps(run["result"]["metrics"]["fit_s"]),
                      run["minflt"], flush=True)
        traced = [
            {"side": side, "seed": args.trace_seed,
             **bench(tree, w, args.trace_seed, seconds, 1)}
            for side, tree in sides.items()
        ]
        record["workloads"][w] = {
            "trace_0": runs,
            "trace_1": traced,
            "summary": summarize(runs, spec["end_to_end"]),
        }
    record["criterion_11"] = alternate(criterion_11, sides, lambda r: r["medians_s"])
    record["dp_exact"] = alternate(
        dp_exact_times, sides, lambda r: {p: t["best_s"] for p, t in r.items()}
    )
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
