#!/usr/bin/env python3
"""The gieskit benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload gies-sparse-p40 --seed 1 \
        --seconds 30 --trace 0

Generates the workload's replicate datasets from the seed and writes them
to CSV. After one untimed warm-up call, rounds cycle through the
replicates until --seconds have passed and each has had a round: a round
reads the CSV back and checks the family as `gieskit fit` does, then calls
the learner on what it read, checking every result. Each set-up and call
is scaled to reference seconds by the reference loop timed around it
(reference.py). `setup_s` is the median set-up; `fit_s` is the median call
on each replicate, averaged over the replicates. With --trace 0 the last
stdout line reports the end-to-end metrics; with --trace 1 it reports the
per-layer metrics of one extra, traced call and the spans go to
perfbench/out/. Metric names, units and the layer -> metric -> workload
map are in perfbench/README.md.

Exits 2 without a result line when gieskit cannot be imported from the
checkout's src/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

ROOT_SPANS = {"gies": "search.gies", "gds": "baselines.gds", "dp_exact": "baselines.dp_exact"}


def bootstrap() -> None:
    """Pin every BLAS/OpenMP pool to one thread, then import gieskit from
    the checkout's src/ and nowhere else. Must run before numpy is
    imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pools were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "gieskit" / "__init__.py").is_file():
        raise RuntimeError(f"no gieskit package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gieskit

    got = Path(gieskit.__file__).resolve()
    if SRC.resolve() not in got.parents:
        raise RuntimeError(f"gieskit imported from {got}, not from {SRC}")


def header(workload: str, seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "commit": _commit(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def _commit() -> str | None:
    """HEAD of the checkout when it is a git work tree (read, not run)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _timed(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, perf_counter() - t0


def measure(w, seed: int, seconds: float, trace: bool, expected: list[str] | None,
            corrupt=None) -> dict:
    """The benchmark proper: returns the summary and the result object.
    `expected` holds the recorded move digest of each replicate, or None.
    `corrupt`, when given, alters each learner result before it is checked
    (the self-test uses it)."""
    import reference
    import tracing
    import workloads as wl

    setup_tracer = tracing.Tracer()
    span = setup_tracer.span if trace else (lambda name, fn, **_: fn)
    reps, simulate_s = _timed(span("simulate.simulate", wl.make_inputs), w, seed)

    failures: list[str] = []
    calls = []  # (replicate, result, failed check names)

    def verify(r, res, data, fam):
        if corrupt is not None:
            corrupt(res)
        bad = wl.check(w, res, reps[r], data, fam, expected[r] if expected else None)
        first = next((c[1] for c in calls if c[0] == r), None)
        if first is not None and wl.digest(res.moves) != wl.digest(first.moves):
            bad.append("repeatable")
        failures.extend(bad)
        calls.append((r, res, bad))

    def ref_time():
        gc.collect()
        return reference.time_loop()

    work = OUT / f"tmp-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    rounds = []  # (replicate, setup wall s, fit wall s)
    refs = []  # reference loop before each round and after the last
    loaded = {}
    try:
        paths = [work / f"dataset-{r}.csv" for r in range(len(reps))]
        for inputs, path in zip(reps, paths):
            inputs.data.to_csv(path)
        # warm-up: the first call of a process runs slower (allocation,
        # first touches); it is checked but not timed
        loaded[0] = wl.load(paths[0])
        verify(0, wl.run_learner(w.learner, *loaded[0]), *loaded[0])
        start = perf_counter()
        refs.append(ref_time())
        while True:
            # each round is one `gieskit fit` on the next replicate:
            # set up from the CSV, then learn
            r = len(rounds) % len(reps)
            gc.collect()
            loaded[r], setup_dt = _timed(wl.load, paths[r], span)
            gc.collect()
            res, fit_dt = _timed(wl.run_learner, w.learner, *loaded[r])
            verify(r, res, *loaded[r])
            rounds.append((r, setup_dt, fit_dt))
            refs.append(ref_time())
            if len(rounds) >= len(reps) and perf_counter() - start >= seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work)

    # wall times in reference seconds, each scaled by the loops around it
    scale = [reference.REFERENCE_S / ((a + b) / 2) for a, b in zip(refs, refs[1:])]
    setup_s = statistics.median(dt * k for (_, dt, _), k in zip(rounds, scale))
    fit_by_rep = [
        statistics.median(dt * k for (r, _, dt), k in zip(rounds, scale) if r == rep)
        for rep in range(len(reps))
    ]
    fit_s = statistics.fmean(fit_by_rep)
    results = [next(c[1] for c in calls if c[0] == r) for r in range(len(reps))]
    quality = [wl.quality(res, inputs) for res, inputs in zip(results, reps)]

    if not trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "fit_s": (fit_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "neg_score": (-statistics.fmean(q["score"] for q in quality), "nats"),
            "edge_f1": (statistics.fmean(q["edge_f1"] for q in quality), "ratio"),
        }
    else:
        tracer = tracing.Tracer()
        before = ref_time()
        with tracer.patched():
            res, traced_dt = _timed(tracer.span(ROOT_SPANS[w.learner], wl.run_learner),
                                    w.learner, *loaded[0])
        traced_s = traced_dt * reference.REFERENCE_S / ((before + ref_time()) / 2)
        verify(0, res, *loaded[0])
        root_id = next(s[0] for s in tracer.spans if s[1] == 0)
        steps = 0 if w.learner == "dp_exact" else len(res.moves)
        metrics = tracing.per_layer(
            tracer, root_id, steps, setup_tracer, simulate_s, fit_by_rep[0], traced_s,
        )
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{w.name}-seed{seed}.jsonl")
        setup_tracer.write(OUT / f"spans-{w.name}-seed{seed}-setup.jsonl")

    failed = sum(1 for _, _, bad in calls if bad)
    summary = {
        "workload": w.name,
        "seed": seed,
        "replicate": [r for r, _, _ in rounds],
        "fit_wall_s": [round(dt, 4) for _, _, dt in rounds],
        "reference_wall_s": [round(t, 4) for t in refs],
        "fit_s_by_replicate": [round(t, 4) for t in fit_by_rep],
        "score": [q["score"] for q in quality],
        "shd": [q["shd"] for q in quality],
        "edge_f1": [q["edge_f1"] for q in quality],
        "steps": [0 if w.learner == "dp_exact" else len(res.moves) for res in results],
        "error_rate": failed / len(calls),
        "failures": sorted(set(failures)),
        "digests": [wl.digest(res.moves) for res in results],
        "digests_recorded": expected,
    }
    return {
        "summary": summary,
        "result": {
            "correct": failed == 0,
            "attempted": len(calls),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    try:
        bootstrap()
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads as wl

    w = wl.WORKLOADS.get(args.workload)
    if w is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps({"header": header(w.name, args.seed)}), flush=True)
    expected = wl.recorded_digests().get(w.name, {}).get(str(args.seed))
    out = measure(w, args.seed, args.seconds, bool(args.trace), expected)
    print(json.dumps({"summary": out["summary"]}), flush=True)
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
