"""Command-line interface.

Subcommands: simulate (draw a scenario and write dataset plus ground
truth), fit (run a structure learner on a dataset CSV), essential (essential
graph of a DAG), equiv (equivalence of two DAGs under a target family),
representatives (enumerate the DAGs of a class), compare (SHD report of an
estimate against the truth) and sweep (grid of simulate+fit+compare runs,
one CSV row per replicate and setting; the DAG estimates of gds and dp are
compared by their essential graphs, as the class learners' are).

Errors are reported as one JSON object on stderr with a non-zero exit code.
The GIESKIT_THREADS environment variable caps the sweep worker pool; the
default of 1 keeps runtime columns comparable across rows.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

from .baselines import dp_exact, gds, ges
from .graphs import Dag, Graph, as_chain_graph
from .interventions import (
    EssentialGraph,
    TargetFamily,
    enumerate_representatives,
    essential_graph,
    is_essential_graph,
    markov_equivalent,
)
from .metrics import evaluate
from .scoring import InterventionalDataset
from .search import GiesOptions, gies
from .simulate import SimConfig, simulate

ALGOS = ("gies", "gies-nt", "gds", "ges", "dp")
SWEEP_COLUMNS = (
    "p", "s", "k", "m", "n", "algo", "replicate", "seed",
    "score", "runtime_s", "steps",
    "shd", "fp", "fn", "wo", "shd_vs_essential", "non_essential_true",
)


def _read_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _write(text: str, args) -> None:
    """Print text, or write it to --out when given."""
    if args.out:
        Path(args.out).write_text(text)
    else:
        print(text, end="")


def _emit(obj, args) -> None:
    """Print obj as JSON, or write it to --out when given."""
    _write(json.dumps(obj) + "\n", args)


def _emit_csv(rows: list[dict], fieldnames, args) -> None:
    """Print rows as CSV, or write them to --out when given."""
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(fieldnames))
    w.writeheader()
    w.writerows(rows)
    _write(buf.getvalue(), args)


def _parse_targets(text: str | None, data: InterventionalDataset | None = None):
    if text is not None:
        return TargetFamily.parse(text)
    # fall back to the distinct labels present in the dataset
    return TargetFamily(dict.fromkeys(data.targets))


def _options(args) -> GiesOptions:
    return GiesOptions(
        max_degree=args.max_degree,
        trace=bool(args.trace),
        penalty=args.penalty or "total",
    )


DP_FLAGS = ("max_p", "max_parents")
# the fit flags each algorithm does not read
UNREAD_FLAGS = {
    "gies": DP_FLAGS,
    "gies-nt": DP_FLAGS,
    "gds": DP_FLAGS,
    "ges": DP_FLAGS + ("targets",),  # ges erases the intervention labels
    "dp": ("max_degree", "penalty", "trace"),
}


def _run_algo(algo, data, fam, opts, **limits):
    """Returns (graph, score, steps, trace) for one fit; `limits` holds the
    DP_FLAGS given, passed on to dp_exact."""
    if algo in ("gies", "gies-nt"):
        r = gies(data, fam, replace(opts, variant=algo))
        return r.graph.graph, r.score, r.steps, r.trace
    if algo == "ges":
        r = ges(data, opts)
        return r.graph.graph, r.score, r.steps, r.trace
    if algo == "gds":
        r = gds(data, fam, opts)
        return r.dag, r.score, r.steps, r.trace
    if algo == "dp":
        r = dp_exact(data, fam, **limits)
        return r.dag, r.score, 0, None
    raise ValueError(f"unknown algorithm {algo!r}; choose from {ALGOS}")


# -- subcommands -------------------------------------------------------------


def cmd_simulate(args) -> int:
    cfg = SimConfig(
        p=args.p, s=args.s, k=args.k, m=args.m, n=args.n,
        level_mean=args.level_mean, level_sd=args.level_sd, seed=args.seed,
    )
    res = simulate(cfg, replicate=args.replicate)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    res.data.to_csv(out / "dataset.csv")
    (out / "truth_dag.json").write_text(res.dag.to_json() + "\n")
    truth_ess = essential_graph(res.dag, res.fam)
    (out / "truth_essential.json").write_text(truth_ess.graph.to_json() + "\n")
    (out / "params.json").write_text(json.dumps(
        {"B": res.model.B.tolist(), "sigma2": res.model.sigma2.tolist()}
    ) + "\n")
    meta = res.metadata() | {"targets": res.fam.to_lists()}
    (out / "metadata.json").write_text(json.dumps(meta) + "\n")
    print(json.dumps({"out_dir": str(out), "metadata": meta}))
    return 0


def cmd_fit(args) -> int:
    for name in UNREAD_FLAGS[args.algo]:
        if getattr(args, name) is not None:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"{flag} is not read by --algo {args.algo}")
    data = InterventionalDataset.read_csv(args.data)
    fam = _parse_targets(args.targets, data)
    opts = _options(args)
    limits = {k: getattr(args, k) for k in DP_FLAGS if getattr(args, k) is not None}
    t0 = time.perf_counter()
    graph, score, steps, trace = _run_algo(args.algo, data, fam, opts, **limits)
    runtime = time.perf_counter() - t0
    if args.trace:
        Path(args.trace).write_text(trace.to_jsonl() + "\n")
    _emit(graph.to_dict() | {
        "algo": args.algo, "score": score, "steps": steps, "runtime_s": runtime,
    }, args)
    return 0


def cmd_essential(args) -> int:
    d = Dag.from_dict(_read_json(args.dag))
    fam = _parse_targets(args.targets)
    e = essential_graph(d, fam)
    _emit(e.graph.to_dict(), args)
    return 0


def cmd_equiv(args) -> int:
    d1 = Dag.from_dict(_read_json(args.dag1))
    d2 = Dag.from_dict(_read_json(args.dag2))
    fam = _parse_targets(args.targets)
    _emit({"equivalent": markov_equivalent(d1, d2, fam)}, args)
    return 0


def cmd_representatives(args) -> int:
    g = Graph.from_dict(_read_json(args.graph))
    fam = _parse_targets(args.targets)
    report = is_essential_graph(g, fam)
    if not report:
        raise ValueError(
            f"input is not an essential graph of the family: "
            f"{report.violated} at {report.witness}"
        )
    e = EssentialGraph(as_chain_graph(g), fam)
    dags = enumerate_representatives(e, limit=args.limit)
    if args.out_dir:
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        files = []
        for i, d in enumerate(dags):
            path = out / f"dag_{i:03d}.json"
            path.write_text(d.to_json() + "\n")
            files.append(str(path))
        print(json.dumps({"count": len(dags), "files": files}))
    else:
        print(json.dumps({"count": len(dags), "dags": [d.to_dict() for d in dags]}))
    return 0


def cmd_compare(args) -> int:
    est = Graph.from_dict(_read_json(args.estimate))
    truth = Dag.from_dict(_read_json(args.truth))
    fam = _parse_targets(args.targets)
    report = evaluate(est, truth, fam).to_dict()
    if args.format == "csv":
        _emit_csv([report], report, args)
    else:
        _emit(report, args)
    return 0


def _sweep_job(job: tuple) -> dict:
    p, s, k, m, n, algo, rep, seed = job
    res = simulate(SimConfig(p=p, s=s, k=k, m=m, n=n, seed=seed), replicate=rep)
    t0 = time.perf_counter()
    graph, score, steps, _ = _run_algo(algo, res.data, res.fam, GiesOptions())
    runtime = time.perf_counter() - t0
    if isinstance(graph, Dag):  # gds and dp: compare the estimated class
        graph = essential_graph(graph, res.fam).graph
    report = evaluate(graph, res.dag, res.fam).to_dict()
    return {
        "p": p, "s": s, "k": k, "m": m, "n": n, "algo": algo,
        "replicate": rep, "seed": seed,
        "score": score, "runtime_s": runtime, "steps": steps,
    } | report


def cmd_sweep(args) -> int:
    jobs = [
        (p, s, k, m, n, algo, rep, args.seed)
        for p in args.p
        for s in args.s
        for k in args.k
        for m in args.m
        for n in args.n
        for algo in args.algo
        for rep in range(args.replicates)
    ]
    text = os.environ.get("GIESKIT_THREADS", "1")
    try:
        threads = count(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError(
            f"GIESKIT_THREADS must be an integer of at least 1, got {text!r}"
        ) from None
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            rows = list(pool.map(_sweep_job, jobs))
    else:
        rows = [_sweep_job(job) for job in jobs]
    if args.format == "json":
        _emit(rows, args)
    else:
        _emit_csv(rows, SWEEP_COLUMNS, args)
    return 0


# -- parser ------------------------------------------------------------------


# argparse quotes this function's name when the text is not an integer
def count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gieskit",
        description="Causal structure learning from interventional data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(sp):
        sp.add_argument("--out", help="output file (default: stdout)")

    sp = sub.add_parser("simulate", help="draw a random scenario and dataset")
    sp.add_argument("--p", type=int, required=True, help="vertex count")
    sp.add_argument("--s", type=float, required=True, help="edge probability")
    sp.add_argument("--k", type=int, required=True,
                    help="non-observational target count")
    sp.add_argument("--m", type=int, required=True, help="vertices per target")
    sp.add_argument("--n", type=int, required=True, help="total sample count")
    sp.add_argument("--level-mean", type=float, default=2.0)
    sp.add_argument("--level-sd", type=float, default=0.2)
    sp.add_argument("--replicate", type=int, default=0)
    sp.add_argument("--out-dir", required=True)
    sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("fit", help="run a structure learner on a dataset CSV")
    sp.add_argument("--data", required=True, help="dataset CSV path")
    sp.add_argument("--targets",
                    help='target family, e.g. "[]; [4]" (default: labels in data)')
    sp.add_argument("--algo", choices=ALGOS, default="gies")
    # the next five flags default to None, so that cmd_fit can reject one
    # given to an algorithm that does not read it (UNREAD_FLAGS)
    sp.add_argument("--max-degree", type=int)
    sp.add_argument("--penalty", choices=("total", "per-node"),
                    help="default: total")
    sp.add_argument("--trace", help="write the move trace as JSON lines")
    sp.add_argument("--max-p", type=int, help="dp vertex limit (default: 15)")
    sp.add_argument("--max-parents", type=int, help="dp parent-set cap")
    add_out(sp)
    sp.set_defaults(func=cmd_fit)

    sp = sub.add_parser("essential", help="essential graph of a DAG")
    sp.add_argument("--dag", required=True, help="DAG JSON path")
    sp.add_argument("--targets", required=True)
    add_out(sp)
    sp.set_defaults(func=cmd_essential)

    sp = sub.add_parser("equiv", help="equivalence of two DAGs under a family")
    sp.add_argument("--dag1", required=True)
    sp.add_argument("--dag2", required=True)
    sp.add_argument("--targets", required=True)
    add_out(sp)
    sp.set_defaults(func=cmd_equiv)

    sp = sub.add_parser("representatives", help="enumerate the DAGs of a class")
    sp.add_argument("--graph", required=True, help="essential graph JSON path")
    sp.add_argument("--targets", required=True)
    sp.add_argument("--limit", type=count, default=10_000)
    sp.add_argument("--out-dir", help="write one JSON file per DAG")
    sp.set_defaults(func=cmd_representatives)

    sp = sub.add_parser("compare", help="SHD report of an estimate vs the truth")
    sp.add_argument("--estimate", required=True, help="graph JSON path")
    sp.add_argument("--truth", required=True, help="true DAG JSON path")
    sp.add_argument("--targets", required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    add_out(sp)
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("sweep", help="simulate+fit+compare over a grid")
    sp.add_argument("--p", type=int, nargs="+", required=True)
    sp.add_argument("--s", type=float, nargs="+", required=True)
    sp.add_argument("--k", type=int, nargs="+", required=True)
    sp.add_argument("--m", type=int, nargs="+", required=True)
    sp.add_argument("--n", type=int, nargs="+", required=True)
    sp.add_argument("--algo", choices=ALGOS, nargs="+", default=["gies"])
    sp.add_argument("--replicates", type=count, default=1)
    sp.add_argument("--seed", type=int, default=0, help="RNG seed")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    add_out(sp)
    sp.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        return 1
    except Exception as e:  # boundary: every failure becomes a JSON error line
        print(
            json.dumps({"error": type(e).__name__, "message": str(e)}),
            file=sys.stderr,
        )
        return 1


if __name__ == "__main__":
    sys.exit(main())
