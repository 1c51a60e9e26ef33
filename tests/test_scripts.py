"""The experiment scripts under scripts/, run end to end on tiny grids."""

from __future__ import annotations

import csv
import importlib.util
import json
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from gieskit import SimConfig, dp_exact, gds, gies, simulate
from gieskit.cli import SWEEP_COLUMNS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script, args, header", [
    ("algorithm_comparison.py", ["--p", "5", "--k", "0", "2", "--replicates", "1"],
     list(SWEEP_COLUMNS)),
    ("identifiability_sweep.py", ["--p", "5", "--dags", "3"],
     ["p", "s", "m", "k", "dag", "non_essential"]),
])
def test_script_writes_its_csv(tmp_path, script, args, header):
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args, "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with out.open(newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == header
    assert len(rows) > 1


@pytest.mark.parametrize("script, flag", [
    ("algorithm_comparison.py", "--replicates"),
    ("identifiability_sweep.py", "--dags"),
])
def test_script_rejects_an_empty_grid(tmp_path, script, flag):
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), flag, "0", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert f"error: {flag} must be at least 1" in proc.stderr
    assert not out.exists()


def _load(path: Path):
    """The module at path, imported under its file name."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _bench_record():
    return _load(SCRIPTS / "bench_record.py")


def test_bench_record_alternates_the_one_off_timings():
    bench_record = _bench_record()
    sides = {"parent": Path("parent"), "change": Path("change")}
    calls = []

    def run(tree):
        calls.append(tree.name)
        # the host speeds up as the recording goes on
        return {"12": 10.0 - len(calls), "13": float(len(calls))}

    out = bench_record.alternate(run, sides, lambda r: r)
    assert calls == ["parent", "change", "change", "parent"]
    assert [r["side"] for r in out["runs"]] == calls
    assert [r["result"]["12"] for r in out["runs"]] == [9.0, 8.0, 7.0, 6.0]
    assert out["best_s"] == {
        "parent": {"12": 6.0, "13": 1.0},
        "change": {"12": 7.0, "13": 2.0},
    }


def test_bench_record_counts_a_tie_for_neither_side():
    bench_record = _bench_record()

    def runs(parent, change):
        return [
            {"side": side, "result": {"metrics": {"fit_s": {"value": x}}}}
            for pair in zip(parent, change)
            for side, x in zip(("parent", "change"), pair)
        ]

    metrics = [{"name": "fit_s", "better": "lower"}]
    got = bench_record.summarize(runs([1.0, 2.0, 3.0], [0.5, 2.0, 3.5]), metrics)
    assert got["fit_s"]["change_wins"] == 1
    assert got["fit_s"]["pairs"] == 3
    # for a metric where higher is better, the same values make the other
    # pair the win; the tie still counts for neither side
    metrics = [{"name": "fit_s", "better": "higher"}]
    got = bench_record.summarize(runs([1.0, 2.0, 3.0], [0.5, 2.0, 3.5]), metrics)
    assert got["fit_s"]["change_wins"] == 1


def test_bench_record_keeps_each_runs_cpu_time_and_page_faults(tmp_path):
    # a stand-in run.py that touches 8 MB of fresh pages: about 2,000
    # minor faults in its own process, none of which is the recorder's
    bench_record = _bench_record()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json, sys\n"
        "block = bytearray(8 << 20)\n"
        "block[::4096] = b'x' * len(block[::4096])\n"
        "print('header')\n"
        "print(json.dumps({'args': sys.argv[1:]}))\n"
    )
    run = bench_record.bench(tmp_path, "gies-sparse-p40", 3, 0.5, 0)
    assert run["result"] == {"args": [
        "--workload", "gies-sparse-p40", "--seed", "3", "--seconds", "0.5", "--trace", "0",
    ]}
    assert set(run) == {"result", "user_s", "sys_s", "minflt"}
    assert run["user_s"] >= 0 and run["sys_s"] >= 0
    assert run["user_s"] + run["sys_s"] > 0
    assert 1000 < run["minflt"] < 100_000


def test_bench_record_stores_the_code_lines_of_each_side(tmp_path, monkeypatch):
    # the runs are stand-ins; the two sides' libraries differ by one line
    bench_record = _bench_record()
    for side, body in (("parent", "x = 1\ny = 2\n"), ("change", "x = 1\n")):
        (tmp_path / side / "src" / "gieskit").mkdir(parents=True)
        (tmp_path / side / "src" / "gieskit" / "a.py").write_text(body)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path / "change")
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 0, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "fit_s", "better": "lower"}],
    }))
    monkeypatch.setattr(bench_record, "bench", lambda *args: {
        "result": {"metrics": {"fit_s": {"value": 1.0}}}, "minflt": 0,
    })
    monkeypatch.setattr(bench_record, "criterion_11", lambda tree: {"medians_s": {}})
    monkeypatch.setattr(bench_record, "dp_exact_times", lambda tree: {})
    out = tmp_path / "BENCH.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_record.py", "--parent", str(tmp_path / "parent"), "--seeds", "1", "2",
        "--trace-seed", "3", "--out", str(out),
    ])
    assert bench_record.main() == 0
    assert json.loads(out.read_text())["library_lines"] == {
        "parent": {"a.py": 2}, "change": {"a.py": 1},
    }


def _library_size():
    return _load(SCRIPTS / "library_size.py")


def test_library_size_counts_code_lines_only(tmp_path):
    # 6 code lines: docstrings, comments and blank lines do not count, a
    # code line with a comment does, and so does every line of a
    # multi-line string that is not a docstring
    (tmp_path / "a.py").write_text(
        '"""Module docstring\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # a trailing comment\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        "        '''Function\n"
        "        docstring.'''\n"
        "        x = '''not a\n"
        "        docstring'''\n"
        "        return x\n"
    )
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = (\n    1,\n)\n")
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "library_size.py"), str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["a.py", "6", "sub/b.py", "3", "total", "9"]
    assert _library_size().code_lines("") == 0


def test_unreached_lists_the_lines_a_call_never_runs(tmp_path):
    unreached = _load(SCRIPTS / "unreached.py")
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def sign(x):\n"
        "    if x < 0:\n"
        "        return -1\n"  # line 3, the one branch sign(5) skips
        "    return 1\n"
    )
    # the module runs inside the call, so its top level is traced too
    result, missed = unreached.unreached(
        lambda: runpy.run_path(str(probe))["sign"](5), tmp_path
    )
    assert result == 1
    assert missed == {"probe.py": [3]}


PERFBENCH = SCRIPTS.parent / "perfbench"
LEARNERS = {"gies": gies, "gds": gds, "dp_exact": dp_exact}


def _ci_traced_counts() -> dict[str, tuple[str, ...]]:
    """The counts that CI's traced seed-0 step ("Benchmark layer counts" in
    .github/workflows/tests.yml) requires above 0, per workload: its specs
    are quoted lines of a workload name and then the count names."""
    ci = (SCRIPTS.parent / ".github" / "workflows" / "tests.yml").read_text()
    step = ci.split("Benchmark layer counts", 1)[1].split("- name:", 1)[0]
    specs = re.findall(r'^\s*"([\w-]+) ([\w. ]+)"', step, re.MULTILINE)
    return {w: tuple(names.split()) for w, names in specs}


CI_TRACED_COUNTS = _ci_traced_counts()


def test_ci_traces_every_workload():
    assert sorted(CI_TRACED_COUNTS) == sorted(_load(PERFBENCH / "workloads.py").WORKLOADS)


# perfbench/tracing.py patches module globals (search.best_move,
# search.has_path, search.local_score, search.MoveCandidate, ...), so a
# refactor that stops calling one of them drops its layer from the trace
# and fails CI's traced step; this runs the same check on a tiny input.
@pytest.mark.parametrize("workload", sorted(CI_TRACED_COUNTS))
def test_the_tracer_sees_every_layer_that_ci_requires(workload):
    tracing = _load(PERFBENCH / "tracing.py")
    learner = _load(PERFBENCH / "workloads.py").WORKLOADS[workload].learner
    root = _load(PERFBENCH / "run.py").ROOT_SPANS[learner]
    required = CI_TRACED_COUNTS[workload]
    sim = simulate(SimConfig(p=6, s=0.5, k=2, m=1, n=300, seed=3))
    tracer, setup = tracing.Tracer(), tracing.Tracer()
    for name in ("scoring.read_csv", "scoring.check_family"):
        setup.span(name, lambda: None)()
    with tracer.patched():
        res = tracer.span(root, LEARNERS[learner])(sim.data, sim.fam)
    root_id = next(s[0] for s in tracer.spans if s[1] == 0)
    steps = getattr(res, "steps", 0)
    metrics = tracing.per_layer(tracer, root_id, steps, setup, 0.0, 1.0, 1.0)
    counts = {name: metrics[name][0] for name in required}
    assert min(counts.values()) > 0, counts
