"""Command-line interface, exercised in process through main(argv)."""

from __future__ import annotations

import ast
import csv
import json
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

import cases
import gieskit
from gieskit import (
    Dag,
    Graph,
    InterventionalDataset,
    SimConfig,
    dp_exact,
    essential_graph,
    evaluate,
    gds,
    markov_equivalent,
    simulate,
    skeleton,
)
from gieskit.cli import ALGOS, SWEEP_COLUMNS, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, graph):
    path.write_text(graph.to_json() + "\n")
    return str(path)


SIM_ARGS = ("simulate", "--p", "5", "--s", "0.5", "--k", "2", "--m", "1",
            "--n", "400", "--seed", "11")


@pytest.fixture()
def sim_dir(tmp_path, capsys):
    out = tmp_path / "scenario"
    code, _, _ = run(capsys, *SIM_ARGS, "--out-dir", str(out))
    assert code == 0
    return out


# -- simulate ------------------------------------------------------------------


def test_simulate_writes_the_scenario_bundle(sim_dir, capsys):
    names = {p.name for p in sim_dir.iterdir()}
    assert names == {"dataset.csv", "truth_dag.json", "truth_essential.json",
                     "params.json", "metadata.json"}
    data = InterventionalDataset.read_csv(sim_dir / "dataset.csv")
    assert data.n == 400 and data.p == 5
    dag = Dag.from_dict(json.loads((sim_dir / "truth_dag.json").read_text()))
    params = json.loads((sim_dir / "params.json").read_text())
    B = np.asarray(params["B"])
    assert {(a, b) for a, b in dag.arrows} == {
        (j + 1, i + 1) for i, j in zip(*np.nonzero(B))
    }
    assert len(params["sigma2"]) == 5
    meta = json.loads((sim_dir / "metadata.json").read_text())
    assert meta["seed"] == 11 and meta["rng"] == "philox"
    fam = [tuple(t) for t in meta["targets"]]
    assert fam[0] == () and len(fam) == 3
    ess = Graph.from_dict(json.loads((sim_dir / "truth_essential.json").read_text()))
    assert skeleton(ess) == skeleton(dag)


class _ClosedPipe:
    """A stdout whose reader has gone, as after `gieskit ... | head -0`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_simulate_stdout_reports_the_bundle(tmp_path, capsys, monkeypatch):
    out = tmp_path / "s"
    code, stdout, _ = run(capsys, *SIM_ARGS, "--out-dir", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["out_dir"] == str(out)
    assert payload["metadata"]["n"] == 400
    # a closed stdout ends the run with 1 and no JSON error line
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code, _, err = run(capsys, *SIM_ARGS, "--out-dir", str(out))
    assert code == 1 and err == ""


def test_simulate_replicates_differ(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    run(capsys, *SIM_ARGS, "--out-dir", str(a))
    run(capsys, *SIM_ARGS, "--replicate", "1", "--out-dir", str(b))
    da = InterventionalDataset.read_csv(a / "dataset.csv")
    db = InterventionalDataset.read_csv(b / "dataset.csv")
    assert not np.array_equal(da.X, db.X)


# -- fit -----------------------------------------------------------------------


def test_fit_recovers_the_truth_essential_graph(sim_dir, capsys):
    code, stdout, _ = run(capsys, "fit", "--data", str(sim_dir / "dataset.csv"))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["algo"] == "gies" and payload["steps"] > 0
    assert payload["runtime_s"] > 0
    fitted = Graph.from_dict(payload)
    truth_ess = Graph.from_dict(
        json.loads((sim_dir / "truth_essential.json").read_text())
    )
    assert fitted == truth_ess


def test_fit_targets_default_to_the_dataset_labels(sim_dir, capsys):
    meta = json.loads((sim_dir / "metadata.json").read_text())
    text = json.dumps(meta["targets"])
    _, implicit, _ = run(capsys, "fit", "--data", str(sim_dir / "dataset.csv"))
    _, explicit, _ = run(capsys, "fit", "--data", str(sim_dir / "dataset.csv"),
                         "--targets", text)
    a, b = json.loads(implicit), json.loads(explicit)
    a.pop("runtime_s"), b.pop("runtime_s")
    assert a == b


def test_fit_writes_out_file_and_trace(sim_dir, tmp_path, capsys):
    out = tmp_path / "fit.json"
    trace = tmp_path / "trace.jsonl"
    code, stdout, _ = run(capsys, "fit", "--data", str(sim_dir / "dataset.csv"),
                          "--out", str(out), "--trace", str(trace))
    assert code == 0 and stdout == ""
    payload = json.loads(out.read_text())
    assert payload["algo"] == "gies"
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert len(records) == payload["steps"]
    assert set(records[0]) == {"phase", "kind", "u", "v", "C", "delta", "score"}
    assert all(r["delta"] > 0 for r in records)


def test_fit_algos_agree_on_an_easy_instance(sim_dir, capsys):
    scores = {}
    for algo in ("gies", "gds", "dp"):
        _, stdout, _ = run(capsys, "fit", "--data", str(sim_dir / "dataset.csv"),
                           "--algo", algo)
        scores[algo] = json.loads(stdout)["score"]
    assert scores["gies"] == pytest.approx(scores["gds"], rel=1e-9)
    assert scores["gies"] == pytest.approx(scores["dp"], rel=1e-9)


def test_fit_dp_rejects_large_problems(sim_dir, capsys):
    code, stdout, err = run(capsys, "fit", "--data", str(sim_dir / "dataset.csv"),
                            "--algo", "dp", "--max-p", "3")
    assert code == 1 and stdout == ""
    payload = json.loads(err)
    assert payload["error"] == "TooLarge"


@pytest.mark.parametrize("flag", [("--format", "csv"), ("--seed", "3")])
def test_fit_rejects_flags_it_does_not_read(sim_dir, capsys, flag):
    # fit prints JSON and is deterministic: --format and --seed would be
    # accepted and then ignored
    with pytest.raises(SystemExit) as err:
        main(["fit", "--data", str(sim_dir / "dataset.csv"), *flag])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("algo, flag", [
    ("dp", ("--penalty", "per-node")),
    ("dp", ("--max-degree", "2")),
    ("dp", ("--trace", "t.jsonl")),
    ("gies", ("--max-p", "12")),
    ("gds", ("--max-parents", "2")),
    ("ges", ("--max-p", "12")),
    ("ges", ("--targets", "[]; [2]")),
])
def test_fit_rejects_flags_its_algorithm_ignores(tmp_path, capsys, algo, flag):
    # checked before the data is read: the data file does not exist
    code, stdout, err = run(capsys, "fit", "--data", str(tmp_path / "none.csv"),
                            "--algo", algo, *flag)
    assert code == 1 and stdout == ""
    payload = json.loads(err)
    assert payload["error"] == "ValueError"
    assert payload["message"] == f"{flag[0]} is not read by --algo {algo}"


def test_fit_passes_the_dp_limits(sim_dir, capsys):
    code, stdout, _ = run(capsys, "fit", "--data", str(sim_dir / "dataset.csv"),
                          "--algo", "dp", "--max-p", "5", "--max-parents", "0")
    assert code == 0
    assert json.loads(stdout)["arrows"] == []


@pytest.mark.parametrize("flags, option", [
    (("--max-degree", "-1"), "max_degree"),
    (("--algo", "dp", "--max-parents", "-1"), "max_parents"),
])
def test_fit_rejects_negative_caps(sim_dir, capsys, flags, option):
    code, stdout, err = run(capsys, "fit", "--data", str(sim_dir / "dataset.csv"),
                            *flags)
    assert code == 1 and stdout == ""
    assert json.loads(err) == {
        "error": "GraphError", "message": f"{option} must be >= 0, got -1",
    }


def test_fit_names_a_family_that_does_not_match_the_labels(sim_dir, capsys):
    # the dataset's rows are labelled [], [1] and [5]: [5] is not a member
    code, stdout, err = run(capsys, "fit", "--data", str(sim_dir / "dataset.csv"),
                            "--targets", "[]; [1]")
    assert code == 1 and stdout == ""
    assert json.loads(err)["error"] == "FamilyMismatch"


def test_fit_reports_non_finite_data(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,target\n1.0,2.0,\n3.0,nan,\n")
    code, stdout, err = run(capsys, "fit", "--data", str(path))
    assert code == 1 and stdout == ""
    assert json.loads(err)["error"] == "NonFiniteData"


def test_fit_reports_overflowing_squares(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,target\n1.0,2e160,\n3.0,-1e160,\n")
    code, stdout, err = run(capsys, "fit", "--data", str(path))
    assert code == 1 and stdout == ""
    assert json.loads(err)["error"] == "NonFiniteData"


def test_fit_reports_duplicated_columns(tmp_path, capsys):
    path = tmp_path / "d.csv"
    path.write_text("x1,x2,x3,target\n1.0,2.0,1.0,\n3.0,-1.0,3.0,\n0.5,4.0,0.5,\n")
    for algo in ("gies", "gds", "dp"):
        code, stdout, err = run(capsys, "fit", "--data", str(path), "--algo", algo)
        assert code == 1 and stdout == ""
        assert json.loads(err) == {
            "error": "DegenerateColumns", "message": "duplicated columns: x3 = x1",
        }


# -- essential / equiv / representatives ----------------------------------------


@pytest.mark.parametrize("graph, field", [
    ({"arrows": [[1, 2]]}, "'p'"),
    ({"p": 3, "arrows": [[1]]}, "'arrows'"),
])
def test_essential_names_the_malformed_graph_field(tmp_path, capsys, graph, field):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(graph))
    code, stdout, err = run(capsys, "essential", "--dag", str(path), "--targets", "[]")
    assert code == 1 and stdout == ""
    payload = json.loads(err)
    assert payload["error"] == "GraphError" and field in payload["message"]


def test_essential_matches_the_library(tmp_path, capsys):
    path = write_json(tmp_path / "d.json", cases.dag_7v())
    code, stdout, _ = run(capsys, "essential", "--dag", path,
                          "--targets", "[]; [4]")
    assert code == 0
    expect = essential_graph(cases.dag_7v(), cases.FAM_T4).graph
    assert Graph.from_dict(json.loads(stdout)) == expect


def test_equiv_depends_on_the_family(tmp_path, capsys):
    p1 = write_json(tmp_path / "d1.json", cases.dag_7v())
    p2 = write_json(tmp_path / "d2.json", cases.dag_7v_c())
    _, out_obs, _ = run(capsys, "equiv", "--dag1", p1, "--dag2", p2,
                        "--targets", "[]")
    _, out_t4, _ = run(capsys, "equiv", "--dag1", p1, "--dag2", p2,
                       "--targets", "[]; [4]")
    assert json.loads(out_obs) == {"equivalent": True}
    assert json.loads(out_t4) == {"equivalent": False}


def test_representatives_enumerates_the_class(tmp_path, capsys):
    path = write_json(tmp_path / "e.json", cases.eg_7v_t4())
    code, stdout, _ = run(capsys, "representatives", "--graph", path,
                          "--targets", "[]; [4]")
    assert code == 0
    payload = json.loads(stdout)
    assert payload["count"] == 8
    dags = [Dag.from_dict(d) for d in payload["dags"]]
    assert cases.dag_7v() in dags and cases.dag_7v_b() in dags
    assert all(markov_equivalent(d, dags[0], cases.FAM_T4) for d in dags)


def test_representatives_out_dir_writes_one_file_per_dag(tmp_path, capsys):
    path = write_json(tmp_path / "e.json", cases.eg_7v_t4())
    out = tmp_path / "class"
    code, stdout, _ = run(capsys, "representatives", "--graph", path,
                          "--targets", "[]; [4]", "--out-dir", str(out))
    assert code == 0
    payload = json.loads(stdout)
    assert payload["count"] == 8 and len(payload["files"]) == 8
    assert (out / "dag_000.json").exists() and (out / "dag_007.json").exists()
    d = Dag.from_dict(json.loads((out / "dag_000.json").read_text()))
    assert d.p == 7


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_representatives_limit_below_one_is_a_usage_error(tmp_path, capsys, limit):
    path = write_json(tmp_path / "e.json", cases.eg_7v_t4())
    with pytest.raises(SystemExit) as err:
        main(["representatives", "--graph", path, "--targets", "[]; [4]",
              "--limit", limit])
    assert err.value.code == 2
    assert f"--limit: must be at least 1, got {limit}" in capsys.readouterr().err


def test_representatives_rejects_non_essential_input(tmp_path, capsys):
    # a raw DAG with unprotected arrows is not a class representative graph
    path = write_json(tmp_path / "d.json", cases.dag_7v())
    code, _, err = run(capsys, "representatives", "--graph", path,
                       "--targets", "[]; [4]")
    assert code == 1
    assert "unprotected-arrow" in json.loads(err)["message"]


# -- compare -------------------------------------------------------------------


def test_compare_reports_the_evaluation(tmp_path, capsys):
    est = write_json(tmp_path / "est.json", cases.eg_7v_t4())
    truth = write_json(tmp_path / "truth.json", cases.dag_7v())
    code, stdout, _ = run(capsys, "compare", "--estimate", est,
                          "--truth", truth, "--targets", "[]; [4]")
    assert code == 0
    expect = evaluate(cases.eg_7v_t4(), cases.dag_7v(), cases.FAM_T4).to_dict()
    assert json.loads(stdout) == expect


def test_compare_csv_format(tmp_path, capsys):
    est = write_json(tmp_path / "est.json", cases.eg_7v_t4())
    truth = write_json(tmp_path / "truth.json", cases.dag_7v())
    code, stdout, _ = run(capsys, "compare", "--estimate", est,
                          "--truth", truth, "--targets", "[]; [4]",
                          "--format", "csv")
    assert code == 0
    header, row = stdout.strip().splitlines()
    assert header == "shd,fp,fn,wo,shd_vs_essential,non_essential_true"
    assert row.split(",")[0] == "4"


def test_compare_csv_honours_out(tmp_path, capsys):
    est = write_json(tmp_path / "est.json", cases.eg_7v_t4())
    truth = write_json(tmp_path / "truth.json", cases.dag_7v())
    out = tmp_path / "report.csv"
    code, stdout, _ = run(capsys, "compare", "--estimate", est,
                          "--truth", truth, "--targets", "[]; [4]",
                          "--format", "csv", "--out", str(out))
    assert code == 0 and stdout == ""
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1 and rows[0]["shd"] == "4"


# -- sweep ---------------------------------------------------------------------


def test_sweep_writes_one_csv_row_per_job(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run(
        capsys, "sweep", "--p", "4", "--s", "0.4", "--k", "1", "--m", "1",
        "--n", "200", "--algo", "gies", "gds", "--replicates", "2",
        "--format", "csv", "--out", str(out), "--seed", "5",
    )
    assert code == 0 and stdout == ""
    with open(out, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    assert tuple(rows[0]) == SWEEP_COLUMNS
    assert {r["algo"] for r in rows} == {"gies", "gds"}
    assert {r["replicate"] for r in rows} == {"0", "1"}
    # same scenario per replicate, so both algorithms land on one score
    by_rep = {}
    for r in rows:
        by_rep.setdefault(r["replicate"], set()).add(round(float(r["score"]), 6))
    assert all(len(v) == 1 for v in by_rep.values())


def test_sweep_compares_the_class_of_a_dag_estimate(capsys):
    code, stdout, _ = run(
        capsys, "sweep", "--p", "5", "--s", "0.5", "--k", "0", "2", "--m", "1",
        "--n", "300", "--algo", "gds", "dp", "--replicates", "2", "--seed", "3",
    )
    assert code == 0
    rows = json.loads(stdout)
    assert len(rows) == 8
    learn = {"gds": lambda res: gds(res.data, res.fam).dag,
             "dp": lambda res: dp_exact(res.data, res.fam).dag}
    for row in rows:
        res = simulate(SimConfig(p=5, s=0.5, k=row["k"], m=1, n=300, seed=3),
                       replicate=row["replicate"])
        est = essential_graph(learn[row["algo"]](res), res.fam).graph
        want = evaluate(est, res.dag, res.fam).to_dict()
        assert {c: row[c] for c in want} == want


def test_sweep_json_format(capsys):
    code, stdout, _ = run(
        capsys, "sweep", "--p", "4", "--s", "0.4", "--k", "0", "--m", "1",
        "--n", "150", "--replicates", "1", "--seed", "2",
    )
    assert code == 0
    rows = json.loads(stdout)
    assert len(rows) == 1 and set(rows[0]) == set(SWEEP_COLUMNS)


def test_sweep_rows_follow_the_grid_order(capsys):
    code, stdout, _ = run(
        capsys, "sweep", "--p", "4", "--s", "0.5", "--k", "0", "2", "--m", "1",
        "--n", "150", "--algo", *ALGOS, "--seed", "3",
    )
    assert code == 0
    rows = json.loads(stdout)
    assert [(row["k"], row["algo"]) for row in rows] == list(product([0, 2], ALGOS))


def test_sweep_names_a_learner_error_whatever_the_environment(capsys, monkeypatch):
    # GIESKIT_THREADS=2 once ran the rows in a process pool, which could not
    # unpickle TooLarge and reported BrokenProcessPool
    monkeypatch.setenv("GIESKIT_THREADS", "2")
    code, stdout, err = run(
        capsys, "sweep", "--p", "16", "--s", "0.2", "--k", "0", "--m", "1",
        "--n", "100", "--algo", "dp", "--replicates", "2",
    )
    assert code == 1 and stdout == ""
    assert json.loads(err) == {
        "error": "TooLarge", "message": "p = 16 exceeds the exact-search limit 15",
    }


def test_no_library_module_reads_the_environment():
    # a setting read from the environment is an option that no flag or
    # parameter shows
    reads = []
    for path in sorted(Path(gieskit.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id == "os"
            ) or (
                isinstance(node, ast.ImportFrom) and node.module == "os"
                and {a.name for a in node.names} & {"environ", "getenv"}
            ):
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


def test_sweep_rejects_an_empty_grid(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as err:
        main(["sweep", "--p", "4", "--s", "0.4", "--k", "0", "--m", "1",
              "--n", "150", "--replicates", "0", "--format", "csv",
              "--out", str(out)])
    assert err.value.code == 2
    assert "--replicates: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid, error", [
    (("--p", "4", "--s", "1.5", "--k", "0", "--n", "100"), "InvalidSimConfig"),
    (("--p", "0", "--s", "0.5", "--k", "0", "--n", "100"), "InvalidSimConfig"),
    (("--p", "6", "--s", "0.5", "--k", "4", "--n", "3"), "InfeasibleTargets"),
    (("--p", "4", "--s", "0.5", "--k", "1", "--m", "0", "--n", "20"),
     "InfeasibleTargets"),
    (("--p", "4", "--s", "0.5", "--k", "0", "--n", "20", "--level-sd", "-1"),
     "InvalidSimConfig"),
    (("--p", "4", "--s", "0.5", "--k", "0", "--n", "20", "--level-sd", "nan"),
     "InvalidSimConfig"),
    (("--p", "4", "--s", "0.5", "--k", "0", "--n", "20", "--level-mean", "inf"),
     "InvalidSimConfig"),
    (("--p", "4", "--s", "0.5", "--k", "0", "--n", "20", "--seed", "-1"),
     "InvalidSimConfig"),
    (("--p", "4", "--s", "0.5", "--k", "0", "--n", "20", "--replicate", "-1"),
     "InvalidSimConfig"),
])
def test_simulate_and_sweep_name_a_bad_scenario(tmp_path, capsys, grid, error):
    out = tmp_path / "scenario"
    # a later --m in the grid overrides this one
    code, stdout, err = run(capsys, "simulate", "--m", "1", *grid,
                            "--out-dir", str(out))
    assert code == 1 and stdout == "" and not out.exists()
    assert json.loads(err)["error"] == error
    if {"--level-sd", "--level-mean", "--replicate"} & set(grid):
        return  # sweep has no level or --replicate flags
    code, stdout, err = run(capsys, "sweep", "--m", "1", *grid)
    assert code == 1 and stdout == ""
    assert json.loads(err)["error"] == error


# -- error handling and entry point ----------------------------------------------


def test_missing_file_becomes_a_json_error(capsys):
    code, stdout, err = run(capsys, "fit", "--data", "/nonexistent.csv")
    assert code == 1 and stdout == ""
    payload = json.loads(err)
    assert payload["error"] == "FileNotFoundError"


def test_console_entry_point(tmp_path):
    p1 = write_json(tmp_path / "d1.json", cases.dag_7v())
    p2 = write_json(tmp_path / "d2.json", cases.dag_7v_b())
    proc = subprocess.run(
        [sys.executable, "-m", "gieskit.cli", "equiv", "--dag1", p1,
         "--dag2", p2, "--targets", "[]; [4]"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"equivalent": True}
