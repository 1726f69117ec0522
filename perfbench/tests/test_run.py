"""End-to-end runs of the benchmark command on the shortest workload."""

import json
import os
import shutil
import subprocess

from conftest import BENCH, ROOT

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH_JSON = json.load(fh)


def run_command(cwd, *args):
    return subprocess.run(BENCH_JSON["command"] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_untraced_run_reports_end_to_end_metrics():
    proc = run_command(ROOT, "--workload", "fold_suite", "--seed", "7",
                       "--seconds", "0.01", "--trace", "0")
    result = result_line(proc)
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == 3 * 3  # three repeats of three sweeps
    declared = {m["name"]: m["unit"] for m in BENCH_JSON["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_per_layer_metrics():
    proc = run_command(ROOT, "--workload", "fold_suite", "--seed", "7",
                       "--seconds", "0.01", "--trace", "1")
    result = result_line(proc)
    assert result["correct"] is True
    declared = {m["name"]: m["unit"] for m in BENCH_JSON["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_command(tmp_path, "--workload", "fold_suite", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_unknown_workload_is_refused():
    proc = run_command(ROOT, "--workload", "no_such", "--seed", "1",
                       "--seconds", "1", "--trace", "0")
    assert proc.returncode == 2
    assert "unknown workload 'no_such'" in proc.stderr
    assert "{" not in proc.stdout


def test_workload_names_agree():
    import workloads

    declared = tuple(w["name"] for w in BENCH_JSON["workloads"])
    assert declared == tuple(workloads.WORKLOADS)
