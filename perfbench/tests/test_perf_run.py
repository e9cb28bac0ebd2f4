import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*extra, python=(sys.executable,), cwd=ROOT):
    cmd = [*python, str(Path(cwd) / "perfbench" / "run.py"), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def _smoke(workload, seed, trace):
    return _result(_run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                        "--trace", str(trace), "--size", "smoke"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    metrics = _smoke(workload, 5, 0)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


def test_traced_smoke_runs_repeat_their_counts():
    first = _smoke("tensor_frontier", 5, 1)["metrics"]
    second = _smoke("tensor_frontier", 5, 1)["metrics"]
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert first[m["name"]]["unit"] == m["unit"]
        if m["unit"] in ("count", "ratio"):
            assert first[m["name"]]["value"] == second[m["name"]]["value"], m["name"]
    assert first["linalg.calls"]["value"] > 0 and first["jm.paths"]["value"] > 0


def test_traced_battery_times_each_criterion_it_runs():
    metrics = _smoke("battery", 5, 1)["metrics"]
    ran = {"acceptance.crit01_s", "acceptance.crit13_s"}
    for num in range(1, 15):
        name = f"acceptance.crit{num:02d}_s"
        assert (metrics[name]["value"] > 0) == (name in ran), name


def test_refuses_to_run_with_asserts_disabled():
    proc = _run("--workload", "battery", "--seed", "1", "--seconds", "1", "--trace", "0",
                "--size", "smoke", python=(sys.executable, "-O"))
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "asserts disabled" in proc.stderr


def test_fails_without_printing_a_result_when_the_sources_are_missing():
    bare = BENCH / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run("--workload", "battery", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
