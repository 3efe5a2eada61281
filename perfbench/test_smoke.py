"""Smoke test of the benchmark itself, at tiny size.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def tiny(workload, trace, seed=3, root=ROOT):
    return run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--size", "tiny", root=root)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_and_reports_every_metric(workload, trace):
    proc = tiny(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH[section]
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    def counts():
        metrics = last_json(tiny(workload, 1))["metrics"]
        return {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}

    assert counts() == counts()


def _copy_layout(dest, with_package):
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    if with_package:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))


def test_fails_without_the_package(tmp_path):
    _copy_layout(tmp_path, with_package=False)
    proc = run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
               root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_failed_output_check_fails_the_run(tmp_path):
    _copy_layout(tmp_path, with_package=True)
    expected_path = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(expected_path.read_text())
    expected["canary"]["table_semi"]["semi_eps"]["mean_accuracy"] += 0.01
    expected_path.write_text(json.dumps(expected))
    proc = tiny("table_semi", 0, root=tmp_path)
    assert proc.returncode == 1
    assert last_json(proc)["correct"] is False
