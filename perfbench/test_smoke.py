"""Smoke test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that each run is correct, prints exactly the metric names and units
that BENCHMARK.json lists, and is deterministic: the same seed gives the
same digest, traced or not.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, seed=7, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digest = next(m.group(1) for m in map(re.compile(r"digest sha256:(\w+)").match, lines) if m)
    return result, digest, lines


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_smoke(workload):
    results = {}
    for key, trace in (("first", 0), ("again", 0), ("traced", 1)):
        result, digest, lines = _result(_run(workload, trace))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in listed
        }
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        results[key] = (result, digest, lines)
    assert results["first"][1] == results["again"][1] == results["traced"][1]
    assert _result(_run(workload, 0, seed=8))[1] != results["first"][1]
    assert all(v["value"] > 0 for v in results["first"][0]["metrics"].values())
    if workload == "sweep_exhaustive":
        assert any(re.match(r"jobs=1 and jobs=\d+ reports identical: True", line)
                   for line in results["traced"][2])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
