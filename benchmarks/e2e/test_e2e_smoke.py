"""Smoke test of the end-to-end benchmark (``python -m pytest
benchmarks/e2e``; outside tier-1's ``testpaths``).

Runs every workload at ``--scale smoke`` with ``--trace`` and checks the
report's shape against ``BENCHMARK.json``; the numbers themselves are
the benchmark's business.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE))

from run import verdict  # noqa: E402


def test_smoke_run_reports_every_declared_metric(tmp_path):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
         "--trace", "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0

    runs = {run["workload"]: run for run in json.loads(out.read_text())["runs"]}
    assert sorted(runs) == sorted(w["name"] for w in spec["workloads"])
    for run in runs.values():
        assert run["attempted"] > 0 and run["failed"] == 0
        for declared in spec["end_to_end"]:
            metric = run["metrics"][declared["name"]]
            assert metric["unit"] == declared["unit"]
            assert metric["samples"] >= 1 and metric["value"] > 0
        for declared in spec["per_layer"]:
            assert run["layers"][declared["name"]]["unit"] == declared["unit"]
        assert run["layers"]["unattributed_pct"]["value"] <= 5.0
    # every declared layer row is measured on at least one workload
    for declared in spec["per_layer"]:
        assert any(run["layers"][declared["name"]]["samples"]
                   for run in runs.values()), declared["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "search-q5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("old, new, expected", [
    ([10.0, 10.1, 9.9], [10.0, 10.2, 9.8], "unchanged"),
    ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "worse"),
    ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "better"),
    ([10.0, 14.0, 6.0], [11.0, 15.0, 7.0], "unresolved"),
    # spread wider than the bound, yet every new run beats every old one
    ([10.0, 12.0, 8.0], [6.0, 7.0, 5.0], "better"),
])
def test_compare_verdicts(old, new, expected):
    def entry(values):
        ordered = sorted(values)
        return {"values": values, "q1": ordered[0], "median": ordered[1],
                "q3": ordered[2]}

    assert verdict(entry(old), entry(new), "lower", 0.1) == expected
