"""Smoke test of the benchmark itself, on tiny traces.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py

Every workload runs once untraced and once traced in ``--tiny`` mode; each
run must pass its own correctness checks and print every metric that
``BENCHMARK.json`` names, with its unit.  A held-out seed must give the
same metric set with no failed operation, and the benchmark must refuse
to run without the program's sources next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
HELD_OUT_SEED = 7919


def _run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(workload: str, seed: int, trace: int) -> dict:
    proc = _run(workload, seed, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout[-2000:]
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_present_with_its_unit(workload, trace):
    declared = SPEC["per_layer" if trace else "end_to_end"]
    metrics = _result(workload, 1, trace)["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in metrics.items()}
    for name, m in metrics.items():
        assert isinstance(m["value"], (int, float)), name


def test_held_out_seed_gives_the_same_metric_set():
    workload = SPEC["workloads"][-1]["name"]
    first = _result(workload, 1, 0)["metrics"]
    held_out = _result(workload, HELD_OUT_SEED, 0)["metrics"]
    assert set(first) == set(held_out)
    assert held_out["ok_frac"]["value"] == 1.0


def test_layer_map_covers_every_per_layer_metric():
    layer_map = json.loads((HERE / "layer_map.json").read_text())
    assert set(layer_map["per_layer"]) == {m["name"]
                                           for m in SPEC["per_layer"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for entry in layer_map["per_layer"].values():
        for metric, workload in entry["moves"]:
            assert metric in end_to_end and workload in workloads


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(SPEC["workloads"][0]["name"], 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
