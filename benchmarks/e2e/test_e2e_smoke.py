"""Tier-1 smoke test of the end-to-end benchmark.

Runs every workload at ``--smoke`` size (seconds, g++-free), untraced and
traced, and checks the contract the benchmark driver relies on: the
declarations are well-formed, ``BENCHMARK.json`` mirrors them, and every
workload emits every declared metric by name with its unit.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")

import e2e_spec as spec  # noqa: E402 — importable: pytest puts this directory on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_declarations_are_well_formed():
    names = list(spec.WORKLOADS) + spec.END_TO_END_NAMES + spec.PER_LAYER_NAMES
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(u) for u in spec.UNITS.values())
    assert 2 <= len(spec.WORKLOADS) <= 8
    assert 1 <= len(spec.END_TO_END) <= 16
    assert 1 <= len(spec.PER_LAYER) <= 128
    for workload in spec.WORKLOADS.values():
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        assert set(workload["smoke"]) == set(workload["sizes"])
    for name, unit, better, bound, _meaning in spec.END_TO_END:
        assert better in ("lower", "higher") and 0 < bound <= 0.25
    assert ("setup_s", "s", "lower") in [m[:3] for m in spec.END_TO_END]
    assert all(m[2] in ("lower", "higher") for m in spec.PER_LAYER)
    assert abs(sum(spec.READ_MIX.values()) - 1.0) < 1e-9
    assert spec.CLAIM is None


def test_benchmark_json_mirrors_the_declarations():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared == spec.benchmark_json()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/e2e"]
    # The driver makes 4 + 22 x workloads runs inside 3420 s.
    runs = 4 + 22 * len(declared["workloads"])
    assert runs * declared["run_seconds"] < 3420


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", workload, "--seed", "3", "--trace", str(trace)],
        capture_output=True, text=True, timeout=240, cwd=ROOT, check=False,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_workload_emits_every_declared_metric(workload):
    for trace, declared in ((0, spec.END_TO_END_NAMES), (1, spec.PER_LAYER_NAMES)):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == declared
        for name, metric in result["metrics"].items():
            assert set(metric) == {"value", "unit"}
            assert metric["unit"] == spec.UNITS[name]
            assert isinstance(metric["value"], float) and metric["value"] == metric["value"]
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values()), result["metrics"]
