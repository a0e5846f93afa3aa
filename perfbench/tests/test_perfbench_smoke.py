"""Smoke test of the benchmark at toy sizes.

Every workload runs for a fraction of a second and must print each metric
named in BENCHMARK.json with its unit, and no output check may fail. No
timing is asserted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
COUNT_METRICS = ("hashes_per_proof", "proof_bytes", "huffman_ratio")


def _run(workload: str, trace: int, seed: int = 3, run_py: Path = BENCH_DIR / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=120,
    )
    return proc, proc.stdout.strip().splitlines()


def _printed(lines: list[str]) -> dict[str, tuple[float, str]]:
    """``  name value unit`` lines of the human-readable summary."""
    out = {}
    for line in lines[1:-1]:
        parts = line.split()
        if len(parts) == 3 and line.startswith("  "):
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


def _fail_frac(lines: list[str]) -> float:
    (line,) = [line for line in lines if line.startswith("  # fail_frac ")]
    return float(line.split()[2])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_no_check_fails(workload, trace, kind):
    proc, lines = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    expected = {spec["name"]: spec["unit"] for spec in SPEC[kind]}
    assert {name: unit for name, (_, unit) in _printed(lines).items()} == expected
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert _fail_frac(lines) == 0.0
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1


def test_serve_bypasses_restructure():
    proc, lines = _run("serve", 1)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(lines[-1])["metrics"]
    restructure = {name: m["value"] for name, m in metrics.items() if name.startswith("restructure.")}
    assert restructure and all(value == 0 for value in restructure.values())
    assert metrics["proofs.verify.s"]["value"] > 0


def test_count_metrics_repeat_exactly_for_one_seed():
    first = json.loads(_run("drift", 0, seed=11)[1][-1])["metrics"]
    second = json.loads(_run("drift", 0, seed=11)[1][-1])["metrics"]
    for name in COUNT_METRICS:
        assert first[name]["value"] == second[name]["value"], name


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc, lines = _run("serve", 0, run_py=tmp_path / BENCH_DIR.name / "run.py")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
