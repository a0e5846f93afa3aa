"""The benchmark harness, ``perfbench/run.py``, over every workload at toy
sizes, untraced and traced, against this checkout's library. The traced run
wraps each name ``perfbench/layer_trace.py`` lists, looked up with
``getattr``, so a library change that renames or drops one fails here."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_runs_and_checks_out(trace):
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "run.py"), "--workload", "all", "--tiny",
         "--seed", "1", "--seconds", "0.3", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 3
    for result in results:
        assert result["correct"] is True and result["failed"] == 0, result
