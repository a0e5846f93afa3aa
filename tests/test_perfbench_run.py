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
# the proof layers serve and drift run once per read, in call order
PROOF_LAYERS = ("proofs.prove.s", "proofs.to_json_bytes.s", "proofs.from_json_dict.s", "proofs.verify.s")


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
    if trace:
        # results come in serve, grow, drift order; a reader loop that went
        # round a wrapped name would read 0 here instead of failing
        for result in (results[0], results[2]):
            for name in PROOF_LAYERS:
                assert result["metrics"][name]["value"] > 0, (name, result["metrics"])
