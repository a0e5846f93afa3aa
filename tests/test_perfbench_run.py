"""The benchmark harness, ``perfbench/run.py``, over every workload at toy
sizes, untraced and traced, against this checkout's library. The traced run
wraps each name ``perfbench/layer_trace.py`` lists, looked up with
``getattr``, so a library change that renames or drops one fails here.
serve's set-up also runs in-process, under a leaf-hash counter, so work
that comes back into it fails a test, not only the benchmark."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import adaptive_merkle.tree as tree_mod
from adaptive_merkle.tree import hash_leaf

REPO = Path(__file__).resolve().parent.parent
# the proof layers serve and drift run once per read, in call order
PROOF_LAYERS = ("proofs.prove.s", "proofs.to_json_bytes.s", "proofs.from_json_dict.s", "proofs.verify.s")
# The count metrics of an untraced ``--tiny --seed 1`` run, recorded before
# proofs were held as their wire bytes. They depend only on the trees, the
# traces and the proof wire, so a change of how a proof is represented or
# served must leave them exactly as they are.
COUNT_METRICS = {
    "serve": {"hashes_per_proof": 1.7366666666666666, "proof_bytes": 883.5466666666666,
              "huffman_ratio": 1.0000000000000009},
    "grow": {"hashes_per_proof": 4.127001383387759, "proof_bytes": 189.57204980195934,
             "huffman_ratio": 1.1124293537107672},
    "drift": {"hashes_per_proof": 2.2066666666666666, "proof_bytes": 260.81333333333333,
              "huffman_ratio": 1.0139521524088924},
}


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
    if not trace:
        for name, result in zip(COUNT_METRICS, results):
            counts = {metric: result["metrics"][metric]["value"] for metric in COUNT_METRICS[name]}
            assert counts == COUNT_METRICS[name], name
    else:
        # results come in serve, grow, drift order; a reader loop that went
        # round a wrapped name would read 0 here instead of failing
        for result in (results[0], results[2]):
            for name in PROOF_LAYERS:
                assert result["metrics"][name]["value"] > 0, (name, result["metrics"])


def test_serve_setup_hashes_no_leaf(monkeypatch):
    # serve's set-up (the served Huffman tree, and the balanced tree and
    # address map of `encode --format map`) reads no root, so it hashes no
    # leaf; the served tree's first root read hashes each of its leaves once
    spec = importlib.util.spec_from_file_location("perfbench_workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up there
    spec.loader.exec_module(workloads)
    serve = workloads.TINY["serve"]
    calls = []
    monkeypatch.setattr(tree_mod, "hash_leaf", lambda key, payload: calls.append(key) or hash_leaf(key, payload))
    tree = serve.setup(1)["tree"]
    assert calls == []
    tree.root_hash()
    assert len(calls) == serve.n and sorted(calls) == sorted(tree.leaf_keys())
