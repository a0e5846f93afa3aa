"""Benchmark driver for adaptive_merkle: serve, grow and drift workloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

It imports the library from ``src/`` next to this directory, unchanged. One
invocation runs one workload in this process (``peak_rss_mb`` is the
process's high-water mark); ``--workload all`` runs each in its own child
process. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
give the same metrics for people, together with the workload-specific
figures (``fail_frac``, ``reshape_p50_ms``, ``huffman_gap``, sample counts).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` reports the
per-layer metrics instead: half of the time budget runs untraced, half with
counting wrappers around the library's public functions, and the difference
in throughput is reported as the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # the benchmark writes nothing into the checkout

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
NAMES = ("serve", "grow", "drift")
# Set-up is repeated and its median reported: at least this many times, and
# on until this much time (at most a quarter of the measured time) has gone
# into set-up or the cap is reached.
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 101
SETUP_BUDGET_S = 1.0
# Each half of a traced run needs fewer rounds than the workload's
# ``min_rounds``, since per-layer figures are means.
MIN_TRACED_ROUNDS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "hashes_per_proof": "hashes",
    "proof_bytes": "B",
    "huffman_ratio": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (tracer counter, wrapped function, unit). Loop figures
# are divided by the traced operations, set-up figures by the set-ups.
PER_OP = {
    "tree.hash_internal.calls": ("calls", "tree.hash_internal", "calls/op"),
    "tree.hash_leaf.calls": ("calls", "tree.hash_leaf", "calls/op"),
    "tree.from_snapshot.s": ("seconds", "tree.from_snapshot", "s/op"),
    "tree.to_snapshot.s": ("seconds", "tree.to_snapshot", "s/op"),
    "tree.depths.calls": ("calls", "tree.depths", "calls/op"),
    "metrics.discrepancy_report.calls": ("calls", "metrics.discrepancy_report", "calls/op"),
    "metrics.discrepancy_report.s": ("seconds", "metrics.discrepancy_report", "s/op"),
    "restructure.enumerate_add_alternatives.s": ("seconds", "restructure.enumerate_add_alternatives", "s/op"),
    "restructure.enumerate_add_alternatives.candidates": ("items", "restructure.enumerate_add_alternatives", "items/op"),
    "restructure.enumerate_swap_alternatives.s": ("seconds", "restructure.enumerate_swap_alternatives", "s/op"),
    "restructure.enumerate_swap_alternatives.candidates": ("items", "restructure.enumerate_swap_alternatives", "items/op"),
    "restructure.optimize_swaps.s": ("seconds", "restructure.optimize_swaps", "s/op"),
    "restructure.swaps_applied": ("items", "restructure.optimize_swaps", "swaps/op"),
    "proofs.prove.s": ("seconds", "proofs.prove", "s/op"),
    "proofs.to_json_bytes.s": ("seconds", "proofs.to_json_bytes", "s/op"),
    "proofs.from_json_dict.s": ("seconds", "proofs.from_json_dict", "s/op"),
    "proofs.verify.s": ("seconds", "proofs.verify", "s/op"),
    "workload.estimate_probabilities.s": ("seconds", "workload.estimate_probabilities", "s/op"),
}
PER_SETUP = ("coding.huffman_codes", "coding.tree_from_codes", "address_map.build_mapping", "workload.generate_trace")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="toy sizes, for the smoke test")
    return parser.parse_args(argv)


def _import_library():
    if not (SRC / "adaptive_merkle" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library sources at {SRC / 'adaptive_merkle'}; run inside a checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def _timed_setups(workload, seed: int, seconds: float):
    budget = min(SETUP_BUDGET_S, seconds / 4)
    times: list[float] = []
    state = None
    while len(times) < SETUP_MIN_REPEATS or (sum(times) < budget and len(times) < SETUP_MAX_REPEATS):
        state = None
        gc.collect()
        start = time.perf_counter()
        state = workload.setup(seed)
        times.append(time.perf_counter() - start)
    gc.collect()
    return state, times


def _run_rounds(workload, state, rec, seconds: float, min_rounds: int, first: bool) -> None:
    """Repeat whole rounds until the budget is spent, to the nearest round."""
    start = time.perf_counter()
    while True:
        workload.run_round(state, rec, first and rec.rounds == 0)
        rec.end_round()
        elapsed = time.perf_counter() - start
        if rec.rounds >= min_rounds and elapsed + elapsed / rec.rounds / 2 > seconds:
            return


def _end_to_end(workload, state, setup_times, seconds: float, wl):
    rec = wl.Recorder()
    _run_rounds(workload, state, rec, seconds, workload.min_rounds, first=True)
    lat_ms = [x * 1e3 for x in rec.latencies()]
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": rec.ops_per_s(),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "hashes_per_proof": rec.counts["hashes_per_proof"],
        "proof_bytes": rec.counts["proof_bytes"],
        "huffman_ratio": rec.counts["huffman_ratio"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [
        f"setup_s is the median of {len(setup_times)} set-ups",
        f"{rec.ops} operations in {rec.rounds} rounds; each operation timed as the minimum "
        f"over its repetitions; percentiles over the {len(lat_ms)} operations of a round",
        f"fail_frac {rec.failed / rec.attempted!r} ratio ({rec.failed} of {rec.attempted} checks)",
        f"huffman_gap {values['huffman_ratio'] - 1.0!r} ratio (huffman_ratio - 1)",
    ]
    if rec.writes:
        notes.append(
            f"reshape_p50_ms {statistics.median(rec.write_latencies()) * 1e3!r} ms "
            f"over the {len(rec.writes)} epochs of a round"
        )
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return metrics, rec, notes


def _per_layer(workload, seed: int, seconds: float, wl):
    import layer_trace

    tracer = layer_trace.LayerTracer()
    tracer.install()
    try:
        tracer.enabled = True
        state, setup_times = _timed_setups(workload, seed, seconds)
        tracer.enabled = False
        setups = len(setup_times)
        setup_seconds = dict(tracer.seconds)

        min_rounds = min(MIN_TRACED_ROUNDS, workload.min_rounds)
        plain = wl.Recorder(tracer)
        _run_rounds(workload, state, plain, seconds / 2, min_rounds, first=True)
        tracer.reset()
        tracer.enabled = True
        rec = wl.Recorder(tracer)
        _run_rounds(workload, state, rec, seconds / 2, min_rounds, first=False)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    rec.attempted += plain.attempted
    rec.failed += plain.failed
    rec.errors = plain.errors + rec.errors

    counters = {"calls": tracer.calls, "seconds": tracer.seconds, "items": tracer.items}
    ops = rec.ops
    values = {name: (counters[kind][fn] / ops, unit) for name, (kind, fn, unit) in PER_OP.items()}
    for fn in PER_SETUP:
        values[f"{fn}.s"] = (setup_seconds.get(fn, 0.0) / setups, "s")
    swaps = tracer.items["restructure.optimize_swaps"]
    candidates = tracer.items["restructure.enumerate_swap_alternatives"]
    values["restructure.swap_yield"] = (swaps / candidates if candidates else 0.0, "ratio")
    values["tree.rehash_per_mutation"] = (
        tracer.mutation_hashes / tracer.mutations if tracer.mutations else 0.0,
        "hashes",
    )
    values["trace.ops_per_s"] = (rec.ops_per_s(), "1/s")
    values["trace.overhead_ops_per_s"] = (rec.ops_per_s() - plain.ops_per_s(), "1/s")
    notes = [
        f"per-op figures are over {ops} traced operations in {rec.rounds} rounds; "
        f"set-up figures are per set-up over {setups} set-ups",
        f"untraced {plain.ops_per_s()!r} ops/s, traced {rec.ops_per_s()!r} ops/s",
        f"fail_frac {rec.failed / rec.attempted!r} ratio ({rec.failed} of {rec.attempted} checks)",
    ]
    return values, rec, notes


def _run_one(args) -> int:
    wl = _import_library()
    workload = (wl.TINY if args.tiny else wl.WORKLOADS)[args.workload]
    print(f"workload {workload.name}: {workload.describe()}; closed loop, 1 client; seed {args.seed}")
    if args.trace:
        metrics, rec, notes = _per_layer(workload, args.seed, args.seconds, wl)
    else:
        state, setup_times = _timed_setups(workload, args.seed, args.seconds)
        metrics, rec, notes = _end_to_end(workload, state, setup_times, args.seconds, wl)
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value!r} {unit}")
    for note in notes:
        print(f"  # {note}")
    for error in rec.errors:
        print(f"  ! {error}", file=sys.stderr)
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _run_all(args) -> int:
    status = 0
    for name in NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            command.append("--tiny")
        status = max(status, subprocess.run(command, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
