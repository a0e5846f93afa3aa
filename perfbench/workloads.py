"""The benchmark workloads: serve, grow and drift.

Each workload is a single-process closed loop with one client: the next
operation starts only when the previous one has returned. A workload has a
set-up (everything built before the first timed operation) and a *round* of
operations that the runner repeats until the time budget is spent. Every
round of one seed does exactly the same work, so count metrics are taken
from the first round and repeat exactly for a seed.

All calls into the library go through module attributes at call time
(``proofs.prove``, ``tree_mod.AdaptiveTree.from_snapshot``), so the traced
mode's wrappers see them.

Workloads and why they were chosen:

* ``serve`` (read-only): Zipf(1.1) over n=16384 keys, m=16, on the Huffman
  tree. Proofs and hashing do almost all the work and restructuring none:
  the exercising workload for proof and hash changes and the bypass
  workload for restructuring changes.
* ``grow`` (write-only): Zipf(1.1), n=128, m=2, leaves inserted hottest
  first exactly as ``bench._build_adaptive`` does. Add-mode and swap-mode
  enumeration dominate and no proof is served during the loop.
* ``drift`` (reads beside writes): n=96, m=4, starting Huffman-shaped for
  epoch 0; the hot set rotates by n/32 ranks per epoch, and after serving
  each epoch the single writer re-estimates probabilities, runs swap passes
  and checkpoints through a snapshot while readers wait. A change that
  trades reshape time for proof length, or the reverse, shows here.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass

from adaptive_merkle import address_map, coding, metrics, proofs, restructure
from adaptive_merkle import tree as tree_mod
from adaptive_merkle import workload as wl_mod
from adaptive_merkle.errors import StructureError

ZIPF_S = 1.1
# k_A may not undercut the optimal prefix code by more than float noise.
HUFFMAN_TOL = 1e-9
PAYLOAD_BYTES = 32
MAX_ERRORS_SHOWN = 5

clock = time.perf_counter


class Recorder:
    """Latencies, failure counts and first-round count metrics of one run.

    An operation's latency is its minimum over every repetition of the same
    work in the run: an access to any leaf under the same parent in the same
    epoch (sibling leaves have proofs of the same shape and size, and the
    tree only changes between epochs), or the same insertion or reshape in a
    later round. Interference from other tenants of a shared host only
    ever adds time and comes and goes within seconds, so the minimum removes
    it, together with the occasional full collection that lands on one
    repetition; work the program does on every repetition stays in.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.best: dict = {}
        self.sequence: list = []  # operation ids of one round, in order
        self.writes: list = []  # ids of the round's blocking writes
        self.rounds = 0
        self.ops = 0
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, float] = {}
        self.errors: list[str] = []

    def op(self, op_id, seconds: float, ok: bool, what: str) -> None:
        """One completed operation of the closed loop and its output check."""
        self._time(op_id, seconds, self.sequence)
        self.ops += 1
        self.check(ok, what)

    def write(self, op_id, seconds: float) -> None:
        """A write that blocks readers; it counts in the throughput denominator."""
        self._time(op_id, seconds, self.writes)

    def _time(self, op_id, seconds: float, order: list) -> None:
        if self.rounds == 0:
            order.append(op_id)
        if seconds < self.best.get(op_id, float("inf")):
            self.best[op_id] = seconds

    def end_round(self) -> None:
        self.rounds += 1

    def latencies(self) -> list[float]:
        return [self.best[op_id] for op_id in self.sequence]

    def write_latencies(self) -> list[float]:
        return [self.best[op_id] for op_id in self.writes]

    def ops_per_s(self) -> float:
        """Operations per second of time spent in them and in blocking writes."""
        return len(self.sequence) / (sum(self.latencies()) + sum(self.write_latencies()))

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self._failed(what)

    def fail(self, what: str) -> None:
        """An operation that raised instead of returning."""
        self.attempted += 1
        self._failed(what)

    def _failed(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(what)

    @contextmanager
    def checking(self):
        """Pause tracing while the benchmark checks outputs."""
        if self.tracer is None or not self.tracer.enabled:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True


def _payloads(keys, rng: random.Random) -> dict[str, bytes]:
    return {key: rng.randbytes(PAYLOAD_BYTES) for key in keys}


def _serve(tree, events, m: int, rec: Recorder, first: bool, label: str, epoch: int = 0) -> tuple[int, int]:
    """Serve each key as one access: prove, encode, decode, verify.

    Returns the summed ``verification_cost`` of the served proofs on the first
    round (zeros otherwise); it is computed outside the timed region.
    """
    hashes = wire_bytes = 0
    costs: dict = {}  # per key; the tree does not change inside one call
    for key in events:
        try:
            start = clock()
            proof = proofs.prove(tree, key)
            wire = proof.to_json_bytes()
            received = proofs.MerkleProof.from_json_dict(json.loads(wire))
            ok = proofs.verify(received, tree.root_hash(), m)
            elapsed = clock() - start
        except Exception as exc:  # a failed access is counted; the loop goes on
            rec.fail(f"{label}: access to {key} raised {exc!r}")
            continue
        op_id = (epoch, tree.parent_id(tree.leaf_node(key).node_id))
        rec.op(op_id, elapsed, ok is True, f"{label}: proof for {key} did not verify")
        if first:
            if key not in costs:
                with rec.checking():
                    costs[key] = proofs.verification_cost(proof)
            cost = costs[key]
            hashes += cost.hash_invocations
            wire_bytes += cost.proof_bytes
    return hashes, wire_bytes


def _huffman_length(probs, m: int) -> float:
    return coding.huffman_codes(probs, m).avg_length


def _check_huffman(rec: Recorder, k_a: float, huffman: float, label: str) -> None:
    rec.check(k_a >= huffman - HUFFMAN_TOL, f"{label}: k_A {k_a!r} below Huffman {huffman!r}")


@dataclass(frozen=True)
class Serve:
    name = "serve"
    n: int = 16384
    m: int = 16
    # 1e5 accesses put the served mean within 0.01 of the tree's k_A.
    accesses: int = 100000
    # Repetitions come from accesses under the same parent inside a round.
    min_rounds: int = 1

    def describe(self) -> str:
        return f"n={self.n} m={self.m} zipf_s={ZIPF_S} accesses/round={self.accesses}"

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        keys = [f"k{i:05d}" for i in range(self.n)]
        rng.shuffle(keys)  # rank -> key
        dist = list(zip(keys, wl_mod.zipf_distribution(self.n, ZIPF_S)))
        probs = dict(dist)
        payloads = _payloads(keys, rng)
        table = coding.huffman_codes(probs, self.m)
        tree = coding.tree_from_codes(table, payloads)
        # As `encode --format map` does: the balanced tree and the address map.
        balanced = tree_mod.build_balanced(
            [(key, payloads[key], p) for key, p in dist], tree_mod.TreeConfig(self.m)
        )
        mapping = address_map.build_mapping(balanced, tree)
        trace = wl_mod.generate_trace(probs, self.accesses, rng.randrange(2**32))
        return {"tree": tree, "events": trace.events, "huffman": table.avg_length, "mapping": mapping}

    def run_round(self, state: dict, rec: Recorder, first: bool) -> None:
        tree = state["tree"]
        root = tree.root_hash()
        hashes, wire_bytes = _serve(tree, state["events"], self.m, rec, first, self.name)
        rec.check(tree.root_hash() == root, "serve: the root of a read-only tree changed")
        if first:
            with rec.checking():
                k_a = metrics.discrepancy_report(tree).k_a
                rec.check(len(state["mapping"]) == self.n, "serve: address map lost records")
            _check_huffman(rec, k_a, state["huffman"], self.name)
            rec.counts.update(
                hashes_per_proof=hashes / len(state["events"]),
                proof_bytes=wire_bytes / len(state["events"]),
                huffman_ratio=k_a / state["huffman"],
            )


@dataclass(frozen=True)
class Grow:
    name = "grow"
    # n=128, not the ROADMAP's 256: a round at 256 costs 6.5 s, too few
    # repetitions per insertion for a steady minimum in a 30-s run.
    n: int = 128
    m: int = 2
    min_rounds: int = 5

    def describe(self) -> str:
        return f"n={self.n} m={self.m} zipf_s={ZIPF_S} insertions/round={self.n - 1}"

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        # Hottest first, names in rank order: the insertion order of
        # bench._build_adaptive, so the final tree is run_bench's.
        keys = [f"k{i:03d}" for i in range(self.n)]
        dist = list(zip(keys, wl_mod.zipf_distribution(self.n, ZIPF_S)))
        return {
            "dist": dist,
            "payloads": _payloads(keys, rng),
            "huffman": _huffman_length(dict(dist), self.m),
        }

    def run_round(self, state: dict, rec: Recorder, first: bool) -> None:
        dist, payloads = state["dist"], state["payloads"]
        first_key, first_p = dist[0]
        tree = tree_mod.build_balanced(
            [(first_key, payloads[first_key], 1.0)], tree_mod.TreeConfig(self.m)
        )
        inserted = {first_key: first_p}
        for key, p in dist[1:]:
            try:
                start = clock()
                inserted[key] = p
                total = sum(inserted.values())
                prefix = {k: v / total for k, v in inserted.items()}
                alternatives = restructure.enumerate_add_alternatives(tree, key, prefix, payloads[key])
                restructure.apply_best(tree, alternatives)
                restructure.optimize_swaps(tree)
                elapsed = clock() - start
            except Exception as exc:  # a failed insertion is counted; the loop goes on
                rec.fail(f"grow: inserting {key} raised {exc!r}")
                continue
            rec.op(key, elapsed, tree.leaf_count() == len(inserted), f"grow: {key} missing after insert")
        with rec.checking():
            self._check(tree, state, rec, first)

    def _check(self, tree, state: dict, rec: Recorder, first: bool) -> None:
        copy = tree.clone()
        copy.recompute_all_hashes()
        rec.check(copy.root_hash() == tree.root_hash(), "grow: incremental root differs from full rehash")
        try:
            tree.validate()
            valid = True
        except StructureError:
            valid = False
        rec.check(valid, "grow: grown tree fails validate()")
        k_a = metrics.discrepancy_report(tree).k_a
        _check_huffman(rec, k_a, state["huffman"], self.name)
        if not first:
            return
        # Expected proof cost of the grown tree under the workload's
        # distribution; every leaf's proof is checked on the way.
        hashes = wire_bytes = 0.0
        root = tree.root_hash()
        for key, p in tree.probabilities.items():
            proof = proofs.prove(tree, key)
            rec.check(proofs.verify(proof, root, self.m) is True, f"grow: proof for {key} did not verify")
            cost = proofs.verification_cost(proof)
            hashes += p * cost.hash_invocations
            wire_bytes += p * cost.proof_bytes
        rec.counts.update(
            hashes_per_proof=hashes,
            proof_bytes=wire_bytes,
            huffman_ratio=k_a / state["huffman"],
        )


@dataclass(frozen=True)
class Drift:
    name = "drift"
    # n=96, not 128: at 128 a round's six reshapes cost 2.4 s, too few
    # repetitions per reshape for a steady minimum in a 30-s run.
    n: int = 96
    m: int = 4
    epochs: int = 6
    accesses: int = 5000  # per epoch
    min_rounds: int = 5

    @property
    def shift(self) -> int:
        return max(1, self.n // 32)

    def describe(self) -> str:
        return (
            f"n={self.n} m={self.m} zipf_s={ZIPF_S} epochs/round={self.epochs} "
            f"accesses/epoch={self.accesses} rotation={self.shift} ranks/epoch"
        )

    def setup(self, seed: int) -> dict:
        rng = random.Random(seed)
        keys = [f"d{i:03d}" for i in range(self.n)]
        rng.shuffle(keys)  # rank -> key in epoch 0
        zipf = wl_mod.zipf_distribution(self.n, ZIPF_S)
        epoch_probs = [
            {keys[(rank + epoch * self.shift) % self.n]: p for rank, p in enumerate(zipf)}
            for epoch in range(self.epochs)
        ]
        payloads = _payloads(keys, rng)
        traces = [wl_mod.generate_trace(probs, self.accesses, rng.randrange(2**32)) for probs in epoch_probs]
        start = coding.tree_from_codes(coding.huffman_codes(epoch_probs[0], self.m), payloads)
        return {"keys": sorted(keys), "traces": traces, "start": start}

    def run_round(self, state: dict, rec: Recorder, first: bool) -> None:
        with rec.checking():
            tree = state["start"].clone()
        hashes = wire_bytes = 0
        ratios: list[float] = []
        for epoch, trace in enumerate(state["traces"]):
            h, b = _serve(tree, trace.events, self.m, rec, first, self.name, epoch)
            hashes += h
            wire_bytes += b
            try:
                start = clock()
                estimate = wl_mod.estimate_probabilities(trace)
                tree.set_probabilities({key: estimate.get(key, 0.0) for key in state["keys"]})
                restructure.optimize_swaps(tree)
                root = tree.root_hash()
                restored = tree_mod.AdaptiveTree.from_snapshot(json.loads(json.dumps(tree.to_snapshot())))
                elapsed = clock() - start
            except Exception as exc:  # a failed reshape is counted; the next epoch goes on
                rec.fail(f"drift: reshape of epoch {epoch} raised {exc!r}")
                continue
            rec.write(epoch, elapsed)
            with rec.checking():
                same = restored.root_hash() == root
                rec.check(same, f"drift: epoch {epoch} snapshot reloads to another root")
                k_a = metrics.discrepancy_report(tree).k_a
                huffman = _huffman_length(tree.probabilities, self.m)
            _check_huffman(rec, k_a, huffman, f"drift epoch {epoch}")
            ratios.append(k_a / huffman)
            if same:
                tree = restored
        if first:
            served = sum(len(trace.events) for trace in state["traces"])
            rec.counts.update(
                hashes_per_proof=hashes / served,
                proof_bytes=wire_bytes / served,
                huffman_ratio=sum(ratios) / max(1, len(ratios)),
            )


WORKLOADS = {"serve": Serve(), "grow": Grow(), "drift": Drift()}

# Toy sizes for the smoke test: same code paths, a fraction of a second each.
TINY = {
    "serve": Serve(n=512, accesses=300, min_rounds=3),
    "grow": Grow(n=24),
    "drift": Drift(n=32, epochs=3, accesses=200),
}
