"""End-to-end comparison harness and iteration-script replay.

``run_bench`` builds up to three tree variants over one distribution:

* ``balanced``  -- the complete-as-possible static tree (the baseline);
* ``adaptive``  -- leaves inserted one at a time, highest probability first,
  each placed by the minimal-discrepancy rule over the renormalized prefix
  distribution and followed by swap passes; if that still loses to the
  swap-optimized balanced tree, the latter is used, so the adaptive variant
  never falls behind the baseline;
* ``huffman``   -- the tree spelled out by the optimal prefix code.

``replay_iterations`` executes a scripted sequence of add-leaf and swap
iterations, emitting one audit row per step (alternative count, minimal
discrepancy, chosen action).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from typing import Sequence

from .coding import huffman_codes, tree_from_codes
from .errors import FormatError, ProbabilityError
from .metrics import discrepancy_report
from .proofs import prove, verification_cost
from .restructure import _best_swap, apply_best, enumerate_add_alternatives, optimize_swaps
from .tree import AdaptiveTree, TreeConfig, build_balanced
from .workload import normalize_distribution

KNOWN_MODES = ("balanced", "adaptive", "huffman")


@dataclass(frozen=True)
class VariantStats:
    k_a: float
    entropy: float
    delta: float
    mean_proof_bytes: float
    mean_hash_invocations: float
    improvement_pct: float


@dataclass
class BenchReport:
    per_variant: dict[str, VariantStats]
    trees: dict[str, AdaptiveTree]


def _variant_stats(tree: AdaptiveTree, baseline_k: float) -> VariantStats:
    report = discrepancy_report(tree)
    mean_bytes = 0.0
    mean_hashes = 0.0
    for key, p in tree.probabilities.items():
        cost = verification_cost(prove(tree, key))
        mean_bytes += p * cost.proof_bytes
        mean_hashes += p * cost.hash_invocations
    if baseline_k > 0:
        improvement = (baseline_k - report.k_a) / baseline_k * 100.0
    else:
        improvement = 0.0
    return VariantStats(
        k_a=report.k_a,
        entropy=report.entropy,
        delta=report.delta,
        mean_proof_bytes=mean_bytes,
        mean_hash_invocations=mean_hashes,
        improvement_pct=improvement,
    )


def _build_adaptive(dist: Sequence[tuple[str, float]], config: TreeConfig, balanced: AdaptiveTree) -> AdaptiveTree:
    # Insert in descending probability (key as tiebreak) so early iterations
    # place the heavy leaves near the root; each insertion is followed by
    # swap passes (add first, then swaps).
    order = sorted(dist, key=lambda kv: (-kv[1], kv[0]))
    first_key = order[0][0]
    grown = build_balanced([(first_key, first_key.encode("utf-8"), 1.0)], config)
    inserted = {first_key: order[0][1]}
    for key, p in order[1:]:
        inserted[key] = p
        total = sum(inserted.values())
        prefix = {k: v / total for k, v in inserted.items()}
        apply_best(grown, enumerate_add_alternatives(grown, key, prefix))
        optimize_swaps(grown)
    grown.set_probabilities(dict(dist))
    optimize_swaps(grown)

    # Incremental growth can still settle on a worse shape than the static
    # build; restructuring must never lose to the baseline it started from.
    resettled = balanced.clone()
    optimize_swaps(resettled)
    if discrepancy_report(grown).k_a <= discrepancy_report(resettled).k_a:
        return grown
    return resettled


def run_bench(
    dist: Sequence[tuple[str, float]],
    m: int,
    modes: Sequence[str] = KNOWN_MODES,
) -> BenchReport:
    """Build the requested variants and report metrics plus weighted proof costs.

    Every leaf's payload is its key in UTF-8."""
    for mode in modes:
        if mode not in KNOWN_MODES:
            raise ProbabilityError(f"unknown bench mode {mode!r}")
    if not dist:
        raise ProbabilityError("distribution is empty")
    normalized = normalize_distribution(dist)
    config = TreeConfig(m)

    balanced = build_balanced([(key, key.encode("utf-8"), p) for key, p in normalized], config)
    baseline_k = discrepancy_report(balanced).k_a

    trees: dict[str, AdaptiveTree] = {}
    for mode in modes:
        if mode == "balanced":
            trees[mode] = balanced
        elif mode == "adaptive":
            trees[mode] = _build_adaptive(normalized, config, balanced)
        elif mode == "huffman":
            trees[mode] = tree_from_codes(huffman_codes(dict(normalized), m))

    per_variant = {mode: _variant_stats(tree, baseline_k) for mode, tree in trees.items()}
    return BenchReport(per_variant=per_variant, trees=trees)


def write_variants_csv(report: BenchReport, path) -> None:
    """``variant,k_A,H,delta,mean_proof_bytes,improvement_pct`` rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["variant", "k_A", "H", "delta", "mean_proof_bytes", "improvement_pct"])
        for mode in KNOWN_MODES:
            if mode not in report.per_variant:
                continue
            stats = report.per_variant[mode]
            writer.writerow(
                [
                    mode,
                    repr(stats.k_a),
                    repr(stats.entropy),
                    repr(stats.delta),
                    repr(stats.mean_proof_bytes),
                    repr(stats.improvement_pct),
                ]
            )


@dataclass(frozen=True)
class ReplayStep:
    """One scripted iteration: optionally add a leaf, then optional swap passes."""

    probs: dict[str, float]
    new_key: str | None = None
    swap_iters: int = 0


@dataclass(frozen=True)
class ReplayScript:
    arity: int
    initial_leaves: tuple[str, ...]
    initial_probs: dict[str, float]
    steps: tuple[ReplayStep, ...]


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    alt_count: int
    min_delta: float
    chosen_kind: str
    chosen_target: str


@dataclass
class ReplayResult:
    records: list[IterationRecord]
    tree: AdaptiveTree


def replay_iterations(script: ReplayScript) -> ReplayResult:
    """Run a script from its initial balanced tree; one record per step."""
    config = TreeConfig(script.arity)
    leaves = [(key, key.encode("utf-8"), script.initial_probs[key]) for key in script.initial_leaves]
    tree = build_balanced(leaves, config)

    records: list[IterationRecord] = []
    for iteration, step in enumerate(script.steps, start=1):
        if step.new_key is not None:
            alternatives = enumerate_add_alternatives(tree, step.new_key, step.probs)
            outcome = apply_best(tree, alternatives)
            alt_count = len(alternatives)
            min_delta = outcome.chosen.resulting_delta
            chosen_kind = outcome.chosen.kind
            chosen_target = _target_text(outcome.chosen)
            if step.swap_iters > 0:
                swap_outcomes = optimize_swaps(tree, max_iters=step.swap_iters)
                if swap_outcomes:
                    min_delta = swap_outcomes[-1].delta_after
        else:
            if step.probs:
                tree.set_probabilities(step.probs)
            # _best_swap counts the candidates enumerate_swap_alternatives
            # would list, without listing them.
            report = discrepancy_report(tree)
            alt_count = _best_swap(report)[1]
            swap_outcomes = optimize_swaps(tree, max_iters=max(1, step.swap_iters))
            if swap_outcomes:
                min_delta = swap_outcomes[-1].delta_after
                chosen_kind = "swap"
                chosen_target = _target_text(swap_outcomes[-1].chosen)
            else:
                min_delta = report.delta
                chosen_kind = "no_op"
                chosen_target = ""
        records.append(IterationRecord(iteration, alt_count, min_delta, chosen_kind, chosen_target))
    return ReplayResult(records=records, tree=tree)


def _target_text(alternative) -> str:
    value = alternative.target_json()
    if value is None:
        return ""
    if isinstance(value, list):
        return "+".join(value)
    return value


def load_script(path) -> ReplayScript:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"script {path!s} is not valid JSON: {exc}") from None
    try:
        arity = int(data["arity"])
        initial = data["initial"]
        initial_leaves = tuple(initial["leaves"])
        initial_probs = {str(k): float(v) for k, v in initial["probs"].items()}
        steps = tuple(
            ReplayStep(
                probs={str(k): float(v) for k, v in step["probs"].items()},
                new_key=step.get("new_key"),
                swap_iters=int(step.get("swap_iters", 0)),
            )
            for step in data["steps"]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"script {path!s} missing or malformed field: {exc}") from None
    return ReplayScript(arity, initial_leaves, initial_probs, steps)


def write_iterations_csv(records: Sequence[IterationRecord], path) -> None:
    """``iter,alt_count,min_delta,chosen_kind,chosen_target`` rows."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iter", "alt_count", "min_delta", "chosen_kind", "chosen_target"])
        for record in records:
            writer.writerow(
                [
                    record.iteration,
                    record.alt_count,
                    repr(record.min_delta),
                    record.chosen_kind,
                    record.chosen_target,
                ]
            )
