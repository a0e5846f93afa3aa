"""End-to-end comparison harness and iteration-script replay.

``run_bench`` builds up to three tree variants over one distribution:

* ``balanced``  -- the complete-as-possible static tree (the baseline);
* ``adaptive``  -- leaves inserted one at a time, highest probability first,
  each placed by the minimal-discrepancy rule over the renormalized prefix
  distribution and followed by ``optimize_swaps`` (leaf swaps and subtree
  exchanges); under the full distribution the grown tree then takes one
  more exchange pass, without the swap-free exit. If it still loses to the
  optimized balanced tree, the latter is used, so the adaptive variant
  never falls behind the baseline;
* ``huffman``   -- the tree spelled out by the optimal prefix code.

``replay_iterations`` executes a scripted sequence of add-leaf and swap
iterations, emitting one audit row per step (alternative count, minimal
discrepancy, chosen action). Its swaps are the paper's leaf-swap loop,
``optimize_leaf_swaps``, and a swap step's alternative count is the length
of the ``enumerate_swap_alternatives`` listing it picks from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ._formats import float_sum, json_probabilities, load_json, write_csv
from .coding import huffman_codes, tree_from_codes
from .errors import FormatError, ProbabilityError
from .metrics import discrepancy_report
from .proofs import prove, verification_cost
from .restructure import (
    DEFAULT_MAX_ITERS,
    _exchange,
    apply_best,
    enumerate_add_alternatives,
    enumerate_swap_alternatives,
    optimize_leaf_swaps,
    optimize_swaps,
)
from .tree import AdaptiveTree, TreeConfig, build_balanced
from .workload import normalize_distribution

KNOWN_MODES = ("balanced", "adaptive", "huffman")


@dataclass(frozen=True)
class VariantStats:
    k_a: float
    entropy: float
    delta: float
    mean_proof_bytes: float
    improvement_pct: float


@dataclass
class BenchReport:
    per_variant: dict[str, VariantStats]
    trees: dict[str, AdaptiveTree]


def _variant_stats(tree: AdaptiveTree, baseline_k: float) -> VariantStats:
    report = discrepancy_report(tree)
    mean_bytes = 0.0
    for key, p in tree.probabilities.items():
        mean_bytes += p * verification_cost(prove(tree, key)).proof_bytes
    if baseline_k > 0:
        improvement = (baseline_k - report.k_a) / baseline_k * 100.0
    else:
        improvement = 0.0
    return VariantStats(
        k_a=report.k_a,
        entropy=report.entropy,
        delta=report.delta,
        mean_proof_bytes=mean_bytes,
        improvement_pct=improvement,
    )


def _build_adaptive(dist: Sequence[tuple[str, float]], config: TreeConfig, balanced: AdaptiveTree) -> AdaptiveTree:
    # Insert in descending probability (key as tiebreak) so early iterations
    # place the heavy leaves near the root; each insertion is followed by
    # exchange passes (add first, then exchanges).
    order = sorted(dist, key=lambda kv: (-kv[1], kv[0]))
    first_key = order[0][0]
    grown = build_balanced([(first_key, first_key.encode("utf-8"), 1.0)], config)
    inserted = {first_key: order[0][1]}
    for key, p in order[1:]:
        inserted[key] = p
        total = float_sum(inserted.values())
        prefix = {k: v / total for k, v in inserted.items()}
        apply_best(grown, enumerate_add_alternatives(grown, key, prefix))
        optimize_swaps(grown)
    grown.set_probabilities(dict(dist))
    # One exchange pass without the swap-free exit: a tree swap-free by its
    # leaves can still gain from exchanging subtrees.
    _exchange(grown, DEFAULT_MAX_ITERS)

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
    if not modes:
        raise ProbabilityError("no bench mode given")
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
    rows = []
    for mode in KNOWN_MODES:
        if mode in report.per_variant:
            stats = report.per_variant[mode]
            values = (stats.k_a, stats.entropy, stats.delta, stats.mean_proof_bytes, stats.improvement_pct)
            rows.append([mode, *map(repr, values)])
    write_csv(path, ["variant", "k_A", "H", "delta", "mean_proof_bytes", "improvement_pct"], rows)


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
            chosen = apply_best(tree, alternatives)
            alt_count = len(alternatives)
            min_delta = chosen.resulting_delta
            chosen_kind = chosen.kind
            chosen_target = "+".join(chosen.target)
            if step.swap_iters > 0:
                swap_outcomes = optimize_leaf_swaps(tree, max_iters=step.swap_iters)
                if swap_outcomes:
                    min_delta = swap_outcomes[-1].delta_after
        else:
            if step.probs:
                tree.set_probabilities(step.probs)
            # alt_count is the length of the swap listing of this step's
            # starting tree: the first outcome's, or, when no swap was
            # applied, that of the unchanged tree, listed again here.
            swap_outcomes = optimize_leaf_swaps(tree, max_iters=max(1, step.swap_iters))
            if swap_outcomes:
                alt_count = swap_outcomes[0].candidates
                min_delta = swap_outcomes[-1].delta_after
                chosen_kind = "swap"
                chosen_target = "+".join(swap_outcomes[-1].chosen.target)
            else:
                alternatives = enumerate_swap_alternatives(tree)
                alt_count = len(alternatives)
                min_delta = alternatives[-1].resulting_delta  # the no-op's
                chosen_kind = "no_op"
                chosen_target = ""
        records.append(IterationRecord(iteration, alt_count, min_delta, chosen_kind, chosen_target))
    return ReplayResult(records=records, tree=tree)


def load_script(path) -> ReplayScript:
    """Read an iteration script; a field of the wrong JSON type raises ``FormatError``."""
    what = f"script {path!s}"
    data = load_json(path, "script")
    try:
        arity, initial = data["arity"], data["initial"]
        leaves, initial_probs = initial["leaves"], json_probabilities(initial["probs"], what)
        steps = tuple(
            ReplayStep(json_probabilities(step["probs"], what), step.get("new_key"), step.get("swap_iters", 0))
            for step in data["steps"]
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise FormatError(f"{what} missing or malformed field: {exc}") from None
    # bool is an int subclass: JSON true must pass as neither arity nor swap_iters
    if (
        type(arity) is not int
        or not isinstance(leaves, list)
        or not all(isinstance(key, str) for key in leaves)
        or not all(step.new_key is None or isinstance(step.new_key, str) for step in steps)
        or not all(type(step.swap_iters) is int and step.swap_iters >= 0 for step in steps)
    ):
        raise FormatError(f"{what} needs an integer arity, string keys and integer swap_iters >= 0")
    keys = [*leaves, *initial_probs, *(key for step in steps for key in step.probs)]
    keys += [step.new_key for step in steps if step.new_key is not None]
    try:
        # a JSON string may hold a lone surrogate, which no leaf hash can encode
        "".join(keys).encode("utf-8")
    except UnicodeEncodeError as exc:
        raise FormatError(f"{what} leaf key is not valid UTF-8: {exc}") from None
    if set(initial_probs) != set(leaves):
        raise FormatError(f"{what} initial probs must name exactly the initial leaves")
    return ReplayScript(arity, tuple(leaves), initial_probs, steps)


def write_iterations_csv(records: Sequence[IterationRecord], path) -> None:
    """``iter,alt_count,min_delta,chosen_kind,chosen_target`` rows."""
    write_csv(
        path,
        ["iter", "alt_count", "min_delta", "chosen_kind", "chosen_target"],
        ([r.iteration, r.alt_count, repr(r.min_delta), r.chosen_kind, r.chosen_target] for r in records),
    )
