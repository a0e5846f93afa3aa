"""Single-iteration tree restructuring: enumerate or pick, then apply.

One iteration works in two modes:

* add mode -- a new leaf arrives together with a fresh probability
  distribution. Candidates are one split per existing leaf plus one attach
  per internal node that still has a free child slot (one alternative per
  node, not per slot: the slot choice cannot change any depth). The scores
  read the tree's leaf order and depth index; only a tree with a free slot
  is walked, to find its open nodes.
* swap mode -- no new leaf; candidates are unordered pairs of "misplaced"
  leaves (elemental discrepancy != 0) at differing depths, plus an explicit
  no-op carrying the current delta.

Every alternative is scored by the average discrepancy delta of the
candidate tree. The best one wins; ties break deterministically by
(delta, kind: attach < split < swap < no_op, ascending target labels).

``optimize_swaps`` picks each swap without listing the pairs, as the
first of the sorted ``enumerate_swap_alternatives`` list would be. Before
that it checks a certificate that no swap can help: swapping a shallow
leaf s with a deeper leaf t changes delta by (p_s - p_t)(d_t - d_s), so
when at every depth the lightest leaf weighs at least as much as the
heaviest leaf one occupied depth further down, every swap term is >= 0.
Float addition rounds monotonically, so no score can then fall below the
current delta, and the loop would stop on its first pass; it is skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from ._formats import float_sum
from .errors import DuplicateKeyError, ProbabilityError, StructureError
from .metrics import MetricsReport, discrepancy_report, swapped_report
from .tree import AdaptiveTree, check_probabilities

KIND_ORDER = {"attach": 0, "split": 1, "swap": 2, "no_op": 3}

# A swap is applied only if it beats the current delta by more than this.
IMPROVEMENT_EPS = 1e-12
CANDIDATE_EPS = 1e-9
DEFAULT_MAX_ITERS = 64


class Alternative(NamedTuple):
    """One candidate restructuring with its evaluated discrepancy; an
    immutable tuple of its fields."""

    kind: str
    target: tuple[str, ...]
    resulting_delta: float
    sort_labels: tuple[str, ...]
    new_key: str | None = None
    new_payload: bytes | None = None
    new_probs: dict[str, float] | None = None

    @property
    def rank_key(self):
        return (self.resulting_delta, KIND_ORDER[self.kind], self.sort_labels)

    def target_json(self):
        if self.kind == "no_op":
            return None
        if self.kind == "swap":
            return list(self.target)
        return self.target[0]

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "target": self.target_json(), "delta": self.resulting_delta}


@dataclass
class RestructureOutcome:
    """Applied alternative and how many candidates, no-op included, it was chosen from."""

    chosen: Alternative
    candidates: int
    delta_before: float
    delta_after: float

    def to_json_dict(self) -> dict:
        return {
            "chosen": self.chosen.to_json_dict(),
            "candidates": self.candidates,
            "delta_before": self.delta_before,
            "delta_after": self.delta_after,
        }


def enumerate_add_alternatives(
    tree: AdaptiveTree,
    new_key: str,
    new_probs: Mapping[str, float],
    new_payload: bytes | None = None,
) -> list[Alternative]:
    """All ways to place one new leaf, scored under the new distribution.

    Reads the tree's leaf order and depth index; only a tree with a free
    child slot (never a finished m=2 tree) is walked, to find its open
    nodes."""
    leaf_by_key, depth = tree._leaf_by_key, tree._depth
    if new_key in leaf_by_key:
        raise DuplicateKeyError(f"leaf key {new_key!r} already present")
    # Key views compare in C without building sets; a mismatch is named below.
    if not (len(new_probs) == len(leaf_by_key) + 1 and new_key in new_probs
            and new_probs.keys() >= leaf_by_key.keys()):
        expected = set(leaf_by_key) | {new_key}
        raise ProbabilityError(
            f"new distribution must cover the old leaves plus {new_key!r} "
            f"(missing {sorted(expected - set(new_probs))}, extra {sorted(set(new_probs) - expected)})"
        )
    check_probabilities(new_probs)
    if new_payload is None:
        new_payload = new_key.encode("utf-8")

    # entropy()'s expression, without its second validation pass; log_base
    # is log2(p) / log2(m), so hoisting log2(m) keeps every bit.
    log2_m = math.log2(tree.config.arity)
    h = -float_sum(p * (math.log2(p) / log2_m) for p in new_probs.values() if p > 0.0)
    # Right to left: the order every recorded delta was summed in.
    base_k = float_sum(new_probs[key] * depth[leaf_by_key[key]] for key in reversed(tree._leaf_order))
    p_new = new_probs[new_key]
    probs_copy = {k: float(v) for k, v in new_probs.items()}
    # m * internal child slots, nodes - 1 of them filled: is one free?
    n_nodes = len(tree.nodes)
    open_nodes = _open_nodes(tree) if tree.config.arity * (n_nodes - len(leaf_by_key)) > n_nodes - 1 else []
    alternatives = [
        Alternative("attach", (node_id,), base_k + p_new * (node_depth + 1) - h, (min_key,),
                    new_key, new_payload, probs_copy)
        for node_id, node_depth, min_key in open_nodes
    ]
    # tuple.__new__ skips the per-record Python-level constructor call
    new = tuple.__new__
    alternatives += [
        new(Alternative, ("split", (key,), base_k + new_probs[key] + p_new * (depth[leaf_by_key[key]] + 1) - h,
                          (key,), new_key, new_payload, probs_copy))
        for key in sorted(leaf_by_key)
    ]
    return alternatives


def enumerate_swap_alternatives(tree: AdaptiveTree) -> list[Alternative]:
    """Swap candidates among misplaced leaves, plus a no-op baseline.

    Leaves qualify when their elemental discrepancy is non-zero (beyond
    1e-9); only pairs at differing depths are emitted since equal-depth swaps
    cannot change any path length.
    """
    report = discrepancy_report(tree)
    depths = {s.key: s.l for s in report.per_leaf}
    candidates = [s.key for s in report.per_leaf if abs(s.delta_i) > CANDIDATE_EPS]

    alternatives: list[Alternative] = []
    for i, key_a in enumerate(candidates):
        for key_b in candidates[i + 1 :]:
            if depths[key_a] == depths[key_b]:
                continue
            p_a, p_b = tree.probabilities[key_a], tree.probabilities[key_b]
            delta = report.delta + (p_a - p_b) * (depths[key_b] - depths[key_a])
            alternatives.append(
                Alternative(
                    kind="swap",
                    target=(key_a, key_b),
                    resulting_delta=delta,
                    sort_labels=(key_a, key_b),
                )
            )
    alternatives.append(
        Alternative(kind="no_op", target=(), resulting_delta=report.delta, sort_labels=())
    )
    return alternatives


def apply_alternative(tree: AdaptiveTree, alternative: Alternative) -> None:
    """Perform the mutation an alternative describes, mutating ``tree``."""
    if alternative.kind == "split":
        tree.split_leaf(alternative.target[0], alternative.new_key, alternative.new_payload)
    elif alternative.kind == "attach":
        tree.attach_leaf(alternative.target[0], alternative.new_key, alternative.new_payload)
    elif alternative.kind == "swap":
        tree.swap_leaves(*alternative.target)
    elif alternative.kind != "no_op":
        raise StructureError(f"unknown alternative kind {alternative.kind!r}")
    if alternative.new_probs is not None:
        tree.set_probabilities(alternative.new_probs)


def apply_best(tree: AdaptiveTree, alternatives: Sequence[Alternative]) -> Alternative:
    """Apply the minimal-delta alternative under the deterministic total order; return it.

    ``rank_key`` leads with the delta, so only the alternatives tied on the
    lowest delta need their full keys compared.
    """
    if not alternatives:
        raise StructureError("no restructuring alternatives given")
    lowest = min(alt.resulting_delta for alt in alternatives)
    tied = [alt for alt in alternatives if alt.resulting_delta == lowest]
    # tied is empty only when a NaN delta comes first; rank all of them then
    chosen = min(tied or alternatives, key=lambda alt: alt.rank_key)
    apply_alternative(tree, chosen)
    return chosen


def optimize_swaps(tree: AdaptiveTree, max_iters: int = DEFAULT_MAX_ITERS) -> list[RestructureOutcome]:
    """Repeated swap iterations until no strict improvement remains.

    Returns one outcome per applied swap; an already-optimal tree yields an
    empty list. Delta is strictly decreasing along the sequence.

    A swap-free tree, where the lightest leaf at each depth weighs at least
    as much as the heaviest leaf at the next occupied depth, returns ``[]``
    without building a report: every swap would add (p_s - p_t)(d_t - d_s)
    >= 0 to delta, and since float addition rounds monotonically no score
    could beat the current delta. Bad probabilities still raise first.
    """
    if max_iters < 1:
        raise StructureError(f"max_iters must be >= 1, got {max_iters}")
    check_probabilities(tree.probabilities)
    if _swap_free(tree):
        return []
    outcomes: list[RestructureOutcome] = []
    report = discrepancy_report(tree)
    for _ in range(max_iters):
        best, candidates = _best_swap(report)
        current = report.delta
        if best is None or best.resulting_delta >= current - IMPROVEMENT_EPS:
            break
        apply_alternative(tree, best)
        report = swapped_report(report, *best.target, tree.config.arity)
        outcomes.append(RestructureOutcome(best, candidates, current, report.delta))
        if report.delta <= CANDIDATE_EPS:
            break
    return outcomes


def _best_swap(report: MetricsReport) -> tuple[Alternative | None, int]:
    """The swap that sorting ``enumerate_swap_alternatives`` ranks first, and
    that list's length (pairs at differing depths plus the no-op).

    Swapping shallow s with deeper t scores delta + (p_s - p_t)(d_t - d_s),
    rising with p_s and falling with p_t. So per pair of levels, a row of t
    by falling p stops at its first score above the best so far, and the
    rows of s by rising p stop at one whose first score is. Only strict
    losers are skipped; equal scores still fall to the label order.
    """
    levels: dict[int, list[tuple[float, str]]] = {}
    for s in report.per_leaf:
        if abs(s.delta_i) > CANDIDATE_EPS:
            levels.setdefault(s.l, []).append((s.p, s.key))
    sizes = [len(bucket) for bucket in levels.values()]
    candidates = (sum(sizes) ** 2 - sum(c * c for c in sizes)) // 2 + 1
    rising = {depth: sorted(levels[depth]) for depth in sorted(levels)}
    order = list(rising)
    best: tuple[float, tuple[str, ...]] = (math.inf, ())
    for i, d_s in enumerate(order):
        for d_t in order[i + 1 :]:
            # (p_s - p_t) * gap is the enumerator's float for either key order.
            gap, p_top = d_t - d_s, rising[d_t][-1][0]
            for p_s, key_s in rising[d_s]:
                if report.delta + (p_s - p_top) * gap > best[0]:
                    break
                for p_t, key_t in reversed(rising[d_t]):
                    score = report.delta + (p_s - p_t) * gap
                    if score > best[0]:
                        break
                    best = min(best, (score, tuple(sorted((key_s, key_t)))))
    if not best[1]:
        return None, candidates
    delta, target = best
    return Alternative(kind="swap", target=target, resulting_delta=delta, sort_labels=target), candidates


def _swap_free(tree: AdaptiveTree) -> bool:
    """Whether no leaf swap can lower delta: at every depth the lightest
    leaf weighs at least as much as the heaviest one at the next occupied
    depth, and so, by the chain, as any deeper leaf. One pass over the
    leaves takes the lightest and heaviest probability per depth."""
    probs, depth = tree.probabilities, tree._depth
    lightest: dict[int, float] = {}
    heaviest: dict[int, float] = {}
    for key, nid in tree._leaf_by_key.items():
        d, p = depth[nid], probs[key]
        if d not in lightest:
            lightest[d] = heaviest[d] = p
        elif p < lightest[d]:
            lightest[d] = p
        elif p > heaviest[d]:
            heaviest[d] = p
    order = sorted(lightest)
    return all(lightest[d] >= heaviest[deeper] for d, deeper in zip(order, order[1:]))


def _open_nodes(tree: AdaptiveTree) -> list[tuple[str, int, str]]:
    """``(node_id, depth, smallest leaf key below)`` of each internal node
    with a free child slot, in preorder, from one preorder pass."""
    m, nodes = tree.config.arity, tree.nodes
    preorder, open_nodes = [], []
    stack = [tree.root_id]
    while stack:
        nid = stack.pop()
        children = nodes[nid].children
        if children is not None:
            preorder.append(nid)
            if len(children) < m:
                open_nodes.append(nid)
            stack += children[::-1]
    min_key: dict[str, str] = {}
    for nid in reversed(preorder):  # children before their parent
        children = nodes[nid].children
        min_key[nid] = min(min_key[cid] if cid in min_key else nodes[cid].key for cid in children)
    return [(nid, tree._depth[nid], min_key[nid]) for nid in open_nodes]
