"""Single-iteration tree restructuring: enumerate or pick, then apply.

One iteration works in two modes:

* add mode -- a new leaf arrives together with a fresh probability
  distribution. Candidates are one split per existing leaf plus one attach
  per internal node that still has a free child slot (one alternative per
  node, not per slot: the slot choice cannot change any depth). The scores
  read the tree's depth index and sum k_A over the leaves in key order, as
  the report does; only a tree with a free slot is walked, to find its open
  nodes.
* swap mode -- no new leaf; candidates are unordered pairs of "misplaced"
  leaves (elemental discrepancy != 0) at differing depths, plus an explicit
  no-op carrying the current delta.

Every alternative is scored by the average discrepancy delta of the
candidate tree. The best one wins; ties break deterministically by
(delta, kind: attach < split < swap < exchange < no_op, ascending target
labels).

Two loops repeat the best move until none improves delta.

* ``optimize_swaps``, the library's loop (bench, CLI ``optimize``),
  exchanges two non-nested nodes, leaves or whole subtrees. With w a
  subtree's probability, exchanging u with a deeper v changes k_A, and so
  delta, by (w_u - w_v)(d_v - d_u): unlike a leaf swap it changes the
  depth multiset, which is what brings grown trees to the Huffman optimum.
  Each step takes the lightest node of one depth against the heaviest of a
  deeper one, best pair of depths first, from an index that keeps every
  node once, under its depth, sorted by (weight, label); a move refiles
  just the nodes it moves or reweighs. The index also owns the stop test:
  it offers no pair whose gain is not over ``IMPROVEMENT_EPS``. The loop
  first checks a certificate that no leaf swap can help: swapping a
  shallow leaf s with a deeper leaf t changes delta by
  (p_s - p_t)(d_t - d_s), so when at every depth the
  lightest leaf weighs at least as much as the heaviest leaf one occupied
  depth further down, it returns at once. The certificate looks at leaves
  only, so a swap-free tree whose subtree exchange would help, such as a
  caterpillar over equal weights, comes back unchanged. Past the exit the
  loop reads one report, for its starting delta, and subtracts each move's
  gain.
* ``optimize_leaf_swaps``, the paper's loop and the audit path that
  ``replay`` runs, swaps leaves only: each step lists
  ``enumerate_swap_alternatives`` and applies the first by ``rank_key``;
  the report read after a swap serves the next step's listing.
  Its candidate filter keeps zero-weight leaves where they are.
"""

from __future__ import annotations

import bisect
import sys
from dataclasses import dataclass
from operator import itemgetter
from typing import Mapping, NamedTuple, Sequence

from ._formats import float_sum
from .errors import StructureError
from .metrics import MetricsReport, _entropy, discrepancy_report
from .tree import _KEY_BYTES, AdaptiveTree, _float_copy, check_probabilities, node_label

KIND_ORDER = {"attach": 0, "split": 1, "swap": 2, "exchange": 3, "no_op": 4}

# A swap is applied only if it beats the current delta by more than this.
IMPROVEMENT_EPS = 1e-12
CANDIDATE_EPS = 1e-9
DEFAULT_MAX_ITERS = 64


class Alternative(NamedTuple):
    """One candidate restructuring with its evaluated discrepancy; an
    immutable tuple of its fields. ``target`` holds leaf keys for a split or
    a swap and int node ids for an attach or an exchange."""

    kind: str
    target: tuple[str, ...] | tuple[int, ...]
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
        names = list(map(node_label, self.target)) if self.kind in ("attach", "exchange") else list(self.target)
        return names if self.kind in ("swap", "exchange") else names[0]

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

    The new leaf (payload by default its key's UTF-8 bytes) and the
    distribution first pass the tree's leaf and cover rules: the listing
    refuses what ``split_leaf`` and ``set_probabilities`` refuse, alike.
    Reads the tree's depth index and sums the old leaves' share of k_A in
    key order, as the report does, so a score depends only on each leaf's
    depth and probability, not on its place among its siblings. Only a
    tree with a free child slot (never a finished m=2 tree) is walked."""
    new_payload = tree._check_leaf(new_key, _KEY_BYTES if new_payload is None else new_payload)
    tree._check_cover(new_probs, new_key)
    check_probabilities(new_probs)
    leaf_by_key, depth = tree._leaf_by_key, tree._depth
    h = _entropy(new_probs.values(), tree.config.arity)
    keys = sorted(leaf_by_key)
    base_k = float_sum(new_probs[key] * depth[leaf_by_key[key]] for key in keys)
    p_new = new_probs[new_key]
    probs_copy = _float_copy(new_probs)
    alternatives = [
        Alternative("attach", (node_id,), base_k + p_new * (node_depth + 1) - h, (min_key,),
                    new_key, new_payload, probs_copy)
        for node_id, node_depth, min_key in _open_nodes(tree)
    ]
    # tuple.__new__ skips the per-record Python-level constructor call
    new = tuple.__new__
    alternatives += [
        new(Alternative, ("split", (key,), base_k + new_probs[key] + p_new * (depth[leaf_by_key[key]] + 1) - h,
                          (key,), new_key, new_payload, probs_copy))
        for key in keys
    ]
    return alternatives


def enumerate_swap_alternatives(tree: AdaptiveTree) -> list[Alternative]:
    """Swap candidates among misplaced leaves, plus a no-op baseline.

    Leaves qualify when their elemental discrepancy is non-zero (beyond
    1e-9); only pairs at differing depths are emitted since equal-depth swaps
    cannot change any path length.
    """
    return _swap_alternatives(tree, discrepancy_report(tree))


def _swap_alternatives(tree: AdaptiveTree, report: MetricsReport) -> list[Alternative]:
    # enumerate_swap_alternatives from a report of the tree as it stands
    depths, probs = {s.key: s.l for s in report.per_leaf}, tree.probabilities
    candidates = [s.key for s in report.per_leaf if abs(s.delta_i) > CANDIDATE_EPS]

    alternatives: list[Alternative] = []
    for i, key_a in enumerate(candidates):
        for key_b in candidates[i + 1 :]:
            if depths[key_a] == depths[key_b]:
                continue
            p_a, p_b = probs[key_a], probs[key_b]
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
    elif alternative.kind == "exchange":
        tree.swap_nodes(*alternative.target)
    elif alternative.kind != "no_op":
        raise StructureError(f"unknown alternative kind {alternative.kind!r}")
    if alternative.new_probs is not None:
        tree.set_probabilities(alternative.new_probs)


def apply_best(tree: AdaptiveTree, alternatives: Sequence[Alternative]) -> Alternative:
    """Apply the minimal-delta alternative under the deterministic total order; return it.

    ``rank_key`` leads with the delta, so a unique lowest delta, found by
    C-level ``min``/``count``/``index`` over the deltas, wins outright; only
    the alternatives tied on it need their full keys compared.
    """
    if not alternatives:
        raise StructureError("no restructuring alternatives given")
    deltas = list(map(itemgetter(2), alternatives))  # the resulting_delta field
    lowest = min(deltas)
    if lowest == lowest and deltas.count(lowest) == 1:
        chosen = alternatives[deltas.index(lowest)]
    else:
        tied = [alt for alt in alternatives if alt.resulting_delta == lowest]
        # tied is empty only when a NaN delta comes first; rank all of them then
        chosen = min(tied or alternatives, key=lambda alt: alt.rank_key)
    apply_alternative(tree, chosen)
    return chosen


def optimize_swaps(tree: AdaptiveTree, max_iters: int = DEFAULT_MAX_ITERS) -> list[RestructureOutcome]:
    """Repeated node exchanges until no strict improvement remains.

    Each step exchanges the two non-nested nodes, leaves or whole subtrees,
    whose exchange lowers k_A (and so delta) the most: with w a subtree's
    probability and d its depth, exchanging u with a deeper v gains
    (w_v - w_u)(d_v - d_u). The loop stops when the best pair's gain does
    not exceed ``IMPROVEMENT_EPS`` (``_NodeRanks.best_exchange`` then
    offers none) or after ``max_iters`` moves, an int >= 1. So delta is
    strictly decreasing along the returned outcomes, one per applied
    exchange; an exchange of two leaves is a ``swap`` of their keys, any
    other an ``exchange`` of node ids.

    A swap-free tree, where the lightest leaf at each depth weighs at least
    as much as the heaviest leaf at the next occupied depth, returns ``[]``
    at once. That exit looks at leaves only, so a swap-free tree whose
    subtree exchange would help comes back unchanged. One consequence: a
    capped run that is resumed can stop short of an uncapped one. On the
    m=2 tree that CLI ``insert`` makes from demo16 plus Q, a run capped at
    4 moves leaves a swap-free tree, so a second call returns ``[]`` at
    k_A 3.6242, while one uncapped run makes 5 moves to 3.6047.
    """
    _check_max_iters(max_iters)
    if _swap_free(tree):
        return []
    return _exchange(tree, max_iters)


def _check_max_iters(max_iters: int) -> None:
    # bool is an int subclass, and a float cap is never met by a count
    if type(max_iters) is not int or max_iters < 1:
        raise StructureError(f"max_iters must be an int >= 1, got {max_iters!r}")


def _exchange(tree: AdaptiveTree, max_iters: int) -> list[RestructureOutcome]:
    """The exchange loop of :func:`optimize_swaps`, without its cap check
    and its swap-free exit."""
    outcomes: list[RestructureOutcome] = []
    delta = discrepancy_report(tree).delta
    ranks = _NodeRanks(tree)
    for _ in range(max_iters):
        gain, pair, candidates = ranks.best_exchange()
        if pair is None:
            break
        labels = (ranks.label[pair[0]], ranks.label[pair[1]])
        if all(tree._children[nid] is None for nid in pair):
            chosen = Alternative("swap", labels, delta - gain, labels)
        else:
            chosen = Alternative("exchange", pair, delta - gain, labels)
        tree.swap_nodes(*pair)
        ranks.exchanged(*pair)
        outcomes.append(RestructureOutcome(chosen, candidates, delta, chosen.resulting_delta))
        delta = chosen.resulting_delta
    return outcomes


def _exchange_left(tree: AdaptiveTree) -> bool:
    """Whether the exchange loop would make another move on ``tree``: the
    stop test of :func:`optimize_swaps` after its last move, for CLI
    ``optimize`` to tell a cap from convergence. A fresh index equals the
    one the loop kept, bit for bit."""
    return _NodeRanks(tree).best_exchange()[1] is not None


def _settle(tree: AdaptiveTree) -> None:
    """The adaptive build's last step: exchanges, then relocates or
    regroups, until neither moves. A second regroup on an unchanged tree
    moves nothing, and exchanges and relocates lower k_A by over
    ``IMPROVEMENT_EPS``: it ends."""
    while True:
        _exchange(tree, sys.maxsize)
        if not (_relocate(tree) or _regroup(tree)):
            return


def _regroup(tree: AdaptiveTree) -> bool:
    """Re-pair each depth's nodes on the same slots, deepest first, by
    same-depth exchanges; whether any moved. Sorted by (weight descending,
    label), they fill the parents one depth up in blocks, fullest parent
    first (free slots go to the lightest, as in m-ary Huffman), then by each
    parent's heaviest child (so a second call moves nothing). k_A stays; the
    new pairs can open an exchange (Gallager's sibling property)."""
    ranks = _NodeRanks(tree)
    weight, label, children, parent = ranks.weight, ranks.label, tree._children, tree._parent
    moved = False
    # same-depth exchanges change no depth's members, only their order
    for d in sorted(ranks.levels, reverse=True)[:-1]:  # the root has no parent slot
        level = sorted((nid for _, _, nid in ranks.levels[d]), key=lambda nid: (-weight[nid], label[nid]))
        rest = iter(level)
        # parents by their heaviest child, then stably by child count
        for p in sorted(dict.fromkeys(parent[nid] for nid in level), key=lambda p: -len(children[p])):
            block = [next(rest) for _ in children[p]]
            outgoing = [cid for cid in children[p] if cid not in block]
            for u, v in zip([nid for nid in block if parent[nid] != p], outgoing):
                tree.swap_nodes(u, v)
                ranks.exchanged(u, v)
                moved = True
    return moved


def _relocate(tree: AdaptiveTree) -> bool:
    """Move the node u of largest gain w_u(d_u - d_o - 1), whose parent keeps
    two children, into o, the shallowest open node (smallest label first),
    if the gain exceeds ``IMPROVEMENT_EPS``; whether it moved."""
    open_nodes = _open_nodes(tree)
    if not open_nodes:
        return False
    d_o, _, o = min((d, min_key, nid) for nid, d, min_key in open_nodes)
    children, parent, depth, ranks = tree._children, tree._parent, tree._depth, _NodeRanks(tree)
    # ties go to the smaller label, then the shallower node
    candidates = [(-ranks.weight[nid] * (depth[nid] - d_o - 1), ranks.label[nid], depth[nid], nid)
                  for nid in range(1, len(children)) if parent[nid] and len(children[parent[nid]]) > 2]
    loss, _, _, u = min(candidates, default=(0.0, "", 0, 0))
    if -loss > IMPROVEMENT_EPS:
        tree.move_node(u, o)
    return -loss > IMPROVEMENT_EPS


def optimize_leaf_swaps(tree: AdaptiveTree, max_iters: int = DEFAULT_MAX_ITERS) -> list[RestructureOutcome]:
    """The paper's swap loop, the audit path that ``replay`` runs: list the
    ``enumerate_swap_alternatives`` of the tree, apply the first by
    ``rank_key``, repeat until no swap strictly improves delta.

    Returns one outcome per applied swap, ``candidates`` being the length of
    the listing it was picked from; an already-optimal tree yields an empty
    list. Delta is strictly decreasing along the sequence, and the loop
    stops once it is 0 (within ``CANDIDATE_EPS``). Leaves whose discrepancy
    is 0, zero-probability ones included, are no candidates, and swaps keep
    the depth multiset, so this loop can stop short of
    :func:`optimize_swaps`.
    """
    return _leaf_swap_loop(tree, max_iters)[0]


def _leaf_swap_loop(
    tree: AdaptiveTree, max_iters: int
) -> tuple[list[RestructureOutcome], list[Alternative]]:
    """:func:`optimize_leaf_swaps`'s outcomes and its first listing, that of
    the starting tree. One report per step: the report read after a swap
    is the next step's listing's."""
    _check_max_iters(max_iters)
    outcomes: list[RestructureOutcome] = []
    report = discrepancy_report(tree)
    first = alternatives = _swap_alternatives(tree, report)
    while True:
        best = min(alternatives, key=lambda alt: alt.rank_key)
        current = alternatives[-1].resulting_delta  # the no-op's
        if best.kind == "no_op" or best.resulting_delta >= current - IMPROVEMENT_EPS:
            break
        apply_alternative(tree, best)
        report = discrepancy_report(tree)
        outcomes.append(RestructureOutcome(best, len(alternatives), current, report.delta))
        if report.delta <= CANDIDATE_EPS or len(outcomes) == max_iters:
            break
        alternatives = _swap_alternatives(tree, report)
    return outcomes, first


class _NodeRanks:
    """Every node's weight and label, lists by node id, and per depth its
    nodes sorted by (weight, label), kept up to date across exchanges.

    A leaf weighs its probability, an internal node the sum of its
    children's weights, added in child order; a node's label is the
    smallest leaf key below it. Nodes at one depth are disjoint subtrees
    with distinct labels, so the first and the last entry of a depth, its
    lightest and heaviest node, never depend on set or dict order. Each
    node has exactly one entry: an exchange moves the entry of every node
    it moves or reweighs, and a depth left empty is dropped.
    """

    def __init__(self, tree: AdaptiveTree) -> None:
        self.tree = tree
        depth, children, probs = tree._depth, tree._children, tree.probabilities
        self.label = label = tree._key[:]  # a leaf's key; internal nodes filled below
        self.weight = weight = [0.0 if key is None else probs[key] for key in label]
        internal = [nid for nid in range(1, len(children)) if children[nid] is not None]
        internal.sort(key=depth.__getitem__, reverse=True)  # children before parents
        for nid in internal:
            weight[nid], label[nid] = self._rank_of(children[nid])
        self.levels: dict[int, list[tuple[float, str, int]]] = {}
        for nid in range(1, len(children)):
            self.levels.setdefault(depth[nid], []).append((weight[nid], label[nid], nid))
        for entries in self.levels.values():
            entries.sort()

    def _refile(self, nid: int, d: int, w: float, lab: str) -> None:
        # move nid's one entry from depth d and its old rank to its depth now and (w, lab)
        entries = self.levels[d]
        del entries[bisect.bisect_left(entries, (self.weight[nid], self.label[nid], nid))]
        if not entries:
            del self.levels[d]
        self.weight[nid], self.label[nid] = w, lab
        bisect.insort(self.levels.setdefault(self.tree._depth[nid], []), (w, lab, nid))

    def _rank_of(self, children: list[int]) -> tuple[float, str]:
        weight, label = self.weight, self.label
        w, lab = 0.0, label[children[0]]
        for cid in children:
            w += weight[cid]
            if label[cid] < lab:
                lab = label[cid]
        return w, lab

    def _rerank(self, nid: int) -> bool:
        # recompute an internal node's weight and label; whether they changed
        w, lab = self._rank_of(self.tree._children[nid])
        if self.weight[nid] == w and self.label[nid] == lab:
            return False
        self._refile(nid, self.tree._depth[nid], w, lab)
        return True

    def best_exchange(self) -> tuple[float, tuple[int, int] | None, int]:
        """``(gain, node ids, candidates)`` of the exchange that lowers k_A
        the most, ids in label order; the ids are None unless the gain
        exceeds ``IMPROVEMENT_EPS``: this is the exchange loop's stop test.

        Exchanging u with a deeper v gains (w_v - w_u)(d_v - d_u), so
        between two depths the best pair is the lightest node of the shallow
        one and the heaviest of the deep one. Only those pairs are scored
        (``candidates`` counts them plus the no-op). A positive gain never
        pairs a node with an ancestor, which weighs at least as much. Ties
        go to the smaller label pair, then the shallower depths.
        """
        weight, label = self.weight, self.label
        # (depth, lightest, heaviest), root excluded: it cannot move
        ends = [(d, entries[0][2], entries[-1][2]) for d, entries in sorted(self.levels.items()) if d]
        heaviest_below = [0.0] * len(ends)  # heaviest weight at any deeper depth
        for i in range(len(ends) - 2, -1, -1):
            heaviest_below[i] = max(heaviest_below[i + 1], weight[ends[i + 1][2]])
        best_gain, best, best_key = 0.0, None, None
        for i, (d_u, u, _) in enumerate(ends):
            w_u = weight[u]
            if heaviest_below[i] <= w_u:  # no deeper node outweighs the lightest here
                continue
            for d_v, _, v in ends[i + 1 :]:
                gain = (weight[v] - w_u) * (d_v - d_u)
                if gain <= 0.0 or gain < best_gain:
                    continue
                pair = (u, v) if label[u] < label[v] else (v, u)
                key = (label[pair[0]], label[pair[1]], d_u, d_v)
                if gain > best_gain or key < best_key:
                    best_gain, best, best_key = gain, pair, key
        if not best_gain > IMPROVEMENT_EPS:
            best = None
        return best_gain, best, len(ends) * (len(ends) - 1) // 2 + 1

    def exchanged(self, u: int, v: int) -> None:
        """Update after nodes u and v traded places: every node of the two
        subtrees moves its entry to its new depth, and the nodes on both root
        paths are reranked, children before parents, as the full pass would
        rank them."""
        children, depth, parent = self.tree._children, self.tree._depth, self.tree._parent
        shift = depth[u] - depth[v]  # how far u's subtree went down
        stack = [(u, shift), (v, -shift)] if shift else []
        while stack:
            nid, by = stack.pop()
            self._refile(nid, depth[nid] - by, self.weight[nid], self.label[nid])
            if children[nid] is not None:
                stack += [(cid, by) for cid in children[nid]]
        a, b = parent[u], parent[v]
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            self._rerank(a)
            a = parent[a]
        # an unchanged node leaves every ancestor unchanged; the root's parent is 0
        while a and self._rerank(a):
            a = parent[a]


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


def _open_nodes(tree: AdaptiveTree) -> list[tuple[int, int, str]]:
    """``(node_id, depth, smallest leaf key below)`` of each internal node
    with a free child slot, in preorder: add mode's attach targets and
    :func:`_relocate`'s. A tree whose slots are all filled, as every m=2
    tree's are, returns ``[]`` at once; any other takes one preorder pass."""
    m, children_of, count = tree.config.arity, tree._children, len(tree._children) - 1  # slot 0 holds no node
    # m * internal child slots, count - 1 of them filled: is one free?
    if m * (count - len(tree._leaf_by_key)) <= count - 1:
        return []
    preorder, open_nodes = [], []
    stack = [tree.root_id]
    while stack:
        nid = stack.pop()
        children = children_of[nid]
        if children is not None:
            preorder.append(nid)
            if len(children) < m:
                open_nodes.append(nid)
            stack += children[::-1]
    min_key = tree._key[:]  # a leaf's own key; internal nodes filled below
    for nid in reversed(preorder):  # children before their parent
        min_key[nid] = min([min_key[cid] for cid in children_of[nid]])
    return [(nid, tree._depth[nid], min_key[nid]) for nid in open_nodes]
