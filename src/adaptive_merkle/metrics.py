"""Path-length and entropy metrics for adaptive trees.

The quantities of interest for a tree with leaf probabilities p_i and leaf
depths l_i (log taken base m, the tree arity):

* average path length  k_A = sum(p_i * l_i)
* entropy              H   = -sum(p_i * log_m(p_i))
* average discrepancy  delta = k_A - H, with per-leaf contributions
  delta_i = p_i * (l_i + log_m(p_i)); zero-probability leaves contribute 0.

``delta`` is the restructuring objective: it is >= 0 for every valid tree and
hits 0 exactly when every positive-probability leaf sits at depth
-log_m(p_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from ._formats import float_sum
from .tree import AdaptiveTree, TreeConfig, check_probabilities


def log_base(p: float, m: int) -> float:
    # log2-based so that dyadic p and power-of-two m stay exact in floats.
    return math.log2(p) / math.log2(m)


def entropy(probs: Iterable[float], m: int) -> float:
    """Base-m entropy -sum(p * log_m p); p = 0 terms contribute 0.

    The base is a tree arity, checked by
    :class:`~adaptive_merkle.tree.TreeConfig`: a base that is not an int,
    or one outside 2 to ``MAX_ARITY``, raises ``StructureError`` on purpose,
    though the logarithm would be defined for it."""
    TreeConfig(m)
    values = list(probs)
    check_probabilities(dict(enumerate(values)))
    return -float_sum(p * log_base(p, m) for p in values if p > 0.0)


class LeafStats(NamedTuple):
    """Probability, depth, and discrepancy contribution of one leaf; an
    immutable tuple of its fields."""

    key: str
    p: float
    l: int
    delta_i: float


@dataclass(frozen=True)
class MetricsReport:
    """Snapshot metrics: k_A, H, delta = k_A - H, and per-leaf breakdown."""

    k_a: float
    entropy: float
    delta: float
    per_leaf: tuple[LeafStats, ...]

    def to_json_dict(self) -> dict:
        return {
            "k_A": self.k_a,
            "H": self.entropy,
            "delta": self.delta,
            "per_leaf": [
                {"key": s.key, "p": s.p, "l": s.l, "delta_i": s.delta_i} for s in self.per_leaf
            ],
        }


def discrepancy_report(tree: AdaptiveTree) -> MetricsReport:
    """Full metrics for a tree; leaves reported in key order.

    Reads the tree's depth index and its probability map, valid by
    construction; one log per positive-probability leaf serves delta_i and H.
    """
    probs = tree.probabilities
    m = tree.config.arity
    depths = tree.depths()
    per_leaf = []
    h_terms = []  # p * log_m p, in key order as entropy() sums them
    new = tuple.__new__  # skips the per-record Python-level constructor call
    for key in sorted(depths):
        p, l = probs[key], depths[key]
        if p == 0.0:
            per_leaf.append(new(LeafStats, (key, p, l, 0.0)))
        else:
            log_p = log_base(p, m)
            h_terms.append(p * log_p)
            per_leaf.append(new(LeafStats, (key, p, l, p * (l + log_p))))
    h = -float_sum(h_terms)
    k_a = float_sum(s.p * s.l for s in per_leaf)
    return MetricsReport(k_a=k_a, entropy=h, delta=k_a - h, per_leaf=tuple(per_leaf))
