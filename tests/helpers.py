"""Shared generators for randomized suites. All randomness is seeded."""

from __future__ import annotations

import random

from adaptive_merkle import AdaptiveTree, TreeConfig, build_balanced


def random_distribution(rng: random.Random, n: int) -> dict[str, float]:
    weights = [rng.random() + 1e-3 for _ in range(n)]
    total = sum(weights)
    return {f"k{i:03d}": w / total for i, w in enumerate(weights)}


# Top-level snapshot edits that must raise FormatError, as (field, value):
# "arity" sits under "config" and "p_A" is leaf A's probability.
MALFORMED_TOP_LEVEL = [
    ("arity", 2.7),
    ("arity", "2"),
    ("arity", True),
    ("nodes", None),
    ("nodes", {}),
    ("root_id", []),
    ("root_id", 1),
    ("probabilities", []),
    ("probabilities", None),
    ("p_A", None),
    ("p_A", "0.25"),
    ("p_A", True),
    ("p_A", 10**400),
]


def malform(snapshot: dict, field: str, value) -> dict:
    """``snapshot`` with one MALFORMED_TOP_LEVEL edit applied in place."""
    if field == "arity":
        snapshot["config"]["arity"] = value
    elif field == "p_A":
        snapshot["probabilities"]["A"] = value
    else:
        snapshot[field] = value
    return snapshot


def old_format_step(step: dict) -> dict:
    """A wire proof step in the retired form: siblings as index/hash_hex objects."""
    indices = [i for i in range(len(step["siblings"]) + 1) if i != step["position"]]
    siblings = [{"index": i, "hash_hex": h} for i, h in zip(indices, step["siblings"])]
    return {"position": step["position"], "siblings": siblings}


def random_tree(rng: random.Random, n: int, m: int, probs: dict[str, float] | None = None) -> AdaptiveTree:
    """Random valid tree over n leaves built from seeded splits and attaches."""
    if probs is None:
        probs = random_distribution(rng, n)
    keys = sorted(probs)
    tree = build_balanced([(keys[0], keys[0].encode(), 1.0)], TreeConfig(m))
    for key in keys[1:]:
        open_nodes = tree.open_internal_ids()
        if open_nodes and rng.random() < 0.5:
            tree.attach_leaf(rng.choice(open_nodes), key, key.encode())
        else:
            tree.split_leaf(rng.choice(tree.leaf_keys()), key, key.encode())
    tree.set_probabilities(probs)
    return tree


def random_full_tree(rng: random.Random, levels: int, m: int) -> AdaptiveTree:
    """Tree where every internal node has exactly m children (Kraft sum = 1).

    Grown by repeatedly replacing a random leaf with a full fan-out; leaf
    count is 1 + levels * (m - 1).
    """
    counter = [0]

    def next_key() -> str:
        counter[0] += 1
        return f"k{counter[0]:03d}"

    first = next_key()
    tree = build_balanced([(first, first.encode(), 1.0)], TreeConfig(m))
    for _ in range(levels):
        target = rng.choice(tree.leaf_keys())
        tree.split_leaf(target, next_key(), b"")
        parent = tree.parent_id(tree.leaf_node(target).node_id)
        for _ in range(m - 2):
            tree.attach_leaf(parent, next_key(), b"")
    keys = tree.leaf_keys()
    tree.set_probabilities({k: 1.0 / len(keys) for k in keys})
    return tree


def dyadic_distribution(rng: random.Random, tree: AdaptiveTree) -> dict[str, float]:
    """p_i = m ** -depth_i; sums to 1 exactly when the tree is full."""
    m = tree.config.arity
    return {key: float(m) ** -depth for key, depth in tree.depths().items()}


def walked_depths(tree: AdaptiveTree) -> dict[str, int]:
    """Leaf depths from a root-down walk over the children lists: the oracle
    for the depth index the tree keeps."""
    out: dict[str, int] = {}
    stack = [(tree.root_id, 0)]
    while stack:
        nid, depth = stack.pop()
        node = tree.nodes[nid]
        if node.is_leaf:
            out[node.key] = depth
        else:
            stack.extend((cid, depth + 1) for cid in node.children)
    return out
