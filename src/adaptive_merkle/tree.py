"""Adaptive m-ary Merkle tree.

An :class:`AdaptiveTree` stores key/payload leaves in an m-ary hash tree
together with a per-leaf access probability. The tree starts balanced and is
reshaped incrementally (leaf splits, leaf attachments, leaf swaps) so that
frequently accessed leaves end up on short root paths. Hashing uses SHA-256
with one byte of domain separation: ``0x00`` for leaves, ``0x01`` for
internal nodes.

Mutations rehash only the affected root path(s); everything else is left
untouched. Next to the parent pointers the tree keeps a depth index, the
edge count from the root of every node: the constructors fill it in the walks
they already make, each mutation updates it in O(1) (only leaves move, so no
subtree is renumbered), and :meth:`AdaptiveTree.depths` reads it instead of
walking. The index is right only because of the single-writer contract:
mutating calls need exclusive access and go through the methods here, reads
may interleave freely between mutations.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    DuplicateKeyError,
    FormatError,
    ProbabilityError,
    StructureError,
    UnknownKeyError,
)

HASH_ALGORITHM = "sha-256"
HASH_SIZE = 32
PROB_SUM_TOL = 1e-9

_LEAF_PREFIX = b"\x00"
_INTERNAL_PREFIX = b"\x01"


def hash_leaf(key: str, payload: bytes) -> bytes:
    """SHA-256 of ``0x00 || key bytes || payload``."""
    return hashlib.sha256(_LEAF_PREFIX + key.encode("utf-8") + payload).digest()


def hash_internal(child_hashes: Iterable[bytes]) -> bytes:
    """SHA-256 of ``0x01 || child hashes`` in child order."""
    h = hashlib.sha256(_INTERNAL_PREFIX)
    for digest in child_hashes:
        h.update(digest)
    return h.digest()


def check_probabilities(probs: Mapping[object, float]) -> None:
    """Reject NaN, infinite and negative values and sums off 1 by more than
    1e-9. The one probability validator of the package."""
    for key, p in probs.items():
        if not math.isfinite(p):
            raise ProbabilityError(f"non-finite probability {p!r} for key {key!r}")
        if p < 0.0:
            raise ProbabilityError(f"negative probability {p!r} for key {key!r}")
    total = sum(probs.values())
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ProbabilityError(f"probabilities sum to {total!r}, expected 1 +/- {PROB_SUM_TOL}")


@dataclass(frozen=True)
class TreeConfig:
    """Tree-wide parameters: arity m (max children per node)."""

    arity: int

    def __post_init__(self) -> None:
        if self.arity < 2:
            raise StructureError(f"arity must be >= 2, got {self.arity}")


@dataclass
class TreeNode:
    """One node. Leaves carry ``key``/``payload``; internals carry ``children``."""

    node_id: str
    hash: bytes
    children: list[str] | None = None
    key: str | None = None
    payload: bytes | None = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class AdaptiveTree:
    """m-ary Merkle tree with per-leaf probabilities and restructuring support.

    Build instances with :func:`build_balanced`, :meth:`from_nested`, or
    :meth:`load`; do not instantiate nodes by hand.
    """

    def __init__(self, config: TreeConfig) -> None:
        self.config = config
        self.root_id: str = ""
        self.nodes: dict[str, TreeNode] = {}
        self.probabilities: dict[str, float] = {}
        self._parent: dict[str, str] = {}
        self._leaf_by_key: dict[str, str] = {}
        self._depth: dict[str, int] = {}  # node id -> edges from the root
        self._next_id = 1

    # -- construction helpers -------------------------------------------------

    def _new_id(self) -> str:
        node_id = f"n{self._next_id}"
        self._next_id += 1
        return node_id

    def _add_leaf_node(self, key: str, payload: bytes, depth: int) -> TreeNode:
        if key in self._leaf_by_key:
            raise DuplicateKeyError(f"leaf key {key!r} already present")
        node = TreeNode(self._new_id(), hash_leaf(key, payload), key=key, payload=payload)
        self.nodes[node.node_id] = node
        self._leaf_by_key[key] = node.node_id
        self._depth[node.node_id] = depth
        return node

    def _add_internal_node(self, child_ids: list[str], depth: int) -> TreeNode:
        digest = hash_internal(self.nodes[cid].hash for cid in child_ids)
        node = TreeNode(self._new_id(), digest, children=list(child_ids))
        self.nodes[node.node_id] = node
        self._depth[node.node_id] = depth
        for cid in child_ids:
            self._parent[cid] = node.node_id
        return node

    @classmethod
    def from_nested(
        cls,
        nested,
        probabilities: Mapping[str, float],
        config: TreeConfig,
        payloads: Mapping[str, bytes] | None = None,
    ) -> "AdaptiveTree":
        """Build a tree from a nested-list shape.

        ``nested`` is a leaf key (string) or a list of nested shapes, e.g.
        ``["A", [["B", "D"], ["C", "E"]]]``. Payloads default to the UTF-8
        key bytes. Nodes are created in post-order, children left to right,
        by an explicit-stack walk, so any depth builds; the walk also fills
        the depth index.
        """
        tree = cls(config)
        built: list[str] = []  # ids of finished subtrees whose parent is not built yet
        stack = [(nested, False, 0)]
        while stack:
            spec, children_built, depth = stack.pop()
            if isinstance(spec, str):
                payload = payloads[spec] if payloads is not None else spec.encode("utf-8")
                built.append(tree._add_leaf_node(spec, payload, depth).node_id)
            elif children_built:
                child_ids = built[-len(spec) :]
                del built[-len(spec) :]
                built.append(tree._add_internal_node(child_ids, depth).node_id)
            else:
                if not 1 <= len(spec) <= config.arity:
                    raise StructureError(f"internal node with {len(spec)} children (arity {config.arity})")
                if len(spec) == 1:
                    raise StructureError("single-child internal nodes are not allowed in a finished tree")
                stack.append((spec, True, depth))
                stack.extend((child, False, depth + 1) for child in reversed(spec))
        (tree.root_id,) = built
        tree.set_probabilities(probabilities)
        return tree

    # -- basic queries ---------------------------------------------------------

    def node(self, node_id: str) -> TreeNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownKeyError(f"no node with id {node_id!r}") from None

    def leaf_node(self, key: str) -> TreeNode:
        try:
            return self.nodes[self._leaf_by_key[key]]
        except KeyError:
            raise UnknownKeyError(f"no leaf with key {key!r}") from None

    def parent_id(self, node_id: str) -> str | None:
        return self._parent.get(node_id)

    def leaf_keys(self) -> list[str]:
        """Leaf keys in left-to-right tree order."""
        return [self.nodes[nid].key for nid in self._iter_preorder() if self.nodes[nid].is_leaf]

    def leaf_count(self) -> int:
        return len(self._leaf_by_key)

    def _iter_preorder(self) -> Iterator[str]:
        stack = [self.root_id]
        while stack:
            nid = stack.pop()
            yield nid
            node = self.nodes[nid]
            if node.children is not None:
                stack.extend(reversed(node.children))

    def depth(self, key: str) -> int:
        """Edge count from the root to the leaf holding ``key``."""
        return self._depth[self.leaf_node(key).node_id]

    def depths(self) -> dict[str, int]:
        """Depth of every leaf, read from the depth index."""
        depth = self._depth
        return {key: depth[nid] for key, nid in self._leaf_by_key.items()}

    def kraft_sum(self) -> float:
        m = self.config.arity
        return sum(m ** -d for d in self.depths().values())

    def root_hash(self) -> bytes:
        """Root digest. A pure function of structure, keys, and payloads."""
        return self.nodes[self.root_id].hash

    def open_internal_ids(self) -> list[str]:
        """Internal nodes with fewer than m children, in preorder."""
        m = self.config.arity
        return [
            nid
            for nid in self._iter_preorder()
            if not self.nodes[nid].is_leaf and len(self.nodes[nid].children) < m
        ]

    # -- mutations -------------------------------------------------------------

    def _rehash(self, node_id: str) -> None:
        node = self.nodes[node_id]
        node.hash = hash_internal(self.nodes[cid].hash for cid in node.children)

    def _rehash_path(self, node_id: str) -> None:
        # Recompute exactly the hashes of the internal node_id and its ancestors.
        nid: str | None = node_id
        while nid is not None:
            self._rehash(nid)
            nid = self._parent.get(nid)

    def split_leaf(self, target_key: str, new_key: str, new_payload: bytes) -> None:
        """Replace the target leaf with an internal node over [target, new leaf].

        The target's depth grows by exactly one; every other depth is
        unchanged. The new leaf starts with probability 0; callers normally
        follow up with :meth:`set_probabilities`.
        """
        target = self.leaf_node(target_key)
        parent_id = self._parent.get(target.node_id)
        depth = self._depth[target.node_id]
        new_leaf = self._add_leaf_node(new_key, new_payload, depth + 1)
        intermediate = self._add_internal_node([target.node_id, new_leaf.node_id], depth)
        self._depth[target.node_id] = depth + 1
        if parent_id is None:
            self.root_id = intermediate.node_id
        else:
            parent = self.nodes[parent_id]
            parent.children[parent.children.index(target.node_id)] = intermediate.node_id
            self._parent[intermediate.node_id] = parent_id
            self._rehash_path(parent_id)
        self.probabilities[new_key] = 0.0

    def attach_leaf(self, parent_id: str, new_key: str, new_payload: bytes) -> None:
        """Append a new leaf as the last child of an internal node with room.

        No existing depth changes. The new leaf starts with probability 0.
        """
        parent = self.node(parent_id)
        if parent.is_leaf:
            raise StructureError(f"cannot attach to leaf node {parent_id!r}")
        if len(parent.children) >= self.config.arity:
            raise StructureError(f"node {parent_id!r} already has {self.config.arity} children")
        new_leaf = self._add_leaf_node(new_key, new_payload, self._depth[parent_id] + 1)
        parent.children.append(new_leaf.node_id)
        self._parent[new_leaf.node_id] = parent_id
        self._rehash_path(parent_id)
        self.probabilities[new_key] = 0.0

    def swap_leaves(self, key_a: str, key_b: str) -> None:
        """Exchange the tree positions of two leaves.

        Depths of the two leaves trade places; the depth multiset and all
        probabilities are unchanged. Both root paths are rehashed, the
        ancestors they share once.
        """
        if key_a == key_b:
            raise StructureError(f"cannot swap leaf {key_a!r} with itself")
        node_a = self.leaf_node(key_a)
        node_b = self.leaf_node(key_b)
        parent_a = self._parent.get(node_a.node_id)
        parent_b = self._parent.get(node_b.node_id)
        if parent_a is None or parent_b is None:
            raise StructureError("cannot swap the root leaf")
        slot_a = self.nodes[parent_a].children.index(node_a.node_id)
        slot_b = self.nodes[parent_b].children.index(node_b.node_id)
        self.nodes[parent_a].children[slot_a] = node_b.node_id
        self.nodes[parent_b].children[slot_b] = node_a.node_id
        self._parent[node_a.node_id] = parent_b
        self._parent[node_b.node_id] = parent_a
        depth = self._depth
        depth[node_a.node_id], depth[node_b.node_id] = depth[node_b.node_id], depth[node_a.node_id]
        # Climb the deeper side until both sides meet at the lowest common
        # ancestor, then rehash from there to the root once.
        while parent_a != parent_b:
            if depth[parent_a] < depth[parent_b]:
                parent_a, parent_b = parent_b, parent_a
            self._rehash(parent_a)
            parent_a = self._parent[parent_a]
        self._rehash_path(parent_a)

    def set_probabilities(self, probs: Mapping[str, float]) -> None:
        """Replace the leaf probability map; structure and hashes are untouched."""
        if set(probs) != set(self._leaf_by_key):
            missing = set(self._leaf_by_key) - set(probs)
            extra = set(probs) - set(self._leaf_by_key)
            raise ProbabilityError(
                f"probability keys do not match tree leaves (missing {sorted(missing)}, extra {sorted(extra)})"
            )
        check_probabilities(probs)
        self.probabilities = {key: float(p) for key, p in probs.items()}

    # -- copying / integrity ----------------------------------------------------

    def clone(self) -> "AdaptiveTree":
        """Independent copy; mutations on the clone never touch the original."""
        other = AdaptiveTree(self.config)
        other.root_id = self.root_id
        other.nodes = {
            nid: TreeNode(
                node.node_id,
                node.hash,
                children=None if node.children is None else list(node.children),
                key=node.key,
                payload=node.payload,
            )
            for nid, node in self.nodes.items()
        }
        other.probabilities = dict(self.probabilities)
        other._parent = dict(self._parent)
        other._leaf_by_key = dict(self._leaf_by_key)
        other._depth = dict(self._depth)
        other._next_id = self._next_id
        return other

    def recompute_all_hashes(self) -> None:
        """Full bottom-up rehash; used to cross-check incremental updates.

        Reversed preorder visits every child before its parent, so one
        iterative pass works at any depth."""
        for nid in reversed(list(self._iter_preorder())):
            node = self.nodes[nid]
            if node.is_leaf:
                node.hash = hash_leaf(node.key, node.payload)
            else:
                node.hash = hash_internal(self.nodes[cid].hash for cid in node.children)

    def validate(self) -> None:
        """Structural self-check: tree shape, child bounds, the depth index
        and the key/probability maps."""
        if self._shape_depths() != self._depth:
            raise StructureError("depth index out of sync with the tree shape")
        leaf_keys = {node.key for node in self.nodes.values() if node.is_leaf}
        if leaf_keys != set(self._leaf_by_key):
            raise StructureError("leaf key index out of sync")
        if set(self.probabilities) != leaf_keys:
            raise StructureError("probability map does not cover exactly the leaf keys")

    def _shape_depths(self) -> dict[str, int]:
        """Depth of every node from one root-down walk that checks the shape:
        each node reached once, child counts in bounds, parent pointers
        consistent, every node reachable and the root without a parent."""
        if self.root_id not in self.nodes:
            raise StructureError("root id not present in node map")
        depths: dict[str, int] = {}
        stack = [(self.root_id, 0)]
        while stack:
            nid, depth = stack.pop()
            if nid in depths:
                raise StructureError(f"node {nid!r} reachable more than once")
            depths[nid] = depth
            node = self.nodes[nid]
            if node.is_leaf:
                if node.key is None or node.payload is None:
                    raise StructureError(f"leaf {nid!r} missing key or payload")
            else:
                n = len(node.children)
                if not 1 <= n <= self.config.arity:
                    raise StructureError(f"node {nid!r} has {n} children (arity {self.config.arity})")
                if n == 1:
                    raise StructureError(f"node {nid!r} has a single child in a finished tree")
                for cid in node.children:
                    if self._parent.get(cid) != nid:
                        raise StructureError(f"parent pointer of {cid!r} is inconsistent")
                stack.extend((cid, depth + 1) for cid in reversed(node.children))
        if len(depths) != len(self.nodes):
            raise StructureError("unreachable nodes present")
        if self.root_id in self._parent:
            raise StructureError("root must not have a parent")
        return depths

    # -- snapshots ---------------------------------------------------------------

    def to_snapshot(self) -> dict:
        """JSON-ready snapshot; nodes listed in preorder, hashes as hex."""
        nodes = []
        for nid in self._iter_preorder():
            node = self.nodes[nid]
            if node.is_leaf:
                nodes.append(
                    {
                        "id": nid,
                        "kind": "leaf",
                        "key": node.key,
                        "payload_hex": node.payload.hex(),
                        "hash_hex": node.hash.hex(),
                    }
                )
            else:
                nodes.append(
                    {
                        "id": nid,
                        "kind": "internal",
                        "children": list(node.children),
                        "hash_hex": node.hash.hex(),
                    }
                )
        return {
            "config": {"arity": self.config.arity, "hash": HASH_ALGORITHM},
            "nodes": nodes,
            "root_id": self.root_id,
            "probabilities": dict(sorted(self.probabilities.items())),
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "AdaptiveTree":
        """Rebuild a tree from a snapshot, re-deriving and checking every hash.

        One walk checks the shape and fills the depth index; its reverse
        hashes every child before its parent, each node checked against its
        ``hash_hex`` as it is hashed."""
        try:
            arity, algorithm = snapshot["config"]["arity"], snapshot["config"]["hash"]
            node_specs = snapshot["nodes"]
            root_id = snapshot["root_id"]
            probabilities = snapshot["probabilities"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"snapshot missing required field: {exc}") from None
        # bool is an int subclass: JSON true must pass neither as arity nor as p
        if (
            type(arity) is not int
            or not isinstance(node_specs, list)
            or not isinstance(root_id, str)
            or not isinstance(probabilities, dict)
            or not all(type(p) in (int, float) for p in probabilities.values())
        ):
            raise FormatError(
                "snapshot needs an integer arity, a node list, a string root_id and numeric probabilities"
            )
        if algorithm != HASH_ALGORITHM:
            raise StructureError(f"unsupported hash algorithm {algorithm!r}")

        tree = cls(TreeConfig(arity))
        tree.root_id = root_id
        stored_hex: dict[str, str] = {}
        max_suffix = 0
        for spec in node_specs:
            try:
                nid, kind = spec["id"], spec["kind"]
                if kind == "leaf":
                    payload = bytes.fromhex(spec["payload_hex"])
                    node = TreeNode(nid, b"", key=spec["key"], payload=payload)
                    names = [nid, node.key]
                elif kind == "internal":
                    node = TreeNode(nid, b"", children=list(spec["children"]))
                    names = [nid, *node.children]
                else:
                    raise FormatError(f"unknown node kind {kind!r}")
                if not all(isinstance(name, str) for name in names + [spec["hash_hex"]]):
                    raise TypeError(f"non-string id, key, child or hash_hex in node {nid!r}")
            except (KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"malformed snapshot node: {exc!r}") from None
            if nid in tree.nodes:
                raise StructureError(f"duplicate node id {nid!r} in snapshot")
            if node.is_leaf:
                if node.key in tree._leaf_by_key:
                    raise DuplicateKeyError(f"duplicate leaf key {node.key!r} in snapshot")
                tree._leaf_by_key[node.key] = nid
            tree.nodes[nid] = node
            stored_hex[nid] = spec["hash_hex"]
            if nid.startswith("n") and nid[1:].isdigit():
                max_suffix = max(max_suffix, int(nid[1:]))
        tree._next_id = max_suffix + 1

        for node in tree.nodes.values():
            if node.children is not None:
                for cid in node.children:
                    if cid not in tree.nodes:
                        raise StructureError(f"child id {cid!r} not present in snapshot")
                    if cid in tree._parent:
                        raise StructureError(f"node {cid!r} has two parents")
                    tree._parent[cid] = node.node_id

        try:
            tree.probabilities = {str(k): float(p) for k, p in probabilities.items()}
        except OverflowError as exc:  # a JSON integer beyond the float range
            raise FormatError(f"snapshot probability out of range: {exc}") from None
        check_probabilities(tree.probabilities)
        tree._depth = tree._shape_depths()
        if set(tree.probabilities) != set(tree._leaf_by_key):
            raise StructureError("probability map does not cover exactly the leaf keys")
        for nid in reversed(tree._depth):  # the walk is a preorder
            node = tree.nodes[nid]
            if node.is_leaf:
                node.hash = hash_leaf(node.key, node.payload)
            else:
                tree._rehash(nid)
            if node.hash.hex() != stored_hex[nid]:
                raise StructureError(f"hash mismatch for node {nid!r} in snapshot")
        return tree

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_snapshot(), fh, indent=2, sort_keys=False)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "AdaptiveTree":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                snapshot = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"snapshot {path!s} is not valid JSON: {exc}") from None
        return cls.from_snapshot(snapshot)


def build_balanced(
    leaves: Sequence[tuple[str, bytes, float]],
    config: TreeConfig,
) -> AdaptiveTree:
    """Build a complete-as-possible m-ary tree over ``(key, payload, p)`` triples.

    Leaf order is preserved left to right and surplus leaves are spread evenly,
    so n = m^d leaves all land at depth d and other counts differ by at most
    one level.
    """
    if not leaves:
        raise StructureError("cannot build a tree over an empty leaf list")
    m = config.arity

    def split(keys: list[str]):
        # Recurses log_m(n) deep: each level divides the keys among m children.
        if len(keys) == 1:
            return keys[0]
        if len(keys) <= m:
            return keys
        q, r = divmod(len(keys), m)
        bounds = [i * q + min(i, r) for i in range(m + 1)]
        return [split(keys[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]

    return AdaptiveTree.from_nested(
        split([key for key, _, _ in leaves]),
        {key: p for key, _, p in leaves},
        config,
        {key: payload for key, payload, _ in leaves},
    )
