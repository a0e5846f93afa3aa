"""Adaptive m-ary Merkle tree.

An :class:`AdaptiveTree` stores key/payload leaves in an m-ary hash tree
together with a per-leaf access probability. The tree starts balanced and is
reshaped incrementally (leaf splits, leaf attachments, exchanges of two
leaves or whole subtrees) so that frequently accessed leaves end up on
short root paths. Hashing uses SHA-256 with one byte of domain separation:
``0x00`` for leaves, ``0x01`` for internal nodes.

One rule decides when to rehash: mutations mark, reads flush. A mutation
adds the parents whose children changed to a dirty set and hashes nothing
but a split's new node; :meth:`AdaptiveTree.root_hash` rehashes the union of
the dirty nodes' root paths, each node once, children before parents, and
clears the set. So an internal node's hash is current only after
``root_hash()``, which ``prove`` and snapshot writing call first. Each
internal node keeps its hash preimage, its children's digests joined in
child order (``TreeNode.child_digests``), so a proof slices a step's
siblings out of one byte string. ``_rehash`` is the one writer of both the
preimage and the hash: building, the flush, the full rehash and
``from_snapshot`` go through it, and snapshots do not store it. Next to the
parent pointers the tree keeps a depth index, the edge count from the root
of every node, and a leaf-key index; ``from_nested`` fills all three as it
builds. Every whole-tree pass goes through one checked root-down walk:
``from_snapshot`` takes the indexes from it, :meth:`AdaptiveTree.validate`
compares them with it, and snapshot writing, the full rehash and
:meth:`AdaptiveTree.leaf_keys` read their order from it, so a corrupted tree
raises :class:`StructureError` there instead of being written or hashed. A
split or an attach updates the three indexes in O(1); an exchange
(:meth:`AdaptiveTree.swap_nodes`, of which a leaf swap is the one-node case)
renumbers the depths of both moved subtrees, O(their size).
:meth:`AdaptiveTree.depths` and add mode read the indexes instead of
walking. The indexes are right only because of the single-writer contract:
mutating calls, and the first read after them, which flushes, need exclusive
access and go through the methods here; later reads may interleave freely.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ._formats import float_sum, json_probabilities, load_json
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
    return hashlib.sha256(_INTERNAL_PREFIX + b"".join(child_hashes)).digest()


def check_probabilities(probs: Mapping[object, float]) -> None:
    """Reject NaN, infinite and negative values and sums off 1 by more than
    1e-9. The one probability validator of the package.

    A sum well inside the tolerance with no negative value is accepted at
    once, from the C-level builtin ``sum``. Anything else takes the full
    check: the :func:`float_sum` total, and, unless that total is finite
    and no value is negative, the per-key loop that names the first bad key.
    """
    values = probs.values()
    # On non-negative terms, the builtin sum (plain before Python 3.12,
    # compensated from 3.12 on) and float_sum each stay within
    # (n - 1) * 2**-53 * total of the exact sum, so they differ by less than
    # n * 4.5e-16 for a total near 1. A builtin sum inside that margin of the
    # tolerance therefore means float_sum is inside the tolerance too, and
    # both reach the same decision on every Python. NaN, infinities and an
    # overflowing sum make the test false and take the full check.
    if abs(sum(values) - 1.0) <= PROB_SUM_TOL - len(values) * 4.5e-16 and min(values, default=0.0) >= 0.0:
        return
    total = float_sum(values)
    if not (math.isfinite(total) and min(values, default=0.0) >= 0.0):
        for key, p in probs.items():
            if not math.isfinite(p):
                raise ProbabilityError(f"non-finite probability {p!r} for key {key!r}")
            if p < 0.0:
                raise ProbabilityError(f"negative probability {p!r} for key {key!r}")
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ProbabilityError(f"probabilities sum to {total!r}, expected 1 +/- {PROB_SUM_TOL}")


def _float_copy(probs: Mapping[str, float]) -> dict[str, float]:
    """A copy of a probability map with every value a plain float: one
    C-level ``dict`` copy, converted value by value only when some value is
    not a float already (an int or a bool)."""
    copied = dict(probs)
    if not set(map(type, copied.values())) <= {float}:
        copied = {key: float(p) for key, p in probs.items()}
    return copied


@dataclass(frozen=True)
class TreeConfig:
    """Tree-wide parameters: arity m (max children per node)."""

    arity: int

    def __post_init__(self) -> None:
        # bool is an int subclass, and a float arity cannot size a node
        if type(self.arity) is not int or self.arity < 2:
            raise StructureError(f"arity must be an int >= 2, got {self.arity!r}")


@dataclass
class TreeNode:
    """One node. Leaves carry ``key``/``payload``; internals carry ``children``
    and ``child_digests``, the children's hashes joined in child order: the
    node's hash preimage, which ``AdaptiveTree._rehash`` alone writes. An
    internal node's ``hash`` and ``child_digests`` are current only after
    the tree's ``root_hash()``."""

    node_id: str
    hash: bytes
    children: list[str] | None = None
    key: str | None = None
    payload: bytes | None = None
    child_digests: bytes = b""

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
        self._dirty: set[str] = set()  # nodes whose children changed since the last root_hash()
        self._next_id = 1

    # -- construction helpers -------------------------------------------------

    def _new_id(self) -> str:
        # A loaded snapshot may name its nodes anything: skip the ids in use.
        while f"n{self._next_id}" in self.nodes:
            self._next_id += 1
        self._next_id += 1
        return f"n{self._next_id - 1}"

    def _add_leaf_node(self, key: str, payload: bytes, depth: int) -> TreeNode:
        if key in self._leaf_by_key:
            raise DuplicateKeyError(f"leaf key {key!r} already present")
        node = TreeNode(self._new_id(), hash_leaf(key, payload), key=key, payload=payload)
        self.nodes[node.node_id] = node
        self._leaf_by_key[key] = node.node_id
        self._depth[node.node_id] = depth
        return node

    def _add_internal_node(self, child_ids: list[str], depth: int) -> TreeNode:
        node = TreeNode(self._new_id(), b"", children=list(child_ids))
        self.nodes[node.node_id] = node
        self._depth[node.node_id] = depth
        for cid in child_ids:
            self._parent[cid] = node.node_id
        self._rehash(node.node_id)
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
        return list(self._walk_indexes()[2])

    def leaf_count(self) -> int:
        return len(self._leaf_by_key)

    def depth(self, key: str) -> int:
        """Edge count from the root to the leaf holding ``key``."""
        return self._depth[self.leaf_node(key).node_id]

    def depths(self) -> dict[str, int]:
        """Depth of every leaf, read from the depth index."""
        depth = self._depth
        return {key: depth[nid] for key, nid in self._leaf_by_key.items()}

    def root_hash(self) -> bytes:
        """Root digest. A pure function of structure, keys, and payloads.

        The one flush point: rehashes the union of the dirty nodes' root
        paths, each node once, deepest first, then clears the dirty set."""
        if self._dirty:
            depth, parent = self._depth, self._parent
            stale: set[str] = set()
            for nid in self._dirty:
                # a climb stops where it meets a path already gathered
                while nid is not None and nid not in stale:
                    stale.add(nid)
                    nid = parent.get(nid)
            for nid in sorted(stale, key=depth.__getitem__, reverse=True):
                self._rehash(nid)
            self._dirty.clear()
        return self.nodes[self.root_id].hash

    # -- mutations -------------------------------------------------------------

    def _rehash(self, node_id: str) -> None:
        # The one writer of child_digests: proofs slice a step's siblings
        # out of it, so it must always be the preimage of node.hash.
        nodes = self.nodes
        node = nodes[node_id]
        node.child_digests = b"".join([nodes[cid].hash for cid in node.children])
        node.hash = hash_internal((node.child_digests,))

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
            self._dirty.add(parent_id)
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
        self._dirty.add(parent_id)
        self.probabilities[new_key] = 0.0

    def swap_leaves(self, key_a: str, key_b: str) -> None:
        """Exchange the tree positions of two leaves: :meth:`swap_nodes` on
        their nodes.

        Depths of the two leaves trade places; the depth multiset and all
        probabilities are unchanged.
        """
        if key_a == key_b:
            raise StructureError(f"cannot swap leaf {key_a!r} with itself")
        self.swap_nodes(self.leaf_node(key_a).node_id, self.leaf_node(key_b).node_id)

    def swap_nodes(self, a: str, b: str) -> None:
        """Exchange the tree positions of two nodes, leaves or whole subtrees.

        Neither node may be the root or contain the other. Each subtree
        keeps its shape and moves to the other's parent slot, so its nodes'
        depths shift by the difference of the two depths (O(subtree size)).
        Both parents are marked dirty; the next :meth:`root_hash` rehashes.
        """
        nodes, parent, depth = self.nodes, self._parent, self._depth
        if a == b:
            raise StructureError(f"cannot exchange node {a!r} with itself")
        self.node(a), self.node(b)  # an unknown id raises UnknownKeyError
        pa, pb = parent.get(a), parent.get(b)
        if pa is None or pb is None:
            raise StructureError("cannot exchange the root")
        shift = depth[b] - depth[a]
        # climb from the deeper node to the other's depth: meeting it means nested
        deep, shallow = (b, a) if shift > 0 else (a, b)
        for _ in range(abs(shift)):
            deep = parent[deep]
        if deep == shallow:
            raise StructureError(f"cannot exchange nested nodes {a!r} and {b!r}")
        if shift:
            for nid, by in ((a, shift), (b, -shift)):
                stack = [nid]
                while stack:
                    cur = stack.pop()
                    depth[cur] += by
                    children = nodes[cur].children
                    if children is not None:
                        stack += children
        children_a, children_b = nodes[pa].children, nodes[pb].children
        slot_a, slot_b = children_a.index(a), children_b.index(b)
        children_a[slot_a], children_b[slot_b] = b, a
        parent[a], parent[b] = pb, pa
        self._dirty.update((pa, pb))

    def set_probabilities(self, probs: Mapping[str, float]) -> None:
        """Replace the leaf probability map; structure and hashes are untouched."""
        if probs.keys() != self._leaf_by_key.keys():
            missing = set(self._leaf_by_key) - set(probs)
            extra = set(probs) - set(self._leaf_by_key)
            raise ProbabilityError(
                f"probability keys do not match tree leaves (missing {sorted(missing)}, extra {sorted(extra)})"
            )
        check_probabilities(probs)
        self.probabilities = _float_copy(probs)

    # -- copying / integrity ----------------------------------------------------

    def clone(self) -> "AdaptiveTree":
        """Independent copy; mutations on the clone never touch the original."""
        return copy.deepcopy(self)

    def recompute_all_hashes(self) -> None:
        """Full rehash in the order of the checked walk, which leaves nothing
        dirty; used to cross-check incremental updates."""
        self._hash_children_first(self._walk_indexes()[0])
        self._dirty.clear()

    def _hash_children_first(self, preorder: dict[str, int]) -> None:
        # Reversed preorder visits every child before its parent, so one
        # iterative pass works at any depth.
        for nid in reversed(preorder):
            node = self.nodes[nid]
            if node.children is None:
                node.hash = hash_leaf(node.key, node.payload)
            else:
                self._rehash(nid)

    def validate(self) -> None:
        """Structural self-check: the shape, the three indexes the tree keeps
        (depth, parent, leaf key) against the ones the shape gives, and the
        probability map against the leaf keys."""
        if self._walk_indexes() != (self._depth, self._parent, self._leaf_by_key):
            raise StructureError("depth index, parent pointers or leaf key index out of sync with the tree shape")
        self._check_cover()

    def _check_cover(self) -> None:
        if self.probabilities.keys() != self._leaf_by_key.keys():
            raise StructureError("probability map does not cover exactly the leaf keys")

    def _walk_indexes(self) -> tuple[dict[str, int], dict[str, str], dict[str, str]]:
        """Depth of every node (in preorder), parent of every non-root node
        and node of every leaf key (left to right), from one root-down walk
        that checks the shape: every child id present, each node reached
        once, 2..m children per internal node, a key and payload on every
        leaf, leaf keys unique and every node reachable."""
        nodes, m = self.nodes, self.config.arity
        if self.root_id not in nodes:
            raise StructureError("root id not present in node map")
        depths: dict[str, int] = {}
        parents: dict[str, str] = {}
        leaf_by_key: dict[str, str] = {}
        stack = [(self.root_id, 0)]
        while stack:
            nid, depth = stack.pop()
            if nid in depths:
                raise StructureError(f"node {nid!r} reachable more than once")
            depths[nid] = depth
            node = nodes[nid]
            if node.children is None:
                if node.key is None or node.payload is None:
                    raise StructureError(f"leaf {nid!r} missing key or payload")
                if node.key in leaf_by_key:
                    raise DuplicateKeyError(f"duplicate leaf key {node.key!r}")
                leaf_by_key[node.key] = nid
                continue
            if not 2 <= len(node.children) <= m:
                raise StructureError(f"node {nid!r} has {len(node.children)} children (2 to arity {m})")
            for cid in reversed(node.children):
                if cid not in nodes:
                    raise StructureError(f"child id {cid!r} not present in node map")
                parents[cid] = nid
                stack.append((cid, depth + 1))
        if len(depths) != len(nodes):
            raise StructureError("unreachable nodes present")
        return depths, parents, leaf_by_key

    # -- snapshots ---------------------------------------------------------------

    def to_snapshot(self) -> dict:
        """JSON-ready snapshot; nodes listed in the checked walk's preorder,
        hashes as hex."""
        preorder = self._walk_indexes()[0]  # a corrupted tree raises before the flush
        self.root_hash()
        nodes = []
        for nid in preorder:
            node = self.nodes[nid]
            if node.children is None:
                spec = {"id": nid, "kind": "leaf", "key": node.key, "payload_hex": node.payload.hex()}
            else:
                spec = {"id": nid, "kind": "internal", "children": list(node.children)}
            spec["hash_hex"] = node.hash.hex()
            nodes.append(spec)
        return {
            "config": {"arity": self.config.arity, "hash": HASH_ALGORITHM},
            "nodes": nodes,
            "root_id": self.root_id,
            "probabilities": dict(sorted(self.probabilities.items())),
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "AdaptiveTree":
        """Rebuild a tree from a snapshot, re-deriving and checking every hash.

        One walk checks the shape and yields the three indexes; its reverse
        hashes every child before its parent, and each node is then checked
        against its ``hash_hex`` in that same order."""
        try:
            arity, algorithm = snapshot["config"]["arity"], snapshot["config"]["hash"]
            node_specs = snapshot["nodes"]
            root_id = snapshot["root_id"]
            probabilities = json_probabilities(snapshot["probabilities"], "snapshot")
        except (KeyError, TypeError) as exc:
            raise FormatError(f"snapshot missing required field: {exc}") from None
        # bool is an int subclass: JSON true must not pass as arity
        if type(arity) is not int or not isinstance(node_specs, list) or not isinstance(root_id, str):
            raise FormatError("snapshot needs an integer arity, a node list and a string root_id")
        if algorithm != HASH_ALGORITHM:
            raise StructureError(f"unsupported hash algorithm {algorithm!r}")

        tree = cls(TreeConfig(arity))
        tree.root_id = root_id
        stored_hex: dict[str, str] = {}
        for spec in node_specs:
            try:
                nid, kind = spec["id"], spec["kind"]
                if kind == "leaf":
                    payload_hex = spec["payload_hex"]
                    payload = bytes.fromhex(payload_hex)
                    # one reading per snapshot: no uppercase, no whitespace
                    if payload.hex() != payload_hex:
                        raise ValueError(f"non-canonical payload_hex {payload_hex!r} in node {nid!r}")
                    node = TreeNode(nid, b"", key=spec["key"], payload=payload)
                    names = [nid, node.key]
                elif kind == "internal":
                    if not isinstance(spec["children"], list):
                        raise TypeError(f"children of node {nid!r} must be a list")
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
            tree.nodes[nid] = node
            stored_hex[nid] = spec["hash_hex"]
        tree._next_id = len(tree.nodes) + 1  # n1..nK, as saved, continue at n(K+1)

        tree._depth, tree._parent, tree._leaf_by_key = tree._walk_indexes()
        tree.probabilities = probabilities
        check_probabilities(probabilities)
        tree._check_cover()
        try:
            tree._hash_children_first(tree._depth)
        except UnicodeEncodeError as exc:  # a JSON string may hold a lone surrogate
            raise FormatError(f"leaf key is not valid UTF-8: {exc}") from None
        for nid in reversed(tree._depth):
            if tree.nodes[nid].hash.hex() != stored_hex[nid]:
                raise StructureError(f"hash mismatch for node {nid!r} in snapshot")
        return tree

    def save(self, path) -> None:
        snapshot = self.to_snapshot()  # a corrupted tree raises before the file is opened
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2, sort_keys=False)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "AdaptiveTree":
        return cls.from_snapshot(load_json(path, "snapshot"))


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
