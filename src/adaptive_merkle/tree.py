"""Adaptive m-ary Merkle tree.

An :class:`AdaptiveTree` stores key/payload leaves in an m-ary hash tree
together with a per-leaf access probability. The tree starts balanced and is
reshaped incrementally (leaf splits, leaf attachments, exchanges of two
leaves or whole subtrees) so that frequently accessed leaves end up on
short root paths. Hashing uses SHA-256 with one byte of domain separation:
``0x00`` for leaves, ``0x01`` for internal nodes.

One rule decides when to rehash an internal node: mutations mark, reads
flush. Building and every mutation hash no internal node (a leaf is hashed
when it is made): they add to a dirty set each internal node they create
and each parent whose children changed, unless a new node below it is
marked already. :meth:`AdaptiveTree.root_hash` rehashes the union of the
dirty nodes' root paths, each node once, children before parents, and
clears the set. So an internal node's hash is current only after
``root_hash()``, which ``prove`` and snapshot writing call first. Each
internal node keeps its hash preimage, its children's digests joined in
child order (``TreeNode.child_digests``), so a proof slices a step's
siblings out of one byte string. ``_rehash`` is the one writer of both the
preimage and the hash: the flush, the full rehash and
``from_snapshot`` go through it, and snapshots do not store it. Next to the
parent pointers the tree keeps a depth index, the edge count from the root
of every node, and a leaf-key index. :meth:`AdaptiveTree.from_nested` is
the one builder (``build_balanced`` shapes its keys and calls it,
``coding.tree_from_codes`` hands it the Huffman merge's shape): one walk
over the nested shape, with an iterator per open node, makes each node once
as a slotted, positional ``TreeNode``, names the nodes n1..nK in post-order
and fills all three indexes. Every leaf that it or a mutation makes is
made by ``_add_leaf_node``, where a malformed one raises
:class:`StructureError` or :class:`FormatError`.
Every whole-tree pass goes through one checked root-down walk:
``from_snapshot`` takes the indexes from it, :meth:`AdaptiveTree.validate`
compares them with it, and snapshot writing, the full rehash and
:meth:`AdaptiveTree.leaf_keys` read their order from it, so a corrupted tree
raises :class:`StructureError` there instead of being written or hashed. A
split or an attach updates the three indexes in O(1); an exchange
(:meth:`AdaptiveTree.swap_nodes`, of which a leaf swap is the one-node case)
renumbers the depths of both moved subtrees, and a move into a free child
slot (:meth:`AdaptiveTree.move_node`) those of the one, O(their size).
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
MAX_ARITY = 65536  # the binary proof wire's u16 position and sibling count

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
        if type(self.arity) is not int or not 2 <= self.arity <= MAX_ARITY:
            raise StructureError(f"arity must be an int from 2 to {MAX_ARITY}, got {self.arity!r}")


@dataclass(slots=True)
class TreeNode:
    """One node. Leaves carry ``key``/``payload``; internals carry ``children``
    and ``child_digests``, the children's hashes joined in child order: the
    node's hash preimage, which ``AdaptiveTree._rehash`` alone writes. An
    internal node's ``hash`` and ``child_digests`` are current only after
    the tree's ``root_hash()``. Slotted, so a node holds no per-instance
    dict; the builders pass the fields by position."""

    node_id: str
    hash: bytes
    children: list[str] | None = None
    key: str | None = None
    payload: bytes | None = None
    child_digests: bytes = b""

    @property
    def is_leaf(self) -> bool:
        return self.children is None

    def __deepcopy__(self, memo) -> "TreeNode":
        # The children list is the one mutable field, and no other object
        # holds it: copying it copies the node. Faster than deepcopy's
        # generic path for slotted objects, which clone() would pay per node.
        children = self.children
        return TreeNode(
            self.node_id,
            self.hash,
            None if children is None else children[:],
            self.key,
            self.payload,
            self.child_digests,
        )


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
        self._dirty: set[str] = set()  # nodes made or given new children since the last root_hash()
        self._next_id = 1

    # -- construction helpers -------------------------------------------------

    def _new_id(self) -> str:
        # The first id from n{_next_id} on that no node holds: a loaded
        # snapshot may name its nodes anything, and the id of a leaf that
        # _add_leaf_node refused is offered again.
        nid = f"n{self._next_id}"
        while nid in self.nodes:
            self._next_id += 1
            nid = f"n{self._next_id}"
        return nid

    def _add_leaf_node(self, nid: str, key: str, payload: bytes, depth: int) -> None:
        # from_nested, split_leaf and attach_leaf make every leaf here, so one
        # rule types a malformed one, and a refused leaf leaves the tree as it was.
        try:
            if key in self._leaf_by_key:
                raise DuplicateKeyError(f"leaf key {key!r} already present")
            # a mutable buffer could change under its hash and break the snapshot
            if not isinstance(payload, bytes):
                raise StructureError(f"payload of leaf {key!r} is not bytes: {type(payload).__name__}")
            digest = hash_leaf(key, payload)
        except UnicodeEncodeError as exc:  # a str may hold a lone surrogate
            raise FormatError(f"leaf key is not valid UTF-8: {exc}") from None
        except (AttributeError, TypeError):  # no str.encode, or unhashable
            raise StructureError(f"leaf key {key!r} is not a str") from None
        self.nodes[nid] = TreeNode(nid, digest, None, key, payload)
        self._leaf_by_key[key] = nid
        self._depth[nid] = depth

    def _add_internal_node(self, nid: str, child_ids: list[str], depth: int) -> None:
        # The node keeps child_ids as its children list: pass a fresh list.
        self.nodes[nid] = TreeNode(nid, b"", child_ids)
        self._depth[nid] = depth
        parent = self._parent
        for cid in child_ids:
            parent[cid] = nid
        self._dirty.add(nid)

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
        by an explicit-stack walk, so any depth builds, and are named
        n1..nK in that order; the walk also fills the depth index. Only the
        leaves are hashed here: the internal nodes wait, dirty, for the
        first :meth:`root_hash`. A spec that is neither a string nor a list,
        ``payloads`` that is no mapping or a missing payload raises
        :class:`StructureError`; a malformed leaf raises as in
        :meth:`split_leaf`.
        """
        tree = cls(config)
        built: list[str] = []  # ids of finished subtrees whose parent is not built yet
        count = 0  # nodes made so far: a fresh tree names them n1..nK
        # ``specs`` iterates the children of the innermost open node, which
        # sit at ``depth``; ``open_above`` keeps each enclosing node's
        # iterator, to resume once the inner node is built, and its child count.
        specs, depth, open_above = iter((nested,)), 0, []
        try:
            while True:
                for spec in specs:
                    if isinstance(spec, str):
                        count += 1
                        nid = f"n{count}"
                        # surrogatepass lets a lone surrogate through to _add_leaf_node's UTF-8 rule
                        payload = spec.encode("utf-8", "surrogatepass") if payloads is None else payloads[spec]
                        tree._add_leaf_node(nid, spec, payload, depth)
                        built.append(nid)
                    else:
                        if not 1 <= len(spec) <= config.arity:
                            raise StructureError(f"internal node with {len(spec)} children (arity {config.arity})")
                        if len(spec) == 1:
                            raise StructureError("single-child internal nodes are not allowed in a finished tree")
                        open_above.append((specs, len(spec)))
                        specs, depth = iter(spec), depth + 1
                        break
                else:  # every child of the innermost open node is built
                    if not open_above:
                        break
                    specs, width = open_above.pop()
                    depth -= 1
                    count += 1
                    nid = f"n{count}"
                    child_ids = built[-width:]
                    del built[-width:]
                    tree._add_internal_node(nid, child_ids, depth)
                    built.append(nid)
        except KeyError:  # only payloads[spec] looks a key up
            raise StructureError(f"no payload for leaf key {spec!r}") from None
        except TypeError:
            if isinstance(spec, str):  # payloads[spec] on something that is no mapping
                kind = type(payloads).__name__
                raise StructureError(f"payloads is no mapping of leaf keys to bytes: {kind}") from None
            raise StructureError(f"leaf spec {spec!r} is neither a key string nor a list") from None
        (tree.root_id,) = built
        tree._next_id = count + 1
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
        follow up with :meth:`set_probabilities`. A key that is not a str or
        a payload that is not bytes-like raises :class:`StructureError`, a key
        that is not valid UTF-8 :class:`FormatError`, and the tree is left
        as it was.
        """
        target = self.leaf_node(target_key)
        parent_id = self._parent.get(target.node_id)
        depth = self._depth[target.node_id]
        leaf_id = self._new_id()
        self._add_leaf_node(leaf_id, new_key, new_payload, depth + 1)
        intermediate = self._new_id()
        self._add_internal_node(intermediate, [target.node_id, leaf_id], depth)
        self._depth[target.node_id] = depth + 1
        if parent_id is None:
            self.root_id = intermediate
        else:
            parent = self.nodes[parent_id]
            parent.children[parent.children.index(target.node_id)] = intermediate
            self._parent[intermediate] = parent_id
        self.probabilities[new_key] = 0.0

    def attach_leaf(self, parent_id: str, new_key: str, new_payload: bytes) -> None:
        """Append a new leaf as the last child of an internal node with room.

        No existing depth changes. The new leaf starts with probability 0.
        A malformed new leaf raises as in :meth:`split_leaf`.
        """
        parent = self.node(parent_id)
        if parent.is_leaf:
            raise StructureError(f"cannot attach to leaf node {parent_id!r}")
        if len(parent.children) >= self.config.arity:
            raise StructureError(f"node {parent_id!r} already has {self.config.arity} children")
        leaf_id = self._new_id()
        self._add_leaf_node(leaf_id, new_key, new_payload, self._depth[parent_id] + 1)
        parent.children.append(leaf_id)
        self._parent[leaf_id] = parent_id
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
        parent = self._parent
        if a == b:
            raise StructureError(f"cannot exchange node {a!r} with itself")
        self.node(a), self.node(b)  # an unknown id raises UnknownKeyError
        pa, pb = parent.get(a), parent.get(b)
        if pa is None or pb is None:
            raise StructureError("cannot exchange the root")
        if self._within(a, b) or self._within(b, a):
            raise StructureError(f"cannot exchange nested nodes {a!r} and {b!r}")
        shift = self._depth[b] - self._depth[a]
        self._shift(a, shift)
        self._shift(b, -shift)
        children_a, children_b = self.nodes[pa].children, self.nodes[pb].children
        slot_a, slot_b = children_a.index(a), children_b.index(b)
        children_a[slot_a], children_b[slot_b] = b, a
        parent[a], parent[b] = pb, pa
        self._dirty.update((pa, pb))

    def move_node(self, node_id: str, parent_id: str) -> None:
        """Append a node, leaf or subtree, to the children of an internal node
        with a free slot, neither its parent nor in its subtree; the old
        parent must keep two children. Depths shift with the subtree (O(its
        size)) and both parents are marked dirty."""
        self.node(node_id)  # an unknown id raises UnknownKeyError
        target, old = self.node(parent_id), self._parent.get(node_id)
        if old is None:
            raise StructureError("cannot move the root")
        if old == parent_id:
            raise StructureError(f"node {node_id!r} is already a child of {parent_id!r}")
        if target.is_leaf or len(target.children) >= self.config.arity:
            raise StructureError(f"node {parent_id!r} has no free child slot")
        if len(self.nodes[old].children) <= 2:
            raise StructureError(f"moving {node_id!r} would leave {old!r} with one child")
        if self._within(parent_id, node_id):
            raise StructureError(f"cannot move node {node_id!r} into its own subtree")
        self._shift(node_id, self._depth[parent_id] + 1 - self._depth[node_id])
        self.nodes[old].children.remove(node_id)
        target.children.append(node_id)
        self._parent[node_id] = parent_id
        self._dirty.update((old, parent_id))

    def _within(self, node_id: str, top: str) -> bool:
        # whether node_id lies in top's subtree: climb to top's depth
        for _ in range(self._depth[node_id] - self._depth[top]):
            node_id = self._parent[node_id]
        return node_id == top

    def _shift(self, node_id: str, by: int) -> None:
        # add `by` to the depth of every node in node_id's subtree
        subtree = [node_id] if by else []
        for nid in subtree:  # grows as it goes: a breadth-first walk
            self._depth[nid] += by
            subtree += self.nodes[nid].children or ()

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
    keys = [key for key, _, _ in leaves]

    def split(lo: int, hi: int):
        # Recurses log_m(n) deep: each level divides keys[lo:hi] among m children.
        if hi - lo == 1:
            return keys[lo]
        if hi - lo <= m:
            return keys[lo:hi]
        q, r = divmod(hi - lo, m)
        bounds = [lo + i * q + min(i, r) for i in range(m + 1)]
        return [split(a, b) for a, b in zip(bounds, bounds[1:])]

    return AdaptiveTree.from_nested(
        split(0, len(keys)),
        {key: p for key, _, p in leaves},
        config,
        {key: payload for key, payload, _ in leaves},
    )
