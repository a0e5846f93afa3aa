"""Adaptive m-ary Merkle tree.

An :class:`AdaptiveTree` stores key/payload leaves in an m-ary hash tree
together with a per-leaf access probability. The tree starts balanced and is
reshaped incrementally (leaf splits, leaf attachments, exchanges of two
leaves or whole subtrees) so that frequently accessed leaves end up on
short root paths. Hashing uses SHA-256 with one byte of domain separation,
as in RFC 6962/9162: a leaf hashes ``0x00 || u32be(key length) || key ||
payload``, so each leaf hash reads as one (key, payload) pair, and an
internal node ``0x01 || child hashes``.

Node ids are ints from 1, in the order the nodes are made, and each per-node
field is a list indexed by id whose slot 0 holds no node: children (None at
a leaf), parent (0 at the root), depth, hash, child digests (an internal
node's hash preimage), proof step (an internal node's step at its parent,
memoized by ``proofs.prove``), key and payload; a leaf-key index maps keys
to ids.
:func:`node_label` spells an id ``n<id>`` where it leaves the program (CLI
JSON, error messages; snapshots hold no ids); :meth:`AdaptiveTree.node`
returns a read-only :class:`NodeView`.

Mutations mark, reads flush. Building and every mutation hash no internal
node (a leaf is hashed when it is made, by ``_add_leaf_node``, past
``_check_leaf``, the one new-leaf rule): they add each internal node they
create and each parent whose children changed to a dirty set. ``root_hash``
rehashes the union of the dirty nodes' root paths, each node once, children
before parents, so an internal node's hash and preimage are current only
after ``root_hash()``, which ``prove`` and snapshot writing call first.
``_rehash`` is the one writer of both, and it empties the memoized proof
steps of the node's children, which were cut from the old preimage, so a
memoized step lives exactly as long as the preimage it came from.
:meth:`AdaptiveTree.from_nested` is the one builder (``build_balanced``,
``coding.tree_from_codes`` and ``from_snapshot``, which rebuilds the nesting
from a snapshot's preorder widths, hand it a nested shape): one walk, with
an iterator per open node, appends each node once, so they are n1..nK in
post-order. Every whole-tree pass over a built tree goes through one checked
root-down walk: :meth:`AdaptiveTree.validate` compares the indexes with it,
and snapshot writing (widths in its preorder, leaves in its leaf-key order),
the full rehash and :meth:`AdaptiveTree.leaf_keys` read their order from it,
so a corrupted tree raises :class:`StructureError` there instead of being
written or hashed. A split or
an attach updates the indexes in O(1); an exchange
(:meth:`AdaptiveTree.swap_nodes`) or a move into a free child slot
(:meth:`AdaptiveTree.move_node`) renumbers the depths of the moved subtrees.
Readers get a read-only view of the probability map, which only checked
writers replace. The indexes are right only because of the single-writer
contract: mutating calls, and the first read after them, which flushes,
need exclusive access; later reads may interleave freely, since the one
thing a read writes is a memoized proof step, and every reader of the same
flushed tree writes the same bytes into it.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence

from ._formats import float_sum, json_hex, json_probabilities, load_json
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

# SHA-256 states seeded with the domain byte: copying one is cheaper than
# starting a fresh hash, and no caller ever updates them
_LEAF_SEED = hashlib.sha256(b"\x00")
_INTERNAL_SEED = hashlib.sha256(b"\x01")
_KEY_BYTES = object()  # a new leaf's payload that _check_leaf reads as the key's UTF-8 bytes
_SNAPSHOT_VERSION = 2
_SNAPSHOT_FIELDS = {"format_version", "config", "widths", "leaves", "probabilities", "root_hex"}


def hash_leaf(key: str, payload: bytes) -> bytes:
    """SHA-256 of ``0x00 || u32be(len(key bytes)) || key bytes || payload``,
    key bytes UTF-8: the length prefix gives each preimage one (key, payload)
    reading, the domain separation of RFC 6962/9162."""
    key = key.encode("utf-8")
    state = _LEAF_SEED.copy()
    state.update(len(key).to_bytes(4, "big") + key)
    state.update(payload)
    return state.digest()


def hash_internal(child_hashes: Iterable[bytes]) -> bytes:
    """SHA-256 of ``0x01 || child hashes`` in child order."""
    state = _INTERNAL_SEED.copy()
    state.update(b"".join(child_hashes))
    return state.digest()


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


def node_label(node_id: int) -> str:
    """How a node id is spelled where it leaves the program: CLI JSON and
    error messages. The one place ids are spelled."""
    return f"n{node_id}"


class NodeView(NamedTuple):
    """A read-only copy of one node's fields, built when asked for; an
    internal node's ``hash`` and ``child_digests`` (its children's hashes
    joined in child order) are current only after ``root_hash()``."""

    node_id: int
    hash: bytes
    children: tuple[int, ...] | None
    key: str | None
    payload: bytes | None
    child_digests: bytes

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class AdaptiveTree:
    """m-ary Merkle tree with per-leaf probabilities and restructuring support.

    Build instances with :func:`build_balanced`, :meth:`from_nested`, or
    :meth:`load`. Node ids are ints from 1; each per-node field is a list
    indexed by id, whose slot 0 holds no node.
    """

    def __init__(self, config: TreeConfig) -> None:
        self.config = config
        self.root_id = 0
        self._children: list[list[int] | None] = [None]  # None at a leaf
        self._parent = [0]  # 0 at the root
        self._depth = [0]  # edges from the root
        self._hash = [b""]
        self._child_digests = [b""]  # an internal node's hash preimage, b"" at a leaf
        self._step = [b""]  # an internal node's proof step at its parent once prove cut it, else b""
        self._key: list[str | None] = [None]
        self._payload: list[bytes | None] = [None]
        self._probabilities: dict[str, float] = {}  # written by set_probabilities, from_snapshot and new leaves
        self._leaf_by_key: dict[str, int] = {}
        self._dirty: set[int] = set()  # nodes made or given new children since the last root_hash()

    # -- construction helpers -------------------------------------------------

    def _append(self, children: list[int] | None, depth: int, digest: bytes, key, payload) -> int:
        # every node is made here: the next id is the current list length
        nid = len(self._children)
        self._children.append(children)
        self._parent.append(0)
        self._depth.append(depth)
        self._hash.append(digest)
        self._child_digests.append(b"")
        self._step.append(b"")
        self._key.append(key)
        self._payload.append(payload)
        return nid

    def _check_leaf(self, key: str, payload: bytes) -> bytes:
        # The one rule for a new leaf, for _add_leaf_node and the add listing: a
        # new str key that encodes as UTF-8 and a payload of exactly bytes (a mutable
        # buffer could change under its hash). Returns the payload; changes nothing.
        try:
            if key in self._leaf_by_key:
                raise DuplicateKeyError(f"leaf key {key!r} already present")
            if payload is _KEY_BYTES:
                return key.encode("utf-8")
            if type(payload) is not bytes:
                raise StructureError(f"payload of leaf {key!r} is not bytes: {type(payload).__name__}")
            if not (isinstance(key, str) and key.isascii()):  # an ASCII str always encodes
                key.encode("utf-8")
        except UnicodeEncodeError as exc:  # a str may hold a lone surrogate
            raise FormatError(f"leaf key is not valid UTF-8: {exc}") from None
        except (AttributeError, TypeError):  # no str.encode, or unhashable
            raise StructureError(f"leaf key {key!r} is not a str") from None
        return payload

    def _add_leaf_node(self, key: str, payload: bytes, depth: int) -> int:
        # from_nested, split_leaf and attach_leaf make every leaf here
        payload = self._check_leaf(key, payload)
        self._leaf_by_key[key] = nid = self._append(None, depth, hash_leaf(key, payload), key, payload)
        return nid

    def _add_internal_node(self, child_ids: list[int], depth: int) -> int:
        # The node keeps child_ids as its children list: pass a fresh list.
        nid = self._append(child_ids, depth, b"", None, None)
        for cid in child_ids:
            self._parent[cid] = nid
        self._dirty.add(nid)
        return nid

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
        key bytes. An explicit-stack walk, so any depth builds, makes the
        nodes n1..nK in post-order, children left to right, and fills the
        depth index. Only the leaves are hashed here: the internal nodes
        wait, dirty, for the first :meth:`root_hash`. A spec that is neither
        a string nor a list, ``payloads`` that is no mapping or a missing
        payload raises :class:`StructureError`; a malformed leaf raises as
        in :meth:`split_leaf`.
        """
        tree = cls(config)
        built: list[int] = []  # ids of finished subtrees whose parent is not built yet
        # ``specs`` iterates the children of the innermost open node, which
        # sit at ``depth``; ``open_above`` keeps each enclosing node's
        # iterator, to resume once the inner node is built, and its child count.
        specs, depth, open_above = iter((nested,)), 0, []
        try:
            while True:
                for spec in specs:
                    if isinstance(spec, str):
                        payload = _KEY_BYTES if payloads is None else payloads[spec]
                        built.append(tree._add_leaf_node(spec, payload, depth))
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
                    child_ids = built[-width:]
                    del built[-width:]
                    built.append(tree._add_internal_node(child_ids, depth))
        except KeyError:  # only payloads[spec] looks a key up
            raise StructureError(f"no payload for leaf key {spec!r}") from None
        except TypeError:
            if isinstance(spec, str):  # payloads[spec] on something that is no mapping
                kind = type(payloads).__name__
                raise StructureError(f"payloads is no mapping of leaf keys to bytes: {kind}") from None
            raise StructureError(f"leaf spec {spec!r} is neither a key string nor a list") from None
        (tree.root_id,) = built
        tree.set_probabilities(probabilities)
        return tree

    # -- basic queries ---------------------------------------------------------

    @property
    def probabilities(self) -> Mapping[str, float]:
        """Read-only view of the leaf probabilities, valid by construction."""
        return MappingProxyType(self._probabilities)

    def _check_ids(self, *node_ids: int) -> None:
        # bool is an int subclass, and a negative int would index from the end
        for node_id in node_ids:
            if type(node_id) is not int or not 0 < node_id < len(self._children):
                raise UnknownKeyError(f"no node with id {node_id!r}")

    def node(self, node_id: int) -> NodeView:
        self._check_ids(node_id)
        children = self._children[node_id]
        children = None if children is None else tuple(children)
        return NodeView(node_id, self._hash[node_id], children, self._key[node_id], self._payload[node_id],
                        self._child_digests[node_id])

    def _leaf_id(self, key: str) -> int:
        try:
            return self._leaf_by_key[key]
        except KeyError:
            raise UnknownKeyError(f"no leaf with key {key!r}") from None

    def leaf_node(self, key: str) -> NodeView:
        return self.node(self._leaf_id(key))

    def parent_id(self, node_id: int) -> int | None:
        self._check_ids(node_id)
        return self._parent[node_id] or None

    def leaf_keys(self) -> list[str]:
        """Leaf keys in left-to-right tree order."""
        return list(self._walk()[3])

    def leaf_count(self) -> int:
        return len(self._leaf_by_key)

    def depth(self, key: str) -> int:
        """Edge count from the root to the leaf holding ``key``."""
        return self._depth[self._leaf_id(key)]

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
            stale: set[int] = set()
            for nid in self._dirty:
                # a climb stops where it meets a path already gathered, or above the root
                while nid and nid not in stale:
                    stale.add(nid)
                    nid = parent[nid]
            for nid in sorted(stale, key=depth.__getitem__, reverse=True):
                self._rehash(nid)
            self._dirty.clear()
        return self._hash[self.root_id]

    # -- mutations -------------------------------------------------------------

    def _rehash(self, node_id: int) -> None:
        # The one writer of _child_digests: proofs slice a step's siblings
        # out of it, so it must always be the preimage of the node's hash.
        # The children's proof steps were cut from the old one: emptied.
        hashes, steps, children = self._hash, self._step, self._children[node_id]
        joined = self._child_digests[node_id] = b"".join([hashes[cid] for cid in children])
        hashes[node_id] = hash_internal((joined,))
        for cid in children:
            steps[cid] = b""

    def split_leaf(self, target_key: str, new_key: str, new_payload: bytes) -> None:
        """Replace the target leaf with an internal node over [target, new leaf].

        The target's depth grows by exactly one; every other depth is
        unchanged. The new leaf starts with probability 0; callers normally
        follow up with :meth:`set_probabilities`. A key that is not a str or
        a payload that is not exactly bytes raises :class:`StructureError`, a
        key that is not valid UTF-8 :class:`FormatError`, a key already
        present :class:`DuplicateKeyError`, and the tree is left as it was.
        """
        target = self._leaf_id(target_key)
        parent, depth = self._parent[target], self._depth[target]
        leaf = self._add_leaf_node(new_key, new_payload, depth + 1)
        joint = self._add_internal_node([target, leaf], depth)
        self._depth[target] = depth + 1
        if parent:
            children = self._children[parent]
            children[children.index(target)] = joint
            self._parent[joint] = parent
        else:
            self.root_id = joint
        self._probabilities[new_key] = 0.0

    def attach_leaf(self, parent_id: int, new_key: str, new_payload: bytes) -> None:
        """Append a new leaf as the last child of an internal node with room.

        No existing depth changes. The new leaf starts with probability 0.
        A malformed new leaf raises as in :meth:`split_leaf`.
        """
        self._check_ids(parent_id)
        children = self._children[parent_id]
        if children is None:
            raise StructureError(f"cannot attach to leaf node {node_label(parent_id)!r}")
        if len(children) >= self.config.arity:
            raise StructureError(f"node {node_label(parent_id)!r} already has {self.config.arity} children")
        leaf = self._add_leaf_node(new_key, new_payload, self._depth[parent_id] + 1)
        children.append(leaf)
        self._parent[leaf] = parent_id
        self._dirty.add(parent_id)
        self._probabilities[new_key] = 0.0

    def swap_leaves(self, key_a: str, key_b: str) -> None:
        """Exchange the tree positions of two leaves: :meth:`swap_nodes` on
        their nodes.

        Depths of the two leaves trade places; the depth multiset and all
        probabilities are unchanged.
        """
        if key_a == key_b:
            raise StructureError(f"cannot swap leaf {key_a!r} with itself")
        self.swap_nodes(self._leaf_id(key_a), self._leaf_id(key_b))

    def swap_nodes(self, a: int, b: int) -> None:
        """Exchange the tree positions of two nodes, leaves or whole subtrees.

        Neither node may be the root or contain the other. Each subtree
        keeps its shape and moves to the other's parent slot, so its nodes'
        depths shift by the difference of the two depths (O(subtree size)).
        Both parents are marked dirty; the next :meth:`root_hash` rehashes.
        """
        self._check_ids(a, b)
        if a == b:
            raise StructureError(f"cannot exchange node {node_label(a)!r} with itself")
        parent = self._parent
        pa, pb = parent[a], parent[b]
        if not (pa and pb):
            raise StructureError("cannot exchange the root")
        if self._within(a, b) or self._within(b, a):
            raise StructureError(f"cannot exchange nested nodes {node_label(a)!r} and {node_label(b)!r}")
        shift = self._depth[b] - self._depth[a]
        self._shift(a, shift)
        self._shift(b, -shift)
        children_a, children_b = self._children[pa], self._children[pb]
        slot_a, slot_b = children_a.index(a), children_b.index(b)
        children_a[slot_a], children_b[slot_b] = b, a
        parent[a], parent[b] = pb, pa
        self._dirty.update((pa, pb))

    def move_node(self, node_id: int, parent_id: int) -> None:
        """Append a node, leaf or subtree, to the children of an internal node
        with a free slot, neither its parent nor in its subtree; the old
        parent must keep two children. Depths shift with the subtree (O(its
        size)) and both parents are marked dirty."""
        self._check_ids(node_id, parent_id)
        old, target = self._parent[node_id], self._children[parent_id]
        name, target_name = node_label(node_id), node_label(parent_id)
        if not old:
            raise StructureError("cannot move the root")
        if old == parent_id:
            raise StructureError(f"node {name!r} is already a child of {target_name!r}")
        if target is None or len(target) >= self.config.arity:
            raise StructureError(f"node {target_name!r} has no free child slot")
        if len(self._children[old]) <= 2:
            raise StructureError(f"moving {name!r} would leave {node_label(old)!r} with one child")
        if self._within(parent_id, node_id):
            raise StructureError(f"cannot move node {name!r} into its own subtree")
        self._shift(node_id, self._depth[parent_id] + 1 - self._depth[node_id])
        self._children[old].remove(node_id)
        target.append(node_id)
        self._parent[node_id] = parent_id
        self._dirty.update((old, parent_id))

    def _within(self, node_id: int, top: int) -> bool:
        # whether node_id lies in top's subtree: climb to top's depth
        for _ in range(self._depth[node_id] - self._depth[top]):
            node_id = self._parent[node_id]
        return node_id == top

    def _shift(self, node_id: int, by: int) -> None:
        # add `by` to the depth of every node in node_id's subtree
        subtree = [node_id] if by else []
        for nid in subtree:  # grows as it goes: a breadth-first walk
            self._depth[nid] += by
            subtree += self._children[nid] or ()

    def set_probabilities(self, probs: Mapping[str, float]) -> None:
        """Replace the leaf probability map with a checked copy of ``probs``,
        its one public writer; structure and hashes are untouched."""
        self._check_cover(probs)
        check_probabilities(probs)
        self._probabilities = _float_copy(probs)

    def _check_cover(self, probs: Mapping[str, float], new_key: str | None = None) -> None:
        # The one cover rule, for set_probabilities, from_snapshot, validate() and the
        # add listing (its new key too); key views compare in C, without building sets.
        keys, leaves = probs.keys(), self._leaf_by_key.keys()
        if (keys == leaves if new_key is None
                else len(keys) == len(leaves) + 1 and new_key in keys and keys >= leaves):
            return
        expected = leaves if new_key is None else leaves | {new_key}
        missing, extra = sorted(expected - keys), sorted(keys - expected, key=str)  # any key type
        raise ProbabilityError(f"probability keys do not match tree leaves (missing {missing}, extra {extra})")

    # -- copying / integrity ----------------------------------------------------

    def clone(self) -> "AdaptiveTree":
        """Independent copy; mutations on the clone never touch the original.
        The per-node lists, each children list and the indexes are copied
        here; ``copy.deepcopy`` takes the rest, such as a field added later."""
        copied = {id(self._children): [c if c is None else c[:] for c in self._children]}
        for field in (self._parent, self._depth, self._hash, self._child_digests, self._step, self._key,
                      self._payload, self._probabilities, self._leaf_by_key, self._dirty):
            copied[id(field)] = field.copy()
        return copy.deepcopy(self, copied)

    def recompute_all_hashes(self) -> None:
        """Full rehash, used to cross-check incremental updates. The checked
        walk's preorder, reversed, visits every child before its parent, so
        one iterative pass works at any depth and leaves nothing dirty."""
        children, keys, payloads, hashes = self._children, self._key, self._payload, self._hash
        for nid in reversed(self._walk()[0]):
            if children[nid] is None:
                hashes[nid] = hash_leaf(keys[nid], payloads[nid])
            else:
                self._rehash(nid)
        self._dirty.clear()

    def validate(self) -> None:
        """Structural self-check: the shape, the three indexes the tree keeps
        (depth, parent, leaf key) against the ones the shape gives, and the
        probability map against the leaf keys."""
        if self._walk()[1:] != (self._depth, self._parent, self._leaf_by_key):
            raise StructureError("depth index, parent pointers or leaf key index out of sync with the tree shape")
        self._check_cover(self._probabilities)

    def _walk(self) -> tuple[list[int], list[int], list[int], dict[str, int]]:
        """Preorder, depth and parent lists by id (as the tree keeps them)
        and node of every leaf key (left to right), from one root-down walk
        that checks the shape: every child id names a node, each node reached
        once, 2..m children per internal node, a key and payload on every
        leaf, leaf keys unique and every node reachable."""
        children_of, keys, payloads, m = self._children, self._key, self._payload, self.config.arity
        size = len(children_of)
        if type(self.root_id) is not int or not 0 < self.root_id < size:
            raise StructureError(f"root id {self.root_id!r} names no node")
        preorder: list[int] = []
        depths = [0] + [-1] * (size - 1)  # -1: not reached; slot 0 as the tree keeps it
        parents = [0] * size
        leaf_by_key: dict[str, int] = {}
        stack = [(self.root_id, 0)]
        while stack:
            nid, depth = stack.pop()
            if depths[nid] >= 0:
                raise StructureError(f"node {node_label(nid)!r} reachable more than once")
            depths[nid] = depth
            preorder.append(nid)
            children = children_of[nid]
            if children is None:
                key = keys[nid]
                if key is None or payloads[nid] is None:
                    raise StructureError(f"leaf {node_label(nid)!r} missing key or payload")
                if key in leaf_by_key:
                    raise DuplicateKeyError(f"leaf key {key!r} already present")
                leaf_by_key[key] = nid
                continue
            if not 2 <= len(children) <= m:
                raise StructureError(f"node {node_label(nid)!r} has {len(children)} children (2 to arity {m})")
            for cid in reversed(children):
                if type(cid) is not int or not 0 < cid < size:
                    raise StructureError(f"child id {cid!r} names no node")
                parents[cid] = nid
                stack.append((cid, depth + 1))
        if len(preorder) != size - 1:
            raise StructureError("unreachable nodes present")
        return preorder, depths, parents, leaf_by_key

    # -- snapshots ---------------------------------------------------------------

    def to_snapshot(self) -> dict:
        """JSON-ready version-2 snapshot: child counts in the checked walk's
        preorder, the leaves left to right, the probabilities and the root."""
        preorder, _, _, leaf_by_key = self._walk()  # a corrupted tree raises before the flush
        children_of, payloads = self._children, self._payload
        return {
            "format_version": _SNAPSHOT_VERSION,
            "config": {"arity": self.config.arity, "hash": HASH_ALGORITHM},
            "widths": [len(children_of[nid] or ()) for nid in preorder],
            "leaves": [[key, payloads[nid].hex()] for key, nid in leaf_by_key.items()],
            "probabilities": dict(sorted(self._probabilities.items())),
            "root_hex": self.root_hash().hex(),
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "AdaptiveTree":
        """Rebuild a tree from a version-2 snapshot through :meth:`from_nested`,
        whose post-order ids it takes. A missing, unknown or mistyped field, or
        a ``format_version`` but 2, raises :class:`FormatError`; widths that do
        not close one preorder over the leaves, or a root other than
        ``root_hex``, :class:`StructureError`; the builder raises as it does."""
        version = snapshot.get("format_version", "missing") if isinstance(snapshot, dict) else "missing"
        if type(version) is not int or version != _SNAPSHOT_VERSION:  # bool is an int subclass
            raise FormatError(f"snapshot format_version {version!r}, expected {_SNAPSHOT_VERSION}")
        if snapshot.keys() != _SNAPSHOT_FIELDS:
            raise FormatError(f"snapshot fields {sorted(snapshot, key=str)}, expected {sorted(_SNAPSHOT_FIELDS)}")
        widths, leaves = snapshot["widths"], snapshot["leaves"]
        probabilities = json_probabilities(snapshot["probabilities"], "snapshot")
        try:
            arity, algorithm = snapshot["config"]["arity"], snapshot["config"]["hash"]
            if type(arity) is not int or type(widths) is not list or type(leaves) is not list:
                raise TypeError("snapshot needs an integer arity and lists of widths and leaves")
            if not set(map(type, widths)) <= {int} or min(widths, default=0) < 0:
                raise TypeError("widths must be JSON integers >= 0")
            if not all(type(leaf) is list and len(leaf) == 2 and type(leaf[0]) is str for leaf in leaves):
                raise TypeError("each leaf must be a [key, payload_hex] pair with a string key")
        except (KeyError, TypeError) as exc:
            raise FormatError(f"snapshot field malformed: {exc}") from None
        payloads = {key: json_hex(payload_hex, "snapshot payload_hex") for key, payload_hex in leaves}
        root = json_hex(snapshot["root_hex"], "snapshot root_hex")
        if len(root) != HASH_SIZE:
            raise FormatError(f"snapshot root_hex holds {len(root)} bytes, expected {HASH_SIZE}")
        if algorithm != HASH_ALGORITHM:
            raise StructureError(f"unsupported hash algorithm {algorithm!r}")
        keys, built = iter([key for key, _ in reversed(leaves)]), []
        for width in reversed(widths):  # reversed preorder meets every child before its parent
            if width > len(built):
                raise StructureError(f"snapshot widths do not close: a node of width {width} lacks children")
            node = built[: -width - 1 : -1] if width else next(keys, None)
            del built[len(built) - width :]
            built.append(node)
        if len(built) != 1 or widths.count(0) != len(leaves):
            raise StructureError(f"snapshot widths close {len(built)} trees over {widths.count(0)} leaves, "
                                 f"not one over the {len(leaves)} listed")
        tree = cls.from_nested(built[0], probabilities, TreeConfig(arity), payloads)
        if tree.root_hash() != root:
            raise StructureError(f"snapshot root_hex {root.hex()} is not the root of its widths and leaves")
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
    leaves: Sequence[tuple[str, bytes | None, float]],
    config: TreeConfig,
) -> AdaptiveTree:
    """Build a complete-as-possible m-ary tree over ``(key, payload, p)`` triples;
    a payload of ``None`` stands for the key's UTF-8 bytes.

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
        {key: _KEY_BYTES if payload is None else payload for key, payload, _ in leaves},
    )
