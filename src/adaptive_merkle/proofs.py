"""Membership proofs over unbalanced m-ary trees.

Because node positions cannot be inferred from a leaf index in an unbalanced
tree, every proof step records the path node's child position in its parent
and the digests of all other children, concatenated in child order into one
byte string. The position is where the running digest slots in among them,
so each root path has exactly one encoding. Steps run from the leaf to the
root.

Canonical wire (binary, big-endian, digests raw as in RFC 6962/9162)::

    01                          version byte (_WIRE_VERSION)
    u32 key length, key         the key in UTF-8
    leaf hash                   32 bytes
    per step, to the end:       u16 position, u16 sibling count c,
                                c * 32 bytes of sibling digests

:meth:`MerkleProof.to_bytes` writes it and :meth:`MerkleProof.from_bytes`
reads it; ``proof_bytes`` is its length. The reader takes exactly what the
writer writes: a wrong version byte, a key that is not UTF-8 (an encoded
surrogate included), a step that runs past the end or a partial step at the
end raises :class:`MalformedProofError`, so every accepted byte string is
written back unchanged.

JSON view: a one-field envelope around the wire, ``{"wire_hex":"<hex>"}``,
written by :meth:`MerkleProof.to_json_bytes` with no whitespace. Its reader,
:meth:`MerkleProof.from_json_dict`, takes a dict with exactly that field and
canonical hex (lowercase, no whitespace: ``bytes.fromhex(h).hex() == h``),
and hands the bytes to :meth:`MerkleProof.from_bytes`, so the view has no
rules of its own and every accepted proof is written back out unchanged.

Structural defects (bad positions, sibling counts or digest sizes) raise
:class:`MalformedProofError`; a clean ``False`` from :func:`verify` always
means the data genuinely fails to reproduce the expected root.

Serving a proof is the hot path of a read workload, and its cost is per
object, not per byte, so a step's digests travel as one ``bytes`` object.
Every internal node keeps its hash preimage, the children's digests joined
in child order (the tree's ``_child_digests``, written only by ``_rehash``),
so ``prove`` indexes the per-node lists by id, builds no node view and cuts
the path node's 32 bytes out of it with two slices; it hashes nothing unless
a mutation left the tree dirty, and then flushes it once via ``root_hash()``. The writer and the reader
convert a step with one ``struct`` pack/unpack and one slice, and ``verify``
checks a step with one ``divmod`` of its length. ``verify`` hashes each step
with one call of the module-level :func:`hash_internal`, so wrapping that
name counts every hash a verification makes; a test guards this.
:class:`ProofStep` and :class:`MerkleProof` are named tuples: immutable,
compared and hashed by value, and cheaper to build than a frozen dataclass,
which pays one ``object.__setattr__`` per field.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

from .errors import MalformedProofError
from .tree import HASH_SIZE, AdaptiveTree, hash_internal, hash_leaf

_WIRE_VERSION = b"\x01"  # first byte of the binary wire
_STEP_HEAD = struct.Struct(">HH")  # position, sibling count


class ProofStep(NamedTuple):
    position: int
    siblings: bytes  # the other children's 32-byte digests, joined in child order


class MerkleProof(NamedTuple):
    key: str
    leaf_hash: bytes
    steps: tuple[ProofStep, ...]

    def to_bytes(self) -> bytes:
        """Canonical binary wire bytes; the one writer of that layout.

        Raises :class:`MalformedProofError` for a hand-built proof the layout
        cannot carry: a key that is not a UTF-8 string, a leaf hash or a
        sibling string that is not whole 32-byte digests, a position that is
        not an ``int`` as :func:`verify` requires, or a step field beyond u16.
        """
        try:
            key, leaf_hash = self.key.encode(), self.leaf_hash
            if len(leaf_hash) != HASH_SIZE:
                raise ValueError(f"leaf hash of {len(leaf_hash)} bytes")
            parts = [_WIRE_VERSION, len(key).to_bytes(4, "big"), key, leaf_hash]
            for position, siblings in self.steps:
                if type(position) is not int:  # struct would pack a bool as 0 or 1
                    raise TypeError(f"position of type {type(position).__name__}")
                count, rest = divmod(len(siblings), HASH_SIZE)
                if rest:
                    raise ValueError(f"{len(siblings)} sibling bytes")
                parts += (_STEP_HEAD.pack(position, count), siblings)
            return b"".join(parts)
        except (AttributeError, TypeError, ValueError, OverflowError, struct.error) as exc:
            raise MalformedProofError(f"proof cannot be encoded: {exc}") from None

    @classmethod
    def from_bytes(cls, data: bytes) -> "MerkleProof":
        """Read the binary wire; accepts exactly what :meth:`to_bytes` writes."""
        if type(data) is not bytes:
            raise MalformedProofError(f"proof wire of type {type(data).__name__}, expected bytes")
        if data[:1] != _WIRE_VERSION:
            raise MalformedProofError(f"proof wire version {data[:1].hex() or 'missing'}, expected 01")
        end, key_end = len(data), 5 + int.from_bytes(data[1:5], "big")
        if end < key_end + HASH_SIZE:
            raise MalformedProofError("proof wire ends inside its key length, key or leaf hash")
        try:
            key = data[5:key_end].decode()
        except UnicodeDecodeError as exc:
            raise MalformedProofError(f"proof key is not UTF-8: {exc}") from None
        at = key_end + HASH_SIZE
        leaf_hash = data[key_end:at]
        steps = []
        while at < end:
            start = at + _STEP_HEAD.size
            if end < start:
                raise MalformedProofError(f"proof wire ends inside a step header at byte {at}")
            position, count = _STEP_HEAD.unpack_from(data, at)
            at = start + HASH_SIZE * count
            if end < at:
                raise MalformedProofError(f"proof step at byte {start - _STEP_HEAD.size} runs past the end")
            steps.append(ProofStep(position, data[start:at]))
        return cls(key, leaf_hash, tuple(steps))

    def to_json_bytes(self) -> bytes:
        """JSON envelope around :meth:`to_bytes`; raises as that does."""
        return b'{"wire_hex":"' + self.to_bytes().hex().encode() + b'"}'

    @classmethod
    def from_json_dict(cls, data: dict) -> "MerkleProof":
        """Read the JSON envelope; accepts exactly what :meth:`to_json_bytes` writes."""
        try:
            if not isinstance(data, dict) or len(data) != 1 or "wire_hex" not in data:
                raise ValueError(f"need exactly one field, wire_hex, and no unknown ones: {data!r:.80}")
            text = data["wire_hex"]
            wire = bytes.fromhex(text)  # TypeError for a value that is no str
            if wire.hex() != text:  # one reading per proof: no uppercase, no whitespace
                raise ValueError(f"non-canonical wire_hex {text!r:.80}")
        except (TypeError, ValueError) as exc:
            raise MalformedProofError(f"unparseable proof: {exc}") from None
        return cls.from_bytes(wire)


@dataclass(frozen=True)
class VerificationCost:
    hash_invocations: int
    proof_bytes: int


def prove(tree: AdaptiveTree, leaf_key: str) -> MerkleProof:
    """Membership proof for a leaf: one step per edge on its root path."""
    nid = tree._leaf_id(leaf_key)
    if tree._dirty:  # the stored digests are current only after a root read
        tree.root_hash()
    children, parent_of, digests = tree._children, tree._parent, tree._child_digests
    steps: list[ProofStep] = []
    leaf_hash, parent = tree._hash[nid], parent_of[nid]
    while parent:  # the root's parent is 0
        position = children[parent].index(nid)
        joined, cut = digests[parent], HASH_SIZE * position
        steps.append(ProofStep(position, joined[:cut] + joined[cut + HASH_SIZE :]))
        nid, parent = parent, parent_of[parent]
    return MerkleProof(leaf_key, leaf_hash, tuple(steps))


def verify(proof: MerkleProof, expected_root: bytes, arity: int, *, payload: bytes | None = None) -> bool:
    """Fold the leaf hash through all steps and compare against the root.

    Without ``payload`` this shows only that ``proof.leaf_hash`` (some node's
    hash) lies under the root. It binds neither ``proof.key`` nor a payload:
    a relabelled proof verifies, and so does one cut short whose leaf hash is
    an internal node's. With ``payload`` it also requires
    ``hash_leaf(proof.key, payload) == proof.leaf_hash``, which rejects both.
    ``hash_leaf`` does not yet delimit the key, so one leaf hash still reads
    as several (key, payload) pairs; length-prefixing it (ROADMAP item 3)
    changes every root hash and so the wire version byte.

    Raises :class:`MalformedProofError` for structural defects, a hand-built
    proof's included; returns ``False`` only for an honest mismatch.
    """
    current = proof.leaf_hash
    if type(current) is not bytes or len(current) != HASH_SIZE:
        raise MalformedProofError(f"leaf hash {current!r:.80}, expected {HASH_SIZE} bytes")
    if type(expected_root) is not bytes or len(expected_root) != HASH_SIZE:
        raise MalformedProofError(f"root hash {expected_root!r:.80}, expected {HASH_SIZE} bytes")
    try:
        for i, blob in proof.steps:
            if not isinstance(blob, bytes):
                raise MalformedProofError(f"siblings of type {type(blob).__name__}, expected bytes")
            # bool is an int subclass, and a float position cannot slice
            if type(i) is not int:
                raise MalformedProofError(f"position of type {type(i).__name__}, expected int")
            count, rest = divmod(len(blob), HASH_SIZE)
            # a finished tree has no single-child node, so every step has a sibling
            if rest or not 0 < count < arity or not 0 <= i <= count:
                raise MalformedProofError(f"step of {len(blob)} sibling bytes at position {i}, arity {arity}")
            cut = HASH_SIZE * i
            current = hash_internal((blob[:cut], current, blob[cut:]))
    except (TypeError, ValueError) as exc:  # a step that is no (position, siblings) pair
        raise MalformedProofError(f"malformed proof steps: {exc}") from None
    if payload is None:
        return current == expected_root
    try:
        bound = hash_leaf(proof.key, payload)
    except (AttributeError, TypeError, ValueError) as exc:  # no str key, a lone surrogate, no bytes payload
        raise MalformedProofError(f"cannot hash key {proof.key!r:.80} with the payload: {exc}") from None
    return current == expected_root and bound == proof.leaf_hash


def verification_cost(proof: MerkleProof) -> VerificationCost:
    """Hash invocations (= steps) and canonical (binary) wire size of a proof."""
    return VerificationCost(
        hash_invocations=len(proof.steps),
        proof_bytes=len(proof.to_bytes()),
    )
