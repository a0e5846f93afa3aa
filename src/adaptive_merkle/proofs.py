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

:meth:`MerkleProof.from_bytes` is the one reader of it. It takes exactly what
the writer writes: a wrong version byte, a key that is not UTF-8 (an encoded
surrogate included), a step that runs past the end or a partial step at the
end raises :class:`MalformedProofError`, so every accepted byte string is
written back unchanged. ``proof_bytes`` is the wire's length.

JSON view: a one-field envelope around the wire, ``{"wire_hex":"<hex>"}``,
written by :meth:`MerkleProof.to_json_bytes` with no whitespace. Its reader,
:meth:`MerkleProof.from_json_dict`, takes a dict with exactly that field and
canonical hex (lowercase, no whitespace: ``bytes.fromhex(h).hex() == h``),
and hands the bytes to :meth:`MerkleProof.from_bytes`, so the view has no
rules of its own and every accepted proof is written back out unchanged.

A :class:`MerkleProof` is its wire. A served proof costs per Python object,
so it keeps the wire as one ``bytes`` object beside its key, its leaf hash
and each step's ``(position, start, end)`` sibling offsets into the wire.
:func:`prove` writes the wire with one ``b"".join`` over slices of the
tree's stored preimages (``_child_digests``, each internal node's child
digests in child order) and hashes nothing unless a mutation left the tree
dirty. A proof built from fields is encoded and read back by ``from_bytes``,
so ``to_bytes`` returns the stored wire and no other code reads one.
:func:`verify` hashes each step with one call of the module-level
:func:`hash_internal` over slices of the wire, so wrapping that name counts
every hash a verification makes; a test guards this. ``steps`` builds
:class:`ProofStep` records for readers only.
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


class MerkleProof:
    """A proof held as its canonical wire; equal and hashed by the wire."""

    __slots__ = ("_wire", "_key", "_leaf_hash", "_offsets")

    def __new__(cls, key: str, leaf_hash: bytes, steps) -> "MerkleProof":
        """Encode the fields and read them back with :meth:`from_bytes`. A key that is
        no UTF-8 str, a leaf hash or siblings that are not whole digests in ``bytes``, a
        position that is no ``int`` or a field beyond u16 raises :class:`MalformedProofError`."""
        try:
            key = key.encode()
            if type(leaf_hash) is not bytes or len(leaf_hash) != HASH_SIZE:
                raise ValueError(f"leaf hash {leaf_hash!r:.80}, expected {HASH_SIZE} bytes")
            parts = [_WIRE_VERSION, len(key).to_bytes(4, "big"), key, leaf_hash]
            for position, siblings in steps:
                if type(position) is not int or type(siblings) is not bytes:  # struct packs a bool as 0 or 1
                    raise TypeError(f"step of types ({type(position).__name__}, {type(siblings).__name__})")
                count, rest = divmod(len(siblings), HASH_SIZE)
                if rest:
                    raise ValueError(f"{len(siblings)} sibling bytes")
                parts += (_STEP_HEAD.pack(position, count), siblings)
        except (AttributeError, TypeError, ValueError, OverflowError, struct.error) as exc:
            raise MalformedProofError(f"proof cannot be encoded: {exc}") from None
        return cls.from_bytes(b"".join(parts))

    key = property(lambda self: self._key)
    leaf_hash = property(lambda self: self._leaf_hash)

    @property
    def steps(self) -> tuple[ProofStep, ...]:
        """The steps as records, sliced from the wire for readers; serving builds none."""
        wire = self._wire
        return tuple(ProofStep(position, wire[start:end]) for position, start, end in self._offsets)

    def __eq__(self, other) -> bool:
        return self._wire == other._wire if isinstance(other, MerkleProof) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._wire)

    def __repr__(self) -> str:
        return f"MerkleProof.from_bytes({self._wire!r})"

    def __reduce__(self):  # copy and pickle through the one reader
        return MerkleProof.from_bytes, (self._wire,)

    def to_bytes(self) -> bytes:
        """The canonical binary wire, as stored: nothing is re-encoded."""
        return self._wire

    @classmethod
    def from_bytes(cls, data: bytes) -> "MerkleProof":
        """Read the binary wire; accepts exactly what :func:`prove` and the constructor write."""
        if type(data) is not bytes:
            raise MalformedProofError(f"proof wire of type {type(data).__name__}, expected bytes")
        if data[:1] != _WIRE_VERSION:
            raise MalformedProofError(f"proof wire version {data[:1].hex() or 'missing'}, expected 01")
        end, key_end = len(data), 5 + int.from_bytes(data[1:5], "big")
        at = key_end + HASH_SIZE
        if end < at:
            raise MalformedProofError("proof wire ends inside its key length, key or leaf hash")
        try:
            key = data[5:key_end].decode()
        except UnicodeDecodeError as exc:
            raise MalformedProofError(f"proof key is not UTF-8: {exc}") from None
        leaf_hash, offsets, unpack = data[key_end:at], [], _STEP_HEAD.unpack_from
        while at < end:
            start = at + _STEP_HEAD.size
            if end < start:
                raise MalformedProofError(f"proof wire ends inside a step header at byte {at}")
            position, count = unpack(data, at)
            at = start + HASH_SIZE * count
            if end < at:
                raise MalformedProofError(f"proof step at byte {start - _STEP_HEAD.size} runs past the end")
            offsets.append((position, start, at))
        proof = object.__new__(cls)
        proof._wire, proof._key, proof._leaf_hash, proof._offsets = data, key, leaf_hash, offsets
        return proof

    def to_json_bytes(self) -> bytes:
        """The JSON envelope around the wire."""
        return b'{"wire_hex":"' + self._wire.hex().encode() + b'"}'

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
    key, leaf_hash, parent = leaf_key.encode(), tree._hash[nid], parent_of[nid]
    parts = [_WIRE_VERSION, len(key).to_bytes(4, "big"), key, leaf_hash]
    at, offsets, pack = 5 + len(key) + HASH_SIZE, [], _STEP_HEAD.pack
    while parent:  # the root's parent is 0
        position = children[parent].index(nid)
        joined, cut = digests[parent], HASH_SIZE * position
        size = len(joined) - HASH_SIZE  # the siblings' bytes
        start = at + _STEP_HEAD.size
        at = start + size
        parts += (pack(position, size // HASH_SIZE), joined[:cut], joined[cut + HASH_SIZE :])
        offsets.append((position, start, at))
        nid, parent = parent, parent_of[parent]
    proof = object.__new__(MerkleProof)
    proof._wire, proof._key, proof._leaf_hash, proof._offsets = b"".join(parts), leaf_key, leaf_hash, offsets
    return proof


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

    Raises :class:`MalformedProofError` for a ``proof`` that is no
    :class:`MerkleProof` and for steps the arity rules out; returns ``False``
    only for an honest mismatch. Field types and digest sizes are checked when
    a proof is made, as every proof is read by :meth:`MerkleProof.from_bytes`,
    so none is checked again here.
    """
    if not isinstance(proof, MerkleProof):
        raise MalformedProofError(f"proof of type {type(proof).__name__}, expected MerkleProof")
    if type(expected_root) is not bytes or len(expected_root) != HASH_SIZE:
        raise MalformedProofError(f"root hash {expected_root!r:.80}, expected {HASH_SIZE} bytes")
    wire, current = proof._wire, proof._leaf_hash
    try:
        for i, start, end in proof._offsets:
            count = (end - start) // HASH_SIZE
            # a finished tree has no single-child node, so every step has a sibling
            if not 0 < count < arity or not 0 <= i <= count:
                raise MalformedProofError(f"step of {end - start} sibling bytes at position {i}, arity {arity}")
            cut = start + HASH_SIZE * i
            current = hash_internal((wire[start:cut], current, wire[cut:end]))
    except TypeError as exc:  # an arity that no int compares with
        raise MalformedProofError(f"arity {arity!r:.80} cannot bound a step: {exc}") from None
    if payload is None:
        return current == expected_root
    try:
        bound = hash_leaf(proof._key, payload)
    except TypeError as exc:  # no bytes payload
        raise MalformedProofError(f"cannot hash key {proof._key!r:.80} with the payload: {exc}") from None
    return current == expected_root and bound == proof._leaf_hash


def verification_cost(proof: MerkleProof) -> VerificationCost:
    """Hash invocations (= steps) and canonical (binary) wire size of a proof."""
    if not isinstance(proof, MerkleProof):
        raise MalformedProofError(f"proof of type {type(proof).__name__}, expected MerkleProof")
    return VerificationCost(hash_invocations=len(proof._offsets), proof_bytes=len(proof._wire))
