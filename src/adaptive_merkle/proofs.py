"""Membership proofs over unbalanced m-ary trees.

Because node positions cannot be inferred from a leaf index in an unbalanced
tree, every proof step records the path node's child position in its parent
and the digests of all other children, concatenated in child order into one
byte string. The position is where the running digest slots in among them,
so each root path has exactly one encoding. Steps run from the leaf to the
root.

Canonical wire (binary, big-endian, digests raw as in RFC 6962/9162)::

    02                          version byte (_WIRE_VERSION)
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
decoded once by ``binascii.a2b_hex`` with A-F refused, and hands the bytes
to :meth:`MerkleProof.from_bytes`, so the view has no rules of its own and
every accepted proof is written back out unchanged.

A :class:`MerkleProof` is its wire. A served proof costs per Python object,
so it keeps the wire as one ``bytes`` object beside its key, its leaf hash
and each step's ``(position, start, end)`` sibling offsets into the wire.
``from_bytes`` reads the offsets as it checks the wire; a proof that
:func:`prove` wrote reads them from its wire, through the same loop, when
``verify``, ``steps`` or ``verification_cost`` first needs them, since the
serve path only hex-encodes it. :func:`prove` writes the wire with one
``b"".join`` of the header, the leaf's own step (two slices of its parent's
stored preimage, ``_child_digests``, around the leaf's digest) and one
memoized step per node above it, which it cuts the same way on first use
and keeps in the tree's ``_step`` list until ``_rehash`` rewrites the
parent's preimage. It hashes nothing once the root has been read since the
tree was built or last changed; before that, it reads the root first.
A proof built from fields is encoded and read back by ``from_bytes``, so
``to_bytes`` returns the stored wire and no other code reads one.
:func:`verify` hashes each step with one call of the module-level
:func:`hash_internal` over slices of the wire, so wrapping that name counts
every hash a verification makes; a test guards this. ``steps`` builds
:class:`ProofStep` records for readers only.
"""

from __future__ import annotations

import struct
from binascii import a2b_hex, b2a_hex
from dataclasses import dataclass
from typing import NamedTuple

from .errors import MalformedProofError
from .tree import HASH_SIZE, AdaptiveTree, hash_internal, hash_leaf

_WIRE_VERSION = b"\x02"  # first byte of the binary wire: 02 since leaf hashes length-prefix the key
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
        return tuple(ProofStep(position, wire[start:end]) for position, start, end in self._step_offsets())

    def _step_offsets(self) -> list[tuple[int, int, int]]:
        """Each step's ``(position, start, end)`` sibling offsets into the wire.
        A proof that :func:`prove` wrote reads them on first use, through the
        parse loop :meth:`from_bytes` runs; its wire always parses."""
        offsets = self._offsets
        if offsets is None:
            wire = self._wire
            offsets = self._offsets = _read_steps(wire, 5 + int.from_bytes(wire[1:5], "big") + HASH_SIZE)
        return offsets

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
            found = data[:1].hex() or "missing"
            raise MalformedProofError(f"proof wire version {found}, expected {_WIRE_VERSION.hex()}")
        end, key_end = len(data), 5 + int.from_bytes(data[1:5], "big")
        at = key_end + HASH_SIZE
        if end < at:
            raise MalformedProofError("proof wire ends inside its key length, key or leaf hash")
        try:
            key = data[5:key_end].decode()
        except UnicodeDecodeError as exc:
            raise MalformedProofError(f"proof key is not UTF-8: {exc}") from None
        offsets = _read_steps(data, at)
        proof = object.__new__(cls)
        proof._wire, proof._key, proof._leaf_hash, proof._offsets = data, key, data[key_end:at], offsets
        return proof

    def to_json_bytes(self) -> bytes:
        """The JSON envelope around the wire."""
        return b'{"wire_hex":"' + b2a_hex(self._wire) + b'"}'

    @classmethod
    def from_json_dict(cls, data: dict) -> "MerkleProof":
        """Read the JSON envelope; accepts exactly what :meth:`to_json_bytes` writes."""
        try:
            if not isinstance(data, dict) or len(data) != 1 or "wire_hex" not in data:
                raise ValueError(f"need exactly one field, wire_hex, and no unknown ones: {data!r:.80}")
            text = data["wire_hex"]
            try:  # a2b_hex refuses whitespace, odd length, non-hex and non-ASCII
                wire = a2b_hex(text) if type(text) is str else None
            except ValueError:
                wire = None
            if wire is None or _has_upper_hex(text):  # refused: the full check words the error
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


def _has_upper_hex(text: str) -> bool:
    # six C-level substring scans; str.islower() costs several times more on a proof's hex
    return "A" in text or "B" in text or "C" in text or "D" in text or "E" in text or "F" in text


def _read_steps(data: bytes, at: int) -> list[tuple[int, int, int]]:
    # The one parse loop over a wire's steps, from byte `at` to the end.
    end, offsets, unpack = len(data), [], _STEP_HEAD.unpack_from
    while at < end:
        start = at + _STEP_HEAD.size
        if end < start:
            raise MalformedProofError(f"proof wire ends inside a step header at byte {at}")
        position, count = unpack(data, at)
        at = start + HASH_SIZE * count
        if end < at:
            raise MalformedProofError(f"proof step at byte {start - _STEP_HEAD.size} runs past the end")
        offsets.append((position, start, at))
    return offsets


def _cut_step(tree: AdaptiveTree, nid: int, parent: int) -> tuple[bytes, bytes, bytes]:
    # A node's step at its parent: the head, then the parent's preimage
    # before and after the node's own digest.
    position = tree._children[parent].index(nid)
    joined, cut = tree._child_digests[parent], HASH_SIZE * position
    head = _STEP_HEAD.pack(position, len(joined) // HASH_SIZE - 1)
    return head, joined[:cut], joined[cut + HASH_SIZE :]


def prove(tree: AdaptiveTree, leaf_key: str) -> MerkleProof:
    """Membership proof for a leaf: one step per edge on its root path.

    The leaf's own step is cut from its parent's preimage; each step above
    it is the path node's memoized step, cut and kept on first use."""
    nid = tree._leaf_id(leaf_key)
    if tree._pending or tree._dirty:  # the stored digests are current only after a root read
        tree.root_hash()
    key, leaf_hash, parent = leaf_key.encode(), tree._hash[nid], tree._parent[nid]
    parts = [_WIRE_VERSION, len(key).to_bytes(4, "big"), key, leaf_hash]
    if parent:  # the root's parent is 0
        parts += _cut_step(tree, nid, parent)
        parent_of, memo = tree._parent, tree._step
        nid, parent = parent, parent_of[parent]
        while parent:
            step = memo[nid]
            if not step:
                step = memo[nid] = b"".join(_cut_step(tree, nid, parent))
            parts.append(step)
            nid, parent = parent, parent_of[parent]
    proof = object.__new__(MerkleProof)
    proof._wire, proof._key, proof._leaf_hash, proof._offsets = b"".join(parts), leaf_key, leaf_hash, None
    return proof


def verify(proof: MerkleProof, expected_root: bytes, arity: int, *, payload: bytes | None = None) -> bool:
    """Fold the leaf hash through all steps and compare against the root.

    Without ``payload`` this shows only that ``proof.leaf_hash`` (some node's
    hash) lies under the root. It binds neither ``proof.key`` nor a payload:
    a relabelled proof verifies, and so does one cut short whose leaf hash is
    an internal node's. With ``payload`` it also requires
    ``hash_leaf(proof.key, payload) == proof.leaf_hash``, which rejects both;
    ``hash_leaf`` length-prefixes the key, so that leaf hash has one reading.

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
        for i, start, end in proof._step_offsets():
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
    return VerificationCost(hash_invocations=len(proof._step_offsets()), proof_bytes=len(proof._wire))
