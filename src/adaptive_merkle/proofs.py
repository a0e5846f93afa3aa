"""Membership proofs over unbalanced m-ary trees.

Because node positions cannot be inferred from a leaf index in an unbalanced
tree, every proof step records the path node's child position in its parent
and the digests of all other children, concatenated in child order into one
byte string. The position is where the running digest slots in among them,
so each root path has exactly one encoding. Steps run from the leaf to the
root.

Wire format (canonical JSON, no whitespace)::

    {"key": ..., "leaf_hash_hex": ...,
     "steps": [{"position": i, "siblings": "<hex of the joined digests>"}]}

:meth:`MerkleProof.to_json_bytes` is the one place that spells it: it writes
the bytes directly, byte-identical to ``json.dumps`` of the equivalent dict
with ``separators=(",", ":")``, which a property test checks as its oracle.
``proof_bytes`` is defined as the byte length of exactly that encoding.
:meth:`MerkleProof.from_json_dict` reads each proof one way only: it takes
exactly these fields, hex must be lowercase with no whitespace
(``bytes.fromhex(h).hex() == h``) and the key must encode as UTF-8, so every
accepted proof is written back out unchanged.

Structural defects (bad positions, sibling counts or digest sizes) raise
:class:`MalformedProofError`; a clean ``False`` from :func:`verify` always
means the data genuinely fails to reproduce the expected root.

Serving a proof is the hot path of a read workload, and its cost is per
object, not per byte, so a step's digests travel as one ``bytes`` object and
one hex string. Every internal node keeps its hash preimage, the children's
digests joined in child order (``TreeNode.child_digests``, written only by
the tree's ``_rehash``), so ``prove`` cuts the path node's 32 bytes out of
it with two slices and hashes nothing. The writer and the reader convert a
step with one ``hex``/``fromhex`` call, and ``verify`` checks a step with one
``divmod`` of its length. ``verify`` hashes each step with one call of the
module-level :func:`hash_internal`, so wrapping that name counts every hash
a verification makes; a test guards this. :class:`ProofStep` and
:class:`MerkleProof` are named tuples: immutable, compared and hashed by
value, and cheaper to build than a frozen dataclass, which pays one
``object.__setattr__`` per field.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from .errors import MalformedProofError
from .tree import HASH_SIZE, AdaptiveTree, hash_internal


class ProofStep(NamedTuple):
    position: int
    siblings: bytes  # the other children's 32-byte digests, joined in child order


class MerkleProof(NamedTuple):
    key: str
    leaf_hash: bytes
    steps: tuple[ProofStep, ...]

    def to_json_bytes(self) -> bytes:
        """Canonical wire bytes; the one writer of the format."""
        steps = ",".join(
            ['{"position":%d,"siblings":"%s"}' % (position, siblings.hex()) for position, siblings in self.steps]
        )
        # json.dumps spells a str key with this very function
        key = encode_basestring_ascii(self.key)
        wire = '{"key":%s,"leaf_hash_hex":"%s","steps":[%s]}' % (key, self.leaf_hash.hex(), steps)
        return wire.encode()

    @classmethod
    def from_json_dict(cls, data: dict) -> "MerkleProof":
        try:
            key, leaf_hex, raw_steps = data["key"], data["leaf_hash_hex"], data["steps"]
            leaf_hash = bytes.fromhex(leaf_hex)
            if not isinstance(key, str) or not isinstance(raw_steps, list) or len(data) != 3:
                raise TypeError("need a string key, a step list and no unknown fields")
            key.encode()  # a lone surrogate raises here: no tree can hold the key
            if leaf_hash.hex() != leaf_hex:
                raise ValueError(f"non-canonical leaf_hash_hex {leaf_hex!r}")
            steps = []
            for step in raw_steps:
                position, text = step["position"], step["siblings"]
                # bool is an int subclass: JSON true must not pass as position 1
                if type(position) is not int or len(step) != 2:
                    raise TypeError("need integer positions and no unknown step fields")
                blob = bytes.fromhex(text)
                # one reading per proof: no uppercase, no whitespace
                if blob.hex() != text:
                    raise ValueError(f"non-canonical sibling hex {text!r}")
                steps.append(ProofStep(position, blob))
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedProofError(f"unparseable proof: {exc}") from None
        return cls(key, leaf_hash, tuple(steps))


@dataclass(frozen=True)
class VerificationCost:
    hash_invocations: int
    proof_bytes: int


def prove(tree: AdaptiveTree, leaf_key: str) -> MerkleProof:
    """Membership proof for a leaf: one step per edge on its root path."""
    leaf = tree.leaf_node(leaf_key)
    nodes, parent_of, root_id = tree.nodes, tree._parent, tree.root_id
    steps: list[ProofStep] = []
    nid = leaf.node_id
    while nid != root_id:
        parent_id = parent_of[nid]
        parent = nodes[parent_id]
        position = parent.children.index(nid)
        joined, cut = parent.child_digests, HASH_SIZE * position
        steps.append(ProofStep(position, joined[:cut] + joined[cut + HASH_SIZE :]))
        nid = parent_id
    return MerkleProof(leaf_key, leaf.hash, tuple(steps))


def verify(proof: MerkleProof, expected_root: bytes, arity: int) -> bool:
    """Fold the leaf hash through all steps and compare against the root.

    Raises :class:`MalformedProofError` for structural defects; returns
    ``False`` only for an honest mismatch.
    """
    if len(proof.leaf_hash) != HASH_SIZE:
        raise MalformedProofError(f"leaf hash of {len(proof.leaf_hash)} bytes, expected {HASH_SIZE}")
    if len(expected_root) != HASH_SIZE:
        raise MalformedProofError(f"root hash of {len(expected_root)} bytes, expected {HASH_SIZE}")
    current = proof.leaf_hash
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
    return current == expected_root


def verification_cost(proof: MerkleProof) -> VerificationCost:
    """Hash invocations (= steps) and canonical wire size of a proof."""
    return VerificationCost(
        hash_invocations=len(proof.steps),
        proof_bytes=len(proof.to_json_bytes()),
    )
