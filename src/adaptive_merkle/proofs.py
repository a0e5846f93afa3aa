"""Membership proofs over unbalanced m-ary trees.

Because node positions cannot be inferred from a leaf index in an unbalanced
tree, every proof step records the path node's child position in its parent
and the digests of all other children in child order. The position is where
the running digest slots in among the siblings, so each root path has exactly
one encoding. Steps run from the leaf to the root.

Wire format (canonical JSON, no whitespace)::

    {"key": ..., "leaf_hash_hex": ...,
     "steps": [{"position": i, "siblings": ["<hex>", ...]}]}

``proof_bytes`` is defined as the byte length of exactly that encoding.
Structural defects (bad positions, sibling counts or digest sizes) raise
:class:`MalformedProofError`; a clean ``False`` from :func:`verify` always
means the data genuinely fails to reproduce the expected root.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import MalformedProofError
from .tree import HASH_SIZE, AdaptiveTree, hash_internal


@dataclass(frozen=True)
class ProofStep:
    position: int
    siblings: tuple[bytes, ...]


@dataclass(frozen=True)
class MerkleProof:
    key: str
    leaf_hash: bytes
    steps: tuple[ProofStep, ...]

    def to_json_dict(self) -> dict:
        return {
            "key": self.key,
            "leaf_hash_hex": self.leaf_hash.hex(),
            "steps": [
                {"position": step.position, "siblings": [h.hex() for h in step.siblings]}
                for step in self.steps
            ],
        }

    def to_json_bytes(self) -> bytes:
        return json.dumps(self.to_json_dict(), separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_json_dict(cls, data: dict) -> "MerkleProof":
        try:
            key = data["key"]
            leaf_hash = bytes.fromhex(data["leaf_hash_hex"])
            # bool is an int subclass: JSON true must not pass as position 1
            if not isinstance(key, str) or not all(
                type(s["position"]) is int and isinstance(s["siblings"], list) for s in data["steps"]
            ):
                raise TypeError("need a string key, integer positions and sibling lists")
            steps = tuple(
                ProofStep(step["position"], tuple(bytes.fromhex(h) for h in step["siblings"]))
                for step in data["steps"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedProofError(f"unparseable proof: {exc}") from None
        return cls(key, leaf_hash, steps)


@dataclass(frozen=True)
class VerificationCost:
    hash_invocations: int
    proof_bytes: int


def prove(tree: AdaptiveTree, leaf_key: str) -> MerkleProof:
    """Membership proof for a leaf: one step per edge on its root path."""
    leaf = tree.leaf_node(leaf_key)
    steps: list[ProofStep] = []
    nid = leaf.node_id
    while nid != tree.root_id:
        parent = tree.node(tree.parent_id(nid))
        siblings = tuple(tree.nodes[cid].hash for cid in parent.children if cid != nid)
        steps.append(ProofStep(parent.children.index(nid), siblings))
        nid = parent.node_id
    return MerkleProof(leaf_key, leaf.hash, tuple(steps))


def _check_step(step: ProofStep, arity: int) -> None:
    # a finished tree has no single-child node, so every step has a sibling
    if not 1 <= len(step.siblings) < arity:
        raise MalformedProofError(f"{len(step.siblings)} siblings in a step, arity {arity}")
    if not 0 <= step.position <= len(step.siblings):
        raise MalformedProofError(f"position {step.position} past {len(step.siblings)} siblings")
    for digest in step.siblings:
        if len(digest) != HASH_SIZE:
            raise MalformedProofError(f"sibling digest of {len(digest)} bytes, expected {HASH_SIZE}")


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
    for step in proof.steps:
        _check_step(step, arity)
        i = step.position
        current = hash_internal(step.siblings[:i] + (current,) + step.siblings[i:])
    return current == expected_root


def verification_cost(proof: MerkleProof) -> VerificationCost:
    """Hash invocations (= steps) and canonical wire size of a proof."""
    return VerificationCost(
        hash_invocations=len(proof.steps),
        proof_bytes=len(proof.to_json_bytes()),
    )
