"""Membership proofs over unbalanced m-ary trees.

Because node positions cannot be inferred from a leaf index in an unbalanced
tree, every proof step records the path node's child position in its parent
and the digests of all other children in child order. The position is where
the running digest slots in among the siblings, so each root path has exactly
one encoding. Steps run from the leaf to the root.

Wire format (canonical JSON, no whitespace)::

    {"key": ..., "leaf_hash_hex": ...,
     "steps": [{"position": i, "siblings": ["<hex>", ...]}]}

:meth:`MerkleProof.to_json_bytes` is the one place that spells it: it writes
the bytes directly, byte-identical to ``json.dumps`` of the equivalent dict
with ``separators=(",", ":")``, which a property test checks as its oracle.
``proof_bytes`` is defined as the byte length of exactly that encoding.
:meth:`MerkleProof.from_json_dict` reads each proof one way only: digests
must be lowercase hex with no whitespace (``bytes.fromhex(h).hex() == h``),
so every accepted proof is written back out unchanged.

Structural defects (bad positions, sibling counts or digest sizes) raise
:class:`MalformedProofError`; a clean ``False`` from :func:`verify` always
means the data genuinely fails to reproduce the expected root.

Serving a proof is the hot path of a read workload, so each stage makes one
pass per step: ``prove`` takes one list of child digests and drops the path
node's slot, the writer joins a step's hex digests in one call, and the
reader decodes and checks a step together. ``verify`` hashes each step with
one call of the module-level :func:`hash_internal`, so wrapping that name
counts every hash a verification makes; a test guards this.
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

    def to_json_bytes(self) -> bytes:
        """Canonical wire bytes; the one writer of the format."""
        steps = ",".join(
            [
                '{"position":%d,"siblings":[%s]}'
                % (step.position, '"%s"' % '","'.join(map(bytes.hex, step.siblings)) if step.siblings else "")
                for step in self.steps
            ]
        )
        wire = '{"key":%s,"leaf_hash_hex":"%s","steps":[%s]}' % (json.dumps(self.key), self.leaf_hash.hex(), steps)
        return wire.encode()

    @classmethod
    def from_json_dict(cls, data: dict) -> "MerkleProof":
        try:
            key, leaf_hex, raw_steps = data["key"], data["leaf_hash_hex"], data["steps"]
            leaf_hash = bytes.fromhex(leaf_hex)
            if not isinstance(key, str) or not isinstance(raw_steps, list):
                raise TypeError("need a string key and a step list")
            if leaf_hash.hex() != leaf_hex:
                raise ValueError(f"non-canonical leaf_hash_hex {leaf_hex!r}")
            steps = []
            for step in raw_steps:
                position, hexes = step["position"], step["siblings"]
                # bool is an int subclass: JSON true must not pass as position 1
                if type(position) is not int or not isinstance(hexes, list):
                    raise TypeError("need integer positions and sibling lists")
                siblings = tuple(map(bytes.fromhex, hexes))
                # the joined text equals the digests' hex only if no digest
                # has uppercase or whitespace: one reading per proof
                if "".join(hexes) != b"".join(siblings).hex():
                    raise ValueError(f"non-canonical sibling hex in {hexes!r}")
                steps.append(ProofStep(position, siblings))
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
        children = nodes[parent_id].children
        position = children.index(nid)
        siblings = [nodes[cid].hash for cid in children]
        del siblings[position]
        steps.append(ProofStep(position, tuple(siblings)))
        nid = parent_id
    return MerkleProof(leaf_key, leaf.hash, tuple(steps))


def _check_step(step: ProofStep, arity: int) -> None:
    # a finished tree has no single-child node, so every step has a sibling
    if not 1 <= len(step.siblings) < arity:
        raise MalformedProofError(f"{len(step.siblings)} siblings in a step, arity {arity}")
    if not 0 <= step.position <= len(step.siblings):
        raise MalformedProofError(f"position {step.position} past {len(step.siblings)} siblings")
    # a plain loop measures faster than a set of lengths at m <= 16
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
