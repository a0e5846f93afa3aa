"""The frozen encoding vectors of ``fixtures/vectors.json``, re-derived by a
second verifier written from README "File formats" alone.

This module imports nothing from ``adaptive_merkle``: ``hashlib`` hashes and
``struct`` reads the binary proof wire, so the vectors have an oracle that
shares no code with the library. ``test_proofs.py::TestFrozenVectors``
checks that the library reproduces the same file, which
``helpers.encoding_vectors`` writes; a change to the leaf, internal or wire
encoding therefore shows up as a diff of that file.
"""

import hashlib
import json
import struct
from pathlib import Path

VECTORS = json.loads((Path(__file__).parent / "fixtures" / "vectors.json").read_text(encoding="utf-8"))
DIGEST = 32


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def read_wire(wire: bytes) -> tuple[str, bytes, list[tuple[int, list[bytes]]]]:
    """``(key, leaf hash, steps)`` of a proof on the binary wire: version byte
    0x01, u32 key length L, L bytes of UTF-8 key, the 32-byte leaf hash, then
    per step a u16 position, a u16 sibling count c and c digests, up to the
    end of the buffer; all integers big-endian."""
    assert wire[0] == 0x01
    (length,) = struct.unpack_from(">I", wire, 1)
    at = 5 + length
    key, leaf_hash = wire[5:at].decode("utf-8"), wire[at : at + DIGEST]
    at += DIGEST
    steps = []
    while at < len(wire):
        position, count = struct.unpack_from(">HH", wire, at)
        at += 4
        steps.append((position, [wire[at + DIGEST * i : at + DIGEST * (i + 1)] for i in range(count)]))
        at += DIGEST * count
    assert at == len(wire)
    return key, leaf_hash, steps


def test_leaf_vectors():
    # a leaf hashes 0x00 || UTF-8 key || payload
    for vector in VECTORS["leaf"]:
        preimage = b"\x00" + vector["key"].encode("utf-8") + bytes.fromhex(vector["payload_hex"])
        assert preimage.hex() == vector["preimage_hex"], vector["name"]
        assert sha256(preimage).hex() == vector["digest_hex"], vector["name"]


def test_internal_vectors():
    # an internal node hashes 0x01 || its children's digests in child order
    for vector in VECTORS["internal"]:
        preimage = b"\x01" + b"".join(map(bytes.fromhex, vector["children_hex"]))
        assert preimage.hex() == vector["preimage_hex"], vector["name"]
        assert sha256(preimage).hex() == vector["digest_hex"], vector["name"]


def test_proof_vectors():
    # the leaf hash binds the key and payload, and each step slots the
    # running digest in among its siblings at its position, up to the root
    for vector in VECTORS["proofs"]:
        key, leaf_hash, steps = read_wire(bytes.fromhex(vector["wire_hex"]))
        assert key == vector["key"]
        assert leaf_hash == sha256(b"\x00" + key.encode("utf-8") + bytes.fromhex(vector["payload_hex"]))
        current = leaf_hash
        for position, siblings in steps:
            assert 0 < len(siblings) < vector["arity"] and 0 <= position <= len(siblings)
            current = sha256(b"\x01" + b"".join(siblings[:position] + [current] + siblings[position:]))
        assert current.hex() == vector["root_hex"], (vector["tree"], key)
