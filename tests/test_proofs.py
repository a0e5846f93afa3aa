"""Proof generation, verification, mutation fuzzing, and cost accounting."""

import copy
import json
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_merkle import (
    MalformedProofError,
    MerkleProof,
    TreeConfig,
    build_balanced,
    discrepancy_report,
    huffman_codes,
    prove,
    tree_from_codes,
    verify,
)
import adaptive_merkle.proofs as proofs_mod
from adaptive_merkle.proofs import ProofStep, VerificationCost, verification_cost
from adaptive_merkle.tree import MAX_ARITY, hash_internal, hash_leaf
from adaptive_merkle.workload import generate_trace, normalize_distribution, zipf_distribution

from helpers import (
    apply_ops,
    encoding_vectors,
    old_from_json_dict,
    old_readable_view,
    random_tree,
    reference_fields,
    split_digests,
)

TOL = 1e-9


def uniform_leaves(keys):
    return [(k, k.encode(), 1.0 / len(keys)) for k in keys]


class TestProve:
    def test_balanced_16_leaf_proof(self):
        tree = build_balanced(uniform_leaves("ABCDEFGHIJKLMNOP"), TreeConfig(2))
        proof = prove(tree, "A")
        assert len(proof.steps) == 4
        assert sum(len(split_digests(step.siblings)) for step in proof.steps) == 4
        assert verify(proof, tree.root_hash(), 2)

    def test_adaptive_tree_short_proof_for_hot_leaf(self, demo16):
        probs = dict(normalize_distribution(demo16))
        tree = tree_from_codes(huffman_codes(probs, 2))
        proof = prove(tree, "A")
        assert len(proof.steps) == 2
        assert verify(proof, tree.root_hash(), 2)

    def test_single_leaf_zero_steps(self):
        tree = build_balanced(uniform_leaves("A"), TreeConfig(2))
        proof = prove(tree, "A")
        assert proof.steps == ()
        assert verify(proof, tree.root_hash(), 2)

    def test_total_siblings_match_parent_sizes(self):
        rng = random.Random(3)
        for _ in range(20):
            tree = random_tree(rng, rng.randint(1, 20), rng.choice([2, 3, 4, 16]))
            for key in tree.leaf_keys():
                proof = prove(tree, key)
                assert len(proof.steps) == tree.depth(key)
                nid = tree.leaf_node(key).node_id
                for step in proof.steps:
                    parent = tree.node(tree.parent_id(nid))
                    assert len(split_digests(step.siblings)) == len(parent.children) - 1
                    assert step.position == parent.children.index(nid)
                    others = [tree.node(cid).hash for cid in parent.children if cid != nid]
                    assert split_digests(step.siblings) == others
                    nid = parent.node_id


class TestVerify:
    def test_round_trip_on_random_trees(self):
        rng = random.Random(7)
        for _ in range(100):
            tree = random_tree(rng, rng.randint(1, 32), rng.choice([2, 3, 4]))
            key = rng.choice(tree.leaf_keys())
            proof = prove(tree, key)
            assert verify(proof, tree.root_hash(), tree.config.arity)

    def test_single_byte_flip_fails(self):
        rng = random.Random(11)
        tree = random_tree(rng, 12, 2)
        key = tree.leaf_keys()[0]
        proof = prove(tree, key)
        step = proof.steps[0]
        digests = split_digests(step.siblings)
        digests[0] = bytes([digests[0][0] ^ 0x01]) + digests[0][1:]
        bad_step = ProofStep(step.position, b"".join(digests))
        bad = MerkleProof(proof.key, proof.leaf_hash, (bad_step,) + proof.steps[1:])
        assert verify(bad, tree.root_hash(), 2) is False

    def test_empty_proof_is_leaf_hash_comparison(self):
        tree = build_balanced(uniform_leaves("A"), TreeConfig(2))
        proof = prove(tree, "A")
        assert verify(proof, proof.leaf_hash, 2)
        assert not verify(proof, b"\x00" * 32, 2)

    def test_malformed_sibling_count(self):
        # a finished node has 2..m children: 1..m-1 siblings per step
        for siblings in [b"", b"\x00" * 32 * 4, b"\x00" * 32 * 5]:
            proof = MerkleProof("A", b"\x11" * 32, (ProofStep(0, siblings),))
            with pytest.raises(MalformedProofError):
                verify(proof, b"\x00" * 32, 4)

    def test_malformed_index_out_of_range(self):
        # the path node's child index can only slot in before, between or
        # after the siblings; -1 cannot be encoded, so that proof is refused
        # when it is made
        for position in [-1, 3, 4]:
            step = ProofStep(position, b"\x00" * 32 + b"\x22" * 32)
            with pytest.raises(MalformedProofError):
                verify(MerkleProof("A", b"\x11" * 32, (step,)), b"\x00" * 32, 4)

    def test_malformed_digest_size(self):
        # sibling bytes that do not split into whole 32-byte digests, and a
        # short leaf hash, are refused when the proof is made
        for size in [1, 31, 33, 63, 65]:
            with pytest.raises(MalformedProofError, match="cannot be encoded"):
                MerkleProof("A", b"\x11" * 32, (ProofStep(0, b"\x00" * size),))
        with pytest.raises(MalformedProofError, match="cannot be encoded"):
            MerkleProof("A", b"\x11" * 31, ())
        with pytest.raises(MalformedProofError):
            verify(MerkleProof("A", b"\x11" * 32, ()), b"\x11" * 31, 2)

    @pytest.mark.parametrize("position", [1.0, True])
    def test_position_not_int_raises_malformed(self, position):
        # both pass 0 <= position <= count; the wire has only int positions,
        # so the proof is refused when it is made
        with pytest.raises(MalformedProofError, match=r"cannot be encoded: step of types \((float|bool), bytes\)"):
            MerkleProof("A", b"\x11" * 32, (ProofStep(position, b"\x00" * 64),))

    @pytest.mark.parametrize(
        "siblings",
        [(b"\x00" * 32,), [b"\x00" * 32], bytearray(32), "00" * 32, None],
        ids=["tuple", "list", "bytearray", "hex-str", "none"],
    )
    def test_siblings_not_bytes_raise_malformed(self, siblings):
        with pytest.raises(MalformedProofError, match=r"cannot be encoded: step of types \(int, \w+\)"):
            MerkleProof("A", b"\x11" * 32, (ProofStep(0, siblings),))

    @pytest.mark.parametrize(
        "leaf_hash, steps, root",
        [
            (b"\x11" * 32, ((0,),), b"\x00" * 32),
            (b"\x11" * 32, ((0, b"\x00" * 32, 0),), b"\x00" * 32),
            (b"\x11" * 32, (0,), b"\x00" * 32),
            (b"\x11" * 32, None, b"\x00" * 32),
            ("1" * 32, (), b"\x00" * 32),
            ("1" * 32, ((0, b"\x00" * 32),), b"\x00" * 32),
            (None, (), b"\x00" * 32),
            (b"\x11" * 32, (), "0" * 32),
            (b"\x11" * 32, (), bytearray(32)),
        ],
        ids=["one-item-step", "three-item-step", "int-step", "no-step-list", "str-leaf-hash",
             "str-leaf-hash-with-step", "none-leaf-hash", "str-root", "bytearray-root"],
    )
    def test_hand_built_proof_raises_malformed(self, leaf_hash, steps, root):
        with pytest.raises(MalformedProofError):
            verify(MerkleProof("A", leaf_hash, steps), root, 2)

    def test_hand_built_list_of_tuples_verifies(self):
        tree = build_balanced(uniform_leaves("ABCDE"), TreeConfig(3))
        proof = prove(tree, "D")
        steps = [(position, siblings) for position, siblings in proof.steps]
        assert verify(MerkleProof("D", proof.leaf_hash, steps), tree.root_hash(), 3)

    @pytest.mark.parametrize("not_a_proof", [("A", b"x" * 32, ()), {"wire_hex": "01"}, None],
                             ids=["tuple", "dict", "none"])
    def test_non_proof_raises_malformed(self, not_a_proof):
        with pytest.raises(MalformedProofError, match="expected MerkleProof"):
            verify(not_a_proof, b"x" * 32, 2)
        with pytest.raises(MalformedProofError, match="expected MerkleProof"):
            verification_cost(not_a_proof)

    @pytest.mark.parametrize("arity", ["4", None, b"\x04"], ids=["str", "none", "bytes"])
    def test_arity_not_a_number_raises_malformed(self, binary_demo_tree, arity):
        with pytest.raises(MalformedProofError, match="cannot bound a step"):
            verify(prove(binary_demo_tree, "C"), binary_demo_tree.root_hash(), arity)

    def test_wrong_payload_never_verifies(self):
        # soundness fuzz: proofs for altered leaf data must fail
        rng = random.Random(13)
        failures = 0
        for _ in range(1000):
            tree = random_tree(rng, rng.randint(2, 16), rng.choice([2, 3, 4]))
            key = rng.choice(tree.leaf_keys())
            proof = prove(tree, key)
            other = tree.clone()
            other._payload[other.leaf_node(key).node_id] += b"!"  # node views are read-only
            other.recompute_all_hashes()
            assert not verify(proof, other.root_hash(), tree.config.arity)
            failures += 1
        assert failures == 1000


class TestWireFormat:
    """The JSON view is a one-field envelope around the binary wire."""

    def test_json_round_trip(self, binary_demo_tree):
        proof = prove(binary_demo_tree, "C")
        text = proof.to_json_bytes()
        assert text == b'{"wire_hex":"' + proof.to_bytes().hex().encode() + b'"}'
        assert text == json.dumps({"wire_hex": proof.to_bytes().hex()}, separators=(",", ":")).encode()
        assert len(text) == 2 * verification_cost(proof).proof_bytes + 15
        restored = MerkleProof.from_json_dict(json.loads(text))
        assert restored == proof and restored.to_json_bytes() == text
        assert verify(restored, binary_demo_tree.root_hash(), 2)

    def test_unparseable_json_raises_malformed(self):
        with pytest.raises(MalformedProofError):
            MerkleProof.from_json_dict({"key": "A"})

    def test_steps_hold_position_and_digests_only(self, quad_demo_tree):
        data = json.loads(prove(quad_demo_tree, "E").to_json_bytes())
        assert set(data) == {"wire_hex"}
        steps = MerkleProof.from_json_dict(data).steps
        assert steps
        for position, siblings in steps:
            assert type(position) is int and type(siblings) is bytes
            assert siblings and len(siblings) % 32 == 0

    @pytest.mark.parametrize("data", [None, [], "wire_hex", [("wire_hex", "01")]], ids=["none", "list", "str", "pairs"])
    def test_not_a_dict_raises_malformed(self, data):
        with pytest.raises(MalformedProofError, match="exactly one field"):
            MerkleProof.from_json_dict(data)

    @pytest.mark.parametrize(
        "wire_hex", [None, {}, [], 1, b"01", ""], ids=["none", "dict", "list", "int", "bytes", "empty"]
    )
    def test_wire_hex_not_a_proof_raises_malformed(self, wire_hex):
        # a value that is no str, or a str that is no wire ("" has no version byte)
        with pytest.raises(MalformedProofError):
            MerkleProof.from_json_dict({"wire_hex": wire_hex})

    @pytest.mark.parametrize("position", [True, False, 1.7, "1"])
    def test_non_integer_position_raises_malformed(self, binary_demo_tree, position):
        # a hand-built non-integer position is refused when the proof is
        # made, so it can neither be verified nor written as an int
        proof = prove(binary_demo_tree, "C")
        steps = ((position, proof.steps[0].siblings),) + proof.steps[1:]
        with pytest.raises(MalformedProofError, match="cannot be encoded"):
            MerkleProof(proof.key, proof.leaf_hash, steps)

    def test_non_string_key_raises_malformed(self, binary_demo_tree):
        # the wire's key bytes are not UTF-8: there is no string to read
        wire = prove(binary_demo_tree, "C").to_bytes().replace(b"\x00\x00\x00\x01C", b"\x00\x00\x00\x01\xff", 1)
        with pytest.raises(MalformedProofError, match="not UTF-8"):
            MerkleProof.from_json_dict({"wire_hex": wire.hex()})

    def test_old_format_proof_raises_malformed(self, binary_demo_tree):
        # the retired readable view, {key, leaf_hash_hex, steps}, in each of
        # the sibling forms it once had
        proof = prove(binary_demo_tree, "C")
        for form in ["joined-hex", "hex-list", "index-objects"]:
            data = old_readable_view(proof, form)
            with pytest.raises(MalformedProofError, match="exactly one field"):
                MerkleProof.from_json_dict(data)

    @pytest.mark.parametrize("field", ["leaf_hash_hex", "sibling"])
    @pytest.mark.parametrize(
        "edit",
        [str.upper, lambda h: h[:2] + " " + h[2:], lambda h: h[:2] + "\n" + h[2:], lambda h: h + "\n"],
        ids=["upper", "space", "newline", "trailing-newline"],
    )
    def test_non_canonical_hex_raises_malformed(self, binary_demo_tree, field, edit):
        # each decodes to the same wire, but to_json_bytes writes only the
        # lowercase, unspaced form: one reading per proof. The edit lands
        # in the hex of the leaf hash or of the last sibling digest.
        proof = prove(binary_demo_tree, "C")
        text = json.loads(proof.to_json_bytes())["wire_hex"]
        digest = proof.leaf_hash if field == "leaf_hash_hex" else proof.steps[-1].siblings[-32:]
        start = text.rindex(digest.hex())
        span = text[start:start + 64]
        edited = text[:start] + edit(span) + text[start + 64:]
        assert edited != text and bytes.fromhex(edited) == bytes.fromhex(text)
        with pytest.raises(MalformedProofError, match="non-canonical"):
            MerkleProof.from_json_dict({"wire_hex": edited})

    @pytest.mark.parametrize("where", ["top", "step"])
    def test_unknown_field_raises_malformed(self, binary_demo_tree, where):
        # a proof that is read is written back out byte for byte, so no
        # field may be dropped on the way: neither a stray one nor a
        # per-step field of the retired view left beside the wire
        data = json.loads(prove(binary_demo_tree, "C").to_json_bytes())
        data.update({"junk": 1} if where == "top" else {"steps": []})
        with pytest.raises(MalformedProofError, match="unknown"):
            MerkleProof.from_json_dict(data)

    def test_lone_surrogate_key_raises_malformed(self, binary_demo_tree):
        # "\udc00" encoded as if it were a character: no tree can hold this key
        wire = prove(binary_demo_tree, "C").to_bytes().replace(b"\x00\x00\x00\x01C", b"\x00\x00\x00\x03\xed\xb0\x80", 1)
        with pytest.raises(MalformedProofError, match="not UTF-8"):
            MerkleProof.from_json_dict({"wire_hex": wire.hex()})

    def test_proof_invariant_under_probability_change(self, binary_demo_tree):
        before = prove(binary_demo_tree, "B")
        uniform = {k: 1 / 8 for k in binary_demo_tree.leaf_keys()}
        binary_demo_tree.set_probabilities(uniform)
        assert prove(binary_demo_tree, "B") == before


def flip_byte(digest: bytes, i: int, mask: int) -> bytes:
    return digest[:i] + bytes([digest[i] ^ mask]) + digest[i + 1:]


@st.composite
def proof_cases(draw):
    """A seeded random tree (n <= 32, m in {2, 3, 4, 16}) and a proof for any leaf."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    tree = random_tree(rng, draw(st.integers(1, 32)), draw(st.sampled_from([2, 3, 4, 16])))
    return tree, prove(tree, draw(st.sampled_from(tree.leaf_keys())))


class TestProofMutation:
    """Any single structured edit to a valid proof fails to verify or is
    rejected as malformed. The 3-argument call does not bind the key, so
    edits confined to it are out of scope here (see TestKeyBinding)."""

    @settings(max_examples=400, deadline=None)
    @given(proof_cases(), st.data())
    def test_single_edit_never_verifies(self, case, data):
        tree, proof = case
        m = tree.config.arity
        assert verify(proof, tree.root_hash(), m)
        positions = [step.position for step in proof.steps]
        digests = [split_digests(step.siblings) for step in proof.steps]
        edits = ["flip"]
        if digests:
            edits += ["position", "drop", "add"]
        if any(len(step) > 1 for step in digests):
            edits.append("swap")
        edit = data.draw(st.sampled_from(edits))
        leaf_hash = proof.leaf_hash
        if edit == "flip":
            where = data.draw(st.sampled_from(
                [None] + [(k, j) for k, step in enumerate(digests) for j in range(len(step))]
            ))
            i, mask = data.draw(st.integers(0, 31)), data.draw(st.integers(1, 255))
            if where is None:
                leaf_hash = flip_byte(leaf_hash, i, mask)
            else:
                k, j = where
                digests[k][j] = flip_byte(digests[k][j], i, mask)
        elif edit == "swap":
            step = digests[data.draw(st.sampled_from([k for k, step in enumerate(digests) if len(step) > 1]))]
            a, b = data.draw(st.lists(st.integers(0, len(step) - 1), min_size=2, max_size=2, unique=True))
            step[a], step[b] = step[b], step[a]
        else:
            k = data.draw(st.integers(0, len(digests) - 1))
            if edit == "position":
                positions[k] = data.draw(st.integers(-2, m + 1).filter(lambda p: p != positions[k]))
            elif edit == "drop":
                del digests[k][data.draw(st.integers(0, len(digests[k]) - 1))]
            else:
                extra = data.draw(st.binary(min_size=32, max_size=32))
                digests[k].insert(data.draw(st.integers(0, len(digests[k]))), extra)
        steps = [ProofStep(position, b"".join(step)) for position, step in zip(positions, digests)]
        try:  # a negative position is refused when the proof is made
            bad = MerkleProof(proof.key, leaf_hash, tuple(steps))
            assert bad != proof
            assert verify(bad, tree.root_hash(), m) is False
        except MalformedProofError:
            pass


# Keys with quote, backslash and control characters, and non-ASCII, astral
# and line-separator ones: the wire carries any UTF-8 key as it is.
KEY_CHARS = st.one_of(
    st.sampled_from('"\\\x00\x1f\x7f/\u00e9\u2028\U0001f600'), st.characters(exclude_categories=["Cs"])
)


class TestTracerCounts:
    """perfbench's tracer reads ``tree.hash_internal.calls`` by wrapping the
    module global ``proofs.hash_internal``: verify must hash each step
    through it, once, and prove must not hash at all."""

    def test_verify_calls_hash_internal_once_per_step(self, monkeypatch):
        calls = []

        def counting(children):
            calls.append(1)
            return hash_internal(children)

        monkeypatch.setattr(proofs_mod, "hash_internal", counting)
        rng = random.Random(19)
        for _ in range(30):
            tree = random_tree(rng, rng.randint(1, 24), rng.choice([2, 3, 4, 16]))
            for key in tree.leaf_keys():
                calls.clear()
                proof = prove(tree, key)
                assert calls == []
                received = MerkleProof.from_json_dict(json.loads(proof.to_json_bytes()))
                assert calls == []
                # positional, as the benchmark workloads call it
                assert verify(received, tree.root_hash(), tree.config.arity)
                assert len(calls) == len(proof.steps)


# Every kind of op helpers.apply_ops knows that changes the tree or copies it.
mutating_ops = st.lists(
    st.tuples(
        st.sampled_from(["split", "attach", "swap", "swap_nodes", "move", "recompute", "probabilities", "optimize",
                         "clone", "snapshot"]),
        st.integers(0, 999),
        st.integers(0, 999),
    ),
    max_size=10,
)


class TestWriterOracle:
    """``prove`` writes the wire straight from the tree's stored preimages and
    memoized steps, and its step offsets are read from that wire on first
    use. After any sequence of mutations, its
    proof of every leaf equals the reader's reading of that wire, the field
    constructor's proof of the reference fields and the struct-only encoding
    of those fields, in wire, key, leaf hash, steps and cost alike."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        # apply_ops names new leaves "x000", "x001", ...
        st.lists(st.text(KEY_CHARS, max_size=4).filter(lambda k: not k.startswith("x")), min_size=1, max_size=12,
                 unique=True),
        st.sampled_from([2, 3, 4, 16]),
        mutating_ops,
    )
    def test_prove_equals_every_other_route(self, seed, keys, m, ops):
        def check(tree):
            for key in tree.leaf_keys():
                proof = prove(tree, key)  # flushes a dirty tree before the reference reads it
                fields = reference_fields(tree, key)
                wire = reference_wire(*fields)
                expected = (wire, *fields, VerificationCost(len(fields[2]), len(wire)))
                for other in (proof, MerkleProof.from_bytes(proof.to_bytes()), MerkleProof(*fields)):
                    got = (other.to_bytes(), other.key, other.leaf_hash, other.steps, verification_cost(other))
                    assert got == expected
                    assert other == proof and hash(other) == hash(proof)

        tree = random_tree(random.Random(seed), len(keys), m, {key: 1.0 / len(keys) for key in keys})
        check(tree)
        apply_ops(tree, ops, check)

    def test_serve_access_builds_no_step_record(self, monkeypatch, quad_demo_tree):
        # one access as the benchmark serves it: prove, the JSON envelope,
        # json.loads, the reader and verify; ``steps`` is for readers only
        built = []
        original = ProofStep.__new__

        def counting(cls, *args):
            built.append(args)
            return original(cls, *args)

        monkeypatch.setattr(ProofStep, "__new__", counting)
        root = quad_demo_tree.root_hash()
        for key in quad_demo_tree.leaf_keys():
            proof = prove(quad_demo_tree, key)
            received = MerkleProof.from_json_dict(json.loads(proof.to_json_bytes()))
            assert verify(received, root, 4, payload=key.encode())
            assert verification_cost(received).hash_invocations > 0
        assert built == []
        assert received.steps and len(built) == len(received.steps)  # the counter sees a real build

    @pytest.mark.parametrize("first_use", ["verify", "steps", "verification_cost"])
    def test_offsets_are_read_on_first_use(self, quad_demo_tree, first_use):
        # the serve path hex-encodes a proved proof and never reads its offsets,
        # so prove records none; the first reader parses them as from_bytes does
        proof = prove(quad_demo_tree, "E")
        assert proof._offsets is None
        read = {"verify": lambda p: verify(p, quad_demo_tree.root_hash(), 4), "steps": lambda p: p.steps,
                "verification_cost": verification_cost}[first_use](proof)
        assert read
        assert proof._offsets == MerkleProof.from_bytes(proof.to_bytes())._offsets
        assert proof._offsets == [(1, 42, 106), (1, 110, 206)]  # E under [B, E, F] under the root

    def test_wire_is_kept_not_rewritten(self, quad_demo_tree):
        proof = prove(quad_demo_tree, "E")
        wire = proof.to_bytes()
        assert proof.to_bytes() is wire
        received = MerkleProof.from_bytes(wire)
        assert received.to_bytes() is wire
        assert received.to_json_bytes() == proof.to_json_bytes() == b'{"wire_hex":"' + wire.hex().encode() + b'"}'


class StrSub(str):
    pass


# Edits that take the envelope's hex off the canonical form, or leave it on
# it: (kind, character) applied at a drawn position.
HEX_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.just("")),
    st.tuples(st.just("drop"), st.just("")),
    st.tuples(st.just("insert"), st.sampled_from([" ", "\t", "\n", "\x0b", "\r", "\x0c"])),  # ASCII whitespace
    st.tuples(st.just("insert"), st.sampled_from(["g", "x", "-", "G", "0", "a", "A"])),  # non-hex, hex
    st.tuples(st.just("insert"), st.sampled_from(["\u00e9", "\u0660", "\uff10", "\udc00", "\U0001f600"])),
    st.tuples(st.just("insert"), st.characters()),
)


# the hex of real proofs, and of a wire with no hex letter at all (empty key,
# all-zero leaf hash, no step), an empty text and an odd one
HEX_TEXTS = [
    prove(build_balanced(uniform_leaves("ABCDEFGHIJ"), TreeConfig(3)), key).to_bytes().hex() for key in "ACJ"
] + ["01" + "00" * 36, "", "0"]


def edit_hex(text: str, edits) -> str:
    for (kind, char), at in edits:
        at %= len(text) + 1
        if kind == "flip":
            text = text[:at] + text[at:at + 1].swapcase() + text[at + 1:]
        elif kind == "drop":
            text = text[:at] + text[at + 1:]
        else:
            text = text[:at] + char + text[at:]
    return text


class TestJsonReaderOracle:
    """The reader decodes the hex once with ``binascii.a2b_hex`` and refuses
    A-F, instead of ``bytes.fromhex`` and a re-encoding compared with the
    text: it accepts exactly what the old reader accepted, and raises the
    same error type with the same message for everything else."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.sampled_from(HEX_TEXTS),
        st.lists(st.tuples(HEX_EDITS, st.integers(0, 10**6)), max_size=3),
        st.sampled_from(["str", "str_subclass", "bytes", "int", "none", "extra_field"]),
    )
    def test_same_result_as_the_old_reader(self, text, edits, wrap):
        text = edit_hex(text, edits)
        value = {"str": text, "str_subclass": StrSub(text), "bytes": text.encode("utf-8", "surrogatepass"),
                 "int": len(text), "none": None, "extra_field": text}[wrap]
        envelope = {"wire_hex": value}
        if wrap == "extra_field":
            envelope["key"] = "A"

        def outcome(reader):
            try:
                return reader(envelope).to_bytes()
            except Exception as exc:  # noqa: BLE001 - the type and message are compared
                return type(exc), str(exc)

        assert outcome(MerkleProof.from_json_dict) == outcome(old_from_json_dict)

    @pytest.mark.parametrize("text", HEX_TEXTS[:4])
    def test_canonical_hex_is_read(self, text):
        assert MerkleProof.from_json_dict({"wire_hex": text}).to_bytes().hex() == text


class TestRecords:
    """Proof records are immutable values: equal fields, equal and
    equally hashed records, however they were built."""

    @pytest.mark.parametrize("field", ["key", "leaf_hash", "steps"])
    def test_proof_fields_cannot_be_assigned(self, binary_demo_tree, field):
        proof = prove(binary_demo_tree, "C")
        with pytest.raises(AttributeError):
            setattr(proof, field, getattr(proof, field))

    @pytest.mark.parametrize("field", ["position", "siblings"])
    def test_step_fields_cannot_be_assigned(self, binary_demo_tree, field):
        step = prove(binary_demo_tree, "C").steps[0]
        with pytest.raises(AttributeError):
            setattr(step, field, getattr(step, field))

    def test_equal_proofs_hash_equal(self, quad_demo_tree):
        for key in quad_demo_tree.leaf_keys():
            proof = prove(quad_demo_tree, key)
            received = MerkleProof.from_json_dict(json.loads(proof.to_json_bytes()))
            assert received == proof and received is not proof
            assert hash(received) == hash(proof)
            assert {proof, received, prove(quad_demo_tree, key)} == {proof}

    def test_copies_and_pickles_go_through_the_reader(self, quad_demo_tree):
        proof = prove(quad_demo_tree, "E")
        for copied in (copy.copy(proof), copy.deepcopy(proof), pickle.loads(pickle.dumps(proof))):
            assert copied == proof and copied.steps == proof.steps
            assert verify(copied, quad_demo_tree.root_hash(), 4, payload=b"E")
        assert repr(proof) == f"MerkleProof.from_bytes({proof.to_bytes()!r})"

    def test_non_string_key_not_written(self):
        # from_json_dict never yields such a key, and a hand-built proof
        # with one is refused when it is made
        with pytest.raises(MalformedProofError, match="cannot be encoded"):
            MerkleProof(["k"], b"\xff" * 32, ())


class TestVerificationCost:
    def test_balanced_binary_cost(self):
        tree = build_balanced(uniform_leaves("ABCDEFGHIJKLMNOP"), TreeConfig(2))
        cost = verification_cost(prove(tree, "A"))
        assert cost.hash_invocations == 4
        # the binary wire: 1 + 4 + 1 (version, key length, key) + 32 + 4 * (4 + 32)
        assert cost.proof_bytes == len(prove(tree, "A").to_bytes()) == 182

    def test_hot_leaf_half_cost(self, demo16):
        probs = dict(normalize_distribution(demo16))
        tree = tree_from_codes(huffman_codes(probs, 2))
        assert verification_cost(prove(tree, "A")).hash_invocations == 2

    def test_empty_proof_zero_cost(self):
        tree = build_balanced(uniform_leaves("A"), TreeConfig(2))
        assert verification_cost(prove(tree, "A")).hash_invocations == 0

    def test_expected_cost_equals_k_a(self):
        rng = random.Random(17)
        for _ in range(20):
            tree = random_tree(rng, rng.randint(1, 24), rng.choice([2, 3, 4]))
            report = discrepancy_report(tree)
            expected = sum(
                p * verification_cost(prove(tree, key)).hash_invocations
                for key, p in tree.probabilities.items()
            )
            assert expected == pytest.approx(report.k_a, abs=TOL)


def reference_wire(key: str, leaf_hash: bytes, steps) -> bytes:
    """The binary wire spelled field by field: the oracle for the writers."""
    key = key.encode("utf-8")
    wire = b"\x01" + len(key).to_bytes(4, "big") + key + leaf_hash
    for position, siblings in steps:
        wire += position.to_bytes(2, "big") + (len(siblings) // 32).to_bytes(2, "big") + siblings
    return wire


class TestBinaryWire:
    # binary_demo_tree's proof for H: its sibling A, then the sibling of
    # the node [A, H], under a root of
    # 79e6c501fd873647d7c02c65826da219fefaca347831f91294b7ba31bcf16225
    DEMO_H = bytes.fromhex(
        "01"  # version
        "00000001" "48"  # key length 1, "H"
        "cd7fb9e1db93ea4a59bbc6ae7c1bc4b21cc90c53955110659abed35c4af696cf"  # hash_leaf("H", b"H")
        "0001" "0001"  # position 1, one sibling
        "25a27d25e58db964e87c725758200a07ce98b01cbd2fbfefa5396ba937d4d5d5"  # hash_leaf("A", b"A")
        "0000" "0001"  # position 0, one sibling
        "bc5cd6336040ef9f0477d441b37801d5ed876b9146643f91300e5eb23ee55867"
    )

    def test_demo_proof_bytes_pinned(self, binary_demo_tree):
        proof = prove(binary_demo_tree, "H")
        assert proof.to_bytes() == self.DEMO_H
        assert proof.leaf_hash == hash_leaf("H", b"H")
        assert proof.steps[0].siblings == hash_leaf("A", b"A")
        assert binary_demo_tree.root_hash().hex().startswith("79e6c501")
        assert MerkleProof.from_bytes(self.DEMO_H) == proof
        assert verification_cost(proof).proof_bytes == len(self.DEMO_H) == 110

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.text(KEY_CHARS, max_size=6), min_size=1, max_size=32, unique=True),
        st.sampled_from([2, 3, 4, 16]),
        st.data(),
    )
    def test_round_trip_on_random_trees(self, seed, keys, m, data):
        rng = random.Random(seed)
        tree = random_tree(rng, len(keys), m, {key: 1.0 / len(keys) for key in keys})
        key = data.draw(st.sampled_from(keys))
        proof = prove(tree, key)
        wire = proof.to_bytes()
        assert wire == reference_wire(proof.key, proof.leaf_hash, proof.steps)
        received = MerkleProof.from_bytes(wire)
        assert received == proof and received.to_bytes() == wire
        assert type(received.leaf_hash) is bytes and all(type(s.siblings) is bytes for s in received.steps)
        assert verify(received, tree.root_hash(), m, payload=key.encode())
        assert verification_cost(proof).proof_bytes == len(wire)
        text = proof.to_json_bytes()
        assert text == b'{"wire_hex":"' + wire.hex().encode() + b'"}'
        assert MerkleProof.from_json_dict(json.loads(text)) == proof

    @pytest.mark.parametrize("m, prefix", [(2, "k"), (3, "\u00e9"), (4, "\U0001f600"), (16, "\u2028")])
    def test_every_byte_edit_raises_or_fails(self, m, prefix):
        # every single-byte flip (three masks), every truncation and an
        # appended byte (0x00 or 0xff): each is rejected as malformed or
        # fails to verify once the payload is bound; every accepted string
        # is written back unchanged
        tree = random_tree(random.Random(m), 12, m, {f"{prefix}{i}": 1 / 12 for i in range(12)})
        root, accepted = tree.root_hash(), 0
        for key in tree.leaf_keys()[:3]:
            wire, payload = prove(tree, key).to_bytes(), tree.leaf_node(key).payload
            edits = [wire[:i] + bytes([wire[i] ^ mask]) + wire[i + 1 :] for i in range(len(wire))
                     for mask in (0x01, 0x80, 0xFF)]
            edits += [wire[:i] for i in range(len(wire))] + [wire + b"\x00", wire + b"\xff"]
            for edited in edits:
                try:
                    received = MerkleProof.from_bytes(edited)
                except MalformedProofError:
                    continue
                accepted += 1
                assert received.to_bytes() == edited
                try:
                    assert verify(received, root, m, payload=payload) is False
                except MalformedProofError:
                    pass
        assert accepted > 0

    @pytest.mark.parametrize(
        "wire",
        [
            b"",
            b"\x00" + DEMO_H[1:],
            b"\x02" + DEMO_H[1:],
            b"{" + DEMO_H[1:],
            DEMO_H[:3],
            DEMO_H[:5],
            DEMO_H[:38 + 2],
            DEMO_H[:38 + 4 + 31],
            DEMO_H + b"\x00\x00\x00",
            DEMO_H + b"\x00\x00\x00\x01",
            b"\x01\xff\xff\xff\xff" + DEMO_H[5:],
            b"\x01\x00\x00\x00\x01\xff" + DEMO_H[6:],
            b"\x01\x00\x00\x00\x03\xed\xa0\x80" + DEMO_H[6:],  # an encoded lone surrogate
            b"\x01\x00\x00\x00\x02\xc1\x81" + DEMO_H[6:],  # an overlong "A"
        ],
        ids=["empty", "version-0", "version-2", "json-brace", "in-key-length", "no-key", "in-step-head",
             "step-past-end", "partial-step-head", "trailing-step-past-end", "key-length-past-end",
             "bad-utf8", "surrogate", "overlong"],
    )
    def test_malformed_wire_raises(self, wire):
        with pytest.raises(MalformedProofError):
            MerkleProof.from_bytes(wire)

    @pytest.mark.parametrize("wire", [bytearray(DEMO_H), memoryview(DEMO_H), DEMO_H.hex(), None])
    def test_wire_not_bytes_raises(self, wire):
        with pytest.raises(MalformedProofError, match="expected bytes"):
            MerkleProof.from_bytes(wire)

    def test_shapes_verify_rejects_still_round_trip(self):
        # position and count are checked by verify, which knows the arity,
        # as for a JSON proof; the reader still has one reading per string
        for steps in [(ProofStep(0, b""),), (ProofStep(7, b"\x01" * 32),), (ProofStep(65535, b"\xab" * 64),)]:
            proof = MerkleProof("k", b"\xff" * 32, steps)
            wire = proof.to_bytes()
            assert wire == reference_wire("k", b"\xff" * 32, steps) and MerkleProof.from_bytes(wire) == proof
            with pytest.raises(MalformedProofError):
                verify(proof, b"\x00" * 32, 4)

    def test_widest_node_encodes(self):
        # TreeConfig caps m at MAX_ARITY, so every proof of a built tree fits
        # the u16 position and sibling count: here both are 65,535
        keys = [f"k{i}" for i in range(MAX_ARITY)]
        tree = build_balanced(uniform_leaves(keys), TreeConfig(MAX_ARITY))
        proof = prove(tree, keys[-1])
        assert proof.steps[0].position == MAX_ARITY - 1
        assert verification_cost(proof).proof_bytes == 37 + len(keys[-1]) + 4 + 32 * (MAX_ARITY - 1)
        assert MerkleProof.from_bytes(proof.to_bytes()) == proof
        assert verify(proof, tree.root_hash(), MAX_ARITY, payload=keys[-1].encode())

    @pytest.mark.parametrize(
        "key, leaf_hash, steps",
        [
            (["k"], b"\xff" * 32, ()),
            ("\udc00", b"\xff" * 32, ()),
            ("k", b"\xff" * 31, ()),
            ("k", "ff" * 32, ()),
            ("k", b"\xff" * 32, (ProofStep(0, b"\x01" * 33),)),
            ("k", b"\xff" * 32, (ProofStep(-1, b"\x01" * 32),)),
            ("k", b"\xff" * 32, (ProofStep(65536, b"\x01" * 32),)),
            ("k", b"\xff" * 32, (ProofStep(1.0, b"\x01" * 32),)),
            ("k", b"\xff" * 32, (ProofStep(True, b"\x01" * 32),)),
            ("k", b"\xff" * 32, (ProofStep(False, b"\x01" * 32),)),
            ("k", b"\xff" * 32, (ProofStep(0, "01" * 32),)),
            ("k", b"\xff" * 32, ((0,),)),
        ],
        ids=["list-key", "surrogate-key", "short-leaf-hash", "str-leaf-hash", "partial-digest",
             "negative-position", "position-past-u16", "float-position", "true-position", "false-position",
             "str-siblings", "one-item-step"],
    )
    def test_unencodable_proof_raises(self, key, leaf_hash, steps):
        with pytest.raises(MalformedProofError, match="cannot be encoded"):
            MerkleProof(key, leaf_hash, steps).to_bytes()


class TestKeyBinding:
    """``verify(..., payload=)`` binds the proof to its key and payload; the
    3-argument call shows only that the leaf hash lies under the root."""

    def test_honest_proof_binds(self, quad_demo_tree):
        root = quad_demo_tree.root_hash()
        for key in quad_demo_tree.leaf_keys():
            proof = prove(quad_demo_tree, key)
            assert verify(proof, root, 4, payload=key.encode()) is True
            assert verify(proof, root, 4, payload=key.encode() + b"!") is False

    def test_relabelled_proof_fails(self, quad_demo_tree):
        root = quad_demo_tree.root_hash()
        proof = prove(quad_demo_tree, "E")
        relabelled = MerkleProof("F", proof.leaf_hash, proof.steps)
        assert verify(relabelled, root, 4) is True  # the unbound call cannot tell
        assert verify(relabelled, root, 4, payload=b"E") is False
        assert verify(relabelled, root, 4, payload=b"F") is False

    def test_proof_cut_one_step_short_fails(self, binary_demo_tree):
        root = binary_demo_tree.root_hash()
        proof = prove(binary_demo_tree, "C")
        parent = binary_demo_tree.node(binary_demo_tree.parent_id(binary_demo_tree.leaf_node("C").node_id))
        short = MerkleProof("C", parent.hash, proof.steps[1:])
        assert verify(short, root, 2) is True  # an internal node's hash stands in for the leaf
        assert verify(short, root, 2, payload=b"C") is False

    def test_three_argument_call_unchanged(self, binary_demo_tree):
        # positional, as the benchmark workloads call it; payload is keyword-only
        proof = prove(binary_demo_tree, "C")
        assert verify(proof, binary_demo_tree.root_hash(), 2) is True
        assert verify(proof, b"\x00" * 32, 2) is False
        with pytest.raises(TypeError):
            verify(proof, binary_demo_tree.root_hash(), 2, b"C")

    def test_root_mismatch_fails_even_with_the_right_payload(self, binary_demo_tree):
        assert verify(prove(binary_demo_tree, "C"), b"\x00" * 32, 2, payload=b"C") is False

    @pytest.mark.parametrize("key, payload", [(["C"], b"C"), ("\udc00", b"C"), ("C", "C")],
                             ids=["list-key", "surrogate-key", "str-payload"])
    def test_unhashable_key_or_payload_raises(self, binary_demo_tree, key, payload):
        # a key the wire cannot carry is refused when the proof is made
        proof = prove(binary_demo_tree, "C")
        with pytest.raises(MalformedProofError):
            relabelled = MerkleProof(key, proof.leaf_hash, proof.steps)
            verify(relabelled, binary_demo_tree.root_hash(), 2, payload=payload)


class TestWireSize:
    def test_serve_tree_bytes_per_proof(self):
        # Zipf(1.1), n=16384, m=16 Huffman tree, 10^4 seeded accesses: the
        # binary wire averages at most 1150 B and half the JSON view
        n = 16384
        probs = dict(zip((f"k{i:05d}" for i in range(n)), zipf_distribution(n, 1.1)))
        tree = tree_from_codes(huffman_codes(probs, 16))
        sizes = {}
        binary = readable = 0
        for key in generate_trace(probs, 10**4, 1).events:
            if key not in sizes:
                proof = prove(tree, key)
                sizes[key] = verification_cost(proof).proof_bytes, len(proof.to_json_bytes())
            binary += sizes[key][0]
            readable += sizes[key][1]
        assert binary / 10**4 <= 1150
        assert binary <= 0.5 * readable


class TestFrozenVectors:
    """The library reproduces ``fixtures/vectors.json``, which
    ``test_vectors.py`` re-derives without it."""

    def test_library_writes_the_vector_file(self, fixtures_dir, binary_demo_tree, quad_demo_tree):
        trees = {"binary_demo_tree": binary_demo_tree, "quad_demo_tree": quad_demo_tree}
        frozen = json.loads((fixtures_dir / "vectors.json").read_text(encoding="utf-8"))
        assert encoding_vectors(trees) == frozen

    def test_library_reads_and_verifies_the_vector_proofs(self, fixtures_dir, binary_demo_tree, quad_demo_tree):
        trees = {"binary_demo_tree": binary_demo_tree, "quad_demo_tree": quad_demo_tree}
        for vector in json.loads((fixtures_dir / "vectors.json").read_text(encoding="utf-8"))["proofs"]:
            wire, root = bytes.fromhex(vector["wire_hex"]), bytes.fromhex(vector["root_hex"])
            proof = MerkleProof.from_bytes(wire)
            assert proof == prove(trees[vector["tree"]], vector["key"]) and proof.to_bytes() == wire
            assert verify(proof, root, vector["arity"], payload=bytes.fromhex(vector["payload_hex"]))
