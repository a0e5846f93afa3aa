"""Proof generation, verification, mutation fuzzing, and cost accounting."""

import json
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
    verification_cost,
    verify,
)
import adaptive_merkle.proofs as proofs_mod
from adaptive_merkle.proofs import ProofStep
from adaptive_merkle.tree import hash_internal
from adaptive_merkle.workload import normalize_distribution

from helpers import old_format_step, random_tree, split_digests

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
        # after the siblings
        for position in [-1, 3, 4]:
            step = ProofStep(position, b"\x00" * 32 + b"\x22" * 32)
            proof = MerkleProof("A", b"\x11" * 32, (step,))
            with pytest.raises(MalformedProofError):
                verify(proof, b"\x00" * 32, 4)

    def test_malformed_digest_size(self):
        # sibling bytes that do not split into whole 32-byte digests
        for size in [1, 31, 33, 63, 65]:
            proof = MerkleProof("A", b"\x11" * 32, (ProofStep(0, b"\x00" * size),))
            with pytest.raises(MalformedProofError):
                verify(proof, b"\x00" * 32, 4)
        with pytest.raises(MalformedProofError):
            verify(MerkleProof("A", b"\x11" * 31, ()), b"\x11" * 31, 2)
        with pytest.raises(MalformedProofError):
            verify(MerkleProof("A", b"\x11" * 32, ()), b"\x11" * 31, 2)

    @pytest.mark.parametrize("position", [1.0, True])
    def test_position_not_int_raises_malformed(self, position):
        # both pass 0 <= position <= count; a float cannot slice the siblings
        proof = MerkleProof("A", b"\x11" * 32, (ProofStep(position, b"\x00" * 64),))
        with pytest.raises(MalformedProofError, match="expected int"):
            verify(proof, b"\x00" * 32, 4)

    @pytest.mark.parametrize(
        "siblings",
        [(b"\x00" * 32,), [b"\x00" * 32], bytearray(32), "00" * 32, None],
        ids=["tuple", "list", "bytearray", "hex-str", "none"],
    )
    def test_siblings_not_bytes_raise_malformed(self, siblings):
        proof = MerkleProof("A", b"\x11" * 32, (ProofStep(0, siblings),))
        with pytest.raises(MalformedProofError, match="expected bytes"):
            verify(proof, b"\x00" * 32, 2)

    def test_wrong_payload_never_verifies(self):
        # soundness fuzz: proofs for altered leaf data must fail
        rng = random.Random(13)
        failures = 0
        for _ in range(1000):
            tree = random_tree(rng, rng.randint(2, 16), rng.choice([2, 3, 4]))
            key = rng.choice(tree.leaf_keys())
            proof = prove(tree, key)
            other = tree.clone()
            node = other.leaf_node(key)
            node.payload = node.payload + b"!"
            other.recompute_all_hashes()
            assert not verify(proof, other.root_hash(), tree.config.arity)
            failures += 1
        assert failures == 1000


class TestWireFormat:
    def test_json_round_trip(self, binary_demo_tree):
        proof = prove(binary_demo_tree, "C")
        data = json.loads(proof.to_json_bytes())
        assert set(data) == {"key", "leaf_hash_hex", "steps"}
        restored = MerkleProof.from_json_dict(data)
        assert restored == proof
        assert verify(restored, binary_demo_tree.root_hash(), 2)

    def test_unparseable_json_raises_malformed(self):
        with pytest.raises(MalformedProofError):
            MerkleProof.from_json_dict({"key": "A"})

    def test_steps_hold_position_and_digests_only(self, quad_demo_tree):
        data = json.loads(prove(quad_demo_tree, "E").to_json_bytes())
        assert data["steps"]
        for step in data["steps"]:
            assert set(step) == {"position", "siblings"}
            text = step["siblings"]
            assert isinstance(text, str) and len(text) % 64 == 0 and text

    @pytest.mark.parametrize("position", [True, 1.7, "1"])
    def test_non_integer_position_raises_malformed(self, binary_demo_tree, position):
        data = json.loads(prove(binary_demo_tree, "C").to_json_bytes())
        data["steps"][0]["position"] = position
        with pytest.raises(MalformedProofError):
            MerkleProof.from_json_dict(data)

    def test_non_string_key_raises_malformed(self, binary_demo_tree):
        data = json.loads(prove(binary_demo_tree, "C").to_json_bytes())
        data["key"] = ["C"]
        with pytest.raises(MalformedProofError):
            MerkleProof.from_json_dict(data)

    def test_old_format_proof_raises_malformed(self, binary_demo_tree):
        for form in ["hex-list", "index-objects"]:
            data = json.loads(prove(binary_demo_tree, "C").to_json_bytes())
            data["steps"] = [old_format_step(step, form) for step in data["steps"]]
            with pytest.raises(MalformedProofError):
                MerkleProof.from_json_dict(data)

    @pytest.mark.parametrize("field", ["leaf_hash_hex", "sibling"])
    @pytest.mark.parametrize(
        "edit",
        [str.upper, lambda h: h[:2] + " " + h[2:], lambda h: h[:2] + "\n" + h[2:], lambda h: h + "\n"],
        ids=["upper", "space", "newline", "trailing-newline"],
    )
    def test_non_canonical_hex_raises_malformed(self, binary_demo_tree, field, edit):
        # each decodes to the same digest, but to_json_bytes writes only the
        # lowercase, unspaced form: one reading per proof
        data = json.loads(prove(binary_demo_tree, "C").to_json_bytes())
        if field == "leaf_hash_hex":
            holder, index = data, "leaf_hash_hex"
        else:
            holder, index = data["steps"][-1], "siblings"
        edited = edit(holder[index])
        assert edited != holder[index] and bytes.fromhex(edited) == bytes.fromhex(holder[index])
        holder[index] = edited
        with pytest.raises(MalformedProofError, match="non-canonical"):
            MerkleProof.from_json_dict(data)

    @pytest.mark.parametrize("where", ["top", "step"])
    def test_unknown_field_raises_malformed(self, binary_demo_tree, where):
        # a proof that is read is written back out byte for byte, so no
        # field may be dropped on the way
        data = json.loads(prove(binary_demo_tree, "C").to_json_bytes())
        (data if where == "top" else data["steps"][-1])["junk"] = 1
        with pytest.raises(MalformedProofError, match="unknown"):
            MerkleProof.from_json_dict(data)

    def test_lone_surrogate_key_raises_malformed(self, binary_demo_tree):
        # valid JSON, but no UTF-8 string: no tree can hold this key
        wire = prove(binary_demo_tree, "C").to_json_bytes().replace(b'"key":"C"', b'"key":"\\udc00"')
        data = json.loads(wire)
        assert data["key"] == "\udc00"
        with pytest.raises(MalformedProofError):
            MerkleProof.from_json_dict(data)

    @pytest.mark.parametrize("steps", [{}, "", None])
    def test_steps_not_a_list_raises_malformed(self, binary_demo_tree, steps):
        data = json.loads(prove(binary_demo_tree, "A").to_json_bytes())
        data["steps"] = steps
        with pytest.raises(MalformedProofError):
            MerkleProof.from_json_dict(data)

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
    rejected as malformed. The key is not bound by the proof yet, so edits
    confined to it are out of scope here."""

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
        bad = MerkleProof(proof.key, leaf_hash, tuple(steps))
        assert bad != proof
        try:
            assert verify(bad, tree.root_hash(), m) is False
        except MalformedProofError:
            pass


# Keys with characters JSON must escape (quote, backslash, control), and
# non-ASCII, astral and line-separator characters it writes as \uXXXX escapes.
KEY_CHARS = st.one_of(
    st.sampled_from('"\\\x00\x1f\x7f/\u00e9\u2028\U0001f600'), st.characters(exclude_categories=["Cs"])
)


def reference_json_bytes(proof: MerkleProof) -> bytes:
    """The wire format as json.dumps spells it: the oracle for the writer."""
    data = {
        "key": proof.key,
        "leaf_hash_hex": proof.leaf_hash.hex(),
        "steps": [{"position": s.position, "siblings": s.siblings.hex()} for s in proof.steps],
    }
    return json.dumps(data, separators=(",", ":")).encode()


class TestWriterOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.text(KEY_CHARS, max_size=6), min_size=1, max_size=32, unique=True),
        st.sampled_from([2, 3, 4, 16]),
        st.data(),
    )
    def test_writer_matches_json_dumps(self, seed, keys, m, data):
        rng = random.Random(seed)
        probs = {key: 1.0 / len(keys) for key in keys}
        tree = random_tree(rng, len(keys), m, probs)
        proof = prove(tree, data.draw(st.sampled_from(keys)))
        wire = proof.to_json_bytes()
        assert wire == reference_json_bytes(proof)
        assert MerkleProof.from_json_dict(json.loads(wire)) == proof

    def test_hand_built_steps_match_json_dumps(self):
        # shapes prove never yields still get the same bytes as json.dumps
        for steps in [(), (ProofStep(0, b""),), (ProofStep(2, b"\x01" * 3), ProofStep(0, b"\xab" * 64))]:
            proof = MerkleProof("k", b"\xff" * 32, steps)
            assert proof.to_json_bytes() == reference_json_bytes(proof)


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

    def test_non_string_key_not_written(self):
        # from_json_dict never yields such a key: a hand-built one cannot verify
        proof = MerkleProof(["k"], b"\xff" * 32, ())
        with pytest.raises(TypeError):
            proof.to_json_bytes()


class TestVerificationCost:
    def test_balanced_binary_cost(self):
        tree = build_balanced(uniform_leaves("ABCDEFGHIJKLMNOP"), TreeConfig(2))
        cost = verification_cost(prove(tree, "A"))
        assert cost.hash_invocations == 4
        assert cost.proof_bytes == len(prove(tree, "A").to_json_bytes())

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
