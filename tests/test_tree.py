"""Tree construction, mutations, hashing, and snapshots."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_merkle import (
    AdaptiveTree,
    DuplicateKeyError,
    FormatError,
    ProbabilityError,
    StructureError,
    TreeConfig,
    UnknownKeyError,
    build_balanced,
)
import adaptive_merkle.tree as tree_mod
from adaptive_merkle.tree import hash_internal, hash_leaf

from helpers import MALFORMED_TOP_LEVEL, malform, random_tree, walked_depths


def make_leaves(keys, probs=None):
    if probs is None:
        probs = [1.0 / len(keys)] * len(keys)
    return [(k, k.encode(), p) for k, p in zip(keys, probs)]


class TestBuildBalanced:
    def test_16_leaves_binary_all_depth_4(self):
        tree = build_balanced(make_leaves("ABCDEFGHIJKLMNOP"), TreeConfig(2))
        assert set(tree.depths().values()) == {4}
        assert tree.leaf_keys() == list("ABCDEFGHIJKLMNOP")

    def test_single_leaf_root_is_leaf(self):
        tree = build_balanced(make_leaves("A", [1.0]), TreeConfig(2))
        assert tree.depth("A") == 0
        assert tree.root_hash() == hash_leaf("A", b"A")

    def test_5_leaves_arity_4_depth_multiset(self):
        tree = build_balanced(make_leaves("ABCDE"), TreeConfig(4))
        assert sorted(tree.depths().values()) == [1, 1, 1, 2, 2]
        assert tree.leaf_count() == 5
        assert tree.kraft_sum() <= 1 + 1e-12

    def test_5_leaves_output_among_minimal_height_trees(self):
        # Oracle: enumerate every 4-ary tree shape over 5 ordered leaves and
        # keep the minimal-height ones; the builder's multiset must be there.
        def shapes(n):
            if n == 1:
                yield 0, (0,)
                return
            for parts in compositions(n, 4):
                if len(parts) < 2:
                    continue
                for subs in itertools.product(*(shapes(p) for p in parts)):
                    height = 1 + max(s[0] for s in subs)
                    depths = tuple(sorted(d + 1 for s in subs for d in s[1]))
                    yield height, depths

        def compositions(n, max_parts):
            if max_parts == 1:
                yield (n,)
                return
            for head in range(1, n + 1):
                if head == n:
                    yield (n,)
                else:
                    for rest in compositions(n - head, max_parts - 1):
                        yield (head,) + rest

        all_shapes = set(shapes(5))
        min_height = min(h for h, _ in all_shapes)
        minimal = {depths for h, depths in all_shapes if h == min_height}
        tree = build_balanced(make_leaves("ABCDE"), TreeConfig(4))
        assert tuple(sorted(tree.depths().values())) in minimal

    def test_rejects_duplicate_keys(self):
        with pytest.raises(DuplicateKeyError):
            build_balanced(make_leaves("AA"), TreeConfig(2))

    def test_rejects_bad_sum(self):
        with pytest.raises(ProbabilityError):
            build_balanced(make_leaves("AB", [0.5, 0.4]), TreeConfig(2))

    def test_rejects_empty(self):
        with pytest.raises(StructureError):
            build_balanced([], TreeConfig(2))


class TestSplitLeaf:
    def test_two_leaf_split(self):
        tree = build_balanced(make_leaves("AB", [0.5, 0.5]), TreeConfig(2))
        tree.split_leaf("B", "C", b"C")
        assert tree.depths() == {"A": 1, "B": 2, "C": 2}

    def test_split_root_leaf(self):
        tree = build_balanced(make_leaves("A", [1.0]), TreeConfig(2))
        tree.split_leaf("A", "B", b"B")
        assert tree.depths() == {"A": 1, "B": 1}

    def test_split_preserves_kraft(self):
        rng = random.Random(11)
        for _ in range(20):
            tree = random_tree(rng, rng.randint(2, 12), rng.choice([2, 3, 4]))
            tree.split_leaf(rng.choice(tree.leaf_keys()), "new", b"x")
            assert tree.kraft_sum() <= 1 + 1e-12

    def test_other_depths_unchanged(self):
        tree = build_balanced(make_leaves("ABCDE"), TreeConfig(2))
        before = tree.depths()
        tree.split_leaf("C", "X", b"X")
        after = tree.depths()
        assert after["C"] == before["C"] + 1
        assert after["X"] == after["C"]
        for key in "ABDE":
            assert after[key] == before[key]

    def test_errors(self):
        tree = build_balanced(make_leaves("AB", [0.5, 0.5]), TreeConfig(2))
        with pytest.raises(UnknownKeyError):
            tree.split_leaf("Z", "C", b"")
        with pytest.raises(DuplicateKeyError):
            tree.split_leaf("A", "B", b"")


class TestAttachLeaf:
    def test_attach_at_root(self):
        tree = build_balanced(make_leaves("AB", [0.5, 0.5]), TreeConfig(4))
        tree.attach_leaf(tree.root_id, "C", b"C")
        assert tree.depths() == {"A": 1, "B": 1, "C": 1}

    def test_attach_to_full_node_fails(self):
        tree = build_balanced(make_leaves("AB", [0.5, 0.5]), TreeConfig(2))
        with pytest.raises(StructureError):
            tree.attach_leaf(tree.root_id, "C", b"C")

    def test_attach_to_leaf_fails(self):
        tree = build_balanced(make_leaves("AB", [0.5, 0.5]), TreeConfig(4))
        leaf_id = tree.leaf_node("A").node_id
        with pytest.raises(StructureError):
            tree.attach_leaf(leaf_id, "C", b"C")

    def test_attach_matches_fresh_build_of_same_shape(self):
        tree = build_balanced(make_leaves("AB", [0.5, 0.5]), TreeConfig(4))
        tree.attach_leaf(tree.root_id, "C", b"C")
        rebuilt = AdaptiveTree.from_nested(
            ["A", "B", "C"], {"A": 0.5, "B": 0.5, "C": 0.0}, TreeConfig(4)
        )
        assert tree.root_hash() == rebuilt.root_hash()

    def test_existing_depths_unchanged(self):
        rng = random.Random(5)
        for _ in range(20):
            tree = random_tree(rng, rng.randint(2, 12), 4)
            open_nodes = tree.open_internal_ids()
            if not open_nodes:
                continue
            before = tree.depths()
            tree.attach_leaf(rng.choice(open_nodes), "new", b"")
            after = tree.depths()
            assert all(after[k] == before[k] for k in before)


class TestSwapLeaves:
    def test_example_swap_depths(self, binary_demo_tree):
        binary_demo_tree.swap_leaves("B", "H")
        depths = binary_demo_tree.depths()
        assert depths["B"] == 2 and depths["H"] == 3

    def test_swap_with_itself_fails(self, binary_demo_tree):
        with pytest.raises(StructureError):
            binary_demo_tree.swap_leaves("B", "B")

    def test_unknown_key_fails(self, binary_demo_tree):
        with pytest.raises(UnknownKeyError):
            binary_demo_tree.swap_leaves("B", "Z")

    def test_double_swap_restores_snapshot(self, binary_demo_tree):
        before = json.dumps(binary_demo_tree.to_snapshot(), sort_keys=True)
        binary_demo_tree.swap_leaves("C", "H")
        binary_demo_tree.swap_leaves("C", "H")
        after = json.dumps(binary_demo_tree.to_snapshot(), sort_keys=True)
        assert before == after

    def test_depth_multiset_invariant(self):
        rng = random.Random(23)
        for _ in range(30):
            tree = random_tree(rng, rng.randint(3, 20), rng.choice([2, 3, 4]))
            before = sorted(tree.depths().values())
            a, b = rng.sample(tree.leaf_keys(), 2)
            da, db = tree.depth(a), tree.depth(b)
            tree.swap_leaves(a, b)
            assert sorted(tree.depths().values()) == before
            assert tree.depth(a) == db and tree.depth(b) == da


class TestSetProbabilities:
    def test_accepts_iteration_2_distribution(self):
        tree = build_balanced(make_leaves("ABCD"), TreeConfig(2))
        tree.set_probabilities({"A": 0.5, "B": 0.125, "C": 0.25, "D": 0.125})
        assert tree.probabilities["A"] == 0.5

    def test_rejects_bad_sum(self):
        tree = build_balanced(make_leaves("AB", [0.5, 0.5]), TreeConfig(2))
        with pytest.raises(ProbabilityError):
            tree.set_probabilities({"A": 0.5, "B": 0.4})

    def test_rejects_key_mismatch(self):
        tree = build_balanced(make_leaves("AB", [0.5, 0.5]), TreeConfig(2))
        with pytest.raises(ProbabilityError):
            tree.set_probabilities({"A": 0.5, "Z": 0.5})

    def test_rejects_negative(self):
        tree = build_balanced(make_leaves("AB", [0.5, 0.5]), TreeConfig(2))
        with pytest.raises(ProbabilityError):
            tree.set_probabilities({"A": 1.5, "B": -0.5})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, bad):
        tree = build_balanced(make_leaves("AB", [0.5, 0.5]), TreeConfig(2))
        with pytest.raises(ProbabilityError):
            tree.set_probabilities({"A": bad, "B": 1.0})

    def test_uniform_accepted(self):
        tree = build_balanced(make_leaves("ABCDEFG"), TreeConfig(2))
        tree.set_probabilities({k: 1 / 7 for k in "ABCDEFG"})


class TestRootHash:
    def test_single_leaf_identity(self):
        tree = build_balanced(make_leaves("A", [1.0]), TreeConfig(2))
        assert tree.root_hash() == hash_leaf("A", b"A")

    def test_two_leaf_hash_rule(self):
        tree = build_balanced(make_leaves("AB", [0.5, 0.5]), TreeConfig(2))
        expected = hash_internal([hash_leaf("A", b"A"), hash_leaf("B", b"B")])
        assert tree.root_hash() == expected

    def test_independent_of_probabilities(self):
        t1 = build_balanced(make_leaves("ABCD"), TreeConfig(2))
        t2 = build_balanced(make_leaves("ABCD", [0.7, 0.1, 0.1, 0.1]), TreeConfig(2))
        assert t1.root_hash() == t2.root_hash()
        t1.set_probabilities({"A": 0.97, "B": 0.01, "C": 0.01, "D": 0.01})
        assert t1.root_hash() == t2.root_hash()


class TestHashLocality:
    def test_incremental_equals_full_recompute(self):
        rng = random.Random(31)
        for _ in range(25):
            tree = random_tree(rng, rng.randint(2, 24), rng.choice([2, 3, 4]))
            op = rng.choice(["split", "attach", "swap"])
            if op == "split":
                tree.split_leaf(rng.choice(tree.leaf_keys()), "new", b"n")
            elif op == "attach":
                nodes = tree.open_internal_ids()
                if nodes:
                    tree.attach_leaf(rng.choice(nodes), "new", b"n")
            elif tree.leaf_count() >= 2:
                a, b = rng.sample(tree.leaf_keys(), 2)
                tree.swap_leaves(a, b)
            incremental = tree.root_hash()
            tree.recompute_all_hashes()
            assert tree.root_hash() == incremental

    def test_mutations_preserve_payload_set(self):
        rng = random.Random(37)
        tree = random_tree(rng, 10, 3)
        payloads = lambda t: sorted(
            n.payload for n in t.nodes.values() if n.is_leaf
        )
        before = payloads(tree)
        tree.swap_leaves(*rng.sample(tree.leaf_keys(), 2))
        assert payloads(tree) == before
        tree.split_leaf(tree.leaf_keys()[0], "zz", b"zz")
        assert payloads(tree) == sorted(before + [b"zz"])


def apply_ops(tree, ops, check=None):
    """Apply (kind, i, j) mutations, choosing targets by index modulo the
    current leaves or open nodes; calls ``check(tree)`` after each one."""
    for n, (kind, i, j) in enumerate(ops):
        keys = tree.leaf_keys()
        open_nodes = tree.open_internal_ids()
        if kind == "attach" and open_nodes:
            tree.attach_leaf(open_nodes[i % len(open_nodes)], f"x{n:03d}", b"x")
        elif kind == "swap" and len(keys) >= 2:
            a, b = keys[i % len(keys)], keys[j % len(keys)]
            if a == b:
                continue
            tree.swap_leaves(a, b)
        else:
            tree.split_leaf(keys[i % len(keys)], f"x{n:03d}", b"x")
        if check is not None:
            check(tree)


mutation_ops = st.lists(
    st.tuples(st.sampled_from(["split", "attach", "swap"]), st.integers(0, 999), st.integers(0, 999)),
    max_size=30,
)


class TestDepthIndex:
    @given(st.sampled_from([2, 3, 4, 16]), st.integers(1, 12), mutation_ops, st.randoms())
    @settings(max_examples=80, deadline=None)
    def test_matches_walk_after_mutations_clone_and_snapshot(self, m, n, ops, rnd):
        tree = random_tree(random.Random(rnd.randint(0, 2**32)), n, m)

        def check(t):
            assert t.depths() == walked_depths(t)
            for key in t.leaf_keys():
                assert t.depth(key) == walked_depths(t)[key]

        check(tree)
        apply_ops(tree, ops, check)
        tree.set_probabilities({key: 1 / tree.leaf_count() for key in tree.leaf_keys()})
        tree.validate()
        copy = tree.clone()
        loaded = AdaptiveTree.from_snapshot(json.loads(json.dumps(tree.to_snapshot())))
        for other in (copy, loaded):
            other.validate()
            assert other.depths() == walked_depths(tree)
        copy.split_leaf(copy.leaf_keys()[0], "fresh", b"")
        assert tree.depths() == walked_depths(tree)  # the clone shares no index

    @pytest.mark.parametrize("corrupt", ["leaf", "internal", "root", "missing", "extra"])
    def test_validate_rejects_corrupted_entry(self, binary_demo_tree, corrupt):
        tree = binary_demo_tree
        index = tree._depth
        if corrupt == "leaf":
            index[tree.leaf_node("A").node_id] += 1
        elif corrupt == "internal":
            index[tree.parent_id(tree.leaf_node("C").node_id)] -= 1
        elif corrupt == "root":
            index[tree.root_id] = 1
        elif corrupt == "missing":
            del index[tree.leaf_node("G").node_id]
        else:
            index["n999"] = 3
        with pytest.raises(StructureError, match="depth index"):
            tree.validate()


class TestRehashCount:
    """A mutation hashes exactly the internal nodes on the changed root
    path(s), each once, and lands on the root a full rehash gives."""

    @staticmethod
    def path_up(tree, node_id):
        """node_id and every node above it, found by climbing parent pointers."""
        out = []
        while node_id is not None:
            out.append(node_id)
            node_id = tree.parent_id(node_id)
        return out

    @given(st.sampled_from([2, 3, 4, 16]), st.integers(1, 40), st.sampled_from(["split", "attach", "swap"]),
           st.randoms())
    @settings(max_examples=120, deadline=None)
    def test_hashes_only_the_affected_paths(self, m, n, kind, rnd):
        rng = random.Random(rnd.randint(0, 2**32))
        tree = random_tree(rng, n, m)
        keys = tree.leaf_keys()
        open_nodes = tree.open_internal_ids()
        above = lambda key: self.path_up(tree, tree.leaf_node(key).node_id)[1:]
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree_mod, "hash_internal", lambda hashes: calls.append(1) or hash_internal(hashes))
            if kind == "attach" and open_nodes:
                parent = rng.choice(open_nodes)
                expected = len(self.path_up(tree, parent))
                tree.attach_leaf(parent, "new", b"n")
            elif kind == "swap" and n >= 2:
                a, b = rng.sample(keys, 2)
                expected = len(set(above(a)) | set(above(b)))
                tree.swap_leaves(a, b)
            else:
                target = rng.choice(keys)
                expected = 1 + len(above(target))  # the new internal node, then the old path
                tree.split_leaf(target, "new", b"n")
        assert len(calls) == expected
        full = tree.clone()
        full.recompute_all_hashes()
        assert tree.root_hash() == full.root_hash()


class TestStructureInvariants:
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=2, max_value=5), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_random_trees_validate(self, n, m, rnd):
        rng = random.Random(rnd.randint(0, 2**32))
        tree = random_tree(rng, n, m)
        tree.validate()
        assert tree.kraft_sum() <= 1 + 1e-12
        depths = tree.depths()
        assert len(depths) == n
        # every node except the root reachable exactly once via validate()

    def test_arity_bounds_enforced(self):
        with pytest.raises(StructureError):
            TreeConfig(1)
        with pytest.raises(StructureError):
            AdaptiveTree.from_nested(["A", "B", "C"], {"A": 0.5, "B": 0.25, "C": 0.25}, TreeConfig(2))

    def test_single_child_internal_rejected(self):
        with pytest.raises(StructureError):
            AdaptiveTree.from_nested([["A", "B"]], {"A": 0.5, "B": 0.5}, TreeConfig(2))

    def test_from_nested_deep_chain(self):
        # deeper than Python's default recursion limit; the root hash is
        # recomputed bottom-up by hand
        keys = [f"k{i:04d}" for i in range(1501)]
        nested, digest = keys[-1], hash_leaf(keys[-1], keys[-1].encode())
        for key in reversed(keys[:-1]):
            nested = [key, nested]
            digest = hash_internal([hash_leaf(key, key.encode()), digest])
        tree = AdaptiveTree.from_nested(nested, {key: 1 / len(keys) for key in keys}, TreeConfig(2))
        tree.validate()
        assert tree.depth(keys[-1]) == 1500
        assert tree.leaf_keys() == keys
        assert tree.root_hash() == digest


class TestSnapshots:
    def test_round_trip_preserves_root_hash(self, tmp_path):
        rng = random.Random(41)
        for i in range(10):
            tree = random_tree(rng, rng.randint(1, 20), rng.choice([2, 4, 16]))
            path = tmp_path / f"snap{i}.json"
            tree.save(path)
            loaded = AdaptiveTree.load(path)
            assert loaded.root_hash() == tree.root_hash()
            assert loaded.depths() == tree.depths()
            assert loaded.probabilities == tree.probabilities

    def test_snapshot_shape(self, binary_demo_tree):
        snap = binary_demo_tree.to_snapshot()
        assert snap["config"] == {"arity": 2, "hash": "sha-256"}
        assert set(snap) == {"config", "nodes", "root_id", "probabilities"}
        kinds = {node["kind"] for node in snap["nodes"]}
        assert kinds == {"leaf", "internal"}
        for node in snap["nodes"]:
            if node["kind"] == "leaf":
                assert set(node) == {"id", "kind", "key", "payload_hex", "hash_hex"}
            else:
                assert set(node) == {"id", "kind", "children", "hash_hex"}

    def test_deep_chain_round_trip(self, tmp_path):
        # deeper than Python's default recursion limit
        tree = build_balanced(make_leaves(["k0000"]), TreeConfig(2))
        for i in range(1, 1201):
            tree.split_leaf("k0000", f"k{i:04d}", b"")
        path = tmp_path / "chain.json"
        tree.save(path)
        loaded = AdaptiveTree.load(path)
        assert loaded.root_hash() == tree.root_hash()
        assert loaded.depths() == tree.depths()
        assert loaded.depth("k0000") == 1200

    def test_only_sha256_snapshots_load(self, binary_demo_tree):
        snap = binary_demo_tree.to_snapshot()
        snap["config"]["hash"] = "md5"
        with pytest.raises(StructureError):
            AdaptiveTree.from_snapshot(snap)

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            ("leaf", "id", None),
            ("leaf", "kind", None),
            ("leaf", "key", None),
            ("leaf", "payload_hex", None),
            ("leaf", "hash_hex", None),
            ("internal", "children", None),
            ("leaf", "payload_hex", "not hex"),
            ("leaf", "key", 7),
            ("leaf", "id", ["n1"]),
            ("internal", "children", 3),
            ("internal", "hash_hex", 0),
        ],
    )
    def test_malformed_node_raises_format_error(self, binary_demo_tree, kind, field, value):
        # value None: the field is missing altogether
        snap = binary_demo_tree.to_snapshot()
        node = next(n for n in snap["nodes"] if n["kind"] == kind)
        if value is None:
            del node[field]
        else:
            node[field] = value
        with pytest.raises(FormatError):
            AdaptiveTree.from_snapshot(snap)

    @pytest.mark.parametrize("field, value", MALFORMED_TOP_LEVEL)
    def test_malformed_top_level_raises_format_error(self, binary_demo_tree, field, value):
        snap = malform(binary_demo_tree.to_snapshot(), field, value)
        with pytest.raises(FormatError):
            AdaptiveTree.from_snapshot(snap)

    def test_tampered_hash_rejected(self, tmp_path, binary_demo_tree):
        snap = binary_demo_tree.to_snapshot()
        snap["nodes"][0]["hash_hex"] = "00" * 32
        with pytest.raises(StructureError):
            AdaptiveTree.from_snapshot(snap)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_probability_rejected(self, binary_demo_tree, bad):
        snap = binary_demo_tree.to_snapshot()
        snap["probabilities"]["A"] = bad
        with pytest.raises(ProbabilityError):
            AdaptiveTree.from_snapshot(json.loads(json.dumps(snap)))

    def test_probabilities_off_sum_rejected(self, binary_demo_tree):
        snap = binary_demo_tree.to_snapshot()
        snap["probabilities"] = {k: p / 2 for k, p in snap["probabilities"].items()}
        with pytest.raises(ProbabilityError):
            AdaptiveTree.from_snapshot(snap)

    def test_tampered_structure_rejected(self, binary_demo_tree):
        snap = binary_demo_tree.to_snapshot()
        internal = next(n for n in snap["nodes"] if n["kind"] == "internal" and n["id"] != snap["root_id"])
        snap["nodes"].append(dict(internal, id="dup_parent"))
        with pytest.raises(StructureError):
            AdaptiveTree.from_snapshot(snap)
