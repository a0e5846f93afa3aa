"""Tree construction, mutations, hashing, and snapshots."""

import hashlib
import itertools
import json
import math
import random
import re
import sys
import threading
import tracemalloc

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
    discrepancy_report,
    huffman_codes,
    optimize_swaps,
    prove,
    tree_from_codes,
    verify,
)
import adaptive_merkle.proofs as proofs_mod
import adaptive_merkle.tree as tree_mod
from adaptive_merkle.coding import CodeTable
from adaptive_merkle.restructure import apply_alternative
from adaptive_merkle.tree import MAX_ARITY, PROB_SUM_TOL, check_probabilities, hash_internal, hash_leaf
from adaptive_merkle.workload import zipf_distribution

from helpers import (
    MALFORMED_TOP_LEVEL,
    V1_SNAPSHOT,
    apply_ops,
    changed_parents,
    children_of,
    fresh_proof_wires,
    kraft_sum,
    leaf_preimage,
    malform,
    memo_entries,
    node_ids,
    open_internal_ids,
    post_order,
    random_tree,
    reference_check_probabilities,
    reference_prove,
    reloaded_ids,
    root_path,
    walked_depths,
)


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
        assert kraft_sum(tree) <= 1 + 1e-12

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

    @pytest.mark.parametrize("m", [2, 3, 16])
    def test_none_payload_is_the_key_bytes(self, m):
        keys = ["A", "\u00e9", "\U0001f600", "k1", "k2"]
        explicit = build_balanced([(key, key.encode("utf-8"), 0.2) for key in keys], TreeConfig(m))
        default = build_balanced([(key, None, 0.2) for key in keys], TreeConfig(m))
        assert default.to_snapshot() == explicit.to_snapshot()
        mixed = build_balanced([(key, None if i % 2 else b"p", 0.2) for i, key in enumerate(keys)], TreeConfig(m))
        assert [mixed.leaf_node(key).payload for key in keys] == [b"p", "\u00e9".encode(), b"p", b"k1", b"p"]

    @pytest.mark.parametrize("key, error", [("\udc00", FormatError), (5, StructureError)], ids=["surrogate", "int"])
    def test_none_payload_of_a_bad_key_raises_typed(self, key, error):
        with pytest.raises(error):
            build_balanced([("A", None, 0.5), (key, None, 0.5)], TreeConfig(2))

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
            assert kraft_sum(tree) <= 1 + 1e-12

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

    def test_duplicate_key_message_matches_the_snapshot_walk(self):
        # one rule, one message: a new leaf and a loaded tree refuse a
        # repeated key in the same words, since loading builds through it
        tree = AdaptiveTree.from_nested(["a", "b"], {"a": 0.5, "b": 0.5}, TreeConfig(2))
        snap = tree.to_snapshot()
        snap["leaves"][1][0] = "a"
        with pytest.raises(DuplicateKeyError) as loaded:
            AdaptiveTree.from_snapshot(snap)
        with pytest.raises(DuplicateKeyError) as split:
            tree.split_leaf("a", "a", b"a")
        assert str(loaded.value) == str(split.value) == "leaf key 'a' already present"


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

    def test_unknown_node_id_fails(self):
        tree = build_balanced(make_leaves("AB", [0.5, 0.5]), TreeConfig(4))
        with pytest.raises(UnknownKeyError):
            tree.node("n999")
        with pytest.raises(UnknownKeyError):
            tree.attach_leaf("n999", "C", b"C")

    def test_existing_depths_unchanged(self):
        rng = random.Random(5)
        for _ in range(20):
            tree = random_tree(rng, rng.randint(2, 12), 4)
            open_nodes = open_internal_ids(tree)
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


def subtree_weight(tree, node_id):
    node = tree.node(node_id)
    if node.is_leaf:
        return tree.probabilities[node.key]
    return sum(subtree_weight(tree, cid) for cid in node.children)


def nested_pair(tree, a, b):
    """Whether one of two nodes lies on the other's root path."""
    for low, high in ((a, b), (b, a)):
        nid = low
        while nid is not None:
            if nid == high:
                return True
            nid = tree.parent_id(nid)
    return False


def tree_state(tree):
    return (json.dumps(tree.to_snapshot()), list(tree._depth), list(tree._parent))


class TestSwapNodes:
    @given(st.sampled_from([2, 3, 4]), st.integers(2, 16), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_exchange_keeps_every_index_and_moves_k_a_by_the_closed_form(self, m, n, rnd):
        rng = random.Random(rnd.randint(0, 2**32))
        tree = random_tree(rng, n, m)
        for _ in range(4):
            ids = [nid for nid in node_ids(tree) if nid != tree.root_id]
            pairs = [(a, b) for a in ids for b in ids if a < b and not nested_pair(tree, a, b)]
            if not pairs:
                return
            a, b = rng.choice(pairs)
            w_a, w_b = subtree_weight(tree, a), subtree_weight(tree, b)
            d_a, d_b = tree._depth[a], tree._depth[b]
            before = discrepancy_report(tree).k_a
            tree.swap_nodes(a, b)
            assert tree._depth[a] == d_b and tree._depth[b] == d_a
            assert discrepancy_report(tree).k_a - before == pytest.approx((w_a - w_b) * (d_b - d_a), abs=1e-12)
            tree.validate()
            full = tree.clone()
            full.recompute_all_hashes()
            assert full.root_hash() == tree.root_hash()
            root = tree.root_hash()
            assert all(verify(prove(tree, key), root, m) for key in tree.leaf_keys())

    @given(st.sampled_from([2, 3, 4]), st.integers(2, 16), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_root_self_and_nested_pairs_raise_and_change_nothing(self, m, n, rnd):
        rng = random.Random(rnd.randint(0, 2**32))
        tree = random_tree(rng, n, m)
        before = tree_state(tree)
        ids = list(node_ids(tree))
        bad = [(a, b) for a in ids for b in ids if a == b or nested_pair(tree, a, b)]
        for a, b in rng.sample(bad, min(len(bad), 8)) + [(tree.root_id, ids[0])]:
            with pytest.raises(StructureError):
                tree.swap_nodes(a, b)
            assert tree_state(tree) == before

    def test_subtree_exchange_trades_leaf_blocks(self):
        tree = AdaptiveTree.from_nested([["A", ["B", "C"]], ["D", "E"]], {k: 0.2 for k in "ABCDE"}, TreeConfig(2))
        bc = tree.parent_id(tree.leaf_node("B").node_id)
        tree.swap_nodes(bc, tree.leaf_node("D").node_id)
        assert tree.leaf_keys() == ["A", "D", "B", "C", "E"]
        assert tree.depths() == {"A": 2, "B": 3, "C": 3, "D": 2, "E": 2}
        tree.validate()

    def test_unknown_node_fails(self, binary_demo_tree):
        with pytest.raises(UnknownKeyError):
            binary_demo_tree.swap_nodes(binary_demo_tree.leaf_node("A").node_id, "nope")


def move_error(tree, node_id, parent_id):
    """Why moving node_id under parent_id must raise, or None for a legal
    move: the rules of ``move_node`` read off the shape."""
    old = tree.parent_id(node_id)
    target = tree.node(parent_id)
    if old is None:
        return "root"
    if target.is_leaf:
        return "leaf target"
    if old == parent_id:
        return "own parent"
    if len(target.children) == tree.config.arity:
        return "full target"
    if len(tree.node(old).children) == 2:
        return "one child left"
    if node_id in root_path(tree, parent_id):
        return "own subtree"
    return None


def subtree_ids(tree, node_id):
    stack, out = [node_id], []
    while stack:
        nid = stack.pop()
        out.append(nid)
        stack += tree.node(nid).children or ()
    return out


class TestMoveNode:
    @given(st.sampled_from([3, 4, 5]), st.integers(3, 16), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_legal_moves_keep_every_index_and_shift_the_subtree(self, m, n, rnd):
        rng = random.Random(rnd.randint(0, 2**32))
        tree = random_tree(rng, n, m)
        for _ in range(4):
            ids = list(node_ids(tree))
            legal = [(u, o) for u in ids for o in ids if move_error(tree, u, o) is None]
            if not legal:
                return
            u, o = rng.choice(legal)
            shift = tree._depth[o] + 1 - tree._depth[u]
            moved = set(subtree_ids(tree, u))
            expected = [d + shift if nid in moved else d for nid, d in enumerate(tree._depth)]
            before = discrepancy_report(tree).k_a
            tree.move_node(u, o)
            assert tree._depth == expected
            assert tree.node(o).children[-1] == u and tree.parent_id(u) == o
            assert tree.depths() == walked_depths(tree)
            assert discrepancy_report(tree).k_a - before == pytest.approx(subtree_weight(tree, u) * shift, abs=1e-12)
            tree.validate()
            full = tree.clone()
            full.recompute_all_hashes()
            assert full.root_hash() == tree.root_hash()
            root = tree.root_hash()
            assert all(verify(prove(tree, key), root, m) for key in tree.leaf_keys())

    @given(st.sampled_from([3, 4, 5]), st.integers(3, 16), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_illegal_moves_raise_and_change_nothing(self, m, n, rnd):
        rng = random.Random(rnd.randint(0, 2**32))
        tree = random_tree(rng, n, m)
        before = tree_state(tree)
        ids = list(node_ids(tree))
        bad = [(u, o) for u in ids for o in ids if move_error(tree, u, o) is not None]
        for u, o in rng.sample(bad, min(len(bad), 8)):
            with pytest.raises(StructureError):
                tree.move_node(u, o)
            assert tree_state(tree) == before

    def test_each_rule_names_its_reason(self):
        # At m=4 the root, [B, C, [D, E]] and [D, E] have free slots; [F..I] is full.
        tree = AdaptiveTree.from_nested(
            ["A", ["B", "C", ["D", "E"]], ["F", "G", "H", "I"]], {k: 1 / 9 for k in "ABCDEFGHI"}, TreeConfig(4)
        )
        node = {key: tree.leaf_node(key).node_id for key in "ABCDEFGHI"}
        bcde, de, fghi = tree.parent_id(node["B"]), tree.parent_id(node["D"]), tree.parent_id(node["F"])
        before = tree_state(tree)
        for u, o, reason, message in [
            (tree.root_id, bcde, "root", "the root"),
            (node["A"], node["F"], "leaf target", "no free child slot"),
            (node["B"], bcde, "own parent", "already a child"),
            (node["A"], fghi, "full target", "no free child slot"),
            (node["D"], tree.root_id, "one child left", "one child"),
            (bcde, de, "own subtree", "own subtree"),
        ]:
            assert move_error(tree, u, o) == reason
            with pytest.raises(StructureError, match=message):
                tree.move_node(u, o)
            assert tree_state(tree) == before
        with pytest.raises(UnknownKeyError):
            tree.move_node(node["A"], "nope")
        tree.move_node(fghi, de)
        assert tree.depths() == {"A": 1, "B": 2, "C": 2, "D": 3, "E": 3, "F": 4, "G": 4, "H": 4, "I": 4}
        tree.move_node(node["F"], tree.root_id)
        assert tree.leaf_keys() == ["A", "B", "C", "D", "E", "G", "H", "I", "F"]
        assert tree.depths()["F"] == 1
        tree.validate()


class TestNodeIds:
    @pytest.mark.parametrize("method", ["node", "parent_id", "attach_leaf", "swap_nodes", "move_node"])
    def test_unknown_ids_raise_and_change_nothing(self, method):
        # Only an int naming a node is an id: not a bool, 0 (the root's
        # parent slot), a negative int, which would index the lists from the
        # end, an int past the last node, or a label.
        tree = AdaptiveTree.from_nested(["A", ["B", "C"]], {"A": 0.5, "B": 0.25, "C": 0.25}, TreeConfig(3))
        bc, a = tree.parent_id(tree.leaf_node("B").node_id), tree.leaf_node("A").node_id
        before = tree_state(tree)
        for bad in [True, False, 0, -1, -5, len(node_ids(tree)) + 1, "n3", 2.0]:
            calls = {
                "node": [lambda: tree.node(bad)],
                "parent_id": [lambda: tree.parent_id(bad)],
                "attach_leaf": [lambda: tree.attach_leaf(bad, "D", b"D")],
                "swap_nodes": [lambda: tree.swap_nodes(bad, a), lambda: tree.swap_nodes(a, bad)],
                "move_node": [lambda: tree.move_node(bad, bc), lambda: tree.move_node(a, bad)],
            }[method]
            for call in calls:
                with pytest.raises(UnknownKeyError, match=re.escape(f"no node with id {bad!r}")):
                    call()
                assert tree_state(tree) == before
        tree.validate()


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

    @pytest.mark.parametrize("probs", [{"A": 1, "B": 0}, {"A": True, "B": False}, {"A": 0.5, "B": 0.5}])
    def test_stores_floats(self, probs):
        tree = build_balanced(make_leaves("AB", [0.5, 0.5]), TreeConfig(2))
        tree.set_probabilities(probs)
        assert tree.probabilities == probs
        assert [type(p) for p in tree.probabilities.values()] == [float, float]
        assert list(tree.probabilities) == ["A", "B"]


ownership_ops = st.lists(
    st.tuples(
        st.sampled_from(["split", "attach", "swap", "swap_nodes", "move", "probabilities", "optimize", "clone",
                         "snapshot"]),
        st.integers(0, 999),
        st.integers(0, 999),
    ),
    max_size=20,
)


class TestProbabilityOwnership:
    """The tree's probability map is valid and covers exactly the leaf keys
    after every mutation, so its readers do not check it again; its view
    refuses every write."""

    @given(st.sampled_from([2, 3, 4, 16]), st.integers(1, 12), ownership_ops, st.randoms())
    @settings(max_examples=80, deadline=None)
    def test_every_mutation_keeps_the_map_valid(self, m, n, ops, rnd):
        def check(t):
            check_probabilities(t.probabilities)
            assert t.probabilities.keys() == set(t.leaf_keys())

        tree = random_tree(random.Random(rnd.randint(0, 2**32)), n, m)
        check(tree)
        apply_ops(tree, ops, check)

    @pytest.mark.parametrize("write", ["assign", "set_item", "new_item", "del_item", "del", "update"])
    def test_the_view_refuses_writes(self, binary_demo_tree, write):
        tree = binary_demo_tree
        before = tree.to_snapshot()
        with pytest.raises((AttributeError, TypeError)):
            if write == "assign":
                tree.probabilities = {key: 1 / 8 for key in tree.leaf_keys()}
            elif write == "set_item":
                tree.probabilities["A"] = float("nan")
            elif write == "new_item":
                tree.probabilities["Z"] = 0.0
            elif write == "del_item":
                del tree.probabilities["A"]
            elif write == "del":
                del tree.probabilities
            else:
                tree.probabilities.update({"A": 0.5})
        assert tree.to_snapshot() == before
        tree.validate()

    @pytest.mark.parametrize(
        "probs", [{"A": 0.5, "B": 0.3}, {"A": float("nan"), "B": 1.0}, {"A": 1.5, "B": -0.5}, {"A": 1.0},
                  {"A": 0.5, "B": 0.5, "Z": 0.0}, {"A": 0.5, "B": 0.5, 1: 0.0, "Z": 0.0}],
        ids=["sum", "nan", "negative", "missing", "extra", "extra_of_mixed_types"],
    )
    def test_a_refused_map_leaves_the_old_one(self, tmp_path, probs):
        tree = build_balanced(make_leaves("AB", [0.5, 0.5]), TreeConfig(2))
        with pytest.raises(ProbabilityError):
            tree.set_probabilities(probs)
        tree.save(tmp_path / "tree.json")  # what save writes, load takes
        assert AdaptiveTree.load(tmp_path / "tree.json").probabilities == {"A": 0.5, "B": 0.5}


def checked_key_by_key(probs):
    """The validator as a plain per-key loop, then the sum: the oracle for
    ``check_probabilities`` and its fast path. The error message, or None."""
    for key, p in probs.items():
        if not math.isfinite(p):
            return f"non-finite probability {p!r} for key {key!r}"
        if p < 0.0:
            return f"negative probability {p!r} for key {key!r}"
    total = sum(probs.values())
    if abs(total - 1.0) > PROB_SUM_TOL:
        return f"probabilities sum to {total!r}, expected 1 +/- {PROB_SUM_TOL}"
    return None


def check_message(probs):
    try:
        check_probabilities(probs)
    except ProbabilityError as exc:
        return str(exc)
    return None


class TestCheckProbabilities:
    @pytest.mark.parametrize(
        "bad, kind",
        [(float("nan"), "non-finite"), (float("inf"), "non-finite"), (float("-inf"), "non-finite"),
         (-0.25, "negative")],
    )
    def test_first_bad_key_named(self, bad, kind):
        probs = {"A": 0.5, "B": bad, "C": float("nan"), "D": -1.0, "E": float("inf")}
        with pytest.raises(ProbabilityError, match=f"^{kind} probability {re.escape(repr(bad))} for key 'B'$"):
            check_probabilities(probs)

    def test_negative_with_finite_total_named(self):
        # The total is exactly 1, so only the minimum finds the negative value.
        with pytest.raises(ProbabilityError, match=r"^negative probability -0\.25 for key 'B'$"):
            check_probabilities({"A": 1.25, "B": -0.25})

    def test_negative_zero_accepted(self):
        check_probabilities({"A": 1.0, "B": -0.0})

    def test_overflowing_total_is_a_sum_error(self):
        # Each value is finite; only their sum is not.
        with pytest.raises(ProbabilityError, match=r"^probabilities sum to inf, expected 1 "):
            check_probabilities({"a": 1e308, "b": 1e308})

    def test_empty_mapping_is_a_sum_error(self):
        with pytest.raises(ProbabilityError, match=r"^probabilities sum to 0, expected 1 "):
            check_probabilities({})

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, 0.25, 1.0, 1e308, -1e-300, float("nan"), float("inf"), float("-inf")]),
        st.floats(allow_nan=True, allow_infinity=True),
    ), max_size=6))
    def test_matches_key_by_key_oracle(self, values):
        probs = {f"k{i}": p for i, p in enumerate(values)}
        assert check_message(probs) == checked_key_by_key(probs)


def decision(check, probs):
    """``(exception type, message)`` of what ``check`` raises on ``probs``,
    or None when it accepts."""
    try:
        check(probs)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def ulps(x, k):
    """x moved by k units in the last place, up for k > 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def near_one_distributions(draw):
    """Up to 40 non-negative values summing to 1, 1 - 1e-9 or 1 + 1e-9
    moved by up to 8 ulps, in integer proportions; some with one value
    replaced by a NaN, an infinity, a negative number, an int or a bool."""
    n = draw(st.integers(1, 40))
    weights = draw(st.lists(st.integers(0, 1000), min_size=n, max_size=n).filter(any))
    total = ulps(1.0 + draw(st.sampled_from([-1, 0, 1])) * PROB_SUM_TOL, draw(st.integers(-8, 8)))
    values = [w * total / sum(weights) for w in weights]
    if draw(st.booleans()):
        special = draw(st.sampled_from([float("nan"), float("inf"), float("-inf"), -1e-300, -0.0, 0, 1, True, False]))
        values[draw(st.integers(0, n - 1))] = special
    return {f"k{i}": p for i, p in enumerate(values)}


class TestValidatorReference:
    """``check_probabilities`` reaches the decision and message of its full
    check alone (``reference_check_probabilities``), early accept or not."""

    def test_equal_terms_around_the_tolerance(self):
        decisions = set()
        for n in (1, 2, 3, 10, 1000, 100000):
            for target in (1.0, 1.0 + PROB_SUM_TOL, 1.0 - PROB_SUM_TOL):
                for k in range(-4, 5):
                    probs = dict.fromkeys(range(n), ulps(target, k) / n)
                    expected = decision(reference_check_probabilities, probs)
                    assert decision(check_probabilities, probs) == expected, (n, target, k)
                    decisions.add(expected is None)
        assert decisions == {True, False}  # both sides of the tolerance are reached

    @pytest.mark.parametrize(
        "probs",
        [{"a": 1}, {"a": True}, {"a": 0, "b": 1}, {"a": True, "b": False}, {"a": 1, "b": 0.0}, {"a": 2},
         {"a": False}, {"a": -0.0, "b": 1.0}, {"a": -0.0}, {}, {"a": 1e308, "b": 1e308},
         {"a": float("nan")}, {"a": 1.0, "b": float("nan")}, {"a": float("inf")}, {"a": 1.0, "b": float("-inf")},
         {"a": 1.25, "b": -0.25}, {"a": -1.0}, {"a": 1.0, "b": -1e-300}, {"a": 10**400, "b": 1 - 10**400}],
    )
    def test_ints_bools_zeros_and_bad_values(self, probs):
        assert decision(check_probabilities, probs) == decision(reference_check_probabilities, probs)

    @settings(max_examples=400, deadline=None)
    @given(near_one_distributions())
    def test_near_one_distributions(self, probs):
        expected = decision(reference_check_probabilities, probs)
        assert decision(check_probabilities, probs) == expected
        with pytest.MonkeyPatch.context() as patch:  # as a compensated builtin sum would round
            patch.setattr(tree_mod, "sum", math.fsum, raising=False)
            assert decision(check_probabilities, probs) == expected

    def test_margin_covers_a_differently_rounded_sum(self, monkeypatch):
        # From Python 3.12 on the builtin sum compensates rounding error;
        # math.fsum, rounded once, stands in for it here. Adding 100 terms
        # of just over half an ulp to x rounds up every time in float_sum,
        # which ends nearly 50 ulps above the exact sum, so for some x only
        # float_sum is off 1 by more than the tolerance. The margin sends
        # those to the full check.
        monkeypatch.setattr(tree_mod, "sum", math.fsum, raising=False)
        straddling = 0
        for j in range(120):
            probs = {"x": ulps(1.0 + PROB_SUM_TOL, -j), **{i: (0.5 + 2.0**-8) * 2.0**-52 for i in range(100)}}
            expected = decision(reference_check_probabilities, probs)
            assert decision(check_probabilities, probs) == expected
            straddling += expected is not None and abs(math.fsum(probs.values()) - 1.0) <= PROB_SUM_TOL
        assert straddling


class TestRootHash:
    def test_single_leaf_identity(self):
        tree = build_balanced(make_leaves("A", [1.0]), TreeConfig(2))
        assert tree.root_hash() == hash_leaf("A", b"A")

    def test_two_leaf_hash_rule(self):
        tree = build_balanced(make_leaves("AB", [0.5, 0.5]), TreeConfig(2))
        expected = hash_internal([hash_leaf("A", b"A"), hash_leaf("B", b"B")])
        assert tree.root_hash() == expected

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.binary(max_size=40), max_size=17))
    def test_hash_internal_matches_incremental_oracle(self, digests):
        # any iterable of children hashes as 0x01 followed by each child
        oracle = hashlib.sha256(b"\x01")
        for digest in digests:
            oracle.update(digest)
        expected = oracle.digest()
        assert hash_internal(d for d in digests) == expected
        assert hash_internal(list(digests)) == expected
        assert hash_internal(tuple(digests)) == expected

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=8), st.binary(max_size=80), st.lists(st.binary(max_size=100), min_size=1, max_size=3))
    def test_seeded_states_hash_as_one_shot_sha256(self, key, payload, parts):
        # each call copies a state seeded with the domain byte; the result is
        # the one-shot digest, and the seeds themselves never move
        assert hash_leaf(key, payload) == hashlib.sha256(leaf_preimage(key, payload)).digest()
        assert hash_leaf(key, b"") == hashlib.sha256(leaf_preimage(key, b"")).digest()
        assert hash_internal(parts) == hashlib.sha256(b"\x01" + b"".join(parts)).digest()
        assert tree_mod._LEAF_SEED.digest() == hashlib.sha256(b"\x00").digest()
        assert tree_mod._INTERNAL_SEED.digest() == hashlib.sha256(b"\x01").digest()

    @settings(max_examples=200, deadline=None)
    @given(st.text(st.characters(blacklist_categories=("Cs",)), max_size=8), st.binary(max_size=8))
    def test_leaf_hash_has_one_reading(self, key, payload):
        # the key's length prefix keeps apart keys and payloads that join to
        # the same bytes: "ab" with b"c" and "a" with b"bc" once hashed alike
        assert hash_leaf("ab", b"c") != hash_leaf("a", b"bc")
        joined, digest = key.encode() + payload, hash_leaf(key, payload)
        for cut in range(len(joined) + 1):
            try:
                other = joined[:cut].decode()
            except UnicodeDecodeError:  # a cut inside a character
                continue
            assert (hash_leaf(other, joined[cut:]) == digest) == (other == key)

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
                nodes = open_internal_ids(tree)
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
            n.payload for n in map(t.node, node_ids(t)) if n.is_leaf
        )
        before = payloads(tree)
        tree.swap_leaves(*rng.sample(tree.leaf_keys(), 2))
        assert payloads(tree) == before
        tree.split_leaf(tree.leaf_keys()[0], "zz", b"zz")
        assert payloads(tree) == sorted(before + [b"zz"])


mutation_ops = st.lists(
    st.tuples(st.sampled_from(["split", "attach", "swap"]), st.integers(0, 999), st.integers(0, 999)),
    max_size=30,
)
every_op = st.lists(
    st.tuples(
        st.sampled_from(["split", "attach", "swap", "swap_nodes", "optimize", "root", "prove", "snapshot", "clone",
                         "recompute"]),
        st.integers(0, 999),
        st.integers(0, 999),
    ),
    max_size=20,
)
counted_ops = st.lists(
    st.tuples(st.sampled_from(["split", "attach", "swap", "swap_nodes", "optimize"]), st.integers(0, 999),
              st.integers(0, 999)),
    max_size=12,
)


def check_stored_digests(tree):
    """Every internal node keeps its children's hashes joined as its hash
    preimage, and every proof equals the one gathered child by child: true
    once ``root_hash()`` has been read."""
    for node in map(tree.node, node_ids(tree)):
        if node.is_leaf:
            assert node.hash == hash_leaf(node.key, node.payload)
            assert node.child_digests == b""
        else:
            child_hashes = [tree.node(cid).hash for cid in node.children]
            assert node.child_digests == b"".join(child_hashes)
            assert node.hash == hash_internal(child_hashes)
    for key in tree.leaf_keys():
        assert prove(tree, key) == reference_prove(tree, key)


def check_reads(tree):
    """Read the tree three ways, each first on its own copy, so the tree
    keeps whatever it has left to flush for the ops that follow: proofs,
    the root, and a snapshot written and loaded. Each read equals a full
    rehash, every proof verifies, and the stored digests hold once the root
    has been read."""
    full = tree.clone()
    full.recompute_all_hashes()
    root = full.root_hash()
    proved = tree.clone()
    assert all(verify(prove(proved, key), root, tree.config.arity) for key in tree.leaf_keys())
    read = tree.clone()
    assert read.root_hash() == root
    check_stored_digests(read)
    loaded = AdaptiveTree.from_snapshot(json.loads(json.dumps(tree.clone().to_snapshot())))
    assert loaded.root_hash() == root


class TestStoredDigests:
    @given(st.sampled_from([2, 3, 4, 16]), st.integers(1, 12), every_op, st.randoms())
    @settings(max_examples=80, deadline=None)
    def test_preimage_follows_every_mutation(self, m, n, ops, rnd):
        tree = random_tree(random.Random(rnd.randint(0, 2**32)), n, m)
        check_reads(tree)
        apply_ops(tree, ops, check_reads)


class TestLeafOrder:
    def test_attach_lands_after_the_rightmost_leaf_below_its_parent(self):
        tree = AdaptiveTree.from_nested([["A", ["B", "C"]], "D"], {k: 0.25 for k in "ABCD"}, TreeConfig(3))
        tree.attach_leaf(tree.parent_id(tree.leaf_node("A").node_id), "E", b"")
        assert tree.leaf_keys() == ["A", "B", "C", "E", "D"]
        tree.validate()


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

    @pytest.mark.parametrize(
        "corrupt", ["leaf", "internal", "root", "missing", "extra", "stale_parent", "leaf_key"]
    )
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
        elif corrupt == "stale_parent":
            tree._parent.append(tree.root_id)
        elif corrupt == "leaf_key":  # prove(tree, "A") would answer with B's leaf
            tree._leaf_by_key["A"] = tree._leaf_by_key["B"]
        else:
            index.append(3)
        with pytest.raises(StructureError, match="depth index"):
            tree.validate()

    def test_validate_rejects_probability_map_missing_a_leaf(self, binary_demo_tree):
        # the public view refuses the edit; the self-check still sees a broken private map
        with pytest.raises(TypeError):
            del binary_demo_tree.probabilities["A"]
        binary_demo_tree.validate()
        del binary_demo_tree._probabilities["A"]
        # the one cover rule, as set_probabilities and from_snapshot raise it
        with pytest.raises(ProbabilityError, match=re.escape("do not match tree leaves (missing ['A'], extra [])")):
            binary_demo_tree.validate()


class TestRehashCount:
    """Mutations only mark the tree dirty, new nodes included, and hash
    nothing: after any k of them, the next ``root_hash()`` rehashes exactly
    the union of the changed parents' and the new nodes' root paths in the
    final tree, each node once. A second read hashes nothing."""

    @given(st.sampled_from([2, 3, 4, 16]), st.integers(1, 40), counted_ops, st.randoms())
    @settings(max_examples=120, deadline=None)
    def test_hashes_only_the_affected_paths(self, m, n, ops, rnd):
        tree = random_tree(random.Random(rnd.randint(0, 2**32)), n, m)
        tree.root_hash()
        start, changed, calls, hashed = children_of(tree), set(), [], []
        real = AdaptiveTree._rehash
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree_mod, "hash_internal", lambda hashes: calls.append(1) or hash_internal(hashes))
            patch.setattr(AdaptiveTree, "_rehash", lambda t, nid: hashed.append(nid) or real(t, nid))
            for op in ops:
                before = children_of(tree)
                if op[0] == "optimize":
                    # replay the loop's moves one by one on a copy, to see each move's parents
                    replay = tree.clone()
                    for outcome in optimize_swaps(tree):
                        moved_from = children_of(replay)
                        apply_alternative(replay, outcome.chosen)
                        changed |= changed_parents(moved_from, replay)
                    assert children_of(replay) == children_of(tree)
                else:
                    apply_ops(tree, [op])
                    changed |= changed_parents(before, tree)
            assert calls == []  # mutations hash nothing
            changed |= children_of(tree).keys() - start.keys()  # the splits' new nodes
            root = tree.root_hash()
            assert sorted(hashed) == sorted({nid for top in changed for nid in root_path(tree, top)})
            assert len(calls) == len(hashed)
            calls.clear()
            assert tree.root_hash() == root
            assert calls == []
        full = tree.clone()
        full.recompute_all_hashes()
        assert root == full.root_hash()

    @pytest.mark.parametrize("m", [2, 3, 16])
    def test_building_and_splitting_hash_no_internal_node(self, m):
        # Every builder hashes each leaf once, as it makes it, numbers its
        # nodes 1..K in post-order, and only marks its internal nodes, as
        # a split does; the first read hashes each internal node exactly
        # once and lands on the full rehash's root. A split after a build
        # makes nodes K+1 and K+2.
        keys = [f"k{i:02d}" for i in range(40)]
        probs = dict(zip(keys, zipf_distribution(len(keys), 1.1)))
        caterpillar = keys[-1]
        for key in reversed(keys[:-1]):
            caterpillar = [key, caterpillar]
        builders = [
            lambda: AdaptiveTree.from_nested(caterpillar, probs, TreeConfig(m)),
            lambda: build_balanced([(key, key.encode(), p) for key, p in probs.items()], TreeConfig(m)),
            lambda: tree_from_codes(huffman_codes(probs, m)),
        ]
        calls, leaf_calls, rehashed = [], [], []
        real_rehash = AdaptiveTree._rehash
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree_mod, "hash_internal", lambda hashes: calls.append(1) or hash_internal(hashes))
            patch.setattr(tree_mod, "hash_leaf", lambda key, payload: leaf_calls.append(key) or hash_leaf(key, payload))
            patch.setattr(AdaptiveTree, "_rehash", lambda t, nid: rehashed.append(nid) or real_rehash(t, nid))
            trees = []
            for build in builders:
                leaf_calls.clear()
                trees.append(build())
                assert sorted(leaf_calls) == keys
                assert post_order(trees[-1]) == list(node_ids(trees[-1]))
            split = build_balanced([(keys[0], keys[0].encode(), 1.0)], TreeConfig(m))
            for i, key in enumerate(keys[1:]):
                split.split_leaf(keys[i // 2], key, key.encode())  # the root first
            split.set_probabilities(probs)
            trees.append(split)
            assert calls == []
            for tree in trees:
                internal = [nid for nid in node_ids(tree) if not tree.node(nid).is_leaf]
                rehashed.clear()
                root = tree.root_hash()
                assert sorted(rehashed) == sorted(internal)
                assert len(calls) == len(internal)
                full = tree.clone()
                full.recompute_all_hashes()
                assert full.root_hash() == root
                calls.clear()
            for tree in trees[:3]:
                k = len(node_ids(tree))
                tree.split_leaf(keys[0], "new", b"new")
                assert tree.leaf_node("new").node_id == k + 1
                assert tree.parent_id(k + 1) == k + 2


class TestMemory:
    def test_live_bytes_per_node(self):
        # A Huffman tree keeps each node in a slot of each per-node list, with
        # no per-node record or string id: the bound sits between the
        # record layout (about 364 B) and the lists (about 245 B).
        n, m = 4096, 16
        keys = [f"k{i:04d}" for i in range(n)]
        probs = dict(zip(keys, zipf_distribution(n, 1.1)))
        payloads = {key: key.encode() for key in keys}
        table = huffman_codes(probs, m)
        tracemalloc.start()
        try:
            tree = tree_from_codes(table, payloads)
            tree.root_hash()
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert live / len(node_ids(tree)) <= 300


BUILDER_ERROR_CASES = {
    # case: (keys, payloads, error, message)
    "missing_payload": (["a", "b"], {"a": b"x"}, StructureError, "no payload for leaf key 'b'"),
    "str_payload": (["a", "b"], {"a": b"x", "b": "y"}, StructureError, "payload of leaf 'b' is not bytes"),
    # a mutable buffer could change after the leaf is hashed
    "bytearray_payload": (["a", "b"], {"a": b"x", "b": bytearray(b"y")}, StructureError,
                          "payload of leaf 'b' is not bytes: bytearray"),
    "memoryview_payload": (["a", "b"], {"a": b"x", "b": memoryview(b"y")}, StructureError,
                           "payload of leaf 'b' is not bytes: memoryview"),
    "lone_surrogate_key": (["a", "\udc00"], None, FormatError, "not valid UTF-8"),
    "int_key": (["a", 3], None, StructureError, "leaf spec 3 is neither a key string nor a list"),
    "list_payloads": (["a", "b"], [b"x", b"y"], StructureError, "payloads is no mapping of leaf keys to bytes: list"),
}
# cases only a builder that takes a payloads mapping can meet
MAPPING_CASES = {"missing_payload", "list_payloads"}
# A mutation takes its new key as an argument, not as a spec to tell apart
# from a list: an int key is a key that is not a str.
MUTATION_MESSAGES = {"int_key": "leaf key 3 is not a str"}


class TestBuilderErrors:
    """A malformed leaf reaching any builder, or a mutation that adds a leaf,
    raises a typed error, not a bare KeyError, TypeError, AttributeError or
    UnicodeEncodeError."""

    @pytest.mark.parametrize(
        "builder, case",
        # build_balanced and the mutations take each payload with its key
        [(builder, case)
         for builder in ("from_nested", "build_balanced", "tree_from_codes", "split_leaf", "attach_leaf")
         for case in sorted(BUILDER_ERROR_CASES)
         if builder in ("from_nested", "tree_from_codes") or case not in MAPPING_CASES],
    )
    def test_raises_typed_error(self, builder, case):
        keys, payloads, error, message = BUILDER_ERROR_CASES[case]
        probs = {key: 1 / len(keys) for key in keys}
        if builder in ("split_leaf", "attach_leaf"):
            self.check_mutation_refused(builder, keys[-1], b"" if payloads is None else payloads[keys[-1]],
                                        error, MUTATION_MESSAGES.get(case, message))
            return
        with pytest.raises(error, match=re.escape(message)):
            if builder == "from_nested":
                AdaptiveTree.from_nested(keys, probs, TreeConfig(2), payloads)
            elif builder == "build_balanced":
                build_balanced([(key, b"" if payloads is None else payloads[key], probs[key]) for key in keys],
                               TreeConfig(2))
            else:
                tree_from_codes(CodeTable(keys, probs, 2), payloads)

    @staticmethod
    def check_mutation_refused(mutation, key, payload, error, message):
        # the tree is left as it was, down to the id the next new node gets
        tree = AdaptiveTree.from_nested(["a", "z"], {"a": 0.5, "z": 0.5}, TreeConfig(3))
        before = (tree.root_hash(), tree.leaf_count(), tree.to_snapshot())
        with pytest.raises(error, match=re.escape(message)):
            if mutation == "split_leaf":
                tree.split_leaf("a", key, payload)
            else:
                tree.attach_leaf(tree.root_id, key, payload)
        tree.validate()
        assert (tree.root_hash(), tree.leaf_count(), tree.to_snapshot()) == before
        tree.split_leaf("a", "new", b"new")
        assert tree.leaf_node("new").node_id == 4

    def test_bad_spec_shapes(self):
        for nested in (3, None, ["a", None], ["a", 2.5]):
            with pytest.raises(StructureError, match="neither a key string nor a list"):
                AdaptiveTree.from_nested(nested, {"a": 1.0}, TreeConfig(2))


class TestStructureInvariants:
    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=2, max_value=5), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_random_trees_validate(self, n, m, rnd):
        rng = random.Random(rnd.randint(0, 2**32))
        tree = random_tree(rng, n, m)
        tree.validate()
        assert kraft_sum(tree) <= 1 + 1e-12
        depths = tree.depths()
        assert len(depths) == n
        # every node except the root reachable exactly once via validate()

    def test_arity_bounds_enforced(self):
        for arity in (1, 2.5, 2.0, True, MAX_ARITY + 1):
            with pytest.raises(StructureError):
                TreeConfig(arity)
        assert TreeConfig(MAX_ARITY).arity == 65536  # the proof wire's u16 fields
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


CORRUPTIONS = ["dangling_child", "two_parents", "detached_subtree", "leaf_without_payload"]


def corrupt(tree: AdaptiveTree, defect: str) -> None:
    """Break ``binary_demo_tree``'s children or payload lists in place,
    indexes left as they were."""
    root = tree._children[tree.root_id]
    inner = tree._children[root[1]]  # [[B, D], [[C, F], [E, G]]]
    if defect == "dangling_child":
        inner[0] = 999
    elif defect == "two_parents":  # [A, H] under the root and under inner
        inner[0] = root[0]
    elif defect == "detached_subtree":  # inner and [[C, F], [E, G]] left unreachable
        root[1] = inner[0]
    else:
        tree._payload[tree.leaf_node("A").node_id] = None


class TestCorruptedTree:
    """Snapshot writing, the full rehash and leaf_keys() read their order
    from the checked walk, so corrupted children or payload lists raise
    StructureError instead of being written, hashed or listed."""

    @pytest.mark.parametrize("defect", CORRUPTIONS)
    @pytest.mark.parametrize("call", ["to_snapshot", "recompute_all_hashes", "leaf_keys"])
    def test_whole_tree_pass_rejects(self, binary_demo_tree, defect, call):
        corrupt(binary_demo_tree, defect)
        with pytest.raises(StructureError):
            getattr(binary_demo_tree, call)()

    @pytest.mark.parametrize("defect", CORRUPTIONS)
    def test_save_raises_before_writing(self, binary_demo_tree, tmp_path, defect):
        corrupt(binary_demo_tree, defect)
        path = tmp_path / "tree.json"
        with pytest.raises(StructureError):
            binary_demo_tree.save(path)
        assert not path.exists()


PER_NODE_LISTS = ("_children", "_parent", "_depth", "_hash", "_child_digests", "_step", "_key", "_payload")
APPLY_OPS_KINDS = ["split", "attach", "swap", "swap_nodes", "move", "probabilities", "optimize", "recompute", "root",
                   "prove", "snapshot", "clone"]


class TestClone:
    @pytest.mark.parametrize("kind", APPLY_OPS_KINDS)
    def test_every_op_on_a_clone_leaves_the_original(self, kind):
        # A per-node list, a children list or an index shared with the clone
        # would show here: as a longer list, a changed snapshot, root or
        # proof, or an index that validate() finds out of sync.
        def state(t):
            proofs = [prove(t, key) for key in t.leaf_keys()]
            return json.dumps(t.to_snapshot()), t.root_hash(), proofs, [len(getattr(t, f)) for f in PER_NODE_LISTS]

        tree = random_tree(random.Random(7), 12, 3)
        before = state(tree)
        apply_ops(tree.clone(), [(kind, i, 7 * i + 1) for i in range(6)])
        assert state(tree) == before
        tree.validate()

    @pytest.mark.parametrize(
        "container", ["nodes", "children", "probabilities", "depth", "parent", "leaf_by_key"]
    )
    def test_mutating_the_clone_leaves_the_original(self, binary_demo_tree, container):
        tree = binary_demo_tree
        snapshot, root = tree.to_snapshot(), tree.root_hash()
        copy = tree.clone()
        if container == "nodes":  # every per-node list
            for field in PER_NODE_LISTS:
                getattr(copy, field).clear()
        elif container == "children":
            for children in copy._children:
                if children is not None:
                    children.reverse()
            copy.recompute_all_hashes()
        else:
            index = {"probabilities": copy._probabilities, "depth": copy._depth, "parent": copy._parent,
                     "leaf_by_key": copy._leaf_by_key}[container]
            index.clear()
        assert tree.to_snapshot() == snapshot
        assert tree.root_hash() == root
        tree.validate()

    def test_fields_outside_init_are_copied_deeply(self, binary_demo_tree):
        # A field set after construction is copied too, and not shared.
        binary_demo_tree.log = [["A"]]
        copy = binary_demo_tree.clone()
        copy.log[0].append("B")
        assert binary_demo_tree.log == [["A"]]


class TestStepMemo:
    """``prove`` memoizes each internal node's proof step at its parent, and
    ``_rehash`` empties the children's steps when it rewrites a preimage."""

    @given(
        st.sampled_from([2, 3, 4, 16]),
        st.integers(1, 12),
        st.lists(st.tuples(st.sampled_from(APPLY_OPS_KINDS), st.integers(0, 999), st.integers(0, 999)), max_size=16),
        st.randoms(),
    )
    @settings(max_examples=120, deadline=None)
    def test_memo_is_never_stale(self, m, n, ops, rnd):
        # After every op each proof equals the one from hashes computed afresh
        # and verifies. Odd ops prove on the tree itself, so its memo meets the
        # ops that follow; even ones on a clone, which carries the memo and the
        # unflushed dirty set across.
        tree = random_tree(random.Random(rnd.randint(0, 2**32)), n, m)
        count = itertools.count()

        def check(t):
            internal = sum(children is not None for children in t._children)
            proved = t if next(count) % 2 else t.clone()
            expected = fresh_proof_wires(proved)
            root = proved.root_hash()
            for key in proved.leaf_keys():
                proof = prove(proved, key)
                assert proof.to_bytes() == expected[key]
                assert verify(proof, root, m)
            assert len(memo_entries(proved)) <= internal

        check(tree)
        apply_ops(tree, ops, check)

    def test_caterpillar_memo_stays_linear(self):
        # A step is memoized per node, never a root-path tail, so after
        # proving the deepest leaf and others above it the memo holds at most
        # the deepest proof's bytes.
        depth = 20_000
        nested = f"k{depth}"
        for i in reversed(range(depth)):
            nested = [f"k{i}", nested]
        tree = AdaptiveTree.from_nested(nested, {f"k{i}": 1 / (depth + 1) for i in range(depth + 1)}, TreeConfig(2))
        root = tree.root_hash()
        deepest = prove(tree, f"k{depth}")
        assert verify(deepest, root, 2)
        for i in range(0, depth, 997):
            assert verify(prove(tree, f"k{i}"), root, 2)
        steps = memo_entries(tree)
        assert len(steps) == depth - 1  # every internal node but the root
        assert sum(map(len, steps)) <= len(deepest.to_bytes())

    def test_readers_interleave_on_a_flushed_tree(self):
        # every reader of a flushed tree writes the same bytes into the memo,
        # so threads that prove at once, switching as often as the
        # interpreter allows, all get the proofs a single reader gets
        tree = random_tree(random.Random(5), 200, 4)
        expected = fresh_proof_wires(tree)
        tree.root_hash()
        keys = tree.leaf_keys()
        results, interval = {}, sys.getswitchinterval()

        def read(worker):
            results[worker] = [prove(tree, key).to_bytes() for key in keys[worker::2] + keys[::-1]]

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(worker,)) for worker in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for worker in range(6):
            assert results[worker] == [expected[key] for key in keys[worker::2] + keys[::-1]]

    def test_prove_on_a_flushed_tree_hashes_nothing(self, monkeypatch):
        # the leaf's step is cut from its parent's preimage and every step
        # above it is memoized: a sibling's proof cuts only its own step
        tree = build_balanced(make_leaves("ABCDEFGHIJKLMNOP"), TreeConfig(2))
        tree.root_hash()
        hashes, cuts = [], []

        def counted(name, fn):
            def wrapper(*args):
                hashes.append(name)
                return fn(*args)
            return wrapper

        for module in (tree_mod, proofs_mod):
            for name in ("hash_leaf", "hash_internal"):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        cut_step = proofs_mod._cut_step

        def cutting(t, nid, parent):
            cuts.append(parent)
            return cut_step(t, nid, parent)

        monkeypatch.setattr(proofs_mod, "_cut_step", cutting)
        first = prove(tree, "A")
        assert len(cuts) == 4 and hashes == []
        parent = tree.parent_id(tree.leaf_node("A").node_id)
        cuts.clear()
        second = prove(tree, "B")
        assert cuts == [parent] and hashes == []
        assert first.steps[1:] == second.steps[1:]


class TestSnapshots:
    def test_root_does_not_commit_to_arity(self, fixtures_dir):
        # config.arity bounds the child counts and nothing else: a raised
        # bound loads the same root, one below a node's child count raises
        golden = fixtures_dir / "golden"
        snapshot = json.loads((golden / "build_demo16_m2.snapshot.json").read_text(encoding="utf-8"))
        root = AdaptiveTree.from_snapshot(snapshot).root_hash()
        snapshot["config"]["arity"] = 5
        assert AdaptiveTree.from_snapshot(snapshot).root_hash() == root
        snapshot = json.loads((golden / "build_demo16_m16.snapshot.json").read_text(encoding="utf-8"))
        snapshot["config"]["arity"] = 4
        with pytest.raises(StructureError, match=re.escape("internal node with 16 children (arity 4)")):
            AdaptiveTree.from_snapshot(snapshot)

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
        # version 2: each node's child count in preorder, the leaves left to
        # right, the probabilities by key and the root; no per-node ids or hashes
        snap = binary_demo_tree.to_snapshot()
        assert list(snap) == ["format_version", "config", "widths", "leaves", "probabilities", "root_hex"]
        assert snap["format_version"] == 2 and snap["config"] == {"arity": 2, "hash": "sha-256"}
        assert snap["widths"] == [2, 2, 0, 0, 2, 2, 0, 0, 2, 2, 0, 0, 2, 0, 0]
        assert snap["leaves"] == [[key, key.encode().hex()] for key in "AHBDCFEG"]
        assert list(snap["probabilities"]) == sorted("ABCDEFGH")
        assert snap["root_hex"] == binary_demo_tree.root_hash().hex()

    def test_deep_chain_round_trip(self, tmp_path):
        # a caterpillar 100,000 leaves deep: far deeper than the recursion
        # limit, and a nested JSON list this deep would not parse
        tree = build_balanced(make_leaves(["k000000"]), TreeConfig(2))
        for i in range(1, 100_001):
            tree.split_leaf("k000000", f"k{i:06d}", b"")
        path = tmp_path / "chain.json"
        tree.save(path)
        loaded = AdaptiveTree.load(path)
        assert loaded.root_hash() == tree.root_hash()
        assert loaded.depth("k000000") == 100_000
        assert loaded.depths() == tree.depths()

    def test_only_sha256_snapshots_load(self, binary_demo_tree):
        snap = binary_demo_tree.to_snapshot()
        snap["config"]["hash"] = "md5"
        with pytest.raises(StructureError):
            AdaptiveTree.from_snapshot(snap)

    @pytest.mark.parametrize("payload_hex", ["ABCD", "abCD", "ab cd", "ab\ncd", " abcd", "abcd\n"])
    def test_non_canonical_payload_hex_raises_format_error(self, payload_hex):
        # each decodes to the payload the snapshot was written from, yet only
        # "abcd" is what to_snapshot writes for it: one reading per snapshot
        tree = build_balanced([("A", b"\xab\xcd", 0.5), ("B", b"B", 0.5)], TreeConfig(2))
        snap = tree.to_snapshot()
        assert snap["leaves"][0] == ["A", "abcd"]
        snap["leaves"][0][1] = payload_hex
        with pytest.raises(FormatError, match="payload_hex .* is non-canonical hex"):
            AdaptiveTree.from_snapshot(snap)

    @pytest.mark.parametrize("field, value", MALFORMED_TOP_LEVEL)
    def test_malformed_top_level_raises_format_error(self, binary_demo_tree, field, value):
        snap = malform(binary_demo_tree.to_snapshot(), field, value)
        with pytest.raises(FormatError):
            AdaptiveTree.from_snapshot(snap)

    def test_version_1_snapshot_raises_format_error(self):
        # each snapshot has one reading: the per-node form is refused, not read
        with pytest.raises(FormatError, match="snapshot format_version 'missing', expected 2"):
            AdaptiveTree.from_snapshot(json.loads(json.dumps(V1_SNAPSHOT)))
        with pytest.raises(FormatError, match=re.escape("snapshot format_version 1, expected 2")):
            AdaptiveTree.from_snapshot(dict(V1_SNAPSHOT, format_version=1))

    def test_lone_surrogate_key_raises_format_error(self, binary_demo_tree):
        # a lone surrogate is a valid JSON string, but it has no UTF-8 bytes to hash
        snap = binary_demo_tree.to_snapshot()
        assert snap["leaves"][0][0] == "A"
        snap["leaves"][0][0] = "\udc00"
        snap["probabilities"]["\udc00"] = snap["probabilities"].pop("A")
        with pytest.raises(FormatError, match="UTF-8"):
            AdaptiveTree.from_snapshot(json.loads(json.dumps(snap)))

    @pytest.mark.parametrize(
        "defect, error",
        [
            ("missing_child", StructureError),
            ("duplicate_key", DuplicateKeyError),
            ("duplicate_id", StructureError),
            ("unknown_root", StructureError),
            ("one_child", StructureError),
            ("too_many_children", StructureError),
            ("extra_zero_key", ProbabilityError),
            ("missing_zero_leaf", ProbabilityError),
            ("leaf_dropped", StructureError),
            ("leaf_added", StructureError),
        ],
    )
    def test_inconsistent_shape_rejected(self, binary_demo_tree, defect, error):
        # binary_demo_tree in preorder: the root, [A, H], A, H, then the
        # root's second child at 4 over [B, D] at 5 and [[C, F], [E, G]] at 8
        snap = binary_demo_tree.to_snapshot()
        widths, leaves, probs = snap["widths"], snap["leaves"], snap["probabilities"]
        assert widths[4:9] == [2, 2, 0, 0, 2] and leaves[2:4] == [["B", "42"], ["D", "44"]]
        if defect == "missing_child":  # a node lists a child that no node fills
            widths[4] = 3
        elif defect == "duplicate_key":
            leaves[2][0] = "A"
        elif defect == "duplicate_id":  # the last node listed twice: the root closes before the widths end
            widths.append(0)
            leaves.append(leaves[-1])
        elif defect == "unknown_root":  # a node's digest, not the root's
            snap["root_hex"] = hash_leaf("A", b"A").hex()
        elif defect == "one_child":  # [B, D] keeps B only
            widths[5] = 1
            del widths[7], leaves[3]
            probs["B"] += probs.pop("D")
        elif defect == "too_many_children":  # [B, D, Z]
            widths[5] = 3
            widths.insert(8, 0)
            leaves.insert(4, ["Z", ""])
            probs["Z"] = 0.0
        elif defect == "extra_zero_key":
            probs["Z"] = 0.0
        elif defect == "missing_zero_leaf":  # H's mass moves to A, so H is a zero-probability leaf left out
            probs["A"] += probs.pop("H")
        elif defect == "leaf_dropped":  # one zero width more than the leaves listed
            del leaves[-1]
        else:  # one leaf more than the zero widths
            leaves.append(["Z", ""])
        with pytest.raises(error) as caught:
            AdaptiveTree.from_snapshot(snap)
        if defect == "too_many_children":
            assert "internal node with 3 children (arity 2)" in str(caught.value)

    def test_tampered_hash_rejected(self, binary_demo_tree):
        # root_hex binds the whole document: one nibble off refuses it
        snap = binary_demo_tree.to_snapshot()
        snap["root_hex"] = format(int(snap["root_hex"][0], 16) ^ 1, "x") + snap["root_hex"][1:]
        with pytest.raises(StructureError, match="is not the root of its widths and leaves"):
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
        # another shape over the same leaves in the same order: the widths
        # close one preorder over the leaves, but the root differs
        snap = binary_demo_tree.to_snapshot()
        caterpillar = "G"
        for key in reversed("AHBDCFE"):
            caterpillar = [key, caterpillar]
        other = AdaptiveTree.from_nested(caterpillar, binary_demo_tree.probabilities, TreeConfig(2))
        assert other.leaf_keys() == binary_demo_tree.leaf_keys()
        snap["widths"] = other.to_snapshot()["widths"]
        with pytest.raises(StructureError, match="is not the root of its widths and leaves"):
            AdaptiveTree.from_snapshot(snap)


def snapshot_edits(snap: dict, i: int):
    """(name, edited copy) for single edits of a version-2 snapshot, each at
    a place chosen by ``i``: a width +1 or -1, a key character (in the leaves
    and the probabilities alike), a payload byte, a root_hex nibble, the
    version set to 1 or 3 or removed, a field added and a leaf dropped."""
    widths, leaves = snap["widths"], snap["leaves"]
    w, k = i % len(widths), i % len(leaves)

    def edited(change):
        copy = json.loads(json.dumps(snap))
        change(copy)
        return copy

    def rekey(copy):
        key = copy["leaves"][k][0]
        at = i % len(key)
        new = key[:at] + chr(ord(key[at]) ^ 1) + key[at + 1 :]
        copy["leaves"][k][0] = new
        copy["probabilities"][new] = copy["probabilities"].pop(key)

    def repay(copy):
        payload = bytes.fromhex(copy["leaves"][k][1])
        copy["leaves"][k][1] = (bytes([payload[0] ^ 1]) + payload[1:]).hex() if payload else "00"

    yield "width+1", edited(lambda c: c["widths"].__setitem__(w, widths[w] + 1))
    if widths[w]:
        yield "width-1", edited(lambda c: c["widths"].__setitem__(w, widths[w] - 1))
    yield "key", edited(rekey)
    yield "payload", edited(repay)
    root = snap["root_hex"]
    yield "root_hex", edited(lambda c: c.__setitem__("root_hex", root[:-1] + format(int(root[-1], 16) ^ 1, "x")))
    yield "version1", edited(lambda c: c.__setitem__("format_version", 1))
    yield "version3", edited(lambda c: c.__setitem__("format_version", 3))
    yield "no_version", edited(lambda c: c.pop("format_version"))
    yield "extra_field", edited(lambda c: c.__setitem__("nodes", []))
    yield "leaf_dropped", edited(lambda c: c["leaves"].pop(k))


class TestSnapshotFuzz:
    """Version-2 snapshots of trees that every mutation kind, clones and
    earlier round trips reshaped."""

    @given(st.sampled_from([2, 3, 4, 16]), st.integers(1, 10),
           st.lists(st.tuples(st.sampled_from(APPLY_OPS_KINDS), st.integers(0, 999), st.integers(0, 999)),
                    max_size=12),
           st.integers(0, 999), st.randoms())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_and_single_edits(self, m, n, ops, i, rnd):
        tree = apply_ops(random_tree(random.Random(rnd.randint(0, 2**32)), n, m), ops)
        snap, root = tree.to_snapshot(), tree.root_hash()
        loaded = AdaptiveTree.from_snapshot(json.loads(json.dumps(snap)))
        assert loaded.root_hash() == root and loaded.to_snapshot() == snap
        # the builder's ids: the k-th node in post-order is n<k>
        assert post_order(loaded) == list(node_ids(loaded))
        for nid, new in reloaded_ids(tree).items():
            old_node, new_node = tree.node(nid), loaded.node(new)
            assert (new_node.key, new_node.payload, new_node.hash) == (old_node.key, old_node.payload, old_node.hash)
        for name, edited in snapshot_edits(snap, i):
            try:
                edited_root = AdaptiveTree.from_snapshot(edited).root_hash()
            except (FormatError, StructureError, DuplicateKeyError, ProbabilityError):
                continue
            assert edited_root != root, name

    def test_unbound_fields_load_unchanged(self, binary_demo_tree):
        # The root binds the shape, the keys and the payloads, not m or the
        # weights: a raised config.arity and a probability moved inside the
        # 1e-9 sum tolerance both load to the same root.
        snap, root = binary_demo_tree.to_snapshot(), binary_demo_tree.root_hash()
        snap["config"]["arity"] = 3
        snap["probabilities"]["A"] += 0.5 * PROB_SUM_TOL
        loaded = AdaptiveTree.from_snapshot(snap)
        assert loaded.root_hash() == root and loaded.config.arity == 3
        assert loaded.probabilities["A"] == binary_demo_tree.probabilities["A"] + 0.5 * PROB_SUM_TOL
