"""Alternative enumeration, selection, and swap optimization."""

import json
import math
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import MappingProxyType

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
    apply_best,
    build_balanced,
    discrepancy_report,
    enumerate_add_alternatives,
    optimize_swaps,
    prove,
    verify,
)
import adaptive_merkle._formats as formats_mod
import adaptive_merkle.bench as bench_mod
import adaptive_merkle.metrics as metrics_mod
import adaptive_merkle.restructure as restructure_mod
import adaptive_merkle.tree as tree_mod
from adaptive_merkle.coding import brute_force_min_avg_length, huffman_codes, tree_from_codes
from adaptive_merkle.metrics import entropy
from adaptive_merkle.restructure import (
    CANDIDATE_EPS,
    DEFAULT_MAX_ITERS,
    IMPROVEMENT_EPS,
    apply_alternative,
    enumerate_swap_alternatives,
    optimize_leaf_swaps,
)
from adaptive_merkle.tree import hash_internal
from adaptive_merkle.workload import zipf_distribution

from helpers import (
    apply_ops,
    changed_parents,
    children_of,
    min_avg_length_for_depths,
    node_ids,
    open_internal_ids,
    random_distribution,
    random_tree,
    reference_add_alternatives,
    relabelled,
    reloaded_ids,
    root_path,
)

TOL = 1e-9


def two_leaf_tree(m=2):
    return build_balanced([("A", b"A", 0.875), ("B", b"B", 0.125)], TreeConfig(m))


def delta_by_target(alternatives):
    return {alt.target: alt.resulting_delta for alt in alternatives}


def brute_min_key(tree, node_id):
    node = tree.node(node_id)
    if node.is_leaf:
        return node.key
    return min(brute_min_key(tree, cid) for cid in node.children)


def climbed_depth(tree, node_id):
    depth = 0
    while (node_id := tree.parent_id(node_id)) is not None:
        depth += 1
    return depth


def reference_optimize(tree, max_iters):
    """The swap loop by its definition: list every pair, sort, apply the first."""
    steps = []
    for _ in range(max_iters):
        alternatives = enumerate_swap_alternatives(tree)
        best = sorted(alternatives, key=lambda alt: alt.rank_key)[0]
        current = next(alt.resulting_delta for alt in alternatives if alt.kind == "no_op")
        if best.kind == "no_op" or best.resulting_delta >= current - IMPROVEMENT_EPS:
            break
        apply_alternative(tree, best)
        delta_after = discrepancy_report(tree).delta
        steps.append((best.target, best.resulting_delta.hex(), current.hex(), delta_after.hex(),
                      len(alternatives)))
        if delta_after <= CANDIDATE_EPS:
            break
    return steps


def swap_free_by_pairs(tree):
    """No leaf outweighs a shallower one: the swap-free definition, pair by pair."""
    depths, probs = tree.depths(), tree.probabilities
    return all(
        probs[s] >= probs[t] for s in depths for t in depths if depths[s] < depths[t]
    )


def grown_tree(probs, m):
    """The insertion loop of the bench and the workloads, hottest key first,
    so that no prefix of ``probs`` sums to 0."""
    keys = sorted(probs, key=lambda key: (-probs[key], key))
    tree = build_balanced([(keys[0], keys[0].encode(), 1.0)], TreeConfig(m))
    for i, key in enumerate(keys[1:], start=2):
        total = sum(probs[k] for k in keys[:i])
        prefix = {k: probs[k] / total for k in keys[:i]}
        apply_best(tree, enumerate_add_alternatives(tree, key, prefix))
        optimize_swaps(tree)
    return tree


@st.composite
def swap_free_cases(draw):
    """Trees that are swap-free by construction, some nudged one ulp off.

    Weights are integers over a power-of-two total, so probabilities and
    every sum of them are exact, and few distinct values make equal
    probabilities at different depths common. The shape is a Huffman tree
    (optimal, so swap-free with its own probabilities), a tree grown by the
    insertion loop or a random tree; the last two get the probabilities
    sorted onto their depths, heaviest shallowest. A nudged case then
    raises one deeper leaf tied with a shallower one by one ulp, which
    inverts that pair and nothing else by more than an ulp.
    """
    n = draw(st.integers(1, 30))
    m = draw(st.sampled_from([2, 3, 4, 16]))
    total = 2 ** draw(st.integers(0, 10))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    probs = {f"k{i:03d}": w / total for i, w in enumerate(weights)}
    source = draw(st.sampled_from(["huffman", "grown", "sorted"]))
    if source == "huffman":
        tree = tree_from_codes(huffman_codes(probs, m))
    else:
        if source == "grown":
            tree = grown_tree(probs, m)
        else:
            tree = random_tree(random.Random(draw(st.integers(0, 2**32 - 1))), n, m, probs)
        by_depth = sorted(tree.depths().items(), key=lambda kv: (kv[1], kv[0]))
        heaviest_first = sorted(probs.values(), reverse=True)
        tree.set_probabilities({key: p for (key, _), p in zip(by_depth, heaviest_first)})
    depths, probs = tree.depths(), dict(tree.probabilities)
    ties = [
        (s, t) for s in sorted(depths) for t in sorted(depths)
        if depths[s] < depths[t] and probs[s] == probs[t]
    ]
    nudged = bool(ties) and draw(st.booleans())
    if nudged:
        _, t = draw(st.sampled_from(ties))
        probs[t] = math.nextafter(probs[t], math.inf)
        tree.set_probabilities(probs)
    return tree, nudged, draw(st.integers(1, 64))


@st.composite
def swap_cases(draw):
    """Random tree and near-tied probabilities.

    Weights are integers over a total that is often a power of two, so many
    probabilities are dyadic and tie exactly; some are then nudged by one or
    two ulps so that scores of neighbouring pairs differ only by rounding.
    """
    n = draw(st.integers(1, 30))
    m = draw(st.sampled_from([2, 3, 4, 16]))
    total = draw(st.one_of(st.integers(0, 10).map(lambda k: 2**k), st.integers(1, 10**6)))
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
    weights = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    nudges = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    probs = {}
    for i, (w, nudge) in enumerate(zip(weights, nudges)):
        p = w / total
        for _ in range(abs(nudge)):
            p = math.nextafter(p, math.copysign(math.inf, nudge))
        probs[f"k{i:03d}"] = max(p, 0.0)
    tree = random_tree(random.Random(draw(st.integers(0, 2**32 - 1))), n, m, probs)
    return tree, draw(st.integers(1, 64))


class TestEnumerateAdd:
    def test_table1_two_alternatives(self):
        # split-A evaluates to k_A - H = 1.75 - 1.5 = 0.25; the acceptance
        # suite additionally pins the per-leaf breakdown of this case
        tree = two_leaf_tree()
        alts = enumerate_add_alternatives(tree, "C", {"A": 0.5, "B": 0.25, "C": 0.25})
        assert len(alts) == 2
        assert delta_by_target(alts) == pytest.approx(
            {("A",): 0.25, ("B",): 0.0}, abs=TOL
        )

    def test_m4_full_root_splits_only(self):
        tree = build_balanced([(k, k.encode(), 0.25) for k in "ABCD"], TreeConfig(4))
        probs = {"A": 0.5, "B": 0.125, "C": 0.125, "D": 0.125, "E": 0.125}
        alts = enumerate_add_alternatives(tree, "E", probs)
        assert len(alts) == 4
        assert all(alt.kind == "split" for alt in alts)

    def test_m4_open_root_attach_plus_splits(self):
        tree = two_leaf_tree(m=4)
        alts = enumerate_add_alternatives(tree, "C", {"A": 0.5, "B": 0.25, "C": 0.25})
        kinds = sorted(alt.kind for alt in alts)
        assert kinds == ["attach", "split", "split"]
        attach = next(alt for alt in alts if alt.kind == "attach")
        assert attach.resulting_delta == pytest.approx(0.25, abs=TOL)

    def test_one_attach_per_node_not_per_slot(self):
        # root with 2 of 4 slots free still yields exactly one attach option
        tree = AdaptiveTree.from_nested(["A", "B"], {"A": 0.5, "B": 0.5}, TreeConfig(4))
        alts = enumerate_add_alternatives(tree, "C", {"A": 0.4, "B": 0.4, "C": 0.2})
        assert sum(1 for alt in alts if alt.kind == "attach") == 1

    def test_binary_alternative_count_equals_leaf_count(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(1, 16)
            probs = random_distribution(rng, n)
            tree = build_balanced([(k, k.encode(), p) for k, p in sorted(probs.items())], TreeConfig(2))
            new_probs = {k: p / 2 for k, p in probs.items()}
            new_probs["zzz"] = 0.5
            alts = enumerate_add_alternatives(tree, "zzz", new_probs)
            assert len(alts) == n

    def test_duplicate_key_rejected(self):
        tree = two_leaf_tree()
        with pytest.raises(DuplicateKeyError):
            enumerate_add_alternatives(tree, "A", {"A": 0.5, "B": 0.5})

    def test_distribution_mismatch_rejected(self):
        tree = two_leaf_tree()
        with pytest.raises(ProbabilityError):
            enumerate_add_alternatives(tree, "C", {"A": 0.5, "C": 0.5})

    def test_candidate_delta_audit(self):
        # resulting_delta must equal a from-scratch report on the mutated copy
        rng = random.Random(29)
        for _ in range(25):
            n = rng.randint(1, 10)
            m = rng.choice([2, 3, 4])
            tree = random_tree(rng, n, m)
            new_probs = dict(random_distribution(rng, n + 1))
            keys = sorted(tree.leaf_keys()) + ["zzz"]
            new_probs = dict(zip(keys, new_probs.values()))
            alternatives = enumerate_add_alternatives(tree, "zzz", new_probs)
            attaches = [alt for alt in alternatives if alt.kind == "attach"]
            assert [alt.target[0] for alt in attaches] == open_internal_ids(tree)
            for alt in attaches:
                assert alt.sort_labels == (brute_min_key(tree, alt.target[0]),)
            for alt in alternatives:
                candidate = tree.clone()
                apply_alternative(candidate, alt)
                assert discrepancy_report(candidate).delta == pytest.approx(
                    alt.resulting_delta, abs=TOL
                )


    def test_delta_floats_sum_old_leaves_in_key_order(self):
        # The recorded deltas (golden files, replay audit rows) fix the float
        # summation order: old leaves in key order, as the report sums k_A,
        # then the placement terms.
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randint(2, 40)
            m = rng.choice([2, 3, 4, 16])
            tree = random_tree(rng, n, m)
            new_probs = dict(zip(sorted(tree.leaf_keys()) + ["zzz"], random_distribution(rng, n + 1).values()))
            h = entropy(list(new_probs.values()), m)
            base_k = 0.0
            for key in sorted(tree.leaf_keys()):
                base_k += new_probs[key] * tree.depth(key)
            for alt in enumerate_add_alternatives(tree, "zzz", new_probs):
                if alt.kind == "split":
                    key = alt.target[0]
                    k = base_k + new_probs[key] + new_probs["zzz"] * (tree.depth(key) + 1)
                else:
                    k = base_k + new_probs["zzz"] * (climbed_depth(tree, alt.target[0]) + 1)
                assert alt.resulting_delta.hex() == (k - h).hex()


@st.composite
def add_cases(draw):
    """A random tree, some of it reshaped by splits, attaches, swaps,
    snapshot round trips and clones, and a new distribution over its leaves
    plus "new" in which some weights, the new leaf's too, are 0."""
    m = draw(st.sampled_from([2, 3, 4, 16]))
    n = draw(st.integers(1, 30))
    tree = random_tree(random.Random(draw(st.integers(0, 2**32 - 1))), n, m)
    ops = st.tuples(st.sampled_from(["split", "attach", "swap", "snapshot", "clone"]),
                    st.integers(0, 999), st.integers(0, 999))
    tree = apply_ops(tree, draw(st.lists(ops, max_size=8)))
    keys = tree.leaf_keys() + ["new"]
    weights = draw(st.lists(st.integers(0, 4), min_size=len(keys), max_size=len(keys)))
    if not any(weights):
        weights[-1] = 1
    total = sum(weights)
    return tree, {key: w / total for key, w in zip(keys, weights)}


def add_record(alt):
    return (alt.kind, alt.target, alt.resulting_delta.hex(), alt.sort_labels, alt.new_key, alt.new_payload,
            alt.new_probs)


class TestAddModeOracle:
    @given(add_cases(), st.sampled_from([None, b"payload"]))
    @settings(max_examples=150, deadline=None)
    def test_matches_the_walk_bit_for_bit(self, case, payload):
        tree, probs = case
        got = enumerate_add_alternatives(tree, "new", probs, payload)
        want = reference_add_alternatives(tree, "new", probs, payload)
        assert [add_record(alt) for alt in got] == [add_record(alt) for alt in want]

    def test_free_slots_after_a_snapshot_load(self, quad_demo_tree):
        loaded = AdaptiveTree.from_snapshot(quad_demo_tree.to_snapshot())
        probs = {key: 0.125 for key in "CDEF"} | {"A": 0.25, "B": 0.0, "new": 0.25}
        got = enumerate_add_alternatives(loaded, "new", probs)
        assert [alt.kind for alt in got].count("attach") == 1  # B's parent; the root is full
        assert [add_record(alt) for alt in got] == [
            add_record(alt) for alt in reference_add_alternatives(loaded, "new", probs)
        ]


def mirrored_shape(tree, nid):
    """The nested-list shape below a node with every node's children reversed."""
    node = tree.node(nid)
    if node.children is None:
        return node.key
    return [mirrored_shape(tree, cid) for cid in reversed(node.children)]


def split_scores(tree, new_probs):
    return [(alt.kind, alt.target, alt.resulting_delta.hex())
            for alt in enumerate_add_alternatives(tree, "zzz", new_probs) if alt.kind == "split"]


class TestAddScoresIgnoreSiblingOrder:
    """A score depends only on each leaf's depth and probability, so trees
    with the same depths score every split the same, bit for bit."""

    def test_mirror_scores_splits_alike(self):
        rng = random.Random(47)
        for _ in range(60):
            n = rng.randint(2, 40)
            m = rng.choice([2, 3, 4, 16])
            tree = random_tree(rng, n, m)
            mirror = AdaptiveTree.from_nested(mirrored_shape(tree, tree.root_id), tree.probabilities, TreeConfig(m))
            assert mirror.depths() == tree.depths()
            new_probs = dict(zip(sorted(tree.leaf_keys()) + ["zzz"], random_distribution(rng, n + 1).values()))
            assert split_scores(mirror, new_probs) == split_scores(tree, new_probs)

    def test_grown_tree_scores_as_its_snapshot_reload(self):
        # the same alternatives in the same order; an attach names its
        # node by the loaded tree's id, the node's place in post-order
        rng = random.Random(53)
        for m in (2, 3, 4):
            tree = grown_tree(random_distribution(rng, 24), m)
            loaded, ids = AdaptiveTree.from_snapshot(json.loads(json.dumps(tree.to_snapshot()))), reloaded_ids(tree)
            new_probs = dict(zip(sorted(tree.leaf_keys()) + ["zzz"], random_distribution(rng, 25).values()))
            assert [add_record(alt) for alt in enumerate_add_alternatives(loaded, "zzz", new_probs)] == [
                add_record(relabelled(alt, ids)) for alt in enumerate_add_alternatives(tree, "zzz", new_probs)
            ]


# case: (new key, payload); None is the listing's default payload, the key's
# UTF-8 bytes
MALFORMED_NEW_LEAVES = {
    "int_key": (5, None),
    "none_key": (None, None),
    "list_key": (["x"], None),
    "lone_surrogate_key": ("\ud800", None),
    "existing_key": ("A", None),
    "str_payload": ("C", "str"),
    "bytearray_payload": ("C", bytearray(b"x")),
}


class TestAddKeyChecks:
    """The messages name the keys that are missing and the ones that are extra."""

    @pytest.mark.parametrize(
        "probs, missing, extra",
        [
            ({"A": 0.5, "C": 0.5}, ["B"], []),
            ({"A": 0.25, "B": 0.25, "C": 0.25, "Z": 0.25}, [], ["Z"]),
            ({"A": 0.5, "B": 0.5}, ["C"], []),
            ({"A": 0.25, "B": 0.25, "Z": 0.5}, ["C"], ["Z"]),
            ({"A": 0.25, "Z": 0.25, "C": 0.5}, ["B"], ["Z"]),
        ],
        ids=["old_leaf_missing", "extra_key", "new_key_missing", "new_key_replaced", "old_leaf_replaced"],
    )
    def test_distribution_mismatch_message(self, probs, missing, extra):
        message = f"probability keys do not match tree leaves (missing {missing}, extra {extra})"
        with pytest.raises(ProbabilityError, match=f"^{re.escape(message)}$"):
            enumerate_add_alternatives(two_leaf_tree(), "C", probs)

    def test_new_key_already_a_leaf(self):
        with pytest.raises(DuplicateKeyError, match="^leaf key 'A' already present$"):
            enumerate_add_alternatives(two_leaf_tree(), "A", {"A": 0.5, "B": 0.25, "C": 0.25})

    @pytest.mark.parametrize("case", sorted(MALFORMED_NEW_LEAVES))
    def test_malformed_new_leaf_refused_as_the_tree_refuses_it(self, case):
        # The listing takes the tree's one leaf rule: the same typed error and
        # message as split_leaf and attach_leaf, with its default payload or
        # an explicit one, and the tree left as it was.
        key, payload = MALFORMED_NEW_LEAVES[case]
        tree = AdaptiveTree.from_nested(["A", "B"], {"A": 0.5, "B": 0.5}, TreeConfig(3))
        before = tree.to_snapshot()
        probs = {"A": 0.25, "B": 0.25}
        if key.__hash__ is not None:  # a list key can name no probability
            probs[key] = 0.5
        given = b"p" if payload is None else payload
        calls = [
            lambda: enumerate_add_alternatives(tree, key, probs, payload),
            lambda: enumerate_add_alternatives(tree, key, probs, given),
            lambda: tree.split_leaf("A", key, given),
            lambda: tree.attach_leaf(tree.root_id, key, given),
        ]
        refusals = set()
        for call in calls:
            with pytest.raises(Exception) as info:
                call()
            refusals.add((type(info.value), str(info.value)))
            assert tree.to_snapshot() == before
        ((error, _),) = refusals
        assert error in (DuplicateKeyError, StructureError, FormatError)

    @pytest.mark.parametrize(
        "probs, missing, extra",
        [({"A": 1.0}, ["B"], []), ({"A": 0.5, "B": 0.5, "Z": 0.0}, [], ["Z"]), ({"A": 0.5, "Z": 0.5}, ["B"], ["Z"])],
        ids=["missing", "extra", "replaced"],
    )
    def test_set_probabilities_mismatch_message(self, probs, missing, extra):
        message = f"probability keys do not match tree leaves (missing {missing}, extra {extra})"
        with pytest.raises(ProbabilityError, match=f"^{re.escape(message)}$"):
            two_leaf_tree().set_probabilities(probs)

    def test_read_only_mapping_accepted(self):
        probs = {"A": 0.5, "B": 0.25, "C": 0.25}
        tree = two_leaf_tree()
        got = enumerate_add_alternatives(tree, "C", MappingProxyType(probs))
        assert [add_record(alt) for alt in got] == [
            add_record(alt) for alt in enumerate_add_alternatives(tree, "C", probs)
        ]
        source = {"A": 0.25, "B": 0.75}
        tree.set_probabilities(MappingProxyType(source))
        source["A"] = 0.5  # the tree stored a copy, not the caller's map
        assert tree.probabilities == {"A": 0.25, "B": 0.75}
        assert type(tree.probabilities) is MappingProxyType


class TestRecords:
    FIELDS = ["kind", "target", "resulting_delta", "sort_labels", "new_key", "new_payload", "new_probs"]

    @pytest.mark.parametrize("field", FIELDS)
    def test_alternative_fields_are_read_only(self, field):
        alt = enumerate_add_alternatives(two_leaf_tree(), "C", {"A": 0.5, "B": 0.25, "C": 0.25})[0]
        with pytest.raises(AttributeError):
            setattr(alt, field, None)

    def test_no_op_json_has_no_target(self, binary_demo_tree):
        # the audit listing ends with the no-op, which carries the current delta
        no_op = enumerate_swap_alternatives(binary_demo_tree)[-1]
        assert no_op.to_json_dict() == {"kind": "no_op", "target": None, "delta": 0.25}

    def test_outcome_json_unchanged_on_the_demo_trees(self, binary_demo_tree, quad_demo_tree):
        assert [o.to_json_dict() for o in optimize_leaf_swaps(binary_demo_tree)] == [
            {"chosen": {"kind": "swap", "target": ["B", "H"], "delta": 0.0625}, "candidates": 4,
             "delta_before": 0.25, "delta_after": 0.0625},
            {"chosen": {"kind": "swap", "target": ["F", "H"], "delta": 0.0}, "candidates": 2,
             "delta_before": 0.0625, "delta_after": 0.0},
        ]
        assert [o.to_json_dict() for o in optimize_leaf_swaps(quad_demo_tree)] == [
            {"chosen": {"kind": "swap", "target": ["B", "C"], "delta": 0.1875}, "candidates": 4,
             "delta_before": 0.375, "delta_after": 0.1875},
        ]


class TestEnumerateSwaps:
    def test_example_1_1_candidates_and_deltas(self, binary_demo_tree):
        alts = enumerate_swap_alternatives(binary_demo_tree)
        swaps = {alt.target: alt.resulting_delta for alt in alts if alt.kind == "swap"}
        assert swaps == pytest.approx(
            {("B", "F"): 0.375, ("B", "H"): 0.0625, ("F", "H"): 0.125}, abs=TOL
        )
        candidates = {k for pair in swaps for k in pair}
        assert candidates == {"B", "F", "H"}
        assert any(alt.kind == "no_op" for alt in alts)

    def test_zero_delta_tree_only_noop(self):
        tree = AdaptiveTree.from_nested(
            ["A", ["B", "C"]], {"A": 0.5, "B": 0.25, "C": 0.25}, TreeConfig(2)
        )
        alts = enumerate_swap_alternatives(tree)
        assert [alt.kind for alt in alts] == ["no_op"]

    def test_figure_24_swaps(self, quad_demo_tree):
        alts = enumerate_swap_alternatives(quad_demo_tree)
        swaps = {alt.target: alt.resulting_delta for alt in alts if alt.kind == "swap"}
        assert swaps == pytest.approx(
            {("A", "B"): 0.625, ("B", "C"): 0.1875, ("B", "D"): 0.1875}, abs=TOL
        )

    def test_equal_depth_pairs_excluded(self, quad_demo_tree):
        # A, C, D all sit at depth 1 with nonzero delta_i; no pair among them appears
        alts = enumerate_swap_alternatives(quad_demo_tree)
        targets = [alt.target for alt in alts if alt.kind == "swap"]
        assert ("A", "C") not in targets and ("A", "D") not in targets and ("C", "D") not in targets

    def test_swap_delta_audit(self):
        rng = random.Random(43)
        for _ in range(25):
            tree = random_tree(rng, rng.randint(2, 12), rng.choice([2, 3, 4]))
            for alt in enumerate_swap_alternatives(tree):
                candidate = tree.clone()
                apply_alternative(candidate, alt)
                assert discrepancy_report(candidate).delta == pytest.approx(
                    alt.resulting_delta, abs=TOL
                )


class TestApplyBest:
    def test_unknown_kind_rejected(self, binary_demo_tree):
        before = binary_demo_tree.root_hash()
        alternative = restructure_mod.Alternative("grow", ("A",), 0.0, ("A",))
        with pytest.raises(StructureError, match="unknown alternative kind 'grow'"):
            apply_alternative(binary_demo_tree, alternative)
        assert binary_demo_tree.root_hash() == before

    def test_iteration_4_tie_resolved_lexicographically(self):
        tree = AdaptiveTree.from_nested(
            ["A", [["B", "D"], ["C", "E"]]],
            {"A": 0.5, "B": 0.125, "C": 0.125, "D": 0.125, "E": 0.125},
            TreeConfig(2),
        )
        probs = {"A": 0.5, "B": 0.25, "C": 0.0625, "D": 0.0625, "E": 0.0625, "F": 0.0625}
        alternatives = enumerate_add_alternatives(tree, "F", probs)
        chosen = apply_best(tree, alternatives)
        assert chosen.kind == "split"
        assert chosen.target == ("C",)
        assert chosen.resulting_delta == pytest.approx(0.125, abs=TOL)
        assert chosen.resulting_delta == min(a.resulting_delta for a in alternatives)

    def test_iteration_2_winner(self):
        tree = AdaptiveTree.from_nested(
            ["A", ["B", "C"]], {"A": 0.5, "B": 0.25, "C": 0.25}, TreeConfig(2)
        )
        probs = {"A": 0.5, "B": 0.125, "C": 0.25, "D": 0.125}
        chosen = apply_best(tree, enumerate_add_alternatives(tree, "D", probs))
        assert chosen.target == ("B",)
        assert discrepancy_report(tree).delta == pytest.approx(0.0, abs=TOL)

    def test_single_noop_leaves_tree_unchanged(self, binary_demo_tree):
        before = binary_demo_tree.root_hash()
        alts = [a for a in enumerate_swap_alternatives(binary_demo_tree) if a.kind == "no_op"]
        chosen = apply_best(binary_demo_tree, alts)
        assert chosen.kind == "no_op"
        assert binary_demo_tree.root_hash() == before

    def test_empty_alternatives_rejected(self, binary_demo_tree):
        with pytest.raises(StructureError):
            apply_best(binary_demo_tree, [])

    def test_chosen_is_minimum(self):
        rng = random.Random(53)
        for _ in range(20):
            tree = random_tree(rng, rng.randint(2, 10), rng.choice([2, 4]))
            alts = enumerate_swap_alternatives(tree)
            chosen = apply_best(tree.clone(), alts)
            assert chosen.resulting_delta == min(a.resulting_delta for a in alts)

    def test_tie_break_ignores_list_order(self):
        # Dyadic probabilities tie many deltas exactly; whatever order the
        # alternatives come in, the pick is the first by rank_key.
        rng = random.Random(59)
        ties = 0
        for _ in range(40):
            m = rng.choice([2, 3, 4])
            n = rng.randint(2, 12)
            tree = random_tree(rng, n, m, {f"k{i:03d}": 1 / n for i in range(n)})
            new_probs = {key: 1 / (2 * n) for key in tree.probabilities}
            new_probs["zzz"] = 0.5
            alternatives = enumerate_add_alternatives(tree, "zzz", new_probs)
            expected = sorted(alternatives, key=lambda alt: alt.rank_key)[0]
            ties += sum(alt.resulting_delta == expected.resulting_delta for alt in alternatives) > 1
            rng.shuffle(alternatives)
            assert apply_best(tree.clone(), alternatives) is expected
        assert ties >= 10

    def test_determinism(self):
        rng1, rng2 = random.Random(61), random.Random(61)
        t1 = random_tree(rng1, 12, 2)
        t2 = random_tree(rng2, 12, 2)
        c1 = apply_best(t1, enumerate_swap_alternatives(t1))
        c2 = apply_best(t2, enumerate_swap_alternatives(t2))
        assert c1.kind == c2.kind
        assert c1.target == c2.target
        assert t1.root_hash() == t2.root_hash()


def counting(monkeypatch, name):
    """Replace ``restructure.<name>`` with a wrapper that logs each call."""
    calls = []
    real = getattr(restructure_mod, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(restructure_mod, name, wrapper)
    return calls


class TestReportsPerInsertion:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_one_report_per_insertion(self, monkeypatch, m):
        # The insertion loop the bench and the workloads run: apply_best
        # only applies the move, and optimize_swaps builds a report only
        # past its swap-free exit, for the exchange loop's starting delta.
        calls = counting(monkeypatch, "discrepancy_report")
        keys = [f"k{i:03d}" for i in range(48)]
        dist = dict(zip(keys, zipf_distribution(len(keys), 1.1)))
        random.Random(m).shuffle(keys)  # not hottest first, so that swaps occur
        tree = build_balanced([(keys[0], b"", 1.0)], TreeConfig(m))
        seen = set()
        for i, key in enumerate(keys[1:], start=2):
            calls.clear()
            total = sum(dist[k] for k in keys[:i])
            probs = {k: dist[k] / total for k in keys[:i]}
            apply_best(tree, enumerate_add_alternatives(tree, key, probs))
            assert len(calls) == 0
            swap_free = swap_free_by_pairs(tree)
            optimize_swaps(tree)
            assert len(calls) == (0 if swap_free else 1)
            seen.add(swap_free)
        assert seen == {True, False}  # both paths must actually occur

    @pytest.mark.parametrize("m", [2, 4])
    def test_two_float_sums_per_swap_free_insertion(self, monkeypatch, m):
        # Both of the insertion's probability checks (add mode's and
        # set_probabilities') accept early, so add mode's H and base k_A
        # are its only float_sum calls.
        calls = []
        real = formats_mod.float_sum

        def counted(values):
            calls.append(1)
            return real(values)

        for module in (tree_mod, metrics_mod, restructure_mod):
            monkeypatch.setattr(module, "float_sum", counted)
        keys = [f"k{i:03d}" for i in range(48)]
        dist = dict(zip(keys, zipf_distribution(len(keys), 1.1)))  # hottest first, as grow inserts
        tree = build_balanced([(keys[0], b"", 1.0)], TreeConfig(m))
        swap_free_insertions = 0
        for i, key in enumerate(keys[1:], start=2):
            total = sum(dist[k] for k in keys[:i])
            probs = {k: dist[k] / total for k in keys[:i]}
            calls.clear()
            apply_best(tree, enumerate_add_alternatives(tree, key, probs))
            swap_free = restructure_mod._swap_free(tree)
            optimize_swaps(tree)
            if swap_free:
                assert len(calls) == 2
                swap_free_insertions += 1
        assert swap_free_insertions >= 30


class TestSwapFreeExit:
    """``optimize_swaps`` returns at once on a swap-free tree, and its
    certificate says swap-free exactly when no leaf outweighs a shallower one."""

    def test_swap_free_tree_builds_no_report(self, monkeypatch):
        reports = counting(monkeypatch, "discrepancy_report")
        rng = random.Random(5)
        for m in (2, 3, 4, 16):
            probs = random_distribution(rng, 20)
            tree = tree_from_codes(huffman_codes(probs, m))
            assert swap_free_by_pairs(tree)
            before = tree.root_hash()
            assert optimize_swaps(tree) == []
            assert tree.root_hash() == before
        assert reports == []

    def test_resumed_capped_run_stops_short(self, fixtures_dir):
        # The limit the optimize_swaps docstring states, pinned so that a
        # change to the exit changes it on purpose: after 4 capped moves the
        # tree is swap-free by its leaves, so the resumed call returns [] at
        # k_A 3.6242, while one uncapped call makes 5 moves to 3.6047.
        snapshot = fixtures_dir / "golden" / "insert_demo16_m2.snapshot.json"
        resumed, uncapped = AdaptiveTree.load(snapshot), AdaptiveTree.load(snapshot)
        assert [len(optimize_swaps(resumed, max_iters=4)), len(optimize_swaps(resumed))] == [4, 0]
        assert len(optimize_swaps(uncapped)) == 5
        assert round(discrepancy_report(resumed).k_a, 4) == 3.6242
        assert round(discrepancy_report(uncapped).k_a, 4) == 3.6047

    def test_grown_m4_tree_stops_above_huffman(self, monkeypatch):
        # What the leaf-only exit costs, pinned so that a change to the exit
        # changes it on purpose: hottest-first Zipf(1.1) growth at n=128, m=4
        # ends at 1.2385 x Huffman's k_A, since an insertion that leaves the
        # tree swap-free by its leaves skips every subtree exchange, helpful
        # or not. Exchanging after every insertion, with no exit, ends at 1.0015.
        keys = [f"k{i:03d}" for i in range(128)]
        probs = dict(zip(keys, zipf_distribution(len(keys), 1.1)))
        huffman = huffman_codes(probs, 4).avg_length
        assert round(discrepancy_report(grown_tree(probs, 4)).k_a / huffman, 4) == 1.2385
        monkeypatch.setattr(restructure_mod, "_swap_free", lambda tree: False)
        assert round(discrepancy_report(grown_tree(probs, 4)).k_a / huffman, 4) == 1.0015

    def test_not_swap_free_takes_the_full_path(self, monkeypatch, binary_demo_tree):
        reports = counting(monkeypatch, "discrepancy_report")
        assert not swap_free_by_pairs(binary_demo_tree)
        assert optimize_swaps(binary_demo_tree) != []
        assert len(reports) == 1  # the exchange loop's starting delta

    def test_bad_probabilities_still_raise(self):
        # They raise where they would enter the tree, so optimize_swaps
        # never meets them.
        tree = two_leaf_tree()
        with pytest.raises(ProbabilityError, match="non-finite probability nan for key 'B'"):
            tree.set_probabilities({"A": 1.0, "B": float("nan")})
        with pytest.raises(AttributeError):
            tree.probabilities = {"A": 1.0, "B": float("nan")}
        assert optimize_swaps(tree) == []

    def test_zero_probability_leaf_moves(self):
        # Z at depth 1 is lighter than A and B at depth 2, so the tree is not
        # swap-free. Node exchange moves Z down to Huffman's k_A 1.5, taking
        # B, the larger (weight, label) at depth 2; the audit loop still
        # applies nothing, since Z's discrepancy is 0 and its candidate
        # filter holds Z out.
        probs = {"Z": 0.0, "A": 0.5, "B": 0.5}
        tree = AdaptiveTree.from_nested(["Z", ["A", "B"]], probs, TreeConfig(2))
        audit = tree.clone()
        assert not restructure_mod._swap_free(tree)
        assert [o.chosen.target for o in optimize_swaps(tree)] == [("B", "Z")]
        assert discrepancy_report(tree).k_a == 1.5
        assert optimize_leaf_swaps(audit) == []
        assert discrepancy_report(audit).k_a == 2.0

    @settings(max_examples=300, deadline=None)
    @given(swap_free_cases())
    def test_matches_enumerate_and_sort(self, case):
        # The audit loop has no exit of its own: it takes the same steps as
        # the reference loop, bit for bit, on swap-free trees and on trees
        # one ulp away from swap-free.
        tree, nudged, max_iters = case
        assert swap_free_by_pairs(tree) is not nudged
        assert restructure_mod._swap_free(tree) is not nudged
        reference = tree.clone()
        expected = reference_optimize(reference, max_iters)
        outcomes = optimize_leaf_swaps(tree, max_iters=max_iters)
        steps = [
            (o.chosen.target, o.chosen.resulting_delta.hex(), o.delta_before.hex(),
             o.delta_after.hex(), o.candidates)
            for o in outcomes
        ]
        assert steps == expected
        assert tree.root_hash() == reference.root_hash()

    @settings(max_examples=300, deadline=None)
    @given(swap_cases())
    def test_certificate_matches_pairwise_definition(self, case):
        tree, _ = case
        assert restructure_mod._swap_free(tree) == swap_free_by_pairs(tree)


class TestOptimizeSwaps:
    def test_example_1_1_two_iterations_to_zero(self, binary_demo_tree):
        outcomes = optimize_leaf_swaps(binary_demo_tree, max_iters=64)
        assert len(outcomes) == 2
        assert outcomes[0].chosen.target == ("B", "H")
        assert outcomes[1].chosen.target == ("F", "H")
        assert outcomes[0].delta_after == pytest.approx(0.0625, abs=TOL)
        assert outcomes[1].delta_after == pytest.approx(0.0, abs=TOL)

    def test_figure_24_single_swap(self, quad_demo_tree):
        outcomes = optimize_leaf_swaps(quad_demo_tree, max_iters=64)
        assert len(outcomes) == 1
        assert outcomes[0].chosen.target == ("B", "C")
        assert outcomes[0].delta_after == pytest.approx(0.1875, abs=TOL)

    def test_optimal_tree_empty_sequence(self):
        tree = AdaptiveTree.from_nested(
            ["A", ["B", "C"]], {"A": 0.5, "B": 0.25, "C": 0.25}, TreeConfig(2)
        )
        assert optimize_swaps(tree) == []

    def test_monotone_delta(self):
        rng = random.Random(71)
        for _ in range(30):
            tree = random_tree(rng, rng.randint(2, 20), rng.choice([2, 3, 4]))
            outcomes = optimize_swaps(tree, max_iters=64)
            last = float("inf")
            for outcome in outcomes:
                assert outcome.delta_after < outcome.delta_before - 1e-12
                assert outcome.delta_before <= last + TOL
                last = outcome.delta_after

    def test_small_instance_optimality_audit(self):
        # Whenever the current depth multiset can realize the brute-force
        # optimum (swaps cannot change the multiset), greedy swapping must
        # reach it exactly.
        rng = random.Random(83)
        applicable = 0
        for _ in range(500):
            n = rng.randint(2, 8)
            m = rng.choice([2, 3, 4])
            tree = random_tree(rng, n, m)
            probs = tree.probabilities
            oracle = brute_force_min_avg_length(probs, m)
            reachable = min_avg_length_for_depths(tree.depths().values(), probs.values())
            if abs(reachable - oracle) > TOL:
                continue
            applicable += 1
            optimize_leaf_swaps(tree, max_iters=64)
            final = discrepancy_report(tree)
            assert final.k_a == pytest.approx(oracle, abs=TOL)
        assert applicable >= 50  # the conditional case must actually occur

    @settings(max_examples=300, deadline=None)
    @given(swap_cases())
    def test_matches_enumerate_and_sort(self, case):
        # Same steps as the reference loop, floats compared bit for bit.
        tree, max_iters = case
        reference = tree.clone()
        expected = reference_optimize(reference, max_iters)
        outcomes = optimize_leaf_swaps(tree, max_iters=max_iters)
        steps = [
            (o.chosen.target, o.chosen.resulting_delta.hex(), o.delta_before.hex(),
             o.delta_after.hex(), o.candidates)
            for o in outcomes
        ]
        assert steps == expected
        assert tree.root_hash() == reference.root_hash()

    def test_max_iters_respected(self, binary_demo_tree):
        outcomes = optimize_swaps(binary_demo_tree, max_iters=1)
        assert len(outcomes) == 1

    def test_bad_max_iters(self, binary_demo_tree):
        with pytest.raises(StructureError):
            optimize_swaps(binary_demo_tree, max_iters=0)
        # Both loops take one check: an int, not a bool, at least 1. Uncapped,
        # the caterpillar takes two leaf swaps, so a cap of 1.5 went unmet
        # and True passed as 1; the tree is left as it was.
        for loop in (optimize_swaps, optimize_leaf_swaps):
            for bad in (0, 1.5, True, -1):
                tree = AdaptiveTree.from_nested(
                    ["A", ["B", ["C", "D"]]], {"A": 0.1, "B": 0.2, "C": 0.3, "D": 0.4}, TreeConfig(2)
                )
                root = tree.root_hash()
                with pytest.raises(StructureError, match="max_iters"):
                    loop(tree, max_iters=bad)
                assert tree.root_hash() == root
            assert len(loop(tree)) == 2


class TestOutcomeSerialization:
    def test_json_shape(self, binary_demo_tree):
        outcome = optimize_leaf_swaps(binary_demo_tree, max_iters=1)[0]
        data = outcome.to_json_dict()
        assert set(data) == {"chosen", "candidates", "delta_before", "delta_after"}
        assert data["candidates"] == 4  # B, F, H at three depths: 3 pairs plus the no-op
        assert set(data["chosen"]) == {"kind", "target", "delta"}
        assert data["chosen"]["target"] == ["B", "H"]


def check_hashes(tree):
    """The incremental root equals a full rehash, every leaf's proof
    verifies, and the indexes match the shape."""
    full = tree.clone()
    full.recompute_all_hashes()
    assert full.root_hash() == tree.root_hash()
    root = tree.root_hash()
    assert all(verify(prove(tree, key), root, tree.config.arity) for key in tree.leaf_keys())
    tree.validate()


def recorded_rehashes(patch):
    """Route ``AdaptiveTree._rehash`` through a wrapper that records one
    ``(tree, node_id)`` per call in the list it returns."""
    real = AdaptiveTree._rehash
    calls = []

    def rehash(tree, node_id):
        calls.append((tree, node_id))
        real(tree, node_id)

    patch.setattr(AdaptiveTree, "_rehash", rehash)
    return calls


class TestExchangeRehash:
    """The exchange loop's moves only mark the tree dirty; the next read
    rehashes the union of the moved parents' root paths, each node once."""

    @given(st.sampled_from([2, 3, 4]), st.integers(2, 24), st.sampled_from([1, 3, DEFAULT_MAX_ITERS]), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_optimize_swaps(self, m, n, max_iters, rnd):
        tree = random_tree(random.Random(rnd.randint(0, 2**32)), n, m)
        tree.root_hash()
        replay, moved = tree.clone(), set()
        with pytest.MonkeyPatch.context() as patch:
            calls = recorded_rehashes(patch)
            outcomes = optimize_swaps(tree, max_iters)
            assert calls == []  # moves hash nothing
            # replay the moves one by one on a copy, to see each move's parents
            for outcome in outcomes:
                before = children_of(replay)
                apply_alternative(replay, outcome.chosen)
                moved |= changed_parents(before, replay)
            assert children_of(replay) == children_of(tree)
            calls.clear()
            root = tree.root_hash()
            hashed = [nid for _, nid in calls]
            assert sorted(hashed) == sorted({nid for start in moved for nid in root_path(tree, start)})
            calls.clear()
            assert tree.root_hash() == root
            assert calls == []
        check_hashes(tree)

    @given(st.sampled_from([2, 3, 4]), st.lists(st.integers(0, 20), min_size=2, max_size=24).filter(any))
    @settings(max_examples=60, deadline=None)
    def test_build_adaptive(self, m, weights):
        dist = [(f"k{i:03d}", w / sum(weights)) for i, w in enumerate(weights)]
        with pytest.MonkeyPatch.context() as patch:
            calls = recorded_rehashes(patch)
            tree = bench_mod._build_adaptive(dist, TreeConfig(m))
            assert calls == []  # the build never reads a root: it hashes nothing
            stale = {nid for start in tree._dirty for nid in root_path(tree, start)}
            root = tree.root_hash()
            hashed = [nid for t, nid in calls if t is tree]
            assert len(hashed) == len(calls)
            assert sorted(hashed) == sorted(stale)
            calls.clear()
            assert tree.root_hash() == root
            assert calls == []
        check_hashes(tree)

    def test_hashes_right_when_the_loop_raises(self, monkeypatch):
        # An error after some moves still leaves the tree dirty for every
        # move made, so the next read hashes the moved shape.
        real = restructure_mod._NodeRanks.exchanged
        seen = []

        def exchanged(ranks, u, v):
            seen.append((u, v))
            if len(seen) == 3:
                raise RuntimeError("stop")
            real(ranks, u, v)

        monkeypatch.setattr(restructure_mod._NodeRanks, "exchanged", exchanged)
        rng = random.Random(109)
        while len(seen) < 3:
            seen.clear()
            tree = random_tree(rng, 30, rng.choice([2, 3, 4]))
            before = tree.root_hash()
            try:
                optimize_swaps(tree)
            except RuntimeError:
                pass
        assert tree.root_hash() != before
        check_hashes(tree)

    def test_grow_rehashes_fewer_nodes_than_move_by_move(self):
        # perfbench grow's loop: Zipf(1.1), hottest first, n=128, m=2. Its
        # mutations hash nothing, and the first read hashes each of the 127
        # internal nodes once (the README's figure). Reading the root after
        # every mutation, as a rehash per move would, hashes more and lands
        # on the same root.
        keys = [f"k{i:03d}" for i in range(128)]
        probs = dict(zip(keys, zipf_distribution(len(keys), 1.1)))
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tree_mod, "hash_internal", lambda hashes: calls.append(1) or hash_internal(hashes))
            tree = grown_tree(probs, 2)
            grown = len(calls)
            root = tree.root_hash()
            assert (grown, len(calls) - grown) == (0, 127)
            calls.clear()
            for name in ("split_leaf", "attach_leaf", "swap_nodes"):
                real = getattr(AdaptiveTree, name)
                patch.setattr(AdaptiveTree, name, lambda t, *args, real=real: (real(t, *args), t.root_hash()))
            assert grown_tree(probs, 2).root_hash() == root
        assert len(calls) > 127


def improving_exchanges(tree):
    """Every exchange of two non-nested nodes that lowers k_A by more than
    ``IMPROVEMENT_EPS``, found by trying each pair on a clone."""
    k_a = discrepancy_report(tree).k_a
    ids = [nid for nid in node_ids(tree) if nid != tree.root_id]
    found = []
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            trial = tree.clone()
            try:
                trial.swap_nodes(a, b)
            except StructureError:  # nested
                continue
            if discrepancy_report(trial).k_a < k_a - IMPROVEMENT_EPS:
                found.append((a, b))
    return found


DETERMINISM_SCRIPT = """
import json, random, sys
sys.path[:0] = sys.argv[1:3]
from adaptive_merkle.bench import run_bench
from adaptive_merkle.restructure import optimize_swaps
from helpers import random_tree
rng = random.Random(7)
out = {"optimize": [], "bench": []}
for _ in range(40):
    m, n = rng.choice([2, 3, 4]), rng.randint(2, 24)
    # few distinct dyadic weights, zeros included: equal weights are common
    weights = [rng.choice([0, 1, 1, 2, 4]) for _ in range(n)]
    weights[0] += 1
    probs = {f"k{i:03d}": w / sum(weights) for i, w in enumerate(weights)}
    tree = random_tree(rng, n, m, probs)
    steps = [o.to_json_dict() for o in optimize_swaps(tree)]
    out["optimize"].append([steps, tree.to_snapshot()])
for m in (2, 3, 4, 5):
    for _ in range(3):
        weights = [rng.choice([0, 1, 1, 2, 3]) for _ in range(rng.randint(8, 40))]
        weights[0] += 1
        dist = [(f"k{i:03d}", w) for i, w in enumerate(weights)]
        out["bench"].append(run_bench(dist, m, ["adaptive"]).trees["adaptive"].to_snapshot())
print(json.dumps(out))
"""


class TestNodeExchange:
    """``optimize_swaps`` exchanges whole subtrees after its swap-free exit."""

    def test_grow_reaches_huffman(self):
        # perfbench grow's loop: Zipf(1.1), hottest first, n=128, m=2
        keys = [f"k{i:03d}" for i in range(128)]
        probs = dict(zip(keys, zipf_distribution(len(keys), 1.1)))
        tree = grown_tree(probs, 2)
        tree.validate()
        huffman = huffman_codes(probs, 2).avg_length
        assert discrepancy_report(tree).k_a <= 1.005 * huffman

    def test_no_improving_exchange_remains(self):
        rng = random.Random(97)
        checked = 0
        while checked < 60:
            tree = random_tree(rng, rng.randint(3, 10), rng.choice([2, 3, 4]))
            if restructure_mod._swap_free(tree):
                continue
            checked += 1
            outcomes = optimize_swaps(tree)
            assert outcomes and len(outcomes) < DEFAULT_MAX_ITERS
            assert improving_exchanges(tree) == []
            tree.validate()

    def test_outcomes_chain_and_predict_delta(self):
        rng = random.Random(101)
        kinds = set()
        for _ in range(40):
            tree = random_tree(rng, rng.randint(3, 16), rng.choice([2, 3, 4]))
            delta = discrepancy_report(tree).delta
            for outcome in optimize_swaps(tree):
                kinds.add(outcome.chosen.kind)
                assert outcome.delta_before == delta
                assert outcome.delta_after == outcome.chosen.resulting_delta < delta - IMPROVEMENT_EPS
                delta = outcome.delta_after
            assert discrepancy_report(tree).delta == pytest.approx(delta, abs=1e-12)
        assert kinds == {"swap", "exchange"}

    def test_ranks_follow_every_exchange(self):
        # The ranks kept across exchanges equal a fresh pass, bit for bit,
        # with one entry per node.
        rng = random.Random(107)
        moves = 0
        for _ in range(60):
            tree = random_tree(rng, rng.randint(3, 20), rng.choice([2, 3, 4]))
            ranks = restructure_mod._NodeRanks(tree)
            for _ in range(6):
                _, pair, _ = ranks.best_exchange()
                if pair is None:
                    break
                tree.swap_nodes(*pair)
                ranks.exchanged(*pair)
                moves += 1
                fresh = restructure_mod._NodeRanks(tree)
                assert (ranks.levels, ranks.weight, ranks.label) == (fresh.levels, fresh.weight, fresh.label)
                assert ranks.best_exchange() == fresh.best_exchange()
                assert all(ranks.label[nid] == brute_min_key(tree, nid) for nid in node_ids(tree))
        assert moves >= 100

    def test_ranks_keep_one_entry_per_node_through_settle(self, monkeypatch):
        # The adaptive build's last step: after every exchange and every
        # regroup swap the ranks kept equal a fresh pass entry for entry;
        # every relocate moves into the shallowest open node with the
        # smallest label, read from the ranks, as a tree walk finds it.
        real_exchanged, real_move = restructure_mod._NodeRanks.exchanged, AdaptiveTree.move_node
        moves = {"exchange": 0, "regroup": 0, "relocate": 0}

        def exchanged(ranks, u, v):
            real_exchanged(ranks, u, v)
            tree = ranks.tree
            fresh = restructure_mod._NodeRanks(tree)
            assert (ranks.levels, ranks.weight, ranks.label) == (fresh.levels, fresh.weight, fresh.label)
            assert sorted(nid for entries in ranks.levels.values() for *_, nid in entries) == list(node_ids(tree))
            moves["regroup" if tree._depth[u] == tree._depth[v] else "exchange"] += 1

        def move_node(tree, node_id, parent_id):
            _, _, first_open = min((d, key, nid) for nid, d, key in restructure_mod._open_nodes(tree))
            assert parent_id == first_open
            real_move(tree, node_id, parent_id)
            moves["relocate"] += 1

        monkeypatch.setattr(restructure_mod._NodeRanks, "exchanged", exchanged)
        monkeypatch.setattr(AdaptiveTree, "move_node", move_node)
        rng = random.Random(113)
        for _ in range(60):
            tree = random_tree(rng, rng.randint(3, 30), rng.choice([2, 3, 4]))
            restructure_mod._settle(tree)
            tree.validate()
        assert min(moves.values()) >= 10, moves

    def test_equal_gains_go_to_the_smaller_label_pair(self):
        # Depths 1-2 (V against [W, X], labels V, W) and depths 2-3 (A
        # against X, the larger label of the tied W and X) both gain 0.125;
        # (A, X) sorts first, so the deeper pair wins.
        tree = AdaptiveTree.from_nested(
            ["V", ["A", ["W", "X"]]], {"V": 0.375, "A": 0.125, "W": 0.25, "X": 0.25}, TreeConfig(2)
        )
        first = optimize_swaps(tree, max_iters=1)[0]
        assert (first.chosen.kind, first.chosen.target) == ("swap", ("A", "X"))
        assert first.delta_before - first.delta_after == 0.125

    def test_exchange_record_names_node_ids(self):
        # Exchanging A (0.1, depth 1) with the subtree [B, C] (0.6, depth 2)
        # gains 0.5, more than any leaf swap (0.4): one move puts every leaf
        # at depth 2.
        tree = AdaptiveTree.from_nested(
            ["A", [["B", "C"], "D"]], {"A": 0.1, "B": 0.3, "C": 0.3, "D": 0.3}, TreeConfig(2)
        )
        bc = tree.parent_id(tree.leaf_node("B").node_id)
        (outcome,) = optimize_swaps(tree)
        assert outcome.chosen.kind == "exchange"
        assert outcome.chosen.target == (tree.leaf_node("A").node_id, bc)
        assert outcome.chosen.sort_labels == ("A", "B")
        assert outcome.to_json_dict()["chosen"]["target"] == [f"n{nid}" for nid in outcome.chosen.target]
        assert tree.depths() == {"A": 2, "B": 2, "C": 2, "D": 2}
        assert discrepancy_report(tree).k_a == pytest.approx(2.0, abs=TOL)

    def test_swap_free_tree_keeps_a_helpful_exchange(self):
        # The exit looks at leaves only: no leaf outweighs a shallower one,
        # so the caterpillar comes back unchanged at k_A 2.25, though
        # exchanging A with [C, D] reaches the optimum 2.0.
        tree = AdaptiveTree.from_nested(["A", ["B", ["C", "D"]]], {k: 0.25 for k in "ABCD"}, TreeConfig(2))
        before = tree.root_hash()
        assert restructure_mod._swap_free(tree)
        assert optimize_swaps(tree) == []
        assert tree.root_hash() == before
        assert discrepancy_report(tree).k_a == 2.25
        tree.swap_nodes(tree.leaf_node("A").node_id, tree.parent_id(tree.leaf_node("C").node_id))
        assert discrepancy_report(tree).k_a == 2.0 == brute_force_min_avg_length(tree.probabilities, 2)

    def test_same_result_under_any_hash_seed(self):
        src = str(Path(restructure_mod.__file__).parents[1])
        tests = str(Path(__file__).parent)
        runs = [
            subprocess.run(
                [sys.executable, "-c", DETERMINISM_SCRIPT, src, tests],
                env={**os.environ, "PYTHONHASHSEED": seed}, capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        assert runs[0] == runs[1]
        out = json.loads(runs[0])
        assert (len(out["optimize"]), len(out["bench"])) == (40, 12)

    def test_same_result_after_a_snapshot_round_trip(self):
        rng = random.Random(103)
        for _ in range(40):
            m, n = rng.choice([2, 3, 4]), rng.randint(2, 24)
            weights = [rng.choice([0, 1, 1, 2, 4]) for _ in range(n)]
            weights[0] += 1
            probs = {f"k{i:03d}": w / sum(weights) for i, w in enumerate(weights)}
            tree = random_tree(rng, n, m, probs)
            loaded, ids = AdaptiveTree.from_snapshot(json.loads(json.dumps(tree.to_snapshot()))), reloaded_ids(tree)
            # the same moves; an exchange names its nodes by the loaded ids
            steps = [replace(o, chosen=relabelled(o.chosen, ids)).to_json_dict() for o in optimize_swaps(tree)]
            assert [o.to_json_dict() for o in optimize_swaps(loaded)] == steps
            assert loaded.to_snapshot() == tree.to_snapshot()


def forbidden(*args):
    raise AssertionError("this move is not the one under test")


def stalled_tree(weights, m):
    """The adaptive build over keys A, B, ... before its regroups and
    relocates: grown hottest first, then exchanged until nothing gains."""
    probs = {chr(65 + i): w / sum(weights) for i, w in enumerate(weights)}
    tree = grown_tree(probs, m)
    tree.set_probabilities(probs)
    restructure_mod._exchange(tree, sys.maxsize)
    return tree


class TestRegroupAndRelocate:
    """The adaptive build's finishing moves: regroup re-pairs every depth by
    weight through same-depth exchanges, relocate moves a node into a
    shallower free slot."""

    @given(st.sampled_from([2, 3, 4]), st.integers(1, 24), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_regroup_keeps_depths_child_counts_and_k_a(self, m, n, rnd):
        tree = random_tree(random.Random(rnd.randint(0, 2**32)), n, m)
        depths = tree.depths()
        counts = {nid: len(children) for nid, children in children_of(tree).items()}
        k_a = discrepancy_report(tree).k_a.hex()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(AdaptiveTree, "move_node", forbidden)
            restructure_mod._regroup(tree)
        assert tree.depths() == depths
        assert {nid: len(children) for nid, children in children_of(tree).items()} == counts
        assert discrepancy_report(tree).k_a.hex() == k_a
        check_hashes(tree)
        assert restructure_mod._regroup(tree) is False

    @given(st.sampled_from([3, 4, 5]), st.integers(3, 24), st.randoms())
    @settings(max_examples=150, deadline=None)
    def test_relocate_takes_the_best_move_into_a_free_slot(self, m, n, rnd):
        tree = random_tree(random.Random(rnd.randint(0, 2**32)), n, m)
        # every legal move into a free slot, scored w_u(d_u - d_o - 1)
        weights = restructure_mod._NodeRanks(tree).weight
        depth = tree._depth
        gains = [
            weights[u] * (depth[u] - depth[o] - 1)
            for u in node_ids(tree) if u != tree.root_id and len(tree.node(tree.parent_id(u)).children) > 2
            for o in open_internal_ids(tree) if u not in root_path(tree, o)
        ]
        best = max(gains, default=0.0)
        before, root = discrepancy_report(tree).k_a, tree.root_hash()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(AdaptiveTree, "swap_nodes", forbidden)
            moved = restructure_mod._relocate(tree)
        assert moved == (best > IMPROVEMENT_EPS)
        assert before - discrepancy_report(tree).k_a == pytest.approx(best if moved else 0.0, abs=1e-12)
        if not moved:
            assert tree.root_hash() == root
        check_hashes(tree)

    def test_regroup_opens_an_exchange(self):
        # At m=2 the tree stalls as [D, [[B, A], [C, E]]]: D (7) at depth 1
        # outweighs both pairs (7 and 6), so no exchange gains. Re-paired as
        # [B, C] (8) and [A, E] (5), the heavier pair trades places with D:
        # 2.30 -> 2.25.
        tree = stalled_tree([2, 5, 3, 7, 3], 2)
        assert discrepancy_report(tree).k_a == pytest.approx(2.30, abs=TOL)
        assert not restructure_mod._relocate(tree)
        assert restructure_mod._regroup(tree)
        assert discrepancy_report(tree).k_a == pytest.approx(2.30, abs=TOL)
        assert restructure_mod._exchange(tree, sys.maxsize)
        assert discrepancy_report(tree).k_a == pytest.approx(2.25, abs=TOL)
        check_hashes(tree)

    def test_relocate_finds_what_regroup_cannot(self):
        # At m=3 regroup and exchange alone stop at 2.0889; relocate reaches
        # the optimum 2.0222.
        weights = [3, 6, 11, 7, 3, 3, 2, 2, 2, 6]
        tree = stalled_tree(weights, 3)
        while restructure_mod._regroup(tree) and restructure_mod._exchange(tree, sys.maxsize):
            pass
        assert discrepancy_report(tree).k_a == pytest.approx(2.0889, abs=1e-4)
        restructure_mod._settle(tree)
        optimum = brute_force_min_avg_length([w / sum(weights) for w in weights], 3)
        assert discrepancy_report(tree).k_a == pytest.approx(optimum, abs=TOL)
        assert optimum == pytest.approx(2.0222, abs=1e-4)
        check_hashes(tree)
