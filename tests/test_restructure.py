"""Alternative enumeration, selection, and swap optimization."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_merkle import (
    AdaptiveTree,
    DuplicateKeyError,
    ProbabilityError,
    StructureError,
    TreeConfig,
    apply_best,
    build_balanced,
    discrepancy_report,
    enumerate_add_alternatives,
    enumerate_swap_alternatives,
    optimize_swaps,
)
from adaptive_merkle.coding import brute_force_min_avg_length, min_avg_length_for_depths
from adaptive_merkle.metrics import entropy, swapped_report
from adaptive_merkle.restructure import CANDIDATE_EPS, IMPROVEMENT_EPS, apply_alternative

from helpers import random_distribution, random_tree

TOL = 1e-9


def two_leaf_tree(m=2):
    return build_balanced([("A", b"A", 0.875), ("B", b"B", 0.125)], TreeConfig(m))


def delta_by_target(alternatives):
    return {alt.target: alt.resulting_delta for alt in alternatives}


def brute_min_key(tree, node_id):
    node = tree.nodes[node_id]
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
            assert [alt.target[0] for alt in attaches] == tree.open_internal_ids()
            for alt in attaches:
                assert alt.sort_labels == (brute_min_key(tree, alt.target[0]),)
            for alt in alternatives:
                candidate = tree.clone()
                apply_alternative(candidate, alt)
                assert discrepancy_report(candidate).delta == pytest.approx(
                    alt.resulting_delta, abs=TOL
                )


    def test_delta_floats_sum_old_leaves_right_to_left(self):
        # The recorded deltas (golden files, replay audit rows) fix the float
        # summation order: old leaves right to left, then the placement terms.
        rng = random.Random(43)
        for _ in range(60):
            n = rng.randint(2, 40)
            m = rng.choice([2, 3, 4, 16])
            tree = random_tree(rng, n, m)
            new_probs = dict(zip(sorted(tree.leaf_keys()) + ["zzz"], random_distribution(rng, n + 1).values()))
            h = entropy(list(new_probs.values()), m)
            base_k = 0.0
            for key in reversed(tree.leaf_keys()):
                base_k += new_probs[key] * tree.depth(key)
            for alt in enumerate_add_alternatives(tree, "zzz", new_probs):
                if alt.kind == "split":
                    key = alt.target[0]
                    k = base_k + new_probs[key] + new_probs["zzz"] * (tree.depth(key) + 1)
                else:
                    k = base_k + new_probs["zzz"] * (climbed_depth(tree, alt.target[0]) + 1)
                assert alt.resulting_delta.hex() == (k - h).hex()


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
    def test_iteration_4_tie_resolved_lexicographically(self):
        tree = AdaptiveTree.from_nested(
            ["A", [["B", "D"], ["C", "E"]]],
            {"A": 0.5, "B": 0.125, "C": 0.125, "D": 0.125, "E": 0.125},
            TreeConfig(2),
        )
        probs = {"A": 0.5, "B": 0.25, "C": 0.0625, "D": 0.0625, "E": 0.0625, "F": 0.0625}
        alternatives = enumerate_add_alternatives(tree, "F", probs)
        outcome = apply_best(tree, alternatives)
        assert outcome.chosen.kind == "split"
        assert outcome.chosen.target == ("C",)
        assert outcome.chosen.resulting_delta == pytest.approx(0.125, abs=TOL)
        assert outcome.candidates == len(alternatives)
        assert outcome.chosen.resulting_delta == min(a.resulting_delta for a in alternatives)

    def test_iteration_2_winner(self):
        tree = AdaptiveTree.from_nested(
            ["A", ["B", "C"]], {"A": 0.5, "B": 0.25, "C": 0.25}, TreeConfig(2)
        )
        probs = {"A": 0.5, "B": 0.125, "C": 0.25, "D": 0.125}
        outcome = apply_best(tree, enumerate_add_alternatives(tree, "D", probs))
        assert outcome.chosen.target == ("B",)
        assert outcome.delta_after == pytest.approx(0.0, abs=TOL)

    def test_single_noop_leaves_tree_unchanged(self, binary_demo_tree):
        before = binary_demo_tree.root_hash()
        alts = [a for a in enumerate_swap_alternatives(binary_demo_tree) if a.kind == "no_op"]
        outcome = apply_best(binary_demo_tree, alts)
        assert outcome.chosen.kind == "no_op"
        assert binary_demo_tree.root_hash() == before

    def test_empty_alternatives_rejected(self, binary_demo_tree):
        with pytest.raises(StructureError):
            apply_best(binary_demo_tree, [])

    def test_chosen_is_minimum(self):
        rng = random.Random(53)
        for _ in range(20):
            tree = random_tree(rng, rng.randint(2, 10), rng.choice([2, 4]))
            alts = enumerate_swap_alternatives(tree)
            outcome = apply_best(tree.clone(), alts)
            assert outcome.chosen.resulting_delta == min(a.resulting_delta for a in alts)

    def test_determinism(self):
        rng1, rng2 = random.Random(61), random.Random(61)
        t1 = random_tree(rng1, 12, 2)
        t2 = random_tree(rng2, 12, 2)
        o1 = apply_best(t1, enumerate_swap_alternatives(t1))
        o2 = apply_best(t2, enumerate_swap_alternatives(t2))
        assert o1.chosen.kind == o2.chosen.kind
        assert o1.chosen.target == o2.chosen.target
        assert t1.root_hash() == t2.root_hash()


class TestOptimizeSwaps:
    def test_example_1_1_two_iterations_to_zero(self, binary_demo_tree):
        outcomes = optimize_swaps(binary_demo_tree, max_iters=64)
        assert len(outcomes) == 2
        assert outcomes[0].chosen.target == ("B", "H")
        assert outcomes[1].chosen.target == ("F", "H")
        assert outcomes[0].delta_after == pytest.approx(0.0625, abs=TOL)
        assert outcomes[1].delta_after == pytest.approx(0.0, abs=TOL)

    def test_figure_24_single_swap(self, quad_demo_tree):
        outcomes = optimize_swaps(quad_demo_tree, max_iters=64)
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
            optimize_swaps(tree, max_iters=64)
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
        outcomes = optimize_swaps(tree, max_iters=max_iters)
        steps = [
            (o.chosen.target, o.chosen.resulting_delta.hex(), o.delta_before.hex(),
             o.delta_after.hex(), o.candidates)
            for o in outcomes
        ]
        assert steps == expected
        assert tree.root_hash() == reference.root_hash()

    @settings(max_examples=200, deadline=None)
    @given(swap_cases())
    def test_incremental_report_matches_fresh(self, case):
        # Replaying the applied swaps, the report updated leaf by leaf equals
        # a fresh one bit for bit after every swap, and so does delta_after.
        tree, max_iters = case
        replay = tree.clone()
        outcomes = optimize_swaps(tree, max_iters=max_iters)
        report = discrepancy_report(replay)
        for outcome in outcomes:
            report = swapped_report(report, *outcome.chosen.target, replay.config.arity)
            replay.swap_leaves(*outcome.chosen.target)
            fresh = discrepancy_report(replay)
            assert repr(report) == repr(fresh)
            assert outcome.delta_after.hex() == fresh.delta.hex()
        assert replay.root_hash() == tree.root_hash()

    def test_max_iters_respected(self, binary_demo_tree):
        outcomes = optimize_swaps(binary_demo_tree, max_iters=1)
        assert len(outcomes) == 1

    def test_bad_max_iters(self, binary_demo_tree):
        with pytest.raises(StructureError):
            optimize_swaps(binary_demo_tree, max_iters=0)


class TestOutcomeSerialization:
    def test_json_shape(self, binary_demo_tree):
        outcome = apply_best(binary_demo_tree, enumerate_swap_alternatives(binary_demo_tree))
        data = outcome.to_json_dict()
        assert set(data) == {"chosen", "candidates", "delta_before", "delta_after"}
        assert data["candidates"] == 4  # B, F, H at three depths: 3 pairs plus the no-op
        assert set(data["chosen"]) == {"kind", "target", "delta"}
        assert data["chosen"]["target"] == ["B", "H"]
