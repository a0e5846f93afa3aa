"""Golden metric values from the worked examples plus randomized invariants."""

import math
import random

import pytest

from adaptive_merkle import (
    AdaptiveTree,
    ProbabilityError,
    StructureError,
    TreeConfig,
    build_balanced,
    discrepancy_report,
    entropy,
)
from adaptive_merkle.workload import normalize_distribution

from helpers import delta_by_key, dyadic_distribution, random_full_tree, random_tree

TOL = 1e-9


class TestAvgPathLength:
    """k_A = sum(p * l), the average path length, as discrepancy_report gives it."""

    def test_three_leaf_example(self):
        tree = AdaptiveTree.from_nested(["A", ["B", "C"]], {"A": 0.5, "B": 0.25, "C": 0.25}, TreeConfig(2))
        assert discrepancy_report(tree).k_a == pytest.approx(1.5, abs=TOL)

    def test_constant_depth(self):
        tree = build_balanced([(k, b"", 1 / 8) for k in "ABCDEFGH"], TreeConfig(2))
        assert discrepancy_report(tree).k_a == pytest.approx(3.0, abs=TOL)

    def test_second_iteration_winner(self):
        # depths for the winning layout: A=1, C=2, B=3, D=3
        probs = {"A": 0.5, "B": 0.125, "C": 0.25, "D": 0.125}
        tree = AdaptiveTree.from_nested(["A", ["C", ["B", "D"]]], probs, TreeConfig(2))
        assert discrepancy_report(tree).k_a == pytest.approx(1.75, abs=TOL)

    def test_sum_violation(self):
        tree = AdaptiveTree.from_nested(["A", "B"], {"A": 0.5, "B": 0.5}, TreeConfig(2))
        tree.probabilities = {"A": 0.5, "B": 0.3}
        with pytest.raises(ProbabilityError):
            discrepancy_report(tree)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        tree = AdaptiveTree.from_nested(["A", "B"], {"A": 0.5, "B": 0.5}, TreeConfig(2))
        tree.probabilities = {"A": bad, "B": 1.0}
        with pytest.raises(ProbabilityError):
            discrepancy_report(tree)


class TestEntropy:
    def test_demo16_binary(self, demo16):
        probs = [p for _, p in normalize_distribution(demo16)]
        assert entropy(probs, 2) == pytest.approx(3.46, abs=0.01)

    def test_uniform_is_one(self):
        for m in (2, 3, 4, 16):
            assert entropy([1 / m] * m, m) == pytest.approx(1.0, abs=TOL)

    def test_quaternary_dyadic(self):
        assert entropy([0.5, 0.125, 0.25, 0.125], 4) == pytest.approx(0.875, abs=TOL)

    def test_base_2_is_shannon_bits(self):
        probs = [0.3, 0.2, 0.5]
        expected = -sum(p * math.log2(p) for p in probs)
        assert entropy(probs, 2) == pytest.approx(expected, abs=TOL)

    def test_zero_terms_ignored(self):
        assert entropy([1.0, 0.0, 0.0], 2) == pytest.approx(0.0, abs=TOL)

    def test_sum_violation(self):
        with pytest.raises(ProbabilityError):
            entropy([0.6, 0.6], 2)

    @pytest.mark.parametrize("m", [1, 0])
    def test_arity_below_two_rejected(self, m):
        with pytest.raises(StructureError, match="arity"):
            entropy([0.5, 0.5], m)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ProbabilityError):
            entropy([bad, 1.0], 2)


class TestDiscrepancyReport:
    def test_example_1_1_per_leaf(self, binary_demo_tree):
        report = discrepancy_report(binary_demo_tree)
        expected = {"A": 0.0, "B": 0.25, "C": 0.0, "D": 0.0, "E": 0.0, "F": 0.125, "G": 0.0, "H": -0.125}
        assert delta_by_key(report) == pytest.approx(expected, abs=TOL)
        assert report.delta == pytest.approx(0.25, abs=TOL)

    def test_figure_24_per_leaf(self, quad_demo_tree):
        report = discrepancy_report(quad_demo_tree)
        expected = {"A": 0.25, "B": 0.25, "C": -0.0625, "D": -0.0625, "E": 0.0, "F": 0.0}
        assert delta_by_key(report) == pytest.approx(expected, abs=TOL)
        assert report.delta == pytest.approx(0.375, abs=TOL)

    def test_dyadic_tree_zero_delta(self):
        rng = random.Random(3)
        tree = random_full_tree(rng, 5, 2)
        tree.set_probabilities(dyadic_distribution(rng, tree))
        assert discrepancy_report(tree).delta == pytest.approx(0.0, abs=TOL)

    def test_json_shape(self, quad_demo_tree):
        data = discrepancy_report(quad_demo_tree).to_json_dict()
        assert set(data) == {"k_A", "H", "delta", "per_leaf"}
        assert set(data["per_leaf"][0]) == {"key", "p", "l", "delta_i"}

    def test_sum_violation(self, quad_demo_tree):
        quad_demo_tree.probabilities["A"] = 0.9
        with pytest.raises(ProbabilityError):
            discrepancy_report(quad_demo_tree)


class TestMetricsInvariants:
    def test_additivity_and_entropy_bound(self):
        # delta == k_A - H == sum(delta_i), and delta >= 0, on 1000 random trees
        rng = random.Random(1234)
        for _ in range(1000):
            tree = random_tree(rng, rng.randint(1, 24), rng.choice([2, 3, 4, 16]))
            report = discrepancy_report(tree)
            assert report.delta == pytest.approx(report.k_a - report.entropy, abs=TOL)
            assert report.delta == pytest.approx(sum(s.delta_i for s in report.per_leaf), abs=TOL)
            assert report.delta >= -TOL

    def test_zero_delta_characterization(self):
        rng = random.Random(99)
        for m in (2, 3, 4):
            for _ in range(50):
                tree = random_full_tree(rng, rng.randint(1, 5), m)
                tree.set_probabilities(dyadic_distribution(rng, tree))
                report = discrepancy_report(tree)
                assert report.delta == pytest.approx(0.0, abs=TOL)
                for stats in report.per_leaf:
                    assert stats.l == pytest.approx(-math.log(stats.p, m), abs=1e-6)
        # and conversely: a leaf off its ideal depth forces delta > 0
        tree = random_full_tree(random.Random(7), 4, 2)
        probs = dyadic_distribution(random.Random(7), tree)
        depths = tree.depths()
        shallow = min(probs, key=lambda k: depths[k])
        deep = max(probs, key=lambda k: depths[k])
        if depths[shallow] != depths[deep]:
            tree.swap_leaves(shallow, deep)
            tree.set_probabilities(probs)
            assert discrepancy_report(tree).delta > TOL

    def test_zero_probability_leaf_contributes_zero(self):
        # Z sits at depth 5 with p = 0: its delta_i is 0.0, and H is that of
        # the same tree without Z.
        probs = {"A": 0.5, "B": 0.25, "C": 0.125, "D": 0.0625, "E": 0.0625}
        without = AdaptiveTree.from_nested(["A", ["B", ["C", ["D", "E"]]]], probs, TreeConfig(2))
        tree = AdaptiveTree.from_nested(["A", ["B", ["C", ["D", ["E", "Z"]]]]], {**probs, "Z": 0.0}, TreeConfig(2))
        report = discrepancy_report(tree)
        assert [s for s in report.per_leaf if s.key == "Z"] == [("Z", 0.0, 5, 0.0)]
        assert report.entropy == discrepancy_report(without).entropy == 1.875


class TestRecords:
    @pytest.mark.parametrize("field", ["key", "p", "l", "delta_i"])
    def test_leaf_stats_fields_are_read_only(self, quad_demo_tree, field):
        stats = discrepancy_report(quad_demo_tree).per_leaf[0]
        with pytest.raises(AttributeError):
            setattr(stats, field, None)

    def test_report_json_unchanged_on_the_demo_trees(self, binary_demo_tree, quad_demo_tree):
        rows = lambda *leaves: [dict(zip(["key", "p", "l", "delta_i"], leaf)) for leaf in leaves]
        assert discrepancy_report(binary_demo_tree).to_json_dict() == {
            "k_A": 3.0, "H": 2.75, "delta": 0.25,
            "per_leaf": rows(("A", 0.25, 2, 0.0), ("B", 0.25, 3, 0.25), ("C", 0.0625, 4, 0.0),
                             ("D", 0.125, 3, 0.0), ("E", 0.0625, 4, 0.0), ("F", 0.125, 4, 0.125),
                             ("G", 0.0625, 4, 0.0), ("H", 0.0625, 2, -0.125)),
        }
        assert discrepancy_report(quad_demo_tree).to_json_dict() == {
            "k_A": 1.375, "H": 1.0, "delta": 0.375,
            "per_leaf": rows(("A", 0.5, 1, 0.25), ("B", 0.25, 2, 0.25), ("C", 0.0625, 1, -0.0625),
                             ("D", 0.0625, 1, -0.0625), ("E", 0.0625, 2, 0.0), ("F", 0.0625, 2, 0.0)),
        }
