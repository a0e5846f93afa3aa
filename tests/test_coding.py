"""Huffman construction, the brute-force oracle, and code/tree round trips."""

import csv
import random
import tracemalloc

import pytest

from adaptive_merkle import (
    ProbabilityError,
    StructureError,
    TreeConfig,
    build_balanced,
    discrepancy_report,
    huffman_codes,
    tree_from_codes,
)
from adaptive_merkle.coding import (
    CodeTable,
    brute_force_min_avg_length,
    codes_from_tree,
    digit_to_index,
    export_csv,
    is_prefix_free,
)
from adaptive_merkle.metrics import entropy
from adaptive_merkle.proofs import prove, verify
from adaptive_merkle.tree import MAX_ARITY
from adaptive_merkle.workload import normalize_distribution

from helpers import check_code_table, length_multiset, random_distribution, random_tree

TOL = 1e-9
DEMO16_LENGTHS = [2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 6, 6, 7, 7, 7, 7]


@pytest.fixture
def demo16_probs(demo16):
    return dict(normalize_distribution(demo16))


def geometric_probs(n):
    # p_i proportional to 2^-i: each leaf outweighs all lighter ones together,
    # so the Huffman tree is a chain n - 1 levels deep.
    return dict(normalize_distribution([(f"g{i:04d}", 0.5**i) for i in range(n)]))


class TestHuffman:
    def test_demo16_average_length(self, demo16_probs):
        table = huffman_codes(demo16_probs, 2)
        assert table.avg_length == pytest.approx(3.49, abs=0.01)
        assert length_multiset(table) == DEMO16_LENGTHS

    def test_single_symbol_empty_code(self):
        table = huffman_codes({"A": 1.0}, 2)
        assert table.entries == {"A": ""}
        assert table.avg_length == 0.0

    def test_dyadic_four_symbols(self):
        table = huffman_codes({"a": 0.5, "b": 0.25, "c": 0.125, "d": 0.125}, 2)
        assert sorted(len(c) for c in table.entries.values()) == [1, 2, 3, 3]
        assert table.avg_length == pytest.approx(1.75, abs=TOL)
        # cross-checked against the exhaustive search
        assert brute_force_min_avg_length(table.probabilities, 2) == pytest.approx(1.75, abs=TOL)

    def test_prefix_free_and_kraft(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(1, 20)
            m = rng.choice([2, 3, 4, 16])
            table = huffman_codes(random_distribution(rng, n), m)
            check_code_table(table)
            assert len(table.entries) == n

    @pytest.mark.parametrize(
        "entries, message",
        [({"a": "0", "b": "01"}, "prefix-free"), ({"a": "0", "b": "1", "c": "2"}, "Kraft sum 1.5")],
    )
    def test_code_table_check_rejects(self, entries, message):
        # "2" is no binary digit: the codes are prefix-free, their Kraft sum is not <= 1
        table = CodeTable(entries, {key: 1 / len(entries) for key in entries}, 2)
        with pytest.raises(AssertionError, match=message):
            check_code_table(table)

    def test_avg_length_within_entropy_plus_one(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 24)
            m = rng.choice([2, 3, 4])
            table = huffman_codes(random_distribution(rng, n), m)
            h = entropy(table.probabilities.values(), m)
            assert h - TOL <= table.avg_length < h + 1

    def test_deterministic_output(self, demo16_probs):
        probs = demo16_probs
        t1 = huffman_codes(probs, 2)
        t2 = huffman_codes(dict(reversed(list(probs.items()))), 2)
        assert t1.entries == t2.entries

    def test_dummies_never_in_output(self):
        rng = random.Random(19)
        for m in (3, 4, 5, 16):
            for n in (2, 3, 5, 7, 11):
                table = huffman_codes(random_distribution(rng, n), m)
                assert set(table.entries) == set(table.probabilities)
                assert all(
                    digit_to_index(d) < m for code in table.entries.values() for d in code
                )

    def test_sum_violation(self):
        with pytest.raises(ProbabilityError):
            huffman_codes({"a": 0.7, "b": 0.7}, 2)

    @pytest.mark.parametrize("m", [2, 3, 16, MAX_ARITY])
    def test_few_keys_merge_once_unpadded(self, m):
        # n <= m symbols merge in one step, so no dummy is queued: two keys
        # at the largest arity cost what they cost at m = 2.
        probs = {"a": 0.75, "b": 0.25}
        tracemalloc.start()
        try:
            table = huffman_codes(probs, m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.entries == {"a": "1", "b": "0"}
        assert peak < 10_000

    @pytest.mark.parametrize("probs, m, message", [({"a": 1.0}, 1, "arity"), ({}, 2, "empty")])
    def test_bad_arity_or_empty_rejected(self, probs, m, message):
        # the arity is TreeConfig's rule, and so its error
        error = StructureError if message == "arity" else ProbabilityError
        with pytest.raises(error, match=message):
            huffman_codes(probs, m)


class TestBruteForceOracle:
    def test_three_symbol_case(self):
        assert brute_force_min_avg_length({"a": 0.5, "b": 0.25, "c": 0.25}, 2) == pytest.approx(
            1.5, abs=TOL
        )

    def test_uniform_m_symbols_single_level(self):
        for m in (2, 3, 4):
            assert brute_force_min_avg_length([1 / m] * m, m) == pytest.approx(1.0, abs=TOL)

    def test_matches_huffman_on_random_inputs(self):
        rng = random.Random(29)
        for _ in range(500):
            n = rng.randint(1, 8)
            m = rng.choice([2, 3, 4])
            probs = random_distribution(rng, n)
            assert huffman_codes(probs, m).avg_length == pytest.approx(
                brute_force_min_avg_length(probs, m), abs=TOL
            )

    def test_rejects_large_n(self):
        with pytest.raises(ProbabilityError):
            brute_force_min_avg_length([1 / 11] * 11, 2)

    def test_rejects_empty(self):
        with pytest.raises(ProbabilityError, match="empty"):
            brute_force_min_avg_length({}, 2)

    def test_huffman_beats_random_trees(self):
        # optimal average length never exceeds any same-arity tree's k_A
        rng = random.Random(31)
        for _ in range(1000):
            n = rng.randint(1, 16)
            m = rng.choice([2, 3, 4])
            tree = random_tree(rng, n, m)
            table = huffman_codes(tree.probabilities, m)
            k_a = discrepancy_report(tree).k_a
            assert table.avg_length <= k_a + TOL


class TestTreeFromCodes:
    def test_demo16_tree_depths(self, demo16_probs):
        table = huffman_codes(demo16_probs, 2)
        tree = tree_from_codes(table)
        depths = tree.depths()
        assert depths["A"] == 2
        assert depths["M"] == 7
        assert sorted(depths.values()) == DEMO16_LENGTHS
        assert discrepancy_report(tree).k_a == pytest.approx(table.avg_length, abs=TOL)

    def test_single_empty_code(self):
        table = huffman_codes({"A": 1.0}, 2)
        tree = tree_from_codes(table)
        assert tree.depth("A") == 0

    def test_round_trip(self):
        rng = random.Random(37)
        for _ in range(50):
            n = rng.randint(1, 20)
            m = rng.choice([2, 3, 4, 16])
            table = huffman_codes(random_distribution(rng, n), m)
            tree = tree_from_codes(table)
            assert codes_from_tree(tree) == table.entries

    def test_non_prefix_free_rejected(self):
        table = CodeTable({"a": "0", "b": "01"}, {"a": 0.5, "b": 0.5}, 2)
        with pytest.raises(StructureError):
            tree_from_codes(table)

    def test_dangling_single_child_rejected(self):
        table = CodeTable({"a": "0", "b": "10"}, {"a": 0.5, "b": 0.5}, 2)
        with pytest.raises(StructureError):
            tree_from_codes(table)

    @pytest.mark.parametrize(
        "entries, m",
        [
            ({"a": "0", "b": "2"}, 3),  # child digits skip 1
            ({"a": "0", "b": "1", "c": "2"}, 2),  # digit 2 at arity 2
        ],
    )
    def test_bad_child_digits_rejected(self, entries, m):
        probs = {key: 1 / len(entries) for key in entries}
        with pytest.raises(StructureError):
            tree_from_codes(CodeTable(entries, probs, m))

    def test_child_index_past_the_alphabet_rejected(self):
        # TreeConfig takes m = 37, but the code alphabet spells 36 digits
        leaves = [(f"k{i:02d}", b"", 1 / 37) for i in range(37)]
        with pytest.raises(StructureError, match="child index 36 exceeds the code alphabet"):
            codes_from_tree(build_balanced(leaves, TreeConfig(37)))

    def test_deep_huffman_tree(self):
        # deeper than Python's default recursion limit
        table = huffman_codes(geometric_probs(1500), 2)
        deepest = max(table.entries, key=lambda key: len(table.entries[key]))
        assert len(table.entries[deepest]) == 1499
        tree = tree_from_codes(table)
        assert codes_from_tree(tree) == table.entries
        assert verify(prove(tree, deepest), tree.root_hash(), 2)


class TestCsv:
    def test_round_trip(self, tmp_path, demo16_probs):
        # export only: the csv module reads back every key, code and
        # probability exactly
        table = huffman_codes(demo16_probs, 2)
        path = tmp_path / "codes.csv"
        export_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "key,probability,code,length"
        assert len(lines) == 17
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert {key: code for key, _, code, _ in rows} == table.entries
        assert {key: float(p) for key, p, _, _ in rows} == table.probabilities
        assert all(int(length) == len(code) for _, _, code, length in rows)

    def test_prefix_free_helper(self):
        assert is_prefix_free(["00", "01", "1"])
        assert not is_prefix_free(["0", "01"])


ARITY_CHECKS = {
    "entropy": lambda m: entropy([0.5, 0.5], m),
    "huffman_codes": lambda m: huffman_codes({"a": 0.5, "b": 0.5}, m),
    "brute_force_min_avg_length": lambda m: brute_force_min_avg_length([0.5, 0.5], m),
}


@pytest.mark.parametrize("m", [1, 0, -1, 2.5, True, 65537])
@pytest.mark.parametrize("name", sorted(ARITY_CHECKS))
def test_arity_rule_is_tree_configs(name, m):
    # One rule, one error: each function rejects what TreeConfig rejects,
    # with the same StructureError, and takes what it takes.
    with pytest.raises(StructureError) as config_error:
        TreeConfig(m)
    with pytest.raises(StructureError) as error:
        ARITY_CHECKS[name](m)
    assert str(error.value) == str(config_error.value)
    ARITY_CHECKS[name](2)
