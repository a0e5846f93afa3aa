"""Huffman construction, the brute-force oracle, and code/tree round trips."""

import csv
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_merkle import (
    FormatError,
    ProbabilityError,
    StructureError,
    TreeConfig,
    build_balanced,
    discrepancy_report,
    huffman_codes,
    tree_from_codes,
)
from adaptive_merkle._formats import float_sum
from adaptive_merkle.coding import (
    CODE_ALPHABET,
    CodeTable,
    brute_force_min_avg_length,
    codes_from_tree,
    export_csv,
    is_prefix_free,
)
from adaptive_merkle.metrics import entropy
from adaptive_merkle.proofs import prove, verify
from adaptive_merkle.tree import MAX_ARITY
from adaptive_merkle.workload import normalize_distribution, zipf_distribution

from helpers import (
    check_code_table,
    check_prefix_code,
    length_multiset,
    random_distribution,
    random_tree,
    shape_codes,
)

TOL = 1e-9
DEMO16_LENGTHS = [2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 6, 6, 7, 7, 7, 7]
# arities past the 36 code digits: coding works there, spelling a code does not
WIDE_ARITIES = (37, 64, 256)


@pytest.fixture
def demo16_probs(demo16):
    return dict(normalize_distribution(demo16))


def reference_merge(probs, m):
    """The nested shape of the padded m-ary Huffman merge, made the slow way:
    the queue of (weight, tiebreak, shape) is sorted by (weight, tiebreak)
    before each merge, zero-weight keys before the dummies, a merge's weight
    is float_sum of its entries' and its tiebreak their least, and a merged
    node's shape lists its entries' shapes that are not dummies."""
    n = len(probs)
    dummies = 0 if n <= m else (-(n - 1)) % (m - 1)
    queue = [(p, (0, key), key) for key, p in probs.items()] + [(0.0, (1, i), None) for i in range(dummies)]
    while len(queue) > 1:
        queue.sort(key=lambda entry: entry[:2])
        merged, queue = queue[:m], queue[m:]
        shapes = [shape for _, _, shape in merged if shape is not None]
        queue.append((float_sum(p for p, _, _ in merged), min(tie for _, tie, _ in merged), shapes))
    return queue[0][2]


def shape_widths(shape):
    """The child count of every internal node of a nested shape."""
    widths, stack = [], [shape]
    while stack:
        node = stack.pop()
        if isinstance(node, list):
            widths.append(len(node))
            stack.extend(node)
    return widths


def reference_merge_widths(probs, m):
    """How many real entries (keys or merged nodes, not dummies) each merge
    of the padded m-ary Huffman queue takes: the widths of reference_merge's
    internal nodes."""
    return shape_widths(reference_merge(probs, m))


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
        for m in WIDE_ARITIES:
            for _ in range(5):
                n = rng.randint(2, 300)
                table = huffman_codes(random_distribution(rng, n), m)
                check_code_table(table)

    @pytest.mark.parametrize(
        "entries, message",
        [({"a": "0", "b": "01"}, "prefix-free"), ({"a": "0", "b": "1", "c": "2"}, "Kraft sum 1.5")],
    )
    def test_code_table_check_rejects(self, entries, message):
        # "2" is no binary digit: the codes are prefix-free, their Kraft sum
        # is not <= 1. No Huffman shape spells either table, so the codes go
        # to the prefix-code check that check_code_table runs on a shape's.
        with pytest.raises(AssertionError, match=message):
            check_prefix_code(entries.values(), 2)

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
                    CODE_ALPHABET.index(d) < m for code in table.entries.values() for d in code
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
        assert tree_from_codes(table).depths() == {"a": 1, "b": 1}

    def test_zero_weight_keys_keep_the_root_inside_the_alphabet(self):
        # m = 37, n = 38: five zero-weight keys and 32 dummies fill the first
        # merge, and the second takes the 33 others, the merged node and 3
        # dummies: 34 children, within the 36 digits
        probs = {f"k{i:02d}": 1 / 33 for i in range(33)} | {f"z{i}": 0.0 for i in range(5)}
        table = huffman_codes(probs, 37)
        assert sorted(set(map(len, table.entries.values()))) == [1, 2]
        assert len([code for code in table.entries.values() if len(code) == 1]) == 33
        assert tree_from_codes(table).leaf_count() == 38

    @pytest.mark.parametrize("m", [36, 37, 40])
    @pytest.mark.parametrize("zeros", [0, 1, 5])
    def test_raises_at_the_first_merge_past_the_alphabet(self, m, zeros, tmp_path):
        # The widths come from re-sorting the padded queue before every merge
        # and counting the merge's entries that are not dummies; the table's
        # shape has one internal node of each. Every merge is made and the
        # table builds at any width; spelling its codes (entries, the CSV,
        # the built tree's read-out) raises exactly when some node is wider
        # than the 36 digits, naming such a node's last child index, and
        # writes no file.
        for n in range(30, 81):
            probs = {f"k{i:02d}": 1 / (n - zeros) for i in range(n - zeros)} | {f"z{i}": 0.0 for i in range(zeros)}
            widths = reference_merge_widths(probs, m)
            messages = {f"child index {width - 1} exceeds the code alphabet" for width in widths if width > 36}
            table = huffman_codes(probs, m)
            assert sorted(shape_widths(table.shape)) == sorted(widths), (n, m, zeros)
            tree = tree_from_codes(table)
            assert discrepancy_report(tree).k_a == pytest.approx(table.avg_length, abs=TOL)
            check_code_table(table)
            path = tmp_path / f"codes_{n}.csv"
            spellers = [lambda: table.entries, lambda: export_csv(table, path), lambda: codes_from_tree(tree)]
            for spell in spellers:
                if messages:
                    with pytest.raises(StructureError) as error:
                        spell()
                    assert str(error.value) in messages, (n, m, zeros)
                else:
                    spell()
            assert path.exists() is not bool(messages)

    @given(st.sampled_from([2, 3, 4, 5, 16, 37]),
           st.lists(st.text(st.characters(blacklist_categories=("Cs",)), max_size=3), min_size=1, max_size=80,
                    unique=True),
           st.one_of(st.just([1]), st.lists(st.one_of(st.integers(0, 3), st.floats(0.0, 1.0)), min_size=1)))
    @settings(max_examples=300, deadline=None)
    def test_shape_is_the_reference_merge(self, m, keys, weights):
        # Any keys (non-ASCII and empty ones too) and weights with zeros and
        # ties; weights [1] gives every key the same weight. The heap's
        # flat entries and one-pass merges build the slow reference's shape.
        weights = [weights[i % len(weights)] for i in range(len(keys))]
        if not any(weights):
            weights[0] = 1
        probs = dict(normalize_distribution(zip(keys, weights)))
        assert huffman_codes(probs, m).shape == reference_merge(probs, m)

    def test_serve_zipf_shape_is_the_reference_merge(self):
        # perfbench serve's seeded input: Zipf(1.1) over 16,384 shuffled keys, m = 16
        keys = [f"k{i:05d}" for i in range(16384)]
        random.Random(1).shuffle(keys)
        probs = dict(zip(keys, zipf_distribution(16384, 1.1)))
        assert huffman_codes(probs, 16).shape == reference_merge(probs, 16)

    @pytest.mark.parametrize("probs", [{1: 0.5, "a": 0.5}, {1: 0.5, 2: 0.5}])
    def test_key_that_is_no_str_rejected(self, probs):
        # the tree's key rule and error, before a mixed pair meets in the
        # heap or a table of int keys is made that the tree would refuse
        with pytest.raises(StructureError, match="^leaf key 1 is not a str$"):
            huffman_codes(probs, 2)

    @pytest.mark.parametrize("keys", [["\udc00", "a"], ["a", "b\ud800"], ["\ud800", "\udc00"]])
    def test_key_that_is_not_utf8_rejected(self, keys):
        # the tree's UTF-8 rule and error, up front: no table is made that
        # tree_from_codes would refuse, and a split surrogate pair, which the
        # joined keys would hold side by side, is refused too
        probs = dict.fromkeys(keys, 0.5)
        with pytest.raises(FormatError, match="leaf key is not valid UTF-8") as raised:
            huffman_codes(probs, 2)
        with pytest.raises(FormatError) as built:
            build_balanced([(key, None, p) for key, p in probs.items()], TreeConfig(2))
        assert str(raised.value) == str(built.value)

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
        # and past the alphabet, against random and balanced trees alike
        for m in WIDE_ARITIES:
            for _ in range(5):
                probs = random_distribution(rng, rng.randint(2, 300))
                table = huffman_codes(probs, m)
                balanced = build_balanced([(key, b"", p) for key, p in probs.items()], TreeConfig(m))
                for tree in (random_tree(rng, len(probs), m, probs), balanced):
                    assert table.avg_length <= discrepancy_report(tree).k_a + TOL


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
        # the tree spells the codes the table spells from the same shape;
        # m = 36 uses every digit, and zero-weight keys merge first
        rng = random.Random(37)
        for _ in range(80):
            n = rng.randint(1, 60)
            m = rng.choice([2, 3, 4, 16, 36])
            probs = random_distribution(rng, n)
            if rng.random() < 0.5:
                zeros = rng.sample(sorted(probs), rng.randint(0, n - 1))
                probs = dict(normalize_distribution([(key, 0.0 if key in zeros else p) for key, p in probs.items()]))
            table = huffman_codes(probs, m)
            tree = tree_from_codes(table)
            assert codes_from_tree(tree) == table.entries
            assert tree.depths() == {key: len(code) for key, code in table.entries.items()}
        # past the alphabet the tree still builds the table's shape, and its
        # k_A is the table's average length
        for m in WIDE_ARITIES:
            for _ in range(5):
                table = huffman_codes(random_distribution(rng, rng.randint(2, 600)), m)
                tree = tree_from_codes(table)
                assert tree.depths() == {key: len(code) for key, code in shape_codes(table.shape).items()}
                assert discrepancy_report(tree).k_a == pytest.approx(table.avg_length, abs=TOL)

    def test_dangling_single_child_rejected(self):
        table = CodeTable(["a", ["b"]], {"a": 0.5, "b": 0.5}, 2)
        with pytest.raises(StructureError, match="^internal node of width 1, outside 2 to arity 2$"):
            tree_from_codes(table)

    def test_node_wider_than_arity_rejected(self):
        table = CodeTable(["a", "b", "c"], {"a": 0.5, "b": 0.25, "c": 0.25}, 2)
        with pytest.raises(StructureError, match="^internal node of width 3, outside 2 to arity 2$"):
            tree_from_codes(table)

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
