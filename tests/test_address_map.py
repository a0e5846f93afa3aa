"""Address-to-code mapping table and its CSV persistence."""

import pytest

from adaptive_merkle import (
    AddressNotFoundError,
    FormatError,
    ProbabilityError,
    StructureError,
    TreeConfig,
    build_balanced,
    build_mapping,
    discrepancy_report,
    huffman_codes,
    tree_from_codes,
)
from adaptive_merkle.address_map import AddressRecord, AddressTable
from adaptive_merkle.coding import is_prefix_free
from adaptive_merkle.workload import normalize_distribution

from helpers import average_adaptive_length

TOL = 1e-9


@pytest.fixture
def demo16_trees(demo16):
    dist = normalize_distribution(demo16)
    probs = dict(dist)
    payloads = {k: k.encode() for k in probs}
    balanced = build_balanced([(k, payloads[k], p) for k, p in dist], TreeConfig(2))
    adaptive = tree_from_codes(huffman_codes(probs, 2), payloads)
    return balanced, adaptive


class TestBuildMapping:
    def test_demo16_leaf_a(self, demo16_trees):
        table = build_mapping(*demo16_trees)
        record = table.lookup("A")
        assert record.balanced_code == "0000"
        assert len(record.adaptive_code) == 2

    def test_balanced_codes_uniform_length(self, demo16_trees):
        table = build_mapping(*demo16_trees)
        lengths = {len(r.balanced_code) for r in table.records}
        assert lengths == {4}

    def test_single_leaf_empty_codes(self):
        balanced = build_balanced([("A", b"A", 1.0)], TreeConfig(2))
        adaptive = build_balanced([("A", b"A", 1.0)], TreeConfig(2))
        record = build_mapping(balanced, adaptive).lookup("A")
        assert record.balanced_code == "" and record.adaptive_code == ""

    def test_average_adaptive_length(self, demo16_trees):
        table = build_mapping(*demo16_trees)
        assert average_adaptive_length(table) == pytest.approx(3.49, abs=0.01)

    def test_average_matches_tree_k_a_exactly(self, demo16_trees):
        _, adaptive = demo16_trees
        table = build_mapping(*demo16_trees)
        assert average_adaptive_length(table) == pytest.approx(
            discrepancy_report(adaptive).k_a, abs=TOL
        )

    def test_key_set_mismatch_rejected(self, demo16_trees):
        balanced, _ = demo16_trees
        other = build_balanced([("X", b"X", 1.0)], TreeConfig(2))
        with pytest.raises(StructureError):
            build_mapping(balanced, other)

    def test_duplicate_addresses_rejected(self):
        record = AddressRecord("A", 1.0, "", "")
        with pytest.raises(StructureError, match="duplicate addresses"):
            AddressTable([record, record])

    def test_adaptive_codes_prefix_free(self, demo16_trees):
        table = build_mapping(*demo16_trees)
        assert is_prefix_free([r.adaptive_code for r in table.records])


class TestLookup:
    def test_known_address(self, demo16_trees):
        table = build_mapping(*demo16_trees)
        assert table.lookup("P").address == "P"

    def test_unknown_address_is_error(self, demo16_trees):
        table = build_mapping(*demo16_trees)
        with pytest.raises(AddressNotFoundError):
            table.lookup("deadbeef")


class TestPersistence:
    def test_demo16_export_line_count(self, demo16_trees, tmp_path):
        table = build_mapping(*demo16_trees)
        path = tmp_path / "map.csv"
        table.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 17
        assert lines[0] == "address,probability,balanced_code,adaptive_code"

    def test_round_trip(self, demo16_trees, tmp_path):
        table = build_mapping(*demo16_trees)
        path = tmp_path / "map.csv"
        table.save(path)
        loaded = AddressTable.load(path)
        assert loaded == table
        for record in table.records:
            assert loaded.lookup(record.address) == record

    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        AddressTable([]).save(path)
        assert path.read_text(encoding="utf-8") == "address,probability,balanced_code,adaptive_code\n"
        assert len(AddressTable.load(path)) == 0

    def test_corrupt_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "address,probability,balanced_code,adaptive_code\nA,0.5,0000,00\nB,0.5,0001\n",
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match=":3"):
            AddressTable.load(path)

    def test_non_digit_code_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "address,probability,balanced_code,adaptive_code\nA,1.0,00!0,00\n",
            encoding="utf-8",
        )
        with pytest.raises(FormatError, match=":2"):
            AddressTable.load(path)

    @pytest.mark.parametrize(
        "rows",
        [
            "A,nan,0,0\nB,1.0,1,1\n",
            "A,inf,0,0\nB,0.0,1,1\n",
            "A,4,0,0\nB,-3,1,1\n",
            "A,0.5,0,0\nB,0.4,1,1\n",
        ],
    )
    def test_bad_probabilities_rejected(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text("address,probability,balanced_code,adaptive_code\n" + rows, encoding="utf-8")
        with pytest.raises(ProbabilityError):
            AddressTable.load(path)

    def test_loaded_codes_must_be_prefix_free(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "address,probability,balanced_code,adaptive_code\n"
            "A,0.5,00,0\nB,0.5,01,01\n",
            encoding="utf-8",
        )
        with pytest.raises(StructureError):
            AddressTable.load(path)
