"""Address-to-code mapping table and its CSV export."""

import csv

import pytest

from adaptive_merkle import (
    StructureError,
    TreeConfig,
    build_balanced,
    discrepancy_report,
    huffman_codes,
    tree_from_codes,
)
from adaptive_merkle.address_map import AddressRecord, AddressTable, build_mapping
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


def by_address(table: AddressTable) -> dict[str, AddressRecord]:
    return {r.address: r for r in table.records}


class TestBuildMapping:
    def test_demo16_leaf_a(self, demo16_trees):
        table = build_mapping(*demo16_trees)
        record = by_address(table)["A"]
        assert record.balanced_code == "0000"
        assert len(record.adaptive_code) == 2

    def test_balanced_codes_uniform_length(self, demo16_trees):
        table = build_mapping(*demo16_trees)
        lengths = {len(r.balanced_code) for r in table.records}
        assert lengths == {4}

    def test_single_leaf_empty_codes(self):
        balanced = build_balanced([("A", b"A", 1.0)], TreeConfig(2))
        adaptive = build_balanced([("A", b"A", 1.0)], TreeConfig(2))
        (record,) = build_mapping(balanced, adaptive).records
        assert record.address == "A"
        assert record.balanced_code == "" and record.adaptive_code == ""

    def test_one_record_per_leaf(self, demo16_trees):
        # the size check perfbench serve makes on its mapping
        assert len(build_mapping(*demo16_trees)) == 16

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

    def test_adaptive_codes_not_prefix_free_rejected(self):
        # "0" is a prefix of "01": no tree puts one leaf above another
        records = [AddressRecord("A", 0.5, "0", "0"), AddressRecord("B", 0.5, "1", "01")]
        with pytest.raises(StructureError, match="^adaptive codes are not prefix-free$"):
            AddressTable(records)

    def test_adaptive_codes_prefix_free(self, demo16_trees):
        table = build_mapping(*demo16_trees)
        assert is_prefix_free([r.adaptive_code for r in table.records])


class TestLookup:
    def test_known_address(self, demo16_trees):
        table = build_mapping(*demo16_trees)
        assert by_address(table)["P"].address == "P"


class TestPersistence:
    def test_demo16_export_line_count(self, demo16_trees, tmp_path):
        table = build_mapping(*demo16_trees)
        path = tmp_path / "map.csv"
        table.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 17
        assert lines[0] == "address,probability,balanced_code,adaptive_code"

    def test_round_trip(self, demo16_trees, tmp_path):
        # export only: the csv module reads back every record exactly
        table = build_mapping(*demo16_trees)
        path = tmp_path / "map.csv"
        table.save(path)
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [AddressRecord(a, float(p), b, c) for a, p, b, c in rows] == table.records

    def test_empty_table_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        AddressTable([]).save(path)
        assert path.read_text(encoding="utf-8") == "address,probability,balanced_code,adaptive_code\n"
