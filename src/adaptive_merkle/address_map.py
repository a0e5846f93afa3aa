"""Address-to-path-encoding correlation table.

In a balanced tree an address determines its own path; in an adaptive tree
it does not, so the pairing "address -> (balanced code, adaptive code)" is
kept as an explicit table. Addresses stay opaque: nothing here derives an
adaptive position from address content.

Persistence is CSV with columns ``address,probability,balanced_code,
adaptive_code`` under the package's shared CSV rules (``_formats``), floats
at full round-trip precision.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._formats import csv_probability, read_csv, write_csv
from .coding import codes_from_tree, is_code_string, is_prefix_free
from .errors import AddressNotFoundError, FormatError, StructureError
from .tree import AdaptiveTree, check_probabilities

_CSV_HEADER = ["address", "probability", "balanced_code", "adaptive_code"]


@dataclass(frozen=True)
class AddressRecord:
    address: str
    probability: float
    balanced_code: str
    adaptive_code: str


class AddressTable:
    """Immutable-by-convention list of records with an address index."""

    def __init__(self, records: list[AddressRecord]):
        self.records = list(records)
        self._index = {record.address: record for record in self.records}
        if len(self._index) != len(self.records):
            raise StructureError("duplicate addresses in mapping table")
        if not is_prefix_free([r.adaptive_code for r in self.records]):
            raise StructureError("adaptive codes are not prefix-free")

    def __len__(self) -> int:
        return len(self.records)

    def __eq__(self, other) -> bool:
        return isinstance(other, AddressTable) and self.records == other.records

    def lookup(self, address: str) -> AddressRecord:
        try:
            return self._index[address]
        except KeyError:
            raise AddressNotFoundError(f"no record for address {address!r}") from None

    def save(self, path) -> None:
        write_csv(
            path,
            _CSV_HEADER,
            ([r.address, repr(r.probability), r.balanced_code, r.adaptive_code] for r in self.records),
        )

    @classmethod
    def load(cls, path) -> "AddressTable":
        """Read a saved table. Probabilities must be finite, non-negative and,
        unless the table is empty, sum to 1 +/- 1e-9 (``ProbabilityError``)."""
        records: list[AddressRecord] = []
        for where, (address, prob_text, balanced_code, adaptive_code) in read_csv(path, _CSV_HEADER):
            for code in (balanced_code, adaptive_code):
                if not is_code_string(code):
                    raise FormatError(f"{where}: code {code!r} is not a digit string")
            probability = csv_probability(prob_text, where)
            records.append(AddressRecord(address, probability, balanced_code, adaptive_code))
        table = cls(records)
        if records:
            check_probabilities({record.address: record.probability for record in records})
        return table


def build_mapping(balanced: AdaptiveTree, adaptive: AdaptiveTree) -> AddressTable:
    """One record per leaf, codes read off both trees' root paths.

    Records follow the balanced tree's left-to-right leaf order; probabilities
    come from the adaptive tree. Both trees must hold the same key set.
    """
    balanced_codes = codes_from_tree(balanced)
    adaptive_codes = codes_from_tree(adaptive)
    if balanced_codes.keys() != adaptive_codes.keys():
        raise StructureError("balanced and adaptive trees hold different key sets")
    records = [
        AddressRecord(
            address=key,
            probability=adaptive.probabilities[key],
            balanced_code=code,
            adaptive_code=adaptive_codes[key],
        )
        for key, code in balanced_codes.items()
    ]
    return AddressTable(records)
