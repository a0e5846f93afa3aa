"""Address-to-path-encoding correlation table.

In a balanced tree an address determines its own path; in an adaptive tree
it does not, so the pairing "address -> (balanced code, adaptive code)" is
kept as an explicit table. Addresses stay opaque: nothing here derives an
adaptive position from address content.

Persistence is CSV with columns ``address,probability,balanced_code,
adaptive_code`` (header mandatory, UTF-8, LF line endings, floats at full
round-trip precision).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

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

    def average_adaptive_length(self) -> float:
        return sum(r.probability * len(r.adaptive_code) for r in self.records)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(_CSV_HEADER)
            for record in self.records:
                writer.writerow(
                    [record.address, repr(record.probability), record.balanced_code, record.adaptive_code]
                )

    @classmethod
    def load(cls, path) -> "AddressTable":
        """Read a saved table. Probabilities must be finite, non-negative and,
        unless the table is empty, sum to 1 +/- 1e-9 (``ProbabilityError``)."""
        records: list[AddressRecord] = []
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header != _CSV_HEADER:
                raise FormatError(f"{path!s}: unexpected header {header!r}")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != 4:
                    raise FormatError(f"{path!s}:{lineno}: expected 4 columns, got {len(row)}")
                address, prob_text, balanced_code, adaptive_code = row
                for code in (balanced_code, adaptive_code):
                    if not is_code_string(code):
                        raise FormatError(f"{path!s}:{lineno}: code {code!r} is not a digit string")
                try:
                    probability = float(prob_text)
                except ValueError:
                    raise FormatError(f"{path!s}:{lineno}: bad probability {prob_text!r}") from None
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
