"""Address-to-path-encoding correlation table.

In a balanced tree an address determines its own path; in an adaptive tree
it does not, so the pairing "address -> (balanced code, adaptive code)" is
kept as an explicit table. Addresses stay opaque: nothing here derives an
adaptive position from address content.

The table is export-only: :meth:`AddressTable.save` writes a CSV with
columns ``address,probability,balanced_code,adaptive_code`` under the
package's shared CSV rules (``_formats``), floats at full round-trip
precision, and nothing reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._formats import write_csv
from .coding import codes_from_tree, is_prefix_free
from .errors import StructureError
from .tree import AdaptiveTree

_CSV_HEADER = ["address", "probability", "balanced_code", "adaptive_code"]


@dataclass(frozen=True)
class AddressRecord:
    address: str
    probability: float
    balanced_code: str
    adaptive_code: str


class AddressTable:
    """Immutable-by-convention list of records, one per address."""

    def __init__(self, records: list[AddressRecord]):
        self.records = list(records)
        if len({record.address for record in self.records}) != len(self.records):
            raise StructureError("duplicate addresses in mapping table")
        if not is_prefix_free([r.adaptive_code for r in self.records]):
            raise StructureError("adaptive codes are not prefix-free")

    def __len__(self) -> int:
        return len(self.records)

    def save(self, path) -> None:
        write_csv(
            path,
            _CSV_HEADER,
            ([r.address, repr(r.probability), r.balanced_code, r.adaptive_code] for r in self.records),
        )


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
