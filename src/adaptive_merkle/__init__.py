"""Frequency-adaptive m-ary Merkle trees.

Data-integrity proofs over unbalanced hash trees whose shape tracks leaf
access frequencies: high-probability leaves sit near the root, pushing the
average proof length toward the entropy lower bound.

The top level holds the README's library tour, the tree and proof types,
and the error classes; every other name is imported from its module.
"""

from .coding import huffman_codes, tree_from_codes
from .errors import (
    AdaptiveMerkleError,
    DuplicateKeyError,
    FormatError,
    MalformedProofError,
    ProbabilityError,
    StructureError,
    UnknownKeyError,
)
from .metrics import discrepancy_report
from .proofs import MerkleProof, prove, verify
from .restructure import apply_best, enumerate_add_alternatives, optimize_swaps
from .tree import AdaptiveTree, TreeConfig, build_balanced

__version__ = "0.1.0"
