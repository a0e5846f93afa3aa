"""Frequency-adaptive m-ary Merkle trees.

Data-integrity proofs over unbalanced hash trees whose shape tracks leaf
access frequencies: high-probability leaves sit near the root, pushing the
average proof length toward the entropy lower bound.
"""

from .address_map import AddressTable, build_mapping
from .bench import load_script, replay_iterations, run_bench
from .coding import (
    CodeTable,
    brute_force_min_avg_length,
    codes_from_tree,
    huffman_codes,
    tree_from_codes,
)
from .errors import (
    AdaptiveMerkleError,
    AddressNotFoundError,
    DuplicateKeyError,
    FormatError,
    MalformedProofError,
    ProbabilityError,
    StructureError,
    UnknownKeyError,
)
from .metrics import MetricsReport, discrepancy_report, entropy
from .proofs import MerkleProof, prove, verification_cost, verify
from .restructure import (
    RestructureOutcome,
    apply_best,
    enumerate_add_alternatives,
    enumerate_swap_alternatives,
    optimize_swaps,
)
from .tree import AdaptiveTree, TreeConfig, build_balanced
from .workload import estimate_probabilities, generate_trace, normalize_distribution, zipf_distribution

__version__ = "0.1.0"
