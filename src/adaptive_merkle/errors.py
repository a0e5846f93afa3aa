"""Exception hierarchy shared across the package."""


class AdaptiveMerkleError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateKeyError(AdaptiveMerkleError):
    """A leaf key is already present in the tree."""


class UnknownKeyError(AdaptiveMerkleError):
    """A referenced leaf key or node id does not exist."""


class ProbabilityError(AdaptiveMerkleError):
    """Invalid probability data: bad sum, negative value, or key-set mismatch."""


class StructureError(AdaptiveMerkleError):
    """Invalid tree structure, snapshot, or code table."""


class MalformedProofError(AdaptiveMerkleError):
    """A proof is structurally broken (distinct from a failed verification)."""


class FormatError(AdaptiveMerkleError):
    """A persisted file (CSV, JSON) could not be parsed."""
