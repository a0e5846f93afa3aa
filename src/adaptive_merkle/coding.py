"""m-ary Huffman codes and a brute-force optimality oracle.

Huffman code lengths are the target depths for the adaptive tree: both
minimize the probability-weighted path length over prefix-free structures.
For m > 2 and n > m the merge queue is padded with zero-weight dummy
symbols so that (n - 1) mod (m - 1) == 0; at n <= m one merge takes all n
symbols and nothing is padded. Dummies never surface in the output.
Merge-order ties break on the lexicographically smallest leaf key contained
in each queue entry, so generated tables are reproducible bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from ._formats import float_sum, write_csv
from .errors import ProbabilityError, StructureError
from .tree import AdaptiveTree, TreeConfig, check_probabilities

BRUTE_FORCE_MAX_N = 10

# Path codes spell a root-to-leaf path with one character per level, the
# child index: 0-9 then a-z, so arity 16 yields nibble-style codes. Caps
# code-producing operations at arity 36.
CODE_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"

_CSV_HEADER = ["key", "probability", "code", "length"]


def index_to_digit(index: int) -> str:
    if not 0 <= index < len(CODE_ALPHABET):
        raise StructureError(f"child index {index} exceeds the code alphabet")
    return CODE_ALPHABET[index]


def digit_to_index(digit: str) -> int:
    index = CODE_ALPHABET.find(digit)
    if index < 0:
        raise StructureError(f"{digit!r} is not a code digit")
    return index


@dataclass(frozen=True)
class CodeTable:
    """Prefix-free code assignment over digits 0..m-1."""

    entries: dict[str, str]
    probabilities: dict[str, float]
    arity: int

    @property
    def avg_length(self) -> float:
        """sum(p * len(code)), summed in ``entries`` order."""
        return float_sum(self.probabilities[key] * len(code) for key, code in self.entries.items())


def is_prefix_free(codes) -> bool:
    ordered = sorted(codes)
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            return False
    return True


def huffman_codes(probs: Mapping[str, float], m: int) -> CodeTable:
    """Optimal m-ary prefix code for the given distribution.

    Single-symbol inputs get the empty code. Ties in merge order resolve by
    the smallest contained leaf key, making the output deterministic. An
    arity that :class:`~adaptive_merkle.tree.TreeConfig` rejects raises its
    ``StructureError`` before the queue is padded.
    """
    TreeConfig(m)
    if not probs:
        raise ProbabilityError("distribution is empty")
    check_probabilities(probs)
    prob_map = {key: float(p) for key, p in probs.items()}

    if len(prob_map) == 1:
        key = next(iter(prob_map))
        return CodeTable({key: ""}, prob_map, m)

    # Entries are (weight, tiebreak, shape); a shape is a leaf key or a list
    # of child shapes, the nested form that AdaptiveTree.from_nested reads.
    # Tiebreaks are unique, so shapes are never compared.
    heap: list[tuple] = [(p, (0, key), key) for key, p in prob_map.items()]
    n = len(heap)
    # At n <= m one merge takes every symbol, so there is nothing to pad.
    n_dummies = 0 if n <= m else (m - 1 - (n - 1) % (m - 1)) % (m - 1)
    heap.extend((0.0, (1, i), None) for i in range(n_dummies))
    heapq.heapify(heap)

    while len(heap) > 1:
        merged = (heapq.heappop(heap) for _ in range(min(m, len(heap))))
        real = [entry for entry in merged if entry[2] is not None]
        weight = float_sum(entry[0] for entry in real)
        heapq.heappush(heap, (weight, min(entry[1] for entry in real), [entry[2] for entry in real]))

    entries = _leaf_codes(heap[0][2], lambda shape: None if isinstance(shape, str) else shape)
    return CodeTable(entries, prob_map, m)


def brute_force_min_avg_length(probs, m: int) -> float:
    """Exhaustive minimum of sum(p * l) over Kraft-feasible m-ary depth multisets.

    Independent of the Huffman construction; only valid for n <= 10 symbols.
    ``probs`` may be a mapping or a plain sequence of probabilities. The
    arity is checked by :class:`~adaptive_merkle.tree.TreeConfig`.
    """
    TreeConfig(m)
    values = list(probs.values()) if isinstance(probs, Mapping) else list(probs)
    n = len(values)
    if n > BRUTE_FORCE_MAX_N:
        raise ProbabilityError(f"brute force limited to n <= {BRUTE_FORCE_MAX_N}, got {n}")
    if n == 0:
        raise ProbabilityError("distribution is empty")
    check_probabilities({str(i): p for i, p in enumerate(values)})
    if n == 1:
        return 0.0

    ps = sorted(values, reverse=True)
    suffix = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + ps[i]
    max_depth = n - 1
    best = [float("inf")]

    # Depths are assigned non-decreasing to the descending probabilities
    # (rearrangement: any optimum has this form). Kraft bookkeeping is exact
    # via Fractions.
    def rec(i: int, min_depth: int, kraft, acc: float) -> None:
        if i == n:
            if acc < best[0]:
                best[0] = acc
            return
        remaining = n - i
        for depth in range(min_depth, max_depth + 1):
            # Every leaf still to place is at least this deep.
            if acc + suffix[i] * depth >= best[0]:
                break
            used = kraft + Fraction(1, m**depth)
            if used > 1:
                continue
            if used + (remaining - 1) * Fraction(1, m**max_depth) > 1:
                continue
            rec(i + 1, depth, used, acc + ps[i] * depth)

    rec(0, 1, Fraction(0), 0.0)
    return best[0]


def tree_from_codes(codes: CodeTable, payloads: Mapping[str, bytes] | None = None) -> AdaptiveTree:
    """Materialize the code table as a tree whose child indices spell each code.

    Requires prefix-free codes whose digits are contiguous at every node
    (0..k-1 with k >= 2), which the Huffman construction always produces.
    """
    entries = codes.entries
    if not is_prefix_free(entries.values()):
        raise StructureError("codes are not prefix-free")
    if list(entries.values()) == [""]:
        (nested,) = entries
    else:
        # Sorted codes visit the leaves left to right. ``path`` holds the
        # (prefix, children) of each internal node above the next leaf.
        # from_nested rejects nodes with fewer than two or more than m
        # children, so a digit >= m fails there.
        nested = []
        path = [("", nested)]
        for key, code in sorted(entries.items(), key=lambda kv: kv[1]):
            while not code.startswith(path[-1][0]):
                path.pop()
            prefix, children = path[-1]
            for depth in range(len(prefix), len(code)):
                if digit_to_index(code[depth]) != len(children):
                    raise StructureError(
                        f"non-contiguous child digit {code[depth]!r} under prefix {code[:depth]!r}"
                    )
                if depth == len(code) - 1:
                    children.append(key)
                else:
                    children.append([])
                    children = children[-1]
                    path.append((code[: depth + 1], children))
    return AdaptiveTree.from_nested(nested, codes.probabilities, TreeConfig(codes.arity), payloads)


def codes_from_tree(tree: AdaptiveTree) -> dict[str, str]:
    """The path code of every leaf, in left-to-right order, from one walk."""
    codes = _leaf_codes(tree.root_id, lambda nid: tree.nodes[nid].children)
    return {tree.nodes[nid].key: code for nid, code in codes.items()}


def _leaf_codes(root, children_of) -> dict:
    """Path code of every leaf below ``root`` in left-to-right order, by an
    explicit-stack preorder walk; ``children_of`` returns None at a leaf."""
    codes = {}
    stack = [(root, "")]
    while stack:
        item, code = stack.pop()
        children = children_of(item)
        if children is None:
            codes[item] = code
        else:
            for index in range(len(children) - 1, -1, -1):
                stack.append((children[index], code + index_to_digit(index)))
    return codes


def export_csv(table: CodeTable, path) -> None:
    """Write ``key,probability,code,length`` rows (header included)."""
    write_csv(
        path,
        _CSV_HEADER,
        ([key, repr(table.probabilities[key]), code, len(code)] for key, code in sorted(table.entries.items())),
    )
