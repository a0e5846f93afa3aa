"""m-ary Huffman codes and a brute-force optimality oracle.

Huffman code lengths are the target depths for the adaptive tree: both
minimize the probability-weighted path length over prefix-free structures.
For m > 2 and n > m the merge queue is padded with zero-weight dummy
symbols so that (n - 1) mod (m - 1) == 0; at n <= m one merge takes all n
symbols and nothing is padded. Dummies never surface in the output.
Queue entries are flat ``(weight, rank, key, shape)`` tuples: rank 0 for a
key or a merged node, whose ``key`` is the smallest leaf key below it, and
rank 1 for a dummy. Merge-order ties break on the rank and then that key,
so generated tables are reproducible bit for bit. Each merge adds its
entries' weights, keeps their least key and collects their shapes in one
pass, and pushes the merged node in place of its m-th entry.
A code table keeps the merge's nested shape, which ``tree_from_codes``
builds at any arity. Code strings are spelled from it for export, never read
back, and only they stop at 36 children, one ``CODE_ALPHABET`` digit each.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mul
from typing import Mapping

from ._formats import float_sum, write_csv
from .errors import FormatError, ProbabilityError, StructureError
from .tree import AdaptiveTree, TreeConfig, _float_copy, check_probabilities

BRUTE_FORCE_MAX_N = 10

# Path codes spell a root-to-leaf path with one character per level, the
# child index: 0-9 then a-z, so arity 16 yields nibble-style codes. Only a
# spelled code is bound by it: a node of more than 36 children has no code.
CODE_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"

_CSV_HEADER = ["key", "probability", "code", "length"]


@dataclass(frozen=True)
class CodeTable:
    """Prefix-free code over digits 0..m-1, held as the Huffman merge's
    nested shape: a leaf key, or a list of child shapes, the form
    :meth:`AdaptiveTree.from_nested` reads. A key's code is the child
    indices on its path from the root."""

    shape: str | list
    probabilities: dict[str, float]
    arity: int

    @property
    def entries(self) -> dict[str, str]:
        """The code of every key, in left-to-right leaf order, spelled by one
        walk over ``shape``; a node of more than 36 children raises."""
        return self._codes(CODE_ALPHABET)

    @property
    def avg_length(self) -> float:
        """sum(p * len(code)) in ``entries`` order, codes spelled in m 1-char digits."""
        codes = self._codes("0" * self.arity)
        return float_sum(map(mul, map(self.probabilities.__getitem__, codes), map(len, codes.values())))

    def _codes(self, digits: str) -> dict[str, str]:
        return _leaf_codes(self.shape, lambda shape: None if isinstance(shape, str) else shape, digits)


def is_prefix_free(codes) -> bool:
    ordered = sorted(codes)
    # in sorted order a code is followed by every code it prefixes
    return not any(map(str.startswith, ordered[1:], ordered))


def huffman_codes(probs: Mapping[str, float], m: int) -> CodeTable:
    """Optimal m-ary prefix code for the given distribution.

    Single-symbol inputs get the empty code. Ties in merge order resolve by
    the smallest contained leaf key, making the output deterministic: the
    queue holds ``(p, 0, key, shape)`` per key and merged node and
    ``(0.0, 1, i, None)`` per dummy, and each merge pops m - 1 entries and
    replaces the m-th with the merged node in one heap sift. An
    arity that :class:`~adaptive_merkle.tree.TreeConfig` rejects raises its
    ``StructureError`` before the queue is padded.
    """
    TreeConfig(m)
    if not probs:
        raise ProbabilityError("distribution is empty")
    check_probabilities(probs)
    prob_map = _float_copy(probs)
    # the tree's key rule (_check_leaf's errors), from one C-level pass over
    # the types and one over the UTF-8 encoding, which refuses every surrogate
    if not set(map(type, prob_map)) <= {str}:
        for key in prob_map:
            if not isinstance(key, str):
                raise StructureError(f"leaf key {key!r} is not a str")
    try:
        "".join(prob_map).encode("utf-8")
    except UnicodeEncodeError:
        for key in prob_map:
            try:
                key.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise FormatError(f"leaf key is not valid UTF-8: {exc}") from None

    # (rank, key) is unique among live entries, so shapes are never compared;
    # a shape is a leaf key or a list of child shapes, the nested form that
    # AdaptiveTree.from_nested reads.
    heap: list[tuple] = list(zip(prob_map.values(), repeat(0), prob_map, prob_map))
    n = len(heap)
    # At n <= m one merge takes every symbol, so there is nothing to pad.
    n_dummies = 0 if n <= m else (m - 1 - (n - 1) % (m - 1)) % (m - 1)
    heap.extend((0.0, 1, i, None) for i in range(n_dummies))
    heapq.heapify(heap)

    pop, replace = heapq.heappop, heapq.heapreplace
    while len(heap) > m:
        # the m - 1 smallest entries, then heap[0], the m-th, in pop order
        entries = list(map(pop, repeat(heap, m - 1)))
        entries.append(heap[0])
        # The weight is _formats.float_sum's own loop, += from int 0 in pop
        # order, inlined to save a call per merge: merge weights are the same
        # on Python 3.10 to 3.13. Dummies only drop out of the shape and the
        # key: their weight 0.0 leaves every partial sum as it is, and a merge
        # holds two or more real entries (there are at most m - 2 dummies).
        weight, least, shapes = 0, None, []
        for p, _, key, shape in entries:
            weight += p
            if shape is not None:
                shapes.append(shape)
                if least is None or key < least:
                    least = key
        replace(heap, (weight, 0, least, shapes))  # pops the m-th entry, pushes the merge

    # The root merge takes every entry left, in pop order (the sort never
    # reaches a shape); its weight and key are never read. A lone key is
    # never merged: its shape is the key, its code empty.
    shape = heap[0][3] if n == 1 else [entry[3] for entry in sorted(heap) if entry[3] is not None]
    return CodeTable(shape, prob_map, m)


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
            if used + (remaining - 1) * Fraction(1, m**max_depth) > 1:
                continue
            rec(i + 1, depth, used, acc + ps[i] * depth)

    rec(0, 1, Fraction(0), 0.0)
    return best[0]


def tree_from_codes(codes: CodeTable, payloads: Mapping[str, bytes] | None = None) -> AdaptiveTree:
    """Materialize the code table as a tree whose child indices spell each
    code: :meth:`AdaptiveTree.from_nested` on the table's shape."""
    return AdaptiveTree.from_nested(codes.shape, codes.probabilities, TreeConfig(codes.arity), payloads)


def codes_from_tree(tree: AdaptiveTree) -> dict[str, str]:
    """The path code of every leaf, in left-to-right order, from one walk."""
    keys = tree._key
    codes = _leaf_codes(tree.root_id, tree._children.__getitem__)
    return {keys[nid]: code for nid, code in codes.items()}


def _leaf_codes(root, children_of, digits: str = CODE_ALPHABET) -> dict:
    """Path code of every leaf below ``root`` in left-to-right order, by an
    explicit-stack preorder walk; ``children_of`` is None at a leaf, never wider than ``digits``."""
    codes = {}
    # ``items`` pairs each child of the innermost open node with its digit
    # and ``prefix`` is that node's code; ``open_above`` keeps the enclosing
    # nodes' pairs and codes, to resume once the inner node is done.
    items, prefix, open_above = zip((root,), ("",)), "", []
    while True:
        for item, digit in items:
            children = children_of(item)
            if children is None:
                codes[item] = prefix + digit
            elif len(children) > len(digits):
                raise StructureError(f"child index {len(children) - 1} exceeds the code alphabet")
            else:
                open_above.append((items, prefix))
                items, prefix = zip(children, digits), prefix + digit
                break
        else:
            if not open_above:
                return codes
            items, prefix = open_above.pop()


def export_csv(table: CodeTable, path) -> None:
    """Write ``key,probability,code,length`` rows (header included)."""
    write_csv(
        path,
        _CSV_HEADER,
        ([key, repr(table.probabilities[key]), code, len(code)] for key, code in sorted(table.entries.items())),
    )
