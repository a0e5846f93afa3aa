"""Leaf-probability sources: empirical estimation and synthetic generators."""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping

from ._formats import csv_probability, float_sum, read_csv
from .errors import ProbabilityError
from .tree import check_probabilities


@dataclass
class AccessTrace:
    """Ordered access events; their per-key ``counts`` are counted when first read."""

    events: list[str] = field(default_factory=list)

    @cached_property
    def counts(self) -> Counter:
        return Counter(self.events)


def estimate_probabilities(trace: AccessTrace) -> dict[str, float]:
    """p_i = count_i / total. Scale-invariant; rejects empty traces."""
    total = len(trace.events)
    if total == 0:
        raise ProbabilityError("cannot estimate probabilities from an empty trace")
    return {key: count / total for key, count in sorted(trace.counts.items())}


def zipf_distribution(n: int, s: float) -> list[float]:
    """p_k = k^-s / sum(j^-s), k = 1..n, in descending order."""
    if type(n) is not int or n < 1:  # bool is an int subclass
        raise ProbabilityError(f"n must be an int >= 1, got {n!r}")
    if not 0 <= s < math.inf:  # NaN fails both comparisons
        raise ProbabilityError(f"exponent must be finite and >= 0, got {s}")
    weights = [k**-s for k in range(1, n + 1)]
    total = float_sum(weights)
    return [w / total for w in weights]


def normalize_distribution(dist: Iterable[tuple[str, float]]) -> list[tuple[str, float]]:
    """``(key, p)`` pairs with the values scaled to sum to 1."""
    pairs = list(dist)
    total = float_sum(p for _, p in pairs)
    if not 0 < total < float("inf"):
        raise ProbabilityError(f"distribution total {total!r} is not a finite positive number")
    return [(key, p / total) for key, p in pairs]


def generate_trace(probs: Mapping[str, float], num_events: int, seed: int) -> AccessTrace:
    """Seeded synthetic trace; identical seeds reproduce identical traces.

    ``probs`` must pass :func:`check_probabilities`."""
    if type(num_events) is not int or num_events < 0:  # bool is an int subclass
        raise ProbabilityError(f"num_events must be an int >= 0, got {num_events!r}")
    check_probabilities(probs)
    keys = sorted(probs)
    weights = [probs[key] for key in keys]
    rng = random.Random(seed)
    return AccessTrace(rng.choices(keys, weights=weights, k=num_events))


def load_distribution_csv(path) -> list[tuple[str, float]]:
    """``key,probability`` rows as ``(key, p)`` pairs in file order."""
    rows = read_csv(path, ["key", "probability"])
    return [(key, csv_probability(text, where)) for where, (key, text) in rows]
