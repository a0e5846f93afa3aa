"""Leaf-probability sources: empirical estimation and synthetic generators."""

from __future__ import annotations

import csv
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import FormatError, ProbabilityError

# Fixed 16-leaf demo distribution used throughout the worked examples; the
# raw values sum to 0.9998, so normalize before feeding metrics.
DEMO16_DISTRIBUTION: tuple[tuple[str, float], ...] = (
    ("A", 0.2041),
    ("B", 0.1531),
    ("C", 0.1224),
    ("D", 0.1020),
    ("E", 0.0816),
    ("F", 0.0714),
    ("G", 0.0612),
    ("H", 0.0510),
    ("I", 0.0408),
    ("J", 0.0306),
    ("K", 0.0204),
    ("L", 0.0204),
    ("M", 0.0102),
    ("N", 0.0102),
    ("O", 0.0102),
    ("P", 0.0102),
)


@dataclass
class AccessTrace:
    """Ordered access events plus their per-key counts."""

    events: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    @classmethod
    def from_events(cls, events: Iterable[str]) -> "AccessTrace":
        events = list(events)
        return cls(events=events, counts=Counter(events))

    def total(self) -> int:
        return sum(self.counts.values())


def estimate_probabilities(trace: AccessTrace) -> dict[str, float]:
    """p_i = count_i / total. Scale-invariant; rejects empty traces."""
    total = trace.total()
    if total <= 0:
        raise ProbabilityError("cannot estimate probabilities from an empty trace")
    return {key: count / total for key, count in sorted(trace.counts.items())}


def zipf_distribution(n: int, s: float) -> list[float]:
    """p_k = k^-s / sum(j^-s), k = 1..n, in descending order."""
    if n < 1:
        raise ProbabilityError(f"n must be >= 1, got {n}")
    if s < 0:
        raise ProbabilityError(f"exponent must be >= 0, got {s}")
    weights = [k**-s for k in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def demo16_distribution() -> list[tuple[str, float]]:
    """The fixed 16-leaf demo distribution, raw (sums to 0.9998)."""
    return list(DEMO16_DISTRIBUTION)


def normalize_distribution(dist):
    """Scale values to sum exactly to 1. Accepts a mapping or (key, p) pairs."""
    if isinstance(dist, Mapping):
        total = sum(dist.values())
        if total <= 0:
            raise ProbabilityError("distribution total must be positive")
        return {key: p / total for key, p in dist.items()}
    pairs = list(dist)
    total = sum(p for _, p in pairs)
    if total <= 0:
        raise ProbabilityError("distribution total must be positive")
    return [(key, p / total) for key, p in pairs]


def generate_trace(probs: Mapping[str, float], num_events: int, seed: int) -> AccessTrace:
    """Seeded synthetic trace; identical seeds reproduce identical traces."""
    if num_events < 0:
        raise ProbabilityError(f"num_events must be >= 0, got {num_events}")
    keys = sorted(probs)
    weights = [probs[key] for key in keys]
    rng = random.Random(seed)
    return AccessTrace.from_events(rng.choices(keys, weights=weights, k=num_events))


def load_distribution_csv(path) -> list[tuple[str, float]]:
    pairs: list[tuple[str, float]] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["key", "probability"]:
            raise FormatError(f"{path!s}: unexpected header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise FormatError(f"{path!s}:{lineno}: expected 2 columns, got {len(row)}")
            key, prob_text = row
            if key in seen:
                raise FormatError(f"{path!s}:{lineno}: duplicate key {key!r}")
            seen.add(key)
            try:
                pairs.append((key, float(prob_text)))
            except ValueError:
                raise FormatError(f"{path!s}:{lineno}: bad probability {prob_text!r}") from None
    return pairs
