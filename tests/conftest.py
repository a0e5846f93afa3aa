import time
from pathlib import Path

import pytest

from adaptive_merkle import AdaptiveTree, TreeConfig
from adaptive_merkle.workload import load_distribution_csv

FIXTURES = Path(__file__).parent / "fixtures"

SUITE_START = time.perf_counter()


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def demo16() -> list[tuple[str, float]]:
    """The 16-leaf demo distribution of ``demo16.csv`` as ``(key, p)`` pairs,
    raw: its values sum to 0.9998, so normalize before feeding metrics."""
    return load_distribution_csv(FIXTURES / "demo16.csv")


@pytest.fixture
def binary_demo_tree() -> AdaptiveTree:
    """Binary tree after the sixth add iteration (the swap example's start)."""
    nested = [["A", "H"], [["B", "D"], [["C", "F"], ["E", "G"]]]]
    probs = {
        "A": 0.25,
        "B": 0.25,
        "C": 0.0625,
        "D": 0.125,
        "E": 0.0625,
        "F": 0.125,
        "G": 0.0625,
        "H": 0.0625,
    }
    return AdaptiveTree.from_nested(nested, probs, TreeConfig(2))


@pytest.fixture
def quad_demo_tree() -> AdaptiveTree:
    """4-ary tree after the fourth add iteration (the m=4 swap example)."""
    nested = ["A", ["B", "E", "F"], "C", "D"]
    probs = {"A": 0.5, "B": 0.25, "C": 0.0625, "D": 0.0625, "E": 0.0625, "F": 0.0625}
    return AdaptiveTree.from_nested(nested, probs, TreeConfig(4))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    elapsed = time.perf_counter() - SUITE_START
    terminalreporter.write_line(f"total suite wall time: {elapsed:.1f}s")
