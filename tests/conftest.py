import platform
import time
from pathlib import Path

import pytest

from adaptive_merkle import AdaptiveTree, TreeConfig
from adaptive_merkle.workload import load_distribution_csv

FIXTURES = Path(__file__).parent / "fixtures"

SUITE_START = time.perf_counter()

# python3.X -> the version that test_golden.py ran the goldens under, or None if it skipped it
GOLDEN_PYTHONS = pytest.StashKey[dict]()


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def golden_pythons(pytestconfig) -> dict[str, str | None]:
    """Where the cross-version goldens ran, for the summary line: filled by
    ``test_golden._interpreter`` with each ``python3.X`` it looked for."""
    return pytestconfig.stash.setdefault(GOLDEN_PYTHONS, {})


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
    line = f"total suite wall time: {elapsed:.1f}s"
    pythons = config.stash.get(GOLDEN_PYTHONS, {})
    if pythons:
        ran = [version for version in pythons.values() if version]
        skipped = [python for python, version in pythons.items() if not version]
        line += (f"; goldens ran under {', '.join(ran) or 'no other python'}"
                 f" besides this {platform.python_version()}, skipped {', '.join(skipped) or 'none'}")
    terminalreporter.write_line(line)
