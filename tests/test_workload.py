"""Probability estimation and synthetic distribution generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaptive_merkle import FormatError, ProbabilityError
from adaptive_merkle.metrics import entropy
from adaptive_merkle.workload import (
    AccessTrace,
    estimate_probabilities,
    generate_trace,
    load_distribution_csv,
    normalize_distribution,
    zipf_distribution,
)


def trace_of(counts):
    return AccessTrace([key for key, count in counts.items() for _ in range(count)])


class TestEstimateProbabilities:
    def test_direct_ratio(self):
        trace = trace_of({"A": 20, "B": 10, "C": 10})
        assert estimate_probabilities(trace) == {"A": 0.5, "B": 0.25, "C": 0.25}

    def test_single_key(self):
        trace = trace_of({"A": 7})
        assert estimate_probabilities(trace) == {"A": 1.0}

    def test_empty_trace_rejected(self):
        with pytest.raises(ProbabilityError):
            estimate_probabilities(AccessTrace())

    def test_zipf_trace_law_of_large_numbers(self):
        probs = {f"k{i}": p for i, p in enumerate(zipf_distribution(8, 1.0))}
        trace = generate_trace(probs, 10_000, seed=42)
        estimated = estimate_probabilities(trace)
        for key, p in probs.items():
            assert abs(estimated.get(key, 0.0) - p) < 0.02

    @given(st.dictionaries(st.text(min_size=1, max_size=4), st.integers(1, 1000), min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, counts):
        single = estimate_probabilities(trace_of(counts))
        doubled = estimate_probabilities(trace_of({k: 2 * v for k, v in counts.items()}))
        assert single == doubled

    def test_counts_consistent_with_events(self):
        trace = AccessTrace(["A", "B", "A", "C", "A"])
        assert trace.counts == {"A": 3, "B": 1, "C": 1}

    def test_constructed_from_events(self):
        assert estimate_probabilities(AccessTrace(["A", "B", "A"])) == {"A": 2 / 3, "B": 1 / 3}


class TestZipf:
    def test_n4_s1(self):
        assert zipf_distribution(4, 1.0) == pytest.approx([0.48, 0.24, 0.16, 0.12], abs=1e-12)

    def test_s0_uniform(self):
        assert zipf_distribution(5, 0.0) == pytest.approx([0.2] * 5, abs=1e-12)

    def test_n1(self):
        assert zipf_distribution(1, 2.0) == [1.0]

    def test_monotone_and_normalized(self):
        for s in (0.0, 0.5, 1.0, 2.0):
            dist = zipf_distribution(50, s)
            assert all(a >= b for a, b in zip(dist, dist[1:]))
            assert sum(dist) == pytest.approx(1.0, abs=1e-12)

    def test_invalid_n(self):
        with pytest.raises(ProbabilityError):
            zipf_distribution(0, 1.0)

    @pytest.mark.parametrize("s", [-0.5, float("nan"), float("inf")])
    def test_invalid_exponent(self, s):
        with pytest.raises(ProbabilityError, match="exponent"):
            zipf_distribution(3, s)


class TestTable6:
    def test_entries(self, demo16):
        dist = demo16
        assert len(dist) == 16
        assert dist[0] == ("A", 0.2041)
        assert dist[-1] == ("P", 0.0102)

    def test_printed_sum_is_not_one(self, demo16):
        total = sum(p for _, p in demo16)
        assert total == pytest.approx(0.9998, abs=0.001)

    def test_normalized_entropy(self, demo16):
        dist = normalize_distribution(demo16)
        assert sum(p for _, p in dist) == pytest.approx(1.0, abs=1e-12)
        assert entropy([p for _, p in dist], 2) == pytest.approx(3.46, abs=0.01)


class TestNormalizeDistribution:
    @pytest.mark.parametrize(
        "values, total",
        [((1e308, 1e308), "inf"), ((0.5, float("nan")), "nan"), ((0.0, 0.0), "0.0"), ((0.5, -0.5), "0.0")],
    )
    def test_bad_total_rejected(self, values, total):
        with pytest.raises(ProbabilityError, match=f"distribution total {total} "):
            normalize_distribution(zip("AB", values))


class TestGenerateTrace:
    def test_seed_reproducibility(self):
        probs = {"A": 0.6, "B": 0.3, "C": 0.1}
        t1 = generate_trace(probs, 500, seed=7)
        t2 = generate_trace(probs, 500, seed=7)
        assert t1.events == t2.events
        assert generate_trace(probs, 500, seed=8).events != t1.events

    @pytest.mark.parametrize(
        "probs, num_events",
        [
            ({"A": 1.0}, -1),
            ({}, 5),
            ({"A": float("nan"), "B": 1.0}, 5),
            ({"A": 0.0, "B": 0.0}, 5),
            ({"A": 0.5, "B": 0.25}, 5),
            ({"A": 1.5, "B": -0.5}, 5),
        ],
    )
    def test_bad_input_rejected(self, probs, num_events):
        with pytest.raises(ProbabilityError):
            generate_trace(probs, num_events, seed=1)


class TestFiles:
    def test_distribution_round_trip(self, tmp_path, demo16):
        dist = demo16
        path = tmp_path / "dist.csv"
        rows = ["key,probability"] + [f"{key},{p!r}" for key, p in dist]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert load_distribution_csv(path) == dist

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\nx,0.5\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_distribution_csv(path)

    def test_bad_value_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("key,probability\nA,0.5\nB,zzz\n", encoding="utf-8")
        with pytest.raises(FormatError, match=":3"):
            load_distribution_csv(path)
