"""Variant comparison harness and iteration-script replay."""

import json
import random

import pytest

from adaptive_merkle import (
    AdaptiveTree,
    FormatError,
    ProbabilityError,
    TreeConfig,
    discrepancy_report,
)
import adaptive_merkle.bench as bench_mod
from adaptive_merkle.bench import (
    ReplayScript,
    ReplayStep,
    load_script,
    replay_iterations,
    run_bench,
    write_iterations_csv,
    write_variants_csv,
)
import adaptive_merkle.restructure as restructure_mod
from adaptive_merkle.coding import brute_force_min_avg_length, huffman_codes
from adaptive_merkle.restructure import IMPROVEMENT_EPS, enumerate_swap_alternatives
from adaptive_merkle.workload import zipf_distribution

from helpers import MALFORMED_SCRIPT, malform_script, random_distribution

TOL = 1e-9


class TestRunBench:
    def test_demo16_binary(self, demo16):
        report = run_bench(demo16, 2, ("balanced", "adaptive", "huffman"))
        balanced = report.per_variant["balanced"]
        huffman = report.per_variant["huffman"]
        assert balanced.k_a == pytest.approx(4.0, abs=TOL)
        assert balanced.improvement_pct == pytest.approx(0.0, abs=TOL)
        assert huffman.k_a == pytest.approx(3.49, abs=0.01)
        assert huffman.improvement_pct == pytest.approx(12.75, abs=1.0)

    def test_uniform_all_variants_equal(self):
        dist = [(k, 1 / 16) for k in "ABCDEFGHIJKLMNOP"]
        report = run_bench(dist, 2)
        for stats in report.per_variant.values():
            assert stats.k_a == pytest.approx(4.0, abs=TOL)
            assert stats.improvement_pct == pytest.approx(0.0, abs=TOL)

    def test_degenerate_sweep_monotone_improvement(self):
        improvements = []
        for exp in range(4, 11):
            eps = 2.0**-exp
            dist = [("A", 1 - 15 * eps)] + [(k, eps) for k in "BCDEFGHIJKLMNOP"]
            report = run_bench(dist, 2, ("balanced", "huffman"))
            improvements.append(report.per_variant["huffman"].improvement_pct)
        assert all(b >= a - 1e-12 for a, b in zip(improvements, improvements[1:]))
        assert improvements[-1] > improvements[0]

    def test_variant_ordering_invariant(self):
        # huffman <= adaptive <= balanced on seeded random distributions
        rng = random.Random(101)
        for _ in range(25):
            n = rng.randint(2, 24)
            dist = sorted(random_distribution(rng, n).items())
            m = rng.choice([2, 3, 4, 5])
            report = run_bench(dist, m)
            k_h = report.per_variant["huffman"].k_a
            k_a = report.per_variant["adaptive"].k_a
            k_b = report.per_variant["balanced"].k_a
            assert k_h <= k_a + TOL
            assert k_a <= k_b + TOL

    def test_regroup_and_relocate_reach_the_optimum(self):
        # Grown hottest first and exchanged, each tree stalls above the
        # optimum: at m=2 a regroup opens the exchange (2.30 -> 2.25), at
        # m=3 only a relocate moves the free slot (regroup alone: 2.0889).
        # The last case stopped at 2.0 before either move existed.
        for weights, m, optimum in [
            ([2, 5, 3, 7, 3], 2, 2.25),
            ([3, 6, 11, 7, 3, 3, 2, 2, 2, 6], 3, 2.0222),
            ([5, 9, 7, 4, 7, 3, 10, 3], 3, 1.9167),
        ]:
            dist = [(chr(65 + i), w / sum(weights)) for i, w in enumerate(weights)]
            report = run_bench(dist, m)
            k_a = report.per_variant["adaptive"].k_a
            assert k_a == pytest.approx(brute_force_min_avg_length([p for _, p in dist], m), abs=TOL)
            assert k_a == pytest.approx(optimum, abs=1e-4)
            assert k_a <= report.per_variant["balanced"].k_a + TOL

    def test_adaptive_equals_brute_force_on_small_cases(self):
        # Integer weights 1-10 over n <= 10 keys: the adaptive build is
        # optimal in every case, and so never above the balanced tree.
        rng = random.Random(113)
        for _ in range(5000):
            n, m = rng.randint(3, 10), rng.choice([2, 3, 4, 5])
            weights = [rng.randint(1, 10) for _ in range(n)]
            dist = [(f"k{i}", w / sum(weights)) for i, w in enumerate(weights)]
            k_a = discrepancy_report(bench_mod._build_adaptive(dist, TreeConfig(m))).k_a
            assert k_a == pytest.approx(brute_force_min_avg_length([p for _, p in dist], m), abs=TOL), (m, weights)

    @pytest.mark.parametrize("n, m", [(256, 2), (256, 4), (256, 16), (1024, 2)])
    def test_adaptive_reaches_huffman_on_zipf(self, n, m):
        dist = list(zip((f"k{i:04d}" for i in range(n)), zipf_distribution(n, 1.1)))
        k_a = run_bench(dist, m, ["adaptive"]).per_variant["adaptive"].k_a
        assert k_a <= (1 + 1e-9) * huffman_codes(dict(dist), m).avg_length

    def test_report_recomputable_from_snapshots(self, tmp_path, demo16):
        report = run_bench(demo16, 2)
        for mode, tree in report.trees.items():
            path = tmp_path / f"{mode}.json"
            tree.save(path)
            reloaded = AdaptiveTree.load(path)
            again = discrepancy_report(reloaded)
            assert again.k_a == pytest.approx(report.per_variant[mode].k_a, abs=TOL)
            assert again.delta == pytest.approx(report.per_variant[mode].delta, abs=TOL)

    def test_empty_distribution_rejected(self):
        with pytest.raises(ProbabilityError, match="empty"):
            run_bench([], 2)

    def test_one_key_distribution(self):
        # baseline k_A is 0, so no variant can improve on it: 0.0, not a division by zero
        report = run_bench([("A", 1.0)], 2)
        for stats in report.per_variant.values():
            assert (stats.k_a, stats.improvement_pct) == (0.0, 0.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ProbabilityError):
            run_bench([("A", 1.0)], 2, ("turbo",))
        with pytest.raises(ProbabilityError):
            run_bench([("A", 1.0)], 2, ())

    def test_variants_csv(self, tmp_path, demo16):
        report = run_bench(demo16, 2)
        path = tmp_path / "variants.csv"
        write_variants_csv(report, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "variant,k_A,H,delta,mean_proof_bytes,improvement_pct"
        assert len(lines) == 4


class TestReplay:
    def test_example_1_first_four_iterations(self, fixtures_dir):
        script = load_script(fixtures_dir / "binary_growth_script.json")
        result = replay_iterations(script)
        assert [r.min_delta for r in result.records[:4]] == pytest.approx(
            [0.0, 0.0, 0.0, 0.125], abs=TOL
        )

    def test_example_2_1_table5(self, fixtures_dir):
        script = load_script(fixtures_dir / "quaternary_growth_script.json")
        result = replay_iterations(script)
        assert [r.min_delta for r in result.records[:4]] == pytest.approx(
            [0.25, 0.125, 0.25, 0.375], abs=TOL
        )
        assert [r.alt_count for r in result.records[:4]] == [3, 4, 4, 6]

    def test_empty_script(self):
        script = ReplayScript(2, ("A", "B"), {"A": 0.5, "B": 0.5}, ())
        assert replay_iterations(script).records == []

    def test_swap_step(self, binary_demo_tree):
        script = ReplayScript(
            2,
            ("A", "H", "B", "D", "C", "F", "E", "G"),
            {k: 1 / 8 for k in "ABCDEFGH"},
            (
                ReplayStep(
                    probs={
                        "A": 0.25, "B": 0.25, "C": 0.0625, "D": 0.125,
                        "E": 0.0625, "F": 0.125, "G": 0.0625, "H": 0.0625,
                    },
                    swap_iters=8,
                ),
            ),
        )
        result = replay_iterations(script)
        assert len(result.records) == 1
        assert result.records[0].min_delta <= discrepancy_report(result.tree).delta + TOL

    def test_swap_step_rows_match_enumerator(self):
        # Each swap-only row against the listing of the tree it started
        # from: alt_count is its length, and a step whose best listed swap
        # does not strictly improve delta is a no-op row carrying the delta.
        rng = random.Random(606)
        kinds = set()
        for _ in range(40):
            m = rng.choice([2, 3, 4])
            n = rng.randint(2, 9)
            keys = [f"k{i}" for i in range(n)]
            probs = random_distribution(rng, n)
            initial = {key: probs[f"k{i:03d}"] for i, key in enumerate(keys)}
            steps = []
            for i in range(4):
                if rng.random() < 0.4:
                    keys.append(f"x{i}")
                    steps.append(ReplayStep(dict(zip(keys, random_distribution(rng, len(keys)).values())),
                                            new_key=keys[-1], swap_iters=rng.choice([0, 2])))
                else:
                    fresh = rng.random() < 0.5
                    new = dict(zip(keys, random_distribution(rng, len(keys)).values())) if fresh else {}
                    steps.append(ReplayStep(new, swap_iters=rng.choice([0, 1, 64])))
            # a second unchanged step after a converging one is already optimal
            steps.append(ReplayStep({}, swap_iters=64))
            steps.append(ReplayStep({}, swap_iters=64))
            script = ReplayScript(m, tuple(initial), initial, tuple(steps))
            records = replay_iterations(script).records
            for i, step in enumerate(steps):
                if step.new_key is not None:
                    continue
                before = replay_iterations(ReplayScript(m, tuple(initial), initial, tuple(steps[:i]))).tree
                if step.probs:
                    before.set_probabilities(step.probs)
                listed = enumerate_swap_alternatives(before)
                report = discrepancy_report(before)
                best = min(listed, key=lambda alt: alt.rank_key)
                record = records[i]
                assert record.alt_count == len(listed)
                if best.kind == "no_op" or best.resulting_delta >= report.delta - IMPROVEMENT_EPS:
                    assert (record.min_delta, record.chosen_kind, record.chosen_target) == (report.delta, "no_op", "")
                else:
                    assert record.chosen_kind == "swap"
                kinds.add(record.chosen_kind)
        assert kinds == {"swap", "no_op"}

    def test_swap_step_builds_one_report(self):
        # optimize_leaf_swaps picks the first swap from the listing of the
        # step's starting tree; alt_count is that listing's length, read off
        # the first outcome.
        # balanced over three leaves is [[A, B], C]: A is deep and heavy
        probs = {"A": 0.5, "B": 0.25, "C": 0.25}
        script = ReplayScript(2, ("A", "B", "C"), probs, (ReplayStep({}, swap_iters=1),))
        (record,) = replay_iterations(script).records
        assert (record.alt_count, record.chosen_kind, record.chosen_target) == (2, "swap", "A+C")

    def test_swap_steps_script_report_count(self, monkeypatch, fixtures_dir):
        # One report per leaf-swap step listed plus one per swap applied:
        # the report read after a swap is the next step's listing's, and a
        # no-swap step's record comes from the loop's own first listing.
        calls = []
        real = restructure_mod.discrepancy_report

        def counted(tree):
            calls.append(tree)
            return real(tree)

        monkeypatch.setattr(restructure_mod, "discrepancy_report", counted)
        replay_iterations(load_script(fixtures_dir / "swap_steps_script.json"))
        assert len(calls) == 5

    @pytest.mark.parametrize("field, value", MALFORMED_SCRIPT)
    def test_malformed_script_raises_format_error(self, tmp_path, fixtures_dir, field, value):
        script = json.loads((fixtures_dir / "binary_growth_script.json").read_text(encoding="utf-8"))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(malform_script(script, field, value)), encoding="utf-8")
        with pytest.raises(FormatError):
            load_script(bad)

    def test_iterations_csv(self, tmp_path, fixtures_dir):
        script = load_script(fixtures_dir / "quaternary_growth_script.json")
        result = replay_iterations(script)
        path = tmp_path / "iterations.csv"
        write_iterations_csv(result.records, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "iter,alt_count,min_delta,chosen_kind,chosen_target"
        assert len(lines) == 11
