"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``[criterion NN] PASS/FAIL`` line; run with ``pytest -s``
to see them inline (they also appear in captured output on failure).
"""

import functools
import json
import random
import time

import pytest

from adaptive_merkle import (
    AdaptiveTree,
    MalformedProofError,
    MerkleProof,
    TreeConfig,
    apply_best,
    brute_force_min_avg_length,
    build_balanced,
    discrepancy_report,
    entropy,
    enumerate_add_alternatives,
    enumerate_swap_alternatives,
    huffman_codes,
    optimize_swaps,
    prove,
    run_bench,
    verify,
)
from adaptive_merkle.bench import load_script, replay_iterations
from adaptive_merkle.restructure import apply_alternative
from adaptive_merkle.workload import (
    load_distribution_csv,
    normalize_distribution,
)

from helpers import delta_by_key, kraft_sum, length_multiset, random_distribution, random_tree

TOL = 1e-9
ACCEPTANCE_START = time.perf_counter()


def report(number: int, description: str):
    """Decorator printing one PASS/FAIL line per criterion."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:02d}] FAIL {description}")
                raise
            print(f"[criterion {number:02d}] PASS {description}")

        return run

    return wrap


@report(1, "3-leaf insert: two alternatives, per-leaf discrepancies exact, split-B wins")
def test_criterion_01():
    # The rejected alternative's per-leaf discrepancies are (1/2, -1/4, 0)
    # under depths (2, 1, 2); they total 1/4 = k_A - H = 1.75 - 1.5. No
    # 3-leaf binary tree over this distribution attains a delta of 0.5, so
    # 0.25 is the worst case; both facts are pinned below.
    tree = build_balanced([("A", b"A", 0.875), ("B", b"B", 0.125)], TreeConfig(2))
    alts = enumerate_add_alternatives(tree, "C", {"A": 0.5, "B": 0.25, "C": 0.25})
    assert len(alts) == 2
    deltas = {alt.target[0]: alt.resulting_delta for alt in alts}
    assert deltas["B"] == pytest.approx(0.0, abs=TOL)

    split_a = next(alt for alt in alts if alt.target == ("A",))
    candidate = tree.clone()
    apply_alternative(candidate, split_a)
    rep = discrepancy_report(candidate)
    assert delta_by_key(rep) == pytest.approx({"A": 0.5, "B": -0.25, "C": 0.0}, abs=TOL)
    assert {s.key: s.l for s in rep.per_leaf} == {"A": 2, "B": 1, "C": 2}
    assert deltas["A"] == pytest.approx(0.25, abs=TOL)
    # exhaustive check: 0.25 is the worst (and 0.5 unattainable) over all
    # three-leaf binary shapes for this distribution
    all_deltas = set()
    for shallow, d1, d2 in (("A", "B", "C"), ("B", "A", "C"), ("C", "A", "B")):
        shape = AdaptiveTree.from_nested(
            [shallow, [d1, d2]], {"A": 0.5, "B": 0.25, "C": 0.25}, TreeConfig(2)
        )
        all_deltas.add(round(discrepancy_report(shape).delta, 12))
    assert all_deltas == {0.0, 0.25}

    chosen = apply_best(tree, alts)
    assert chosen.kind == "split" and chosen.target == ("B",)
    assert discrepancy_report(tree).delta == pytest.approx(0.0, abs=TOL)


@report(2, "4-leaf insert: (k_A, H, delta) exact per alternative, zero-delta split chosen")
def test_criterion_02():
    def iteration_2_tree():
        return AdaptiveTree.from_nested(
            ["A", ["B", "C"]], {"A": 0.5, "B": 0.25, "C": 0.25}, TreeConfig(2)
        )

    probs = {"A": 0.5, "B": 0.125, "C": 0.25, "D": 0.125}
    expected = {"A": (2.0, 1.75, 0.25), "B": (1.75, 1.75, 0.0), "C": (1.875, 1.75, 0.125)}
    tree = iteration_2_tree()
    alts = enumerate_add_alternatives(tree, "D", probs)
    assert len(alts) == 3
    for alt in alts:
        candidate = iteration_2_tree()
        apply_alternative(candidate, alt)
        rep = discrepancy_report(candidate)
        k_a, h, delta = expected[alt.target[0]]
        assert rep.k_a == pytest.approx(k_a, abs=TOL)
        assert rep.entropy == pytest.approx(h, abs=TOL)
        assert rep.delta == pytest.approx(delta, abs=TOL)
    chosen = apply_best(tree, alts)
    assert chosen.target == ("B",)


@report(3, "6-leaf insert: deltas 0.4375/0.3125/0.125 x3, tie resolved to split C")
def test_criterion_03():
    tree = AdaptiveTree.from_nested(
        ["A", [["B", "D"], ["C", "E"]]],
        {"A": 0.5, "B": 0.125, "C": 0.125, "D": 0.125, "E": 0.125},
        TreeConfig(2),
    )
    probs = {"A": 0.5, "B": 0.25, "C": 0.0625, "D": 0.0625, "E": 0.0625, "F": 0.0625}
    alts = enumerate_add_alternatives(tree, "F", probs)
    deltas = {alt.target[0]: alt.resulting_delta for alt in alts}
    assert deltas == pytest.approx(
        {"A": 0.4375, "B": 0.3125, "C": 0.125, "D": 0.125, "E": 0.125}, abs=TOL
    )
    chosen = apply_best(tree, alts)
    assert chosen.target == ("C",)


@report(4, "binary growth script: min-delta iterations 5-10, counts (3,4,5) for 2-4")
def test_criterion_04(fixtures_dir):
    script = load_script(fixtures_dir / "binary_growth_script.json")
    records = replay_iterations(script).records
    assert [r.alt_count for r in records[1:4]] == [3, 4, 5]
    expected = [0.125, 0.25, 0.1875, 0.125, 0.185, 0.185]
    observed = [r.min_delta for r in records[4:10]]
    for got, want in zip(observed, expected):
        assert got == pytest.approx(want, abs=0.005)


@report(5, "quaternary growth script: min-delta 1-4 exact with counts, 5-10 within 0.005")
def test_criterion_05(fixtures_dir):
    script = load_script(fixtures_dir / "quaternary_growth_script.json")
    records = replay_iterations(script).records
    first4 = [r.min_delta for r in records[:4]]
    assert first4 == pytest.approx([0.25, 0.125, 0.25, 0.375], abs=TOL)
    assert [r.alt_count for r in records[:4]] == [3, 4, 4, 6]
    expected = [0.34375, 0.25, 0.21875, 0.15625, 0.21875, 0.21875]
    observed = [r.min_delta for r in records[4:10]]
    for got, want in zip(observed, expected):
        assert got == pytest.approx(want, abs=0.005)


@report(6, "binary swap suite: candidates {B,F,H}, exact deltas, 2 swaps reach 0")
def test_criterion_06(binary_demo_tree):
    alts = enumerate_swap_alternatives(binary_demo_tree)
    swaps = {alt.target: alt.resulting_delta for alt in alts if alt.kind == "swap"}
    assert set(k for pair in swaps for k in pair) == {"B", "F", "H"}
    assert swaps[("B", "F")] == pytest.approx(0.375, abs=TOL)
    assert swaps[("B", "H")] == pytest.approx(0.0625, abs=TOL)
    assert swaps[("F", "H")] == pytest.approx(0.125, abs=TOL)
    outcomes = optimize_swaps(binary_demo_tree, max_iters=64)
    assert len(outcomes) == 2
    assert outcomes[0].chosen.target == ("B", "H")
    assert outcomes[1].chosen.target == ("F", "H")
    assert outcomes[1].delta_after == pytest.approx(0.0, abs=TOL)


@report(7, "quaternary swap suite: exact deltas, delta halves 0.375 -> 0.1875")
def test_criterion_07(quad_demo_tree):
    alts = enumerate_swap_alternatives(quad_demo_tree)
    swaps = {alt.target: alt.resulting_delta for alt in alts if alt.kind == "swap"}
    assert swaps[("A", "B")] == pytest.approx(0.625, abs=TOL)
    assert swaps[("B", "C")] == pytest.approx(0.1875, abs=TOL)
    assert swaps[("B", "D")] == pytest.approx(0.1875, abs=TOL)
    assert discrepancy_report(quad_demo_tree).delta == pytest.approx(0.375, abs=TOL)
    outcomes = optimize_swaps(quad_demo_tree, max_iters=64)
    assert outcomes[0].chosen.target == ("B", "C")
    assert outcomes[0].delta_before == pytest.approx(0.375, abs=TOL)
    assert outcomes[0].delta_after == pytest.approx(0.1875, abs=TOL)


@report(8, "16-leaf skewed demo: Huffman 3.49/3.46/12.75% and the exact length multiset")
def test_criterion_08(demo16):
    probs = dict(normalize_distribution(demo16))
    table = huffman_codes(probs, 2)
    assert table.avg_length == pytest.approx(3.49, abs=0.01)
    assert entropy(table.probabilities.values(), 2) == pytest.approx(3.46, abs=0.01)
    assert length_multiset(table) == [2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 6, 6, 7, 7, 7, 7]
    report_ = run_bench(demo16, 2, ("balanced", "huffman"))
    assert report_.per_variant["balanced"].k_a == pytest.approx(4.0, abs=TOL)
    assert report_.per_variant["huffman"].improvement_pct == pytest.approx(12.75, abs=1.0)


@report(9, "hexary 20-leaf case: strict per-swap descent from any delta > 0.12 start")
def test_criterion_09(fixtures_dir):
    dist = dict(normalize_distribution(load_distribution_csv(fixtures_dir / "hexary20_distribution.csv")))
    rng = random.Random(20240316)
    starts = []
    balanced = build_balanced([(k, k.encode(), dist[k]) for k in sorted(dist)], TreeConfig(16))
    starts.append(balanced)
    while len(starts) < 6:
        tree = random_tree(rng, 20, 16, probs=dict(dist))
        if discrepancy_report(tree).delta > 0.12:
            starts.append(tree)
    for tree in starts:
        assert discrepancy_report(tree).delta > 0.12
        outcomes = optimize_swaps(tree, max_iters=64)
        assert len(outcomes) < 64  # terminated by convergence, not the cap
        for outcome in outcomes:
            assert outcome.delta_after < outcome.delta_before - 1e-12


@report(10, "property suites: metrics/Kraft/proofs/Huffman-vs-oracle/root-hash")
def test_criterion_10():
    rng = random.Random(0xADA9)

    # delta = k_A - H = sum(delta_i); delta >= 0; Kraft <= 1 (500 trees)
    for _ in range(500):
        tree = random_tree(rng, rng.randint(1, 64), rng.choice([2, 3, 4, 16]))
        rep = discrepancy_report(tree)
        assert rep.delta == pytest.approx(rep.k_a - rep.entropy, abs=TOL)
        assert rep.delta == pytest.approx(sum(s.delta_i for s in rep.per_leaf), abs=TOL)
        assert rep.delta >= -TOL
        assert kraft_sum(tree) <= 1 + 1e-12

    # prove -> verify round trip (500 proofs)
    for _ in range(500):
        tree = random_tree(rng, rng.randint(1, 64), rng.choice([2, 3, 4]))
        key = rng.choice(tree.leaf_keys())
        assert verify(prove(tree, key), tree.root_hash(), tree.config.arity)

    # single-byte proof mutation -> False or a structural error (500 cases)
    for _ in range(500):
        tree = random_tree(rng, rng.randint(2, 48), rng.choice([2, 3, 4]))
        key = rng.choice(tree.leaf_keys())
        proof = prove(tree, key)
        blob = bytearray(proof.to_json_bytes())
        pos = rng.randrange(len(blob))
        old = blob[pos]
        new = rng.randrange(256)
        if new == old:
            new = (new + 1) % 256
        blob[pos] = new
        try:
            data = json.loads(bytes(blob).decode("utf-8"))
            mutated = MerkleProof.from_json_dict(data)
            if mutated == proof:
                continue  # encoding-only change (e.g. hex case), same value
            outcome = verify(mutated, tree.root_hash(), tree.config.arity)
            if outcome is True:
                # a mutation confined to the key field leaves the hash fold intact
                assert mutated.key != proof.key
                assert (mutated.leaf_hash, mutated.steps) == (proof.leaf_hash, proof.steps)
        except (ValueError, UnicodeDecodeError, MalformedProofError):
            pass  # structural rejection is an accepted outcome

    # huffman == brute force for n <= 8 (500 distributions)
    for _ in range(500):
        n = rng.randint(1, 8)
        m = rng.choice([2, 3, 4])
        probs = random_distribution(rng, n)
        assert huffman_codes(probs, m).avg_length == pytest.approx(
            brute_force_min_avg_length(probs, m), abs=TOL
        )

    # root hash invariant under probability changes (500 trees)
    for _ in range(500):
        tree = random_tree(rng, rng.randint(1, 64), rng.choice([2, 3, 4]))
        before = tree.root_hash()
        tree.set_probabilities(random_distribution(rng, tree.leaf_count()))
        assert tree.root_hash() == before


@report(11, "runtime: golden + property suite finishes within 60 seconds")
def test_criterion_11():
    # Criteria 1-10 run before this (definition order within the module);
    # no test in this package opens a socket or touches the network.
    elapsed = time.perf_counter() - ACCEPTANCE_START
    assert elapsed < 60.0, f"acceptance suite took {elapsed:.1f}s"
