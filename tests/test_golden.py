"""CLI outputs compared byte for byte with committed golden files.

The files under ``fixtures/golden`` were written by the CLI before the depth
index and an incremental swap report (since deleted) went in; every
restructuring rule and float summation order since must reproduce them
exactly:

* ``variants_<dist>_m<m>.csv``: ``bench`` on ``demo16.csv`` and
  ``hexary20_distribution.csv`` at m = 2, 4 and 16, default modes; their
  ``mean_proof_bytes`` column was rewritten when a proof step's sibling
  digests became one hex string on the wire (3c - 1 bytes fewer per step
  of c siblings), every other column unchanged. The ``adaptive`` rows of
  ``variants_demo16_m2.csv`` and ``variants_demo16_m4.csv`` were rewritten
  when the adaptive build began to end with one exchange pass without the
  swap-free exit, whose leaf-only test had left both grown trees short of
  a helpful subtree exchange: k_A 3.6017 -> 3.4896 (Huffman's) at m = 2
  and 1.9386 -> 1.7958 (Huffman's) at m = 4; the other four files did not
  change;
* ``iterations_<script>.csv``: ``replay`` of each growth script and of
  ``swap_steps_script.json``, whose three steps are a swap-only step that
  swaps, a swap-only step that finds nothing to swap, and an add step whose
  swap passes then swap (no step of the growth scripts swaps);
* ``insert_demo16_m<m>.json`` and ``insert_demo16_m<m>.snapshot.json``: the
  audit record ``insert`` prints and the snapshot it writes when key Q of
  ``demo17.csv`` (demo16 plus Q) joins the balanced demo16 tree, at m = 2
  (splits only) and m = 3 (open nodes, so attaches are scored too). Written
  when ``apply_best`` still built the record itself. The ``"chosen"."delta"``
  line of both records was rewritten when add mode began to sum the old
  leaves' share of k_A in key order, as the report does, not right to left
  over the leaves: 0.4823724341295632 -> ...5623 at m = 2 and
  0.7175131196427755 -> ...7764 at m = 3, each now equal to its record's
  ``delta_after``; the pick, every other line and both snapshots did not
  change;
* ``optimize_insert_demo16_m<m>.json``/``.snapshot.json`` and
  ``metrics_insert_demo16_m<m>.json``: ``optimize`` stdout and the snapshot
  it writes, and ``metrics`` stdout, on ``insert_demo16_m<m>.snapshot.json``.
  The metrics files were written when ``from_snapshot`` still built the
  parent pointers in a loop of its own. The optimize files were rewritten
  when ``optimize_swaps`` began exchanging whole subtrees: 5 moves at m = 2
  (k_A 4.0195 -> 3.6047, one leaf swap before) and 7 at m = 3
  (2.6584 -> 2.4438, two leaf swaps before).
"""

import pytest

from adaptive_merkle.cli import main

GOLDEN = "golden"
DISTRIBUTIONS = {"demo16": "demo16.csv", "hexary20": "hexary20_distribution.csv"}


@pytest.mark.parametrize("arity", [2, 4, 16])
@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
def test_bench_variants(tmp_path, fixtures_dir, dist, arity):
    out = tmp_path / "variants.csv"
    assert main(["bench", "--dist", str(fixtures_dir / DISTRIBUTIONS[dist]), "--arity", str(arity),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (fixtures_dir / GOLDEN / f"variants_{dist}_m{arity}.csv").read_bytes()


@pytest.mark.parametrize("script", ["binary_growth_script", "quaternary_growth_script", "swap_steps_script"])
def test_replay_iterations(tmp_path, fixtures_dir, script):
    out = tmp_path / "iterations.csv"
    assert main(["replay", "--script", str(fixtures_dir / f"{script}.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (fixtures_dir / GOLDEN / f"iterations_{script}.csv").read_bytes()


@pytest.mark.parametrize("arity", [2, 3])
def test_insert(tmp_path, fixtures_dir, capsys, arity):
    base, out = tmp_path / "base.json", tmp_path / "inserted.json"
    assert main(["build", "--probs", str(fixtures_dir / "demo16.csv"), "--arity", str(arity),
                 "--out", str(base)]) == 0
    capsys.readouterr()
    assert main(["insert", "--snapshot", str(base), "--key", "Q", "--probs", str(fixtures_dir / "demo17.csv"),
                 "--out", str(out)]) == 0
    golden = fixtures_dir / GOLDEN / f"insert_demo16_m{arity}"
    assert capsys.readouterr().out == golden.with_suffix(".json").read_text(encoding="utf-8")
    assert out.read_bytes() == golden.with_suffix(".snapshot.json").read_bytes()


@pytest.mark.parametrize("arity", [2, 3])
def test_optimize_and_metrics_on_loaded_snapshot(tmp_path, fixtures_dir, capsys, arity):
    snapshot, out = fixtures_dir / GOLDEN / f"insert_demo16_m{arity}.snapshot.json", tmp_path / "optimized.json"
    golden = fixtures_dir / GOLDEN / f"optimize_insert_demo16_m{arity}"
    assert main(["optimize", "--snapshot", str(snapshot), "--out", str(out)]) == 0
    assert capsys.readouterr().out == golden.with_suffix(".json").read_text(encoding="utf-8")
    assert out.read_bytes() == golden.with_suffix(".snapshot.json").read_bytes()
    assert main(["metrics", "--snapshot", str(snapshot)]) == 0
    metrics = fixtures_dir / GOLDEN / f"metrics_insert_demo16_m{arity}.json"
    assert capsys.readouterr().out == metrics.read_text(encoding="utf-8")
