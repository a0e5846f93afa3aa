"""CLI outputs compared byte for byte with committed golden files.

The files under ``fixtures/golden`` were written by the CLI before the depth
index and an incremental swap report (since deleted) went in; every
restructuring rule and float summation order since must reproduce them
exactly:

* ``variants_<dist>_m<m>.csv``: ``bench`` on ``demo16.csv`` and
  ``hexary20_distribution.csv`` at m = 2, 4 and 16, default modes; their
  ``mean_proof_bytes`` column was rewritten when a proof step's sibling
  digests became one hex string on the wire (3c - 1 bytes fewer per step
  of c siblings), every other column unchanged, and rewritten again when
  ``proof_bytes`` became the length of the binary wire (``to_bytes``) in
  place of the JSON view's: for example 476 -> 182 bytes for the balanced
  row of ``variants_demo16_m2.csv``. Both times every other column, and
  every other golden file, stayed byte-identical. The ``adaptive`` rows of
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
  change. Both snapshots were rewritten when snapshots became version 2
  (preorder widths, leaves and one root) and leaf hashes began to
  length-prefix the key: the same shapes, leaf order, depths and
  probabilities, read back by the old and the new loader, under a new root;
  both records stayed byte-identical;
* ``optimize_insert_demo16_m<m>.json``/``.snapshot.json`` and
  ``metrics_insert_demo16_m<m>.json``: ``optimize`` stdout and the snapshot
  it writes, and ``metrics`` stdout, on ``insert_demo16_m<m>.snapshot.json``.
  The metrics files were written when ``from_snapshot`` still built the
  parent pointers in a loop of its own. The optimize files were rewritten
  when ``optimize_swaps`` began exchanging whole subtrees: 5 moves at m = 2
  (k_A 4.0195 -> 3.6047, one leaf swap before) and 7 at m = 3
  (2.6584 -> 2.4438, two leaf swaps before). With snapshots at version 2
  both snapshots were rewritten as the insert snapshots were, and the
  optimize records name a loaded tree's nodes by their place in post-order:
  only exchange target labels changed (for example ``n30`` -> ``n32`` at
  m = 2, ``n3`` -> ``n4`` at m = 3); every kind, swap key, delta and
  candidate count, the move counts (5 and 7) and both metrics files stayed
  byte-identical.

* ``build_<dist>_m<m>.snapshot.json``, ``codes_<dist>_m<m>.csv`` and
  ``map_<dist>_m<m>.csv``: ``build``, ``encode --format codes`` and
  ``encode --format map`` on demo16 at m = 2 and 16 and on hexary20 at
  m = 16 (``helpers.BUILD_AND_ENCODE_RUNS``), written before the builders'
  per-node work was cut (slotted nodes, one walk per builder), which had to
  leave every byte as it was. The three snapshots were rewritten at version
  2 with length-prefixed leaf keys (same shapes, leaves and probabilities);
  the code and map CSVs did not change;
* ``SEEDED_DIGESTS``: the SHA-256 of the address map CSV and of the Huffman
  tree's snapshot for a seeded Zipf(1.1) at n = 4096, m = 2, 3 and 16
  (``helpers.write_seeded_zipf_outputs``), pinned at the same time: too
  large to commit, large enough for every merge, parse and walk path. The
  snapshot digests were re-pinned at version 2; the map digests did not
  change. 4095 is a multiple of 1 and of 15, so m = 2 and 16 pad nothing;
  m = 3 pads one dummy, pinned before the merge loop took flat entries.

Every golden is also run under each other Python the package supports
(3.10, 3.12, 3.13), as ``python3.X -m adaptive_merkle.cli`` with
``PYTHONPATH`` set to ``src`` (the build and encode goldens and the seeded
digests in one ``python3.X -c`` process that also imports ``helpers``):
the ``python3.X`` on PATH if it starts,
else pyenv's ``versions/3.X.*/bin/python3``; an interpreter found in
neither place is skipped. The suite's summary line lists the versions the
goldens ran under and the interpreters skipped.
"""

import glob
import hashlib
import os
import shutil
import subprocess
from pathlib import Path

import pytest

from adaptive_merkle.cli import main

from helpers import write_build_and_encode_outputs, write_seeded_zipf_outputs

GOLDEN = "golden"
DISTRIBUTIONS = {"demo16": "demo16.csv", "hexary20": "hexary20_distribution.csv"}
SCRIPTS = ["binary_growth_script", "quaternary_growth_script", "swap_steps_script"]
SRC = Path(__file__).parents[1] / "src"
TESTS = Path(__file__).parent
SEEDED_N, SEEDED_SEED = 4096, 1
# arity -> SHA-256 of (map.csv, snapshot.json) from write_seeded_zipf_outputs
SEEDED_DIGESTS = {
    2: ("ac85a6c557a78adc9a8ee79f6b25e15ba8800c6d21d9ab777ce6d4f4f1abfa43",
        "367051eaf41f2aae9393ba8528710095ac621592f2068788f79beea00d2bd25f"),
    3: ("a95aad4a36dbed9523977f58390dab9990128d8e2a4d7fd0a0ba62bc868e792f",
        "514f3f5e1a48162456b2f1844bda8a321e2fdbf65c8f894165490c5c0953f0d2"),
    16: ("921188f421a8da525c67d1fe5e658b0f8b969a646860b85cd072e55b3f570c28",
         "75ffdfa842bb7fbd890441fe734e408892fe486f8f145fb0b370a933b781e30a"),
}


@pytest.mark.parametrize("arity", [2, 4, 16])
@pytest.mark.parametrize("dist", sorted(DISTRIBUTIONS))
def test_bench_variants(tmp_path, fixtures_dir, dist, arity):
    out = tmp_path / "variants.csv"
    assert main(["bench", "--dist", str(fixtures_dir / DISTRIBUTIONS[dist]), "--arity", str(arity),
                 "--out", str(out)]) == 0
    assert out.read_bytes() == (fixtures_dir / GOLDEN / f"variants_{dist}_m{arity}.csv").read_bytes()


@pytest.mark.parametrize("script", SCRIPTS)
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


def test_build_and_encode(tmp_path, fixtures_dir):
    names = write_build_and_encode_outputs(fixtures_dir, tmp_path)
    assert len(names) == 9
    assert [name for name in names if (tmp_path / name).read_bytes() != (fixtures_dir / GOLDEN / name).read_bytes()] == []


def _seeded_digests(directory):
    return tuple(hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in ("map.csv", "snapshot.json"))


@pytest.mark.parametrize("arity", sorted(SEEDED_DIGESTS))
def test_seeded_zipf_map_and_huffman_tree(tmp_path, arity):
    write_seeded_zipf_outputs(tmp_path, SEEDED_N, arity, SEEDED_SEED)
    assert _seeded_digests(tmp_path) == SEEDED_DIGESTS[arity]


PYTHONS = ["python3.10", "python3.12", "python3.13"]


def _interpreter(python, golden_pythons):
    """A ``python3.X`` that starts; the test is skipped if there is none. A
    pyenv shim is on PATH even where its version is not selected, and then
    exits non-zero; pyenv's own ``versions/3.X.*/bin/python3`` are tried
    next. The version found, or None for a skip, goes to ``golden_pythons``
    for the summary line."""
    candidates = [shutil.which(python)]
    pyenv = shutil.which("pyenv")
    root = pyenv and subprocess.run([pyenv, "root"], capture_output=True, text=True).stdout.strip()
    if root:
        version = python.removeprefix("python")
        candidates += sorted(glob.glob(os.path.join(root, "versions", f"{version}.*", "bin", "python3")))
    for exe in candidates:
        started = exe and subprocess.run([exe, "-c", "import platform; print(platform.python_version())"],
                                         capture_output=True, text=True)
        if started and started.returncode == 0:
            golden_pythons[python] = started.stdout.strip()
            return exe
    golden_pythons[python] = None
    pytest.skip(f"{python} is neither on PATH nor under pyenv, or does not start")


def _run_cli(exe, *args):
    """Stdout of ``exe -m adaptive_merkle.cli args`` with ``PYTHONPATH=src``,
    which must exit 0."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([exe, "-m", "adaptive_merkle.cli", *map(str, args)], env=env, check=True,
                          capture_output=True).stdout


@pytest.mark.parametrize("python", PYTHONS)
def test_bench_and_replay_on_other_pythons(tmp_path, fixtures_dir, golden_pythons, python):
    exe = _interpreter(python, golden_pythons)
    runs = {f"variants_{dist}_m{arity}.csv": ["bench", "--dist", fixtures_dir / csv, "--arity", arity]
            for dist, csv in DISTRIBUTIONS.items() for arity in (2, 4, 16)}
    runs.update({f"iterations_{script}.csv": ["replay", "--script", fixtures_dir / f"{script}.json"]
                 for script in SCRIPTS})
    differ = []
    for name, args in runs.items():
        out = tmp_path / name
        _run_cli(exe, *args, "--out", out)
        if out.read_bytes() != (fixtures_dir / GOLDEN / name).read_bytes():
            differ.append(name)
    assert differ == []


@pytest.mark.parametrize("python", PYTHONS)
def test_insert_optimize_and_metrics_on_other_pythons(tmp_path, fixtures_dir, golden_pythons, python):
    # the runs of test_insert and test_optimize_and_metrics_on_loaded_snapshot
    exe = _interpreter(python, golden_pythons)
    produced = {}
    for arity in (2, 3):
        base, inserted, optimized = tmp_path / "base.json", tmp_path / "inserted.json", tmp_path / "optimized.json"
        _run_cli(exe, "build", "--probs", fixtures_dir / "demo16.csv", "--arity", arity, "--out", base)
        produced[f"insert_demo16_m{arity}.json"] = _run_cli(
            exe, "insert", "--snapshot", base, "--key", "Q", "--probs", fixtures_dir / "demo17.csv", "--out", inserted
        )
        produced[f"insert_demo16_m{arity}.snapshot.json"] = inserted.read_bytes()
        snapshot = fixtures_dir / GOLDEN / f"insert_demo16_m{arity}.snapshot.json"
        produced[f"optimize_insert_demo16_m{arity}.json"] = _run_cli(
            exe, "optimize", "--snapshot", snapshot, "--out", optimized
        )
        produced[f"optimize_insert_demo16_m{arity}.snapshot.json"] = optimized.read_bytes()
        produced[f"metrics_insert_demo16_m{arity}.json"] = _run_cli(exe, "metrics", "--snapshot", snapshot)
    assert len(produced) == 10
    assert [name for name, data in produced.items() if data != (fixtures_dir / GOLDEN / name).read_bytes()] == []


# writes the outputs of test_build_and_encode and test_seeded_zipf_map_and_huffman_tree
PINNED_OUTPUTS_SCRIPT = """
import sys
from helpers import write_build_and_encode_outputs, write_seeded_zipf_outputs
fixtures, out, n, seed, *arities = sys.argv[1:]
print("\\n".join(write_build_and_encode_outputs(fixtures, out)))
for m in arities:
    write_seeded_zipf_outputs(f"{out}/m{m}", int(n), int(m), int(seed))
"""


@pytest.mark.parametrize("python", PYTHONS)
def test_build_encode_and_seeded_zipf_on_other_pythons(tmp_path, fixtures_dir, golden_pythons, python):
    exe = _interpreter(python, golden_pythons)
    for arity in SEEDED_DIGESTS:
        (tmp_path / f"m{arity}").mkdir()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), str(TESTS)])}
    names = subprocess.run([exe, "-c", PINNED_OUTPUTS_SCRIPT, fixtures_dir, tmp_path, str(SEEDED_N), str(SEEDED_SEED),
                            *map(str, SEEDED_DIGESTS)], env=env, check=True, capture_output=True,
                           text=True).stdout.split()
    assert len(names) == 9
    assert [name for name in names if (tmp_path / name).read_bytes() != (fixtures_dir / GOLDEN / name).read_bytes()] == []
    assert {m: _seeded_digests(tmp_path / f"m{m}") for m in SEEDED_DIGESTS} == SEEDED_DIGESTS
