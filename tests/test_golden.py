"""CLI outputs compared byte for byte with committed golden files.

The files under ``fixtures/golden`` were written by the CLI before the depth
index and the incremental swap report went in; every restructuring rule and
float summation order since must reproduce them exactly:

* ``variants_<dist>_m<m>.csv``: ``bench`` on ``demo16.csv`` and
  ``hexary20_distribution.csv`` at m = 2, 4 and 16, default modes;
* ``iterations_<script>.csv``: ``replay`` of each growth script.
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


@pytest.mark.parametrize("script", ["binary_growth_script", "quaternary_growth_script"])
def test_replay_iterations(tmp_path, fixtures_dir, script):
    out = tmp_path / "iterations.csv"
    assert main(["replay", "--script", str(fixtures_dir / f"{script}.json"), "--out", str(out)]) == 0
    assert out.read_bytes() == (fixtures_dir / GOLDEN / f"iterations_{script}.csv").read_bytes()
