"""CLI subcommands, exit codes, and output determinism."""

import json

import pytest

from adaptive_merkle import AdaptiveTree
from adaptive_merkle.cli import main

from helpers import MALFORMED_TOP_LEVEL, malform, old_format_step


@pytest.fixture
def dist_csv(tmp_path, fixtures_dir):
    return str(fixtures_dir / "demo16.csv")


@pytest.fixture
def snapshot(tmp_path, dist_csv):
    path = tmp_path / "tree.json"
    assert main(["build", "--probs", dist_csv, "--arity", "2", "--out", str(path)]) == 0
    return path


def test_build_and_metrics(snapshot, capsys):
    assert main(["metrics", "--snapshot", str(snapshot)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["k_A"] == pytest.approx(4.0)


def test_insert_writes_new_snapshot_only(tmp_path, snapshot, capsys):
    probs = tmp_path / "probs.csv"
    rows = ["key,probability"] + [f"{k},{1/17}" for k in "ABCDEFGHIJKLMNOPQ"]
    probs.write_text("\n".join(rows) + "\n", encoding="utf-8")
    before = snapshot.read_bytes()
    out = tmp_path / "tree2.json"
    assert main(["insert", "--snapshot", str(snapshot), "--key", "Q",
                 "--probs", str(probs), "--out", str(out)]) == 0
    audit = json.loads(capsys.readouterr().out)
    assert set(audit) == {"chosen", "candidates", "delta_before", "delta_after"}
    assert audit["candidates"] == 16  # binary tree: one split per leaf, no open node
    assert snapshot.read_bytes() == before
    assert AdaptiveTree.load(out).leaf_count() == 17


def test_insert_bad_probs_exit_2(tmp_path, snapshot):
    probs = tmp_path / "bad.csv"
    rows = ["key,probability", "A,-0.01"] + [f"{k},0.01" for k in "BCDEFGHIJKLMNOPQ"]
    probs.write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert main(["insert", "--snapshot", str(snapshot), "--key", "Q",
                 "--probs", str(probs), "--out", str(tmp_path / "x.json")]) == 2


def test_insert_normalizes_probs(tmp_path, snapshot, capsys):
    # as build does: a file summing to 0.9 is scaled to 1, not rejected
    probs = tmp_path / "probs.csv"
    rows = ["key,probability"] + [f"{k},{0.9 / 17}" for k in "ABCDEFGHIJKLMNOPQ"]
    probs.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "tree2.json"
    assert main(["insert", "--snapshot", str(snapshot), "--key", "Q",
                 "--probs", str(probs), "--out", str(out)]) == 0
    assert sum(AdaptiveTree.load(out).probabilities.values()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_build_non_finite_probability_exit_2(tmp_path, bad):
    probs = tmp_path / "bad.csv"
    probs.write_text(f"key,probability\nA,0.5\nB,{bad}\n", encoding="utf-8")
    out = tmp_path / "tree.json"
    assert main(["build", "--probs", str(probs), "--arity", "2", "--out", str(out)]) == 2
    assert not out.exists()


def test_optimize(tmp_path, snapshot, capsys):
    out = tmp_path / "opt.json"
    assert main(["optimize", "--snapshot", str(snapshot), "--out", str(out)]) == 0
    json.loads(capsys.readouterr().out)
    AdaptiveTree.load(out)


def test_prove_verify_round_trip(tmp_path, snapshot, capsys):
    proof_path = tmp_path / "proof.json"
    assert main(["prove", "--snapshot", str(snapshot), "--key", "A",
                 "--out", str(proof_path)]) == 0
    capsys.readouterr()
    root = AdaptiveTree.load(snapshot).root_hash().hex()
    assert main(["verify", "--proof", str(proof_path), "--root", root, "--arity", "2"]) == 0


def test_verify_wrong_root_exit_3(tmp_path, snapshot, capsys):
    proof_path = tmp_path / "proof.json"
    main(["prove", "--snapshot", str(snapshot), "--key", "A", "--out", str(proof_path)])
    capsys.readouterr()
    assert main(["verify", "--proof", str(proof_path), "--root", "00" * 32, "--arity", "2"]) == 3


def test_verify_malformed_proof_exit_2(tmp_path, capsys):
    proof_path = tmp_path / "proof.json"
    proof_path.write_text(json.dumps({"key": "A"}), encoding="utf-8")
    assert main(["verify", "--proof", str(proof_path), "--root", "00" * 32, "--arity", "2"]) == 2


def test_verify_old_format_proof_exit_2(tmp_path, snapshot):
    proof_path = tmp_path / "proof.json"
    assert main(["prove", "--snapshot", str(snapshot), "--key", "A", "--out", str(proof_path)]) == 0
    data = json.loads(proof_path.read_text(encoding="utf-8"))
    data["steps"] = [old_format_step(step) for step in data["steps"]]
    proof_path.write_text(json.dumps(data), encoding="utf-8")
    root = AdaptiveTree.load(snapshot).root_hash().hex()
    assert main(["verify", "--proof", str(proof_path), "--root", root, "--arity", "2"]) == 2


def test_metrics_node_without_kind_exit_2(tmp_path, snapshot):
    snap = json.loads(snapshot.read_text(encoding="utf-8"))
    del snap["nodes"][0]["kind"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(snap), encoding="utf-8")
    assert main(["metrics", "--snapshot", str(bad)]) == 2


@pytest.mark.parametrize("field, value", MALFORMED_TOP_LEVEL)
def test_metrics_malformed_top_level_exit_2(tmp_path, snapshot, capsys, field, value):
    snap = malform(json.loads(snapshot.read_text(encoding="utf-8")), field, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(snap), encoding="utf-8")
    assert main(["metrics", "--snapshot", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: snapshot")


def test_prove_probabilities_off_sum_exit_2(tmp_path, snapshot):
    snap = json.loads(snapshot.read_text(encoding="utf-8"))
    snap["probabilities"] = {k: p / 2 for k, p in snap["probabilities"].items()}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(snap), encoding="utf-8")
    assert main(["prove", "--snapshot", str(bad), "--key", "A"]) == 2


def test_encode_codes(tmp_path, dist_csv):
    out = tmp_path / "codes.csv"
    assert main(["encode", "--probs", dist_csv, "--arity", "2", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "key,probability,code,length"
    assert len(lines) == 17


def test_encode_map(tmp_path, dist_csv):
    out = tmp_path / "map.csv"
    assert main(["encode", "--probs", dist_csv, "--arity", "2",
                 "--format", "map", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "address,probability,balanced_code,adaptive_code"
    assert len(lines) == 17


def test_encode_map_deep_tree(tmp_path):
    # a 599-deep Huffman chain, past Python's default recursion limit
    probs = tmp_path / "geometric.csv"
    rows = ["key,probability"] + [f"g{i:03d},{0.5**i!r}" for i in range(600)]
    probs.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "map.csv"
    assert main(["encode", "--probs", str(probs), "--arity", "2",
                 "--format", "map", "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 601


def test_bench_improvement(tmp_path, dist_csv):
    out = tmp_path / "variants.csv"
    assert main(["bench", "--dist", dist_csv, "--arity", "2",
                 "--modes", "balanced,huffman", "--out", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    huffman = next(row for row in rows if row.startswith("huffman"))
    improvement = float(huffman.split(",")[-1])
    assert improvement == pytest.approx(12.75, abs=1.0)


def test_replay(tmp_path, fixtures_dir):
    out = tmp_path / "iters.csv"
    assert main(["replay", "--script", str(fixtures_dir / "binary_growth_script.json"),
                 "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 11


def test_byte_identical_outputs(tmp_path, dist_csv):
    out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
    for out in (out1, out2):
        assert main(["bench", "--dist", dist_csv, "--arity", "2",
                     "--modes", "balanced,adaptive,huffman", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    snap1, snap2 = tmp_path / "s1.json", tmp_path / "s2.json"
    for snap in (snap1, snap2):
        assert main(["build", "--probs", dist_csv, "--arity", "2", "--out", str(snap)]) == 0
    assert snap1.read_bytes() == snap2.read_bytes()


def test_usage_error_exit_1(capsys):
    assert main(["bogus-command"]) == 1
    assert main([]) == 1


def test_missing_file_exit_2(tmp_path):
    assert main(["metrics", "--snapshot", str(tmp_path / "nope.json")]) == 2
