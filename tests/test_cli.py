"""CLI subcommands, exit codes, and output determinism."""

import json
import random
from collections import Counter

import pytest

import adaptive_merkle.cli as cli_mod
from adaptive_merkle import AdaptiveTree, MerkleProof, optimize_swaps, prove
from adaptive_merkle.cli import main
from adaptive_merkle.workload import zipf_distribution

from helpers import (
    MALFORMED_SCRIPT,
    MALFORMED_TOP_LEVEL,
    V1_SNAPSHOT,
    malform,
    malform_script,
    old_readable_view,
    random_tree,
)


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


def test_optimize_says_when_it_hits_max_iters(tmp_path, binary_demo_tree, capsys):
    # the binary demo tree takes two swaps to settle
    snapshot, out = tmp_path / "demo.json", tmp_path / "opt.json"
    binary_demo_tree.save(snapshot)
    assert main(["optimize", "--snapshot", str(snapshot), "--max-iters", "1", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert len(json.loads(captured.out)) == 1
    assert captured.err == "stopped at --max-iters 1\n"
    assert main(["optimize", "--snapshot", str(snapshot), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert len(json.loads(captured.out)) == 2
    assert captured.err == ""


@pytest.mark.parametrize("arity, max_iters, capped", [(2, 5, False), (3, 7, False), (2, 4, True), (3, 6, True)])
def test_optimize_says_max_iters_only_when_a_move_is_left(tmp_path, fixtures_dir, capsys, arity, max_iters, capped):
    # The golden runs converge in exactly 5 moves at m=2 and 7 at m=3: a cap
    # there ends nothing, one lower cuts the last move. The message changes
    # neither stdout nor the snapshot written.
    golden = fixtures_dir / "golden"
    snapshot = golden / f"insert_demo16_m{arity}.snapshot.json"
    out, expected = tmp_path / "opt.json", tmp_path / "lib.json"
    tree = AdaptiveTree.load(snapshot)
    outcomes = optimize_swaps(tree, max_iters=max_iters)
    tree.save(expected)
    assert main(["optimize", "--snapshot", str(snapshot), "--max-iters", str(max_iters), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.err == (f"stopped at --max-iters {max_iters}\n" if capped else "")
    assert captured.out == json.dumps([o.to_json_dict() for o in outcomes], indent=2) + "\n"
    assert out.read_bytes() == expected.read_bytes()
    uncapped = golden / f"optimize_insert_demo16_m{arity}"
    assert json.loads(captured.out) == json.loads(uncapped.with_suffix(".json").read_text(encoding="utf-8"))[:max_iters]
    if not capped:
        assert out.read_bytes() == uncapped.with_suffix(".snapshot.json").read_bytes()


def test_optimize_max_iters_message_matches_one_more_move(tmp_path, capsys):
    # Oracle: the cap, not convergence, ended a run of N moves exactly when
    # the same loop on a copy of the input, allowed N + 1 moves, makes more
    # than N. Runs that converge in exactly N moves are among the cases.
    rng = random.Random(131)
    snapshot, out = tmp_path / "tree.json", tmp_path / "opt.json"
    ends = Counter()
    for _ in range(520):
        tree = random_tree(rng, rng.randint(2, 60), rng.choice([2, 3, 4, 16]))
        cap = rng.randint(1, 8)
        tree.save(snapshot)
        moves = len(optimize_swaps(tree.clone(), max_iters=cap + 1))
        assert main(["optimize", "--snapshot", str(snapshot), "--max-iters", str(cap), "--out", str(out)]) == 0
        assert capsys.readouterr().err == (f"stopped at --max-iters {cap}\n" if moves > cap else "")
        ends["capped" if moves > cap else "exactly" if moves == cap else "short"] += 1
    assert min(ends["capped"], ends["exactly"], ends["short"]) >= 10, ends


def test_optimize_runs_the_loop_once_on_no_copy(tmp_path, binary_demo_tree, monkeypatch, capsys):
    # The stop test is the loop's own: no clone, no second run to probe it.
    calls = Counter()
    real_clone, real_optimize = AdaptiveTree.clone, cli_mod.optimize_swaps

    def clone(tree):
        calls["clone"] += 1
        return real_clone(tree)

    def optimize(tree, max_iters):
        calls["optimize_swaps"] += 1
        return real_optimize(tree, max_iters=max_iters)

    monkeypatch.setattr(AdaptiveTree, "clone", clone)
    monkeypatch.setattr(cli_mod, "optimize_swaps", optimize)
    snapshot, out = tmp_path / "demo.json", tmp_path / "opt.json"
    binary_demo_tree.save(snapshot)
    assert main(["optimize", "--snapshot", str(snapshot), "--max-iters", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().err == "stopped at --max-iters 1\n"
    assert calls == {"optimize_swaps": 1}


def test_prove_verify_round_trip(tmp_path, snapshot, capsys):
    proof_path = tmp_path / "proof.json"
    assert main(["prove", "--snapshot", str(snapshot), "--key", "A",
                 "--out", str(proof_path)]) == 0
    capsys.readouterr()
    root = AdaptiveTree.load(snapshot).root_hash().hex()
    assert main(["verify", "--proof", str(proof_path), "--root", root, "--arity", "2"]) == 0


def test_prove_json_stderr_counts_binary_bytes(tmp_path, snapshot, capsys):
    proof_path = tmp_path / "proof.json"
    assert main(["prove", "--snapshot", str(snapshot), "--key", "A", "--out", str(proof_path)]) == 0
    proof = prove(AdaptiveTree.load(snapshot), "A")
    assert proof_path.read_bytes() == proof.to_json_bytes() + b"\n"
    assert capsys.readouterr().err == f"steps=4 proof_bytes={len(proof.to_bytes())}\n"


def test_verify_payload_binds_json_proof(tmp_path, snapshot, capsys):
    proof_path = tmp_path / "proof.json"
    assert main(["prove", "--snapshot", str(snapshot), "--key", "A", "--out", str(proof_path)]) == 0
    root = AdaptiveTree.load(snapshot).root_hash().hex()
    assert main(["verify", "--proof", str(proof_path), "--root", root, "--payload-hex", "41"]) == 0
    proof = prove(AdaptiveTree.load(snapshot), "A")
    relabelled = MerkleProof("B", proof.leaf_hash, proof.steps)
    proof_path.write_bytes(relabelled.to_json_bytes() + b"\n")
    assert main(["verify", "--proof", str(proof_path), "--root", root]) == 0  # unbound: relabel passes
    assert main(["verify", "--proof", str(proof_path), "--root", root, "--payload-hex", "41"]) == 3
    assert main(["verify", "--proof", str(proof_path), "--root", root, "--payload-hex", "4"]) == 2


def test_verify_wrong_root_exit_3(tmp_path, snapshot, capsys):
    proof_path = tmp_path / "proof.json"
    main(["prove", "--snapshot", str(snapshot), "--key", "A", "--out", str(proof_path)])
    capsys.readouterr()
    assert main(["verify", "--proof", str(proof_path), "--root", "00" * 32, "--arity", "2"]) == 3


def test_verify_malformed_proof_exit_2(tmp_path, capsys):
    proof_path = tmp_path / "proof.json"
    proof_path.write_text(json.dumps({"key": "A"}), encoding="utf-8")
    assert main(["verify", "--proof", str(proof_path), "--root", "00" * 32, "--arity", "2"]) == 2


def test_verify_version_1_wire_exit_2(tmp_path, snapshot, capsys):
    # a proof written before leaf hashes length-prefixed the key
    proof_path = tmp_path / "proof.json"
    tree = AdaptiveTree.load(snapshot)
    wire = prove(tree, "A").to_bytes()
    proof_path.write_text(json.dumps({"wire_hex": ("01" + wire[1:].hex())}), encoding="utf-8")
    assert main(["verify", "--proof", str(proof_path), "--root", tree.root_hash().hex()]) == 2
    assert capsys.readouterr().err == "error: proof wire version 01, expected 02\n"


def test_verify_old_format_proof_exit_2(tmp_path, snapshot):
    proof_path = tmp_path / "proof.json"
    tree = AdaptiveTree.load(snapshot)
    root = tree.root_hash().hex()
    for form in ["joined-hex", "hex-list", "index-objects"]:
        proof_path.write_text(json.dumps(old_readable_view(prove(tree, "A"), form)), encoding="utf-8")
        assert main(["verify", "--proof", str(proof_path), "--root", root, "--arity", "2"]) == 2


@pytest.mark.parametrize("command", [["metrics"], ["prove", "--key", "A"], ["optimize", "--out", "out.json"],
                                     ["insert", "--key", "C", "--probs", "probs.csv", "--out", "out.json"]])
def test_version_1_snapshot_exit_2(tmp_path, capsys, monkeypatch, command):
    # the per-node snapshot form is refused with one line naming the version
    monkeypatch.chdir(tmp_path)
    (tmp_path / "probs.csv").write_text("key,probability\nA,0.5\nB,0.25\nC,0.25\n", encoding="utf-8")
    (tmp_path / "v1.json").write_text(json.dumps(V1_SNAPSHOT, indent=2), encoding="utf-8")
    assert main([command[0], "--snapshot", "v1.json", *command[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not (tmp_path / "out.json").exists()
    assert captured.err == "error: snapshot format_version 'missing', expected 2\n"


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


@pytest.mark.parametrize("modes", ["", ",", "turbo"])
def test_bench_no_known_mode_exit_2(tmp_path, dist_csv, modes):
    out = tmp_path / "variants.csv"
    assert main(["bench", "--dist", dist_csv, "--modes", modes, "--out", str(out)]) == 2
    assert not out.exists()


def test_bench_arity_past_the_code_alphabet_exit_2(tmp_path, capsys):
    # m = 37 is a valid arity, and bench builds its Huffman tree, whose root
    # has 37 children; only the writers that spell codes need a 37th digit,
    # and they exit 2 before a file is opened
    dist = tmp_path / "dist.csv"
    dist.write_text("key,probability\n" + "".join(f"k{i:02d},0.025\n" for i in range(40)), encoding="utf-8")
    out = tmp_path / "variants.csv"
    assert main(["bench", "--dist", str(dist), "--arity", "37", "--modes", "huffman", "--out", str(out)]) == 0
    assert [row.split(",")[0] for row in out.read_text(encoding="utf-8").splitlines()] == ["variant", "huffman"]
    for fmt in ("codes", "map"):
        written = tmp_path / f"{fmt}.csv"
        assert main(["encode", "--probs", str(dist), "--arity", "37", "--format", fmt, "--out", str(written)]) == 2
        assert "child index 36 exceeds the code alphabet" in capsys.readouterr().err
        assert not written.exists()
    # Verkle's width: every variant of a 1,024-key Zipf(1.1) bench
    zipf = tmp_path / "zipf.csv"
    zipf.write_text("key,probability\n" + "".join(
        f"k{i:04d},{p!r}\n" for i, p in enumerate(zipf_distribution(1024, 1.1))), encoding="utf-8")
    assert main(["bench", "--dist", str(zipf), "--arity", "256", "--out", str(out)]) == 0
    rows = out.read_text(encoding="utf-8").splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["balanced", "adaptive", "huffman"]


def test_encode_arity_past_max_exit_2(tmp_path, dist_csv, capsys):
    out = tmp_path / "codes.csv"
    assert main(["encode", "--probs", dist_csv, "--arity", "65537", "--out", str(out)]) == 2
    assert "arity must be an int from 2 to 65536" in capsys.readouterr().err
    assert not out.exists()


def test_replay(tmp_path, fixtures_dir):
    out = tmp_path / "iters.csv"
    assert main(["replay", "--script", str(fixtures_dir / "binary_growth_script.json"),
                 "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 11


@pytest.mark.parametrize("field, value", MALFORMED_SCRIPT)
def test_replay_malformed_script_exit_2(tmp_path, fixtures_dir, capsys, field, value):
    script = json.loads((fixtures_dir / "binary_growth_script.json").read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(malform_script(script, field, value)), encoding="utf-8")
    out = tmp_path / "iters.csv"
    assert main(["replay", "--script", str(bad), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: script")
    assert not out.exists()


def test_replay_lone_surrogate_key_exit_2(tmp_path, fixtures_dir, capsys):
    script = json.loads((fixtures_dir / "binary_growth_script.json").read_text(encoding="utf-8"))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(malform_script(script, "new_key", "\udc00")), encoding="utf-8")
    out = tmp_path / "iters.csv"
    assert main(["replay", "--script", str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: script") and "leaf key is not valid UTF-8" in err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["verify", "metrics", "replay", "build"])
def test_unparseable_input_exit_2(tmp_path, capsys, command):
    # JSON nested past the parser's recursion limit, or a CSV field over the
    # csv module's size limit: one error line, no traceback
    deep, big = tmp_path / "deep.json", tmp_path / "big.csv"
    deep.write_text("[" * 200000, encoding="utf-8")
    big.write_text("key,probability\n" + "A" * 200000 + ",1.0\n", encoding="utf-8")
    out = str(tmp_path / "out")
    argv = {
        "verify": ["verify", "--proof", str(deep), "--root", "00" * 32],
        "metrics": ["metrics", "--snapshot", str(deep)],
        "replay": ["replay", "--script", str(deep), "--out", out],
        "build": ["build", "--probs", str(big), "--out", out],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_every_option_has_help():
    # argparse keeps each subcommand's parser in the subparsers action's choices
    (commands,) = [action for action in cli_mod._build_parser()._actions if action.choices]
    missing = [
        f"{name} {action.option_strings[-1]}"
        for name, parser in commands.choices.items()
        for action in parser._actions
        if action.option_strings and not (action.help or "").strip()
    ]
    assert len(commands.choices) == 9
    assert missing == []
