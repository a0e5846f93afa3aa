"""Command-line interface over snapshot, proof, and distribution files.

Exit codes: 0 success, 1 usage error, 2 validation error (bad snapshot,
distribution, or file format), 3 verification failure. Diagnostics go to
stderr; data goes to stdout or the ``--out`` file. Input files are never
modified in place.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bench as bench_mod
from . import coding, workload
from .address_map import build_mapping
from .errors import AdaptiveMerkleError
from .metrics import discrepancy_report
from .proofs import MerkleProof, prove, verification_cost, verify
from .restructure import DEFAULT_MAX_ITERS, apply_best, enumerate_add_alternatives, optimize_swaps
from .tree import AdaptiveTree, TreeConfig, build_balanced

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_VERIFY_FAILED = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse calls .error() (then sys.exit(2)) on bad usage; route it to
    # our own exit code instead.
    def error(self, message):
        raise _UsageError(message)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_build(args) -> int:
    dist = workload.normalize_distribution(workload.load_distribution_csv(args.probs))
    leaves = [(key, key.encode("utf-8"), p) for key, p in dist]
    tree = build_balanced(leaves, TreeConfig(args.arity))
    tree.save(args.out)
    return EXIT_OK


def _cmd_insert(args) -> int:
    tree = AdaptiveTree.load(args.snapshot)
    probs = dict(workload.normalize_distribution(workload.load_distribution_csv(args.probs)))
    alternatives = enumerate_add_alternatives(tree, args.key, probs)
    outcome = apply_best(tree, alternatives)
    tree.save(args.out)
    sys.stdout.write(json.dumps(outcome.to_json_dict(), indent=2) + "\n")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    tree = AdaptiveTree.load(args.snapshot)
    outcomes = optimize_swaps(tree, max_iters=args.max_iters)
    tree.save(args.out)
    sys.stdout.write(json.dumps([o.to_json_dict() for o in outcomes], indent=2) + "\n")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    tree = AdaptiveTree.load(args.snapshot)
    report = discrepancy_report(tree)
    _emit(json.dumps(report.to_json_dict(), indent=2) + "\n", args.out)
    return EXIT_OK


def _cmd_prove(args) -> int:
    tree = AdaptiveTree.load(args.snapshot)
    proof = prove(tree, args.key)
    cost = verification_cost(proof)
    _emit(proof.to_json_bytes().decode("utf-8") + "\n", args.out)
    sys.stderr.write(f"steps={cost.hash_invocations} proof_bytes={cost.proof_bytes}\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    with open(args.proof, "r", encoding="utf-8") as fh:
        proof = MerkleProof.from_json_dict(json.load(fh))
    expected_root = bytes.fromhex(args.root)
    if verify(proof, expected_root, args.arity):
        sys.stderr.write("proof OK\n")
        return EXIT_OK
    sys.stderr.write("proof does NOT match the expected root\n")
    return EXIT_VERIFY_FAILED


def _cmd_encode(args) -> int:
    dist = workload.load_distribution_csv(args.probs)
    normalized = workload.normalize_distribution(dist)
    table = coding.huffman_codes(dict(normalized), args.arity)
    if args.format == "codes":
        coding.export_csv(table, args.out)
    else:
        payloads = {key: key.encode("utf-8") for key, _ in normalized}
        balanced = build_balanced([(k, payloads[k], p) for k, p in normalized], TreeConfig(args.arity))
        adaptive = coding.tree_from_codes(table, payloads)
        build_mapping(balanced, adaptive).save(args.out)
    return EXIT_OK


def _cmd_bench(args) -> int:
    dist = workload.load_distribution_csv(args.dist)
    modes = [mode.strip() for mode in args.modes.split(",") if mode.strip()]
    report = bench_mod.run_bench(dist, args.arity, modes)
    bench_mod.write_variants_csv(report, args.out)
    return EXIT_OK


def _cmd_replay(args) -> int:
    script = bench_mod.load_script(args.script)
    result = bench_mod.replay_iterations(script)
    bench_mod.write_iterations_csv(result.records, args.out)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="adaptive-merkle", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a balanced tree snapshot from a distribution CSV")
    p.add_argument("--probs", required=True,
                   help="distribution CSV (key,probability); values are normalized to sum 1")
    p.add_argument("--arity", type=int, default=2, help="tree arity m (default 2)")
    p.add_argument("--out", required=True, help="output snapshot path")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("insert", help="one add-leaf iteration under a new distribution")
    p.add_argument("--snapshot", required=True, help="input tree snapshot")
    p.add_argument("--key", required=True, help="key of the new leaf")
    p.add_argument("--probs", required=True,
                   help="new full distribution CSV (key,probability); values are normalized to sum 1")
    p.add_argument("--out", required=True, help="output snapshot path")
    p.set_defaults(func=_cmd_insert)

    p = sub.add_parser("optimize", help="swap iterations until no improvement remains")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("metrics", help="print k_A, H, delta, and per-leaf discrepancies")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("prove", help="membership proof for one leaf")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--key", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("verify", help="check a proof against an expected root hash")
    p.add_argument("--proof", required=True, help="proof JSON file")
    p.add_argument("--root", required=True, help="expected root hash, hex")
    p.add_argument("--arity", type=int, default=2)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("encode", help="export Huffman codes or an address map as CSV")
    p.add_argument("--probs", required=True, help="distribution CSV")
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--format", choices=["codes", "map"], default="codes")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("bench", help="compare balanced/adaptive/huffman variants")
    p.add_argument("--dist", required=True, help="distribution CSV")
    p.add_argument("--arity", type=int, default=2)
    p.add_argument("--modes", default="balanced,adaptive,huffman")
    p.add_argument("--out", required=True, help="variants CSV output")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("replay", help="run an iteration script and emit audit rows")
    p.add_argument("--script", required=True, help="iteration script JSON")
    p.add_argument("--out", required=True, help="iterations CSV output")
    p.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return EXIT_USAGE
    try:
        return args.func(args)
    except (AdaptiveMerkleError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_VALIDATION


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
