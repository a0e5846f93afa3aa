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
from ._formats import load_json
from .address_map import build_mapping
from .errors import AdaptiveMerkleError
from .metrics import discrepancy_report
from .proofs import MerkleProof, prove, verification_cost, verify
from .restructure import (
    DEFAULT_MAX_ITERS,
    RestructureOutcome,
    _exchange_left,
    apply_best,
    enumerate_add_alternatives,
    optimize_swaps,
)
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
    leaves = [(key, None, p) for key, p in dist]
    tree = build_balanced(leaves, TreeConfig(args.arity))
    tree.save(args.out)
    return EXIT_OK


def _cmd_insert(args) -> int:
    tree = AdaptiveTree.load(args.snapshot)
    probs = dict(workload.normalize_distribution(workload.load_distribution_csv(args.probs)))
    alternatives = enumerate_add_alternatives(tree, args.key, probs)
    delta_before = discrepancy_report(tree).delta
    chosen = apply_best(tree, alternatives)
    outcome = RestructureOutcome(chosen, len(alternatives), delta_before, discrepancy_report(tree).delta)
    tree.save(args.out)
    sys.stdout.write(json.dumps(outcome.to_json_dict(), indent=2) + "\n")
    return EXIT_OK


def _cmd_optimize(args) -> int:
    tree = AdaptiveTree.load(args.snapshot)
    outcomes = optimize_swaps(tree, max_iters=args.max_iters)
    tree.save(args.out)
    sys.stdout.write(json.dumps([o.to_json_dict() for o in outcomes], indent=2) + "\n")
    # the cap, not convergence, ended the loop only if one more move is left
    if len(outcomes) == args.max_iters and _exchange_left(tree):
        sys.stderr.write(f"stopped at --max-iters {args.max_iters}\n")
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
    proof = MerkleProof.from_json_dict(load_json(args.proof, "proof"))
    expected_root = bytes.fromhex(args.root)
    payload = None if args.payload_hex is None else bytes.fromhex(args.payload_hex)
    if verify(proof, expected_root, args.arity, payload=payload):
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
    else:  # both trees' payloads are the keys' UTF-8 bytes
        balanced = build_balanced([(k, None, p) for k, p in normalized], TreeConfig(args.arity))
        build_mapping(balanced, coding.tree_from_codes(table)).save(args.out)
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

    p = sub.add_parser("optimize", help="exchange leaves or subtrees until no improvement remains")
    p.add_argument("--snapshot", required=True, help="input tree snapshot")
    p.add_argument("--max-iters", type=int, default=DEFAULT_MAX_ITERS, help="most moves (default %(default)s)")
    p.add_argument("--out", required=True, help="output snapshot path")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("metrics", help="print k_A, H, delta, and per-leaf discrepancies")
    p.add_argument("--snapshot", required=True, help="input tree snapshot")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("prove", help="membership proof for one leaf")
    p.add_argument("--snapshot", required=True, help="input tree snapshot")
    p.add_argument("--key", required=True, help="key of the leaf to prove")
    p.add_argument("--out", help="output proof JSON path (default stdout)")
    p.set_defaults(func=_cmd_prove)

    p = sub.add_parser("verify", help="check a proof against an expected root hash")
    p.add_argument("--proof", required=True, help="proof JSON file")
    p.add_argument("--root", required=True, help="expected root hash, hex")
    p.add_argument("--arity", type=int, default=2, help="the verifier's bound on children per node (default 2)")
    p.add_argument("--payload-hex",
                   help="leaf payload, hex: the proof must then also bind its key to this payload")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("encode", help="export Huffman codes or an address map as CSV")
    p.add_argument("--probs", required=True, help="distribution CSV")
    p.add_argument("--arity", type=int, default=2, help="tree arity m (default 2)")
    p.add_argument("--format", choices=["codes", "map"], default="codes", help="code table or address map CSV")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("bench", help="compare balanced/adaptive/huffman variants")
    p.add_argument("--dist", required=True, help="distribution CSV")
    p.add_argument("--arity", type=int, default=2, help="tree arity m (default 2)")
    p.add_argument("--modes", default="balanced,adaptive,huffman", help="comma-separated variants to compare")
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
