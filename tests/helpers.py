"""Shared generators for randomized suites. All randomness is seeded."""

from __future__ import annotations

import hashlib
import json
import math
import random
import struct
from fractions import Fraction
from pathlib import Path

from adaptive_merkle import (
    AdaptiveTree,
    MerkleProof,
    TreeConfig,
    build_balanced,
    huffman_codes,
    optimize_swaps,
    prove,
    tree_from_codes,
)
from adaptive_merkle._formats import float_sum
from adaptive_merkle.address_map import build_mapping
from adaptive_merkle.cli import main
from adaptive_merkle.coding import CODE_ALPHABET
from adaptive_merkle.errors import DuplicateKeyError, MalformedProofError, ProbabilityError, StructureError
from adaptive_merkle.proofs import ProofStep
from adaptive_merkle.restructure import Alternative
from adaptive_merkle.tree import PROB_SUM_TOL, check_probabilities, hash_internal, hash_leaf
from adaptive_merkle.workload import zipf_distribution


def random_distribution(rng: random.Random, n: int) -> dict[str, float]:
    weights = [rng.random() + 1e-3 for _ in range(n)]
    total = sum(weights)
    return {f"k{i:03d}": w / total for i, w in enumerate(weights)}


# Top-level snapshot edits that must raise FormatError, as (field, value):
# "arity" sits under "config", "p_A" is leaf A's probability, and the value
# MISSING deletes the field.
MISSING = object()

MALFORMED_TOP_LEVEL = [
    ("arity", 2.7),
    ("arity", "2"),
    ("arity", True),
    ("nodes", None),
    ("nodes", {}),
    ("root_id", []),
    ("root_id", 1),
    ("probabilities", []),
    ("probabilities", None),
    ("p_A", None),
    ("p_A", "0.25"),
    ("p_A", True),
    ("p_A", 10**400),
    ("config", MISSING),
    ("nodes", MISSING),
    ("root_id", MISSING),
    ("probabilities", MISSING),
]


def malform(snapshot: dict, field: str, value) -> dict:
    """``snapshot`` with one MALFORMED_TOP_LEVEL edit applied in place."""
    if field == "arity":
        snapshot["config"]["arity"] = value
    elif field == "p_A":
        snapshot["probabilities"]["A"] = value
    elif value is MISSING:
        del snapshot[field]
    else:
        snapshot[field] = value
    return snapshot


# Iteration-script edits that must raise FormatError, as (field, value):
# "p_A" is leaf A's initial probability, "probs" the whole initial map (the
# script's leaves are A and B), "step_p_A" A's probability in the first
# step, and "new_key"/"swap_iters" sit in that step too; "leaf_key" renames
# initial leaf B in both the leaf list and the initial map, "step_key"
# renames B in the first step's map; the value MISSING deletes a top-level
# field.
MALFORMED_SCRIPT = [
    ("arity", 2.7),
    ("arity", "2"),
    ("arity", True),
    ("leaves", [1, 2]),
    ("leaves", ["A", None]),
    ("leaves", "AB"),
    ("p_A", "0.5"),
    ("p_A", True),
    ("p_A", 10**400),
    ("step_p_A", "0.5"),
    ("step_p_A", True),
    ("new_key", 3),
    ("new_key", ["C"]),
    ("swap_iters", "3"),
    ("swap_iters", 1.5),
    ("swap_iters", -1),
    ("swap_iters", True),
    ("probs", {"A": 1.0}),
    ("probs", {"A": 0.875, "B": 0.125, "Z": 0.0}),
    ("steps", MISSING),
    ("leaf_key", "\udc00"),
    ("step_key", "\udc00"),
    ("new_key", "\udc00"),
]


def malform_script(script: dict, field: str, value) -> dict:
    """``script`` with one MALFORMED_SCRIPT edit applied in place."""
    if field == "arity":
        script["arity"] = value
    elif field == "leaves":
        script["initial"]["leaves"] = value
    elif field == "p_A":
        script["initial"]["probs"]["A"] = value
    elif field == "probs":
        script["initial"]["probs"] = value
    elif field == "step_p_A":
        script["steps"][0]["probs"]["A"] = value
    elif field == "leaf_key":
        initial = script["initial"]
        initial["leaves"] = [value if key == "B" else key for key in initial["leaves"]]
        initial["probs"][value] = initial["probs"].pop("B")
    elif field == "step_key":
        probs = script["steps"][0]["probs"]
        probs[value] = probs.pop("B")
    elif value is MISSING:
        del script[field]
    else:
        script["steps"][0][field] = value
    return script


def split_digests(blob: bytes) -> list[bytes]:
    """A proof step's joined sibling bytes as a list of 32-byte digests;
    ``b"".join`` puts them back together."""
    return [blob[i:i + 32] for i in range(0, len(blob), 32)]


def old_readable_view(proof: MerkleProof, form: str) -> dict:
    """A proof in the retired readable JSON view, ``{key, leaf_hash_hex,
    steps}``, with each step's siblings in one of the forms they once had:
    "joined-hex" is one hex string, "hex-list" a list of hex digests and
    "index-objects" a list of index/hash_hex objects."""
    steps = []
    for position, siblings in proof.steps:
        hexes = [digest.hex() for digest in split_digests(siblings)]
        if form == "index-objects":
            indices = [i for i in range(len(hexes) + 1) if i != position]
            hexes = [{"index": i, "hash_hex": h} for i, h in zip(indices, hexes)]
        steps.append({"position": position, "siblings": siblings.hex() if form == "joined-hex" else hexes})
    return {"key": proof.key, "leaf_hash_hex": proof.leaf_hash.hex(), "steps": steps}


def reference_fields(tree: AdaptiveTree, key: str) -> tuple[str, bytes, tuple[ProofStep, ...]]:
    """A proof's key, leaf hash and steps, gathered one child hash at a time
    through node views and joined per step: the oracle for ``prove``, which
    writes the wire straight from the parents' stored preimages."""
    leaf = tree.leaf_node(key)
    steps = []
    nid = leaf.node_id
    while nid != tree.root_id:
        parent = tree.node(tree.parent_id(nid))
        position = parent.children.index(nid)
        siblings = [tree.node(cid).hash for cid in parent.children]
        del siblings[position]
        steps.append(ProofStep(position, b"".join(siblings)))
        nid = parent.node_id
    return key, leaf.hash, tuple(steps)


def reference_prove(tree: AdaptiveTree, key: str) -> MerkleProof:
    """The proof built from :func:`reference_fields` by the field constructor."""
    return MerkleProof(*reference_fields(tree, key))


def fresh_proof_wires(tree: AdaptiveTree) -> dict[str, bytes]:
    """Every leaf's proof wire from hashes computed afresh: one root-down
    walk over ``_children``, then each node hashed from its key and payload
    or its children's fresh digests by a one-shot ``hashlib`` call, and each
    step joined from those. It reads neither the stored hashes nor the
    stored preimages (``_child_digests``) nor the memoized proof steps
    (``_step``): the oracle for ``prove``, at any state of the tree."""
    children_of, keys, payloads = tree._children, tree._key, tree._payload
    preorder, stack = [], [tree.root_id]
    while stack:
        nid = stack.pop()
        preorder.append(nid)
        stack.extend(children_of[nid] or ())
    digest = {}
    for nid in reversed(preorder):  # children before parents
        children = children_of[nid]
        data = (b"\x00" + keys[nid].encode() + payloads[nid] if children is None
                else b"\x01" + b"".join(digest[cid] for cid in children))
        digest[nid] = hashlib.sha256(data).digest()
    above, wires = {tree.root_id: b""}, {}  # a node's steps, from its own up to the root
    for nid in preorder:  # parents before children
        children = children_of[nid]
        if children is None:
            key = keys[nid].encode()
            wires[keys[nid]] = b"\x01" + len(key).to_bytes(4, "big") + key + digest[nid] + above[nid]
            continue
        for position, cid in enumerate(children):
            siblings = b"".join(digest[other] for other in children if other != cid)
            above[cid] = struct.pack(">HH", position, len(children) - 1) + siblings + above[nid]
    return wires


def memo_entries(tree: AdaptiveTree) -> list[bytes]:
    """The proof steps the tree holds memoized."""
    return [step for step in tree._step if step]


def old_from_json_dict(data) -> MerkleProof:
    """``MerkleProof.from_json_dict`` as it read before it decoded the hex
    once, through ``bytes.fromhex`` and a re-encoding compared with the
    text: the oracle for the reader's accepted set and its errors."""
    try:
        if not isinstance(data, dict) or len(data) != 1 or "wire_hex" not in data:
            raise ValueError(f"need exactly one field, wire_hex, and no unknown ones: {data!r:.80}")
        text = data["wire_hex"]
        wire = bytes.fromhex(text)  # TypeError for a value that is no str
        if wire.hex() != text:  # one reading per proof: no uppercase, no whitespace
            raise ValueError(f"non-canonical wire_hex {text!r:.80}")
    except (TypeError, ValueError) as exc:
        raise MalformedProofError(f"unparseable proof: {exc}") from None
    return MerkleProof.from_bytes(wire)


def random_tree(rng: random.Random, n: int, m: int, probs: dict[str, float] | None = None) -> AdaptiveTree:
    """Random valid tree over n leaves built from seeded splits and attaches."""
    if probs is None:
        probs = random_distribution(rng, n)
    keys = sorted(probs)
    tree = build_balanced([(keys[0], keys[0].encode(), 1.0)], TreeConfig(m))
    for key in keys[1:]:
        open_nodes = open_internal_ids(tree)
        if open_nodes and rng.random() < 0.5:
            tree.attach_leaf(rng.choice(open_nodes), key, key.encode())
        else:
            tree.split_leaf(rng.choice(tree.leaf_keys()), key, key.encode())
    tree.set_probabilities(probs)
    return tree


def node_ids(tree: AdaptiveTree) -> range:
    """Every node id of the tree: 1..K, slot 0 of its per-node lists
    holding no node."""
    return range(1, len(tree._children))


def apply_ops(tree, ops, check=None):
    """Apply (kind, i, j) ops, choosing targets by index modulo the current
    leaves, open nodes or non-root internal nodes; calls ``check(tree)``
    after each one and returns the last tree. After "snapshot" or "clone"
    the ops go on with a tree loaded from the snapshot or a clone;
    "recompute" appends a byte to a leaf payload, written straight into the
    tree's private payload list since node views are read-only, and
    rehashes the whole tree; "swap_nodes" exchanges an internal node with
    any node it does not nest with; "move" moves a node whose parent keeps two children into an
    open node outside its subtree; "probabilities" sets a distribution of
    small integer weights; "optimize" runs ``optimize_swaps``; "root" and
    "prove" only read. A new leaf is named after the node count, so keys
    stay unique however the ops are split across calls."""
    for kind, i, j in ops:
        keys = tree.leaf_keys()
        open_nodes = open_internal_ids(tree)
        new_key = f"x{len(node_ids(tree)):03d}"
        if kind == "snapshot":
            tree = AdaptiveTree.from_snapshot(json.loads(json.dumps(tree.to_snapshot())))
        elif kind == "clone":
            tree = tree.clone()
        elif kind == "recompute":
            tree._payload[tree.leaf_node(keys[i % len(keys)]).node_id] += bytes([j % 256])
            tree.recompute_all_hashes()
        elif kind == "root":
            tree.root_hash()
        elif kind == "prove":
            prove(tree, keys[i % len(keys)])
        elif kind == "optimize":
            optimize_swaps(tree)
        elif kind == "swap_nodes":
            inner = [nid for nid in node_ids(tree) if not tree.node(nid).is_leaf and nid != tree.root_id]
            movable = [nid for nid in node_ids(tree) if nid != tree.root_id]
            if not inner:
                continue
            a, b = inner[i % len(inner)], movable[j % len(movable)]
            if a in root_path(tree, b) or b in root_path(tree, a):
                continue
            tree.swap_nodes(a, b)
        elif kind == "move":
            movable = [nid for nid in node_ids(tree)
                       if nid != tree.root_id and len(tree.node(tree.parent_id(nid)).children) > 2]
            if not (movable and open_nodes):
                continue
            u, target = movable[i % len(movable)], open_nodes[j % len(open_nodes)]
            if target == tree.parent_id(u) or u in root_path(tree, target):
                continue
            tree.move_node(u, target)
        elif kind == "probabilities":
            weights = [(i + j * n) % 5 for n in range(len(keys))]
            weights[i % len(keys)] += 1  # a positive total
            tree.set_probabilities({key: w / sum(weights) for key, w in zip(keys, weights)})
        elif kind == "attach" and open_nodes:
            tree.attach_leaf(open_nodes[i % len(open_nodes)], new_key, b"x")
        elif kind == "swap" and len(keys) >= 2:
            a, b = keys[i % len(keys)], keys[j % len(keys)]
            if a == b:
                continue
            tree.swap_leaves(a, b)
        else:
            tree.split_leaf(keys[i % len(keys)], new_key, b"x")
        if check is not None:
            check(tree)
    return tree


def children_of(tree: AdaptiveTree) -> dict[int, tuple[int, ...]]:
    """Every internal node's children, as tuples."""
    views = map(tree.node, node_ids(tree))
    return {view.node_id: view.children for view in views if not view.is_leaf}


def changed_parents(before: dict[int, tuple[int, ...]], tree: AdaptiveTree) -> set[int]:
    """The nodes of ``before``, a ``children_of`` map, whose children
    ``tree`` now lists otherwise."""
    after = children_of(tree)
    return {nid for nid, children in before.items() if after[nid] != children}


def root_path(tree: AdaptiveTree, node_id: int | None) -> list[int]:
    """node_id and every node above it, found by climbing parent pointers."""
    path = []
    while node_id is not None:
        path.append(node_id)
        node_id = tree.parent_id(node_id)
    return path


def random_full_tree(rng: random.Random, levels: int, m: int) -> AdaptiveTree:
    """Tree where every internal node has exactly m children (Kraft sum = 1).

    Grown by repeatedly replacing a random leaf with a full fan-out; leaf
    count is 1 + levels * (m - 1).
    """
    counter = [0]

    def next_key() -> str:
        counter[0] += 1
        return f"k{counter[0]:03d}"

    first = next_key()
    tree = build_balanced([(first, first.encode(), 1.0)], TreeConfig(m))
    for _ in range(levels):
        target = rng.choice(tree.leaf_keys())
        tree.split_leaf(target, next_key(), b"")
        parent = tree.parent_id(tree.leaf_node(target).node_id)
        for _ in range(m - 2):
            tree.attach_leaf(parent, next_key(), b"")
    keys = tree.leaf_keys()
    tree.set_probabilities({k: 1.0 / len(keys) for k in keys})
    return tree


def dyadic_distribution(rng: random.Random, tree: AdaptiveTree) -> dict[str, float]:
    """p_i = m ** -depth_i; sums to 1 exactly when the tree is full."""
    m = tree.config.arity
    return {key: float(m) ** -depth for key, depth in tree.depths().items()}


def walked_depths(tree: AdaptiveTree) -> dict[str, int]:
    """Leaf depths from a root-down walk over the children lists: the oracle
    for the depth index the tree keeps."""
    out: dict[str, int] = {}
    stack = [(tree.root_id, 0)]
    while stack:
        nid, depth = stack.pop()
        node = tree.node(nid)
        if node.is_leaf:
            out[node.key] = depth
        else:
            stack.extend((cid, depth + 1) for cid in node.children)
    return out


# Plain functions the tests use as oracles; the library itself has no use
# for them.


def reference_check_probabilities(probs) -> None:
    """The probability validator without its early accept: the
    ``float_sum`` total, the per-key loop and the sum check, the oracle for
    ``check_probabilities``."""
    total = float_sum(probs.values())
    if not (math.isfinite(total) and min(probs.values(), default=0.0) >= 0.0):
        for key, p in probs.items():
            if not math.isfinite(p):
                raise ProbabilityError(f"non-finite probability {p!r} for key {key!r}")
            if p < 0.0:
                raise ProbabilityError(f"negative probability {p!r} for key {key!r}")
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise ProbabilityError(f"probabilities sum to {total!r}, expected 1 +/- {PROB_SUM_TOL}")


def open_internal_ids(tree: AdaptiveTree) -> list[int]:
    """Internal nodes with fewer than m children, in preorder."""
    m = tree.config.arity
    out: list[int] = []
    stack = [tree.root_id]
    while stack:
        node = tree.node(stack.pop())
        if node.children is not None:
            if len(node.children) < m:
                out.append(node.node_id)
            stack.extend(reversed(node.children))
    return out


def kraft_sum(tree: AdaptiveTree) -> float:
    m = tree.config.arity
    return sum(m**-d for d in tree.depths().values())


def delta_by_key(report) -> dict[str, float]:
    """Per-leaf discrepancy of a ``MetricsReport``, by key."""
    return {stats.key: stats.delta_i for stats in report.per_leaf}


def length_multiset(table) -> list[int]:
    """Sorted code lengths of a ``CodeTable``."""
    return sorted(len(code) for code in table.entries.values())


def shape_codes(shape) -> dict:
    """Each key's code in a nested shape, as the tuple of child indices on
    its root path, by a walk of its own."""
    codes, stack = {}, [(shape, ())]
    while stack:
        node, code = stack.pop()
        if isinstance(node, str):
            codes[node] = code
        else:
            stack.extend((child, code + (i,)) for i, child in enumerate(node))
    return codes


def check_prefix_code(codes, m: int) -> None:
    """Assert that codes (strings or tuples of digits) are prefix-free, pair
    by pair, and that their Kraft sum in base m, added exactly, is at most 1."""
    codes = list(codes)
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            assert i == j or b[: len(a)] != a, f"codes {a!r} and {b!r} are not prefix-free"
    kraft = sum(Fraction(1, m ** len(code)) for code in codes)
    assert kraft <= 1, f"Kraft sum {float(kraft)!r} exceeds 1"


def check_code_table(table) -> None:
    """Assert that a ``CodeTable``'s shape is a prefix code at its arity, and
    that ``entries`` spells it in ``CODE_ALPHABET`` or, exactly when some
    node has more than 36 children, raises ``StructureError``."""
    codes = shape_codes(table.shape)
    check_prefix_code(codes.values(), table.arity)
    if all(i < len(CODE_ALPHABET) for code in codes.values() for i in code):
        assert table.entries == {key: "".join(CODE_ALPHABET[i] for i in code) for key, code in codes.items()}
    else:
        try:
            table.entries
        except StructureError as exc:
            assert "exceeds the code alphabet" in str(exc), exc
        else:
            raise AssertionError("entries spelled a node wider than the code alphabet")


def average_adaptive_length(table) -> float:
    """sum(p * len(adaptive_code)) over an ``AddressTable``."""
    return sum(r.probability * len(r.adaptive_code) for r in table.records)


def min_avg_length_for_depths(depths, probs) -> float:
    """Best assignment of the given depth multiset: big p onto small l."""
    return sum(p * d for p, d in zip(sorted(probs, reverse=True), sorted(depths), strict=True))


def reference_add_alternatives(tree, new_key, new_probs, new_payload=None) -> list:
    """Add mode from one preorder walk over every node: the oracle for
    ``enumerate_add_alternatives``, which reads the tree's depth index
    instead. The walk gives each leaf's key and depth and each open node's
    depth and smallest leaf key; base k_A is summed over the leaves in key
    order, as add mode sums it, so the scores match bit for bit."""
    m, nodes = tree.config.arity, {nid: tree.node(nid) for nid in node_ids(tree)}
    leaves, open_nodes, preorder = [], [], []
    stack = [(tree.root_id, 0)]
    while stack:
        nid, depth = stack.pop()
        children = nodes[nid].children
        if children is None:
            leaves.append((nodes[nid].key, depth))
            continue
        preorder.append((nid, depth))
        if len(children) < m:
            open_nodes.append((nid, depth))
        stack += [(cid, depth + 1) for cid in reversed(children)]
    min_key: dict[int, str] = {}
    for nid, _ in reversed(preorder):
        min_key[nid] = min(min_key[cid] if cid in min_key else nodes[cid].key for cid in nodes[nid].children)
    depths = dict(leaves)
    if new_key in depths:
        raise DuplicateKeyError(f"leaf key {new_key!r} already present")
    expected = set(depths) | {new_key}
    if set(new_probs) != expected:
        raise ProbabilityError(
            f"probability keys do not match tree leaves "
            f"(missing {sorted(expected - set(new_probs))}, extra {sorted(set(new_probs) - expected)})"
        )
    check_probabilities(new_probs)
    if new_payload is None:
        new_payload = new_key.encode("utf-8")
    h = -float_sum(p * (math.log2(p) / math.log2(m)) for p in new_probs.values() if p > 0.0)
    base_k = float_sum(new_probs[key] * depths[key] for key in sorted(depths))
    p_new = new_probs[new_key]
    probs = {k: float(v) for k, v in new_probs.items()}
    alternatives = [
        Alternative("attach", (nid,), base_k + p_new * (depth + 1) - h, (min_key[nid],), new_key, new_payload, probs)
        for nid, depth in open_nodes
    ]
    alternatives += [
        Alternative("split", (key,), base_k + new_probs[key] + p_new * (depths[key] + 1) - h, (key,),
                    new_key, new_payload, probs)
        for key in sorted(depths)
    ]
    return alternatives


# CLI build and encode goldens: (distribution name, fixture CSV, arity)
BUILD_AND_ENCODE_RUNS = [
    ("demo16", "demo16.csv", 2),
    ("demo16", "demo16.csv", 16),
    ("hexary20", "hexary20_distribution.csv", 16),
]


def write_build_and_encode_outputs(fixtures, directory) -> list[str]:
    """Run CLI ``build``, ``encode --format codes`` and ``encode --format map``
    on each of ``BUILD_AND_ENCODE_RUNS``, writing ``build_<dist>_m<m>.snapshot.json``,
    ``codes_<dist>_m<m>.csv`` and ``map_<dist>_m<m>.csv`` into ``directory``;
    returns the file names."""
    names = []
    for dist, csv_name, m in BUILD_AND_ENCODE_RUNS:
        probs = str(Path(fixtures) / csv_name)
        for name, args in [
            (f"build_{dist}_m{m}.snapshot.json", ["build"]),
            (f"codes_{dist}_m{m}.csv", ["encode", "--format", "codes"]),
            (f"map_{dist}_m{m}.csv", ["encode", "--format", "map"]),
        ]:
            if main([*args, "--probs", probs, "--arity", str(m), "--out", str(Path(directory) / name)]) != 0:
                raise RuntimeError(f"CLI {args[0]} failed for {name}")
            names.append(name)
    return names


def write_seeded_zipf_outputs(directory, n: int, m: int, seed: int) -> None:
    """Write ``map.csv`` (the address map) and ``snapshot.json`` (the Huffman
    tree) into ``directory`` for a seeded Zipf(1.1) over n keys, built as
    CLI ``encode --format map`` builds them: ``huffman_codes``,
    ``tree_from_codes``, ``build_balanced`` and ``build_mapping``. Keys are
    shuffled onto the ranks and payloads drawn from ``seed``."""
    rng = random.Random(seed)
    keys = [f"k{i:05d}" for i in range(n)]
    rng.shuffle(keys)
    dist = list(zip(keys, zipf_distribution(n, 1.1)))
    payloads = {key: rng.randbytes(32) for key in keys}
    adaptive = tree_from_codes(huffman_codes(dict(dist), m), payloads)
    balanced = build_balanced([(key, payloads[key], p) for key, p in dist], TreeConfig(m))
    build_mapping(balanced, adaptive).save(Path(directory) / "map.csv")
    adaptive.save(Path(directory) / "snapshot.json")


# (name, key, payload) of each leaf vector in fixtures/vectors.json
LEAF_VECTORS = [
    ("ascii key", "A", b"A"),
    ("multi-byte UTF-8 key", "clé-木-\U0001f333", b"\x00\xff"),
    ("empty payload", "k", b""),
    ("key ab, payload c: the same preimage as the next vector", "ab", b"c"),
    ("key a, payload bc: the same preimage as the previous vector", "a", b"bc"),
]
# (tree, leaf keys to prove) of each proof vector; payloads are the keys' UTF-8 bytes
PROOF_VECTORS = [("binary_demo_tree", ["A", "G"]), ("quad_demo_tree", ["A", "E"])]


def encoding_vectors(trees: dict[str, AdaptiveTree]) -> dict:
    """The contents of ``fixtures/vectors.json``, from the library's own
    ``hash_leaf``, ``hash_internal`` and ``prove(...).to_bytes()`` on the
    conftest demo trees (``trees`` maps each fixture name to its tree)."""
    leaf = [
        {"name": name, "key": key, "payload_hex": payload.hex(),
         "preimage_hex": (b"\x00" + key.encode("utf-8") + payload).hex(),
         "digest_hex": hash_leaf(key, payload).hex()}
        for name, key, payload in LEAF_VECTORS
    ]
    binary, quad = trees["binary_demo_tree"], trees["quad_demo_tree"]
    internal = []
    for name, tree, nid in [
        ("two children: A and H of binary_demo_tree", binary, binary.parent_id(binary.leaf_node("A").node_id)),
        ("three children: B, E and F of quad_demo_tree", quad, quad.parent_id(quad.leaf_node("E").node_id)),
        ("four children: the root of quad_demo_tree", quad, quad.root_id),
    ]:
        tree.root_hash()
        children = [tree.node(cid).hash for cid in tree.node(nid).children]
        internal.append({"name": name, "children_hex": [c.hex() for c in children],
                         "preimage_hex": (b"\x01" + b"".join(children)).hex(),
                         "digest_hex": hash_internal(children).hex()})
    proofs = [
        {"tree": name, "arity": trees[name].config.arity, "key": key, "payload_hex": key.encode("utf-8").hex(),
         "root_hex": trees[name].root_hash().hex(), "wire_hex": prove(trees[name], key).to_bytes().hex()}
        for name, keys in PROOF_VECTORS
        for key in keys
    ]
    return {"leaf": leaf, "internal": internal, "proofs": proofs}
