"""Per-layer counters for the benchmark's traced mode, taken from outside.

The library is not modified. For a traced run each callable listed below is
replaced in every namespace that holds it: its defining module, every
``adaptive_merkle`` module that imported it by name (``proofs.hash_internal``
is the same counter as ``tree.hash_internal``), and the class that defines a
method. Module globals are looked up at call time, so calls made inside the
library (``optimize_swaps`` calling ``enumerate_swap_alternatives``) are seen.

Each wrapper records calls, inclusive seconds and, when the result is a list,
the number of items returned. Counting happens only while ``enabled`` is
true, so the same installed wrappers serve an untraced and a traced phase.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "adaptive_merkle"

# layer (module name) -> public module-level functions to wrap: the ones the
# per-layer metrics name.
FUNCTIONS = {
    "tree": ("hash_leaf", "hash_internal"),
    "metrics": ("discrepancy_report",),
    "restructure": ("enumerate_add_alternatives", "enumerate_swap_alternatives", "optimize_swaps"),
    "coding": ("huffman_codes", "tree_from_codes"),
    "proofs": ("prove", "verify"),
    "address_map": ("build_mapping",),
    "workload": ("generate_trace", "estimate_probabilities"),
}

# layer -> (class defined in that module, public methods to wrap)
METHODS = {
    "tree": ("AdaptiveTree", ("depths", "split_leaf", "attach_leaf", "swap_leaves", "to_snapshot", "from_snapshot")),
    "proofs": ("MerkleProof", ("to_json_bytes", "from_json_dict")),
}

# Mutations whose internal-hash count gives ``tree.rehash_per_mutation``.
MUTATIONS = frozenset({"tree.split_leaf", "tree.attach_leaf", "tree.swap_leaves"})


class LayerTracer:
    """Installs counting wrappers; ``uninstall`` restores every original."""

    def __init__(self) -> None:
        self.enabled = False
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.items: defaultdict[str, int] = defaultdict(int)
        self.mutations = 0
        self.mutation_hashes = 0
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.seconds.clear()
        self.items.clear()
        self.mutations = 0
        self.mutation_hashes = 0

    def install(self) -> None:
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, names in FUNCTIONS.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for attr in names:
                original = getattr(home, attr)
                wrapper = self._wrap(f"{layer}.{attr}", original)
                for module in modules:
                    for holder_attr, value in list(vars(module).items()):
                        if value is original:
                            self._set(module, holder_attr, wrapper)
        for layer, (class_name, names) in METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{layer}"], class_name)
            for attr in names:
                raw = vars(cls)[attr]
                if isinstance(raw, classmethod):
                    self._set(cls, attr, classmethod(self._wrap(f"{layer}.{attr}", raw.__func__)))
                else:
                    self._set(cls, attr, self._wrap(f"{layer}.{attr}", raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _set(self, owner, attr: str, value) -> None:
        # vars() gives the raw descriptor (a classmethod stays a classmethod).
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        tracer = self
        calls, seconds, items = self.calls, self.seconds, self.items
        clock = time.perf_counter
        is_mutation = name in MUTATIONS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            hashes_before = calls["tree.hash_internal"]
            start = clock()
            result = fn(*args, **kwargs)
            seconds[name] += clock() - start
            calls[name] += 1
            if isinstance(result, list):
                items[name] += len(result)
            if is_mutation:
                tracer.mutations += 1
                tracer.mutation_hashes += calls["tree.hash_internal"] - hashes_before
            return result

        return wrapper
