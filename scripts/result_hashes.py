#!/usr/bin/env python3
"""Hash what the engine computes, to check that a change leaves results
bit-identical.

Prints one line per check, `name sha256[:16]`:
- each benchmark workload's first operation at seed 0, and `step_grads` for
  the two training workloads (`benchmark/workloads.py`, run in a temporary
  directory);
- a gradient `run_batch` of each model kind, recursive and iterative, on a
  mixed batch of 10 trees and on its 3-tree and 1-tree prefixes; row
  gradients hash as their `sums()`;
- the rows of one traced TreeLSTM d=8 gradient run: key, node id and label.

The `rdg` on the path is hashed, with the `benchmark/` next to its `src/`, so
two checkouts compare as

    PYTHONPATH=src python scripts/result_hashes.py > new.txt
    PYTHONPATH=/path/to/other/src python scripts/result_hashes.py > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import rdg  # first, so its BLAS thread settings precede numpy

import numpy as np

from rdg import RowGrads, RunOptions, Tensor, differentiate, run, run_batch
from rdg.data import generate_synthetic
from rdg.models import (
    MODEL_KINDS, ModelConfig, build_iterative, build_recursive, init_params, make_feeds,
)

# the mixed batch: (shape, leaves) per tree
TREES = [
    ("balanced", 8), ("linear", 6), ("moderate", 7), ("linear", 1), ("balanced", 4),
    ("moderate", 9), ("linear", 3), ("balanced", 2), ("moderate", 5), ("linear", 8),
]


def _feed(h, x):
    """Feed x's bytes, in a canonical form, to the hash h."""
    if isinstance(x, dict):
        for k in sorted(x):
            _feed(h, k)
            _feed(h, x[k])
    elif isinstance(x, (list, tuple)):
        h.update(f"[{len(x)}".encode())
        for v in x:
            _feed(h, v)
    elif isinstance(x, RowGrads):
        h.update(f"rows {x.rows}x{x.cols}".encode())
        _feed(h, x.sums())
    elif isinstance(x, Tensor):
        _feed(h, x.a)
    elif isinstance(x, np.ndarray):
        h.update(f"{x.dtype}{x.shape}".encode())
        h.update(np.ascontiguousarray(x).tobytes())
    elif isinstance(x, float):
        h.update(x.hex().encode())
    else:  # int, str, None
        h.update(repr(x).encode())


def _digest(x) -> str:
    h = hashlib.sha256()
    _feed(h, x)
    return h.hexdigest()[:16]


def workload_hashes():
    bench = Path(rdg.__file__).resolve().parents[2] / "benchmark"
    sys.path.insert(0, str(bench))
    sys.dont_write_bytecode = True  # leave no files under benchmark/
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory() as wd:
        for name, make in WORKLOADS.items():
            wl = make(0, Path(wd))
            wl.setup()
            yield name, wl.engine(wl.ops[0])
            if name.startswith("train-"):
                yield f"{name}.step_grads", wl.step_grads()


def _trees(n: int) -> list:
    rng = np.random.default_rng(3)
    return [generate_synthetic(shape, leaves, 10, 3, rng) for shape, leaves in TREES[:n]]


def gradient_hashes():
    for kind in MODEL_KINDS:
        cfg = ModelConfig(kind, d=8, vocab=11, classes=3, per_node_loss=True)
        trees = _trees(10)
        params = init_params(cfg, seed=7, scale=0.5)
        for mode in ("recursive", "iterative"):
            if mode == "recursive":
                model = build_recursive(cfg)
            else:
                model = build_iterative(cfg, max(t.n_nodes for t in trees))
            g, gm = differentiate(model.graph, model.loss, list(model.params.values()))
            fetches = [gm.loss] + [gm.param_grads[n] for n in gm.param_order]
            feeds = [make_feeds(model, t) for t in trees]
            for k in (10, 3, 1):
                results = run_batch(g, feeds[:k], fetches, RunOptions(), params)
                yield f"{kind}.{mode}.batch{k}", [r.values for r in results]


def trace_hash():
    cfg = ModelConfig("treelstm", d=8, vocab=11, classes=3, per_node_loss=True)
    model = build_recursive(cfg)
    g, gm = differentiate(model.graph, model.loss, list(model.params.values()))
    fetches = [gm.loss] + [gm.param_grads[n] for n in gm.param_order]
    (tree,) = _trees(1)
    params = init_params(cfg, seed=7)
    res = run(g, make_feeds(model, tree), fetches, RunOptions(trace=True), params)
    yield "treelstm.d8.trace", [(key, nid, label) for _, _, key, nid, label in res.trace]


def main() -> int:
    for checks in (workload_hashes(), gradient_hashes(), trace_hash()):
        for name, value in checks:
            print(name, _digest(value), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
