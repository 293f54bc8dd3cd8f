"""Benchmark suites: throughput vs tree shape, input scaling, thread scaling.

Measurement protocol: every configuration gets warmup runs (excluded) and
then timed runs; a "run" is one batch of instances executed together by
`run_batch`, timed from submission to completion. Medians are the headline
number (schedulers have long tails; p95 is reported alongside). Magnitudes
are machine-bound — the meaningful outputs are orderings and ratios across
configurations measured back to back on the same machine.
"""

from __future__ import annotations

import csv
import logging
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import TreeInstance, generate_synthetic
from .executor import RunOptions, run_batch
from .models import BuiltModel, ModelConfig, build_model, init_params, make_feeds

log = logging.getLogger("rdg.bench")

BENCH_HEADER = (
    "model", "mode", "suite", "shape", "batch", "threads",
    "n_instances", "instances_per_s", "mean_ms", "median_ms", "p95_ms",
)

SCALING_SIZES = (15, 31, 63, 127, 255, 511)
THREAD_COUNTS = (1, 2, 4, 8)
SHAPES = ("balanced", "moderate", "linear")


@dataclass(frozen=True)
class BenchRow:
    model: str
    mode: str
    suite: str
    shape: str
    batch: int
    threads: int
    n_instances: int
    instances_per_s: float
    mean_ms: float
    median_ms: float
    p95_ms: float


def write_bench_csv(path: str | Path, rows: list[BenchRow]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(BENCH_HEADER)
        for r in rows:
            w.writerow(
                [r.model, r.mode, r.suite, r.shape, r.batch, r.threads,
                 r.n_instances, repr(r.instances_per_s), repr(r.mean_ms),
                 repr(r.median_ms), repr(r.p95_ms)]
            )


def read_bench_csv(path: str | Path) -> list[BenchRow]:
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = tuple(next(r))
        if header != BENCH_HEADER:
            raise ValueError(f"unexpected bench header {header!r}")
        return [
            BenchRow(m, mo, su, sh, int(b), int(t), int(n),
                     float(ips), float(me), float(md), float(p))
            for m, mo, su, sh, b, t, n, ips, me, md, p in r
        ]


def write_trace_csv(path: str | Path, trace: list) -> None:
    """Per-node execution trace rows: timestamp_us, worker_id, key, node_id, op_kind."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(("timestamp_us", "worker_id", "key", "node_id", "op_kind"))
        for row in trace:
            w.writerow(row)


def _measure(
    model: BuiltModel,
    trees: list[TreeInstance],
    params,
    batch: int,
    threads: int,
    warmup: int,
    runs: int,
) -> list[float]:
    """Per-run wall seconds over `runs` timed batches (after `warmup`)."""
    opts = RunOptions(threads=threads)
    feed_pool = [make_feeds(model, t) for t in trees]
    times = []
    for i in range(warmup + runs):
        feed_list = [feed_pool[(i * batch + j) % len(feed_pool)] for j in range(batch)]
        t0 = time.monotonic()
        run_batch(model.graph, feed_list, [model.loss], opts, params)
        dt = time.monotonic() - t0
        if i >= warmup:
            times.append(dt)
    return times


def _row(model_kind, mode, suite, shape, batch, threads, times) -> BenchRow:
    med = statistics.median(times)
    n_instances = batch * len(times)
    return BenchRow(
        model=model_kind,
        mode=mode,
        suite=suite,
        shape=shape,
        batch=batch,
        threads=threads,
        n_instances=n_instances,
        instances_per_s=batch / med if med > 0 else 0.0,
        mean_ms=1e3 * statistics.fmean(times),
        median_ms=1e3 * med,
        p95_ms=1e3 * float(np.quantile(times, 0.95)),
    )


def bench_balancedness(
    kind: str = "treernn",
    modes: tuple[str, ...] = ("recursive",),
    d: int = 16,
    leaves: int = 64,
    batches: tuple[int, ...] = (1, 10, 25),
    threads: int = 8,
    warmup: int = 10,
    runs: int = 100,
    pool_size: int = 25,
    seed: int = 0,
) -> list[BenchRow]:
    """Forward throughput across tree shapes at fixed size (2*leaves-1 nodes)."""
    rng = np.random.default_rng(seed)
    vocab = 22
    capacity = 2 * leaves - 1
    rows = []
    tree_sets = {
        shape: [generate_synthetic(shape, leaves, vocab - 2, 2, rng) for _ in range(pool_size)]
        for shape in SHAPES
    }
    for mode in modes:
        model = build_model(ModelConfig(kind, d=d, vocab=vocab, classes=2), mode, capacity)
        params = init_params(model.config, seed=seed)
        for shape in SHAPES:
            for batch in batches:
                times = _measure(
                    model, tree_sets[shape], params, batch, threads, warmup, runs
                )
                row = _row(kind, mode, "balancedness", shape, batch, threads, times)
                rows.append(row)
                log.info(
                    "balancedness %s/%s %s batch=%d: median %.2f ms, %.1f inst/s",
                    kind, mode, shape, batch, row.median_ms, row.instances_per_s,
                )
    return rows


def bench_scaling(
    kind: str = "treernn",
    modes: tuple[str, ...] = ("recursive", "iterative"),
    d: int = 16,
    sizes: tuple[int, ...] = SCALING_SIZES,
    threads: int = 8,
    warmup: int = 10,
    runs: int = 100,
    seed: int = 0,
) -> list[BenchRow]:
    """Forward time on balanced trees of growing node count, both modes."""
    rng = np.random.default_rng(seed)
    vocab = 22
    rows = []
    for n_nodes in sizes:
        leaves = (n_nodes + 1) // 2
        if 2 * leaves - 1 != n_nodes or leaves & (leaves - 1):
            raise ValueError(f"size {n_nodes} is not a full balanced tree")
        trees = [generate_synthetic("balanced", leaves, vocab - 2, 2, rng) for _ in range(5)]
        for mode in modes:
            model = build_model(ModelConfig(kind, d=d, vocab=vocab, classes=2), mode, n_nodes)
            params = init_params(model.config, seed=seed)
            times = _measure(model, trees, params, 1, threads, warmup, runs)
            row = _row(kind, mode, "scaling", f"balanced-{n_nodes}", 1, threads, times)
            rows.append(row)
            log.info(
                "scaling %s/%s N=%d: median %.2f ms", kind, mode, n_nodes, row.median_ms
            )
    return rows


def bench_threads(
    kind: str = "treernn",
    modes: tuple[str, ...] = ("recursive",),
    d: int = 16,
    leaves: int = 128,
    shape: str = "balanced",
    thread_counts: tuple[int, ...] = THREAD_COUNTS,
    warmup: int = 10,
    runs: int = 100,
    seed: int = 0,
) -> list[BenchRow]:
    """Forward time at fixed tree size across executor thread counts."""
    rng = np.random.default_rng(seed)
    vocab = 22
    capacity = 2 * leaves - 1
    trees = [generate_synthetic(shape, leaves, vocab - 2, 2, rng) for _ in range(5)]
    rows = []
    for mode in modes:
        model = build_model(ModelConfig(kind, d=d, vocab=vocab, classes=2), mode, capacity)
        params = init_params(model.config, seed=seed)
        for threads in thread_counts:
            times = _measure(model, trees, params, 1, threads, warmup, runs)
            row = _row(kind, mode, "threads", shape, 1, threads, times)
            rows.append(row)
            log.info(
                "threads %s/%s t=%d: median %.2f ms", kind, mode, threads, row.median_ms
            )
    return rows


def scaling_ratios(rows: list[BenchRow]) -> dict[str, float]:
    """T(max)/T(min) per mode from a scaling-suite row set (median based)."""
    by_mode: dict[str, dict[int, float]] = {}
    for r in rows:
        if r.suite != "scaling":
            continue
        n = int(r.shape.rsplit("-", 1)[1])
        by_mode.setdefault(r.mode, {})[n] = r.median_ms
    out = {}
    for mode, d in by_mode.items():
        lo, hi = min(d), max(d)
        out[mode] = d[hi] / d[lo]
    return out
