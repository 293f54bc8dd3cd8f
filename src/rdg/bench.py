"""Benchmark suites: throughput vs tree shape, and input scaling.

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
# Consecutive timed runs of one cell per round of the balancedness suite. A
# run that follows another cell's run is slower: on a 2-core host, balanced
# and moderate batch-1 cells read 9-13% less throughput with one run per
# round than with all of a cell's runs back to back, while rounds of 10 runs
# read the same as back to back.
ROUND_RUNS = 10
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


def _timer(model: BuiltModel, trees: list[TreeInstance], params, batch: int, threads: int):
    """A function that runs batch i of `batch` instances from `trees` and
    returns its wall seconds."""
    opts = RunOptions(threads=threads)
    feed_pool = [make_feeds(model, t) for t in trees]

    def timed(i: int) -> float:
        feed_list = [feed_pool[(i * batch + j) % len(feed_pool)] for j in range(batch)]
        t0 = time.monotonic()
        run_batch(model.graph, feed_list, [model.loss], opts, params)
        return time.monotonic() - t0

    return timed


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
    """Forward throughput across tree shapes at fixed size (2*leaves-1 nodes).

    Each (shape, batch) cell warms up on its own; then each round times
    `ROUND_RUNS` consecutive runs of every cell, until each cell has `runs`.
    A burst of load on the host longer than a round thus slows every cell
    alike, and a shorter one a few of a cell's runs, which its median skips.
    """
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
        timers = {}
        for shape in SHAPES:
            for batch in batches:
                timed = timers[(shape, batch)] = _timer(
                    model, tree_sets[shape], params, batch, threads
                )
                for i in range(warmup):
                    timed(i)
        times = {cell: [] for cell in timers}
        for start in range(warmup, warmup + runs, ROUND_RUNS):
            for cell, timed in timers.items():
                for i in range(start, min(start + ROUND_RUNS, warmup + runs)):
                    times[cell].append(timed(i))
        for (shape, batch), cell_times in times.items():
            row = _row(kind, mode, "balancedness", shape, batch, threads, cell_times)
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
            timed = _timer(model, trees, params, 1, threads)
            times = [timed(i) for i in range(warmup + runs)][warmup:]
            row = _row(kind, mode, "scaling", f"balanced-{n_nodes}", 1, threads, times)
            rows.append(row)
            log.info(
                "scaling %s/%s N=%d: median %.2f ms", kind, mode, n_nodes, row.median_ms
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
