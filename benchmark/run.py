"""Benchmark rdg against its oracle on one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. With `--trace 0` it measures the end-to-end
metrics with tracing off; with `--trace 1` it measures the per-layer
metrics, keeps spans around every call into rdg in memory, and writes them
to `benchmark/results/` as a Chrome Trace Event file. Either way it checks
every operation's output against the oracle and prints, as its last line,
one JSON object with `correct`, `attempted`, `failed` and `metrics`. See
README.md next to this file for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

SETUPS = 40  # fresh set-ups per end-to-end run; setup_s is their median
PROBES = 10  # repeats of each one-off layer probe in the traced run
FIXED_RUNS = 500  # one-node runs behind executor.run_fixed_us
TRACE_ROWS = 20000  # executor rows of the first traced operation kept in the trace file
# Median time of the set-up calibration (one TreeLSTM d=16 forward-backward
# by the oracle on a balanced 16-leaf tree) on the reference host, a 2-core
# x86-64 VM, where it ranged 2.3-3.2 ms between processes. setup_s is
# reported in seconds of that host.
CAL_REF_S = 0.003


class Span:
    __slots__ = ("seconds",)


class Tracer:
    """Spans around calls into rdg; kept in memory only when recording."""

    def __init__(self, record: bool):
        self.record = record
        self.events: list[dict] = []

    @contextmanager
    def span(self, name: str, **args):
        s = Span()
        t0 = time.monotonic_ns()
        try:
            yield s
        finally:
            t1 = time.monotonic_ns()
            s.seconds = (t1 - t0) / 1e9
            if self.record:
                self.events.append(
                    {"name": name, "ph": "X", "ts": t0 / 1e3, "dur": (t1 - t0) / 1e3,
                     "pid": 1, "tid": 0, "args": args}
                )

    def median(self, name: str, fn, n: int = PROBES) -> float:
        """Median seconds of `n` calls of `fn`, each in its own span."""
        times = []
        for _ in range(n):
            with self.span(name) as s:
                fn()
            times.append(s.seconds)
        return statistics.median(times)

    def write(self, path: Path, engine_rows=()) -> None:
        """Chrome Trace Event JSON: the spans on lane 0, and the executor's
        own rows (one per executed frame and node, stamped on the same
        clock) on one lane per worker."""
        events = list(self.events)
        for ts, wid, key, nid, label in engine_rows:
            events.append(
                {"name": label, "ph": "i", "s": "t", "ts": ts, "pid": 1,
                 "tid": 1 + wid, "args": {"key": key, "node": nid}}
            )
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": 0,
                       "args": {"name": "benchmark spans"}})
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


class GcMeter:
    """Collector pauses and collections while `active` (a gc.callbacks hook)."""

    def __init__(self):
        self.active = False
        self.pause_s = 0.0
        self.collections = 0
        self._t0 = 0.0

    def __call__(self, phase, info):
        if not self.active:
            return
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t0
            self.collections += 1


class Outcome:
    """Operations attempted and failed, and whether every output checked out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._last = (None, 0.0)  # (operation, oracle seconds right after it)

    def run(self, wl, op, tracer: Tracer, tag: dict, gcm: GcMeter | None = None):
        """One operation on the engine between two on the oracle, then its
        check: (engine s, oracle s), or None when it failed.

        The oracle's time is the mean of its run just before and just after
        the engine's, on the same instances, so a change of host speed
        during the operation shows on both sides. When an operation follows
        itself, the run after the first serves as the run before the next.
        """
        self.attempted += 1
        try:
            last_op, before = self._last
            if op is not last_op:
                with tracer.span("oracle", **tag) as o:
                    wl.oracle(op)
                before = o.seconds
            if gcm is not None:
                gcm.active = True
            try:
                with tracer.span(wl.call, **tag) as e:
                    out = wl.engine(op)
            finally:
                if gcm is not None:
                    gcm.active = False
            with tracer.span("oracle", **tag) as o:
                ref = wl.oracle(op)
            self._last = (op, o.seconds)
        except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            self._last = (None, 0.0)
            traceback.print_exc(file=sys.stderr)
            return None
        problems = wl.check(op, out, ref)
        if problems:
            self.failed += 1
            self.correct = False
            print(f"{wl.name} {tag}: " + "; ".join(problems[:3]), file=sys.stderr)
        return e.seconds, (before + o.seconds) / 2

    def warm_up(self, wl, tracer: Tracer) -> None:
        """Run the first operation once, uncounted (its check still counts
        towards `correct`)."""
        self.run(wl, wl.ops[0], tracer, {})
        self.attempted = self.failed = 0


def _rounds(wl, seconds: float):
    """(round, index, operation) over whole rounds of the workload's
    operations, until `seconds` have passed; at least one round."""
    deadline = time.perf_counter() + seconds
    r = 0
    while r == 0 or time.perf_counter() < deadline:
        for i, op in enumerate(wl.ops):
            yield r, i, op
        r += 1


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _calibration():
    import numpy as np
    from rdg.data import generate_synthetic
    from rdg.models import ModelConfig, init_params
    from rdg.oracle import oracle_forward_backward

    params = init_params(ModelConfig("treelstm", d=16, vocab=21, classes=2), seed=0)
    tree = generate_synthetic("balanced", 16, 20, 2, np.random.default_rng(0))
    return lambda: oracle_forward_backward("treelstm", params, tree)


def _setup_s(wl) -> float:
    """Median of fresh set-ups, each over the calibration timed right after
    it, in seconds of the reference host."""
    calibrate = _calibration()
    ratios = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        wl.setup()
        t1 = time.perf_counter()
        calibrate()
        t2 = time.perf_counter()
        ratios.append((t1 - t0) / (t2 - t1))
    return statistics.median(ratios) * CAL_REF_S


def end_to_end(wl, seconds: float) -> tuple[Outcome, dict]:
    setup_s = _setup_s(wl)
    tracer = Tracer(record=False)
    outcome = Outcome()
    outcome.warm_up(wl, tracer)
    by_round: dict[int, list] = {}
    op_ratios = []
    for r, i, op in _rounds(wl, seconds):
        pair = outcome.run(wl, op, tracer, {"op": i})
        if pair is not None:
            acc = by_round.setdefault(r, [0.0, 0.0])
            acc[0] += pair[0]
            acc[1] += pair[1]
            op_ratios.append(pair[0] / pair[1])
    if not op_ratios:
        raise SystemExit("every operation failed")
    # Linear interpolation between order statistics, as numpy's percentile:
    # on the runs of 20-30 operations it is less often the slowest one.
    p95 = (statistics.quantiles(op_ratios, n=20, method="inclusive")[-1]
           if len(op_ratios) > 1 else op_ratios[0])
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return outcome, {
        "time_vs_oracle": _metric(statistics.median(e / o for e, o in by_round.values()), "x"),
        "latency_p95_vs_oracle": _metric(p95, "x"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def _one_node_run(threads: int):
    from rdg import Graph, RunOptions, Tensor, run

    g = Graph()
    x = g.placeholder((1, 1), "x")
    y = g.unary(x, "tanh")
    fg = g.finalize()
    feeds = {"x": Tensor.scalar(0.5)}
    opts = RunOptions(threads=threads)
    return lambda: run(fg, feeds, [y], opts)


def _nodes(fg) -> int:
    return fg.top.n_nodes + sum(b.n_nodes for b in fg.bodies.values())


def per_layer(wl, seconds: float, tracer: Tracer, trace_path: Path) -> tuple[Outcome, dict]:
    from rdg import RunOptions, differentiate, run_batch
    from rdg.kernels import CONTROL_KINDS, PLUMBING_KINDS
    from rdg.models import build_recursive, make_feeds
    from rdg.trainer import adagrad_init, adagrad_update, sum_gradients
    from workloads import LR

    load_s = tracer.median("data.load_corpus", wl.load)
    build_s = tracer.median("models.build_recursive", lambda: build_recursive(wl.cfg))
    wl.setup()
    m = wl.model
    diff_s = tracer.median(
        "autodiff.differentiate", lambda: differentiate(m.graph, m.loss, list(m.params.values()))
    )
    grad_graph, _ = differentiate(m.graph, m.loss, list(m.params.values()))
    fixed_s = tracer.median("executor.run one-node graph", _one_node_run(wl.threads), FIXED_RUNS)

    # The trainer's two steps after the engine, on one step's gradients.
    per_inst = wl.step_grads()
    summed = sum_gradients(per_inst)
    sum_s = tracer.median("trainer.sum_gradients", lambda: sum_gradients(per_inst), 20)
    update_s = tracer.median(
        "trainer.adagrad_update",
        lambda: adagrad_update(dict(wl.params), summed, adagrad_init(wl.params), LR), 20,
    )

    g, fetches = wl.executor_call()
    plain = RunOptions(threads=wl.threads)
    traced = RunOptions(threads=wl.threads, trace=True)
    instrumented = RunOptions(threads=wl.threads, instrument=True)
    gcm = GcMeter()
    outcome = Outcome()
    outcome.warm_up(wl, Tracer(record=False))
    t = dict(engine=0.0, oracle=0.0, feeds=0.0, run=0.0, traced=0.0)
    kinds = dict(control=0, plumbing=0, compute=0)
    n = frames = 0
    peaks, rows_kept = [], []
    gc.callbacks.append(gcm)
    try:
        for _, i, op in _rounds(wl, seconds):
            tag = {"op": i}
            pair = outcome.run(wl, op, tracer, tag, gcm)
            if pair is None:
                continue
            t["engine"] += pair[0]
            t["oracle"] += pair[1]
            n += len(op)
            with tracer.span("models.make_feeds", **tag) as s:
                feeds = [make_feeds(m, tree) for tree in op]
            t["feeds"] += s.seconds
            with tracer.span("executor.run_batch", **tag) as s:
                run_batch(g, feeds, fetches, plain, wl.params)
            t["run"] += s.seconds
            with tracer.span("executor.run_batch traced", **tag) as s:
                res = run_batch(g, feeds, fetches, traced, wl.params)
            t["traced"] += s.seconds
            with tracer.span("executor.run_batch instrumented", **tag):
                peaks.append(
                    run_batch(g, feeds, fetches, instrumented, wl.params)[0].peak_concurrency
                )
            rows = res[0].trace  # one list for the whole batch
            if not rows_kept:
                rows_kept = rows[:TRACE_ROWS]
            for row in rows:
                kind = row[4].split("[", 1)[0]
                if kind in CONTROL_KINDS:
                    kinds["control"] += 1
                elif kind in PLUMBING_KINDS:
                    kinds["plumbing"] += 1
                else:
                    kinds["compute"] += 1
            frames += sum(sum(r.frames.values()) for r in res)
    finally:
        gc.callbacks.remove(gcm)
    if not n:
        raise SystemExit("every operation failed")
    tracer.write(trace_path, rows_kept)
    return outcome, {
        "models.build_s": _metric(build_s, "s"),
        "graph.nodes": _metric(_nodes(m.graph), "count"),
        "autodiff.differentiate_s": _metric(diff_s, "s"),
        "autodiff.grad_graph_nodes": _metric(_nodes(grad_graph), "count"),
        "data.load_corpus_s": _metric(load_s, "s"),
        "models.make_feeds_us": _metric(t["feeds"] / n * 1e6, "us"),
        "executor.run_fixed_us": _metric(fixed_s * 1e6, "us"),
        "executor.run_s_per_inst": _metric(t["run"] / n, "s"),
        "executor.node_execs_per_inst": _metric(sum(kinds.values()) / n, "count"),
        "executor.node_execs.control": _metric(kinds["control"] / n, "count"),
        "executor.node_execs.plumbing": _metric(kinds["plumbing"] / n, "count"),
        "executor.node_execs.compute": _metric(kinds["compute"] / n, "count"),
        "executor.frames_per_inst": _metric(frames / n, "count"),
        "executor.peak_concurrency": _metric(statistics.median(peaks), "count"),
        "executor.gc_pause_ms_per_inst": _metric(gcm.pause_s / n * 1e3, "ms"),
        "executor.gc_collections_per_inst": _metric(gcm.collections / n, "count"),
        "executor.trace_overhead_x": _metric(t["traced"] / t["run"], "x"),
        "trainer.sum_gradients_ms_per_step": _metric(sum_s * 1e3, "ms"),
        "trainer.adagrad_update_ms_per_step": _metric(update_s * 1e3, "ms"),
        "oracle.s_per_inst": _metric(t["oracle"] / n, "s"),
        "inst_per_s": _metric(n / t["engine"], "1/s"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "rdg" / "__init__.py").is_file():
        print(f"rdg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rdg  # noqa: F401 - first, so its BLAS thread settings precede numpy

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, RESULTS)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        outcome, metrics = per_layer(wl, args.seconds, Tracer(record=True),
                                     RESULTS / f"{stem}.chrome.json")
    else:
        outcome, metrics = end_to_end(wl, args.seconds)
    line = json.dumps({"correct": outcome.correct, "attempted": outcome.attempted,
                       "failed": outcome.failed, "metrics": metrics})
    (RESULTS / f"{stem}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
