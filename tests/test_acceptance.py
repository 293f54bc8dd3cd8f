"""Acceptance gate: one test per release criterion, one summary line each.

Every test performs its full measurement, records a PASS/FAIL line for the
terminal summary (see conftest.py), and then asserts. Tolerances are stated
inline; timing-sensitive criteria print the measured numbers so a failure on
different hardware is diagnosable from the log alone.
"""

import time

import numpy as np
import pytest

from conftest import record_criterion
from rdg import Tensor, differentiate, run_training_step
from rdg.bench import bench_balancedness, bench_scaling, scaling_ratios
from rdg.data import generate_dataset, generate_synthetic
from rdg.executor import ExecutionError, RunOptions, run
from rdg.graph import Graph
from rdg.models import (
    MODEL_KINDS,
    ModelConfig,
    build_iterative,
    build_recursive,
    init_params,
    make_feeds,
)
from rdg.oracle import oracle_forward_backward
from rdg.trainer import TrainConfig, evaluate, grad_check, train


def _dense(g):
    return g.to_dense().a if hasattr(g, "to_dense") else g.a


class TestCriterion1GradientCorrectness:
    def test_every_parameter_matches_finite_differences(self):
        t0 = time.perf_counter()
        reports = [grad_check(kind, trials=50, tol=1e-4, seed=0) for kind in MODEL_KINDS]
        elapsed = time.perf_counter() - t0
        ok = all(r.ok for r in reports) and elapsed < 300
        worst = max(row.worst_rel_err for r in reports for row in r.rows)
        line = record_criterion(
            1, "gradient correctness",
            ok,
            f"3 models x 50 random trees (<=31 nodes), rel tol 1e-4 with abs floor "
            f"1e-7: every parameter within bound (worst raw rel err {worst:.2e}, "
            f"floor-covered), {elapsed:.0f}s (< 300s)",
        )
        assert ok, line + "\n" + "\n".join(r.summary() for r in reports)


class TestCriterion2TripleRouteEquivalence:
    def test_recursive_iterative_and_reference_agree(self):
        # tolerance-normalized error: <= 1.0 means inside the stated bound
        # (loss: abs 1e-9; gradients: rel 1e-7 with abs floor 1e-9 per entry)
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        worst_loss, worst_grad, checked = 0.0, 0.0, 0
        for kind in MODEL_KINDS:
            for per_node in (False, True):
                cfg = ModelConfig(kind, d=4, vocab=12, classes=3, per_node_loss=per_node)
                rec = build_recursive(cfg)
                it = build_iterative(cfg, capacity=31)
                g_rec, gm_rec = differentiate(rec.graph, rec.loss, list(rec.params.values()))
                g_it, gm_it = differentiate(it.graph, it.loss, list(it.params.values()))
                for i in range(50):  # 2 x 50 = 100 instances per model kind
                    shape = ("balanced", "moderate", "linear")[i % 3]
                    leaves = int(rng.integers(1, 9))
                    if shape == "balanced":
                        leaves = 2 ** int(rng.integers(0, 4))
                    if shape == "linear":
                        leaves = max(2, leaves)
                    tree = generate_synthetic(shape, leaves, 11, 3, rng)
                    params = init_params(cfg, seed=100 + i, scale=0.3)
                    o_loss, o_grads = oracle_forward_backward(
                        kind, params, tree, per_node_loss=per_node
                    )
                    opts = RunOptions(threads=2)
                    r_loss, r_grads = run_training_step(
                        g_rec, gm_rec, make_feeds(rec, tree), params, opts
                    )
                    i_loss, i_grads = run_training_step(
                        g_it, gm_it, make_feeds(it, tree), params, opts
                    )
                    worst_loss = max(
                        worst_loss,
                        abs(r_loss - o_loss) / 1e-9,
                        abs(i_loss - o_loss) / 1e-9,
                    )
                    for name, want in o_grads.items():
                        tol = 1e-7 * np.abs(want) + 1e-9
                        for got in (_dense(r_grads[name]), _dense(i_grads[name])):
                            worst_grad = max(
                                worst_grad, float(np.max(np.abs(got - want) / tol))
                            )
                    checked += 1
        elapsed = time.perf_counter() - t0
        ok = worst_loss <= 1.0 and worst_grad <= 1.0 and elapsed < 300
        line = record_criterion(
            2, "triple-route equivalence",
            ok,
            f"{checked} instances x 3 routes: worst loss delta at "
            f"{worst_loss:.3f}x of the 1e-9 bound, worst gradient delta at "
            f"{worst_grad:.3f}x of the rel 1e-7 bound, {elapsed:.0f}s (< 300s)",
        )
        assert ok, line


class TestCriterion3BalancednessOrdering:
    def test_throughput_orders_by_tree_shape(self):
        rows = bench_balancedness()  # d=16, 64 leaves, batches 1/10/25, threads=8, 100 runs
        tput = {(r.shape, r.batch): r.instances_per_s for r in rows}
        order_ok = all(
            tput[("balanced", b)] > tput[("moderate", b)] > tput[("linear", b)]
            for b in (1, 10, 25)
        )
        gains = {
            s: tput[(s, 25)] / tput[(s, 1)] for s in ("balanced", "moderate", "linear")
        }
        gain_ok = gains["linear"] >= max(gains.values())
        ok = order_ok and gain_ok
        detail = ", ".join(
            f"{s} {tput[(s, 1)]:.0f}/{tput[(s, 10)]:.0f}/{tput[(s, 25)]:.0f} inst/s"
            for s in ("balanced", "moderate", "linear")
        )
        line = record_criterion(
            3, "balancedness ordering",
            ok,
            f"threads=8, medians of 100 runs, batches 1/10/25: {detail}; "
            f"gains 1->25 " + ", ".join(f"{s} {g:.2f}x" for s, g in gains.items())
            + f"; ordering {'holds' if order_ok else 'violated'}, "
            f"linear gain {'largest' if gain_ok else 'not largest'}",
        )
        assert ok, line


class TestCriterion4ParallelScaling:
    def test_scaling_ratio_and_peak_concurrency(self):
        rows = bench_scaling(runs=100, warmup=10)  # balanced 15..511 nodes, both modes
        ratios = scaling_ratios(rows)
        ratio_ok = ratios["recursive"] <= 0.5 * ratios["iterative"]

        rng = np.random.default_rng(0)
        tree = generate_synthetic("balanced", 128, 20, 2, rng)  # 255 nodes
        cfg = ModelConfig("treelstm", d=3072, vocab=22, classes=2)
        model = build_recursive(cfg)
        res = run(
            model.graph, make_feeds(model, tree), [model.loss],
            RunOptions(threads=128, instrument=True), init_params(cfg, seed=0),
        )
        peak = res.peak_concurrency
        peak_ok = peak >= 64

        ok = ratio_ok and peak_ok
        line = record_criterion(
            4, "parallel scaling",
            ok,
            f"T(511)/T(15): recursive {ratios['recursive']:.1f}x vs bound "
            f"0.5 x iterative {ratios['iterative']:.1f}x = "
            f"{0.5 * ratios['iterative']:.1f}x "
            f"({'ok' if ratio_ok else 'exceeded'}); peak concurrency {peak} "
            f"on 255-node tree, 128 threads (>= 64 {'ok' if peak_ok else 'missed'})",
        )
        assert ok, line


class TestCriterion5SchedulerStress:
    def test_thousand_runs_random_threads(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(11)
        cfg = ModelConfig("treernn", d=4, vocab=12, classes=2)
        model = build_recursive(cfg)
        g, gm = differentiate(model.graph, model.loss, list(model.params.values()))
        params = init_params(cfg, seed=1, scale=0.3)
        worst = 0.0
        for i in range(1000):
            shape = ("balanced", "moderate", "linear")[i % 3]
            leaves = (2, 4, 8)[i % 3] if shape == "balanced" else int(rng.integers(2, 9))
            tree = generate_synthetic(shape, leaves, 11, 2, rng)
            feeds = make_feeds(model, tree)
            t1, t2 = rng.choice(16, size=2) + 1
            o1 = RunOptions(threads=int(t1), debug=True, timeout_s=60)
            if i % 5 == 0:
                l1, g1 = run_training_step(g, gm, feeds, params, o1)
                l2, g2 = run_training_step(
                    g, gm, feeds, params,
                    RunOptions(threads=int(t2), debug=True, timeout_s=60),
                )
                worst = max(worst, abs(l1 - l2))
                for name in g1:
                    worst = max(worst, float(np.max(np.abs(_dense(g1[name]) - _dense(g2[name])))))
            else:
                r1 = run(model.graph, feeds, [model.loss], o1, params)
                r2 = run(
                    model.graph, feeds, [model.loss],
                    RunOptions(threads=int(t2), debug=True, timeout_s=60), params,
                )
                worst = max(worst, abs(r1.values[0].item() - r2.values[0].item()))
        elapsed = time.perf_counter() - t0
        ok = worst <= 1e-9
        line = record_criterion(
            5, "scheduler stress",
            ok,
            f"1000 random trees, paired runs at random thread counts 1-16, "
            f"debug checks on: worst cross-thread delta {worst:.1e} "
            f"(<= 1e-9), {elapsed:.0f}s, no deadlock",
        )
        assert ok, line


class TestCriterion6ConvergenceRace:
    def test_recursive_converges_and_beats_iterative(self):
        train_set = generate_dataset("balanced", 16, 2000, 10, 2, seed=0)
        val_set = generate_dataset("balanced", 16, 500, 10, 2, seed=1)
        cfg = ModelConfig("treernn", d=16, vocab=11, classes=2, per_node_loss=True)
        tcfg = TrainConfig(epochs=1, batch_size=25, lr=0.05, threads=8, seed=0)

        results = {}
        for label, model in (
            ("recursive", build_recursive(cfg)),
            ("iterative", build_iterative(cfg, capacity=31)),
        ):
            params = init_params(cfg, seed=0, scale=0.1)
            t0 = time.perf_counter()
            acc, epochs = 0.0, 0
            for epoch in range(30):
                train(model, params, train_set, tcfg)
                acc = evaluate(model, params, val_set, threads=8, batch_size=25).accuracy
                epochs = epoch + 1
                if acc >= 0.93:
                    break
            results[label] = (acc, epochs, time.perf_counter() - t0)

        (r_acc, r_ep, r_s), (i_acc, i_ep, i_s) = results["recursive"], results["iterative"]
        ok = r_acc >= 0.93 and r_ep <= 30 and r_s < 600 and i_acc >= 0.93 and r_s < i_s
        line = record_criterion(
            6, "convergence race",
            ok,
            f"subtree-parity, 2000 train / 500 val, d=16, threads=8: recursive "
            f"{r_acc:.3f} after {r_ep} epoch(s) in {r_s:.0f}s (< 600s), iterative "
            f"{i_acc:.3f} in {i_s:.0f}s; recursive "
            f"{'faster' if r_s < i_s else 'NOT faster'}",
        )
        assert ok, line


class TestCriterion7DepthGuard:
    def test_unbounded_self_recursion_is_cut_off(self):
        top = Graph()
        f = top.declare_subgraph("Forever", [(1, 1)], [(1, 1)])
        body = top.body(f)
        (x,) = body.args
        body.set_outputs(body.invoke(f, [x]))
        top.define_subgraph(f, body)
        x0 = top.placeholder((1, 1), "x0")
        (out,) = top.invoke(f, [x0])
        fg = top.finalize()

        t0 = time.perf_counter()
        with pytest.raises(ExecutionError, match="recursion depth .* exceeds limit 512"):
            run(fg, {"x0": Tensor.ones(1, 1)}, [out], RunOptions())
        elapsed = time.perf_counter() - t0
        ok = elapsed < 10
        line = record_criterion(
            7, "recursion depth guard",
            ok,
            f"non-terminating self-recursion raised the depth-limit error (512) "
            f"in {elapsed:.2f}s (< 10s), no hang",
        )
        assert ok, line


class TestCriterion8MutualRecursion:
    def test_forward_declared_pair_matches_reference(self):
        top = Graph()
        f = top.declare_subgraph("Even", [(1, 1), (1, 1)], [(1, 1)])
        g = top.declare_subgraph("Odd", [(1, 1), (1, 1)], [(1, 1)])
        f_rec = top.declare_subgraph("EvenStep", [(1, 1), (1, 1)], [(1, 1)])
        g_rec = top.declare_subgraph("OddStep", [(1, 1), (1, 1)], [(1, 1)])
        base = top.declare_subgraph("Stop", [(1, 1), (1, 1)], [(1, 1)])

        b = top.body(base)
        x, n = b.args
        b.set_outputs([b.add(x, b.constant(Tensor.zeros(1, 1)))])
        top.define_subgraph(base, b)

        b = top.body(f_rec)  # x <- 0.5*x + 1, then hand off to Odd
        x, n = b.args
        x2 = b.add(b.hadamard(x, b.constant(Tensor.from_array(np.array([[0.5]])))),
                   b.constant(Tensor.ones(1, 1)))
        n2 = b.sub(n, b.constant(Tensor.ones(1, 1)))
        b.set_outputs(b.invoke(g, [x2, n2]))
        top.define_subgraph(f_rec, b)

        b = top.body(g_rec)  # x <- 2*x - 3, then hand off to Even
        x, n = b.args
        x2 = b.sub(b.hadamard(x, b.constant(Tensor.from_array(np.array([[2.0]])))),
                   b.constant(Tensor.from_array(np.array([[3.0]]))))
        n2 = b.sub(n, b.constant(Tensor.ones(1, 1)))
        b.set_outputs(b.invoke(f, [x2, n2]))
        top.define_subgraph(g_rec, b)

        for ref, rec in ((f, f_rec), (g, g_rec)):
            b = top.body(ref)
            x, n = b.args
            b.set_outputs(b.cond(n, rec, base, [x, n]))
            top.define_subgraph(ref, b)

        x0 = top.placeholder((1, 1), "x0")
        n0 = top.placeholder((1, 1), "n0")
        (out,) = top.invoke(f, [x0, n0])
        fg = top.finalize()

        def even(x, n):
            return odd(0.5 * x + 1.0, n - 1) if n > 0 else x

        def odd(x, n):
            return even(2.0 * x - 3.0, n - 1) if n > 0 else x

        got = run(
            fg,
            {"x0": Tensor.from_array(np.array([[7.0]])),
             "n0": Tensor.from_array(np.array([[20.0]]))},
            [out], RunOptions(),
        ).values[0].item()
        want = even(7.0, 20)
        err = abs(got - want)
        ok = err <= 1e-12
        line = record_criterion(
            8, "mutual recursion fidelity",
            ok,
            f"two forward-declared subgraphs alternating to depth 20: engine "
            f"{got!r} vs host reference {want!r}, |delta| {err:.1e} (<= 1e-12)",
        )
        assert ok, line
