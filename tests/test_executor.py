"""Scheduler behavior: overlap, determinism, frames, forward-frame pairing,
error context."""

import gc
import os
import re
import subprocess
import sys
import threading
import time
import weakref
from collections import Counter

import numpy as np
import pytest

import rdg
from rdg import (
    ExecutionError, Graph, RunOptions, Tensor, differentiate, executor, kernels, run, run_batch,
)
from rdg.data import generate_synthetic
from rdg.graph import Node, RowGrads, RowTable
from rdg.models import ModelConfig, build_iterative, build_recursive, init_params, make_feeds
from rdg.oracle import oracle_forward, oracle_forward_backward

from test_graph import build_countdown, scalar_sig


def run1(g, feeds, fetches, **kw):
    return run(g, feeds, fetches, RunOptions(**kw))


class TestBasics:
    def test_countdown_value(self):
        g, x, y = build_countdown()
        fg = g.finalize()
        res = run(fg, {"x": Tensor.scalar(5.0)}, [y], RunOptions(threads=2))
        assert res.values[0].item() == 120.0

    def test_fetch_placeholder_directly(self):
        g = Graph()
        x = g.placeholder((2, 1), "x")
        fg = g.finalize()
        t = Tensor(2, 1, [3.0, 4.0])
        res = run(fg, {"x": t}, [x])
        assert res.values[0] == t

    def test_fetch_constant(self):
        g = Graph()
        c = g.constant(Tensor.scalar(7.0))
        fg = g.finalize()
        assert run(fg, {}, [c]).values[0].item() == 7.0

    def test_duplicate_fetches(self):
        g = Graph()
        x = g.placeholder((1, 1), "x")
        y = g.neg(x)
        fg = g.finalize()
        res = run(fg, {"x": Tensor.scalar(2.0)}, [y, y, x])
        assert [v.item() for v in res.values] == [-2.0, -2.0, 2.0]

    def test_multi_output_calls_fill_their_result_slots(self):
        # F computes its outputs; G's are a constant and an argument, so its
        # call completes as it is spawned. Every output is fetched.
        g = Graph()
        f = g.declare_subgraph("F", [(1, 1)], [(1, 1), (1, 1), (1, 1)])
        fb = g.body(f)
        (a,) = fb.args
        fb.set_outputs([fb.add(a, a), fb.neg(a), a])
        g.define_subgraph(f, fb)
        h = g.declare_subgraph("G", [(1, 1)], [(1, 1), (1, 1)])
        hb = g.body(h)
        hb.set_outputs([hb.constant(Tensor.scalar(7.0)), hb.args[0]])
        g.define_subgraph(h, hb)
        x = g.placeholder((1, 1), "x")
        f0, f1, f2 = g.invoke(f, [x])
        g0, g1 = g.invoke(h, [f1])
        fg = g.finalize()
        res = run(fg, {"x": Tensor.scalar(0.5)}, [g1, f0, f1, f2, g0], RunOptions(debug=True))
        assert [v.item() for v in res.values] == [-0.5, 1.0, -0.5, 0.5, 7.0]

    def test_unfed_placeholder_named(self):
        g = Graph()
        x = g.placeholder((1, 1), "price")
        y = g.neg(x)
        fg = g.finalize()
        with pytest.raises(ExecutionError, match="'price' was not fed"):
            run(fg, {}, [y])

    def test_missing_parameter_named(self):
        g = Graph()
        w = g.parameter("W", (1, 1))
        y = g.neg(w)
        fg = g.finalize()
        with pytest.raises(ExecutionError, match="'W' missing"):
            run(fg, {}, [y])

    def test_feed_shape_checked(self):
        g = Graph()
        x = g.placeholder((2, 1), "x")
        fg = g.finalize()
        with pytest.raises(ExecutionError, match="expected 2x1"):
            run(fg, {"x": Tensor.scalar(1.0)}, [x])

    def test_fetch_from_another_graph_rejected(self):
        g, other = Graph(), Graph()
        x = g.placeholder((1, 1), "x")
        y = other.placeholder((1, 1), "y")
        fg = g.finalize()
        with pytest.raises(ExecutionError, match="does not belong to this graph"):
            run(fg, {"x": Tensor.scalar(1.0)}, [x, y])

    def test_fetch_by_node_id(self):
        g = Graph()
        x = g.placeholder((1, 1), "x")
        y = g.neg(x)
        fg = g.finalize()
        assert run(fg, {"x": Tensor.scalar(2.0)}, [y.id]).values[0].item() == -2.0
        with pytest.raises(ExecutionError, match="fetch id 2 out of range"):
            run(fg, {"x": Tensor.scalar(2.0)}, [2])

    def test_feed_must_be_a_tensor(self):
        g = Graph()
        x = g.placeholder((1, 1), "x")
        fg = g.finalize()
        with pytest.raises(ExecutionError, match="feed for 'x' must be a tensor"):
            run(fg, {"x": np.ones((1, 1))}, [x])

    def test_parameter_shape_checked(self):
        g = Graph()
        w = g.parameter("W", (2, 1))
        fg = g.finalize()
        with pytest.raises(ExecutionError, match="parameter 'W' has shape 1x1, expected 2x1"):
            run(fg, {}, [w], params={"W": Tensor.scalar(1.0)})

    def test_fetch_that_never_resolves_is_a_stall(self):
        # With no unit ready at the start nothing runs, so the fetch stays
        # pending when the run ends.
        g = Graph()
        x = g.placeholder((1, 1), "x")
        y = g.neg(x)
        fg = g.finalize()
        fg.top.initial_ready = []
        with pytest.raises(ExecutionError, match=rf"run stalled: fetched node\(s\) \[{y.id}\]"):
            run(fg, {"x": Tensor.scalar(1.0)}, [x, y, y])

    def test_dynamic_row_feed_accepts_any_rows(self):
        g = Graph()
        x = g.placeholder((None, 1), "x")
        fg = g.finalize()
        for rows in (1, 5, 17):
            t = Tensor.zeros(rows, 1)
            assert run(fg, {"x": t}, [x]).values[0].rows == rows

    def test_threads_must_be_positive(self):
        g = Graph()
        c = g.constant(Tensor.scalar(0.0))
        fg = g.finalize()
        with pytest.raises(ValueError, match="threads"):
            run(fg, {}, [c], RunOptions(threads=0))

    def test_debug_mode_checklist_passes(self):
        g, x, y = build_countdown()
        fg = g.finalize()
        res = run(fg, {"x": Tensor.scalar(4.0)}, [y], RunOptions(threads=4, debug=True))
        assert res.values[0].item() == 24.0


class TestDeterminism:
    def test_identical_across_thread_counts(self):
        g, x, y = build_countdown()
        fg = g.finalize()
        results = [
            run(fg, {"x": Tensor.scalar(9.0)}, [y], RunOptions(threads=t)).values[0]
            for t in (1, 2, 4, 8)
        ]
        for r in results[1:]:
            assert r == results[0]  # bitwise

    def test_concurrent_runs_are_independent(self):
        g, x, y = build_countdown()
        fg = g.finalize()
        (expected,) = [
            {n: run(fg, {"x": Tensor.scalar(float(n))}, [y]).values[0].item() for n in range(1, 9)}
        ]
        out = {}
        errs = []

        def one(n):
            try:
                r = run(fg, {"x": Tensor.scalar(float(n))}, [y], RunOptions(threads=2))
                out[n] = r.values[0].item()
            except Exception as e:  # noqa: BLE001
                errs.append(e)

        ts = [threading.Thread(target=one, args=(n,)) for n in range(1, 9)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert not errs
        assert out == expected


class TestLaziness:
    def test_untaken_branch_never_runs(self):
        g = Graph()
        then = g.declare_subgraph("Then", *scalar_sig())
        other = g.declare_subgraph("Else", *scalar_sig())
        tb = g.body(then)
        tb.set_outputs([tb.neg(tb.args[0])])
        g.define_subgraph(then, tb)
        eb = g.body(other)
        eb.set_outputs([eb.square(eb.args[0])])
        g.define_subgraph(other, eb)
        p = g.placeholder((1, 1), "p")
        x = g.placeholder((1, 1), "x")
        (y,) = g.cond(p, then, other, [x])
        fg = g.finalize()

        res = run(fg, {"p": Tensor.scalar(1.0), "x": Tensor.scalar(3.0)}, [y])
        assert res.values[0].item() == -3.0
        assert res.frames.get("Then", 0) == 1
        assert res.frames.get("Else", 0) == 0

        res = run(fg, {"p": Tensor.scalar(0.0), "x": Tensor.scalar(3.0)}, [y])
        assert res.values[0].item() == 9.0
        assert res.frames.get("Then", 0) == 0
        assert res.frames.get("Else", 0) == 1

    def test_predicate_threshold_is_half(self):
        g = Graph()
        then = g.declare_subgraph("Then", *scalar_sig())
        other = g.declare_subgraph("Else", *scalar_sig())
        for ref, fn in ((then, "neg"), (other, "square")):
            b = g.body(ref)
            b.set_outputs([b.unary(b.args[0], fn)])
            g.define_subgraph(ref, b)
        p = g.placeholder((1, 1), "p")
        x = g.placeholder((1, 1), "x")
        (y,) = g.cond(p, then, other, [x])
        fg = g.finalize()
        feeds = lambda pv: {"p": Tensor.scalar(pv), "x": Tensor.scalar(3.0)}
        assert run(fg, feeds(0.49), [y]).values[0].item() == 9.0
        assert run(fg, feeds(0.51), [y]).values[0].item() == -3.0
        assert run(fg, feeds(-0.51), [y]).values[0].item() == -3.0  # magnitude


class TestRecursionMechanics:
    def test_deep_linear_recursion_single_thread(self):
        # With one worker, a blocking call-site design would deadlock at
        # depth 2; 400 frames deep proves invocation never parks a worker.
        # F is a dispatcher, so S runs its cond: only the top invokes F.
        g = Graph()
        f = g.declare_subgraph("F", *scalar_sig())
        base = g.declare_subgraph("B", *scalar_sig())
        step = g.declare_subgraph("S", *scalar_sig())
        fb = g.body(f)
        (n,) = fb.args
        fb.set_outputs(fb.cond(n, step, base, [n]))
        g.define_subgraph(f, fb)
        bb = g.body(base)
        bb.set_outputs([bb.constant(Tensor.scalar(0.0))])
        g.define_subgraph(base, bb)
        sb = g.body(step)
        (m,) = sb.args
        rec = sb.invoke(f, [sb.add(m, sb.constant(Tensor.scalar(-1.0)))])
        sb.set_outputs([sb.add(rec[0], sb.constant(Tensor.scalar(1.0)))])
        g.define_subgraph(step, sb)
        x = g.placeholder((1, 1), "x")
        (y,) = g.invoke(f, [x])
        fg = g.finalize()
        res = run(
            fg,
            {"x": Tensor.scalar(400.0)},
            [y],
            RunOptions(threads=1, max_recursion_depth=1000),
        )
        assert res.values[0].item() == 400.0
        assert res.frames["F"] == 1
        assert res.frames["S"] == 400

    def test_depth_limit_error_names_key(self):
        g = Graph()
        f = g.declare_subgraph("Loop", *scalar_sig())
        fb = g.body(f)
        fb.set_outputs(fb.invoke(f, [fb.args[0]]))  # no terminating cond
        g.define_subgraph(f, fb)
        x = g.placeholder((1, 1), "x")
        (y,) = g.invoke(f, [x])
        fg = g.finalize()
        t0 = time.monotonic()
        with pytest.raises(ExecutionError, match="recursion depth .* exceeds limit 64"):
            run(fg, {"x": Tensor.scalar(1.0)}, [y], RunOptions(max_recursion_depth=64))
        assert time.monotonic() - t0 < 10.0

    def test_depth_limit_message_abbreviates_the_key(self):
        # 512 leaves in a line: one call site per tree level below Model's,
        # so the deepest leaf is 513 call sites deep, one past the limit
        cfg = ModelConfig("treernn", d=4, vocab=21, classes=2)
        rec = build_recursive(cfg)
        tree = generate_synthetic("linear", 512, 20, 2, np.random.default_rng(0))
        with pytest.raises(ExecutionError) as e:
            run(rec.graph, make_feeds(rec, tree), [rec.loss], params=init_params(cfg))
        msg = str(e.value)
        assert re.search(r"at key \d.*recursion depth 513 exceeds limit 512", msg)
        assert len(msg) < 300, msg

    def test_depth_limit_message_in_full(self):
        # the top's call site is node 1 and Loop's own node 2, so the key's
        # first 8 sites are 1 and seven 2s, and its last 8 are 2s; the key is
        # the failing caller's, 512 sites deep
        g = Graph()
        f = g.declare_subgraph("Loop", *scalar_sig())
        fb = g.body(f)
        (call,) = fb.invoke(f, [fb.tanh(fb.args[0])])
        fb.set_outputs([call])
        g.define_subgraph(f, fb)
        (y,) = g.invoke(f, [g.placeholder((1, 1), "x")])
        assert (y.id, call.id) == (1, 2)
        with pytest.raises(ExecutionError) as e:
            run(g.finalize(), {"x": Tensor.scalar(1.0)}, [y])
        key = "/".join(["1"] + ["2"] * 7) + "/.../" + "/".join(["2"] * 8) + " (depth 512)"
        assert str(e.value) == f"node 2 (invoke) at key {key}: recursion depth 513 exceeds limit 512"

    def test_gradient_frame_error_names_its_forward_frames_key(self, monkeypatch):
        # Base squares its argument. With `square` failing, the forward run
        # names the Base frame's key; with `square_bwd` failing, the gradient
        # run names Base__grad's frame, which mirrors it and has its key
        g = Graph()
        f = g.declare_subgraph("F", *scalar_sig())
        step = g.declare_subgraph("Step", *scalar_sig())
        base = g.declare_subgraph("Base", *scalar_sig())
        fb = g.body(f)
        fb.set_outputs(fb.cond(fb.args[0], step, base, [fb.args[0]]))
        g.define_subgraph(f, fb)
        sb = g.body(step)
        (m,) = sb.args
        rec = sb.invoke(f, [sb.add(m, sb.constant(Tensor.scalar(-1.0)))])
        sb.set_outputs([sb.hadamard(m, rec[0])])
        g.define_subgraph(step, sb)
        bb = g.body(base)
        bb.set_outputs([bb.square(bb.args[0])])
        g.define_subgraph(base, bb)
        x = g.placeholder((1, 1), "x")
        (y,) = g.invoke(f, [x])
        failing = {"square", "square_bwd"}

        def raising(orig):
            def make(tag):
                if tag not in failing:
                    return orig(tag)

                def fail(*_):
                    raise FloatingPointError(f"{tag} failed")

                return fail

            return make

        monkeypatch.setattr(kernels, "_unary_fn", raising(kernels._unary_fn))
        monkeypatch.setattr(kernels, "_binary_fn", raising(kernels._binary_fn))
        feeds = {"x": Tensor.scalar(3.0)}  # F, then Step at 3, 2 and 1, then Base

        def key_of(graph, fetch):
            with pytest.raises(ExecutionError) as e:
                run(graph, feeds, [fetch])
            return re.match(r"node \d+ \((?:un|bin)ary\) at key (\S+): square", str(e.value))[1]

        fg = g.finalize()
        fwd_key = key_of(fg, y)
        failing.discard("square")
        gfin, gm = differentiate(fg, y, [x])
        cond_f = fg.bodies["F"].kinds.index("cond")
        cond_step = fg.bodies["Step"].kinds.index("cond")  # F's cond, inlined
        assert fwd_key == f"{y.id}/{cond_f}/{cond_step}/{cond_step}/{cond_step}"
        assert key_of(gfin, gm.param_grads["x"]) == fwd_key

    def test_runtime_error_carries_node_and_key(self):
        g = Graph()
        f = g.declare_subgraph("F", [(1, 1)], [(1, 1)])
        fb = g.body(f)
        (i,) = fb.args
        table = fb.root().constant(Tensor.from_rows([[1.0], [2.0]]))
        fb.set_outputs([fb.gather_row(table, i)])
        g.define_subgraph(f, fb)
        x = g.placeholder((1, 1), "x")
        (y,) = g.invoke(f, [x])
        fg = g.finalize()
        with pytest.raises(ExecutionError, match=r"node \d+ \(gather_row\) at key \d"):
            run(fg, {"x": Tensor.scalar(5.0)}, [y])  # row 5 of a 2-row table


class TestOverlap:
    def test_parallel_leaves_through_recursion(self):
        # Bin(n): n > 0.5 -> two recursive calls then merge; else a slow leaf.
        # The 8 leaves are ready in one round, so they run as one group.
        g = Graph()
        f = g.declare_subgraph("Bin", *scalar_sig())
        leaf = g.declare_subgraph("Leaf", *scalar_sig())
        split = g.declare_subgraph("Split", *scalar_sig())
        fb = g.body(f)
        (n,) = fb.args
        fb.set_outputs(fb.cond(n, split, leaf, [n]))
        g.define_subgraph(f, fb)
        lb = g.body(leaf)
        lb.set_outputs([lb.unary(lb.args[0], ("sleep", 0.05))])
        g.define_subgraph(leaf, lb)
        sb = g.body(split)
        (m,) = sb.args
        dec = sb.add(m, sb.constant(Tensor.scalar(-1.0)))
        l = sb.invoke(f, [dec])
        r = sb.invoke(f, [dec])
        sb.set_outputs([sb.add(l[0], r[0])])
        g.define_subgraph(split, sb)
        x = g.placeholder((1, 1), "x")
        (y,) = g.invoke(f, [x])
        fg = g.finalize()

        res = run(
            fg,
            {"x": Tensor.scalar(3.0)},
            [y],
            RunOptions(threads=8, instrument=True),
        )
        assert res.frames["Leaf"] == 8
        assert res.frames["Bin"] == 1  # Split runs Bin's cond itself
        assert res.peak_concurrency >= 4  # at least half the leaves overlapped

    def test_linear_tree_is_sequential(self):
        g, x, y = build_countdown()
        fg = g.finalize()
        res = run(
            fg, {"x": Tensor.scalar(6.0)}, [y], RunOptions(threads=8, instrument=True)
        )
        assert res.peak_concurrency == 1


def _kernel_calls(leaves: int) -> tuple[Counter, dict]:
    """Kernel calls per (body, node) in one balanced TreeRNN forward run."""
    cfg = ModelConfig("treernn", d=4, vocab=12, classes=2)
    model = build_recursive(cfg)
    tree = generate_synthetic("balanced", leaves, 10, 2, np.random.default_rng(0))
    params = init_params(cfg, seed=0, scale=0.3)
    calls = Counter()

    def counted(name, nid, fn):
        def wrapped(*args):
            calls[(name, nid)] += 1
            return fn(*args)

        return wrapped

    for name, body in model.graph.bodies.items():
        for table in (body.kernels, body.batched):
            for nid, fn in enumerate(table):
                if fn is not None:
                    table[nid] = counted(name, nid, fn)
    res = run(model.graph, make_feeds(model, tree), [model.loss], RunOptions(), params)
    want, _ = oracle_forward("treernn", params, tree)
    assert abs(res.values[0].item() - want) <= 1e-9
    return calls, res.frames


# (kind, payload, operands): "RxC" is a per-frame operand of that shape, an
# "s:" prefix makes it one value shared by every frame, and "index"/"label"
# are per-frame 1x1 integers below 5 and 3.
BATCHED_CASES = [
    ("matmul", None, ["s:3x4", "4x1"]),
    ("matmul", None, ["1x4", "s:4x4"]),
    ("matmul", None, ["2x4", "4x3"]),
    ("unary", "tanh", ["3x1"]),
    ("unary", "sigmoid", ["3x1"]),
    ("binary", "add", ["3x1", "s:3x1"]),
    ("binary", "sub", ["s:3x1", "s:3x1"]),
    ("binary", "hadamard", ["3x1", "3x1"]),
    ("binary", "tanh_bwd", ["3x1", "3x1"]),
    ("binary", "sigmoid_bwd", ["3x1", "3x1"]),
    ("binary", "square_bwd", ["3x1", "3x1"]),
    ("binary", "scale", ["3x2", "1x1"]),
    ("binary", "scale", ["3x2", "s:1x1"]),
    ("binary", "matmul_nt", ["3x1", "4x1"]),
    ("binary", "matmul_tn", ["s:4x3", "4x1"]),
    ("binary", "softmax_xent_bwd", ["1x3", "label"]),
    ("transpose", None, ["1x3"]),
    ("slice_rows", (1, 3), ["4x1"]),
    ("concat_rows", None, ["2x1", "s:3x1"]),
    ("gather_row", None, ["s:5x3", "index"]),
    ("softmax_xent", None, ["1x3", "label"]),
]


class TestBatching:
    @pytest.mark.parametrize("kind,payload,operands", BATCHED_CASES)
    def test_batched_kernel_matches_per_frame_kernel(self, kind, payload, operands):
        # The per-frame kernels are the reference; a stacked kernel may differ
        # from them only by summation order (gemm against gemv).
        k, r = 5, np.random.default_rng(0)

        def draw(spec):
            if spec in ("index", "label"):
                return np.array([[float(r.integers(0, 5 if spec == "index" else 3))]])
            rows, cols = map(int, spec.removeprefix("s:").split("x"))
            return r.normal(size=(rows, cols))

        frames = [[None] * len(operands) for _ in range(k)]
        stacked = []
        for i, spec in enumerate(operands):
            if spec.startswith("s:"):
                a = Tensor.from_array(draw(spec)).a  # frame values are read-only arrays
                stacked.append(a)
                for f in frames:
                    f[i] = a
            else:
                arrays = [Tensor.from_array(draw(spec)).a for _ in range(k)]
                stacked.append(np.array(arrays))
                for f, a in zip(frames, arrays):
                    f[i] = a
        node = Node(len(operands), kind, payload, list(range(len(operands))), None)
        out = kernels._build_batched(node)(*stacked)
        per_frame = kernels._build_strict(node)
        for j, f in enumerate(frames):
            got = out if out.ndim == 2 else out[j]
            np.testing.assert_allclose(got, per_frame(f), rtol=1e-12, atol=1e-15)

    def test_same_node_frames_of_one_level_run_as_one_kernel(self):
        # Balanced trees of 64 and 256 leaves: 7 and 9 levels, 127 and 511
        # frames of Leaf and Internal. Same-node frames of one level form one
        # group, so the two extra (wide) levels cost each body node two more
        # kernel calls, although its frame count quadruples. Internal runs
        # Model's cond itself, so only the top's call runs Model's body, in
        # a group of one, whose compiled segment calls no per-node kernel.
        small, small_frames = _kernel_calls(64)
        big, big_frames = _kernel_calls(256)
        assert small_frames == {"top": 1, "Model": 1, "Leaf": 64, "Internal": 63}
        assert big_frames == {"top": 1, "Model": 1, "Leaf": 256, "Internal": 255}
        assert set(small) == set(big)
        assert {name for name, _ in small} == {"Leaf", "Internal"}
        for (name, nid), n in big.items():
            if name == "Leaf":  # every leaf sits on the bottom level
                assert n == small[(name, nid)] == 1, f"Leaf node {nid}: {n} calls"
            else:
                assert n - small[(name, nid)] == 2, (
                    f"{name} node {nid}: {small[(name, nid)]} -> {n} calls"
                )


def _mixed_batch(d: int):
    """A TreeLSTM gradient graph and five trees of mixed shapes and sizes."""
    cfg = ModelConfig("treelstm", d=d, vocab=12, classes=2, per_node_loss=True)
    model = build_recursive(cfg)
    g, gm = differentiate(model.graph, model.loss, list(model.params.values()))
    params = init_params(cfg, seed=2, scale=0.3)
    rng = np.random.default_rng(5)
    trees = [
        generate_synthetic(shape, leaves, 10, 2, rng)
        for shape, leaves in (
            ("balanced", 8), ("linear", 6), ("moderate", 7), ("balanced", 8), ("linear", 1),
        )
    ]
    feeds = [make_feeds(model, t) for t in trees]
    fetches = [gm.loss] + [gm.param_grads[n] for n in gm.param_order]
    return g, gm, params, trees, feeds, fetches


def _dense(v):
    return v.to_dense().a if hasattr(v, "to_dense") else v.a


class TestRunBatch:
    def test_instances_match_single_runs_and_the_oracle(self):
        # Trees of different shapes and sizes share one wavefront; each
        # instance keeps its own frames and sink, so its loss and gradients
        # match a run of its own and the oracle at the library tolerances.
        g, gm, params, trees, feeds, fetches = _mixed_batch(4)
        batch = run_batch(g, feeds, fetches, RunOptions(), params)
        for tree, fd, res in zip(trees, feeds, batch):
            single = run(g, fd, fetches, RunOptions(), params)
            assert res.frames == single.frames
            want_loss, want_grads = oracle_forward_backward(
                "treelstm", params, tree, per_node_loss=True
            )
            assert abs(res.values[0].item() - want_loss) <= 1e-9
            for name, got in zip(gm.param_order, res.values[1:]):
                want = want_grads[name]
                assert np.all(np.abs(_dense(got) - want) <= 1e-7 * np.abs(want) + 1e-9)

    def test_sink_sums_each_instance_of_interleaved_groups(self, monkeypatch):
        # Four trees, one linear. The two balanced ones reach each level in
        # the same round, so their leaf and internal groups run batched with
        # the two instances' frames in turn: each sink add reduces a group
        # once per instance, and every instance still gets exactly its own
        # parameter gradients.
        cfg = ModelConfig("treelstm", d=4, vocab=12, classes=2)
        model = build_recursive(cfg)
        g, gm = differentiate(model.graph, model.loss, list(model.params.values()))
        params = init_params(cfg, seed=3, scale=0.3)
        rng = np.random.default_rng(7)
        trees = [
            generate_synthetic(shape, leaves, 10, 2, rng)
            for shape, leaves in (
                ("balanced", 16), ("linear", 12), ("balanced", 16), ("moderate", 16),
            )
        ]
        feeds = [make_feeds(model, t) for t in trees]
        fetches = [gm.loss] + [gm.param_grads[n] for n in gm.param_order]
        interleaved = 0
        by_instance = executor._by_instance

        def counted(frames, stacks):
            nonlocal interleaved
            got = by_instance(frames, stacks)
            interleaved += got[1] is not None  # a permutation was needed
            return got

        monkeypatch.setattr(executor, "_by_instance", counted)
        batch = run_batch(g, feeds, fetches, RunOptions(), params)
        assert interleaved, "no batched group held interleaved instances"
        monkeypatch.setattr(executor, "_by_instance", by_instance)
        for tree, fd, res in zip(trees, feeds, batch):
            single = run(g, fd, fetches, RunOptions(), params)
            want_loss, want_grads = oracle_forward_backward("treelstm", params, tree)
            assert abs(res.values[0].item() - want_loss) <= 1e-9
            for name, got, alone in zip(gm.param_order, res.values[1:], single.values[1:]):
                got, alone, want = _dense(got), _dense(alone), want_grads[name]
                assert np.abs(got - alone).max() <= 1e-12 * np.abs(alone).max(), name
                assert np.all(np.abs(got - want) <= 1e-7 * np.abs(want) + 1e-9), name

    def test_wide_gradient_batch_fits_in_memory(self):
        # A TreeLSTM d=256 gradient run over 25 balanced 64-leaf trees: a sink
        # sums each group's parameter-gradient products as one gemm per
        # instance, so no frame ever holds its 256x256 outer products.
        script = (
            "import resource, numpy as np\n"
            "from rdg import RunOptions, differentiate, run_batch\n"
            "from rdg.data import generate_synthetic\n"
            "from rdg.models import ModelConfig, build_recursive, init_params, make_feeds\n"
            "cfg = ModelConfig('treelstm', d=256, vocab=21, classes=2)\n"
            "m = build_recursive(cfg)\n"
            "g, gm = differentiate(m.graph, m.loss, list(m.params.values()))\n"
            "rng = np.random.default_rng(0)\n"
            "feeds = [make_feeds(m, generate_synthetic('balanced', 64, 20, 2, rng))\n"
            "         for _ in range(25)]\n"
            "fetches = [gm.loss] + [gm.param_grads[n] for n in gm.param_order]\n"
            "res = run_batch(g, feeds, fetches, RunOptions(), init_params(cfg))\n"
            "assert all(np.isfinite(r.values[0].item()) for r in res)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
        )
        src = os.path.dirname(os.path.dirname(rdg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
        )
        assert out.returncode == 0, out.stderr
        peak_mb = int(out.stdout.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
        assert peak_mb < 1536, f"peak resident memory {peak_mb:.0f} MB"

    def test_bit_identical_at_any_thread_count_and_no_thread_starts(self, monkeypatch):
        # At d=256 the gate products of a round are large; the calling thread
        # still computes every kernel, whatever `threads` says, and groups and
        # their order follow from the graph and the trees alone, so the
        # results match one thread bit for bit.
        g, gm, params, trees, feeds, fetches = _mixed_batch(256)
        one = run_batch(g, feeds, fetches, RunOptions(threads=1), params)
        started = []
        start = threading.Thread.start

        def counted(t):
            started.append(t)
            start(t)

        monkeypatch.setattr(threading.Thread, "start", counted)
        three = run_batch(g, feeds, fetches, RunOptions(threads=3), params)
        assert not started, "a run started a thread"
        for r1, r3 in zip(one, three):
            for a, b in zip(r1.values, r3.values):
                assert np.array_equal(_dense(a), _dense(b))

    def test_failed_batched_kernel_reruns_frame_by_frame(self):
        # Fan(3) reaches 8 Pick frames in one round; each adds 1 to its
        # argument and gathers that row of the fed table. The sum is read
        # only by the gather, so it stays one stack. Two instances' tables
        # of different heights are gathered from in one batched pass, by
        # (instance, row). A batched gather that raises makes the group run
        # frame by frame, reading the sum as rows of the stack.
        g = Graph()
        fan = g.declare_subgraph("Fan", *scalar_sig())
        pick = g.declare_subgraph("Pick", *scalar_sig())
        split = g.declare_subgraph("Split", *scalar_sig())
        table = g.placeholder((None, 1), "table")
        fb = g.body(fan)
        (n,) = fb.args
        fb.set_outputs(fb.cond(n, split, pick, [n]))
        g.define_subgraph(fan, fb)
        pb = g.body(pick)
        (m,) = pb.args
        pb.set_outputs([pb.gather_row(table, pb.add(m, pb.constant(Tensor.scalar(1.0))))])
        g.define_subgraph(pick, pb)
        sb = g.body(split)
        (m,) = sb.args
        dec = sb.add(m, sb.constant(Tensor.scalar(-1.0)))
        sb.set_outputs([sb.add(sb.invoke(fan, [dec])[0], sb.invoke(fan, [dec])[0])])
        g.define_subgraph(split, sb)
        x = g.placeholder((1, 1), "x")
        (y,) = g.invoke(fan, [x])
        fg = g.finalize()

        body = fg.bodies["Pick"]
        gather = body.kinds.index("gather_row")
        assert body.unit_of[gather] == body.unit_of[body.inputs[gather][1]]
        calls = Counter()
        kernel = body.kernels[gather]

        def counted(vals):
            calls["per-frame"] += 1
            return kernel(vals)

        body.kernels[gather] = counted
        feeds = [
            {"x": Tensor.scalar(3.0), "table": Tensor.from_array(np.array([[1.0], [2.0], [3.0]]))},
            {"x": Tensor.scalar(3.0), "table": Tensor.from_array(np.arange(5.0).reshape(5, 1))},
        ]
        got = [r.values[0].item() for r in run_batch(fg, feeds, [y])]
        assert got == [16.0, 8.0]  # 8 leaves x row 1
        assert calls["per-frame"] == 0

        def broken(*ops):
            raise ValueError("no batched gather")

        body.batched[gather] = broken
        got = [r.values[0].item() for r in run_batch(fg, feeds, [y])]
        assert got == [16.0, 8.0]
        assert calls["per-frame"] == 16

        feeds[1]["table"] = Tensor.scalar(7.0)  # no row 1: the frames fail
        with pytest.raises(ExecutionError, match=r"node \d+ \(gather_row\) at key .*out of range"):
            run_batch(fg, feeds, [y])

    def test_failed_member_of_batched_segment_is_named(self):
        # add, gather_row and tanh form one segment of Pick, which runs
        # batched for the 8 instances. One instance's row is out of range, so
        # the batched gather raises and reruns frame by frame, and the error
        # names the gather, its kind and the failing frame's key.
        g = Graph()
        pick = g.declare_subgraph("Pick", *scalar_sig())
        table = g.constant(Tensor.from_array(np.array([[1.0], [2.0], [3.0]])))
        pb = g.body(pick)
        (m,) = pb.args
        row = pb.gather_row(table, pb.add(m, pb.constant(Tensor.scalar(1.0))))
        pb.set_outputs([pb.tanh(row)])
        g.define_subgraph(pick, pb)
        x = g.placeholder((1, 1), "x")
        (y,) = g.invoke(pick, [x])
        fg = g.finalize()

        body = fg.bodies["Pick"]
        add, gather, tanh = (body.kinds.index(k) for k in ("binary", "gather_row", "unary"))
        assert body.unit_of[add] == body.unit_of[gather] == body.unit_of[tanh]
        xs = [0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0]
        got = run_batch(fg, [{"x": Tensor.scalar(v)} for v in xs], [y])
        want = [np.tanh(v + 2.0) for v in xs]  # row v + 1 holds v + 2
        assert [r.values[0].item() for r in got] == pytest.approx(want, rel=1e-12)

        xs[5] = 8.0
        msg = rf"node {gather} \(gather_row\) at key {y.id}: row 9 out of range for 3x1 table"
        with pytest.raises(ExecutionError, match=msg):
            run_batch(fg, [{"x": Tensor.scalar(v)} for v in xs], [y])

    def test_batched_index_reads_near_integral_and_bad_tokens(self, monkeypatch):
        # A balanced 16-leaf tree's leaves form one batched group, whose
        # gather_row reads every leaf's token at once. A token within 1e-9 of
        # an integer reads that row; one further off, or a negative one, makes
        # the batched read raise, and the per-frame rerun names the leaf.
        cfg = ModelConfig("treernn", d=4, vocab=21, classes=2)
        m = build_recursive(cfg)
        tree = generate_synthetic("balanced", 16, 20, 2, np.random.default_rng(0))
        params = init_params(cfg, seed=0)
        seen = []  # per batched index read: whether it rounded, or its error
        bindices = kernels._bindices

        def recorded(x):
            try:
                out = bindices(x)
            except ValueError as exc:
                seen.append(str(exc))
                raise
            seen.append(x.reshape(-1).tolist() != out.tolist())  # rounded
            return out

        monkeypatch.setattr(kernels, "_bindices", recorded)

        def loss(token):
            feeds = make_feeds(m, tree)
            a = feeds["tokens"].a.copy()
            a[0, 0] = token(a[0, 0])  # node 0 is the leftmost leaf
            feeds["tokens"] = Tensor.from_array(a)
            seen.clear()
            return run(m.graph, feeds, [m.loss], RunOptions(), params).values[0].item()

        base = loss(lambda v: v)
        assert True not in seen
        assert loss(lambda v: v + 1e-12) == base
        assert seen.count(True) == 1
        fg = m.graph
        site = fg.bodies["Internal"].kinds.index("cond")  # the left child's call
        key = "/".join(
            map(str, [fg.top.kinds.index("invoke"), fg.bodies["Model"].kinds.index("cond")]
                + [site] * 4)
        )
        leaf = fg.bodies["Leaf"]
        gather = next(  # the embedding read, indexed by the token read
            i for i, k in enumerate(leaf.kinds)
            if k == "gather_row" and leaf.kinds[leaf.inputs[i][1]] == "gather_row"
        )
        with pytest.raises(ExecutionError, match=rf"node {gather} \(gather_row\) at key {key}: "
                           "expected an integral index"):
            loss(lambda v: v + 1e-6)
        assert "non-integral index in batch" in seen
        with pytest.raises(ExecutionError, match=rf"at key {key}: row -1 out of range"):
            loss(lambda v: -1.0)
        assert "negative index in batch" in seen

    def test_body_reads_captured_top_level_value_of_a_batched_group(self):
        # Eight instances run the top's segment as one batched group, so the
        # captured y = w x lies in a stack: each instance's template of F
        # holds its own row.
        g = Graph()
        w = g.parameter("w", (1, 1))
        x = g.placeholder((1, 1), "x")
        y = g.matmul(w, x)
        f = g.declare_subgraph("F", [(1, 1)], [(1, 1)])
        fb = g.body(f)
        fb.set_outputs([fb.matmul(y, fb.args[0])])
        g.define_subgraph(f, fb)
        loss = g.add(g.invoke(f, [x])[0], y)
        fg = g.finalize()
        xs = [float(k - 3) for k in range(executor._BATCH_MIN)]
        got = run_batch(fg, [{"x": Tensor.scalar(v)} for v in xs], [loss],
                        params={"w": Tensor.scalar(1.5)})
        assert [r.values[0].item() for r in got] == [1.5 * v * v + 1.5 * v for v in xs]

    def test_batched_gradient_reads_arguments_results_and_forward_values_from_stacks(
        self, monkeypatch
    ):
        # Ten balanced 16-leaf trees: every group runs batched. A batched
        # group keeps its exposed values in its record, so call arguments,
        # call results and a gradient's forward values are read as slices or
        # indexed rows of stacks, never stacked again from rows of a stack.
        # (The roots' arguments come from the fed root indices, one array per
        # instance.)
        cfg = ModelConfig("treelstm", d=4, vocab=12, classes=2)
        model = build_recursive(cfg)
        g, gm = differentiate(model.graph, model.loss, list(model.params.values()))
        params = init_params(cfg, seed=3, scale=0.3)
        rng = np.random.default_rng(7)
        trees = [generate_synthetic("balanced", 16, 10, 2, rng) for _ in range(10)]
        fetches = [gm.loss] + [gm.param_grads[n] for n in gm.param_order]
        restacked = Counter()
        restack = executor._restack

        def counted(body, i, xs):
            rows = any(getattr(x, "base", None) is not None and x.base.ndim == 3 for x in xs)
            restacked[body.kinds[i], "rows" if rows else "arrays"] += 1
            return restack(body, i, xs)

        monkeypatch.setattr(executor, "_restack", counted)
        batch = run_batch(g, [make_feeds(model, t) for t in trees], fetches, RunOptions(), params)
        assert restacked, "no value was stacked from frames"
        slots = {"fwd_value", "result", "invoke", "cond", "cond_grad"}
        args = {"input", "capture"}
        bad = [k for k in restacked if k[0] in slots or (k[0] in args and k[1] == "rows")]
        assert not bad, restacked
        for tree, res in zip(trees, batch):
            want_loss, want_grads = oracle_forward_backward("treelstm", params, tree)
            assert abs(res.values[0].item() - want_loss) <= 1e-9
            for name, got in zip(gm.param_order, res.values[1:]):
                want = want_grads[name]
                assert np.all(np.abs(_dense(got) - want) <= 1e-7 * np.abs(want) + 1e-9), name

    def test_mixed_shapes_gather_rows_from_several_records(self, monkeypatch):
        # Linear, moderate and balanced trees in one batch: a group's frames
        # find their values at rows out of order, and in the records of
        # several groups (a leaf child and an internal one, say). Results
        # are bit-identical at 1 and 3 threads, and match each tree's own
        # run and the oracle.
        cfg = ModelConfig("treelstm", d=4, vocab=12, classes=2, per_node_loss=True)
        model = build_recursive(cfg)
        g, gm = differentiate(model.graph, model.loss, list(model.params.values()))
        params = init_params(cfg, seed=2, scale=0.3)
        rng = np.random.default_rng(11)
        trees = [
            generate_synthetic(shape, leaves, 10, 2, rng)
            for shape, sizes in (("linear", (12, 9)), ("moderate", (16, 11)), ("balanced", (16, 8)))
            for leaves in sizes
        ]
        feeds = [make_feeds(model, t) for t in trees]
        fetches = [gm.loss] + [gm.param_grads[n] for n in gm.param_order]
        seen = Counter()
        pick = executor._pick

        def counted(where, i, k):
            seen["several"] += len(where) > 1
            seen["out of order"] += any(type(rows) is not slice for _, _, rows in where)
            return pick(where, i, k)

        monkeypatch.setattr(executor, "_pick", counted)
        one = run_batch(g, feeds, fetches, RunOptions(threads=1), params)
        three = run_batch(g, feeds, fetches, RunOptions(threads=3), params)
        assert seen["several"] and seen["out of order"], seen
        monkeypatch.setattr(executor, "_pick", pick)
        for tree, fd, r1, r3 in zip(trees, feeds, one, three):
            for a, b in zip(r1.values, r3.values):
                assert np.array_equal(_dense(a), _dense(b))
            single = run(g, fd, fetches, RunOptions(), params)
            want_loss, want_grads = oracle_forward_backward(
                "treelstm", params, tree, per_node_loss=True
            )
            assert abs(r1.values[0].item() - want_loss) <= 1e-9
            for name, got, alone in zip(gm.param_order, r1.values[1:], single.values[1:]):
                got, alone, want = _dense(got), _dense(alone), want_grads[name]
                assert np.abs(got - alone).max() <= 1e-12 * np.abs(alone).max(), name
                assert np.all(np.abs(got - want) <= 1e-7 * np.abs(want) + 1e-9), name

    def test_batched_read_of_a_member_its_group_ran_frame_by_frame(self, monkeypatch):
        # Internal's label gather is read by a later segment. When its
        # batched variant raises, its group computes it frame by frame, so
        # that group's record lacks it: a batched group that reads the label
        # finds the record, misses the member there, and reads the values
        # the frames hold. The losses stay bit-identical.
        cfg = ModelConfig("treelstm", d=4, vocab=12, classes=2, per_node_loss=True)
        params = init_params(cfg, seed=2, scale=0.3)
        rng = np.random.default_rng(11)
        trees = [
            generate_synthetic(shape, leaves, 10, 2, rng)
            for shape, sizes in (
                ("linear", (12, 9, 20, 14)), ("moderate", (16, 11, 24, 13)), ("balanced", (16, 8, 32, 4))
            )
            for leaves in sizes
        ]

        def losses(fail_at):
            model = build_recursive(cfg)
            body = model.graph.bodies["Internal"]

            def reads_labels(nd):
                t = body.nodes[nd.inputs[0]]
                return t.kind == "capture" and t.payload.graph.nodes[t.payload.id].payload == "labels"

            (nid,) = [nd.id for nd in body.nodes if nd.kind == "gather_row" and reads_labels(nd)]
            batched, calls = body.batched[nid], []

            def flaky(*ops):
                calls.append(None)
                if len(calls) == fail_at:
                    raise ValueError("batched gather declined")
                return batched(*ops)

            body.batched[nid] = flaky
            feeds = [make_feeds(model, t) for t in trees]
            return [r.values[0].a for r in run_batch(model.graph, feeds, [model.loss], RunOptions(), params)]

        want = losses(None)
        missed = []
        pick = executor._pick

        def spy(where, i, k):
            try:
                return pick(where, i, k)
            except KeyError:
                missed.append(i)
                raise

        monkeypatch.setattr(executor, "_pick", spy)
        got = losses(4)  # the 4th call's group is read by a later batched group
        assert missed
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_failure_in_batched_group_names_the_failing_frame(self, monkeypatch):
        # Fan(m, n) splits n times into Fan(2m, n-1) and Fan(2m+1, n-1), so
        # the 8 Pick frames of each instance gather rows 0-7, their indices
        # computed in their parents' batched groups. One instance's table
        # lacks row 7: the batched gather raises, the group reruns frame by
        # frame on rows of those groups' stacks, and the error names the one
        # failing frame, as a run with every group frame by frame does.
        g = Graph()
        pair = [(1, 1), (1, 1)]
        fan = g.declare_subgraph("Fan", pair, [(1, 1)])
        split = g.declare_subgraph("Split", pair, [(1, 1)])
        pick = g.declare_subgraph("Pick", pair, [(1, 1)])
        table = g.placeholder((None, 1), "table")
        fb = g.body(fan)
        m, n = fb.args
        fb.set_outputs(fb.cond(n, split, pick, [m, n]))
        g.define_subgraph(fan, fb)
        sb = g.body(split)
        m, n = sb.args
        left = sb.add(m, m)
        right = sb.add(left, sb.constant(Tensor.scalar(1.0)))
        down = sb.add(n, sb.constant(Tensor.scalar(-1.0)))
        (a,) = sb.invoke(fan, [left, down])
        (b,) = sb.invoke(fan, [right, down])
        sb.set_outputs([sb.add(a, b)])
        g.define_subgraph(split, sb)
        pb = g.body(pick)
        m, _ = pb.args
        pb.set_outputs([pb.tanh(pb.gather_row(table, m))])
        g.define_subgraph(pick, pb)
        x, depth = g.placeholder((1, 1), "x"), g.placeholder((1, 1), "depth")
        (y,) = g.invoke(fan, [x, depth])
        fg = g.finalize()

        body = fg.bodies["Pick"]
        gather = body.kinds.index("gather_row")
        tries = Counter()
        batched = body.batched[gather]

        def counted(*ops):
            tries["batched"] += 1
            return batched(*ops)

        body.batched[gather] = counted
        rows = np.arange(8.0).reshape(8, 1)
        feeds = [
            {"x": Tensor.scalar(0.0), "depth": Tensor.scalar(3.0), "table": Tensor.from_array(t)}
            for t in (rows, rows[:7])
        ]
        with pytest.raises(ExecutionError, match="row 7 out of range for 7x1 table") as batched_err:
            run_batch(fg, feeds, [y])
        assert tries["batched"] == 1
        monkeypatch.setattr(executor, "_BATCH_MIN", 1 << 30)
        with pytest.raises(ExecutionError) as per_frame_err:
            run_batch(fg, feeds, [y])
        assert tries["batched"] == 1
        assert str(batched_err.value) == str(per_frame_err.value)
        # the top's call, Fan's cond, then the right-hand call at each level
        (key,) = re.findall(r"at key (\S+):", str(batched_err.value))
        sites = key.split("/")
        assert len(sites) == 5 and len(set(sites[2:])) == 1

    def test_row_table_nodes_never_run_batched(self, monkeypatch):
        # The iterative TreeLSTM threads its states through row tables, and
        # no node whose value is a table has a batched variant. The
        # embedding's gradient is row gradients: finalize fuses each
        # `scatter_row` into its sink add, which stacks the dense row and
        # index and adds one row gradient per instance. So a 12-instance
        # gradient batch never tries to stack a table or row gradients
        # (each try raised and sent the group to its per-frame kernels or
        # adds).
        cfg = ModelConfig("treelstm", d=4, vocab=12, classes=2)
        model = build_iterative(cfg, 24)
        g, gm = differentiate(model.graph, model.loss, list(model.params.values()))
        sinks = [s for s in g.bodies["LeafStep__grad"].sinks if s is not None]
        assert [s.table for s in sinks if s.top == model.params["E"].id] == [(12, 4)]
        params = init_params(cfg, seed=3, scale=0.3)
        rng = np.random.default_rng(7)
        shapes = ("balanced", "linear", "moderate")
        trees = [generate_synthetic(shapes[i % 3], 8, 10, 2, rng) for i in range(12)]
        feeds = [make_feeds(model, t) for t in trees]
        fetches = [gm.loss] + [gm.param_grads[n] for n in gm.param_order]
        tries = Counter()
        operands = executor._operands

        def spy(body, ids, frames, stacks):
            rows = any(isinstance(f.values[i], (RowTable, RowGrads)) for i in ids for f in frames)
            tries["rows" if rows else "dense"] += 1
            return operands(body, ids, frames, stacks)

        monkeypatch.setattr(executor, "_operands", spy)
        batch = run_batch(g, feeds, fetches, RunOptions(), params)
        assert tries["dense"] and not tries["rows"]
        for tree, res in zip(trees, batch):
            want_loss, want_grads = oracle_forward_backward("treelstm", params, tree)
            assert abs(res.values[0].item() - want_loss) <= 1e-9
            for name, got in zip(gm.param_order, res.values[1:]):
                want = want_grads[name]
                assert np.all(np.abs(_dense(got) - want) <= 1e-7 * np.abs(want) + 1e-9), name

    def test_empty_batch_rejected(self):
        g, x, y = build_countdown()
        with pytest.raises(ValueError, match="empty"):
            run_batch(g.finalize(), [], [y])


def _two_site_sum():
    """d(loss)/d(b, p, q) for loss = wa + yb + wb, where (_, wa) = F(p, q),
    (yb, wb) = F(q, p) and F(x1, x2) = (tanh(x1 + b), tanh(x2 + b)).

    F__grad adds dz_y = tanh_bwd(g_y, y), its first output, to b's sink
    entry first, then dz_w. Site A drops y, so its gradient frame has no g_y:
    in a batched group dz_y is computed, and added, frame by frame. Either
    way the entry's first contribution is site B's dz_y, the value its frame
    returns as the gradient of q, and dz_w is added to the entry after it.
    """
    g = Graph()
    f = g.declare_subgraph("F", [(1, 1), (1, 1)], [(1, 1), (1, 1)])
    p, q = g.placeholder((1, 1), "p"), g.placeholder((1, 1), "q")
    b = g.parameter("b", (1, 1))
    fb = g.body(f)
    x1, x2 = fb.args
    fb.set_outputs([fb.tanh(fb.add(x1, b)), fb.tanh(fb.add(x2, b))])
    g.define_subgraph(f, fb)
    _, wa = g.invoke(f, [p, q])
    yb, wb = g.invoke(f, [q, p])
    loss = g.add(wa, g.add(yb, wb))
    fg, gm = differentiate(g.finalize(), loss, [b, p, q])
    body = fg.bodies["F__grad"]
    first, second = (s for s in body.sinks if s is not None)
    assert first.top == second.top == b.id and first.product is second.product is None
    assert first.ids[0] == body.outputs[0] and body.inputs[first.ids[0]][0] == body.arg_slots[0]
    return fg, [gm.loss] + [gm.param_grads[n] for n in ("b", "p", "q")]


class TestSinkOwnership:
    """A sink entry copies a frame's value and adds to its own copy, so a
    later contribution never changes the value the frame returned."""

    @pytest.mark.parametrize("instances", [1, 4])
    def test_first_contribution_is_a_frames_returned_value(self, instances):
        # One instance: F__grad's group holds 2 frames and runs its compiled
        # segment. Four: it holds 8 and runs batched.
        fg, fetches = _two_site_sum()
        pq = [(0.3 * i - 0.5, 0.2 - 0.4 * i) for i in range(instances)]
        b = 0.25
        feeds = [{"p": Tensor.scalar(p), "q": Tensor.scalar(q)} for p, q in pq]
        got = run_batch(fg, feeds, fetches, RunOptions(), {"b": Tensor.scalar(b)})
        compiled = fg.bodies["F__grad"].compiled
        assert all(c is None for c in compiled) == (instances == 4)
        for (p, q), res in zip(pq, got):
            assert res.frames["F__grad"] == 2
            for v in res.values:
                assert isinstance(v, Tensor) and not v.a.flags.writeable
            loss, db, dp, dq = (v.item() for v in res.values)
            tp, tq = np.tanh(p + b), np.tanh(q + b)
            assert loss == pytest.approx(tp + 2 * tq, rel=1e-12)
            assert dp == pytest.approx(1 - tp**2, rel=1e-12)
            assert dq == pytest.approx(2 * (1 - tq**2), rel=1e-12)
            assert db == pytest.approx(dp + dq, rel=1e-12)


def _member_loop_only(fg):
    """Make every segment of fg run its member loop, as groups of
    `_BATCH_MIN` frames and more do."""
    for body in [fg.top, *fg.bodies.values()]:
        body.compiled = [False] * len(body.compiled)
    return fg


def _compiled_segments(fg) -> list:
    return [c for body in [fg.top, *fg.bodies.values()] for c in body.compiled if c]


def _gradient_run(kind: str, compiled: bool, mode: str = "recursive"):
    """Loss and parameter gradients of a small-tree batch, where most groups
    hold fewer than `_BATCH_MIN` frames, and the graph that computed them."""
    cfg = ModelConfig(kind, d=4, vocab=12, classes=3, per_node_loss=True)
    rng = np.random.default_rng(9)
    trees = [
        generate_synthetic(shape, leaves, 10, 3, rng)
        for shape, leaves in (("linear", 5), ("moderate", 6), ("balanced", 4))
    ]
    if mode == "recursive":
        model = build_recursive(cfg)
    else:
        model = build_iterative(cfg, max(t.n_nodes for t in trees))
    g, gm = differentiate(model.graph, model.loss, list(model.params.values()))
    if not compiled:
        _member_loop_only(g)
    params = init_params(cfg, seed=4, scale=0.5)
    feeds = [make_feeds(model, t) for t in trees]
    fetches = [gm.loss] + [gm.param_grads[n] for n in gm.param_order]
    got = [run(g, f, fetches, RunOptions(), params).values for f in feeds]
    got.append([v for r in run_batch(g, feeds, fetches, RunOptions(), params) for v in r.values])
    return [[_dense(v) for v in vals] for vals in got], g


class TestCompiledSegments:
    """A group under `_BATCH_MIN` frames runs its segment as one generated
    function per frame; the member loop is the reference."""

    @pytest.mark.parametrize(
        "kind, mode",
        [
            pytest.param(kind, mode, id=kind if mode == "recursive" else f"{kind}-{mode}")
            for mode in ("recursive", "iterative")
            for kind in ("treernn", "rntn", "treelstm")
        ],
    )
    def test_compiled_matches_member_loop_bit_for_bit(self, kind, mode):
        got, g = _gradient_run(kind, True, mode)
        want, _ = _gradient_run(kind, False, mode)
        segs = _compiled_segments(g)
        assert any(b.label.endswith("__grad") and any(b.compiled) for b in g.bodies.values())
        if kind == "treelstm" and mode == "recursive":
            # two adds to bf's entry in one segment: one held back
            assert any(seg.deferred for seg in segs)
        if mode == "iterative":  # table and gradient-sum members run compiled too
            bodies = [g.top, *g.bodies.values()]
            ran = {b.kinds[m] for b in bodies for seg in b.compiled if seg for m in seg.members}
            assert {"table_get", "table_set", "table_adj_scatter", "grad_accum"} <= ran
        for a, b in zip(got, want):
            for x, y in zip(a, b):
                assert np.array_equal(x, y)

    def test_failure_names_the_member_loop_s_first_failure(self):
        # Pick(m) gathers row m (a first-wave member) and row m + 1 (a
        # second-wave one) of a 4-row table. Frame 0 (m = 3) fails only on
        # the second gather, frame 1 (m = 5) on the first. The member loop
        # runs the first wave for every frame first, so it names the first
        # gather, and so must a compiled group of the two frames.
        def build():
            g = Graph()
            pick = g.declare_subgraph("Pick", *scalar_sig())
            table = g.constant(Tensor.from_array(np.arange(4.0).reshape(4, 1)))
            pb = g.body(pick)
            (m,) = pb.args
            first = pb.gather_row(table, m)
            second = pb.gather_row(table, pb.add(m, pb.constant(Tensor.scalar(1.0))))
            pb.set_outputs([pb.add(first, second)])
            g.define_subgraph(pick, pb)
            x = g.placeholder((1, 1), "x")
            (y,) = g.invoke(pick, [x])
            return g.finalize(), y, first.id

        feeds = [{"x": Tensor.scalar(3.0)}, {"x": Tensor.scalar(5.0)}]
        msgs = []
        for compiled in (True, False):
            fg, y, first = build()
            if not compiled:
                _member_loop_only(fg)
            with pytest.raises(ExecutionError) as e:
                run_batch(fg, feeds, [y])
            msgs.append(str(e.value))
            assert compiled == bool(_compiled_segments(fg))
        assert msgs[0] == msgs[1]
        assert msgs[0].startswith(f"node {first} (gather_row) at key {y.id}: row 5 out of")

    def test_kernel_error_in_recursive_and_gradient_bodies(self, monkeypatch):
        # A leaf's token past the embedding table fails in the recursive
        # `Leaf` body; a failing tanh derivative fails in `Internal__grad`.
        # Either error names the node, kind and key the member loop names.
        orig = kernels._binary_fn

        def failing(tag):
            f = orig(tag)
            if tag != "tanh_bwd":
                return f

            def tanh_bwd(u, y):
                if u.shape[0] > 1:  # the cell's state, not the loss's
                    raise FloatingPointError("tanh_bwd failed")
                return f(u, y)

            return tanh_bwd

        monkeypatch.setattr(kernels, "_binary_fn", failing)
        cfg = ModelConfig("treernn", d=4, vocab=12, classes=2)
        params = init_params(cfg, seed=0, scale=0.3)
        tree = generate_synthetic("linear", 4, 10, 2, np.random.default_rng(0))
        msgs = {}
        for compiled in (True, False):
            model = build_recursive(cfg)
            g, gm = differentiate(model.graph, model.loss, list(model.params.values()))
            feeds = make_feeds(model, tree)
            bad = dict(feeds, tokens=Tensor.from_array(np.where(feeds["tokens"].a >= 0, 40, -1.0)))
            for name, fg, fd, fetches in (
                ("forward", model.graph, bad, [model.loss]),
                ("gradient", g, feeds, [gm.param_grads["W"]]),
            ):
                if not compiled:
                    _member_loop_only(fg)
                with pytest.raises(ExecutionError) as e:
                    run(fg, fd, fetches, RunOptions(), params)
                msgs.setdefault(name, []).append(str(e.value))
                assert compiled == bool(_compiled_segments(fg))
        assert msgs["forward"][0] == msgs["forward"][1]
        assert "(gather_row)" in msgs["forward"][0] and "row 40 out of range" in msgs["forward"][0]
        assert msgs["gradient"][0] == msgs["gradient"][1]
        assert re.match(r"node \d+ \(binary\) at key [\d/]+: tanh_bwd failed", msgs["gradient"][0])


def _stalling_countdown(stall: float):
    """F(n) counts n down to Base, which adds row `i` of a 3x1 table. Each
    Step stalls in two independent sleeps."""
    g = Graph()
    f = g.declare_subgraph("F", *scalar_sig())
    step = g.declare_subgraph("Step", *scalar_sig())
    base = g.declare_subgraph("Base", *scalar_sig())
    i = g.placeholder((1, 1), "i")
    fb = g.body(f)
    (n,) = fb.args
    fb.set_outputs(fb.cond(n, step, base, [n]))
    g.define_subgraph(f, fb)
    sb = g.body(step)
    (m,) = sb.args
    a = sb.unary(m, ("sleep", stall))
    b = sb.unary(m, ("sleep", stall))
    dec = sb.sub(sb.sub(sb.add(a, b), m), sb.constant(Tensor.scalar(1.0)))
    sb.set_outputs(sb.invoke(f, [dec]))
    g.define_subgraph(step, sb)
    bb = g.body(base)
    table = bb.constant(Tensor.from_array(np.array([[1.0], [2.0], [3.0]])))
    bb.set_outputs([bb.add(bb.args[0], bb.gather_row(table, i))])
    g.define_subgraph(base, bb)
    x = g.placeholder((1, 1), "x")
    (y,) = g.invoke(f, [x])
    return g.finalize(), y


def _countdown_to_table():
    """F(n) = n * F(n - 1) down to Base, which adds row `i` of the 3x1
    parameter table to its argument; differentiated for the table."""
    g = Graph()
    f = g.declare_subgraph("F", *scalar_sig())
    step = g.declare_subgraph("Step", *scalar_sig())
    base = g.declare_subgraph("Base", *scalar_sig())
    table = g.parameter("table", (3, 1))
    i = g.placeholder((1, 1), "i")
    fb = g.body(f)
    (n,) = fb.args
    fb.set_outputs(fb.cond(n, step, base, [n]))
    g.define_subgraph(f, fb)
    sb = g.body(step)
    (m,) = sb.args
    (rec,) = sb.invoke(f, [sb.add(m, sb.constant(Tensor.scalar(-1.0)))])
    sb.set_outputs([sb.hadamard(m, rec)])
    g.define_subgraph(step, sb)
    bb = g.body(base)
    bb.set_outputs([bb.add(bb.args[0], bb.gather_row(table, i))])
    g.define_subgraph(base, bb)
    (y,) = g.invoke(f, [g.placeholder((1, 1), "x")])
    fg, gm = differentiate(g.finalize(), y, [table])
    return fg, [gm.loss, gm.param_grads["table"]]


class TestStop:
    """A failed or timed-out run stops within a bound."""

    def test_timeout_stops_the_run(self):
        fg, y = _stalling_countdown(0.02)
        feeds = {"x": Tensor.scalar(100.0), "i": Tensor.scalar(0.0)}  # 2 s of stalls
        t0 = time.monotonic()
        with pytest.raises(ExecutionError, match="timed out after 0.2s"):
            run(fg, feeds, [y], RunOptions(threads=2, timeout_s=0.2))
        assert time.monotonic() - t0 < 1.0

    def test_kernel_error_in_one_instance_stops_the_batch(self):
        fg, y = _stalling_countdown(0.02)
        feeds = [
            {"x": Tensor.scalar(5.0), "i": Tensor.scalar(0.0)},
            {"x": Tensor.scalar(5.0), "i": Tensor.scalar(7.0)},  # no row 7
        ]
        assert run(fg, feeds[0], [y], RunOptions(threads=2)).values[0].item() == 1.0
        t0 = time.monotonic()
        with pytest.raises(ExecutionError, match=r"\(gather_row\) .*row 7 out of range"):
            run_batch(fg, feeds, [y], RunOptions(threads=2))
        assert time.monotonic() - t0 < 1.0

    def test_graph_runs_again_after_each_failure(self):
        # One graph fails at the depth guard, in a batched group (8 Base
        # frames, one row out of range) and in a compiled group (one Base
        # frame). After each failure it runs valid feeds bit-identically to a
        # freshly finalized graph: a failure leaves nothing on the graph.
        params = {"table": Tensor.from_array(np.array([[0.5], [-1.0], [2.0]]))}
        valid = [
            {"x": Tensor.scalar(float(1 + k % 3)), "i": Tensor.scalar(float(k % 3))}
            for k in range(9)
        ]

        def results(fg, fetches):
            rs = run_batch(fg, valid, fetches, RunOptions(), params)
            rs.append(run(fg, valid[0], fetches, RunOptions(), params))
            return [_dense(v) for r in rs for v in r.values]

        want = results(*_countdown_to_table())
        fg, fetches = _countdown_to_table()
        bad_row = [
            {"x": Tensor.scalar(2.0), "i": Tensor.scalar(7.0 if k == 5 else 1.0)} for k in range(8)
        ]
        failures = [
            ([{"x": Tensor.scalar(10.0), "i": Tensor.scalar(0.0)}],
             RunOptions(max_recursion_depth=4), "recursion depth 5 exceeds limit 4"),
            (bad_row, RunOptions(), r"\(gather_row\) at key .*row 7 out of range"),
            (bad_row[5:6], RunOptions(), r"\(gather_row\) at key .*row 7 out of range"),
        ]
        for feeds, opts, msg in failures:
            with pytest.raises(ExecutionError, match=msg):
                run_batch(fg, feeds, fetches, opts, params)
            got = results(fg, fetches)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestCache:
    """Gradient frames read forward values from the forward frame they
    mirror, which each forward call site records for its gradient call."""

    def test_sibling_frames_write_same_node_id(self):
        # one subgraph called at two sibling sites: its frames hold values at
        # the same node ids, and each site's gradient must read its own
        g = Graph()
        f = g.declare_subgraph("F", *scalar_sig())
        fb = g.body(f)
        (a,) = fb.args
        fb.set_outputs([fb.hadamard(fb.square(a), a)])  # a^3
        g.define_subgraph(f, fb)
        x = g.placeholder((1, 1), "x")
        u = g.placeholder((1, 1), "u")
        (y1,) = g.invoke(f, [x])
        (y2,) = g.invoke(f, [u])
        for _ in range(8):  # delay the first site's gradient past the second's
            y1 = g.neg(y1)
        loss = g.add(y1, y2)
        gfin, gm = differentiate(g.finalize(), loss, [x, u])
        feeds = {"x": Tensor.scalar(2.0), "u": Tensor.scalar(-3.0)}
        fetches = [gm.param_grads["x"], gm.param_grads["u"]]
        for threads in (1, 4):
            res = run(gfin, feeds, fetches, RunOptions(threads=threads))
            assert [v.item() for v in res.values] == [12.0, 27.0]  # 3x^2, 3u^2

    def test_second_gradient_call_for_one_forward_call_fails(self):
        g = Graph()
        f = g.declare_subgraph("F", *scalar_sig())
        fb = g.body(f)
        fb.set_outputs([fb.neg(fb.args[0])])
        g.define_subgraph(f, fb)
        x = g.placeholder((1, 1), "x")
        (y,) = g.invoke(f, [x])
        (a,) = g.invoke(f, [x], site=y.id)  # both mirror the call that made y
        (b,) = g.invoke(f, [x], site=y.id)
        fg = g.finalize()
        with pytest.raises(ExecutionError, match="mismatch: no forward frame for call site"):
            run(fg, {"x": Tensor.scalar(1.0)}, [a, b])

    def test_cache_released_after_run(self, monkeypatch):
        # with the cycle collector off, every forward frame of a
        # differentiated run is gone once the run returns
        g, x, y = build_countdown()
        gfin, gm = differentiate(g.finalize(), y, [x])
        refs = []
        orig_init = executor._Frame.__init__

        def spy(self, body, *args):
            orig_init(self, body, *args)
            if body.mirrors is None:
                refs.append(weakref.ref(self))

        monkeypatch.setattr(executor._Frame, "__init__", spy)
        gc.disable()
        try:
            res = run(gfin, {"x": Tensor.scalar(3.0)}, [gm.loss, gm.param_grads["x"]])
        finally:
            gc.enable()
        assert [v.item() for v in res.values] == [6.0, 11.0]  # x(x-1)(x-2), its derivative
        assert len(refs) == 6  # top, one F, three Step and one Base
        assert all(r() is None for r in refs)

    def test_popped_forward_frame_freed_in_its_round(self, monkeypatch):
        # every group holds 10 frames or more, so the forward values a
        # gradient frame reads lie in stacks; with the cycle collector off,
        # each forward frame a gradient call pops is gone by the end of the
        # round that popped it
        m = build_recursive(ModelConfig("treelstm", d=4, vocab=21, classes=2))
        g, gm = differentiate(m.graph, m.loss, list(m.params.values()))
        rng = np.random.default_rng(0)
        trees = [generate_synthetic("balanced", 16, 20, 2, rng) for _ in range(10)]
        spawn, run_round = executor._spawn, executor._round
        popped, seen, alive = [], [0], [0]

        def spy_spawn(state, s, parents, nid):
            if s.fwd_site is not None:
                popped.extend(weakref.ref(p.children[s.fwd_site]) for p in parents)
            spawn(state, s, parents, nid)

        def spy_round(state):
            run_round(state)
            seen[0] += len(popped)
            alive[0] += sum(r() is not None for r in popped)
            popped.clear()

        monkeypatch.setattr(executor, "_spawn", spy_spawn)
        monkeypatch.setattr(executor, "_round", spy_round)
        gc.disable()
        try:
            run_batch(g, [make_feeds(m, t) for t in trees], [gm.loss], RunOptions(),
                      init_params(m.config))
        finally:
            gc.enable()
        assert seen[0] == 320  # per tree: its 31 nodes' frames and the top's call
        assert alive[0] == 0


class TestTrace:
    def test_trace_rows_and_keys(self):
        g, x, y = build_countdown()
        fg = g.finalize()
        res = run(fg, {"x": Tensor.scalar(3.0)}, [y], RunOptions(threads=1, trace=True))
        assert res.trace
        for ts, wid, key, nid, op in res.trace:
            assert isinstance(ts, int) and isinstance(wid, int)
            assert isinstance(key, str) and isinstance(nid, int)
            assert isinstance(op, str)
        ops = [r[4] for r in res.trace]
        assert ops.count("invoke[F]") == 1  # the top's; Step runs F's cond itself
        assert ops.count("cond[Step,Base]") == 4  # F's + three recursive sites
        # timestamps are non-decreasing per worker
        by_worker = {}
        for ts, wid, *_ in res.trace:
            assert by_worker.get(wid, 0) <= ts
            by_worker[wid] = ts

    def test_gradient_frame_key_is_its_forward_frame_key(self):
        g, x, y = build_countdown()
        gfin, gm = differentiate(g.finalize(), y, [x])
        res = run(gfin, {"x": Tensor.scalar(3.0)}, [gm.param_grads["x"]], RunOptions(trace=True))

        def keys(op):
            return sorted(key for _, _, key, _, label in res.trace if label == op)

        assert len(keys("cond[Step,Base]")) == 4
        assert keys("cond_grad") == keys("cond[Step,Base]")

    def test_trace_off_by_default(self):
        g, x, y = build_countdown()
        fg = g.finalize()
        res = run(fg, {"x": Tensor.scalar(3.0)}, [y])
        assert res.trace == []

    def test_environment_does_not_turn_tracing_on(self, monkeypatch):
        # only the CLI reads RDG_TRACE; a library run traces when asked to
        monkeypatch.setenv("RDG_TRACE", "1")
        g, x, y = build_countdown()
        res = run(g.finalize(), {"x": Tensor.scalar(3.0)}, [y])
        assert res.trace == []
