"""Reverse-mode gradients: finite-difference oracles, recursion, cond routing.

The oracle here is central finite differences over plain numpy functions:
the same quantity the graph gradient claims to be, computed without touching
the graph machinery. Analytic closed forms (written from the chain rule by
hand) pin the exact cases.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdg import (
    BuildError,
    ExecutionError,
    Graph,
    RowGrads,
    RunOptions,
    Tensor,
    differentiate,
    run,
    run_batch,
    run_training_step,
)
from rdg.graph import CondGradPayload, Shape


def fd_grad(f, x0: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f at x0, entry by entry."""
    g = np.zeros_like(x0)
    it = np.nditer(x0, flags=["multi_index"])
    while not it.finished:
        i = it.multi_index
        xp = x0.copy()
        xm = x0.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


def grads_of(g, loss, wrt, feeds, params, threads=1):
    fg = g.finalize()
    gfin, gm = differentiate(fg, loss, wrt)
    return run_training_step(gfin, gm, feeds, params, RunOptions(threads=threads))


def build_power():
    """loss = w^3 * x via a recursive product: P(n) = w * P(n-1), P(0) = x."""
    g = Graph()
    w = g.parameter("w", (1, 1))
    x = g.placeholder((1, 1), "x")
    p = g.declare_subgraph("P", [(1, 1)], [(1, 1)])
    step = g.declare_subgraph("Step", [(1, 1)], [(1, 1)])
    base = g.declare_subgraph("Base", [(1, 1)], [(1, 1)])

    pb = g.body(p)
    (n,) = pb.args
    pb.set_outputs([pb.cond(n, step, base, [n])[0]])
    g.define_subgraph(p, pb)

    sb = g.body(step)
    (n,) = sb.args
    rec = sb.invoke(p, [sb.sub(n, sb.constant(Tensor.scalar(1.0)))])[0]
    sb.set_outputs([sb.matmul(w, rec)])
    g.define_subgraph(step, sb)

    bb = g.body(base)
    bb.set_outputs([x])
    g.define_subgraph(base, bb)

    loss = g.invoke(p, [g.constant(Tensor.scalar(3.0))])[0]
    return g, w, x, loss


class TestFiniteDifferenceOracle:
    def test_matmul_chain_matches_fd(self):
        rng = np.random.default_rng(7)
        w0 = rng.standard_normal((2, 3))
        x0 = rng.standard_normal((3, 1))

        def f(wm):
            y = wm @ x0
            return float((y.T @ y).item())

        want = fd_grad(f, w0)

        g = Graph()
        w = g.parameter("W", (2, 3))
        x = g.placeholder((3, 1), "x")
        y = g.matmul(w, x)
        loss = g.matmul(g.transpose(y), y)
        lv, grads = grads_of(
            g, loss, [w], {"x": Tensor.from_array(x0)}, {"W": Tensor.from_array(w0)}
        )
        assert abs(lv - f(w0)) < 1e-12
        np.testing.assert_allclose(grads["W"].a, want, rtol=1e-6, atol=1e-9)

    def test_softmax_cross_entropy_matches_fd(self):
        logits0 = np.array([[0.5, -1.0, 2.0, 0.1]])
        label = 2

        def f(lg):
            z = lg - lg.max()
            logp = z - np.log(np.exp(z).sum())
            return float(-logp[0, label])

        want = fd_grad(f, logits0)

        g = Graph()
        p = g.parameter("p", (1, 4))
        loss = g.softmax_xent(p, g.constant(Tensor.scalar(float(label))))
        lv, grads = grads_of(g, loss, [p], {}, {"p": Tensor.from_array(logits0)})
        assert abs(lv - f(logits0)) < 1e-12
        np.testing.assert_allclose(grads["p"].a, want, rtol=1e-6, atol=1e-9)

    def test_elementwise_ops_match_fd(self):
        rng = np.random.default_rng(3)
        a0 = rng.standard_normal((3, 1))
        b0 = rng.standard_normal((3, 1))

        def f(av):
            u = np.tanh(av) * b0 + np.square(av - b0)
            s = 1 / (1 + np.exp(-u))
            return float(s.sum())

        want = fd_grad(f, a0)

        g = Graph()
        a = g.parameter("a", (3, 1))
        b = g.placeholder((3, 1), "b")
        u = g.add(g.hadamard(g.tanh(a), b), g.square(g.sub(a, b)))
        s = g.sigmoid(u)
        loss = g.matmul(g.transpose(s), g.constant(Tensor.ones(3, 1)))
        lv, grads = grads_of(
            g, loss, [a], {"b": Tensor.from_array(b0)}, {"a": Tensor.from_array(a0)}
        )
        assert abs(lv - f(a0)) < 1e-12
        np.testing.assert_allclose(grads["a"].a, want, rtol=1e-6, atol=1e-9)


class TestAnalytic:
    def test_tanh_chain_against_math_module(self):
        wv, xv = 0.7, -1.3
        g = Graph()
        w = g.parameter("w", (1, 1))
        x = g.placeholder((1, 1), "x")
        loss = g.tanh(g.tanh(g.matmul(w, x)))
        lv, grads = grads_of(
            g, loss, [w, x], {"x": Tensor.scalar(xv)}, {"w": Tensor.scalar(wv)}
        )
        t1 = math.tanh(wv * xv)
        t2 = math.tanh(t1)
        dw = (1 - t2 * t2) * (1 - t1 * t1) * xv
        dx = (1 - t2 * t2) * (1 - t1 * t1) * wv
        assert abs(lv - t2) < 1e-15
        assert abs(grads["w"].item() - dw) < 1e-12
        assert abs(grads["x"].item() - dx) < 1e-12

    def test_fanout_accumulates_both_paths(self):
        g = Graph()
        w = g.parameter("w", (1, 1))
        x = g.placeholder((1, 1), "x")
        y = g.matmul(w, x)
        loss = g.add(g.square(y), y)  # dL/dw = (2wx + 1) x
        lv, grads = grads_of(
            g, loss, [w], {"x": Tensor.scalar(3.0)}, {"w": Tensor.scalar(2.0)}
        )
        assert lv == 42.0
        assert grads["w"].item() == (2 * 6 + 1) * 3

    def test_unreachable_parameter_gets_exact_zeros(self):
        g = Graph()
        w = g.parameter("w", (2, 2))
        u = g.parameter("unused", (3, 1))
        x = g.placeholder((2, 1), "x")
        y = g.matmul(w, x)
        loss = g.matmul(g.transpose(y), y)
        lv, grads = grads_of(
            g,
            loss,
            [w, u],
            {"x": Tensor(2, 1, [1.0, 2.0])},
            {"w": Tensor.eye(2), "unused": Tensor.ones(3, 1)},
        )
        assert np.array_equal(grads["unused"].a, np.zeros((3, 1)))

    def test_concat_rows_gradient(self):
        g = Graph()
        a = g.parameter("a", (2, 1))
        b = g.parameter("b", (3, 1))
        c = g.concat_rows(a, b)
        loss = g.matmul(g.transpose(c), c)  # sum of squares
        av = Tensor(2, 1, [1.0, -2.0])
        bv = Tensor(3, 1, [3.0, 0.5, -1.0])
        lv, grads = grads_of(g, loss, [a, b], {}, {"a": av, "b": bv})
        np.testing.assert_array_equal(grads["a"].a, 2 * av.a)
        np.testing.assert_array_equal(grads["b"].a, 2 * bv.a)


class TestRecursion:
    @pytest.mark.parametrize("threads", [1, 2, 8])
    def test_shared_weight_through_recursion(self, threads):
        g, w, x, loss = build_power()
        lv, grads = grads_of(
            g,
            loss,
            [w, x],
            {"x": Tensor.scalar(5.0)},
            {"w": Tensor.scalar(2.0)},
            threads=threads,
        )
        assert lv == 40.0  # w^3 x
        assert grads["w"].item() == 60.0  # 3 w^2 x
        assert grads["x"].item() == 8.0  # w^3

    def test_backward_frames_mirror_forward(self):
        g, w, x, loss = build_power()
        fg = g.finalize()
        gfin, gm = differentiate(fg, loss, [w, x])
        fetches = [gm.loss, gm.param_grads["w"], gm.param_grads["x"]]
        res = run(
            gfin, {"x": Tensor.scalar(5.0)}, fetches, params={"w": Tensor.scalar(2.0)}
        )
        f = res.frames
        assert f["P"] == 4 and f["Step"] == 3 and f["Base"] == 1
        assert f["P__grad"] == f["P"]
        assert f["Step__grad"] == f["Step"]
        assert f["Base__grad"] == f["Base"]

    def test_gradient_graph_mirrors_call_structure(self):
        g, w, x, loss = build_power()
        fg = g.finalize()
        gfin, gm = differentiate(fg, loss, [w, x])
        dump = gfin.dump()
        step_grad = dump.split("subgraph Step__grad:")[1].split("subgraph")[0]
        assert "invoke[P__grad]" in step_grad
        assert step_grad.count("fwd_value[") == 1  # one value read from Step's frame
        assert "cache_" not in dump
        p_grad = dump.split("subgraph P__grad:")[1].split("subgraph")[0]
        assert "cond_grad[Step__grad,Base__grad]" in p_grad

    def test_forward_graph_unchanged_and_still_runs(self):
        g, w, x, loss = build_power()
        fg = g.finalize()
        n_nodes = len(fg.graph.nodes)
        dump = fg.dump()
        differentiate(fg, loss, [w])
        assert len(fg.graph.nodes) == n_nodes
        assert fg.dump() == dump
        res = run(fg, {"x": Tensor.scalar(5.0)}, [loss], params={"w": Tensor.scalar(2.0)})
        assert res.values[0].item() == 40.0

    def test_differentiate_is_deterministic(self):
        g1, w1, x1, l1 = build_power()
        g2, w2, x2, l2 = build_power()
        d1, _ = differentiate(g1.finalize(), l1, [w1, x1])
        d2, _ = differentiate(g2.finalize(), l2, [w2, x2])
        assert d1.dump() == d2.dump()

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=6),
        wv=st.floats(min_value=-1.5, max_value=1.5),
        xv=st.floats(min_value=-2.0, max_value=2.0),
    )
    def test_power_rule_property(self, n, wv, xv):
        g, w, x, loss = build_power()
        # swap the constant depth for the drawn one
        g2 = Graph()
        w2 = g2.parameter("w", (1, 1))
        x2 = g2.placeholder((1, 1), "x")
        p = g2.declare_subgraph("P", [(1, 1)], [(1, 1)])
        step = g2.declare_subgraph("Step", [(1, 1)], [(1, 1)])
        base = g2.declare_subgraph("Base", [(1, 1)], [(1, 1)])
        pb = g2.body(p)
        pb.set_outputs([pb.cond(pb.args[0], step, base, [pb.args[0]])[0]])
        g2.define_subgraph(p, pb)
        sb = g2.body(step)
        rec = sb.invoke(p, [sb.sub(sb.args[0], sb.constant(Tensor.scalar(1.0)))])[0]
        sb.set_outputs([sb.matmul(w2, rec)])
        g2.define_subgraph(step, sb)
        bb = g2.body(base)
        bb.set_outputs([x2])
        g2.define_subgraph(base, bb)
        loss2 = g2.invoke(p, [g2.constant(Tensor.scalar(float(n)))])[0]
        lv, grads = grads_of(
            g2,
            loss2,
            [w2, x2],
            {"x": Tensor.scalar(xv)},
            {"w": Tensor.scalar(wv)},
            threads=2,
        )
        assert lv == pytest.approx(wv**n * xv, rel=1e-9, abs=1e-12)
        dw = n * wv ** (n - 1) * xv if n > 0 else 0.0
        assert grads["w"].item() == pytest.approx(dw, rel=1e-9, abs=1e-12)
        assert grads["x"].item() == pytest.approx(wv**n, rel=1e-9, abs=1e-12)


    @pytest.mark.parametrize("threads", [1, 2])
    def test_nested_body_captures_enclosing_body_node(self, threads):
        # loss = w x^2: Outer computes y = w x, and Inner, a body nested in
        # Outer, captures y and returns y x
        g = Graph()
        w = g.parameter("w", (1, 1))
        x = g.placeholder((1, 1), "x")
        outer = g.declare_subgraph("Outer", [(1, 1)], [(1, 1)])
        inner = g.declare_subgraph("Inner", [(1, 1)], [(1, 1)])
        ob = g.body(outer)
        (xo,) = ob.args
        y = ob.matmul(w, xo)
        ib = ob.body(inner)
        (xi,) = ib.args
        ib.set_outputs([ib.matmul(y, xi)])
        g.define_subgraph(inner, ib)
        ob.set_outputs(ob.invoke(inner, [xo]))
        g.define_subgraph(outer, ob)
        loss = g.invoke(outer, [x])[0]
        wv, xv = 1.5, -2.0
        lv, grads = grads_of(
            g, loss, [w, x], {"x": Tensor.scalar(xv)}, {"w": Tensor.scalar(wv)}, threads
        )
        assert lv == wv * xv * xv
        assert grads["w"].item() == xv * xv
        assert grads["x"].item() == 2 * wv * xv

    def test_body_captures_top_level_computed_node(self):
        # loss = w x^2 + w x: F captures the top-level node y = w x
        g = Graph()
        w = g.parameter("w", (1, 1))
        x = g.placeholder((1, 1), "x")
        y = g.matmul(w, x)
        f = g.declare_subgraph("F", [(1, 1)], [(1, 1)])
        fb = g.body(f)
        fb.set_outputs([fb.matmul(y, fb.args[0])])
        g.define_subgraph(f, fb)
        loss = g.add(g.invoke(f, [x])[0], y)
        lv, grads = grads_of(
            g, loss, [w, x], {"x": Tensor.scalar(-2.0)}, {"w": Tensor.scalar(1.5)}
        )
        assert lv == 3.0
        assert grads["w"].item() == 4.0 - 2.0  # x^2 + x
        assert grads["x"].item() == -6.0 + 1.5  # 2 w x + w

    def test_invoke_of_subgraph_without_inputs(self):
        # loss = (u tanh(W v))^2 computed by F, which takes no inputs and
        # captures only W: F__grad has no outputs, so the gradient call is a
        # call node alone, and its sink adds are all W's gradient
        g = Graph()
        w = g.parameter("W", (2, 2))
        f = g.declare_subgraph("F", [], [(1, 1)])
        fb = g.body(f)
        u = fb.constant(Tensor.from_rows([[0.5, -1.0]]))
        v = fb.constant(Tensor.from_rows([[2.0], [0.25]]))
        fb.set_outputs([fb.square(fb.matmul(u, fb.tanh(fb.matmul(w, v))))])
        g.define_subgraph(f, fb)
        (loss,) = g.invoke(f, [])
        gfin, gm = differentiate(g.finalize(), loss, [w])
        w0 = np.array([[0.3, -0.2], [0.1, 0.7]])
        uv, vv = np.array([[0.5, -1.0]]), np.array([[2.0], [0.25]])

        def f_np(wa):
            return float((uv @ np.tanh(wa @ vv))[0, 0] ** 2)

        lv, grads = run_training_step(
            gfin, gm, {}, {"W": Tensor(2, 2, w0.ravel())}, RunOptions(debug=True)
        )
        assert lv == pytest.approx(f_np(w0), rel=1e-12)
        np.testing.assert_allclose(grads["W"].a, fd_grad(f_np, w0), rtol=1e-6, atol=1e-9)


class TestCondRouting:
    def test_untaken_branch_parameter_gets_exact_zeros(self):
        g = Graph()
        a = g.parameter("a", (1, 1))
        b = g.parameter("b", (1, 1))
        pick = g.placeholder((1, 1), "pick")
        use_a = g.declare_subgraph("UseA", [(1, 1)], [(1, 1)])
        use_b = g.declare_subgraph("UseB", [(1, 1)], [(1, 1)])
        ba = g.body(use_a)
        ba.set_outputs([ba.matmul(a, ba.square(ba.args[0]))])
        g.define_subgraph(use_a, ba)
        bb = g.body(use_b)
        bb.set_outputs([bb.matmul(b, bb.args[0])])
        g.define_subgraph(use_b, bb)
        out = g.cond(pick, use_a, use_b, [g.constant(Tensor.scalar(3.0))])[0]
        loss = g.square(out)
        fg = g.finalize()
        gfin, gm = differentiate(fg, loss, [a, b])
        params = {"a": Tensor.scalar(2.0), "b": Tensor.scalar(5.0)}

        lv, grads = run_training_step(gfin, gm, {"pick": Tensor.scalar(1.0)}, params)
        # then branch: loss = (a 3^2)^2 -> da = 2 a 81, db = 0 exactly
        assert lv == (2.0 * 9.0) ** 2
        assert grads["a"].item() == 2 * 2.0 * 81.0
        assert np.array_equal(grads["b"].a, np.zeros((1, 1)))

        lv, grads = run_training_step(gfin, gm, {"pick": Tensor.scalar(0.0)}, params)
        # else branch: loss = (b 3)^2 -> db = 2 b 9, da = 0 exactly
        assert lv == 225.0
        assert grads["b"].item() == 2 * 5.0 * 9.0
        assert np.array_equal(grads["a"].a, np.zeros((1, 1)))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_branches_capturing_different_body_nodes(self, threads):
        # Outer computes y1 = W1 x and y2 = W2 x, then conds between Use1,
        # which captures y1, and Use2, which captures y2. The cond gradient
        # returns x's gradient and each branch's capture gradient in slots
        # of their own; the untaken branch's slot gets no gradient.
        g = Graph()
        w1 = g.parameter("w1", (2, 2))
        w2 = g.parameter("w2", (2, 2))
        x = g.placeholder((2, 1), "x")
        pick = g.placeholder((1, 1), "pick")
        outer = g.declare_subgraph("Outer", [(2, 1)], [(2, 1)])
        use1 = g.declare_subgraph("Use1", [(2, 1)], [(2, 1)])
        use2 = g.declare_subgraph("Use2", [(2, 1)], [(2, 1)])
        ob = g.body(outer)
        (xo,) = ob.args
        y1 = ob.matmul(w1, xo)
        y2 = ob.matmul(w2, xo)
        b1 = ob.body(use1)
        b1.set_outputs([b1.hadamard(b1.tanh(y1), b1.args[0])])
        g.define_subgraph(use1, b1)
        b2 = ob.body(use2)
        b2.set_outputs([b2.sub(b2.square(y2), b2.args[0])])
        g.define_subgraph(use2, b2)
        ob.set_outputs(ob.cond(pick, use1, use2, [xo]))
        g.define_subgraph(outer, ob)
        out = g.invoke(outer, [x])[0]
        loss = g.matmul(g.transpose(out), out)
        gfin, gm = differentiate(g.finalize(), loss, [w1, w2, x])

        def ref(w1v, w2v, xv, taken):
            o = np.tanh(w1v @ xv) * xv if taken else np.square(w2v @ xv) - xv
            return float((o.T @ o)[0, 0])

        rng = np.random.default_rng(3)
        vals = {"w1": rng.normal(size=(2, 2)), "w2": rng.normal(size=(2, 2))}
        xv = rng.normal(size=(2, 1))
        params = {k: Tensor.from_array(v) for k, v in vals.items()}
        opts = RunOptions(threads=threads)
        feeds = [{"x": Tensor.from_array(xv), "pick": Tensor.scalar(p)} for p in (1.0, 0.0)]
        fetches = [gm.loss] + [gm.param_grads[n] for n in ("w1", "w2", "x")]
        batch = run_batch(gfin, feeds, fetches, opts, params)  # both branches in one group
        for taken, fd, res in zip((True, False), feeds, batch):
            lv, grads = run_training_step(gfin, gm, fd, params, opts)
            assert lv == pytest.approx(ref(vals["w1"], vals["w2"], xv, taken), rel=1e-12)
            want = {
                "w1": fd_grad(lambda a: ref(a, vals["w2"], xv, taken), vals["w1"]),
                "w2": fd_grad(lambda a: ref(vals["w1"], a, xv, taken), vals["w2"]),
                "x": fd_grad(lambda a: ref(vals["w1"], vals["w2"], a, taken), xv),
            }
            for name, got in zip(("w1", "w2", "x"), res.values[1:]):
                assert np.array_equal(got.a, grads[name].a), name
                np.testing.assert_allclose(got.a, want[name], rtol=1e-6, atol=1e-8)
            untaken = "w2" if taken else "w1"
            assert np.array_equal(grads[untaken].a, np.zeros((2, 2)))

    def test_missing_branch_record_is_reported(self):
        g = Graph()
        ga = g.declare_subgraph("GA", [(1, 1)], [(1, 1)])
        gb = g.declare_subgraph("GB", [(1, 1)], [(1, 1)])
        for ref in (ga, gb):
            b = g.body(ref)
            b.set_outputs([b.args[0]])
            g.define_subgraph(ref, b)
        dout = g.constant(Tensor.scalar(1.0))
        bad = g.add_node(
            "cond_grad",
            (dout,),
            payload=CondGradPayload(
                cond_site=99,
                then_name="GA",
                else_name="GB",
                n_args=1,
                cap_counts=(0, 0),
                then_slots=(0,),
                else_slots=(0,),
            ),
            shape=Shape(1, 1),
        )
        fg = g.finalize()
        with pytest.raises(
            ExecutionError, match="forward/backward mismatch: no branch record"
        ):
            run(fg, {}, [bad])


class TestSparseAndTables:
    def test_gather_rows_builds_sparse_row_gradient(self):
        g = Graph()
        e = g.parameter("E", (5, 3))
        r = g.add(
            g.add(
                g.gather_row(e, g.constant(Tensor.scalar(2.0))),
                g.gather_row(e, g.constant(Tensor.scalar(2.0))),
            ),
            g.gather_row(e, g.constant(Tensor.scalar(4.0))),
        )
        loss = g.matmul(r, g.constant(Tensor.ones(3, 1)))
        ev = Tensor.from_array(np.arange(15.0).reshape(5, 3))
        fg = g.finalize()
        gfin, gm = differentiate(fg, loss, [e])
        lv, grads = run_training_step(gfin, gm, {}, {"E": ev})
        de = grads["E"]
        assert isinstance(de, RowGrads)
        assert len(de.entries) == 3
        dense = de.to_dense().a
        want = np.zeros((5, 3))
        want[2] = 2.0  # same row gathered twice: contributions sum
        want[4] = 1.0
        np.testing.assert_array_equal(dense, want)

    def test_overwritten_table_slot_gets_no_gradient(self):
        from rdg import RowTable

        g = Graph()
        a = g.parameter("a", (1, 1))
        b = g.parameter("b", (1, 1))
        t0 = g.constant(RowTable.zeros(3, 1))
        i = g.constant(Tensor.scalar(0.0))
        t1 = g.table_set(t0, i, a)
        t2 = g.table_set(t1, i, b)  # overwrites slot 0: cuts a's path
        loss = g.square(g.table_get(t2, i))
        lv, grads = grads_of(
            g, loss, [a, b], {}, {"a": Tensor.scalar(7.0), "b": Tensor.scalar(4.0)}
        )
        assert lv == 16.0
        assert np.array_equal(grads["a"].a, np.zeros((1, 1)))
        assert grads["b"].item() == 8.0

    def test_chain_through_table_reads_and_writes(self):
        from rdg import RowTable

        g = Graph()
        w = g.parameter("w", (1, 1))
        a = g.parameter("a", (1, 1))
        t0 = g.constant(RowTable.zeros(3, 1))
        t1 = g.table_set(t0, g.constant(Tensor.scalar(0.0)), a)
        h1 = g.table_get(t1, g.constant(Tensor.scalar(0.0)))
        t2 = g.table_set(t1, g.constant(Tensor.scalar(1.0)), g.matmul(w, h1))
        loss = g.square(g.table_get(t2, g.constant(Tensor.scalar(1.0))))
        lv, grads = grads_of(
            g, loss, [w, a], {}, {"w": Tensor.scalar(3.0), "a": Tensor.scalar(2.0)}
        )
        assert lv == 36.0  # (w a)^2
        assert grads["w"].item() == 24.0  # 2 w a^2
        assert grads["a"].item() == 36.0  # 2 w^2 a


class TestContracts:
    def test_non_scalar_loss_rejected(self):
        g = Graph()
        w = g.parameter("w", (2, 1))
        fg = g.finalize()
        with pytest.raises(BuildError, match="loss must be 1x1"):
            differentiate(fg, w, [w])

    def test_foreign_loss_rejected(self):
        g1 = Graph()
        w1 = g1.parameter("w", (1, 1))
        loss1 = g1.square(w1)
        g1.finalize()
        g2 = Graph()
        g2.parameter("w", (1, 1))
        fg2 = g2.finalize()
        with pytest.raises(BuildError, match="does not belong"):
            differentiate(fg2, loss1, [w1])

    def test_wrt_must_be_parameter_or_placeholder(self):
        g = Graph()
        w = g.parameter("w", (1, 1))
        c = g.constant(Tensor.scalar(2.0))
        loss = g.square(g.matmul(w, c))
        fg = g.finalize()
        with pytest.raises(BuildError, match="gradients are taken for"):
            differentiate(fg, loss, [c])

    def test_gradient_of_gradient_rejected(self):
        g = Graph()
        w = g.parameter("w", (1, 1))
        loss = g.square(w)
        fg = g.finalize()
        gfin, gm = differentiate(fg, loss, [w])
        with pytest.raises(BuildError, match="gradient of a gradient"):
            differentiate(gfin, gm.loss, [gm.loss])

    def test_op_without_derivative_rule_is_named(self):
        g = Graph()
        w = g.parameter("w", (3, 1))
        s = g.slice_rows(w, 0, 1)
        loss = g.square(s)
        fg = g.finalize()
        with pytest.raises(BuildError, match="slice_rows"):
            differentiate(fg, loss, [w])
