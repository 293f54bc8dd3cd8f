"""Tree models: hand-computed cases, oracle gradients, and dual-route checks.

Layered evidence, most independent first:

1. forward values recomputed by hand, inline, with raw numpy — no shared code
   with either the reference implementation or the graph builders;
2. the reference implementation's hand-written backward checked against
   central finite differences of its own forward;
3. the same loss and gradients computed three ways — reference, recursive
   graph, unrolled iterative graph — which share nothing but the parameter
   dictionary and must agree to near machine precision.
"""

import math

import numpy as np
import pytest

from rdg import (
    RowGrads, RunOptions, Tensor, differentiate, executor, run, run_training_step,
)
from rdg.data import TreeInstance, Vocab, generate_synthetic
from rdg.models import (
    CapacityError,
    ModelConfig,
    build_iterative,
    build_recursive,
    init_params,
    load_checkpoint,
    make_feeds,
    param_shapes,
    save_checkpoint,
)
from rdg.oracle import oracle_forward, oracle_forward_backward

MODEL_KINDS = ("treernn", "rntn", "treelstm")


def _dense(g) -> np.ndarray:
    if isinstance(g, RowGrads):
        return g.to_dense().a
    return g.a


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def three_node_tree(tok_l=1, tok_r=2, labels=(0, 1, 1)) -> TreeInstance:
    return TreeInstance(
        labels=labels,
        tokens=(tok_l, tok_r, -1),
        lefts=(-1, -1, 0),
        rights=(-1, -1, 1),
        root=2,
    )


def single_leaf_tree(tok=1, label=1) -> TreeInstance:
    return TreeInstance(labels=(label,), tokens=(tok,), lefts=(-1,), rights=(-1,), root=0)


def tiny_treernn_params() -> dict[str, Tensor]:
    """Fixed, literal parameters for d=2, vocab=3, classes=2."""
    return {
        "E": Tensor.from_array(np.array([[0.1, 0.2], [0.3, -0.1], [-0.2, 0.4]])),
        "W": Tensor.from_array(
            np.array([[0.2, -0.3, 0.1, 0.5], [-0.1, 0.4, 0.2, -0.2]])
        ),
        "b": Tensor.from_array(np.array([[0.05], [-0.1]])),
        "Ws": Tensor.from_array(np.array([[0.3, -0.2], [0.1, 0.4]])),
        "bs": Tensor.from_array(np.array([[0.02], [-0.03]])),
    }


class TestByHand:
    """Forward values recomputed inline with raw numpy."""

    def test_treernn_three_nodes(self):
        p = tiny_treernn_params()
        t = three_node_tree()

        E, W, b = p["E"].a, p["W"].a, p["b"].a
        h0 = np.tanh(E[1].reshape(2, 1))
        h1 = np.tanh(E[2].reshape(2, 1))
        h = np.tanh(W @ np.vstack([h0, h1]) + b)
        z = (p["Ws"].a @ h + p["bs"].a).reshape(-1)
        want_loss = -math.log(_softmax(z)[1])

        loss, logits = oracle_forward("treernn", p, t)
        assert abs(loss - want_loss) < 1e-12
        np.testing.assert_allclose(logits, z, rtol=0, atol=1e-12)

    def test_single_leaf_loss_formula(self):
        p = tiny_treernn_params()
        t = single_leaf_tree(tok=2, label=0)

        h = np.tanh(p["E"].a[2].reshape(2, 1))
        z = (p["Ws"].a @ h + p["bs"].a).reshape(-1)
        # independent route: loss = logsumexp(z) - z[label]
        m = z.max()
        want_loss = m + math.log(np.exp(z - m).sum()) - z[0]

        loss, logits = oracle_forward("treernn", p, t)
        assert abs(loss - want_loss) < 1e-12
        np.testing.assert_allclose(logits, z, atol=1e-12)

    def test_per_node_loss_sums_every_node(self):
        p = tiny_treernn_params()
        t = three_node_tree(labels=(0, 1, 1))

        E, W, b, Ws, bs = (p[k].a for k in ("E", "W", "b", "Ws", "bs"))
        h0 = np.tanh(E[1].reshape(2, 1))
        h1 = np.tanh(E[2].reshape(2, 1))
        h2 = np.tanh(W @ np.vstack([h0, h1]) + b)
        want = 0.0
        for h, lab in ((h0, 0), (h1, 1), (h2, 1)):
            z = (Ws @ h + bs).reshape(-1)
            want += -math.log(_softmax(z)[lab])

        loss, _ = oracle_forward("treernn", p, t, per_node_loss=True)
        assert abs(loss - want) < 1e-12

    def test_rntn_adds_bilinear_rows(self):
        p = tiny_treernn_params()
        rng = np.random.default_rng(0)
        p = dict(p)
        p["V_0"] = Tensor.from_array(rng.uniform(-0.2, 0.2, (4, 4)))
        p["V_1"] = Tensor.from_array(rng.uniform(-0.2, 0.2, (4, 4)))
        t = three_node_tree()

        E, W, b = p["E"].a, p["W"].a, p["b"].a
        h0 = np.tanh(E[1].reshape(2, 1))
        h1 = np.tanh(E[2].reshape(2, 1))
        x = np.vstack([h0, h1])
        q = np.array(
            [[(x.T @ p["V_0"].a @ x).item()], [(x.T @ p["V_1"].a @ x).item()]]
        )
        h = np.tanh(W @ x + b + q)
        z = (p["Ws"].a @ h + p["bs"].a).reshape(-1)
        want_loss = -math.log(_softmax(z)[1])

        loss, logits = oracle_forward("rntn", p, t)
        assert abs(loss - want_loss) < 1e-12
        np.testing.assert_allclose(logits, z, atol=1e-12)

    def test_treelstm_three_nodes(self):
        cfg = ModelConfig("treelstm", d=2, vocab=3, classes=2)
        p = init_params(cfg, seed=4, scale=0.3)
        for name in ("bi", "bf", "bo", "bu"):  # nonzero biases bite harder
            p[name] = Tensor.from_array(np.full((2, 1), 0.1 * (ord(name[1]) % 5)))
        t = three_node_tree()

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        def leaf(tok):
            xw = p["E"].a[tok].reshape(2, 1)
            i = sig(p["Wi"].a @ xw + p["bi"].a)
            o = sig(p["Wo"].a @ xw + p["bo"].a)
            u = np.tanh(p["Wu"].a @ xw + p["bu"].a)
            c = i * u
            return sig(p["Wo"].a @ xw + p["bo"].a) * np.tanh(c), c

        (h0, c0), (h1, c1) = leaf(1), leaf(2)
        x = np.vstack([h0, h1])
        i = sig(p["Ui"].a @ x + p["bi"].a)
        fl = sig(p["Ufl"].a @ x + p["bf"].a)
        fr = sig(p["Ufr"].a @ x + p["bf"].a)
        o = sig(p["Uo"].a @ x + p["bo"].a)
        u = np.tanh(p["Uu"].a @ x + p["bu"].a)
        c = i * u + fl * c0 + fr * c1
        h = o * np.tanh(c)
        z = (p["Ws"].a @ h + p["bs"].a).reshape(-1)
        want_loss = -math.log(_softmax(z)[1])

        loss, logits = oracle_forward("treelstm", p, t)
        assert abs(loss - want_loss) < 1e-12
        np.testing.assert_allclose(logits, z, atol=1e-12)


class TestOracleGradientsAgainstFiniteDifferences:
    @pytest.mark.parametrize(
        "kind,per_node",
        [
            ("treernn", False),
            ("treernn", True),
            ("rntn", False),
            ("treelstm", False),
            ("treelstm", True),
        ],
    )
    def test_every_parameter_entry(self, kind, per_node):
        cfg = ModelConfig(kind, d=3, vocab=8, classes=2, per_node_loss=per_node)
        params = init_params(cfg, seed=11, scale=0.4)
        rng = np.random.default_rng(2)
        tree = generate_synthetic("moderate", 5, 7, 2, rng)

        _, grads = oracle_forward_backward(kind, params, tree, per_node_loss=per_node)
        h = 1e-5
        for name in params:
            base = params[name].a

            def loss_at(arr):
                probe = dict(params)
                probe[name] = Tensor.from_array(arr)
                loss, _ = oracle_forward_backward(
                    kind, probe, tree, per_node_loss=per_node
                )
                return loss

            fd = np.zeros_like(base)
            it = np.nditer(base, flags=["multi_index"])
            while not it.finished:
                ix = it.multi_index
                up, dn = base.copy(), base.copy()
                up[ix] += h
                dn[ix] -= h
                fd[ix] = (loss_at(up) - loss_at(dn)) / (2 * h)
                it.iternext()
            err = np.abs(grads[name] - fd)
            tol = 1e-6 * np.maximum(np.abs(fd), 1.0) + 1e-9
            assert (err <= tol).all(), (name, err.max())


class TestTripleRouteEquivalence:
    """Reference, recursive graph, and iterative graph must agree."""

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_losses_and_gradients(self, kind):
        rng = np.random.default_rng(31)
        trees = [generate_synthetic("moderate", k, 11, 3, rng) for k in (1, 2, 3, 5, 8)]
        trees.append(generate_synthetic("linear", 6, 11, 3, rng))
        opts = RunOptions(threads=2)

        for i, tree in enumerate(trees):
            per_node = bool(i % 2)
            cfg = ModelConfig(kind, d=4, vocab=12, classes=3, per_node_loss=per_node)
            params = init_params(cfg, seed=13 + i, scale=0.3)
            rec = build_recursive(cfg)
            itr = build_iterative(cfg, capacity=16)
            g_rec, gm_rec = differentiate(rec.graph, rec.loss, list(rec.params.values()))
            g_itr, gm_itr = differentiate(itr.graph, itr.loss, list(itr.params.values()))

            loss_o, grads_o = oracle_forward_backward(
                kind, params, tree, per_node_loss=per_node
            )
            loss_r, grads_r = run_training_step(
                g_rec, gm_rec, make_feeds(rec, tree), params, opts
            )
            loss_i, grads_i = run_training_step(
                g_itr, gm_itr, make_feeds(itr, tree), params, opts
            )

            assert abs(loss_r - loss_o) < 1e-9
            assert abs(loss_i - loss_o) < 1e-9
            for name in params:
                want = grads_o[name]
                scale = max(1.0, float(np.abs(want).max()))
                for got in (_dense(grads_r[name]), _dense(grads_i[name])):
                    assert np.abs(got - want).max() / scale < 1e-7, (kind, name)


class TestModelIdentities:
    def test_rntn_with_zero_tensors_is_treernn(self):
        """With every bilinear slice zeroed the quadratic term vanishes."""
        cfg_r = ModelConfig("treernn", d=4, vocab=10, classes=2)
        shared = init_params(cfg_r, seed=9, scale=0.3)
        rntn_params = dict(shared)
        for k in range(4):
            rntn_params[f"V_{k}"] = Tensor.zeros(8, 8)
        rng = np.random.default_rng(5)
        tree = generate_synthetic("moderate", 6, 9, 2, rng)

        loss_a, grads_a = oracle_forward_backward("treernn", shared, tree)
        loss_b, grads_b = oracle_forward_backward("rntn", rntn_params, tree)
        assert abs(loss_a - loss_b) < 1e-12
        for name in shared:
            np.testing.assert_allclose(grads_a[name], grads_b[name], atol=1e-12)

        # same identity through the graph route
        rec_a = build_recursive(cfg_r)
        rec_b = build_recursive(ModelConfig("rntn", d=4, vocab=10, classes=2))
        opts = RunOptions(threads=1)
        la = run(rec_a.graph, make_feeds(rec_a, tree), [rec_a.loss], opts, shared)
        lb = run(rec_b.graph, make_feeds(rec_b, tree), [rec_b.loss], opts, rntn_params)
        assert abs(la.values[0].item() - lb.values[0].item()) < 1e-12

    def test_treelstm_mirror_symmetry(self):
        """Swapping every node's children and the left/right weight roles
        leaves the model function unchanged."""
        cfg = ModelConfig("treelstm", d=3, vocab=9, classes=2)
        params = init_params(cfg, seed=21, scale=0.4)
        d = cfg.d

        def half_swap(u: Tensor) -> Tensor:
            a = u.a
            return Tensor.from_array(np.hstack([a[:, d:], a[:, :d]]))

        mirrored = dict(params)
        for name in ("Ui", "Uo", "Uu"):
            mirrored[name] = half_swap(params[name])
        mirrored["Ufl"] = half_swap(params["Ufr"])
        mirrored["Ufr"] = half_swap(params["Ufl"])

        rng = np.random.default_rng(3)
        tree = generate_synthetic("moderate", 7, 8, 2, rng)
        flipped = TreeInstance(
            labels=tree.labels,
            tokens=tree.tokens,
            lefts=tree.rights,
            rights=tree.lefts,
            root=tree.root,
        )

        loss_a, logits_a = oracle_forward("treelstm", params, tree)
        loss_b, logits_b = oracle_forward("treelstm", mirrored, flipped)
        assert abs(loss_a - loss_b) < 1e-12
        np.testing.assert_allclose(logits_a, logits_b, atol=1e-12)

        rec = build_recursive(cfg)
        opts = RunOptions(threads=2)
        ra = run(rec.graph, make_feeds(rec, tree), [rec.prediction], opts, params)
        rb = run(rec.graph, make_feeds(rec, flipped), [rec.prediction], opts, mirrored)
        np.testing.assert_allclose(ra.values[0].a, rb.values[0].a, atol=1e-12)


class TestBuilderStructure:
    def test_internal_body_has_exactly_two_recursive_sites(self):
        rec = build_recursive(ModelConfig("treernn", d=3, vocab=5, classes=2))
        dump = rec.graph.dump()
        sections = dump.split("subgraph ")
        internal = next(s for s in sections if s.startswith("Internal:"))
        assert internal.count("invoke[Model]") == 2
        model = next(s for s in sections if s.startswith("Model:"))
        assert model.count("cond[Leaf,Internal]") == 1

    def test_one_graph_serves_different_trees(self):
        rec = build_recursive(ModelConfig("treernn", d=3, vocab=12, classes=2))
        params = init_params(rec.config, seed=1)
        rng = np.random.default_rng(8)
        opts = RunOptions(threads=1)
        for leaves in (1, 4, 6):
            tree = generate_synthetic("moderate", leaves, 11, 2, rng)
            want, _ = oracle_forward("treernn", params, tree)
            got = run(rec.graph, make_feeds(rec, tree), [rec.loss], opts, params)
            assert abs(got.values[0].item() - want) < 1e-9

    def test_recursive_frames_mirror_the_tree(self):
        rec = build_recursive(ModelConfig("treernn", d=3, vocab=12, classes=2))
        params = init_params(rec.config, seed=1)
        rng = np.random.default_rng(8)
        tree = generate_synthetic("moderate", 5, 11, 2, rng)  # 5 leaves, 4 internal
        res = run(rec.graph, make_feeds(rec, tree), [rec.loss], RunOptions(), params)
        assert res.frames["Model"] == tree.n_nodes == 9
        assert res.frames["Leaf"] == 5
        assert res.frames["Internal"] == 4

    def test_iterative_frames_scale_with_capacity_not_tree(self):
        itr = build_iterative(ModelConfig("treernn", d=3, vocab=12, classes=2), capacity=13)
        params = init_params(itr.config, seed=1)
        rng = np.random.default_rng(8)
        tree = generate_synthetic("moderate", 5, 11, 2, rng)
        res = run(itr.graph, make_feeds(itr, tree), [itr.loss], RunOptions(), params)
        assert res.frames["Step"] == 13
        assert res.frames["Work"] == 9
        assert res.frames["Skip"] == 4
        assert res.frames["LeafStep"] == 5
        assert res.frames["InternalStep"] == 4

    def test_recursive_work_tracks_instance_size(self):
        rec = build_recursive(ModelConfig("treernn", d=3, vocab=12, classes=2))
        params = init_params(rec.config, seed=1)
        rng = np.random.default_rng(8)
        small = generate_synthetic("moderate", 2, 11, 2, rng)
        large = generate_synthetic("moderate", 9, 11, 2, rng)
        opts = RunOptions(trace=True)
        r_small = run(rec.graph, make_feeds(rec, small), [rec.loss], opts, params)
        r_large = run(rec.graph, make_feeds(rec, large), [rec.loss], opts, params)
        assert len(r_large.trace) > 2 * len(r_small.trace)

    def test_thread_count_never_changes_results(self):
        rec = build_recursive(ModelConfig("treelstm", d=4, vocab=12, classes=3))
        params = init_params(rec.config, seed=1, scale=0.3)
        g, gm = differentiate(rec.graph, rec.loss, list(rec.params.values()))
        rng = np.random.default_rng(8)
        tree = generate_synthetic("balanced", 8, 11, 3, rng)
        feeds = make_feeds(rec, tree)

        runs = [
            run_training_step(g, gm, feeds, params, RunOptions(threads=t))
            for t in (1, 4, 8)
        ]
        loss0, grads0 = runs[0]
        for loss, grads in runs[1:]:
            assert loss == loss0  # bitwise, not approximately
            for name in grads0:
                np.testing.assert_array_equal(_dense(grads[name]), _dense(grads0[name]))

    def test_single_leaf_tree_is_the_base_case(self):
        tree = single_leaf_tree(tok=3, label=1)
        for builder in (
            lambda c: build_recursive(c),
            lambda c: build_iterative(c, capacity=4),
        ):
            m = builder(ModelConfig("treelstm", d=3, vocab=6, classes=2))
            params = init_params(m.config, seed=2)
            want, _ = oracle_forward("treelstm", params, tree)
            got = run(m.graph, make_feeds(m, tree), [m.loss], RunOptions(), params)
            assert abs(got.values[0].item() - want) < 1e-9

    def test_oversized_instance_is_rejected(self):
        itr = build_iterative(ModelConfig("treernn", d=3, vocab=12, classes=2), capacity=7)
        rng = np.random.default_rng(8)
        tree = generate_synthetic("moderate", 5, 11, 2, rng)  # 9 nodes > 7
        with pytest.raises(CapacityError, match="9 nodes.*capacity is 7"):
            make_feeds(itr, tree)

    def test_prediction_matches_reference_logits(self):
        for kind in MODEL_KINDS:
            cfg = ModelConfig(kind, d=3, vocab=12, classes=4)
            rec = build_recursive(cfg)
            params = init_params(cfg, seed=6, scale=0.3)
            rng = np.random.default_rng(9)
            tree = generate_synthetic("moderate", 4, 11, 4, rng)
            _, want = oracle_forward(kind, params, tree)
            res = run(rec.graph, make_feeds(rec, tree), [rec.prediction], RunOptions(), params)
            got = res.values[0]
            assert (got.rows, got.cols) == (1, 4)
            np.testing.assert_allclose(got.a.reshape(-1), want, rtol=0, atol=1e-9)


class TestGradientGraph:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_gradient_subgraphs_mirror_forward_signatures(self, kind):
        # X__grad takes X's output gradients and returns its input gradients:
        # no invocation-key input, and no outputs for the captured parameters
        rec = build_recursive(ModelConfig(kind, d=4, vocab=12, classes=3))
        g, _ = differentiate(rec.graph, rec.loss, list(rec.params.values()))
        registry = g.graph.registry
        for name in ("Model", "Leaf", "Internal"):
            fwd, grad = registry[name], registry[f"{name}__grad"]
            assert grad.in_shapes == fwd.out_shapes
            assert grad.out_shapes == fwd.in_shapes

    def test_parameter_gradients_fetched_alone_are_complete(self):
        # grad_out waits for every gradient call, so fetching only the
        # gradients still gets every contribution
        cfg = ModelConfig("treelstm", d=4, vocab=12, classes=3)
        rec = build_recursive(cfg)
        params = init_params(cfg, seed=1, scale=0.3)
        g, gm = differentiate(rec.graph, rec.loss, list(rec.params.values()))
        tree = generate_synthetic("balanced", 8, 11, 3, np.random.default_rng(8))
        fetches = [gm.param_grads[n] for n in gm.param_order]
        res = run(g, make_feeds(rec, tree), fetches, RunOptions(), params)
        _, want = oracle_forward_backward("treelstm", params, tree)
        for name, got in zip(gm.param_order, res.values):
            scale = max(1.0, float(np.abs(want[name]).max()))
            assert np.abs(_dense(got) - want[name]).max() / scale < 1e-7, name
        assert isinstance(res.values[gm.param_order.index("E")], RowGrads)

    def test_treelstm_training_step_node_executions(self):
        cfg = ModelConfig("treelstm", d=16, vocab=21, classes=2)
        rec = build_recursive(cfg)
        g, gm = differentiate(rec.graph, rec.loss, list(rec.params.values()))
        tree = generate_synthetic("balanced", 64, 20, 2, np.random.default_rng(0))
        fetches = [gm.loss] + [gm.param_grads[n] for n in gm.param_order]
        res = run(g, make_feeds(rec, tree), fetches, RunOptions(trace=True), init_params(cfg))
        assert len(res.trace) <= 6_700  # one row per executed (frame, node)

    def test_treelstm_forward_returns_into_result_slots(self, monkeypatch):
        # a call returns both TreeLSTM states straight into the caller's
        # slots: no node execution unpacks them, and no round waits on one
        cfg = ModelConfig("treelstm", d=16, vocab=21, classes=2)
        rec = build_recursive(cfg)
        tree = generate_synthetic("balanced", 64, 20, 2, np.random.default_rng(0))
        rounds = 0
        step = executor._round

        def counted(state):
            nonlocal rounds
            rounds += 1
            step(state)

        monkeypatch.setattr(executor, "_round", counted)
        res = run(
            rec.graph, make_feeds(rec, tree), [rec.loss], RunOptions(trace=True), init_params(cfg)
        )
        assert len(res.trace) == 2_921
        assert not [r for r in res.trace if r[4].split("[")[0] in ("select", "result")]
        assert rounds <= 36

    def test_linear_treernn_step_rounds(self, monkeypatch):
        # one frame per group: a straight-line segment of a body costs one
        # round, not one per node, and still one trace row per (frame, node)
        cfg = ModelConfig("treernn", d=16, vocab=21, classes=2)
        rec = build_recursive(cfg)
        g, gm = differentiate(rec.graph, rec.loss, list(rec.params.values()))
        tree = generate_synthetic("linear", 200, 20, 2, np.random.default_rng(0))
        rounds = 0
        step = executor._round

        def counted(state):
            nonlocal rounds
            rounds += 1
            step(state)

        monkeypatch.setattr(executor, "_round", counted)
        fetches = [gm.loss] + [gm.param_grads[n] for n in gm.param_order]
        res = run(g, make_feeds(rec, tree), fetches, RunOptions(trace=True), init_params(cfg))
        assert rounds <= 1_700
        assert len(res.trace) == 6_000  # no row for the products fused into sink adds

    def test_deepest_linear_tree_the_depth_guard_admits(self):
        # 256 leaves in a line: the deepest forward and gradient frames are
        # 512 call sites below the top, the default limit, and each gradient
        # frame must be paired with its own forward frame
        cfg = ModelConfig("treernn", d=4, vocab=12, classes=3)
        rec = build_recursive(cfg)
        params = init_params(cfg, seed=5, scale=0.3)
        g, gm = differentiate(rec.graph, rec.loss, list(rec.params.values()))
        tree = generate_synthetic("linear", 256, 11, 3, np.random.default_rng(4))
        loss, grads = run_training_step(
            g, gm, make_feeds(rec, tree), params, RunOptions(threads=1)
        )
        want_loss, want = oracle_forward_backward("treernn", params, tree)
        assert abs(loss - want_loss) < 1e-9
        for name in params:
            scale = max(1.0, float(np.abs(want[name]).max()))
            assert np.abs(_dense(grads[name]) - want[name]).max() / scale < 1e-7, name


class TestConfigAndCheckpoint:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            ModelConfig("gru", d=3, vocab=5)

    def test_param_shapes_canonical(self):
        shapes = param_shapes(ModelConfig("rntn", d=2, vocab=7, classes=3))
        assert shapes["E"] == (7, 2)
        assert shapes["W"] == (2, 4)
        assert shapes["V_0"] == (4, 4) and shapes["V_1"] == (4, 4)
        assert "V_2" not in shapes
        assert shapes["Ws"] == (3, 2) and shapes["bs"] == (3, 1)

        lstm = param_shapes(ModelConfig("treelstm", d=3, vocab=7))
        assert lstm["Ui"] == (3, 6) and lstm["Wi"] == (3, 3) and lstm["bf"] == (3, 1)
        assert "W" not in lstm

    def test_checkpoint_round_trip(self, tmp_path):
        cfg = ModelConfig("treelstm", d=3, vocab=6, classes=2)
        params = init_params(cfg, seed=17, scale=0.25)
        vocab = Vocab()
        for tok in ("good", "bad", "fine"):
            vocab.add(tok)
        path = tmp_path / "model.json"
        save_checkpoint(path, cfg, params, vocab)

        cfg2, params2, vocab2 = load_checkpoint(path)
        assert cfg2 == cfg
        assert set(params2) == set(params)
        for name in params:
            np.testing.assert_array_equal(params2[name].a, params[name].a)
        assert vocab2.id_to_token == vocab.id_to_token

    def test_checkpoint_without_vocab(self, tmp_path):
        cfg = ModelConfig("treernn", d=2, vocab=4, classes=2)
        path = tmp_path / "m.json"
        save_checkpoint(path, cfg, init_params(cfg, seed=0))
        _, _, vocab = load_checkpoint(path)
        assert vocab is None

    def test_checkpoint_format_guard(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a rdg-ckpt-1 checkpoint"):
            load_checkpoint(path)

    def test_checkpoint_shape_guard(self, tmp_path):
        cfg = ModelConfig("treernn", d=2, vocab=4, classes=2)
        params = init_params(cfg, seed=0)
        params["b"] = Tensor.zeros(3, 1)  # wrong: d=2 wants 2x1
        path = tmp_path / "m.json"
        save_checkpoint(path, cfg, params)
        with pytest.raises(ValueError, match="'b'.*checkpoint says 3x1"):
            load_checkpoint(path)

    def test_training_step_moves_loss_downhill(self):
        cfg = ModelConfig("treernn", d=4, vocab=12, classes=2)
        rec = build_recursive(cfg)
        params = init_params(cfg, seed=3, scale=0.3)
        g, gm = differentiate(rec.graph, rec.loss, list(rec.params.values()))
        rng = np.random.default_rng(12)
        tree = generate_synthetic("moderate", 5, 11, 2, rng)
        feeds = make_feeds(rec, tree)
        opts = RunOptions(threads=1)

        loss0, grads = run_training_step(g, gm, feeds, params, opts)
        stepped = {
            name: Tensor.from_array(params[name].a - 0.1 * _dense(grads[name]))
            for name in params
        }
        loss1, _ = run_training_step(g, gm, feeds, stepped, opts)
        assert loss1 < loss0
