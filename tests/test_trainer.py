"""Optimizer math, training-loop contracts, and the gradient-check harness."""

import math

import numpy as np
import pytest

from rdg import RowGrads, RunOptions, Tensor
from rdg.data import generate_dataset, generate_synthetic
from rdg.models import ModelConfig, build_recursive, init_params
from rdg import kernels
from rdg.trainer import (
    ADAGRAD_EPS,
    GradCheckReport,
    Metrics,
    TrainConfig,
    TrainingDiverged,
    adagrad_init,
    adagrad_update,
    evaluate,
    grad_check,
    predictions,
    read_metrics_csv,
    sum_gradients,
    train,
    write_metrics_csv,
)

MODEL_KINDS = ("treernn", "rntn", "treelstm")


def small_corpus(count=12, leaves=4, seed=5, classes=2):
    return generate_dataset("moderate", leaves, count, 10, classes, seed=seed)


class TestAdaGrad:
    def test_first_step_closed_form(self):
        params = {"w": Tensor.ones(2, 3)}
        grads = {"w": Tensor.ones(2, 3)}
        state = adagrad_init(params)
        adagrad_update(params, grads, state, lr=0.1)
        want = 1.0 - 0.1 / (1.0 + ADAGRAD_EPS)
        np.testing.assert_allclose(params["w"].a, np.full((2, 3), want), rtol=1e-15)
        np.testing.assert_array_equal(state["w"], np.ones((2, 3)))

    def test_zero_gradient_is_a_no_op(self):
        params = {"w": Tensor.from_array(np.array([[1.5, -2.0]]))}
        before = params["w"].a.copy()
        state = adagrad_init(params)
        adagrad_update(params, {"w": Tensor.zeros(1, 2)}, state, lr=0.5)
        np.testing.assert_array_equal(params["w"].a, before)

    def test_repeated_equal_gradients_shrink_steps(self):
        params = {"w": Tensor.zeros(1, 1)}
        state = adagrad_init(params)
        g = {"w": Tensor.from_array(np.array([[2.0]]))}
        adagrad_update(params, g, state, lr=0.1)
        first = abs(params["w"].item())
        prev = params["w"].item()
        adagrad_update(params, g, state, lr=0.1)
        second = abs(params["w"].item() - prev)
        assert second < first

    def test_l2_term_included(self):
        params = {"w": Tensor.from_array(np.array([[2.0]]))}
        state = adagrad_init(params)
        adagrad_update(params, {"w": Tensor.zeros(1, 1)}, state, lr=0.1, l2=0.5)
        # effective g = 0 + 0.5*2 = 1; step = 0.1*1/(1+eps)
        assert abs(params["w"].item() - (2.0 - 0.1 / (1.0 + ADAGRAD_EPS))) < 1e-12
        assert abs(state["w"][0, 0] - 1.0) < 1e-15

    def test_shape_mismatch_rejected(self):
        params = {"w": Tensor.ones(2, 2)}
        state = adagrad_init(params)
        with pytest.raises(ValueError, match="gradient for 'w'"):
            adagrad_update(params, {"w": Tensor.ones(2, 3)}, state, lr=0.1)

    def test_sparse_update_touches_only_present_rows(self):
        params = {"E": Tensor.from_array(np.arange(12.0).reshape(4, 3))}
        before = params["E"].a.copy()
        state = adagrad_init(params)
        row = np.array([[1.0, -2.0, 3.0]])
        g = RowGrads(4, 3, ((2, row), (2, row)))  # duplicate entries sum first
        adagrad_update(params, {"E": g}, state, lr=0.1)
        after = params["E"].a
        np.testing.assert_array_equal(after[[0, 1, 3]], before[[0, 1, 3]])
        np.testing.assert_array_equal(state["E"][[0, 1, 3]], np.zeros((3, 3)))
        summed = 2 * row[0]
        want = before[2] - 0.1 * summed / (np.abs(summed) + ADAGRAD_EPS)
        np.testing.assert_allclose(after[2], want, rtol=1e-15)

    def test_sparse_with_l2_densifies(self):
        params = {"E": Tensor.ones(3, 2)}
        state = adagrad_init(params)
        g = RowGrads(3, 2, ((0, np.array([[1.0, 1.0]])),))
        adagrad_update(params, {"E": g}, state, lr=0.1, l2=1.0)
        # every row gets the decay gradient, not just the touched one
        assert (state["E"] > 0).all()
        assert (params["E"].a < 1.0).all()

    def test_sparse_update_matches_a_row_by_row_loop_bit_for_bit(self):
        def loop_update(arr, s, g, lr):  # sum each row first-seen-first, then update
            by_row = {}
            for i, row in g.entries:
                by_row[i] = by_row[i] + row[0] if i in by_row else row[0]
            arr = arr.copy()
            for i, grow in by_row.items():
                s[i] += grow * grow
                arr[i] -= lr * grow / (np.sqrt(s[i]) + ADAGRAD_EPS)
            return arr

        def loop_dense(g):
            out = np.zeros((g.rows, g.cols))
            for i, row in g.entries:
                out[i] += row[0]
            return out

        rng = np.random.default_rng(3)
        rows = rng.integers(0, 9, size=200)  # 200 entries on at most 9 of 12 rows
        vals = rng.standard_normal((200, 1, 5)) * 10.0 ** rng.integers(-8, 8, (200, 1, 1))
        vals[rows == 4] = -0.0  # a row whose every contribution is a negative zero
        g = RowGrads(12, 5, tuple(zip(rows.tolist(), vals)))
        assert g.to_dense().a.tobytes() == loop_dense(g).tobytes()
        start = rng.standard_normal((12, 5))
        start[4, :2] = -0.0
        params = {"E": Tensor.from_array(start)}
        state = adagrad_init(params)
        want, want_s = start, np.zeros((12, 5))
        for _ in range(3):
            adagrad_update(params, {"E": g}, state, lr=0.07)
            want = loop_update(want, want_s, g, 0.07)
            assert params["E"].a.tobytes() == want.tobytes()
            assert state["E"].tobytes() == want_s.tobytes()


class TestGradientSummation:
    def test_dense_linearity(self):
        corpus = small_corpus(count=1)
        cfg = ModelConfig("treernn", d=4, vocab=11, classes=2)
        model = build_recursive(cfg)
        params = init_params(cfg, seed=2, scale=0.3)
        from rdg import differentiate, run_training_step

        g, gm = differentiate(model.graph, model.loss, list(model.params.values()))
        from rdg.models import make_feeds

        _, grads = run_training_step(g, gm, make_feeds(model, corpus[0]), params, RunOptions())
        tripled = sum_gradients([grads, grads, grads])
        for name in grads:
            single = grads[name].to_dense().a if isinstance(grads[name], RowGrads) else grads[name].a
            total = tripled[name].to_dense().a if isinstance(tripled[name], RowGrads) else tripled[name].a
            np.testing.assert_allclose(total, 3 * single, rtol=0, atol=1e-9)

    def test_sparse_stays_sparse(self):
        g1 = RowGrads(5, 2, ((1, np.ones((1, 2))),))
        g2 = RowGrads(5, 2, ((3, 2 * np.ones((1, 2))),))
        out = sum_gradients([{"E": g1}, {"E": g2}])["E"]
        assert isinstance(out, RowGrads)
        assert [i for i, _ in out.entries] == [1, 3]


class TestTrainLoop:
    def test_zero_lr_leaves_params_bitwise_unchanged(self):
        corpus = small_corpus()
        cfg = ModelConfig("treernn", d=4, vocab=11, classes=2)
        model = build_recursive(cfg)
        params = init_params(cfg, seed=1)
        before = {k: v.a.copy() for k, v in params.items()}
        train(model, params, corpus, TrainConfig(epochs=1, batch_size=4, lr=0.0))
        for k in params:
            np.testing.assert_array_equal(params[k].a, before[k])

    def test_reproducible_given_seed(self):
        corpus = small_corpus()
        cfg = ModelConfig("treernn", d=4, vocab=11, classes=2)
        model = build_recursive(cfg)
        histories, finals = [], []
        for _ in range(2):
            params = init_params(cfg, seed=1, scale=0.2)
            h = train(model, params, corpus, TrainConfig(epochs=3, batch_size=5, lr=0.05, seed=7))
            histories.append([(m.epoch, m.loss_mean, m.accuracy) for m in h])
            finals.append(params)
        assert histories[0] == histories[1]
        for k in finals[0]:
            np.testing.assert_array_equal(finals[0][k].a, finals[1][k].a)

    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_descent_on_a_fixed_instance(self, kind):
        tree = generate_synthetic("moderate", 4, 9, 2, np.random.default_rng(3))
        cfg = ModelConfig(kind, d=4, vocab=11, classes=2)
        model = build_recursive(cfg)
        params = init_params(cfg, seed=4, scale=0.3)
        h = train(model, params, [tree], TrainConfig(epochs=5, batch_size=1, lr=1e-3))
        losses = [m.loss_mean for m in h]
        assert all(b < a for a, b in zip(losses, losses[1:])), losses

    def test_thread_count_does_not_change_math(self):
        corpus = small_corpus(count=8)
        cfg = ModelConfig("treernn", d=4, vocab=11, classes=2)
        model = build_recursive(cfg)
        outs = []
        for threads in (1, 2, 8):
            params = init_params(cfg, seed=1, scale=0.2)
            train(
                model, params, corpus,
                TrainConfig(epochs=2, batch_size=4, lr=0.05, seed=0, threads=threads),
            )
            outs.append(params)
        for k in outs[0]:
            np.testing.assert_array_equal(outs[0][k].a, outs[1][k].a)
            np.testing.assert_array_equal(outs[0][k].a, outs[2][k].a)

    def test_divergence_aborts_with_step_index(self):
        corpus = small_corpus(count=4)
        cfg = ModelConfig("treernn", d=4, vocab=11, classes=2)
        model = build_recursive(cfg)
        params = init_params(cfg, seed=1)
        bad = params["W"].a.copy()
        bad[0, 0] = float("nan")
        params["W"] = Tensor.from_array(bad)
        with pytest.raises(TrainingDiverged, match="step 0"):
            train(model, params, corpus, TrainConfig(epochs=1, batch_size=4, lr=0.05))

    def test_threads_below_one_rejected(self):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            TrainConfig(threads=0)

    def test_empty_corpus_rejected(self):
        cfg = ModelConfig("treernn", d=4, vocab=11, classes=2)
        model = build_recursive(cfg)
        with pytest.raises(ValueError, match="corpus is empty"):
            train(model, init_params(cfg, seed=0), [], TrainConfig(epochs=1))

    def test_learns_the_bundled_reviews(self):
        from pathlib import Path
        from rdg.data import Vocab, load_corpus

        vocab = Vocab()
        corpus = load_corpus(
            Path(__file__).parents[1] / "src" / "rdg" / "corpora" / "mini_reviews.txt",
            vocab, grow=True,
        )[:80]
        cfg = ModelConfig("treernn", d=8, vocab=vocab.size, classes=2, per_node_loss=True)
        model = build_recursive(cfg)
        params = init_params(cfg, seed=0)
        h = train(model, params, corpus, TrainConfig(epochs=3, batch_size=10, lr=0.05, seed=1))
        assert h[-1].loss_mean < h[0].loss_mean
        assert h[-1].accuracy > 0.55


class TestEvaluate:
    def test_untrained_accuracy_near_chance(self):
        corpus = generate_dataset("moderate", 4, 500, 10, 2, seed=9)
        cfg = ModelConfig("treernn", d=6, vocab=12, classes=2)
        model = build_recursive(cfg)
        params = init_params(cfg, seed=3)
        m = evaluate(model, params, corpus, threads=1)
        assert 0.4 <= m.accuracy <= 0.6
        assert m.instances_per_s > 0

    @pytest.mark.parametrize("fn", [evaluate, predictions])
    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, fn, batch_size):
        corpus = small_corpus(count=2)
        cfg = ModelConfig("treernn", d=4, vocab=11, classes=2)
        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            fn(build_recursive(cfg), init_params(cfg), corpus, batch_size=batch_size)

    def test_thread_count_does_not_change_predictions(self):
        corpus = small_corpus(count=20)
        cfg = ModelConfig("treelstm", d=4, vocab=11, classes=2)
        model = build_recursive(cfg)
        params = init_params(cfg, seed=5, scale=0.3)
        p1 = predictions(model, params, corpus, threads=1)
        p8 = predictions(model, params, corpus, threads=8)
        assert p1 == p8

    def test_validation_accuracy_reported_when_val_given(self):
        corpus = small_corpus(count=10)
        val = small_corpus(count=6, seed=11)
        cfg = ModelConfig("treernn", d=4, vocab=11, classes=2)
        model = build_recursive(cfg)
        params = init_params(cfg, seed=1)
        h = train(
            model, params, corpus,
            TrainConfig(epochs=2, batch_size=5, lr=0.05),
            val_corpus=val,
        )
        ref = evaluate(model, params, val).accuracy
        assert h[-1].accuracy == ref


class TestMetricsCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        rows = [
            Metrics(0, 1.5, 666.6666666666666, 0.6931471805599453, 0.5),
            Metrics(1, 1.25, 800.0, 0.3133, 0.9375),
        ]
        path = tmp_path / "m.csv"
        write_metrics_csv(path, rows)
        assert read_metrics_csv(path) == rows
        header = path.read_text().splitlines()[0]
        assert header == "epoch,wall_time_s,instances_per_s,loss,accuracy"

    def test_accuracy_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="accuracy"):
            Metrics(0, 1.0, 1.0, 0.5, 1.5)


class TestGradCheckHarness:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_all_models_pass(self, kind):
        report = grad_check(kind, trials=2, seed=3)
        assert report.ok, report.summary()
        assert all(r.worst_rel_err < 1e-4 for r in report.rows)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_fewer_than_one_trial_rejected(self, trials):
        # a report over no checks would read PASS
        with pytest.raises(ValueError, match="trials must be >= 1"):
            grad_check("treernn", trials=trials)

    def test_detects_a_corrupted_derivative(self, monkeypatch):
        orig = kernels._binary_fn

        def corrupted(tag):
            f = orig(tag)
            if tag == "tanh_bwd":
                return lambda u, y: f(u, y) * 1.02
            return f

        monkeypatch.setattr(kernels, "_binary_fn", corrupted)
        report = grad_check("treernn", trials=2, seed=3)
        assert not report.ok
        assert "FAIL" in report.summary()
