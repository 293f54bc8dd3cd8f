"""AdaGrad training loop, evaluation, and a gradient-checking harness.

A batch of `batch_size` instances runs as one `run_batch` wavefront: each
instance keeps its own feeds, frames and gradient sink, and their
frames ready at the same node share one stacked kernel. Gradients come back
per instance and are summed in batch order, and the optimizer update runs
between steps. Which frames share a kernel follows from the batch's trees
alone. The `threads` arguments are accepted and must be >= 1; the executor
computes every kernel on the calling thread, so neither results nor speed
depend on them.

The embedding gradient arrives as sparse per-row contributions; AdaGrad
applies it row-wise (summing duplicate rows first-seen-first) so optimizer
cost scales with rows touched, not vocabulary size. Weight decay needs every
row, so a nonzero l2 densifies first.
"""

from __future__ import annotations

import csv
import logging
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import GradientMap, differentiate
from .data import TreeInstance, generate_synthetic
from .executor import RunOptions, run, run_batch
from .graph import FinalizedGraph, NodeHandle, RowGrads
from .models import BuiltModel, ModelConfig, build_recursive, init_params, make_feeds
from .oracle import oracle_forward
from .tensor import Tensor

log = logging.getLogger("rdg.trainer")

ADAGRAD_EPS = 1e-8

METRICS_HEADER = ("epoch", "wall_time_s", "instances_per_s", "loss", "accuracy")


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the global step index in the message."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    batch_size: int = 25
    lr: float = 0.05
    l2: float = 0.0
    threads: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.lr < 0 or self.l2 < 0:
            raise ValueError("lr and l2 must be >= 0")


@dataclass(frozen=True)
class Metrics:
    epoch: int
    wall_time_s: float
    instances_per_s: float
    loss_mean: float
    accuracy: float

    def __post_init__(self):
        if not (0.0 <= self.accuracy <= 1.0):
            raise ValueError(f"accuracy must be in [0, 1], got {self.accuracy}")


def write_metrics_csv(path: str | Path, rows: list[Metrics]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(METRICS_HEADER)
        for m in rows:
            w.writerow(
                [m.epoch, repr(m.wall_time_s), repr(m.instances_per_s),
                 repr(m.loss_mean), repr(m.accuracy)]
            )


def read_metrics_csv(path: str | Path) -> list[Metrics]:
    with open(path, newline="") as f:
        r = csv.reader(f)
        header = tuple(next(r))
        if header != METRICS_HEADER:
            raise ValueError(f"unexpected metrics header {header!r}")
        return [
            Metrics(int(e), float(w), float(i), float(l), float(a))
            for e, w, i, l, a in r
        ]


# -- optimizer ---------------------------------------------------------------


def adagrad_init(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {name: np.zeros((t.rows, t.cols)) for name, t in params.items()}


def _dense_arr(g) -> np.ndarray:
    return g.to_dense().a if isinstance(g, RowGrads) else g.a


def adagrad_update(
    params: dict[str, Tensor],
    grads: dict,
    state: dict[str, np.ndarray],
    lr: float,
    l2: float = 0.0,
) -> None:
    """In place: state += g^2; p -= lr * g / (sqrt(state) + eps), g = g + l2*p."""
    for name, g in grads.items():
        p = params[name]
        if isinstance(g, RowGrads) and l2 == 0.0:
            if (g.rows, g.cols) != (p.rows, p.cols):
                raise ValueError(
                    f"gradient for {name!r} is {g.rows}x{g.cols}, "
                    f"parameter is {p.rows}x{p.cols}"
                )
            # -0.0 + x is x for every x, so each row sums its entries alone,
            # first-seen first; a +0.0 start would turn a sum of -0.0s into +0.0
            touched, grow = g.sums(-0.0)
            s = state[name]
            s[touched] += grow * grow
            arr = p.a.copy()
            arr[touched] -= lr * grow / (np.sqrt(s[touched]) + ADAGRAD_EPS)
            params[name] = Tensor._wrap(arr)
            continue
        ga = _dense_arr(g)
        if ga.shape != (p.rows, p.cols):
            raise ValueError(
                f"gradient for {name!r} is {ga.shape[0]}x{ga.shape[1]}, "
                f"parameter is {p.rows}x{p.cols}"
            )
        if l2:
            ga = ga + l2 * p.a
        s = state[name]
        s += ga * ga
        params[name] = Tensor._wrap(p.a - lr * ga / (np.sqrt(s) + ADAGRAD_EPS))


def sum_gradients(per_instance: list[dict]) -> dict:
    """Fixed-order sum of per-instance gradient dicts (sparse stays sparse)."""
    out = {}
    for name in per_instance[0]:
        gs = [d[name] for d in per_instance]
        if all(isinstance(g, RowGrads) for g in gs):
            merged = gs[0]
            for g in gs[1:]:
                merged = merged.merge(g)
            out[name] = merged
        else:
            acc = _dense_arr(gs[0]).copy()
            for g in gs[1:]:
                acc += _dense_arr(g)
            out[name] = Tensor._wrap(acc)
    return out


# -- training ----------------------------------------------------------------


def _prepare(model: BuiltModel, grad: tuple[FinalizedGraph, GradientMap] | None):
    if grad is None:
        grad = differentiate(model.graph, model.loss, list(model.params.values()))
    g, gm = grad
    # differentiate() clones the builder but keeps node ids, so forward
    # handles carry over by id.
    prediction = NodeHandle(gm.loss.graph, model.prediction.id)
    return g, gm, prediction


def _batches(corpus: list, size: int):
    for lo in range(0, len(corpus), size):
        yield corpus[lo : lo + size]


def train(
    model: BuiltModel,
    params: dict[str, Tensor],
    corpus: list[TreeInstance],
    cfg: TrainConfig,
    val_corpus: list[TreeInstance] | None = None,
    metrics_path: str | Path | None = None,
    grad: tuple[FinalizedGraph, GradientMap] | None = None,
) -> list[Metrics]:
    """Train `params` in place; one AdaGrad update per batch.

    Per epoch: shuffle (seeded), run each batch of `cfg.batch_size`
    instances as one `run_batch`, sum gradients in batch order, update.
    Metrics report the epoch's mean training loss and accuracy over the
    instances as trained — except when `val_corpus` is given, in which case
    accuracy is measured on it after every epoch. Raises TrainingDiverged
    with the failing step index on non-finite loss.
    """
    if not corpus:
        raise ValueError("corpus is empty")
    g, gm, prediction = _prepare(model, grad)
    state = adagrad_init(params)
    rng = np.random.default_rng(cfg.seed)
    opts = RunOptions(threads=cfg.threads)
    history: list[Metrics] = []
    step = 0
    fetches = [gm.loss, prediction] + [gm.param_grads[n] for n in gm.param_order]
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(corpus))
        t0 = time.monotonic()
        loss_sum = 0.0
        correct = 0
        for batch in _batches([corpus[i] for i in order], cfg.batch_size):
            results = run_batch(
                g, [make_feeds(model, t) for t in batch], fetches, opts, params
            )
            batch_grads = sum_gradients(
                [dict(zip(gm.param_order, r.values[2:])) for r in results]
            )
            for r in results:
                loss_sum += r.values[0].item()
            for r, tree in zip(results, batch):
                correct += int(np.argmax(r.values[1].a)) == tree.labels[tree.root]
            if not np.isfinite(loss_sum):
                raise TrainingDiverged(
                    f"loss became non-finite at step {step} (epoch {epoch})"
                )
            adagrad_update(params, batch_grads, state, cfg.lr, cfg.l2)
            step += 1
        wall = time.monotonic() - t0
        accuracy = correct / len(order)
        if val_corpus is not None:
            accuracy = evaluate(
                model, params, val_corpus, threads=cfg.threads, batch_size=cfg.batch_size,
            ).accuracy
        m = Metrics(
            epoch=epoch,
            wall_time_s=wall,
            instances_per_s=len(order) / wall if wall > 0 else 0.0,
            loss_mean=loss_sum / len(order),
            accuracy=accuracy,
        )
        history.append(m)
        log.info(
            "epoch %d: loss %.6f, accuracy %.4f, %.1f instances/s",
            m.epoch, m.loss_mean, m.accuracy, m.instances_per_s,
        )
        if metrics_path is not None:
            write_metrics_csv(metrics_path, history)
    return history


def infer(
    model: BuiltModel,
    params: dict[str, Tensor],
    corpus: list[TreeInstance],
    threads: int = 1,
    batch_size: int = 25,
) -> tuple[list[int], Metrics]:
    """One forward-only pass over `corpus`: the predicted root class per
    instance, in corpus order, and the pass's root accuracy, mean loss and
    throughput."""
    if not corpus:
        raise ValueError("corpus is empty")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    opts = RunOptions(threads=threads)
    losses, preds = [], []
    t0 = time.monotonic()
    for batch in _batches(corpus, batch_size):
        for res in run_batch(
            model.graph, [make_feeds(model, t) for t in batch],
            [model.loss, model.prediction], opts, params,
        ):
            losses.append(res.values[0].item())
            preds.append(int(np.argmax(res.values[1].a)))
    wall = time.monotonic() - t0
    correct = sum(pred == tree.labels[tree.root] for pred, tree in zip(preds, corpus))
    return preds, Metrics(
        epoch=0,
        wall_time_s=wall,
        instances_per_s=len(corpus) / wall if wall > 0 else 0.0,
        loss_mean=sum(losses) / len(corpus),
        accuracy=correct / len(corpus),
    )


def evaluate(
    model: BuiltModel,
    params: dict[str, Tensor],
    corpus: list[TreeInstance],
    threads: int = 1,
    batch_size: int = 25,
) -> Metrics:
    """Forward-only pass over `corpus`: root accuracy, mean loss, throughput."""
    return infer(model, params, corpus, threads, batch_size)[1]


def predictions(
    model: BuiltModel,
    params: dict[str, Tensor],
    corpus: list[TreeInstance],
    threads: int = 1,
    batch_size: int = 25,
) -> list[int]:
    """Predicted root class per instance, in corpus order."""
    return infer(model, params, corpus, threads, batch_size)[0]


# -- gradient checking -------------------------------------------------------


@dataclass(frozen=True)
class GradCheckRow:
    param: str
    worst_rel_err: float
    checks: int
    ok: bool


@dataclass(frozen=True)
class GradCheckReport:
    kind: str
    trials: int
    tol: float
    rows: list[GradCheckRow]
    ok: bool

    def summary(self) -> str:
        lines = [
            f"gradient check: {self.kind}, {self.trials} trial(s), tol {self.tol:g}"
        ]
        for r in self.rows:
            mark = "ok  " if r.ok else "FAIL"
            lines.append(
                f"  {mark} {r.param:<6}: worst rel err {r.worst_rel_err:.3e} "
                f"over {r.checks} checks"
            )
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines)


def grad_check(
    kind: str,
    trials: int = 10,
    tol: float = 1e-4,
    *,
    d: int = 6,
    vocab: int = 20,
    classes: int = 3,
    max_leaves: int = 16,
    entries_per_param: int = 4,
    fd_step: float = 1e-5,
    seed: int = 0,
    threads: int = 1,
) -> GradCheckReport:
    """Compare engine gradients against central finite differences.

    Per trial (random parameters, random tree): the engine computes all
    parameter gradients in one reverse pass; finite differences probe
    `entries_per_param` sampled entries plus one random direction per
    parameter. The difference target is the reference forward — a separate
    implementation of the same loss — so the two sides share no code.
    A check passes when |g - fd| <= tol * max(|g|, |fd|) + 1e-7.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    cfg = ModelConfig(kind, d=d, vocab=vocab, classes=classes)
    model = build_recursive(cfg)
    g, gm, _ = _prepare(model, None)
    rng = np.random.default_rng(seed)
    opts = RunOptions(threads=threads)
    abs_floor = 1e-7

    worst: dict[str, float] = {name: 0.0 for name in model.params}
    counts: dict[str, int] = {name: 0 for name in model.params}
    failed: dict[str, int] = {name: 0 for name in model.params}

    def check(name: str, got: float, fd: float):
        err = abs(got - fd)
        rel = err / (max(abs(got), abs(fd)) + abs_floor)
        worst[name] = max(worst[name], rel)
        counts[name] += 1
        if err > tol * max(abs(got), abs(fd)) + abs_floor:
            failed[name] += 1

    for _ in range(trials):
        params = init_params(cfg, seed=int(rng.integers(2**31)), scale=0.3)
        tree = generate_synthetic(
            "moderate", int(rng.integers(1, max_leaves + 1)), vocab - 1, classes, rng
        )
        fetches = [gm.loss] + [gm.param_grads[n] for n in gm.param_order]
        res = run(g, make_feeds(model, tree), fetches, opts, params)
        grads = dict(zip(gm.param_order, res.values[1:]))

        def loss_with(name, arr):
            probe = dict(params)
            probe[name] = Tensor.from_array(arr)
            loss, _ = oracle_forward(kind, probe, tree)
            return loss

        for name, p in params.items():
            garr = _dense_arr(grads[name])
            base = p.a
            flat = base.size
            n_pick = min(entries_per_param, flat)
            picks = rng.choice(flat, size=n_pick, replace=False)
            for fi in picks:
                ix = np.unravel_index(int(fi), base.shape)
                up, dn = base.copy(), base.copy()
                up[ix] += fd_step
                dn[ix] -= fd_step
                fd = (loss_with(name, up) - loss_with(name, dn)) / (2 * fd_step)
                check(name, float(garr[ix]), fd)
            v = rng.standard_normal(base.shape)
            v /= np.sqrt((v * v).sum())
            fd = (
                loss_with(name, base + fd_step * v)
                - loss_with(name, base - fd_step * v)
            ) / (2 * fd_step)
            check(name, float((garr * v).sum()), fd)

    rows = [
        GradCheckRow(
            param=name,
            worst_rel_err=worst[name],
            checks=counts[name],
            ok=failed[name] == 0,
        )
        for name in sorted(worst)
    ]
    return GradCheckReport(
        kind=kind, trials=trials, tol=tol, rows=rows, ok=all(r.ok for r in rows)
    )
