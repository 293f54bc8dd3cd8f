"""Output checks that share no code with the engine or the trainer.

Every expected value comes from `rdg.oracle` (plain recursive numpy) or from
the AdaGrad step written out below. Each check returns a list of problems;
an empty list means the output passed.
"""

from __future__ import annotations

import numpy as np

LOSS_RTOL = 1e-9
PARAM_RTOL = 1e-7
# AdaGrad's denominator guard, as documented for `rdg.trainer.train`.
ADAGRAD_EPS = 1e-8


def _arr(v) -> np.ndarray:
    return v.a if hasattr(v, "a") else np.asarray(v, dtype=float)


def _loss_problem(what: str, got: float, want: float) -> list[str]:
    if abs(got - want) <= LOSS_RTOL * abs(want):
        return []
    return [f"{what}: engine {got!r}, oracle {want!r}"]


def adagrad_step(params: dict, grads: dict, lr: float) -> dict[str, np.ndarray]:
    """One AdaGrad update from a zero accumulator: p - lr*g/(sqrt(g*g) + eps)."""
    out = {}
    for name, p in params.items():
        g = grads[name]
        out[name] = _arr(p) - lr * g / (np.sqrt(g * g) + ADAGRAD_EPS)
    return out


def check_train(
    loss_mean: float,
    new_params: dict,
    params0: dict,
    oracle: list[tuple[float, dict]],
    lr: float,
) -> list[str]:
    """A `train` call over one batch, started from `params0`.

    `oracle` holds `oracle_forward_backward` per instance at `params0`. The
    mean loss must match to LOSS_RTOL; each updated parameter must match one
    AdaGrad step on the summed oracle gradients to PARAM_RTOL of its largest
    entry.
    """
    problems = _loss_problem(
        "mean loss", loss_mean, sum(loss for loss, _ in oracle) / len(oracle)
    )
    summed = {name: sum(g[name] for _, g in oracle) for name in params0}
    for name, want in adagrad_step(params0, summed, lr).items():
        err = float(np.max(np.abs(_arr(new_params[name]) - want)))
        if err > PARAM_RTOL * float(np.max(np.abs(want))):
            problems.append(f"parameter {name}: off the AdaGrad step by {err:.3e}")
    return problems


def check_request(loss: float, pred: int, oracle: tuple[float, np.ndarray]) -> list[str]:
    """One forward request: loss against `oracle_forward`, class against its argmax."""
    want_loss, logits = oracle
    problems = _loss_problem("loss", loss, want_loss)
    if pred != int(np.argmax(logits)):
        problems.append(f"class: engine {pred}, oracle {int(np.argmax(logits))}")
    return problems


def check_evaluate(
    loss_mean: float, accuracy: float, oracle: list[tuple[float, np.ndarray]], labels: list[int]
) -> list[str]:
    """An `evaluate` call: mean loss and root accuracy from `oracle_forward`."""
    problems = _loss_problem(
        "mean loss", loss_mean, sum(loss for loss, _ in oracle) / len(oracle)
    )
    hits = sum(int(np.argmax(z)) == y for (_, z), y in zip(oracle, labels))
    if accuracy != hits / len(labels):
        problems.append(f"accuracy: engine {accuracy!r}, oracle {hits / len(labels)!r}")
    return problems
