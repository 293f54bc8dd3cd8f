"""Host-language reference models: direct recursion with a dynamic tape.

Computes the exact same math as the built graphs — TreeRNN, RNTN, and binary
TreeLSTM over a labeled tree — by plain recursive numpy evaluation, with the
backward pass written out by hand from the chain rule. No graph machinery is
imported; this module exists so engine results can be checked against an
implementation that shares none of the engine's code paths. Used by tests and
by the trainer's gradient checker.

Conventions match the engine builders: states are d x 1 columns, embedding
rows are 1 x d, classifier logits are C x 1 columns (transposed to a row only
at the cross-entropy boundary).
"""

from __future__ import annotations

import numpy as np

from .data import TreeInstance

MODEL_KINDS = ("treernn", "rntn", "treelstm")


def _arr(v) -> np.ndarray:
    return v.a if hasattr(v, "a") else np.asarray(v, dtype=float)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def _softmax_row(z: np.ndarray) -> np.ndarray:
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


class _Tape:
    """Per-node forward intermediates, appended leaf-to-root."""

    def __init__(self):
        self.h: dict[int, np.ndarray] = {}
        self.c: dict[int, np.ndarray] = {}
        self.aux: dict[int, dict] = {}
        self.order: list[int] = []  # children always precede parents


def _forward(kind: str, p: dict, t: TreeInstance) -> _Tape:
    E = p["E"]
    d = E.shape[1]
    tape = _Tape()

    def visit(i: int):
        if t.is_leaf(i):
            xw = E[t.tokens[i]].reshape(d, 1)
            if kind == "treelstm":
                gi = _sigmoid(p["Wi"] @ xw + p["bi"])
                go = _sigmoid(p["Wo"] @ xw + p["bo"])
                gu = np.tanh(p["Wu"] @ xw + p["bu"])
                c = gi * gu
                h = go * np.tanh(c)
                tape.c[i] = c
                tape.aux[i] = {"xw": xw, "i": gi, "o": go, "u": gu}
            else:
                h = np.tanh(xw)
                tape.aux[i] = {"xw": xw}
            tape.h[i] = h
        else:
            l, r = t.lefts[i], t.rights[i]
            visit(l)
            visit(r)
            x = np.concatenate([tape.h[l], tape.h[r]])
            if kind == "treelstm":
                gi = _sigmoid(p["Ui"] @ x + p["bi"])
                fl = _sigmoid(p["Ufl"] @ x + p["bf"])
                fr = _sigmoid(p["Ufr"] @ x + p["bf"])
                go = _sigmoid(p["Uo"] @ x + p["bo"])
                gu = np.tanh(p["Uu"] @ x + p["bu"])
                c = gi * gu + fl * tape.c[l] + fr * tape.c[r]
                h = go * np.tanh(c)
                tape.c[i] = c
                tape.aux[i] = {"x": x, "i": gi, "fl": fl, "fr": fr, "o": go, "u": gu}
            else:
                a = p["W"] @ x + p["b"]
                if kind == "rntn":
                    q = np.array(
                        [[(x.T @ p[f"V_{k}"] @ x).item()] for k in range(d)]
                    )
                    a = a + q
                h = np.tanh(a)
                tape.aux[i] = {"x": x}
            tape.h[i] = h
        tape.order.append(i)

    visit(t.root)
    del visit  # it refers to itself: without this, the tape waits for the cycle collector
    return tape


def _classify(p: dict, h: np.ndarray, label: int):
    z = p["Ws"] @ h + p["bs"]  # C x 1
    probs = _softmax_row(z.reshape(-1))
    loss = -float(np.log(probs[label]))
    dz = probs.reshape(-1, 1).copy()
    dz[label, 0] -= 1.0
    return z, loss, dz


def oracle_forward_backward(
    kind: str,
    params: dict,
    tree: TreeInstance,
    per_node_loss: bool = False,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and d(loss)/d(param) for every parameter, dense, by hand."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    p = {k: _arr(v) for k, v in params.items()}
    d = p["E"].shape[1]
    tape = _forward(kind, p, tree)

    g = {k: np.zeros_like(v) for k, v in p.items()}
    dh = {i: np.zeros((d, 1)) for i in tape.order}
    dc = {i: np.zeros((d, 1)) for i in tape.order}

    total = 0.0
    classified = tape.order if per_node_loss else [tree.root]
    for i in classified:
        _, loss, dz = _classify(p, tape.h[i], tree.labels[i])
        total += loss
        g["Ws"] += dz @ tape.h[i].T
        g["bs"] += dz
        dh[i] += p["Ws"].T @ dz

    for i in reversed(tape.order):
        aux = tape.aux[i]
        if kind == "treelstm":
            tc = np.tanh(tape.c[i])
            do = dh[i] * tc
            dci = dc[i] + dh[i] * aux["o"] * (1.0 - tc * tc)
            gi, go, gu = aux["i"], aux["o"], aux["u"]
            di = dci * gu
            du = dci * gi
            dai = di * gi * (1.0 - gi)
            dao = do * go * (1.0 - go)
            dau = du * (1.0 - gu * gu)
            if tree.is_leaf(i):
                xw = aux["xw"]
                g["Wi"] += dai @ xw.T
                g["Wo"] += dao @ xw.T
                g["Wu"] += dau @ xw.T
                g["bi"] += dai
                g["bo"] += dao
                g["bu"] += dau
                dxw = p["Wi"].T @ dai + p["Wo"].T @ dao + p["Wu"].T @ dau
                g["E"][tree.tokens[i]] += dxw.reshape(-1)
            else:
                l, r = tree.lefts[i], tree.rights[i]
                fl, fr = aux["fl"], aux["fr"]
                dfl = dci * tape.c[l]
                dfr = dci * tape.c[r]
                dc[l] += dci * fl
                dc[r] += dci * fr
                dafl = dfl * fl * (1.0 - fl)
                dafr = dfr * fr * (1.0 - fr)
                x = aux["x"]
                g["Ui"] += dai @ x.T
                g["Ufl"] += dafl @ x.T
                g["Ufr"] += dafr @ x.T
                g["Uo"] += dao @ x.T
                g["Uu"] += dau @ x.T
                g["bi"] += dai
                g["bf"] += dafl + dafr
                g["bo"] += dao
                g["bu"] += dau
                dx = (
                    p["Ui"].T @ dai
                    + p["Ufl"].T @ dafl
                    + p["Ufr"].T @ dafr
                    + p["Uo"].T @ dao
                    + p["Uu"].T @ dau
                )
                dh[l] += dx[:d]
                dh[r] += dx[d:]
        else:
            h = tape.h[i]
            da = dh[i] * (1.0 - h * h)
            if tree.is_leaf(i):
                g["E"][tree.tokens[i]] += da.reshape(-1)
            else:
                x = aux["x"]
                g["W"] += da @ x.T
                g["b"] += da
                dx = p["W"].T @ da
                if kind == "rntn":
                    for k in range(d):
                        vk = p[f"V_{k}"]
                        g[f"V_{k}"] += da[k, 0] * (x @ x.T)
                        dx = dx + da[k, 0] * ((vk + vk.T) @ x)
                l, r = tree.lefts[i], tree.rights[i]
                dh[l] += dx[:d]
                dh[r] += dx[d:]

    return total, g


def oracle_forward(
    kind: str,
    params: dict,
    tree: TreeInstance,
    per_node_loss: bool = False,
) -> tuple[float, np.ndarray]:
    """Loss and root logits (as a flat length-C array), forward only."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    p = {k: _arr(v) for k, v in params.items()}
    tape = _forward(kind, p, tree)
    total = 0.0
    for i in tape.order if per_node_loss else [tree.root]:
        _, loss, _ = _classify(p, tape.h[i], tree.labels[i])
        total += loss
    z = p["Ws"] @ tape.h[tree.root] + p["bs"]
    return total, z.reshape(-1)
