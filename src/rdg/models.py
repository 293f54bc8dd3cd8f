"""Tree-model builders: recursive graphs and their sequential baselines.

Each model (TreeRNN, RNTN, binary TreeLSTM) is built two ways over the same
parameters and the same per-instance topology tables:

- recursive: one `Model` SubGraph that gathers `is_leaf[idx]` and conditions
  between a leaf cell and an internal cell with two recursive invocations of
  itself. One finalized graph serves every tree; the tree enters purely as
  fed tables, and the call tree mirrors the data tree. `Model` only
  dispatches, so finalize runs its gather and cond inside `Internal` (see
  `Graph._inline_dispatchers`): the top invokes `Model` once, and each tree
  node then costs one `Leaf` or `Internal` frame and one call site, so the
  default depth limit admits linear trees of up to 511 leaves.
- iterative: a build-time-unrolled chain of `Step` invocations, one per node
  slot up to a fixed capacity, threading functional state tables. Children
  always precede parents in node order, so step i can read its children's
  states from the table. Inactive slots (index >= instance size) pass state
  through untouched. The chain's data dependency makes the critical path as
  long as the node count — the sequential baseline the recursive form is
  measured against.

Conventions: states are d x 1 columns; embedding rows are 1 x d (transposed
once on gather); classifier logits become a 1 x C row at the cross-entropy
boundary. Feed tables are one column wide, one row per node: tokens, is_leaf,
lefts, rights, labels (plus active-slot flags for the iterative form), with
-1 in slots that a node kind does not use; laziness guarantees those slots
are never dereferenced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .data import TreeInstance, Vocab
from .graph import FinalizedGraph, Graph, NodeHandle, RowTable, TableShape
from .tensor import Tensor, random_init

MODEL_KINDS = ("treernn", "rntn", "treelstm")

CHECKPOINT_FORMAT = "rdg-ckpt-1"


class CapacityError(ValueError):
    """Instance does not fit the iterative chain it is being fed to."""


@dataclass(frozen=True)
class ModelConfig:
    kind: str
    d: int = 32
    vocab: int = 64
    classes: int = 2
    per_node_loss: bool = False

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if min(self.d, self.vocab, self.classes) < 1:
            raise ValueError("d, vocab, and classes must all be >= 1")


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, int]]:
    """Parameter names and shapes, in canonical (checkpoint) order."""
    d = cfg.d
    shapes: dict[str, tuple[int, int]] = {"E": (cfg.vocab, d)}
    if cfg.kind in ("treernn", "rntn"):
        shapes["W"] = (d, 2 * d)
        shapes["b"] = (d, 1)
        if cfg.kind == "rntn":
            for k in range(d):
                shapes[f"V_{k}"] = (2 * d, 2 * d)
    else:
        for name in ("Ui", "Ufl", "Ufr", "Uo", "Uu"):
            shapes[name] = (d, 2 * d)
        for name in ("Wi", "Wo", "Wu"):
            shapes[name] = (d, d)
        for name in ("bi", "bf", "bo", "bu"):
            shapes[name] = (d, 1)
    shapes["Ws"] = (cfg.classes, d)
    shapes["bs"] = (cfg.classes, 1)
    return shapes


def init_params(cfg: ModelConfig, seed: int = 0, scale: float = 0.1) -> dict[str, Tensor]:
    rng = np.random.default_rng(seed)
    out = {}
    for name, shape in param_shapes(cfg).items():
        if name.startswith("b"):
            out[name] = Tensor.zeros(*shape)
        else:
            out[name] = random_init(shape, scale, rng)
    return out


@dataclass
class BuiltModel:
    graph: FinalizedGraph
    loss: NodeHandle
    prediction: NodeHandle  # root logits as a 1 x C row
    feeds: dict[str, NodeHandle]
    params: dict[str, NodeHandle]
    config: ModelConfig
    mode: str  # "recursive" | "iterative"
    capacity: int | None = None


# -- shared cell math ------------------------------------------------------


def _gate(b: Graph, w, x, bias, squash: str):
    return b.unary(b.add(b.matmul(w, x), bias), squash)


def _leaf_cell(b: Graph, P: dict, kind: str, xw):
    """States for a leaf given its embedding column xw (d x 1)."""
    if kind == "treelstm":
        i = _gate(b, P["Wi"], xw, P["bi"], "sigmoid")
        o = _gate(b, P["Wo"], xw, P["bo"], "sigmoid")
        u = _gate(b, P["Wu"], xw, P["bu"], "tanh")
        c = b.hadamard(i, u)
        h = b.hadamard(o, b.tanh(c))
        return [h, c]
    return [b.tanh(xw)]


def _internal_cell(b: Graph, P: dict, kind: str, d: int, left_states, right_states):
    """States for an internal node given both children's states."""
    x = b.concat_rows(left_states[0], right_states[0])  # [h_l; h_r], 2d x 1
    if kind == "treelstm":
        i = _gate(b, P["Ui"], x, P["bi"], "sigmoid")
        fl = _gate(b, P["Ufl"], x, P["bf"], "sigmoid")
        fr = _gate(b, P["Ufr"], x, P["bf"], "sigmoid")
        o = _gate(b, P["Uo"], x, P["bo"], "sigmoid")
        u = _gate(b, P["Uu"], x, P["bu"], "tanh")
        c = b.add(
            b.add(b.hadamard(i, u), b.hadamard(fl, left_states[1])),
            b.hadamard(fr, right_states[1]),
        )
        h = b.hadamard(o, b.tanh(c))
        return [h, c]
    a = b.add(b.matmul(P["W"], x), P["b"])
    if kind == "rntn":
        xt = b.transpose(x)
        q = None
        for k in range(d):
            qk = b.matmul(b.matmul(xt, P[f"V_{k}"]), x)  # 1 x 1
            q = qk if q is None else b.concat_rows(q, qk)
        a = b.add(a, q)
    return [b.tanh(a)]


def _node_xent(b: Graph, P: dict, labels, idx, h):
    """Cross-entropy of the classifier over state h against labels[idx]."""
    logits = b.transpose(b.add(b.matmul(P["Ws"], h), P["bs"]))
    return b.softmax_xent(logits, b.gather_row(labels, idx))


def _n_states(kind: str) -> int:
    return 2 if kind == "treelstm" else 1


# -- recursive builder -----------------------------------------------------


def build_recursive(cfg: ModelConfig) -> BuiltModel:
    d, kind = cfg.d, cfg.kind
    g = Graph()
    P = {name: g.parameter(name, shape) for name, shape in param_shapes(cfg).items()}
    feeds = {
        name: g.placeholder((None, 1), name)
        for name in ("tokens", "is_leaf", "lefts", "rights", "labels")
    }
    root = g.placeholder((1, 1), "root")
    feeds["root"] = root

    state_sig = [(d, 1)] * _n_states(kind)
    out_sig = state_sig + ([(1, 1)] if cfg.per_node_loss else [])
    model = g.declare_subgraph("Model", [(1, 1)], out_sig)
    leaf = g.declare_subgraph("Leaf", [(1, 1)], out_sig)
    internal = g.declare_subgraph("Internal", [(1, 1)], out_sig)

    mb = g.body(model)
    (idx,) = mb.args
    pred = mb.gather_row(feeds["is_leaf"], idx)
    mb.set_outputs(mb.cond(pred, leaf, internal, [idx]))
    g.define_subgraph(model, mb)

    lb = g.body(leaf)
    (idx,) = lb.args
    tok = lb.gather_row(feeds["tokens"], idx)
    xw = lb.transpose(lb.gather_row(P["E"], tok))
    states = _leaf_cell(lb, P, kind, xw)
    if cfg.per_node_loss:
        states = states + [_node_xent(lb, P, feeds["labels"], idx, states[0])]
    lb.set_outputs(states)
    g.define_subgraph(leaf, lb)

    ib = g.body(internal)
    (idx,) = ib.args
    lkid = ib.gather_row(feeds["lefts"], idx)
    rkid = ib.gather_row(feeds["rights"], idx)
    louts = ib.invoke(model, [lkid])
    routs = ib.invoke(model, [rkid])
    ns = _n_states(kind)
    states = _internal_cell(ib, P, kind, d, louts[:ns], routs[:ns])
    if cfg.per_node_loss:
        own = _node_xent(ib, P, feeds["labels"], idx, states[0])
        states = states + [ib.add(own, ib.add(louts[ns], routs[ns]))]
    ib.set_outputs(states)
    g.define_subgraph(internal, ib)

    outs = g.invoke(model, [root])
    h_root = outs[0]
    prediction = g.transpose(g.add(g.matmul(P["Ws"], h_root), P["bs"]))
    if cfg.per_node_loss:
        loss = outs[-1]
    else:
        loss = g.softmax_xent(prediction, g.gather_row(feeds["labels"], root))
    fg = g.finalize()
    return BuiltModel(fg, loss, prediction, feeds, P, cfg, mode="recursive")


# -- iterative builder -----------------------------------------------------


def build_iterative(cfg: ModelConfig, capacity: int) -> BuiltModel:
    if capacity < 1:
        raise ValueError("capacity must be >= 1")
    d, kind = cfg.d, cfg.kind
    ns = _n_states(kind)
    g = Graph()
    P = {name: g.parameter(name, shape) for name, shape in param_shapes(cfg).items()}
    feeds = {
        name: g.placeholder((capacity, 1), name)
        for name in ("tokens", "is_leaf", "lefts", "rights", "labels", "active")
    }
    root = g.placeholder((1, 1), "root")
    feeds["root"] = root

    tshape = TableShape(capacity, d)
    chain_sig = [tshape] * ns + [(1, 1)]  # state tables + loss accumulator
    step_sig_in = chain_sig + [(1, 1)]  # + node index

    step = g.declare_subgraph("Step", step_sig_in, chain_sig)
    work = g.declare_subgraph("Work", step_sig_in, chain_sig)
    skip = g.declare_subgraph("Skip", step_sig_in, chain_sig)
    leafstep = g.declare_subgraph("LeafStep", step_sig_in, chain_sig)
    internalstep = g.declare_subgraph("InternalStep", step_sig_in, chain_sig)

    sb = g.body(step)
    args = list(sb.args)
    on = sb.gather_row(feeds["active"], args[-1])
    sb.set_outputs(sb.cond(on, work, skip, args))
    g.define_subgraph(step, sb)

    kb = g.body(skip)
    kb.set_outputs(list(kb.args[:-1]))
    g.define_subgraph(skip, kb)

    wb = g.body(work)
    args = list(wb.args)
    isleaf = wb.gather_row(feeds["is_leaf"], args[-1])
    wb.set_outputs(wb.cond(isleaf, leafstep, internalstep, args))
    g.define_subgraph(work, wb)

    def finish_step(b: Graph, tables, acc, idx, states):
        """Write this node's states into the tables and settle the loss."""
        out_tables = [b.table_set(t, idx, s) for t, s in zip(tables, states)]
        if cfg.per_node_loss:
            acc = b.add(acc, _node_xent(b, P, feeds["labels"], idx, states[0]))
        b.set_outputs(out_tables + [acc])

    lb = g.body(leafstep)
    *tables, acc, idx = lb.args
    tok = lb.gather_row(feeds["tokens"], idx)
    xw = lb.transpose(lb.gather_row(P["E"], tok))
    finish_step(lb, tables, acc, idx, _leaf_cell(lb, P, kind, xw))
    g.define_subgraph(leafstep, lb)

    ib = g.body(internalstep)
    *tables, acc, idx = ib.args
    lkid = ib.gather_row(feeds["lefts"], idx)
    rkid = ib.gather_row(feeds["rights"], idx)
    lstates = [ib.table_get(t, lkid) for t in tables]
    rstates = [ib.table_get(t, rkid) for t in tables]
    finish_step(ib, tables, acc, idx, _internal_cell(ib, P, kind, d, lstates, rstates))
    g.define_subgraph(internalstep, ib)

    chain = [g.constant(RowTable.zeros(capacity, d)) for _ in range(ns)]
    chain.append(g.constant(Tensor.zeros(1, 1)))
    for i in range(capacity):
        chain = g.invoke(step, [*chain, g.constant(Tensor.scalar(float(i)))])
    h_root = g.table_get(chain[0], root)
    prediction = g.transpose(g.add(g.matmul(P["Ws"], h_root), P["bs"]))
    if cfg.per_node_loss:
        loss = chain[-1]
    else:
        loss = g.softmax_xent(prediction, g.gather_row(feeds["labels"], root))
    fg = g.finalize()
    return BuiltModel(
        fg, loss, prediction, feeds, P, cfg, mode="iterative", capacity=capacity
    )


def build_model(cfg: ModelConfig, mode: str, capacity: int) -> BuiltModel:
    """`cfg`'s model in `mode`: recursive, or iterative unrolled to `capacity` nodes."""
    if mode == "recursive":
        return build_recursive(cfg)
    if mode == "iterative":
        return build_iterative(cfg, capacity=capacity)
    raise ValueError(f"unknown mode {mode!r}")


# -- feeds -----------------------------------------------------------------


def make_feeds(model: BuiltModel, tree: TreeInstance) -> dict[str, Tensor]:
    """Feed tables for one tree, shaped for the given built model.

    One conversion of the tree's columns fills a read-only table whose rows
    are the feeds; each feed is a view of its row.
    """
    n = tree.n_nodes
    names = ["tokens", "is_leaf", "lefts", "rights", "labels"]
    cols = (tree.tokens, tree.tokens, tree.lefts, tree.rights, tree.labels)
    if model.mode == "iterative":
        cap = model.capacity
        if n > cap:
            raise CapacityError(f"instance has {n} nodes, built capacity is {cap}")
        names.append("active")
        table = np.full((6, cap), -1.0)  # -1 pads the slots past the tree
        table[:5, :n] = cols
        table[5] = 0.0
        table[5, :n] = 1.0
    else:
        table = np.array(cols, dtype=float)
    table[1, :n] = table[0, :n] >= 0  # leaves hold a token
    table.flags.writeable = False
    out = {name: Tensor._wrap(row.reshape(-1, 1)) for name, row in zip(names, table)}
    out["root"] = Tensor.scalar(float(tree.root))
    return out


# -- checkpoints -----------------------------------------------------------


def save_checkpoint(
    path: str | Path,
    cfg: ModelConfig,
    params: dict[str, Tensor],
    vocab: Vocab | None = None,
) -> None:
    blob = {
        "format": CHECKPOINT_FORMAT,
        "kind": cfg.kind,
        "d": cfg.d,
        "V": cfg.vocab,
        "C": cfg.classes,
        "params": {
            name: {
                "rows": t.rows,
                "cols": t.cols,
                "data": [float(x) for x in t.a.reshape(-1)],
            }
            for name, t in params.items()
        },
    }
    if vocab is not None:
        blob["vocab"] = list(vocab.id_to_token)
    Path(path).write_text(json.dumps(blob))


def load_checkpoint(path: str | Path) -> tuple[ModelConfig, dict[str, Tensor], Vocab | None]:
    blob = json.loads(Path(path).read_text())
    if blob.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(
            f"not a {CHECKPOINT_FORMAT} checkpoint: format={blob.get('format')!r}"
        )
    cfg = ModelConfig(kind=blob["kind"], d=blob["d"], vocab=blob["V"], classes=blob["C"])
    want = param_shapes(cfg)
    params = {}
    for name, entry in blob["params"].items():
        if name not in want:
            raise ValueError(f"unexpected parameter {name!r} for {cfg.kind}")
        rows, cols = entry["rows"], entry["cols"]
        if (rows, cols) != want[name]:
            raise ValueError(
                f"parameter {name!r}: checkpoint says {rows}x{cols}, "
                f"model wants {want[name][0]}x{want[name][1]}"
            )
        params[name] = Tensor.from_array(
            np.asarray(entry["data"], dtype=float).reshape(rows, cols)
        )
    missing = sorted(set(want) - set(params))
    if missing:
        raise ValueError(f"checkpoint is missing parameter(s): {', '.join(missing)}")
    vocab = None
    if "vocab" in blob:
        vocab = Vocab()
        for tok in blob["vocab"]:
            vocab.add(tok)
    return cfg, params, vocab
