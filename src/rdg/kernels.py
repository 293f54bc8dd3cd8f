"""Per-node compute closures, compiled once at finalize.

Each kernel maps the frame's value list to the node's value. Control kinds
(invoke, cond, cond_grad, the gradient sink's reads) have no kernel here; the
scheduler interprets those, and a returning call writes its further outputs
straight into its `result` slots, which have none either. The sink's adds
have none: they are segment members that the scheduler runs from
`CompiledBody.sinks`, summing a matmul source that only they read
(`FUSED_SUMS`) without forming its per-frame products. Init kinds
(arguments, captures, constants, and the forward values a gradient frame
reads from the forward frame it mirrors) have none either: their values are
set when the frame is created. Nodes created by gradient synthesis are
compiled in a None-propagating variant: a None operand means "no gradient
flows", and the node's result is then None as well. Forward nodes stay
strict, so a missing value in a forward body fails loudly instead of leaking
None.

The maths kinds and `grad_accum` also get a batched variant (see
`compile_body`), which the scheduler runs once for a group of k frames at the
same node. Its operands are plain arrays: a 2-D array is one value shared by
every frame of the group (a parameter, a constant), a 3-D array stacks the k
per-frame values along axis 0. It returns a 3-D array whose slice j is frame
j's value, or a 2-D array when every operand was shared. Any operand a
batched variant cannot handle (a row table, a missing gradient) makes it
raise; the scheduler then runs the node's per-frame kernels, which also name
the failing frame.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from .tensor import Tensor, index_value, softmax_cross_entropy
from . import graph as _g

CONTROL_KINDS = frozenset({"invoke", "cond", "cond_grad", "grad_out"})
# Kernels that only sum values the frame already holds: they are never worth
# handing to another thread. No kernel only moves values: a call's outputs go
# straight into its result slots.
PLUMBING_KINDS = frozenset({"grad_accum"})
INIT_KINDS = frozenset(
    {"const", "none_const", "input", "capture", "fwd_value", "placeholder", "parameter"}
)

_W = Tensor._wrap


def _unary_fn(tag):
    if tag == "tanh":
        return np.tanh
    if tag == "sigmoid":
        return lambda x: 0.5 * (1.0 + np.tanh(0.5 * x))
    if tag == "neg":
        return np.negative
    if tag == "square":
        return np.square
    if isinstance(tag, tuple) and tag and tag[0] == "sleep":
        # identity with a fixed stall; used by scheduling tests and benches
        # to make op overlap observable on a wall clock.
        sec = tag[1]

        def slow_id(x, sec=sec):
            time.sleep(sec)
            return x

        return slow_id
    raise _g.BuildError(f"unknown unary function {tag!r}")


_BINARY = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "hadamard": lambda x, y: x * y,
    "tanh_bwd": lambda u, y: u * (1.0 - np.square(y)),  # upstream, tanh output
    "sigmoid_bwd": lambda u, y: u * y * (1.0 - y),  # upstream, sigmoid output
    "square_bwd": lambda u, x: 2.0 * u * x,  # upstream, squared input
    "scale": lambda x, s: x * s[0, 0],  # tensor, 1x1 factor
    "matmul_nt": lambda a, b: a @ b.T,
    "matmul_tn": lambda a, b: a.T @ b,
    "softmax_xent_bwd": None,  # handled specially: needs the label as an index
}


# Products a sink sums over a group's frames as one gemm: the per-frame
# product, and whether to swap the last two axes of both k-stacked operands
# to bring it to the form a_jᵀ b_j. The sum over frames j is then Aᵀ B, with
# A and B the operands' frames stacked row-wise.
FUSED_SUMS = {
    "matmul_nt": (_BINARY["matmul_nt"], True),
    "matmul_tn": (_BINARY["matmul_tn"], False),
}


def _binary_fn(tag):
    if tag not in _BINARY:
        raise _g.BuildError(f"unknown binary function {tag!r}")
    return _BINARY[tag]


def _build_strict(node):
    k = node.kind
    ins = tuple(node.inputs)
    if k == "matmul":
        a, b = ins
        return lambda v: _W(v[a].a @ v[b].a)
    if k == "unary":
        (a,) = ins
        f = _unary_fn(node.payload)
        return lambda v: _W(f(v[a].a))
    if k == "binary":
        a, b = ins
        if node.payload == "softmax_xent_bwd":

            def xent_bwd(v):
                logits = v[a].a
                label = int(index_value(v[b]))
                z = logits - logits.max()
                ez = np.exp(z)
                p = ez / ez.sum()
                p[0, label] -= 1.0
                return _W(p)

            return xent_bwd
        f = _binary_fn(node.payload)
        return lambda v: _W(f(v[a].a, v[b].a))
    if k == "transpose":
        (a,) = ins
        return lambda v: _W(v[a].a.T)
    if k == "slice_rows":
        (a,) = ins
        start, stop = node.payload
        return lambda v: _W(v[a].a[start:stop])
    if k == "concat_rows":
        a, b = ins
        return lambda v: _W(np.concatenate((v[a].a, v[b].a)))
    if k == "gather_row":
        a, b = ins

        def gather(v):
            i = int(index_value(v[b]))
            t = v[a]
            if not (0 <= i < t.rows):
                raise IndexError(f"row {i} out of range for {t.rows}x{t.cols} table")
            return _W(t.a[i : i + 1])

        return gather
    if k == "softmax_xent":
        a, b = ins

        def xent(v):
            loss, _ = softmax_cross_entropy(v[a], int(index_value(v[b])))
            return Tensor.scalar(loss)

        return xent
    if k == "scatter_row":
        a, b = ins
        shape = node.payload

        def scatter(v):
            i = int(index_value(v[b]))
            return _g.RowGrads(shape.rows, shape.cols, ((i, v[a].a),))

        return scatter
    if k == "grad_accum":
        return _build_grad_accum(ins)
    if k == "table_get":
        a, b = ins

        def tget(v):
            i = int(index_value(v[b]))
            t = v[a]
            if not (0 <= i < len(t.slots)):
                raise IndexError(f"slot {i} out of range for table of {len(t.slots)}")
            return _W(t.slots[i])

        return tget
    if k == "table_set":
        a, b, c = ins

        def tset(v):
            t = v[a]
            i = int(index_value(v[b]))
            if not (0 <= i < len(t.slots)):
                raise IndexError(f"slot {i} out of range for table of {len(t.slots)}")
            return t.set(i, v[c].a)

        return tset
    if k == "table_adj_scatter":
        a, b = ins
        shape = node.payload
        base = _g.RowTable.zeros(shape.rows, shape.cols)

        def tscatter(v):
            i = int(index_value(v[b]))
            return base.set(i, v[a].a)

        return tscatter
    if k == "table_zero_slot":
        a, b = ins
        zcol = None

        def tzero(v):
            nonlocal zcol
            t = v[a]
            if zcol is None or zcol.shape[0] != t.cols:
                z = np.zeros((t.cols, 1))
                z.flags.writeable = False
                zcol = z
            return t.set(int(index_value(v[b])), zcol)

        return tzero
    raise _g.BuildError(f"no kernel for kind {node.kind!r}")


def _build_grad_accum(ins):
    def accum(v):
        parts = [v[i] for i in ins if v[i] is not None]
        return functools.reduce(add_grads, parts) if parts else None

    return accum


def add_grads(a, b):
    """The sum of two gradients of one node: dense tensors add, row-sparse
    gradients concatenate their entries, and row tables add slot by slot."""
    if type(a) is not type(b):
        raise TypeError(f"mixed {type(a).__name__} and {type(b).__name__} gradients in one sum")
    if isinstance(a, _g.RowGrads):
        return a.merge(b)
    if isinstance(a, _g.RowTable):
        slots = tuple(x + y for x, y in zip(a.slots, b.slots))
        for x in slots:
            x.flags.writeable = False
        return _g.RowTable(slots, a.cols)
    return _W(a.a + b.a)


def _none_prop(fn, ins):
    def wrapped(v):
        for i in ins:
            if v[i] is None:
                return None
        return fn(v)

    return wrapped


def compile_body(g) -> tuple[list, list, list]:
    """Per node id: the per-frame kernel, its batched variant, and its work.

    Control, init, result and sink nodes get None, None, 0, so a sink add,
    which writes its instance's sink, never leaves the scheduler thread. The
    work is a rough count of multiply-adds per frame (inf for a stall): the
    scheduler hands a node's kernel for a group to another thread only when
    that is large enough to outweigh the handoff, since small numpy kernels
    hold the interpreter lock throughout.
    """
    n = len(g.nodes)
    fns: list = [None] * n
    batched: list = [None] * n
    work: list = [0.0] * n
    for node in g.nodes:
        k = node.kind
        if k in CONTROL_KINDS or k in INIT_KINDS or k in ("result", "sink_add"):
            continue
        fn = _build_strict(node)
        if (g.mirrors is not None or node.grad_flag) and node.kind != "grad_accum":
            fn = _none_prop(fn, tuple(node.inputs))
        fns[node.id] = fn
        batched[node.id] = _build_batched(node)
        if node.kind not in PLUMBING_KINDS:
            work[node.id] = _work(g, node)
    return fns, batched, work


def _work(g, node) -> float:
    shape = node.shape
    work = float((shape.rows or 1) * shape.cols) if isinstance(shape, _g.Shape) else 1.0
    tag = node.payload if node.kind in ("unary", "binary") else None
    if node.kind == "matmul" or tag == "matmul_nt":
        return work * g.nodes[node.inputs[0]].shape.cols
    if tag == "matmul_tn":
        return work * (g.nodes[node.inputs[0]].shape.rows or 1)
    if isinstance(tag, tuple) and tag[0] == "sleep":
        return math.inf
    return work


# -- batched variants ------------------------------------------------------


def _t(x):
    return x.swapaxes(-1, -2)


def _bmatmul(a, b):
    if a.ndim == 2 and b.ndim == 3:  # shared left factor: one gemm over k columns
        k, n, c = b.shape
        out = a @ b.transpose(1, 0, 2).reshape(n, k * c)
        return out.reshape(a.shape[0], k, c).transpose(1, 0, 2)
    if a.ndim == 3 and b.ndim == 2:  # shared right factor: one gemm over k*m rows
        k, m, n = a.shape
        return (a.reshape(k * m, n) @ b).reshape(k, m, b.shape[1])
    return np.matmul(a, b)


def _bindices(x):
    """Non-negative integral indices from k stacked 1x1 tensors.

    Within 1e-9 of an integer, as index_value asks. Too large an index makes
    the caller's fancy indexing raise.
    """
    if x.ndim != 3 or x.shape[1:] != (1, 1):
        raise ValueError("batched indices need k stacked 1x1 tensors")
    # Reductions on arrays this small cost more than comparing plain lists.
    v = x.reshape(-1)
    ii = v.astype(np.intp)
    exact = ii.tolist()
    if exact != v.tolist():
        r = np.rint(v)
        if (np.abs(v - r) >= 1e-9).any():
            raise ValueError("non-integral index in batch")
        ii = r.astype(np.intp)
        exact = ii.tolist()
    if min(exact) < 0:
        raise ValueError("negative index in batch")
    return ii


def _bgather(t, i):
    ii = _bindices(i)
    if t.ndim == 2:  # one table shared by every frame
        return t[ii][:, None, :]
    return t[np.arange(len(ii)), ii][:, None, :]  # a table per frame


def _bxent_parts(logits, label):
    if logits.ndim != 3 or logits.shape[1] != 1:
        raise ValueError("batched cross-entropy needs k stacked 1xC rows")
    lab = _bindices(label)
    if max(lab.tolist()) >= logits.shape[2]:
        raise IndexError("label out of range in batch")
    z = logits - logits.max(axis=2, keepdims=True)
    ez = np.exp(z)
    return lab, z, ez


def _bxent(logits, label):
    lab, z, ez = _bxent_parts(logits, label)
    rows = np.arange(len(lab))
    loss = np.log(ez.sum(axis=2)[:, 0]) - z[rows, 0, lab]
    return loss.reshape(-1, 1, 1)


def _bxent_bwd(logits, label):
    lab, _, ez = _bxent_parts(logits, label)
    p = ez / ez.sum(axis=2, keepdims=True)
    p[np.arange(len(lab)), 0, lab] -= 1.0
    return p


def _bconcat(a, b):
    if a.ndim != b.ndim:
        if a.ndim == 2:
            a = np.broadcast_to(a, (b.shape[0],) + a.shape)
        else:
            b = np.broadcast_to(b, (a.shape[0],) + b.shape)
    return np.concatenate((a, b), axis=-2)


_BATCHED = {
    "matmul": _bmatmul,
    "transpose": _t,
    "concat_rows": _bconcat,
    "gather_row": _bgather,
    "softmax_xent": _bxent,
    "grad_accum": lambda *parts: functools.reduce(np.add, parts),  # in add_grads' order
}


def _build_batched(node):
    k = node.kind
    if k in _BATCHED:
        return _BATCHED[k]
    if k == "unary":
        return _unary_fn(node.payload)
    if k == "binary":
        tag = node.payload
        if tag == "softmax_xent_bwd":
            return _bxent_bwd
        if tag == "scale":
            return lambda x, s: x * (s if s.ndim == 3 else s[0, 0])
        if tag == "matmul_nt":
            return lambda a, b: _bmatmul(a, _t(b))
        if tag == "matmul_tn":
            return lambda a, b: _bmatmul(_t(a), b)
        return _binary_fn(tag)
    if k == "slice_rows":
        start, stop = node.payload
        return lambda x: x[..., start:stop, :]
    return None
