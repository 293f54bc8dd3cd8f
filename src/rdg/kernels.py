"""Per-node compute closures, compiled once at finalize, and per-segment
functions, compiled on a segment's first use.

The maths of each kind is one function of its operand values (`maths`). A
dense value is a read-only float64 array; the other values are row tables
(`RowTable`) and row gradients (`RowGrads`), which the table kinds,
`scatter_row` and `grad_accum` take and make. A node's per-frame kernel
(`_build_strict`) reads its operands from the frame's value list, calls
its maths and freezes a new array it returns. Control kinds (invoke, cond,
cond_grad, the gradient sink's reads) have no kernel here; the scheduler
interprets those, and a returning call writes its further outputs
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

The maths kinds and `grad_accum` also get a batched variant, unless their
value is a row table or row gradients (see `compile_body`), which the
scheduler runs once for a group of k frames at the same node. Its operands
are plain arrays: a 2-D array is one value shared by every frame of the
group (a parameter, a constant), a 3-D array stacks the k per-frame values
along axis 0 (a `gather_row` table may also come as `Tables`, one per
instance). It returns a 3-D array whose slice j is frame j's value, or a
2-D array when every operand was shared. Where the stacked maths equal the
per-frame maths, the batched variant is the maths function itself. Any
operand a batched variant cannot handle (a missing gradient, say) makes it
raise; the scheduler then runs the node's per-frame kernels, which also
name the failing frame.

A group too small to stack runs its segment through `compile_segment`: one
generated function that calls every member's maths for one frame on local
values, and writes only the values that something outside the segment
reads to the frame.
"""

from __future__ import annotations

import functools
import operator
import time
from typing import Callable, NamedTuple

import numpy as np

from .tensor import index_of, softmax_cross_entropy
from . import graph as _g

CONTROL_KINDS = frozenset({"invoke", "cond", "cond_grad", "grad_out"})
# Kernels that only sum values the frame already holds, which the benchmark
# counts as plumbing. No kernel only moves values: a call's outputs go
# straight into its result slots.
PLUMBING_KINDS = frozenset({"grad_accum"})
INIT_KINDS = frozenset(
    {"const", "none_const", "input", "capture", "fwd_value", "placeholder", "parameter"}
)
# Kinds whose value may be, or hold, one of their operands: it is not a new
# array, so the operands are made read-only, not the value.
_HOLDING = frozenset(
    {"grad_accum", "scatter_row", "table_get", "table_set", "table_adj_scatter", "table_zero_slot"}
)


def _frozen(a):
    """a, made read-only where it lies: a kernel's result is a new array or
    a view of read-only operands, so it needs no copy."""
    a.flags.writeable = False
    return a


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
        # identity with a fixed stall; used by scheduling tests to make a
        # run's wall time observable.
        sec = tag[1]

        def slow_id(x, sec=sec):
            time.sleep(sec)
            return x

        return slow_id
    raise _g.BuildError(f"unknown unary function {tag!r}")


_BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "hadamard": operator.mul,
    "tanh_bwd": lambda u, y: u * (1.0 - np.square(y)),  # upstream, tanh output
    "sigmoid_bwd": lambda u, y: u * y * (1.0 - y),  # upstream, sigmoid output
    "square_bwd": lambda u, x: 2.0 * u * x,  # upstream, squared input
    "scale": lambda x, s: x * s[0, 0],  # tensor, 1x1 factor
    "matmul_nt": lambda a, b: a @ b.T,
    "matmul_tn": lambda a, b: a.T @ b,
    "softmax_xent_bwd": None,  # handled specially: needs the label as an index
}


# Products a sink sums over a group's frames as one gemm, and whether to swap
# the last two axes of both k-stacked operands to bring the per-frame product
# to the form a_jᵀ b_j. The sum over frames j is then Aᵀ B, with A and B the
# operands' frames stacked row-wise.
FUSED_SUMS = {"matmul_nt": True, "matmul_tn": False}


def _binary_fn(tag):
    if tag not in _BINARY:
        raise _g.BuildError(f"unknown binary function {tag!r}")
    return _BINARY[tag]


def _gather(table, i):
    i = index_of(i)
    if not (0 <= i < table.shape[0]):
        raise IndexError(f"row {i} out of range for {table.shape[0]}x{table.shape[1]} table")
    return table[i : i + 1]


def _xent(logits, label):
    return np.array([[softmax_cross_entropy(logits, index_of(label))[0]]])


def _xent_bwd(logits, label):
    label = index_of(label)
    z = logits - logits.max()
    ez = np.exp(z)
    p = ez / ez.sum()
    p[0, label] -= 1.0
    return p


def _accum(*parts):
    """The sum of the gradients that flow (None if none does), in input order."""
    parts = [p for p in parts if p is not None]
    return functools.reduce(add_grads, parts) if parts else None


def _slot(table, i) -> int:
    """Index i of a slot of `table`, checked."""
    i = index_of(i)
    if not (0 <= i < len(table.slots)):
        raise IndexError(f"slot {i} out of range for table of {len(table.slots)}")
    return i


def _table_get(table, i):
    return table.slots[_slot(table, i)]


def _table_set(table, i, col):
    return table.set(_slot(table, i), col)


def _t(x):
    return x.swapaxes(-1, -2)


def _bconcat(a, b):
    if a.ndim != b.ndim:
        if a.ndim == 2:
            a = np.broadcast_to(a, (b.shape[0],) + a.shape)
        else:
            b = np.broadcast_to(b, (a.shape[0],) + b.shape)
    return np.concatenate((a, b), axis=-2)


_MATHS = {
    "matmul": operator.matmul,
    "transpose": _t,
    "concat_rows": _bconcat,
    "gather_row": _gather,
    "softmax_xent": _xent,
    "grad_accum": _accum,
    "table_get": _table_get,
    "table_set": _table_set,
}


def maths(node):
    """The maths of `node` as a function of its operands' values, in input
    order. The per-frame kernels, the compiled segments and the fused sink
    adds call it; where the stacked maths are the same, it is also the
    batched variant."""
    k = node.kind
    if k in _MATHS:
        return _MATHS[k]
    if k == "unary":
        return _unary_fn(node.payload)
    if k == "binary":
        return _xent_bwd if node.payload == "softmax_xent_bwd" else _binary_fn(node.payload)
    if k == "slice_rows":
        return operator.itemgetter(slice(*node.payload))
    if k == "scatter_row":  # row d's contribution to row i of the payload's table
        table = node.payload
        return lambda d, i: _g.RowGrads.of(table.rows, table.cols, np.array([index_of(i)]), d)
    if k == "table_adj_scatter":  # column d in slot i of a zero table
        base = _g.RowTable.zeros(node.payload.rows, node.payload.cols)
        return lambda d, i: base.set(index_of(i), d)
    if k == "table_zero_slot":
        zero = _g.RowTable.zeros(1, node.shape.cols).slots[0]
        return lambda table, i: table.set(index_of(i), zero)
    raise _g.BuildError(f"no kernel for kind {node.kind!r}")


def _build_strict(node, lenient=False):
    """The per-frame kernel of `node`: `maths(node)` on the operands the
    frame's value list holds, with a new array it returns made read-only
    (a holding kind's value is not new). A `lenient` kernel gives None when
    an operand is None."""
    f = maths(node)
    ins = tuple(node.inputs)
    fresh = node.kind not in _HOLDING

    def kernel(v):
        ops = [v[i] for i in ins]
        if lenient and any(x is None for x in ops):
            return None
        return _frozen(f(*ops)) if fresh else f(*ops)

    return kernel


def sink_put(sink: dict, top_id: int, v, own: bool):
    """Add contribution v (an array, row gradients or a row table) to a sink
    entry. A dense entry is a private array, added to in place. The caller
    says whether v is its own (`own`: a fused product or a partial sum that
    nothing else holds), which a new entry adopts; anything else is a frame's
    value, which a new entry copies, so no frame value is ever written.
    Row gradients that meet a dense entry or contribution are densified;
    mixing a row table with anything else raises TypeError."""
    acc = sink.get(top_id)
    if acc is None:
        sink[top_id] = v.copy() if type(v) is np.ndarray and not own else v
    elif type(acc) is np.ndarray and type(v) is np.ndarray:
        acc += v
    elif type(acc) is np.ndarray and type(v) is _g.RowGrads:
        acc += v.to_dense().a
    elif type(acc) is _g.RowGrads and type(v) is np.ndarray:
        sink[top_id] = acc.to_dense().a + v  # a new private array
    else:
        sink[top_id] = add_grads(acc, v)


def _dense(g):
    """A dense gradient as an array: row gradients densified."""
    return g.to_dense().a if type(g) is _g.RowGrads else g


def add_grads(a, b):
    """The sum of two gradients of one node: dense tensors add, row-sparse
    gradients concatenate their entries, row gradients and a dense tensor add
    densified, and row tables add slot by slot."""
    if type(a) is not type(b):
        if {type(a), type(b)} != {np.ndarray, _g.RowGrads}:
            raise TypeError(f"mixed {type(a).__name__} and {type(b).__name__} gradients in one sum")
        return _frozen(_dense(a) + _dense(b))
    if isinstance(a, _g.RowGrads):
        return a.merge(b)
    if isinstance(a, _g.RowTable):
        slots = tuple(x + y for x, y in zip(a.slots, b.slots))
        for x in slots:
            x.flags.writeable = False
        return _g.RowTable(slots, a.cols)
    return _frozen(a + b)


def _lenient(mirrors, node) -> bool:
    """Whether node, of a body that mirrors forward body `mirrors` (or None),
    propagates None: gradient synthesis made it, and it does not sum
    gradients (`grad_accum` skips missing ones instead)."""
    return (mirrors is not None or node.grad_flag) and node.kind != "grad_accum"


def compile_body(g) -> tuple[list, list, list]:
    """Per node id: the per-frame kernel, its batched variant, and whether
    its value is never dense (see `row_valued`).

    Control, init, result and sink nodes get None, None: the scheduler runs
    them itself. Nodes whose values are row tables or row gradients have no
    batched variant: their values never stack.
    """
    n = len(g.nodes)
    fns: list = [None] * n
    batched: list = [None] * n
    rows = row_valued(g)
    for node in g.nodes:
        k = node.kind
        if k in CONTROL_KINDS or k in INIT_KINDS or k in ("result", "sink_add"):
            continue
        fns[node.id] = _build_strict(node, _lenient(g.mirrors, node))
        if not rows[node.id]:
            batched[node.id] = _build_batched(node)
    return fns, batched, rows


def row_valued(g) -> list[bool]:
    """Per node id, whether its value may be other than a dense tensor: a row
    table, row gradients, or a gradient sum over either (dense where row
    gradients meet a dense one). Such values never stack."""
    rows = [False] * len(g.nodes)
    for node in g.nodes:
        rows[node.id] = (
            type(node.shape) is _g.TableShape
            or node.kind == "scatter_row"
            or (node.kind == "grad_accum" and any(rows[i] for i in node.inputs))
        )
    return rows


# -- batched variants ------------------------------------------------------


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

    Within 1e-9 of an integer, as `index_of` asks. Too large an index makes
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


class Tables(NamedTuple):
    """The tables of a batched group's instances, for `gather_row`: their
    rows one table after another, and per frame where its instance's table
    starts and how many rows it has."""

    rows: np.ndarray
    start: np.ndarray
    size: np.ndarray


def _bgather(t, i):
    ii = _bindices(i)
    if type(t) is Tables:
        if (ii >= t.size).any():
            raise IndexError("row out of range in batch")
        return t.rows[t.start + ii][:, None, :]
    if t.ndim == 2:  # one table shared by every frame
        return t[ii][:, None, :]
    return t[np.arange(len(ii)), ii][:, None, :]  # a table per frame


def bscatter(d, i):
    """The batched `scatter_row` of k stacked 1xC rows d and 1x1 indices i:
    the k table row indices and the (k, C) rows. A sink splits them into one
    row gradient per instance."""
    if d.ndim != 3 or d.shape[1] != 1:
        raise ValueError("batched scatter needs k stacked 1xC rows")
    return _bindices(i), d.reshape(len(d), d.shape[2])


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


# Batched variants whose stacked maths differ from the per-frame maths, by
# kind or, for a binary node, by its function.
_BATCHED = {
    "matmul": _bmatmul,
    "gather_row": _bgather,
    "softmax_xent": _bxent,
    "grad_accum": lambda *parts: functools.reduce(np.add, parts),  # in add_grads' order
    "softmax_xent_bwd": _bxent_bwd,
    "scale": lambda x, s: x * (s if s.ndim == 3 else s[0, 0]),
    "matmul_nt": lambda a, b: _bmatmul(a, _t(b)),
    "matmul_tn": lambda a, b: _bmatmul(_t(a), b),
}


def _build_batched(node):
    k = node.kind
    tag = node.payload if k == "binary" else k
    if tag in _BATCHED:
        return _BATCHED[tag]
    if k == "slice_rows":
        start, stop = node.payload
        return lambda x: x[..., start:stop, :]
    return maths(node) if k in ("unary", "binary", "transpose", "concat_rows") else None


# -- compiled segments -----------------------------------------------------


class CompiledSegment(NamedTuple):
    """A segment compiled to run for one frame at a time (`compile_segment`):
    its members' maths on local values, with sink adds put in the sink."""

    run: Callable  # run(frame values, the instance's sink, held-back sink adds)
    members: tuple  # the members it runs, in the member loop's order
    deferred: tuple  # per held-back sink add, its top-level node id and ownership
    reads: tuple  # the nodes outside the segment that its members read


def compile_segment(body, u: int) -> CompiledSegment:
    """Segment u of `body` as one generated function that runs all its
    members for one frame, in the member loop's order (`body.steps`).

    A member has one of two forms. A maths member calls its `maths`
    function on its operands and keeps its value local: operands from
    outside the segment are loaded from the frame once, and only members
    that something outside the segment reads (`exposed`) are written to
    the frame. A new array is made read-only where it lies when it is
    written, or when a holding kind's value may hold it. None-propagating
    members give None when an operand is None, as their kernels do. A sink
    add puts its contribution straight into the instance's sink, a fused
    product computed from its operands; a later sink add of the same entry
    is held back in `later` until the group's frames have all run, so every
    entry sums its contributions in the member loop's member-major order.
    The maths functions are bound into the generated namespace; the source
    holds only node ids and fixed text.
    """
    members = body.steps[u]
    nodes = body.nodes
    local = {m for m in members if body.sinks[m] is None}
    held = {j for m in local if body.kinds[m] in _HOLDING for j in body.inputs[m]}
    ns = {"put": sink_put}
    lines = ["def segment(v, sink, later):"]
    loaded = set()

    def ref(j):  # the name of j's value: local if a member, else loaded from the frame
        if j in local:
            return f"x{j}"
        if j not in loaded:
            lines.append(f"    t{j} = v[{j}]")
            loaded.add(j)
        return f"t{j}"

    tops: set = set()
    deferred: list = []
    for m in members:
        ins = body.inputs[m]
        sink = body.sinks[m]
        if sink is not None:
            top, ids, product = sink.top, sink.ids, sink.product
            if body.exposed[m]:  # a top-level grad_out waits on it
                lines.append(f"    v[{m}] = None")
            checks = [ref(j) for j in ids]
            if product is None:
                value = checks[0]
            else:
                ns[f"p{m}"] = product
                value = f"p{m}({', '.join(checks)})"
            own = product is not None
            if top in tops:
                add = f"later[{len(deferred)}].append((sink, {value}))"
                deferred.append((top, own))
            else:
                add = f"put(sink, {top}, {value}, {own})"
                tops.add(top)
            lines.append(f"    if {' and '.join(c + ' is not None' for c in checks)}:")
            lines.append(f"        {add}")
            continue
        ns[f"f{m}"] = maths(nodes[m])
        call = f"f{m}({', '.join(ref(j) for j in ins)})"
        lenient = _lenient(body.mirrors, nodes[m])
        if lenient:
            call = f"None if {' or '.join(ref(j) + ' is None' for j in ins)} else {call}"
        lines.append(f"    x{m} = {call}")
        if body.kinds[m] not in _HOLDING and (body.exposed[m] or m in held):
            freeze = f"x{m}.flags.writeable = False"
            lines.append(f"    if x{m} is not None: {freeze}" if lenient else f"    {freeze}")
        if body.exposed[m]:
            lines.append(f"    v[{m}] = x{m}")
    exec(compile("\n".join(lines), f"<segment {u}>", "exec"), ns)
    reads = {j for m in members for j in (body.sinks[m].ids if body.sinks[m] else body.inputs[m])}
    reads = tuple(sorted(j for j in reads if body.unit_of[j] != u and not body.shared[j]))
    return CompiledSegment(ns["segment"], members, tuple(deferred), reads)
