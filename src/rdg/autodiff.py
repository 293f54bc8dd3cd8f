"""Reverse-mode differentiation with first-class recursion.

`differentiate` clones the finalized forward graph, then sweeps it backwards
emitting vector-Jacobian products. Each SubGraph F gets a synthesized
gradient SubGraph F__grad that mirrors F's signature: its inputs are the
gradients of F's outputs, and its outputs are the gradients of F's inputs,
followed, for a body nested in another body, by the gradients of the nodes
of enclosing bodies that F captures. A recursive Invoke in F is mirrored by
a recursive Invoke of F__grad at the same position, and each gradient frame
is paired with the forward frame it mirrors. Forward values a gradient needs
are wired directly when they live in the same frame. Otherwise they are
`fwd_value` slots of the gradient body, filled from the mirrored forward
frame when the gradient frame is created, the way arguments are. A call's
output j is its node id + j (the call node, then its `result` slots), so the
gradients of a call's outputs are read from those ids, and a gradient call
returns the gradients of its arguments into its own result slots.

Gradients of top-level nodes do not travel back through return values.
Every contribution to a top-level node that a body captures (a parameter,
say), and every contribution to a `wrt` node, goes to the instance's
gradient sink through a `sink_add` node. A top-level `grad_out` node reads
the sum, or zeros when nothing arrived, once every top-level gradient call
has returned. No gradient is emitted toward a top-level parameter,
placeholder or constant outside `wrt`, nor toward its capture proxies.

A cond gradient runs the gradient of the branch its mirrored forward frame
ran; the untaken branch's parameters receive no contribution, which
materializes as exact zeros at the top level. Its slots hold the gradients
of the cond's arguments, then of the enclosing-body nodes that the then and
the else branch capture; the untaken branch's capture slots hold None.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graph import (
    BuildError,
    CondGradPayload,
    FinalizedGraph,
    Graph,
    NodeHandle,
    Shape,
    SubGraphRef,
    _target_names,
    _toposort,
)
from .tensor import Tensor


@dataclass
class GradientMap:
    """Where to find gradients in the extended graph."""

    loss: NodeHandle
    param_grads: dict = field(default_factory=dict)  # wrt name -> grad NodeHandle
    param_order: list = field(default_factory=list)


def _clone(fg: FinalizedGraph) -> tuple[Graph, dict]:
    """Structural copy of the finalized builder graph, in pre-wiring form.

    Node ids are preserved. The capture operands that finalize appended to
    call nodes are stripped (finalize re-derives them), so the clone can be
    extended and finalized again.
    """
    src_top = fg.graph
    gmap: dict[int, Graph] = {}
    top = Graph(label="top")
    gmap[id(src_top)] = top
    _clone_nodes(src_top, top, gmap)

    for name in src_top.declared_order:
        d = src_top.registry[name]
        top.registry[name] = type(d)(name, d.in_shapes, d.out_shapes)
        top.declared_order.append(name)

    def depth(g: Graph) -> int:
        n = 0
        while g.parent is not None:
            g = g.parent
            n += 1
        return n

    for name in sorted(src_top.declared_order, key=lambda n: depth(src_top.registry[n].body)):
        d = src_top.registry[name]
        parent_clone = gmap[id(d.body.parent)]
        body = Graph(parent=parent_clone, label=name)
        gmap[id(d.body)] = body
        _clone_nodes(d.body, body, gmap)
        body.outputs = list(d.body.outputs)
        top.registry[name].body = body
    return top, gmap


def _clone_nodes(src: Graph, dst: Graph, gmap: dict):
    for n in src.nodes:
        kind, payload, inputs = n.kind, n.payload, n.inputs
        names = _target_names(n)
        if names:
            inputs = inputs[: len(inputs) - sum(len(src.registry[t].captures) for t in names)]
        if kind == "capture":
            outer: NodeHandle = payload
            outer_clone = NodeHandle(gmap[id(outer.graph)], outer.id)
            node = dst.add_node("capture", (), payload=outer_clone, shape=n.shape)
            dst.capture_map[(id(outer_clone.graph), outer_clone.id)] = node.id
            dst.capture_order.append(outer_clone)
            continue
        handles = [NodeHandle(dst, i) for i in inputs]
        h = dst.add_node(kind, handles, payload=payload, shape=n.shape)
        assert h.id == n.id
        if kind == "input":
            dst.arg_ids.append(h.id)


def _inner_captures(body: Graph) -> list[NodeHandle]:
    """The nodes of enclosing bodies (not the top level) that `body` captures."""
    return [c for c in body.capture_order if c.graph.parent is not None]


class _Context:
    """One graph being swept backwards: the top level or one SubGraph body."""

    def __init__(self, synth: "_Synth", fwd: Graph, out: Graph):
        self.synth = synth
        self.fwd = fwd  # graph whose nodes we differentiate
        self.out = out  # graph receiving emitted gradient nodes
        self.adjoint: dict[int, list[NodeHandle]] = {}
        self.cap_out: dict[int, list[NodeHandle]] = {}  # inner capture index -> grads
        self._reads: dict[int, NodeHandle] = {}

    # -- context plumbing ------------------------------------------------

    def emit(self, kind, inputs=(), payload=None, shape=None) -> NodeHandle:
        h = self.out.add_node(kind, inputs, payload=payload, shape=shape)
        self.out.nodes[h.id].grad_flag = True
        return h

    def val(self, nid: int) -> NodeHandle:
        """Handle for the forward value of node `nid` of self.fwd."""
        node = self.fwd.nodes[nid]
        if self.fwd is self.out:
            return NodeHandle(self.fwd, nid)
        if node.kind == "capture" and node.payload.graph.parent is None:
            # Top-level values are the same in every frame: re-capture the
            # outer node. Captures of an intermediate frame's nodes are read
            # like any other frame-local value (the proxy holds it).
            return node.payload
        if node.kind == "const":
            return self.emit("const", (), payload=node.payload, shape=node.shape)
        h = self._reads.get(nid)
        if h is None:
            h = self._reads[nid] = self.emit("fwd_value", payload=nid, shape=node.shape)
        return h

    def add_adjoint(self, nid: int, h: NodeHandle):
        """Record a contribution to node `nid`'s gradient. One to a top-level
        node (a `wrt` node, or the top-level node a capture proxy stands
        for) goes to the sink instead."""
        node = self.fwd.nodes[nid]
        if self.fwd.parent is None:
            target = nid if nid in self.synth.wrt else None
        else:
            top = node.kind == "capture" and node.payload.graph.parent is None
            target = node.payload.id if top else None
        if target is None:
            self.adjoint.setdefault(nid, []).append(h)
        else:
            self.synth.sunk.add(target)
            s = self.emit("sink_add", (h,), payload=target)
            if self.fwd.parent is None:
                self.synth.waits.append(s)

    def want(self, nid: int) -> bool:
        """False for nodes whose gradient no one wants: constants, and
        top-level parameters and placeholders outside `wrt`."""
        node = self.fwd.nodes[nid]
        if node.kind == "capture":
            node = node.payload.graph.nodes[node.payload.id]
        if node.kind in ("parameter", "placeholder"):
            return node.id in self.synth.wrt
        return node.kind not in ("const", "none_const")

    def route_capture(self, c: NodeHandle, h: NodeHandle):
        """Route the gradient of captured enclosing-body node `c`."""
        if c.graph is self.fwd:
            if self.want(c.id):
                self.add_adjoint(c.id, h)
        else:
            j = _inner_captures(self.fwd).index(c)
            self.cap_out.setdefault(j, []).append(h)

    def total(self, parts):
        if not parts:
            return None
        if len(parts) == 1:
            return parts[0]
        return self.emit("grad_accum", tuple(parts))

    def combined(self, nid: int):
        return self.total(self.adjoint.get(nid))

    def grad_or_none(self, h, shape) -> NodeHandle:
        if h is not None:
            return h
        return self.emit("none_const", (), shape=shape)


class _Synth:
    """Session state for one differentiate() call."""

    def __init__(self, top: Graph, wrt: set[int]):
        self.top = top
        self.registry = top.registry
        self.wrt = wrt  # top-level node ids
        self.gsub: dict[str, SubGraphRef] = {}
        self.sunk: set[int] = set()  # top-level ids that have sink_add nodes
        # top-level gradient calls and sink adds: sink reads wait for them
        self.waits: list[NodeHandle] = []

    def gradient_subgraph(self, name: str) -> SubGraphRef:
        ref = self.gsub.get(name)
        if ref is not None:
            return ref
        d = self.registry[name]
        gname = f"{name}__grad"
        while gname in self.registry:
            gname += "_"
        inner = _inner_captures(d.body)
        out_shapes = [d.body.nodes[i].shape for i in d.body.arg_ids]
        out_shapes += [c.graph.nodes[c.id].shape for c in inner]
        ref = self.top.declare_subgraph(gname, d.out_shapes, out_shapes)
        self.gsub[name] = ref  # registered before the body: recursion closes here

        body = self.top.body(ref)
        body.mirrors = name
        ctx = _Context(self, d.body, body)
        for j, out_id in enumerate(d.body.outputs):
            if ctx.want(out_id):
                ctx.add_adjoint(out_id, body.args[j])
        _sweep(ctx)

        outs = [
            ctx.grad_or_none(ctx.combined(i), d.body.nodes[i].shape) for i in d.body.arg_ids
        ]
        for j, c in enumerate(inner):
            proxy = d.body.capture_map[(id(c.graph), c.id)]
            parts = ctx.cap_out.get(j, []) + ctx.adjoint.get(proxy, [])
            outs.append(ctx.grad_or_none(ctx.total(parts), c.graph.nodes[c.id].shape))
        body.set_outputs(outs)
        self.top.define_subgraph(ref, body)
        return ref


def _sweep_order(ctx: _Context) -> list[int]:
    """Node ids of ctx.fwd, topologically ordered.

    Plain id order is almost topological, but a call site also depends on the
    nodes its target captures (finalize wires them in as operands), and a
    body defined after the call site can capture nodes with larger ids than
    the site. Gradients flow from a site to its captured nodes, so the sweep
    must respect those edges too.
    """
    fwd = ctx.fwd
    srcs = []
    for node in fwd.nodes:
        ins = set(node.inputs)
        for tname in _target_names(node):
            body = ctx.synth.registry[tname].body
            if body is not None:
                ins.update(c.id for c in body.capture_order if c.graph is fwd)
        srcs.append(ins)
    order, cyclic = _toposort(srcs)
    if cyclic:
        raise BuildError(f"cycle while ordering {fwd.label!r} for differentiation")
    return order


def _sweep(ctx: _Context):
    fwd = ctx.fwd
    synth = ctx.synth
    for nid in reversed(_sweep_order(ctx)):
        node = fwd.nodes[nid]
        kind = node.kind
        if fwd.parent is None and nid in synth.sunk and nid not in synth.wrt:
            # a computed top-level node that bodies captured: its sink entry
            # is complete once every gradient call emitted so far returned
            sink = ctx.emit("grad_out", tuple(synth.waits), payload=(nid, node.shape))
            ctx.add_adjoint(nid, sink)
        if kind == "result":  # its call's sweep reads its gradient
            continue
        if kind == "invoke":
            _vjp_invoke(ctx, node)
            continue
        if kind == "cond":
            _vjp_cond(ctx, node)
            continue
        d = ctx.combined(nid)
        if d is None:
            continue
        _vjp_node(ctx, node, d)


def _vjp_node(ctx: _Context, node, d: NodeHandle):
    kind = node.kind
    ins = node.inputs
    emit, val, want = ctx.emit, ctx.val, ctx.want

    def add(nid, thunk):
        if ctx.want(nid):
            ctx.add_adjoint(nid, thunk() if callable(thunk) else thunk)

    if kind in (
        "placeholder",
        "parameter",
        "const",
        "none_const",
        "input",
        "capture",
    ):
        return
    if kind == "matmul":
        a, b = ins
        add(a, lambda: emit("binary", (d, val(b)), payload="matmul_nt"))
        add(b, lambda: emit("binary", (val(a), d), payload="matmul_tn"))
        return
    if kind == "unary":
        (a,) = ins
        tag = node.payload
        if tag == "tanh":
            add(a, lambda: emit("binary", (d, val(node.id)), payload="tanh_bwd"))
        elif tag == "sigmoid":
            add(a, lambda: emit("binary", (d, val(node.id)), payload="sigmoid_bwd"))
        elif tag == "neg":
            add(a, lambda: emit("unary", (d,), payload="neg"))
        elif tag == "square":
            add(a, lambda: emit("binary", (d, val(a)), payload="square_bwd"))
        elif isinstance(tag, tuple) and tag and tag[0] == "sleep":
            add(a, d)
        else:
            raise BuildError(f"no derivative rule for unary {tag!r}")
        return
    if kind == "binary":
        a, b = ins
        tag = node.payload
        if tag == "add":
            add(a, d)
            add(b, d)
        elif tag == "sub":
            add(a, d)
            add(b, lambda: emit("unary", (d,), payload="neg"))
        elif tag == "hadamard":
            add(a, lambda: emit("binary", (d, val(b)), payload="hadamard"))
            add(b, lambda: emit("binary", (d, val(a)), payload="hadamard"))
        else:
            raise BuildError(f"no derivative rule for binary {tag!r}")
        return
    if kind == "transpose":
        add(ins[0], lambda: emit("transpose", (d,)))
        return
    if kind == "concat_rows":
        a, b = ins
        ra = ctx.fwd.nodes[a].shape.rows
        rb = ctx.fwd.nodes[b].shape.rows
        if ra is None or rb is None:
            raise BuildError("cannot differentiate concat_rows with dynamic rows")
        add(a, lambda: emit("slice_rows", (d,), payload=(0, ra)))
        add(b, lambda: emit("slice_rows", (d,), payload=(ra, ra + rb)))
        return
    if kind == "gather_row":
        t, i = ins
        add(
            t,
            lambda: emit("scatter_row", (d, val(i)), payload=ctx.fwd.nodes[t].shape),
        )
        return
    if kind == "softmax_xent":
        logits, label = ins
        if want(logits):
            raw = emit(
                "binary", (val(logits), val(label)), payload="softmax_xent_bwd"
            )
            ctx.add_adjoint(logits, emit("binary", (raw, d), payload="scale"))
        return
    if kind == "table_get":
        t, i = ins
        add(
            t,
            lambda: emit(
                "table_adj_scatter",
                (d, val(i)),
                payload=ctx.fwd.nodes[t].shape,
            ),
        )
        return
    if kind == "table_set":
        t, i, v = ins
        add(t, lambda: emit("table_zero_slot", (d, val(i))))
        add(v, lambda: emit("table_get", (d, val(i))))
        return
    raise BuildError(f"no derivative rule for node kind {kind!r}")


def _upstream(ctx: _Context, node, out_shapes) -> list[NodeHandle] | None:
    """The gradients of a call's outputs, or None if all are None. Output j
    is node id + j: the call node, then its result slots."""
    douts = [ctx.grad_or_none(ctx.combined(node.id + j), s) for j, s in enumerate(out_shapes)]
    if all(ctx.out.nodes[h.id].kind == "none_const" for h in douts):
        return None
    return douts


def _vjp_invoke(ctx: _Context, node):
    name = node.payload[0]
    d = ctx.synth.registry[name]
    douts = _upstream(ctx, node, d.out_shapes)
    if douts is None:
        return
    gref = ctx.synth.gradient_subgraph(name)
    gd = ctx.synth.registry[gref.name]
    # the call node exists even when the gradient has no outputs
    gouts = ctx.out.call_node("invoke", tuple(douts), (gref.name, node.id), gd.out_shapes)
    if ctx.fwd is ctx.out:
        ctx.synth.waits.append(gouts[0])  # settles once the call returned
    for i, arg in enumerate(node.inputs):
        if ctx.want(arg):
            ctx.add_adjoint(arg, gouts[i])
    for j, c in enumerate(_inner_captures(d.body)):
        ctx.route_capture(c, gouts[len(node.inputs) + j])


def _vjp_cond(ctx: _Context, node):
    tname, ename = node.payload
    tdef = ctx.synth.registry[tname]
    edef = ctx.synth.registry[ename]
    douts = _upstream(ctx, node, tdef.out_shapes)
    if douts is None:
        return
    g_then = ctx.synth.gradient_subgraph(tname)
    g_else = ctx.synth.gradient_subgraph(ename)
    caps_t = _inner_captures(tdef.body)
    caps_e = _inner_captures(edef.body)
    n_args = len(tdef.in_shapes)
    n_union = n_args + len(caps_t) + len(caps_e)
    then_slots = tuple(range(n_args + len(caps_t)))
    else_slots = tuple(range(n_args)) + tuple(
        range(n_args + len(caps_t), n_union)
    )
    arg_ids = node.inputs[1:]  # input 0 is the predicate: no gradient
    union_shapes = [tdef.body.nodes[i].shape for i in tdef.body.arg_ids]
    union_shapes += [c.graph.nodes[c.id].shape for c in caps_t + caps_e]
    payload = CondGradPayload(
        cond_site=node.id,
        then_name=g_then.name,
        else_name=g_else.name,
        n_args=n_args,
        then_slots=then_slots,
        else_slots=else_slots,
    )
    slots = ctx.out.call_node("cond_grad", douts, payload, union_shapes)
    if ctx.fwd is ctx.out:
        ctx.synth.waits.append(slots[0])
    for i, arg in enumerate(arg_ids):
        if ctx.want(arg):
            ctx.add_adjoint(arg, slots[i])
    for j, c in enumerate(caps_t + caps_e):
        ctx.route_capture(c, slots[n_args + j])


def differentiate(
    fg: FinalizedGraph, loss: NodeHandle, wrt: list[NodeHandle]
) -> tuple[FinalizedGraph, GradientMap]:
    """Extend `fg` with gradient computation for d(loss)/d(each wrt node)."""
    if fg.from_differentiate:
        raise BuildError(
            "gradient of a gradient is not supported: differentiate the "
            "original forward graph instead"
        )
    if loss.graph is not fg.graph:
        raise BuildError("loss node does not belong to the given graph")
    if fg.graph.nodes[loss.id].shape != Shape(1, 1):
        raise BuildError(
            f"loss must be 1x1, got {fg.graph.nodes[loss.id].shape}"
        )
    for w in wrt:
        if w.graph is not fg.graph:
            raise BuildError("wrt nodes must belong to the top-level graph")
        if fg.graph.nodes[w.id].kind not in ("parameter", "placeholder"):
            raise BuildError(
                f"wrt node {w.id} is {fg.graph.nodes[w.id].kind!r}; gradients "
                "are taken for parameters and placeholders"
            )

    top, _gmap = _clone(fg)
    synth = _Synth(top, {w.id for w in wrt})
    ctx = _Context(synth, top, top)
    seed = ctx.emit("const", (), payload=Tensor.scalar(1.0), shape=Shape(1, 1))
    ctx.add_adjoint(loss.id, seed)
    _sweep(ctx)

    gm = GradientMap(loss=NodeHandle(top, loss.id))
    for w in wrt:
        name = top.nodes[w.id].payload
        payload = (w.id, top.nodes[w.id].shape)
        gm.param_grads[name] = ctx.emit("grad_out", tuple(synth.waits), payload=payload)
        gm.param_order.append(name)

    top.from_differentiate = True
    out = top.finalize()
    return out, gm
