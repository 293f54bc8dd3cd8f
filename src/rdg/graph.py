"""Graph IR: typed op nodes, SubGraphs, lazy conditionals, recursion.

A SubGraph is a named, signed graph fragment. Declaring one registers the
signature immediately, so Invoke nodes can target it before its body exists;
that forward declaration is what makes self- and mutual recursion buildable.
Cond takes two SubGraph references and only ever runs the selected one, which
is what lets a recursive definition terminate.

A call (invoke, cond, or a cond gradient) returns like a host-language
function: its node holds output 0, and a `result` node at each of the next
ids holds one further output. The callee's frame writes its outputs straight
into those slots when it returns; nothing unpacks a tuple.

Bodies may reference nodes of enclosing graphs directly; every such outer
reference is rewritten to an extra body input (a capture). Captures close
transitively at finalize: if Model's body invokes Leaf and Leaf captures the
embedding table, Model captures it too, and every call site is rewired
automatically.

Before that, finalize inlines dispatchers: a SubGraph that only picks which
body does the work (compute nodes and one cond that yields its outputs, like
Model) runs its cond in each body that invokes it, so a call of it costs no
frame and no call site of its own.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .tensor import Shape, Tensor


class BuildError(ValueError):
    """Graph under construction was used inconsistently."""


class TableShape(NamedTuple):
    """Type of a functional row-table value (the sequential baseline's state)."""

    rows: int
    cols: int

    def __str__(self):
        return f"table[{self.rows}x{self.cols}]"


class RowTable:
    """Immutable table of column vectors with O(rows) functional update."""

    __slots__ = ("slots", "cols")

    def __init__(self, slots: tuple, cols: int):
        self.slots = slots
        self.cols = cols

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RowTable":
        z = np.zeros((cols, 1))
        z.flags.writeable = False
        return cls((z,) * rows, cols)

    def set(self, i: int, col: np.ndarray) -> "RowTable":
        s = self.slots
        return RowTable(s[:i] + (col,) + s[i + 1 :], self.cols)

    def __len__(self):
        return len(self.slots)


class RowGrads:
    """Sparse gradient of a gather table: per-row contributions to scatter-add.

    Read as one index array and one `(n, cols)` row stack, in arrival
    order; duplicates are summed first-seen-first when densified or applied,
    so reductions stay order-deterministic. It is built from parts, each an
    (index array, row stack) pair, which are joined on first read: a merge
    only joins the part tuples, so summing many gradients copies no row more
    than once.
    """

    __slots__ = ("rows", "cols", "_parts")

    def __init__(self, rows: int, cols: int, entries: tuple = ()):
        """From (row index, 1 x cols array) entries."""
        entries = tuple(entries)
        idx = np.array([i for i, _ in entries], np.intp)
        vals = np.concatenate([v for _, v in entries]) if entries else np.zeros((0, cols))
        self.rows, self.cols, self._parts = rows, cols, ((idx, vals),)

    @classmethod
    def of(cls, rows: int, cols: int, idx: np.ndarray, vals: np.ndarray) -> "RowGrads":
        """Row `vals[j]` (a `(n, cols)` stack) for table row `idx[j]`."""
        return cls._of_parts(rows, cols, ((idx, vals),))

    @classmethod
    def _of_parts(cls, rows: int, cols: int, parts: tuple) -> "RowGrads":
        g = cls.__new__(cls)
        g.rows, g.cols, g._parts = rows, cols, parts
        return g

    def _joined(self) -> tuple[np.ndarray, np.ndarray]:
        parts = self._parts
        if len(parts) != 1:
            joined = tuple(np.concatenate(a) for a in zip(*parts))
            parts = self._parts = (joined,)
        return parts[0]

    @property
    def entries(self) -> tuple:
        """(row index, 1 x cols array) per contribution, in arrival order."""
        idx, vals = self._joined()
        return tuple(zip(idx.tolist(), vals[:, None, :]))

    def merge(self, other: "RowGrads") -> "RowGrads":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("row-gradient shapes differ")
        return RowGrads._of_parts(self.rows, self.cols, self._parts + other._parts)

    def sums(self, start: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
        """The touched row indices, ascending, and each one's sum: `start`
        plus its entries, added one at a time in arrival order."""
        idx, vals = self._joined()
        touched, where = np.unique(idx, return_inverse=True)
        out = np.full((len(touched), self.cols), start)
        if len(idx):
            flat = (where[:, None] * self.cols + np.arange(self.cols)).ravel()
            np.add.at(out.reshape(-1), flat, vals.reshape(-1))  # 1-D: numpy's fast path
        return touched, out

    def to_dense(self) -> Tensor:
        out = np.zeros((self.rows, self.cols))
        touched, sums = self.sums()
        out[touched] = sums
        return Tensor._wrap(out)


def _as_shape(s) -> Shape | TableShape:
    if isinstance(s, (Shape, TableShape)):
        return s
    if isinstance(s, tuple) and len(s) == 2:
        rows, cols = s
        return Shape(rows, cols)
    raise BuildError(f"cannot interpret {s!r} as a shape")


class NodeHandle(NamedTuple):
    graph: "Graph"
    id: int

    def __repr__(self):
        return f"<node {self.id} of {self.graph.label}>"


class Node:
    __slots__ = ("id", "kind", "payload", "inputs", "shape", "grad_flag")

    def __init__(self, id: int, kind: str, payload, inputs: list[int], shape):
        self.id = id
        self.kind = kind
        self.payload = payload
        self.inputs = inputs
        self.shape = shape
        self.grad_flag = False


class SubGraphRef(NamedTuple):
    name: str


class SubGraphDef:
    def __init__(self, name: str, in_shapes, out_shapes):
        self.name = name
        self.in_shapes = [_as_shape(s) for s in in_shapes]
        self.out_shapes = [_as_shape(s) for s in out_shapes]
        self.body: Graph | None = None

    @property
    def captures(self) -> list[NodeHandle]:
        return [] if self.body is None else self.body.capture_order

    @property
    def defined(self) -> bool:
        return self.body is not None


_SAME_SHAPE_BINARY = {
    "add",
    "sub",
    "hadamard",
    "tanh_bwd",
    "sigmoid_bwd",
    "square_bwd",
}


class Graph:
    """A graph under construction (the top level or one SubGraph body)."""

    def __init__(self, parent: "Graph | None" = None, label: str = "top"):
        self.parent = parent
        self.label = label
        self.nodes: list[Node] = []
        self.outputs: list[int] = []
        self.capture_map: dict[tuple[int, int], int] = {}  # (outer graph id, node id) -> proxy
        self.capture_order: list[NodeHandle] = []
        self.arg_ids: list[int] = []
        self.mirrors: str | None = None  # a gradient body's forward SubGraph
        if parent is None:
            self.registry: dict[str, SubGraphDef] = {}
            self.declared_order: list[str] = []
            self.finalized = False
        else:
            self.registry = parent.registry
            self.declared_order = parent.declared_order

    # -- plumbing -------------------------------------------------------

    def root(self) -> "Graph":
        g = self
        while g.parent is not None:
            g = g.parent
        return g

    def _check_mutable(self):
        if self.root().finalized:
            raise BuildError("graph is finalized and immutable")

    def _local_id(self, h: NodeHandle) -> int:
        """Resolve a handle to a node id in this graph, capturing outer refs."""
        if h.graph is self:
            return h.id
        anc = self.parent
        while anc is not None and anc is not h.graph:
            anc = anc.parent
        if anc is None:
            raise BuildError(
                f"node {h.id} belongs to {h.graph.label!r}, which does not enclose {self.label!r}"
            )
        return self._capture(h)

    def _capture(self, outer: NodeHandle) -> int:
        key = (id(outer.graph), outer.id)
        proxy = self.capture_map.get(key)
        if proxy is None:
            shape = outer.graph.nodes[outer.id].shape
            node = Node(len(self.nodes), "capture", outer, [], shape)
            self.nodes.append(node)
            proxy = node.id
            self.capture_map[key] = proxy
            self.capture_order.append(outer)
        return proxy

    def shape_of(self, h: NodeHandle):
        return h.graph.nodes[h.id].shape

    # -- node addition --------------------------------------------------

    def add_node(
        self,
        kind: str,
        inputs: Sequence[NodeHandle] = (),
        payload=None,
        shape=None,
    ) -> NodeHandle:
        self._check_mutable()
        ids = [self._local_id(h) for h in inputs]
        in_shapes = [self.nodes[i].shape for i in ids]
        if shape is None:
            shape = self._infer_shape(kind, payload, ids, in_shapes)
        node = Node(len(self.nodes), kind, payload, ids, shape)
        self.nodes.append(node)
        return NodeHandle(self, node.id)

    def _infer_shape(self, kind, payload, ids, shapes):
        def need(n):
            if len(ids) != n:
                raise BuildError(f"{kind} takes {n} input(s), got {len(ids)} (nodes {ids})")

        if kind == "matmul":
            need(2)
            a, b = shapes
            if not (isinstance(a, Shape) and isinstance(b, Shape)):
                raise BuildError(f"matmul needs tensor operands, got {a} and {b}")
            if a.rows is None or b.rows is None:
                raise BuildError("matmul operands must have static row counts")
            if a.cols != b.rows:
                raise BuildError(
                    f"matmul: incompatible shapes {a} and {b} (nodes {ids[0]}, {ids[1]})"
                )
            return Shape(a.rows, b.cols)
        if kind == "unary":
            need(1)
            return shapes[0]
        if kind == "binary":
            need(2)
            a, b = shapes
            if payload in _SAME_SHAPE_BINARY:
                if a != b:
                    raise BuildError(
                        f"binary[{payload}]: mismatched shapes {a} and {b} "
                        f"(nodes {ids[0]}, {ids[1]})"
                    )
                return a
            if payload == "scale":
                if b != Shape(1, 1):
                    raise BuildError(f"scale factor must be 1x1, got {b} (node {ids[1]})")
                return a
            if payload == "softmax_xent_bwd":  # logits, 1x1 label index
                if b != Shape(1, 1):
                    raise BuildError(f"label index must be 1x1, got {b} (node {ids[1]})")
                return a
            if payload == "matmul_nt":  # a @ b.T
                if a.cols != b.cols:
                    raise BuildError(f"matmul_nt: {a} vs {b}")
                return Shape(a.rows, b.rows)
            if payload == "matmul_tn":  # a.T @ b
                if a.rows != b.rows:
                    raise BuildError(f"matmul_tn: {a} vs {b}")
                return Shape(a.cols, b.cols)
            raise BuildError(f"unknown binary function {payload!r}")
        if kind == "transpose":
            need(1)
            a = shapes[0]
            return Shape(a.cols, a.rows)
        if kind == "slice_rows":
            need(1)
            start, stop = payload
            a = shapes[0]
            if a.rows is not None and not (0 <= start < stop <= a.rows):
                raise BuildError(f"slice_rows [{start}:{stop}] out of range for {a}")
            return Shape(stop - start, a.cols)
        if kind == "concat_rows":
            need(2)
            a, b = shapes
            if a.cols != b.cols:
                raise BuildError(f"concat_rows: column mismatch {a} vs {b}")
            rows = None if a.rows is None or b.rows is None else a.rows + b.rows
            return Shape(rows, a.cols)
        if kind == "gather_row":
            need(2)
            a, idx = shapes
            if idx != Shape(1, 1):
                raise BuildError(f"gather_row index must be 1x1, got {idx}")
            return Shape(1, a.cols)
        if kind == "softmax_xent":
            need(2)
            a, lab = shapes
            if a.rows != 1:
                raise BuildError(f"softmax_xent logits must be 1xC, got {a}")
            if lab != Shape(1, 1):
                raise BuildError(f"softmax_xent label must be 1x1, got {lab}")
            return Shape(1, 1)
        if kind == "scatter_row":
            need(2)
            return payload  # the table's Shape
        if kind == "grad_accum":
            if not ids:
                raise BuildError("grad_accum needs at least one input")
            first = shapes[0]
            for s in shapes[1:]:
                if s != first:
                    raise BuildError(f"grad_accum operands disagree: {first} vs {s}")
            return first
        if kind == "table_get":
            need(2)
            t = shapes[0]
            if not isinstance(t, TableShape):
                raise BuildError(f"table_get needs a row table, got {t}")
            return Shape(t.cols, 1)
        if kind == "table_set":
            need(3)
            t, idx, v = shapes
            if not isinstance(t, TableShape):
                raise BuildError(f"table_set needs a row table, got {t}")
            if v != Shape(t.cols, 1):
                raise BuildError(f"table_set row must be {t.cols}x1, got {v}")
            return t
        if kind == "table_adj_scatter":
            need(2)
            col, idx = shapes
            if col != Shape(payload.cols, 1):
                raise BuildError(
                    f"table_adj_scatter column must be {payload.cols}x1, got {col}"
                )
            return payload  # the table's TableShape
        if kind == "table_zero_slot":
            need(2)
            t, idx = shapes
            if not isinstance(t, TableShape):
                raise BuildError(f"table_zero_slot needs a row table, got {t}")
            return t
        if kind == "sink_add":
            need(1)
            return None
        if kind == "grad_out":  # the sink entry of top-level node payload[0]
            return payload[1]
        if kind in ("invoke", "cond", "cond_grad"):  # a call with no outputs
            return None
        raise BuildError(f"cannot infer shape for kind {kind!r}")

    # -- leaf constructors ----------------------------------------------

    def placeholder(self, shape, name: str) -> NodeHandle:
        if self.parent is not None:
            raise BuildError("placeholders live in the top-level graph only")
        return self.add_node("placeholder", (), payload=name, shape=_as_shape(shape))

    def parameter(self, name: str, shape) -> NodeHandle:
        if self.parent is not None:
            raise BuildError("parameters live in the top-level graph and reach bodies by capture")
        return self.add_node("parameter", (), payload=name, shape=_as_shape(shape))

    def constant(self, value: Tensor | RowTable) -> NodeHandle:
        if isinstance(value, Tensor):
            shape = value.shape
        elif isinstance(value, RowTable):
            shape = TableShape(len(value), value.cols)
        else:
            raise BuildError(f"constant of unsupported type {type(value).__name__}")
        return self.add_node("const", (), payload=value, shape=shape)

    # -- op sugar ---------------------------------------------------------

    def matmul(self, a, b):
        return self.add_node("matmul", (a, b))

    def unary(self, x, f: str):
        return self.add_node("unary", (x,), payload=f)

    def tanh(self, x):
        return self.unary(x, "tanh")

    def sigmoid(self, x):
        return self.unary(x, "sigmoid")

    def neg(self, x):
        return self.unary(x, "neg")

    def square(self, x):
        return self.unary(x, "square")

    def binary(self, a, b, f: str):
        return self.add_node("binary", (a, b), payload=f)

    def add(self, a, b):
        return self.binary(a, b, "add")

    def sub(self, a, b):
        return self.binary(a, b, "sub")

    def hadamard(self, a, b):
        return self.binary(a, b, "hadamard")

    def concat_rows(self, a, b):
        return self.add_node("concat_rows", (a, b))

    def gather_row(self, table, index):
        return self.add_node("gather_row", (table, index))

    def softmax_xent(self, logits, label):
        return self.add_node("softmax_xent", (logits, label))

    def transpose(self, x):
        return self.add_node("transpose", (x,))

    def slice_rows(self, x, start: int, stop: int):
        return self.add_node("slice_rows", (x,), payload=(start, stop))

    def table_get(self, table, index):
        return self.add_node("table_get", (table, index))

    def table_set(self, table, index, value):
        return self.add_node("table_set", (table, index, value))

    # -- subgraphs --------------------------------------------------------

    def declare_subgraph(self, name: str, in_shapes, out_shapes) -> SubGraphRef:
        self._check_mutable()
        if name in self.registry:
            raise BuildError(f"subgraph {name!r} already declared")
        self.registry[name] = SubGraphDef(name, in_shapes, out_shapes)
        self.declared_order.append(name)
        return SubGraphRef(name)

    def body(self, ref: SubGraphRef) -> "Graph":
        """Fresh body graph for `ref`, with its signature inputs pre-added."""
        d = self.registry[ref.name]
        b = Graph(parent=self, label=ref.name)
        for slot, s in enumerate(d.in_shapes):
            h = b.add_node("input", (), payload=slot, shape=s)
            b.arg_ids.append(h.id)
        return b

    @property
    def args(self) -> tuple[NodeHandle, ...]:
        return tuple(NodeHandle(self, i) for i in self.arg_ids)

    def set_outputs(self, handles: Iterable[NodeHandle]):
        self._check_mutable()
        self.outputs = [self._local_id(h) for h in handles]

    def define_subgraph(self, ref: SubGraphRef, body: "Graph"):
        self._check_mutable()
        d = self.registry[ref.name]
        if d.defined:
            raise BuildError(f"subgraph {ref.name!r} is already defined")
        if body.registry is not self.registry:
            raise BuildError("body was not created from this graph family")
        if len(body.outputs) != len(d.out_shapes):
            raise BuildError(
                f"subgraph {ref.name!r} declares {len(d.out_shapes)} output(s), "
                f"body sets {len(body.outputs)}"
            )
        for i, (oid, want) in enumerate(zip(body.outputs, d.out_shapes)):
            got = body.nodes[oid].shape
            if not _shape_compatible(got, want):
                raise BuildError(
                    f"subgraph {ref.name!r} output {i}: declared {want}, body yields {got}"
                )
        d.body = body

    def invoke(
        self, ref: SubGraphRef, args: Sequence[NodeHandle], site: int | None = None
    ) -> list[NodeHandle]:
        """Call `ref`. A gradient call passes as `site` the id of the forward
        call it mirrors: its frame then takes its forward values from the
        forward frame that call spawned in the caller's forward frame."""
        self._check_mutable()
        d = self.registry[ref.name]
        self._check_args(ref.name, d, args)
        payload = ref.name if site is None else (ref.name, site)
        outs = self.call_node("invoke", tuple(args), payload, d.out_shapes)
        return outs[: len(d.out_shapes)]

    def cond(
        self,
        predicate: NodeHandle,
        then_ref: SubGraphRef,
        else_ref: SubGraphRef,
        args: Sequence[NodeHandle],
    ) -> list[NodeHandle]:
        self._check_mutable()
        t, e = self.registry[then_ref.name], self.registry[else_ref.name]
        if t.in_shapes != e.in_shapes or t.out_shapes != e.out_shapes:
            raise BuildError(
                f"cond branches {then_ref.name!r} and {else_ref.name!r} have different signatures"
            )
        if self.shape_of(predicate) != Shape(1, 1):
            raise BuildError(f"cond predicate must be 1x1, got {self.shape_of(predicate)}")
        self._check_args("cond", t, args)
        payload = (then_ref.name, else_ref.name)
        outs = self.call_node("cond", (predicate, *args), payload, t.out_shapes)
        return outs[: len(t.out_shapes)]

    def _check_args(self, what: str, d: SubGraphDef, args):
        if len(args) != len(d.in_shapes):
            raise BuildError(
                f"{what}: expected {len(d.in_shapes)} argument(s), got {len(args)}"
            )
        for i, (h, want) in enumerate(zip(args, d.in_shapes)):
            got = self.shape_of(h)
            if not _shape_compatible(got, want):
                raise BuildError(f"{what}: argument {i} has shape {got}, signature wants {want}")

    def call_node(self, kind: str, inputs, payload, out_shapes) -> list[NodeHandle]:
        """Add a call node, which holds output 0, and a `result` node right
        after it for each further output; the returning frame writes its
        outputs straight into those slots. Returns the call, then the results."""
        shape = out_shapes[0] if out_shapes else None
        call = self.add_node(kind, inputs, payload=payload, shape=shape)
        return [call] + [
            self.add_node("result", (call,), payload=j, shape=s)
            for j, s in enumerate(out_shapes[1:], 1)
        ]

    # -- finalize ---------------------------------------------------------

    def finalize(self) -> "FinalizedGraph":
        if self.parent is not None:
            raise BuildError("finalize the top-level graph, not a body")
        if self.finalized:
            raise BuildError("finalize called twice")
        undefined = [n for n in self.declared_order if not self.registry[n].defined]
        if undefined:
            raise BuildError(f"undefined body for subgraph(s): {', '.join(undefined)}")
        if not getattr(self, "from_differentiate", False):
            # a differentiated graph is a clone of a finalized one, whose
            # bodies were inlined already and which its gradient mirrors
            self._inline_dispatchers()
        self._close_captures()
        self._wire_captures()
        for name in self.declared_order:
            body = self.registry[name].body
            _check_dag(body)
            if len(body.arg_ids) + len(body.capture_order) != sum(
                1 for n in body.nodes if n.kind in ("input", "capture")
            ):
                raise BuildError(f"subgraph {name!r} input arity bookkeeping is inconsistent")
        _check_dag(self)
        self.finalized = True
        return FinalizedGraph(self)

    def _inline_dispatchers(self):
        """Replace each SubGraph body's invokes of a dispatcher with a copy of
        the dispatcher's body (see `_is_dispatcher`).

        A call of a dispatcher only picks the body that does the work, so the
        copy saves a frame and a call site per call: a recursive tree model's
        `Internal` then runs the `cond` into `Leaf` or `Internal` itself, one
        frame and one call site per tree node. The top level is never
        rewritten, so its handles stay valid. A body that encloses others is
        neither rewritten nor inlined: their capture handles name its node
        ids, and a nested branch must read its own frame's node, not a copy
        in the caller. A dispatcher holds no invoke, so it is never rewritten
        itself, and one pass is finite, also under mutual recursion.
        """
        bodies = [self.registry[n].body for n in self.declared_order]
        enclosing = {id(b.parent) for b in bodies}
        targets = {
            n
            for n, b in zip(self.declared_order, bodies)
            if id(b) not in enclosing and _is_dispatcher(b)
        }
        for b in bodies:
            if id(b) not in enclosing and any(
                nd.kind == "invoke" and nd.payload in targets for nd in b.nodes
            ):
                b._inline(targets)

    def _inline(self, targets: set):
        """Renumber this body's nodes, splicing in a copy of the body of each
        invoked dispatcher in `targets`: its inputs are the invoke's
        arguments, its captures this body's, and the invoke's outputs its
        cond's call node and result slots."""
        old = self.nodes
        self.nodes = []
        self.capture_map = {}
        self.capture_order = []
        new: dict[int, int] = {}  # old id -> new id

        def copy(nd: Node, ids: dict) -> int:
            node = Node(len(self.nodes), nd.kind, nd.payload, [ids[i] for i in nd.inputs], nd.shape)
            node.grad_flag = nd.grad_flag
            self.nodes.append(node)
            return node.id

        for nd in old:
            if nd.id in new:  # a result slot of an inlined invoke
                continue
            if nd.kind == "capture":
                new[nd.id] = self._capture(nd.payload)
            elif nd.kind == "invoke" and nd.payload in targets:
                d = self.registry[nd.payload].body
                local: dict[int, int] = {}
                for m in d.nodes:
                    if m.kind == "input":
                        local[m.id] = new[nd.inputs[m.payload]]
                    elif m.kind == "capture":
                        local[m.id] = self._capture(m.payload)
                    else:
                        local[m.id] = copy(m, local)
                for j, o in enumerate(d.outputs):
                    new[nd.id + j] = local[o]
            else:
                new[nd.id] = copy(nd, new)
        self.arg_ids = [new[i] for i in self.arg_ids]
        self.outputs = [new[i] for i in self.outputs]

    def _close_captures(self):
        """Propagate callee captures up through caller bodies to a fixpoint."""
        changed = True
        while changed:
            changed = False
            graphs = [self] + [self.registry[n].body for n in self.declared_order]
            for g in graphs:
                for node in list(g.nodes):
                    for tname in _target_names(node):
                        tdef = self.registry[tname]
                        for outer in list(tdef.captures):
                            if outer.graph is g:
                                continue
                            before = len(g.capture_order)
                            if g.parent is None:
                                anc = None
                            else:
                                anc = g.parent
                                while anc is not None and anc is not outer.graph:
                                    anc = anc.parent
                            if g.parent is None or anc is None:
                                raise BuildError(
                                    f"capture of node {outer.id} in {outer.graph.label!r} "
                                    f"cannot be satisfied from {g.label!r}"
                                )
                            g._capture(outer)
                            if len(g.capture_order) != before:
                                changed = True

    def _wire_captures(self):
        """Append capture operands to every invoke/cond in canonical order."""
        graphs = [self] + [self.registry[n].body for n in self.declared_order]
        for g in graphs:
            for node in g.nodes:
                names = _target_names(node)
                if not names:
                    continue
                extra: list[int] = []
                counts = []
                for tname in names:
                    tdef = self.registry[tname]
                    ids = []
                    for outer in tdef.captures:
                        if outer.graph is g:
                            ids.append(outer.id)
                        else:
                            ids.append(g.capture_map[(id(outer.graph), outer.id)])
                    counts.append(len(ids))
                    extra.extend(ids)
                node.inputs = node.inputs + extra
                if node.kind == "invoke":
                    p = node.payload
                    name, site = (p, None) if isinstance(p, str) else p
                    node.payload = (name, counts[0], site)
                elif node.kind == "cond":
                    node.payload = (*node.payload, counts[0], counts[1])
                elif node.kind == "cond_grad":
                    node.payload = node.payload._replace(cap_counts=tuple(counts))

    # -- debug dump -------------------------------------------------------

    def dump(self) -> str:
        root = self.root()
        lines: list[str] = []
        self._dump_body(self, lines, indent="")
        for name in root.declared_order:
            d = root.registry[name]
            sig_in = ", ".join(str(s) for s in d.in_shapes)
            sig_out = ", ".join(str(s) for s in d.out_shapes)
            ncap = len(d.captures)
            lines.append(f"subgraph {name}: in [{sig_in}] out [{sig_out}] captures {ncap}")
            if d.body is not None:
                self._dump_body(d.body, lines, indent="  ")
        return "\n".join(lines) + "\n"

    @staticmethod
    def _dump_body(g: "Graph", lines: list[str], indent: str):
        for n in g.nodes:
            args = ", ".join(str(i) for i in n.inputs)
            lines.append(f"{indent}{n.id}: {_kind_str(n)}({args}) -> {_shape_str(n.shape)}")
        if g.outputs:
            lines.append(f"{indent}outputs: {', '.join(str(i) for i in g.outputs)}")


def _shape_compatible(got, want) -> bool:
    if isinstance(got, Shape) and isinstance(want, Shape):
        rows_ok = got.rows is None or want.rows is None or got.rows == want.rows
        return rows_ok and got.cols == want.cols
    return got == want


def _shape_str(s) -> str:
    if s is None:
        return "-"
    return str(s)


def _kind_str(n: Node) -> str:
    k, p = n.kind, n.payload
    if k in ("placeholder", "parameter"):
        return f"{k}[{p}]"
    if k == "const":
        return f"const[{_shape_str(n.shape)}]"
    if k == "none_const":
        return "none"
    if k == "input":
        return f"input[{p}]"
    if k == "capture":
        return f"capture[{p.graph.label}:{p.id}]"
    if k in ("unary", "binary"):
        return f"{k}[{p}]"
    if k == "slice_rows":
        return f"slice_rows[{p[0]}:{p[1]}]"
    if k == "invoke":
        name = p[0] if isinstance(p, tuple) else p
        return f"invoke[{name}]"
    if k == "cond":
        return f"cond[{p[0]},{p[1]}]"
    if k == "cond_grad":
        return f"cond_grad[{p.then_name},{p.else_name}]"
    if k in ("fwd_value", "sink_add", "result"):
        return f"{k}[{p}]"
    if k == "grad_out":
        return f"{k}[{p[0]}]"
    if k == "scatter_row":
        return f"scatter_row[{_shape_str(p)}]"
    return k


def _target_names(node: Node) -> tuple[str, ...]:
    if node.kind == "invoke":
        p = node.payload
        return (p[0] if isinstance(p, tuple) else p,)
    if node.kind == "cond":
        return (node.payload[0], node.payload[1])
    if node.kind == "cond_grad":
        return (node.payload.then_name, node.payload.else_name)
    return ()


def _is_dispatcher(body: Graph) -> bool:
    """Whether `body` holds only compute nodes and one `cond`, whose call
    node and result slots are its outputs, in order, and captures only
    top-level nodes: a call of it can run the cond in the caller instead."""
    conds = [nd.id for nd in body.nodes if nd.kind == "cond"]
    if len(conds) != 1 or not body.outputs:
        return False
    k = len(body.outputs)
    if body.outputs != list(range(conds[0], conds[0] + k)):
        return False
    # the cond is the body's only call, so every result slot is one of its
    if sum(nd.kind == "result" for nd in body.nodes) != k - 1:
        return False
    if any(nd.kind == "invoke" for nd in body.nodes):
        return False
    return all(h.graph.parent is None for h in body.capture_order)


def _toposort(srcs: list) -> tuple[list[int], list[int]]:
    """Kahn's sort of nodes 0..n-1, where node j reads the ids in srcs[j]:
    an order that puts each node after the nodes it reads, depth first from
    the smallest id, and the ids a cycle leaves out, ascending."""
    n = len(srcs)
    indeg = [0] * n
    consumers: list[list[int]] = [[] for _ in range(n)]
    for j, ins in enumerate(srcs):
        for i in ins:
            consumers[i].append(j)
            indeg[j] += 1
    stack = [i for i in range(n - 1, -1, -1) if indeg[i] == 0]
    order: list[int] = []
    while stack:
        i = stack.pop()
        order.append(i)
        for j in consumers[i]:
            indeg[j] -= 1
            if indeg[j] == 0:
                stack.append(j)
    return order, [i for i in range(n) if indeg[i] > 0]


def _check_dag(g: Graph):
    cyclic = _toposort([node.inputs for node in g.nodes])[1]
    if cyclic:
        raise BuildError(f"node-level cycle through nodes {cyclic} in {g.label!r}")


def _mirrored_site(node: Node) -> int | None:
    """The forward call site that a gradient call mirrors, else None."""
    if node.kind == "cond_grad":
        return node.payload.cond_site
    return node.payload[2] if node.kind == "invoke" else None


class CondGradPayload(NamedTuple):
    cond_site: int
    then_name: str
    else_name: str
    n_args: int
    cap_counts: tuple  # (len(then captures), len(else captures)) after wiring
    then_slots: tuple  # union-layout position of each then-branch output
    else_slots: tuple


class FinalizedGraph:
    """Immutable, compiled form: per-body arrays the scheduler consumes."""

    def __init__(self, g: Graph):
        self.graph = g
        self.from_differentiate = getattr(g, "from_differentiate", False)
        graphs = [g] + [g.registry[name].body for name in g.declared_order]
        # per forward graph: the node ids its gradient reads, and the call
        # sites that gradient calls mirror
        mirrored = {id(h): (set(), set()) for h in graphs}
        for h in graphs:
            fwd = h if h.mirrors is None else g.registry[h.mirrors].body
            reads, sites = mirrored[id(fwd)]
            for nd in h.nodes:
                if nd.kind == "fwd_value":
                    reads.add(nd.payload)
                elif _mirrored_site(nd) is not None:
                    sites.add(_mirrored_site(nd))
        self.top = CompiledBody(g, True, *mirrored[id(g)])
        # a gradient body is declared after the forward body it mirrors, so
        # that body is built first and lays out its forward-value slots
        self.bodies: dict[str, CompiledBody] = {}
        for name, h in zip(g.declared_order, graphs[1:]):
            fwd = None if h.mirrors is None else self.bodies[h.mirrors]
            self.bodies[name] = CompiledBody(h, False, *mirrored[id(h)], fwd)

    def dump(self) -> str:
        return self.graph.dump()


class SinkAdd(NamedTuple):
    """How a `sink_add` node adds its contribution to its instance's sink."""

    top: int  # the top-level node whose sink entry it adds to
    ids: tuple  # its source's id, or a fused product's operand ids
    product: object  # the fused per-frame product (see kernels.FUSED_SUMS), else None
    swap: object  # whether to swap a fused product's operand axes, else None
    stacks: bool  # whether a batched group sums stacked operands (else frame by frame)
    table: object  # a fused `scatter_row`'s table shape, else None


class CompiledBody:
    __slots__ = (
        "label",
        "kinds",
        "payloads",
        "inputs",
        "unit_of",
        "unit_nodes",
        "steps",
        "sole_dependents",
        "joint_dependents",
        "pending0",
        "initial_ready",
        "preset",
        "arg_slots",
        "placeholders",
        "parameters",
        "outputs",
        "completion_total",
        "completion_mask",
        "kernels",
        "nodes",
        "batched",
        "compiled",
        "call_sites",
        "shared",
        "run_wide",
        "exposed",
        "sinks",
        "n_nodes",
        "mirrors",
        "fwd_units",
        "stack_id",
        "recorded",
        "row_slot",
        "pending_at",
        "unit_exposed",
    )

    def __init__(self, g: Graph, is_top: bool, reads=(), sites=(), fwd=None):
        from . import kernels  # local import to avoid a cycle

        n = len(g.nodes)
        self.label = g.label
        self.n_nodes = n
        self.mirrors = g.mirrors
        # the call sites whose child frames a gradient call will pop
        self.recorded = frozenset(sites)
        self.kinds = [nd.kind for nd in g.nodes]
        self.payloads = [nd.payload for nd in g.nodes]
        self.inputs = [tuple(nd.inputs) for nd in g.nodes]
        self.arg_slots = list(g.arg_ids) + [
            g.capture_map[(id(h.graph), h.id)] for h in g.capture_order
        ]
        preset_kinds = {"const", "none_const"}
        arg_set = set(self.arg_slots)
        fwd_slots = [(nd.id, nd.payload) for nd in g.nodes if nd.kind == "fwd_value"]
        initial = arg_set | {slot for slot, _ in fwd_slots}
        self.preset = []
        self.placeholders = []
        self.parameters = []
        # nodes whose value is one object in every frame of this body that
        # belongs to one run instance (constants, captures of top-level
        # nodes), and those whose value is one object in every frame of a
        # run (constants, captured top-level parameters and constants)
        self.shared = [False] * n
        self.run_wide = [False] * n
        for nd in g.nodes:
            if nd.kind == "capture" and nd.payload.graph.parent is None:
                self.shared[nd.id] = True
                src = nd.payload.graph.nodes[nd.payload.id].kind
                self.run_wide[nd.id] = src in ("parameter", "const")
            elif nd.kind in preset_kinds:
                value = nd.payload if nd.kind == "const" else None
                self.preset.append((nd.id, value.a if isinstance(value, Tensor) else value))
                initial.add(nd.id)
                self.shared[nd.id] = self.run_wide[nd.id] = nd.kind == "const"
            elif nd.kind == "placeholder":
                self.placeholders.append((nd.id, nd.payload, nd.shape))
                initial.add(nd.id)
            elif nd.kind == "parameter":
                self.parameters.append((nd.id, nd.payload, nd.shape))
                initial.add(nd.id)
        self.outputs = list(g.outputs)
        self.nodes = g.nodes  # for compiling segments on first use
        self.kernels, self.batched, rows = kernels.compile_body(g)
        # Cut the body into units. Each control node is one, joined by the
        # result slots of its further outputs, so a unit lists a call's
        # outputs in order. The compute nodes whose non-init inputs lead back
        # to the same set of control nodes (their key) form one segment,
        # which the scheduler readies, runs and settles as one: the key of a
        # compute node is the union, over its non-init inputs, of {i} for a
        # control node i and of i's key otherwise. Node ids order the inputs
        # of every compute node before it, so one pass assigns the units. A
        # `sink_add` is a compute node here: it joins its source's segment.
        control = kernels.CONTROL_KINDS
        keys: list = [None] * n
        segments: dict = {}  # key -> unit
        members: list[list[int]] = []
        self.unit_of = unit_of = [-1] * n
        for nd in g.nodes:
            i = nd.id
            if i in initial:
                continue
            if nd.kind == "result":
                keys[i] = keys[nd.inputs[0]]
                u = unit_of[nd.inputs[0]]
            elif nd.kind in control:
                keys[i] = frozenset((i,))
                u = len(members)
                members.append([])
            else:
                key = None
                for j in nd.inputs:
                    if j in initial:
                        continue
                    if j > i:
                        raise BuildError(f"node {i} of {g.label!r} reads node {j}, which follows it")
                    kj = keys[j]
                    key = kj if key is None or key is kj else key | kj
                keys[i] = key = key or frozenset()
                u = segments.get(key)
                if u is None:
                    u = segments[key] = len(members)
                    members.append([])
            unit_of[i] = u
            members[u].append(i)
        # Per unit: the units that wait on it, and how many units it waits
        # on. Per node: how many nodes read it, and whether something outside
        # its segment reads it (another unit, the gradient, or a fetch from
        # the top level). Per unit: the members it computes, in node-id order,
        # None for a control node.
        deps: list[list[int]] = [[] for _ in members]
        pending = [0] * len(members)
        readers = [0] * n
        self.exposed = exposed = [is_top] * n
        steps = [None if self.kinds[ms[0]] in control else list(ms) for ms in members]
        for nd in g.nodes:
            i = nd.id
            u = unit_of[i]
            if u < 0 or nd.kind == "result":
                continue
            ins = nd.inputs
            site = _mirrored_site(nd) if is_top else None
            if site is not None and site < n:  # also wait for the mirrored forward call
                ins = ins + [site]
            for j in ins:
                v = unit_of[j]
                if v < 0:
                    continue
                readers[j] += 1
                if v != u:
                    exposed[j] = True
                    if u not in deps[v]:
                        deps[v].append(u)
                        pending[u] += 1
        held = set(g.outputs).union(reads)
        for i in held:
            exposed[i] = True
        # Per node: how a `sink_add` member adds its contribution (a
        # `SinkAdd`), else None. A sink reads its source from the stacks, so
        # the source is not exposed for it. A `matmul_nt`/`matmul_tn` source
        # that only the sink reads is fused into it: the sink sums the
        # product over each instance's frames as one gemm of the operands,
        # and the source leaves its unit's steps, so no frame's product is
        # ever computed. A `scatter_row` source that only the sink reads is
        # fused the same way: a batched group adds one row gradient per
        # instance, built from the stacked operands. The top graph keeps its
        # sources, since any of its nodes may be fetched. Any other source
        # whose value is never dense is added frame by frame in every group.
        self.sinks = sinks = [None] * n
        for nd in g.nodes:
            if nd.kind != "sink_add":
                continue
            (src,) = nd.inputs
            kind = self.kinds[src]
            tag = self.payloads[src] if kind == "binary" else kind
            if (tag in kernels.FUSED_SUMS or tag == "scatter_row") and not is_top and (
                readers[src] == 1 and src not in held
            ):
                steps[unit_of[src]].remove(src)
                if tag == "scatter_row":
                    table = self.payloads[src]
                    fused = (kernels.scatter_fn(table), None, True, table)
                else:
                    fused = (*kernels.FUSED_SUMS[tag], True, None)
                sinks[nd.id] = SinkAdd(nd.payload, self.inputs[src], *fused)
            else:
                sinks[nd.id] = SinkAdd(nd.payload, (src,), None, None, not rows[src], None)
        # Per node whose value may lie in a stack (see the executor's `_keep`
        # and `_ref`): the slot after the node slots where a frame holds what
        # holds it, with its row in the next slot, else -1. For a segment
        # member that is the group record of the batched group that ran the
        # segment for the frame (one pair per unit); for an argument or a
        # call's output, the stack it was copied from; for a gradient body's
        # forward values, what the forward frame holds them in (one pair per
        # forward pair they come from). The frame's countdowns of the units
        # it waits on follow, from `pending_at`. Per unit: the members a
        # record keeps (the exposed ones).
        self.row_slot = row_slot = [-1] * n
        self.unit_exposed = []
        for u, ms in enumerate(members):
            seg = [m for m in ms if self.kinds[m] != "sink_add"] if steps[u] is not None else []
            for m in seg:
                row_slot[m] = n + 2 * u
            self.unit_exposed.append(tuple(m for m in seg if exposed[m]))
        at = n + 2 * len(members)
        for i, kind in enumerate(self.kinds):
            if (kind in control and kind != "grad_out") or kind == "result" or (
                i in arg_set and not self.shared[i]
            ):
                row_slot[i] = at
                at += 2
        # Per node: the id a group record holds its stack under, its own or,
        # for a forward-value slot, its forward node's. Per forward pair the
        # slots read from: (its slot in the forward body, this body's pair,
        # the (slot, forward node id) it fills), copied at spawn. Every
        # forward node a gradient reads has a pair: `differentiate` reads
        # constants and top-level captures directly.
        self.stack_id = list(range(n))
        units: dict = {}
        for slot, i in fwd_slots:
            self.stack_id[slot] = i
            r = fwd.row_slot[i]
            if r not in units:
                units[r] = (at, [])
                at += 2
            row_slot[slot] = units[r][0]
            units[r][1].append((slot, i))
        self.fwd_units = tuple((r, c, tuple(pairs)) for r, (c, pairs) in units.items())
        self.pending_at = at
        self.unit_nodes = [tuple(ms) for ms in members]
        # per unit: its steps; and its `kernels.CompiledSegment`, made when a
        # group under the executor's batching cut-over first runs it
        self.steps = [s and tuple(s) for s in steps]
        self.compiled = [None] * len(members)
        # (call node, branch) -> the executor's record of that call site,
        # made on its first use
        self.call_sites = {}
        self.pending0 = pending
        self.initial_ready = [u for u, p in enumerate(pending) if p == 0]
        self.sole_dependents = [tuple([d for d in ds if pending[d] == 1]) for ds in deps]
        self.joint_dependents = [tuple([d for d in ds if pending[d] != 1]) for ds in deps]
        # a frame is complete once every unit that holds an output or that
        # no unit waits on has run, since every other unit runs before one of
        # those; outputs that are arguments or constants are settled at init
        mask = [not (is_top or ds) for ds in deps]
        for i in self.outputs if not is_top else ():
            if unit_of[i] >= 0:
                mask[unit_of[i]] = True
        self.completion_mask = mask
        self.completion_total = sum(mask)
