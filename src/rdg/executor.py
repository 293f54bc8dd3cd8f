"""Parallel graph runtime: wavefront rounds of batched units.

At finalize each body is cut into units (`CompiledBody`): every control
node (invoke, cond, cond_grad, grad_out) is one, and the compute nodes that
hang off the same set of control nodes form one segment, a straight-line
piece of the body. A run advances in rounds. The units that became ready
during round r (their last input unit ran) run in round r+1.
Within a round, the ready (frame, unit) pairs that share a body and a unit
form one group: all `Leaf` frames at one depth, say, or all `Internal`
frames whose children returned together. A segment runs for its group in
one call, member by member in node-id order. From `_BATCH_MIN` frames up
each member runs as one stacked numpy kernel over the k per-frame values
(the batched variants in `kernels.py`), and its result stays one read-only
stack. Smaller groups run it frame by frame. Independent subtrees thus cost
one call per segment and round rather than one per node and frame, which is
how the recursive form turns a wide frontier into less work even where a
global interpreter lock serialises small numpy ops. A run ends when no unit
is ready; a fetch still pending then means the run stalled.

Batched values stay in their stacks. After a batched segment, the stacks of
the members that something outside it reads (`exposed`) stay on a group
record, a dict from node id to stack, and each frame keeps the record and
its row in two slots after its node slots (`CompiledBody.row_slot`); the
member's own slot stays pending. A call's argument or output copied from a
stack keeps that stack and row the same way, and so does a gradient frame's
forward value: its slot pair gets the forward frame's holder and row. So a
batched consumer reads such a value as one slice or index per run of frames
that one stack serves, with where each frame's row lies found once per
group and slot pair (`_gather`, kept on the group's `_Group`), a cond
compares its group's predicates at once, and a `gather_row` from
per-instance tables indexes the run's tables, joined once, by (instance,
row) (`kernels.Tables`). Only a consumer that runs frame by frame makes a
frame hold a row (`_unstack`, `_value`): per-frame kernels, compiled
segments of small groups, and fetches.

A group under `_BATCH_MIN` frames runs its segment as one generated function
per frame (`kernels.compile_segment`, made on the segment's first such group
and kept on its body): the members run in the member loop's order on plain
arrays, and only values read outside the segment are written to the frame.

`run_batch` runs several instances of a graph in one wavefront: their
frames at the same unit share groups, so a batch of narrow trees fills the
stacked kernels that one wide tree fills on its own. Each instance keeps its
own top frame, gradient sink and fetches; `run` is a batch of one.

A frame holds each value as a read-only float64 array, a `RowTable`, a
`RowGrads`, or None (no gradient flows). `Tensor` exists only at
`run_batch`'s boundary, which unwraps feeds and parameters and wraps fetched
arrays without a copy. Each gradient sink entry sums in a private array
(see `kernels.sink_put`), so no frame value is ever written.

Invoke and Cond never block: they create child frames whose source nodes
join the next round. What a call node fixes for every frame it creates on
one branch (the target body, which argument slots one template per
instance shares, where the outputs return) is a record built on the call
node's first use and kept on its body. A call node holds its first output and the `result`
nodes right after it the others, all in the call's unit. A child that
completes writes its outputs straight into those slots and settles that
unit, so a call with several outputs costs its caller no more than a call
with one. A cond gradient's child fills the slots of its branch's outputs,
and the other branch's capture slots hold None.

Frames form a tree through parent pointers. A frame's depth counts the call
sites above it, and its key, the path of their node ids, is built from the
parent pointers for error messages and trace rows only. Finalize has already
inlined every dispatcher a body invokes (`Graph._inline_dispatchers`), so a
recursive tree model spends one frame and one call site per tree node.

In a differentiated graph, a forward frame records the child frame of each
call site that a gradient call mirrors. That gradient call pops the child
from its parent's record (the top frame's, or the one the parent took over
from its forward frame): the child's values, or their holders and rows, fill
the new frame's forward-value slots as arguments do, a cond gradient runs the
branch the child ran, and the new frame takes over the child's record. One
call site below its parent, at the child's site, it has the child's depth and
key. A popped frame is freed in the round that pops it.

Each instance also holds a gradient sink: `sink_add` nodes add every
gradient contribution to a top-level node (a parameter a body captures, say)
to the instance's entry for that node, and a top-level `grad_out` node reads
the entry once the gradient calls it waits on have returned. A sink add is a
member of its source's segment. In a batched group it reduces the source's
stack once per instance, the group's frames permuted so that each instance's
are contiguous, and adds one partial to each instance's entry. A parameter
gradient's outer product that only the sink reads is fused into it: the sink
sums the product over each instance's frames as one gemm of the stacked
operands, so no frame's product is ever formed. A `scatter_row` that only the
sink reads is fused the same way: the sink adds one row gradient per
instance, its rows from that instance's contiguous frames. Smaller groups add
frame by frame, a fused product straight from its operands. The summation
order follows from the group alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import chain, groupby

import numpy as np

from .graph import FinalizedGraph, NodeHandle, RowGrads, Shape
from .kernels import Tables, bscatter, compile_segment, sink_put
from .tensor import Tensor

_PENDING = object()
# Groups of fewer frames run frame by frame. Measured on d=16 models:
# - a batch of k linear trees, whose every group holds k frames, ran batched
#   at 1.08-1.32x the per-frame time for k=2, 0.77-1.01x for k=4 and
#   0.56-0.88x for k=8;
# - balanced TreeRNN forward runs, whose only groups under 8 frames are the
#   top levels, were 5-10% faster with the cut-over at 8 than at 4;
# - end-to-end training and inference did not move between 4 and 8.
_BATCH_MIN = 8


class ExecutionError(RuntimeError):
    """A run failed; the message carries the node id and the frame's key."""


@dataclass
class RunOptions:
    """How to run a graph.

    - `threads`: accepted for callers that set it, and must be >= 1. The thread
      that calls `run` computes every kernel, so neither results nor speed
      depend on it.
    - `max_recursion_depth`: the most call sites above a frame. Each `invoke` and
      each `cond` counts one. The bundled tree models spend one on the top's call
      of `Model` and one per tree level (finalize runs Model's cond in `Internal`),
      so the default admits linear trees of up to 511 leaves.
    - `debug`: check that each unit's inputs are resolved before it runs.
    - `instrument`: record `RunResult.peak_concurrency`.
    - `trace`: record `RunResult.trace`.
    - `timeout_s`: the most wall-clock seconds a run may take.
    """

    threads: int = 1
    max_recursion_depth: int = 512
    debug: bool = False
    instrument: bool = False
    trace: bool = False
    timeout_s: float | None = None


@dataclass
class RunResult:
    """Fetched values plus what the run observed about itself.

    `frames` counts the frames created per body name. `peak_concurrency`
    (recorded only with `RunOptions(instrument=True)`) is the largest group
    of frames that a segment member ran for, stacked or frame by frame.
    `trace` holds one row per executed (frame, node) when tracing is on, in
    time order; its worker id is always 0.
    """

    values: list
    frames: dict = field(default_factory=dict)
    peak_concurrency: int = 0
    trace: list = field(default_factory=list)


class _Instance:
    """One fed instance of a run: its gradient sink, counts and frame
    templates."""

    __slots__ = ("sink", "frames", "templates", "n")

    def __init__(self, n: int):
        self.n = n  # its position in the batch
        # top-level node id -> the sum of the gradient contributions so far;
        # a dense sum is a private array, added to in place
        self.sink = {}
        # body -> values a new frame starts from: constants and the
        # instance's top-level captures set, everything else pending
        self.templates = {}
        self.frames = {"top": 1}  # frames created per body name


class _Frame:
    __slots__ = (
        "body", "values", "remaining", "parent", "return_node", "ret", "site",
        "depth", "inst", "children", "path", "__weakref__",
    )

    def __init__(self, body, values, parent, return_node, ret, site, depth, inst):
        self.body = body
        self.values = values
        self.remaining = body.completion_total
        self.parent = parent
        self.return_node = return_node
        # per output: the parent's node id, its own, and their `row_slot`s
        # (its own, then the parent's)
        self.ret = ret
        self.site = site  # the forward call site, for a gradient frame too
        self.depth = depth
        self.inst = inst
        # call site -> the child frame a gradient call will pop; a gradient
        # frame holds the record of the forward frame it mirrors
        self.children = {} if body.recorded else None
        self.path = None  # the key, built from the parent's when tracing


def _key_str(f: _Frame) -> str:
    """f's key for an error message: more than 16 call sites keep their first
    and last 8 and give the depth."""
    sites = []
    while f.parent is not None:
        sites.append(str(f.site))
        f = f.parent
    sites.reverse()
    if len(sites) > 16:
        return f"{'/'.join(sites[:8])}/.../{'/'.join(sites[-8:])} (depth {len(sites)})"
    return "/".join(sites) or "-"


def _template(body) -> list:
    """A new frame's values: constants set, everything else pending; then
    where values that lie in stacks are (see `CompiledBody.row_slot`); then,
    per unit, how many units it still waits on (see `_settle`)."""
    values = [_PENDING] * body.n_nodes + [None] * (body.pending_at - body.n_nodes) + body.pending0
    for nid, v in body.preset:
        values[nid] = v
    return values


class _RunState:
    __slots__ = (
        "g", "opts", "error", "ready", "peak", "trace", "tracing", "stacked", "tops", "tables",
    )

    def __init__(self, g: FinalizedGraph, opts: RunOptions):
        self.g = g
        self.opts = opts
        self.error: tuple | None = None
        # (body, unit) -> frames ready there for the next round, in the
        # order they were readied
        self.ready: dict = {}
        self.peak = 0
        self.tracing = opts.trace
        self.trace: list = []
        self.stacked = False  # whether a frame's value may lie in a group record
        self.tops: list = []  # each instance's top frame
        # top-level node id -> the instances' tables it holds, joined (see
        # `_tables`)
        self.tables: dict = {}

    def fail(self, exc: BaseException, frame: _Frame, nid: int):
        if self.error is None:
            self.error = (exc, _key_str(frame), nid, frame.body.kinds[nid])

    def record(self, body, nid: int, frames):
        ts = time.monotonic_ns() // 1000
        label = _op_label(body, nid)
        self.trace.extend([(ts, 0, f.path, nid, label) for f in frames])


def _op_label(body, nid: int) -> str:
    k = body.kinds[nid]
    if k in ("unary", "binary"):
        p = body.payloads[nid]
        tag = p if isinstance(p, str) else p[0]
        return f"{k}[{tag}]"
    if k == "invoke":
        return f"invoke[{body.payloads[nid][0]}]"
    if k == "cond":
        return f"cond[{body.payloads[nid][0]},{body.payloads[nid][1]}]"
    return k


# -- bookkeeping -------------------------------------------------------------


def _settle(state: _RunState, body, u: int, frames):
    """Propagate readiness once unit u has run, and set its values, for a
    group of frames.

    Dependents whose last input this was join the next round. Frames whose
    outputs are now complete write them into the parent's result slots and
    settle the call's unit there, one group per (parent body, call node),
    which may complete the parents in turn. Iterative, so deep call chains
    cannot exhaust the stack.
    """
    ready = state.ready
    work = []
    while True:
        for d in body.sole_dependents[u]:  # now ready in every frame
            lst = ready.get((body, d))
            if lst is None:
                ready[(body, d)] = list(frames)
            else:
                lst.extend(frames)
        joint = body.joint_dependents[u]  # these count down per frame
        completes = body.completion_mask[u]
        done = None
        if joint or completes:
            base = body.pending_at
            for f in frames:
                p = f.values
                for d in joint:
                    p[base + d] -= 1
                    if not p[base + d]:
                        lst = ready.get((body, d))
                        if lst is None:
                            ready[(body, d)] = [f]
                        else:
                            lst.append(f)
                if completes:
                    f.remaining -= 1
                    if not f.remaining:
                        if done is None:
                            done = [f]
                        else:
                            done.append(f)
        if done is not None:
            returns: dict = {}
            for f in done:
                _return(f)
                parent = f.parent
                key = (parent.body, f.return_node)
                parents = returns.get(key)
                if parents is None:
                    returns[key] = [parent]
                else:
                    parents.append(parent)
                if f.return_node in parent.body.recorded:
                    f.parent = None
            for (pbody, rnode), parents in reversed(returns.items()):
                work.append((pbody, pbody.unit_of[rnode], parents))
        if not work:
            return
        body, u, frames = work.pop()


# A value that `_return`, `_spawn` or `_run_cond` passes on lies in its holder
# under its own id (see `CompiledBody.stack_id`): `differentiate` never passes
# on a forward value.


def _return(f: _Frame):
    """Write a completed frame's outputs into its parent's result slots; an
    output that lies in a stack as that stack and row."""
    pvals = f.parent.values
    vals = f.values
    for i, o, r, c in f.ret:
        x = vals[o]
        if x is _PENDING:
            pvals[c] = _held(vals[r], o)
            pvals[c + 1] = vals[r + 1]
        else:
            pvals[i] = x


def _ref(f: _Frame, i: int):
    """Node i's value in frame f: the value, or (stack, row) if it lies in a
    stack, or _PENDING if it is not resolved.

    A pending value lies in a stack if the slot `row_slot` names holds what
    holds it: a group record, whose stack under `stack_id` is meant, or the
    stack itself; the next slot holds the row.
    """
    x = f.values[i]
    if x is _PENDING:
        body = f.body
        r = body.row_slot[i]
        if r >= 0:
            h = f.values[r]
            if h is not None:
                return _held(h, body.stack_id[i]), f.values[r + 1]
    return x


def _held(h, i: int):
    """The stack of node i in holder h: a group record's stack of node i, or
    h itself, a stack an argument or a call's output was copied from."""
    return h[i] if type(h) is dict else h


def _value(f: _Frame, i: int):
    """Node i's value in frame f, a row of its stack if it lies in one."""
    x = _ref(f, i)
    return x[0][x[1]] if type(x) is tuple else x


class _CallSite:
    """What one call node fixes for every frame it spawns on one branch:
    the target body, the parent's node ids that fill the child's argument
    slots, split into slots that one template per instance shares and slots
    each child sets, where the child's outputs return, and whether the
    parent records the child for a gradient call. Built on a call node's
    first use (see `_call_site`)."""

    __slots__ = (
        "name", "body", "shared", "own", "ret", "site", "fwd_site", "record", "untaken",
        "error",
    )

    def __init__(self, g: FinalizedGraph, pbody, nid: int, branch: int):
        kind = pbody.kinds[nid]
        p = pbody.payloads[nid]
        ids = pbody.inputs[nid]
        unit = pbody.unit_nodes[pbody.unit_of[nid]]  # the call node and its result slots
        ret = unit
        self.fwd_site = self.untaken = None
        if kind == "invoke":
            self.name, _, self.fwd_site = p
        elif kind == "cond":
            tname, ename, ct, ce = p
            n_args = len(ids) - 1 - ct - ce
            caps = ids[1 + n_args : 1 + n_args + ct] if branch else ids[1 + n_args + ct :]
            self.name = tname if branch else ename
            ids = ids[1 : 1 + n_args] + caps
        else:  # cond_grad: the gradient of the branch the forward cond ran
            ct, ce = p.cap_counts
            n_up = len(ids) - ct - ce
            caps = ids[n_up : n_up + ct] if branch else ids[n_up + ct :]
            self.name = p.then_name if branch else p.else_name
            ids = ids[:n_up] + caps
            ret = [unit[s] for s in (p.then_slots if branch else p.else_slots)]
            self.untaken = [i for i in unit if i not in ret]  # the other branch's captures
            self.fwd_site = p.cond_site
        self.body = body = g.bodies[self.name]
        slots = body.arg_slots
        self.error = None
        if len(ids) != len(slots):
            self.error = (
                f"subgraph {self.name!r} expects {len(slots)} values "
                f"(inputs plus captures), got {len(ids)}"
            )
        self.shared = [
            (slot, i, pbody.row_slot[i]) for slot, i in zip(slots, ids) if body.shared[slot]
        ]
        self.own = [
            (slot, i, pbody.row_slot[i], body.row_slot[slot])
            for slot, i in zip(slots, ids) if not body.shared[slot]
        ]
        self.ret = tuple((i, o, body.row_slot[o], pbody.row_slot[i]) for i, o in zip(ret, body.outputs))
        self.site = nid if self.fwd_site is None else self.fwd_site
        self.record = nid in pbody.recorded


def _call_site(state: _RunState, pbody, nid: int, branch: int = 0) -> _CallSite:
    """Node nid's call site record for `branch` (1 then, 0 else; 0 for an
    invoke), kept on the body from its first use. Two runs that build one at
    once build the same record."""
    s = pbody.call_sites.get((nid, branch))
    if s is None:
        s = pbody.call_sites[(nid, branch)] = _CallSite(state.g, pbody, nid, branch)
    return s


def _spawn(state: _RunState, s: _CallSite, parents, nid: int):
    """Create one child frame of call site s per parent, called from node
    `nid`.

    The child's arguments are the parent's values at the site's node ids,
    and its outputs return into the parent's node ids `s.ret`, by default the
    call node and its result slots. A gradient call's child takes its forward
    values, as it takes arguments, from the forward frame popped from its
    parent's record at the forward call site it mirrors: the values, and the
    holder and row of each forward pair (`fwd_units`); a forward call that a
    gradient call mirrors records each child.
    Captures of top-level nodes hold one value per instance, so each instance
    keeps a template per body with those set.
    """
    if s.error is not None:
        state.fail(ExecutionError(s.error), parents[0], nid)
        return
    body = s.body
    shared, own, ret, site, fwd_site, fwd_units = s.shared, s.own, s.ret, s.site, s.fwd_site, body.fwd_units
    limit = state.opts.max_recursion_depth
    if not ret:  # nothing returns into a call with no outputs: its node holds None
        for parent in parents:
            parent.values[nid] = None
    children = []
    tracing = state.tracing
    counted = None  # the instance whose frames `count` children have not been added to
    count = 0
    for parent in parents:
        depth = parent.depth + 1
        if depth > limit:
            state.fail(
                ExecutionError(f"recursion depth {depth} exceeds limit {limit}"),
                parent, nid,
            )
            return
        pvals = parent.values
        inst = parent.inst
        if inst is not counted:
            if count:
                counted.frames[s.name] = counted.frames.get(s.name, 0) + count
            counted, count = inst, 0
            template = inst.templates.get(body)
            if template is None:
                template = inst.templates[body] = _template(body)
                for slot, i, r in shared:
                    x = pvals[i]
                    template[slot] = x if x is not _PENDING else _held(pvals[r], i)[pvals[r + 1]]
        count += 1
        values = template.copy()
        for slot, i, r, c in own:
            x = pvals[i]
            if x is _PENDING:
                values[c] = _held(pvals[r], i)
                values[c + 1] = pvals[r + 1]
            else:
                values[slot] = x
        child = _Frame(body, values, parent, nid, ret, site, depth, inst)
        if tracing:
            child.path = f"{parent.path}/{site}" if parent.parent else str(site)
        if fwd_site is not None:
            fwd = (parent.children or {}).pop(fwd_site, None)
            if fwd is None:
                msg = f"forward/backward mismatch: no forward frame for call site {site}"
                state.fail(ExecutionError(msg), parent, nid)
                return
            fv = fwd.values
            for r, c, pairs in fwd_units:
                values[c] = fv[r]
                values[c + 1] = fv[r + 1]
                for slot, i in pairs:
                    values[slot] = fv[i]
            child.children = fwd.children
        elif s.record:
            parent.children[nid] = child
        children.append(child)
    counted.frames[s.name] = counted.frames.get(s.name, 0) + count
    ready = state.ready
    for r in body.initial_ready:
        lst = ready.get((body, r))
        if lst is None:
            ready[(body, r)] = children.copy()
        else:
            lst.extend(children)
    if not body.completion_total:
        # every output is an argument or a constant: the call is complete
        for f in children:
            _return(f)
        pbody = parents[0].body
        _settle(state, pbody, pbody.unit_of[nid], parents)


def _run_cond(state, body, nid, frames):
    pred = body.inputs[nid][0]
    r = body.row_slot[pred]
    taken = ([], [])  # parents on the else / then branch
    flags: dict = {}  # id of a stack's holder -> its predicates, compared at once
    for f in frames:
        v = f.values
        x = v[pred]
        if x is _PENDING:
            h = v[r]
            got = flags.get(id(h))
            if got is None:
                got = flags[id(h)] = [abs(y) > 0.5 for y in _held(h, pred)[:, 0, 0].tolist()]
            taken[got[v[r + 1]]].append(f)
        else:
            taken[abs(x.item(0)) > 0.5].append(f)
    if taken[1]:
        _spawn(state, _call_site(state, body, nid, 1), taken[1], nid)
    if taken[0] and state.error is None:
        _spawn(state, _call_site(state, body, nid, 0), taken[0], nid)


def _run_cond_grad(state, body, nid, frames):
    """Run, per frame, the gradient of the branch that the mirrored forward
    cond ran."""
    p = body.payloads[nid]
    then_fwd = state.g.bodies[p.then_name].mirrors
    taken = ([], [])  # parents on the else / then branch
    for f in frames:
        child = (f.children or {}).get(p.cond_site)
        if child is None:
            msg = f"forward/backward mismatch: no branch record for node {p.cond_site}"
            state.fail(ExecutionError(msg), f, nid)
            return
        taken[child.body.label == then_fwd].append(f)
    for rec in (1, 0):
        if not taken[rec] or state.error is not None:
            continue
        s = _call_site(state, body, nid, rec)
        for f in taken[rec]:
            for i in s.untaken:
                f.values[i] = None
        _spawn(state, s, taken[rec], nid)


def _sink_read(sink: dict, nid: int, shape):
    """An entry's sum as a frame value, zeros if nothing arrived. A dense sum
    is frozen where it lies: every gradient call it waits on has returned."""
    acc = sink.get(nid)
    if acc is None:
        acc = np.zeros((shape.rows, shape.cols))
    if type(acc) is np.ndarray:
        acc.flags.writeable = False
    return acc


def _run_control(state: _RunState, body, nid: int, frames):
    """Control nodes: per frame."""
    kind = body.kinds[nid]
    if kind == "invoke":
        _spawn(state, _call_site(state, body, nid), frames, nid)
    elif kind == "cond":
        _run_cond(state, body, nid, frames)
    elif kind == "cond_grad":
        _run_cond_grad(state, body, nid, frames)
    else:  # grad_out
        payload = body.payloads[nid]
        for f in frames:
            f.values[nid] = _sink_read(f.inst.sink, *payload)
        _settle(state, body, body.unit_of[nid], frames)


# -- segments ----------------------------------------------------------------


class _Group:
    """A batched group's pass over one segment: the stacks of node values it
    computed or gathered, and what it finds once about its frames."""

    __slots__ = ("stacks", "rows", "tables", "which", "by_instance")

    def __init__(self):
        # node id -> its k-stack (2-D if one value serves every frame): the
        # segment's results so far and the operands gathered for it
        self.stacks: dict = {}
        self.rows: dict = {}  # (body, row slot) -> `_where` the frames' rows lie
        self.tables: dict = {}  # node id -> the `Tables` a batched `gather_row` reads
        self.which = None  # the frames' instance numbers
        self.by_instance = None  # see `_by_instance`


def _operands(body, ids, frames, grp: _Group) -> list:
    """A batched kernel's operands, the values of node ids `ids`: 2-D if one
    value serves every frame. Kept in `grp.stacks` for the segment's other
    members."""
    stacks = grp.stacks
    ops = []
    for i in ids:
        a = stacks.get(i)
        if a is None:
            v = frames[0].values[i]
            if body.run_wide[i] or (body.shared[i] and all(f.values[i] is v for f in frames)):
                a = v  # one value for every frame
            else:
                a = _gather(body, i, frames, grp)
            stacks[i] = a
        ops.append(a)
    return ops


def _tables(state: _RunState, body, i: int, frames, grp: _Group):
    """A batched `gather_row`'s table, node i, which captures a top-level
    node (one value per instance): the value if the run has one instance,
    else `Tables` over the instances' values, joined once per run."""
    if len(state.tops) == 1:
        # its one table: joining it and indexing by instance made forward
        # TreeRNN runs of one 64-leaf tree 10-25% slower
        return frames[0].values[i]
    t = grp.tables.get(i)
    if t is None:
        tid = body.nodes[i].payload.id
        joined = state.tables.get(tid)
        if joined is None:
            tabs = [_value(top, tid) for top in state.tops]
            sizes = np.array([len(x) for x in tabs])
            joined = state.tables[tid] = (np.concatenate(tabs), np.cumsum(sizes) - sizes, sizes)
        if grp.which is None:
            grp.which = np.array([f.inst.n for f in frames])
        rows, starts, sizes = joined
        t = grp.tables[i] = Tables(rows, starts[grp.which], sizes[grp.which])
    return t


def _gather(body, i: int, frames, grp: _Group):
    """Node i's values in a group's frames as one k-stack, ValueError if a
    value is missing.

    A member of another segment lies in the group records of the groups
    that ran it; an argument, a call's output or a forward value lies where
    it was copied from (see `_ref`). Where the frames' rows lie is found
    once per group and slot pair (`_where`), and a node read from there is
    one slice or index per run of frames that one stack serves. Values the
    frames hold as arrays are stacked anew.
    """
    x0 = frames[0].values[i]
    if x0 is _PENDING:
        r = body.row_slot[i]
        if r >= 0:
            key = (body, r)
            where = grp.rows.get(key, _PENDING)
            if where is _PENDING:
                vals = [f.values for f in frames]
                where = grp.rows[key] = _where([v[r] for v in vals], [v[r + 1] for v in vals])
            if where is not None:
                try:
                    return _pick(where, body.stack_id[i], len(frames))
                except KeyError:  # some group ran node i frame by frame
                    pass
    xs = [f.values[i] for f in frames]
    if set(map(type, xs)) != {np.ndarray}:  # a mix: rows of stacks and arrays
        xs = [x if x is not _PENDING else _value(f, i) for f, x in zip(frames, xs)]
    return _restack(body, i, xs)


def _restack(body, i: int, xs: list):
    """A new stack of node i's per-frame arrays xs."""
    a = np.array(xs)
    if a.dtype != np.float64:
        raise ValueError(f"node {i} of {body.label!r}: cannot stack a missing value")
    return a


def _where(holders: list, rows: list):
    """Where frames' rows lie, from the holders and rows they keep in a slot
    pair: (holder, the frames' positions, their rows) per run of frames that
    one holder serves, positions as a slice, and rows as a slice if they are
    consecutive, else a list. None if some frame has no holder."""
    k = len(holders)
    keys = list(map(id, holders))
    runs = [k] if keys.count(keys[0]) == k else [len(list(g)) for _, g in groupby(keys)]
    where, s = [], 0
    for n in runs:
        h, rs = holders[s], rows if n == k else rows[s : s + n]
        if h is None:
            return None
        r0 = rs[0]
        if rs == list(range(r0, r0 + n)):
            rs = slice(r0, r0 + n)
        where.append((h, slice(s, s + n), rs))
        s += n
    return where


def _pick(where: list, i: int, k: int):
    """A k-stack of node i's rows that `where` locates."""
    if len(where) == 1:
        (h, _, rows), = where
        # contiguous, as numpy's products then sum in the same order as over
        # a stack of the rows
        return np.ascontiguousarray(_held(h, i)[rows])
    out = None
    for h, at, rows in where:
        part = _held(h, i)[rows]
        if out is None:
            out = np.empty((k,) + part.shape[1:])
        out[at] = part  # ValueError if the stacks' values differ in shape
    return out


def _stack(out, k: int):
    """Check a batched kernel's result for k frames and make it read-only."""
    if out.dtype != np.float64 or not (
        out.ndim == 2 or (out.ndim == 3 and out.shape[0] == k)
    ):
        raise ValueError(f"batched kernel returned {out.dtype} {out.shape} for {k} frames")
    out.flags.writeable = False
    return out


def _keep(state: _RunState, body, u: int, frames, grp: _Group):
    """After batched segment u ran for a group: keep the stacks of its
    exposed members on a group record, and give each frame its row in it."""
    rec = {}
    for m in body.unit_exposed[u]:
        a = grp.stacks.get(m)
        if a is not None:  # else it ran frame by frame, and the frames hold it
            rec[m] = a if a.ndim == 3 else np.broadcast_to(a, (len(frames),) + a.shape)
    if rec:
        state.stacked = True
        slot = body.n_nodes + 2 * u
        for j, f in enumerate(frames):
            v = f.values
            v[slot] = rec
            v[slot + 1] = j


def _unresolved(body, u: int, frames):
    """(error, frame, node id) if an input from outside unit u is still
    pending in some frame, else None."""
    for nid in body.unit_nodes[u]:
        for i in body.inputs[nid]:
            if body.unit_of[i] == u:
                continue
            for f in frames:
                if _ref(f, i) is _PENDING:
                    return ExecutionError(
                        f"scheduling bug: node {nid} ran before input {i} "
                        f"resolved at key {_key_str(f)}"
                    ), f, nid
    return None


def _compute(state: _RunState, body, nid: int, frames, grp):
    """Compute segment member `nid` for a group: None, or (exception, frame)
    for the first frame that failed.

    In a batched pass (`grp` is a `_Group`, for groups of `_BATCH_MIN`
    frames or more) a member with a batched variant runs once over stacked
    operands and its result stays in `grp.stacks`. Otherwise, or if the batched kernel
    raises, the per-frame kernel runs for each frame, once the frames hold
    the rows of the inputs that lie in stacks.
    """
    if state.tracing:
        state.record(body, nid, frames)
    sink = body.sinks[nid]
    if sink is not None:
        return _sink_add(state, body, nid, sink, frames, grp)
    batched = None if grp is None else body.batched[nid]
    if batched is not None:
        ids = body.inputs[nid]
        try:
            t = ids[0]
            if body.kinds[nid] == "gather_row" and body.shared[t] and not body.run_wide[t]:
                ops = [_tables(state, body, t, frames, grp)]
                ops += _operands(body, ids[1:], frames, grp)
            else:
                ops = _operands(body, ids, frames, grp)
            grp.stacks[nid] = _stack(batched(*ops), len(frames))
            return None
        except Exception:  # noqa: BLE001 - the per-frame kernels below name the frame
            pass
    if grp is not None or state.stacked:
        _unstack(body.inputs[nid], frames, grp)
    kernel = body.kernels[nid]
    for f in frames:
        try:
            f.values[nid] = kernel(f.values)
        except Exception as exc:  # noqa: BLE001 - reported with full context
            return exc, f
    return None


def _unstack(ids, frames, grp):
    """Give the frames, for per-frame kernels, the rows of those of nodes
    `ids` that lie in stacks: this batched segment's (`grp`), or those
    `_ref` finds."""
    for i in ids:
        a = None if grp is None else grp.stacks.get(i)
        for j, f in enumerate(frames):
            v = f.values
            if v[i] is not _PENDING:
                continue
            if a is not None:
                v[i] = a[j] if a.ndim == 3 else a
            else:
                x = _value(f, i)
                if x is not _PENDING:
                    v[i] = x


def _by_instance(frames, grp: _Group):
    """A batched group's instances in the order of their first frame, a
    permutation of the frames that makes each instance's frames contiguous
    in their group order (None if they already are), and where each
    instance's run starts. Made once per group, for its sinks."""
    got = grp.by_instance
    if got is None:
        pos: dict = {}
        for j, f in enumerate(frames):
            p = pos.get(f.inst)
            if p is None:
                pos[f.inst] = [j]
            else:
                p.append(j)
        runs = list(pos.values())
        perm = list(chain.from_iterable(runs))
        starts = np.cumsum([0] + [len(r) for r in runs[:-1]])
        got = grp.by_instance = (
            list(pos), None if perm == list(range(len(frames))) else np.array(perm), starts
        )
    return got


def _sink_add(state: _RunState, body, nid: int, sink, frames, grp):
    """Sink member `nid`: add each frame's contribution to its instance's
    sink entry. None, or (exception, frame) for the first frame that failed.

    A batched pass reduces the stacked contributions once per instance, in
    the group's frame order, and adds one partial per instance: a fused
    product is summed per instance as one gemm over its stacked operands,
    and a fused `scatter_row` becomes one row gradient per instance.
    Otherwise, for a source that is never dense (row gradients, a row
    table), or if some frame's contribution is missing or ragged, each frame
    adds its own, a fused one computed straight from its operands.
    Either way the summation order follows from the group alone.
    """
    top_id, ids, product, swap, stacked, table = sink
    if body.exposed[nid]:  # a top-level grad_out waits on it
        for f in frames:
            f.values[nid] = None
    if grp is not None and stacked:
        k = len(frames)
        try:
            ops = [
                a if a.ndim == 3 else np.broadcast_to(a, (k,) + a.shape)
                for a in _operands(body, ids, frames, grp)
            ]
            if table is not None:
                idx, rows = bscatter(*ops)
        except (AttributeError, ValueError):  # no gradient, or ragged rows
            pass
        else:
            insts, perm, starts = _by_instance(frames, grp)
            ends = [*starts[1:], k]
            if table is not None:
                if perm is not None:
                    idx, rows = idx[perm], rows[perm]
                parts = [
                    RowGrads.of(table.rows, table.cols, idx[s:e], rows[s:e])
                    for s, e in zip(starts, ends)
                ]
            else:
                if perm is not None:
                    ops = [a[perm] for a in ops]
                if product is None:
                    parts = np.add.reduceat(ops[0], starts, axis=0)
                else:
                    if swap:
                        ops = [x.swapaxes(1, 2) for x in ops]
                    r = ops[0].shape[1]  # rows each frame contributes to A and B
                    a, b = [x.reshape(k * r, x.shape[2]) for x in ops]
                    parts = [a[s * r : e * r].T @ b[s * r : e * r] for s, e in zip(starts, ends)]
            for inst, part in zip(insts, parts):
                try:
                    sink_put(inst.sink, top_id, part, True)
                except TypeError as exc:
                    return exc, next(f for f in frames if f.inst is inst)
            return None
    if grp is not None or state.stacked:
        _unstack(ids, frames, grp)
    for f in frames:
        vals = f.values
        if product is None:
            v = vals[ids[0]]
        else:
            a, b = vals[ids[0]], vals[ids[1]]
            v = None if a is None or b is None else product(a, b)
        if v is None:
            continue
        try:
            sink_put(f.inst.sink, top_id, v, product is not None)
        except TypeError as exc:
            return exc, f
    return None


def _run_members(state: _RunState, body, steps, frames, grp):
    """Compute a segment's members in order: None, or (exception, frame,
    node id) for the first that failed."""
    for m in steps:
        err = _compute(state, body, m, frames, grp)
        if err is not None:
            return err[0], err[1], m
    return None


def _run_compiled(state: _RunState, body, u: int, seg, frames):
    """Run compiled segment u for a group, one call per frame: None, or
    (exception, frame, node id) for the first member that failed.

    The held-back sink adds go in last, member by member. A failure reruns
    the group through the member loop, which names the failing member and
    frame as it always does; the run is failing, so what the first pass
    added to the sinks no longer matters.
    """
    if state.tracing:
        for m in seg.members:
            state.record(body, m, frames)
    if state.stacked:
        _unstack(seg.reads, frames, None)
    later = tuple([] for _ in seg.deferred)
    try:
        run = seg.run
        for f in frames:
            run(f.values, f.inst.sink, later)
        for (top, own), adds in zip(seg.deferred, later):
            for sink, v in adds:
                sink_put(sink, top, v, own)
    except Exception as exc:  # noqa: BLE001 - the member loop names the member and frame
        err = _run_members(state, body, body.steps[u], frames, None)
        return err if err is not None else (exc, frames[0], seg.members[0])
    return None


def _compiled(body, u: int):
    """Segment u's compiled form, made on first use (False where a test has
    set it to run the member loop)."""
    seg = body.compiled[u]
    if seg is None:
        seg = body.compiled[u] = compile_segment(body, u)
    return seg


def _round(state: _RunState):
    """Run every unit group that became ready in the previous round, in the
    order they became ready."""
    groups = state.ready
    state.ready = {}
    for (body, u), frames in groups.items():
        if state.opts.debug:
            bad = _unresolved(body, u, frames)
            if bad is not None:
                state.fail(*bad)
                return
        steps = body.steps[u]
        if steps is None:
            nid = body.unit_nodes[u][0]
            if state.tracing:
                state.record(body, nid, frames)
            _run_control(state, body, nid, frames)
            if state.error is not None:
                return
            continue
        if state.opts.instrument:
            state.peak = max(state.peak, len(frames))
        if len(frames) >= _BATCH_MIN:
            grp = _Group()
            error = _run_members(state, body, steps, frames, grp)
            if error is None:
                _keep(state, body, u, frames, grp)
        else:
            seg = _compiled(body, u)
            if seg:
                error = _run_compiled(state, body, u, seg, frames)
            else:
                error = _run_members(state, body, steps, frames, None)
        if error is not None:
            state.fail(*error)
            return
        _settle(state, body, u, frames)


def run(
    g: FinalizedGraph,
    feeds: dict,
    fetches: list,
    opts: RunOptions | None = None,
    params: dict | None = None,
) -> RunResult:
    """Execute `g`, returning the fetched values in order."""
    return run_batch(g, [feeds], fetches, opts, params)[0]


def run_batch(
    g: FinalizedGraph,
    feed_list: list,
    fetches: list,
    opts: RunOptions | None = None,
    params: dict | None = None,
) -> list[RunResult]:
    """Execute `g` once per feed dict, all instances in one wavefront.

    The frames of every instance that are ready at the same node in one
    round share a group, so a batch of narrow trees still fills stacked
    kernels. Each instance keeps its own frames and gradient sink;
    parameters are shared. Results for an instance depend only on the graph
    and the batch it is run in. Every result
    carries the whole batch's peak concurrency and trace.
    """
    opts = opts or RunOptions()
    if opts.threads < 1:
        raise ValueError("threads must be >= 1")
    if not feed_list:
        raise ValueError("feed_list is empty")
    params = params or {}
    top = g.top

    fetch_ids = []
    for f in fetches:
        if isinstance(f, NodeHandle):
            if f.graph is not g.graph:
                raise ExecutionError(f"fetch {f!r} does not belong to this graph")
            fetch_ids.append(f.id)
        else:
            fetch_ids.append(int(f))
    for i in fetch_ids:
        if not (0 <= i < top.n_nodes):
            raise ExecutionError(f"fetch id {i} out of range")

    state = _RunState(g, opts)
    tops = []
    for feeds in feed_list:
        values = _template(top)
        frame = _Frame(top, values, None, -1, (), None, 0, _Instance(len(tops)))
        frame.path = "-"
        by_name = {}
        for h, v in feeds.items():
            name = h.payload if hasattr(h, "payload") else h
            if isinstance(name, NodeHandle):
                name = name.graph.nodes[name.id].payload
            by_name[name] = v
        for nid, name, shape in top.placeholders:
            if name not in by_name:
                raise ExecutionError(f"placeholder {name!r} was not fed")
            v = by_name[name]
            if not isinstance(v, Tensor):
                raise ExecutionError(f"feed for {name!r} must be a tensor")
            if v.cols != shape.cols or (shape.rows is not None and v.rows != shape.rows):
                raise ExecutionError(
                    f"feed for {name!r} has shape {v.rows}x{v.cols}, expected {shape}"
                )
            values[nid] = v.a
        for nid, name, shape in top.parameters:
            if name not in params:
                raise ExecutionError(f"parameter {name!r} missing from the parameter store")
            v = params[name]
            if Shape(v.rows, v.cols) != shape:
                raise ExecutionError(
                    f"parameter {name!r} has shape {v.rows}x{v.cols}, expected {shape}"
                )
            values[nid] = v.a
        tops.append(frame)
    state.tops = tops
    for u in top.initial_ready:
        state.ready[(top, u)] = tops.copy()

    deadline = None if opts.timeout_s is None else time.monotonic() + opts.timeout_s
    while state.ready and state.error is None:
        if deadline is not None and time.monotonic() > deadline:
            raise ExecutionError(f"run timed out after {opts.timeout_s}s")
        _round(state)
    if state.error is not None:
        exc, key, nid, kind = state.error
        raise ExecutionError(f"node {nid} ({kind}) at key {key}: {exc}") from exc
    results = []
    for frame in tops:
        xs = [_ref(frame, i) for i in fetch_ids]
        missing = sorted({i for i, x in zip(fetch_ids, xs) if x is _PENDING})
        if missing:
            raise ExecutionError(f"run stalled: fetched node(s) {missing} never became ready")
        results.append(
            RunResult(
                values=[
                    Tensor._wrap(v) if type(v) is np.ndarray else v
                    for v in (x[0][x[1]] if type(x) is tuple else x for x in xs)
                ],
                frames=frame.inst.frames,
                peak_concurrency=state.peak,
                trace=state.trace,
            )
        )
    return results


def run_training_step(
    g: FinalizedGraph,
    grad_map,
    feeds: dict,
    params: dict,
    opts: RunOptions | None = None,
):
    """One forward+backward pass: returns (loss, {param name: gradient})."""
    fetches = [grad_map.loss] + [grad_map.param_grads[n] for n in grad_map.param_order]
    res = run(g, feeds, fetches, opts, params)
    loss = float(res.values[0].item())
    grads = dict(zip(grad_map.param_order, res.values[1:]))
    return loss, grads
