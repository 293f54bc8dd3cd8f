"""Parallel graph runtime: wavefront rounds of batched units.

At finalize each body is cut into units (`CompiledBody`): every control
node (invoke, cond, cond_grad, grad_out) is one, and the compute nodes that
hang off the same set of control nodes form one segment, a straight-line
piece of the body. A run advances in rounds. The units that became ready
during round r (their last input unit ran) run in round r+1.
Within a round, the ready (frame, unit) pairs that share a body and a unit
form one group: all `Leaf` frames at one depth, say, or all `Internal`
frames whose children returned together. A segment runs for its group in
one call, member by member in waves of independent members. From
`_BATCH_MIN` frames up each member runs as one stacked numpy kernel over the
k per-frame values (the batched variants in `kernels.py`), and its result
stays one read-only stack; frames hold slices of it only where something
outside the segment reads it. Smaller groups run it frame by frame.
Independent subtrees thus cost one call per segment and level rather than
one per node and frame, which is how the recursive form turns a wide
frontier into less work even where a global interpreter lock serialises
small numpy ops.

A group under `_BATCH_MIN` frames runs its segment as one generated function
per frame (`kernels.compile_segment`, made on the segment's first such group
and kept on its body): the members run in the member loop's order on plain
arrays, and only values read outside the segment are written to the frame.
A segment with a member heavy enough to hand to a worker thread at
some group size under `_BATCH_MIN` (a stall) keeps the member loop, so the
thread count never changes which path a group takes.

`run_batch` runs several instances of a graph in one wavefront: their
frames at the same unit share groups, so a batch of narrow trees fills the
stacked kernels that one wide tree fills on its own. Each instance keeps its
own top frame, gradient sink and fetches; `run` is a batch of one.

A frame holds each value as a read-only float64 array, a `RowTable`, a
`RowGrads`, or None (no gradient flows). `Tensor` exists only at
`run_batch`'s boundary, which unwraps feeds and parameters and wraps fetched
arrays without a copy. Each gradient sink entry sums in a private array
(see `kernels.sink_put`), so no frame value is ever written.

The thread that called `run` owns all bookkeeping: it forms the groups,
counts down dependents, expands control nodes, adds to the gradient sinks,
and returns finished frames to their parents. Only kernel computation is
handed out: with more than one thread, the members of a wave whose
estimated work outweighs a thread handoff (large matrix products, stalls)
are submitted to the run's `ThreadPoolExecutor`, made on the first such wave
and shut down when the run ends; the scheduler thread computes the first
member and any that no worker has started. Smaller kernels run where they
are, since they hold the interpreter lock throughout. Trace rows from every
thread go to one list. Group composition and order follow from the graph
and the inputs alone, never from which worker finished first, so results
are bit-identical for every thread count.

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
from its forward frame): the child's values fill the new frame's forward-value
slots, a cond gradient runs the branch the child ran, and the new frame takes
over the child's record. One call site below its parent, at the child's site,
it has the child's depth and key. A completed recorded frame keeps only the
values its gradient reads, and is freed once that gradient frame exists.

Each instance also holds a gradient sink: `sink_add` nodes add every
gradient contribution to a top-level node (a parameter a body captures, say)
to the instance's entry for that node, and a top-level `grad_out` node reads
the entry once the gradient calls it waits on have returned. A sink add is a
member of its source's segment and runs on the scheduler thread. In a
batched group it reduces the source's stack once per instance, the group's
frames permuted so that each instance's are contiguous, and adds one partial
to each instance's entry. A parameter gradient's outer product that only
the sink reads is fused into it: the sink sums the product over each
instance's frames as one gemm of the stacked operands, so no frame's product
is ever formed. Smaller groups add frame by frame, a fused product straight
from its operands. The summation order follows from the group alone, so
results stay bit-identical for every thread count.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import chain, count
from operator import itemgetter

import numpy as np

from .graph import FinalizedGraph, NodeHandle, Shape
from .kernels import compile_segment, sink_put
from .tensor import Tensor

_PENDING = object()
# The name prefix of a run's worker threads.
_POOL_PREFIX = "rdg-pool"
# Groups of fewer frames run frame by frame. Measured on d=16 models:
# - a batch of k linear trees, whose every group holds k frames, ran batched
#   at 1.08-1.32x the per-frame time for k=2, 0.77-1.01x for k=4 and
#   0.56-0.88x for k=8;
# - balanced TreeRNN forward runs, whose only groups under 8 frames are the
#   top levels, were 5-10% faster with the cut-over at 8 than at 4;
# - end-to-end training and inference did not move between 4 and 8.
_BATCH_MIN = 8
# Estimated multiply-adds (see kernels.compile_body) of a segment member over
# its group above which it is worth handing to another thread; below it the
# handoff costs more than the kernel, which holds the interpreter lock
# throughout anyway.
_OFFLOAD_WORK = float(1 << 20)
# The key under which a batched group's `stacks` caches `_by_instance`.
_BY_INSTANCE = -1


class ExecutionError(RuntimeError):
    """A run failed; the message carries the node id and the frame's key."""


@dataclass
class RunOptions:
    """How to run a graph.

    - `threads`: threads that compute large kernels; results are the same for any count.
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
    (recorded only with `RunOptions(instrument=True)`) is the largest number
    of (frame, node) pairs whose kernels were in flight at once, summed over
    the run's threads: a segment member computing for a group of k frames
    counts k, stacked or frame by frame. `trace` holds one row per executed
    (frame, node) when tracing is on, in time order.
    """

    values: list
    frames: dict = field(default_factory=dict)
    peak_concurrency: int = 0
    trace: list = field(default_factory=list)


class _Instance:
    """One fed instance of a run: its gradient sink, counts and frame
    templates."""

    __slots__ = ("sink", "frames", "fetch_remaining", "templates")

    def __init__(self):
        # top-level node id -> the sum of the gradient contributions so far;
        # a dense sum is a private array, added to in place
        self.sink = {}
        # body -> values a new frame starts from: constants and the
        # instance's top-level captures set, everything else pending
        self.templates = {}
        self.frames = {"top": 1}  # frames created per body name
        self.fetch_remaining = 0


class _Frame:
    __slots__ = (
        "body", "values", "pending", "remaining", "parent", "return_node", "ret", "site",
        "depth", "inst", "children", "path", "__weakref__",
    )

    def __init__(self, body, values, parent, return_node, ret, site, depth, inst):
        self.body = body
        self.values = values
        self.pending = body.pending0.copy()
        self.remaining = body.completion_total
        self.parent = parent
        self.return_node = return_node
        self.ret = ret  # (parent's node id, own output node id) per output
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
    """A new frame's values: constants set, everything else pending."""
    values = [_PENDING] * body.n_nodes
    for nid, v in body.preset:
        values[nid] = v
    return values


class _RunState:
    __slots__ = (
        "g", "top", "opts", "lock", "error", "watched", "open", "ready", "pool", "in_flight",
        "peak", "trace", "tracing",
    )

    def __init__(self, g: FinalizedGraph, opts: RunOptions):
        self.g = g
        self.top = g.top
        self.opts = opts
        self.lock = threading.Lock()  # guards in_flight/peak across threads
        self.error: tuple | None = None
        self.watched: set[int] = set()
        self.open = 0  # instances with fetches still unresolved
        # (body, unit) -> frames ready there for the next round, in the
        # order the scheduler thread readied them
        self.ready: dict = {}
        self.pool: ThreadPoolExecutor | None = None  # started on the first offload
        self.in_flight = 0
        self.peak = 0
        self.tracing = opts.trace
        self.trace: list = []  # rows from every thread; `extend` holds the interpreter lock

    def fail(self, exc: BaseException, frame: _Frame, nid: int):
        if self.error is None:
            self.error = (exc, _key_str(frame), nid, frame.body.kinds[nid])

    def record(self, wid: int, body, nid: int, frames):
        ts = time.monotonic_ns() // 1000
        label = _op_label(body, nid)
        self.trace.extend([(ts, wid, f.path, nid, label) for f in frames])


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


# -- bookkeeping (scheduler thread only) -----------------------------------


def _settle(state: _RunState, body, u: int, frames):
    """Propagate readiness once unit u has run, and set its values, for a
    group of frames.

    Dependents whose last input this was join the next round. Frames whose
    outputs are now complete write them into the parent's result slots and
    settle the call's unit there, one group per (parent body, call node),
    which may complete the parents in turn; a completed frame that a
    gradient call will read keeps only the values that gradient reads.
    Iterative, so deep call chains cannot exhaust the stack.
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
            for f in frames:
                p = f.pending
                for d in joint:
                    p[d] -= 1
                    if not p[d]:
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
        fetched = body is state.top and sum(m in state.watched for m in body.unit_nodes[u])
        if fetched:
            for f in frames:
                f.inst.fetch_remaining -= fetched
                if not f.inst.fetch_remaining:
                    state.open -= 1
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
                    vals = f.values
                    f.values = {i: vals[i] for i in f.body.keep}
                    f.pending = f.parent = None
            for (pbody, rnode), parents in reversed(returns.items()):
                work.append((pbody, pbody.unit_of[rnode], parents))
        if not work:
            return
        body, u, frames = work.pop()


def _return(f: _Frame):
    """Write a completed frame's outputs into its parent's result slots."""
    pvals = f.parent.values
    vals = f.values
    for i, o in f.ret:
        pvals[i] = vals[o]


class _CallSite:
    """What one call node fixes for every frame it spawns on one branch:
    the target body, the parent's node ids that fill the child's argument
    slots, split into slots that one template per instance shares and slots
    each child sets, where the child's outputs return, and whether the
    parent records the child for a gradient call. Built on a call node's
    first use (see `_call_site`)."""

    __slots__ = (
        "name", "body", "shared", "own", "ret", "site", "fwd_site", "record", "untaken", "error",
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
        self.shared = [(slot, i) for slot, i in zip(slots, ids) if body.shared[slot]]
        self.own = [(slot, i) for slot, i in zip(slots, ids) if not body.shared[slot]]
        self.ret = tuple(zip(ret, body.outputs))
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
    call node and its result slots. A gradient call's child reads the forward
    frame popped from its parent's record at the forward call site it
    mirrors; a forward call that a gradient call mirrors records each child.
    Captures of top-level nodes hold one value per instance, so each instance
    keeps a template per body with those set.
    """
    if s.error is not None:
        state.fail(ExecutionError(s.error), parents[0], nid)
        return
    body = s.body
    shared, own, ret, site, fwd_site = s.shared, s.own, s.ret, s.site, s.fwd_site
    limit = state.opts.max_recursion_depth
    if not ret:  # nothing returns into a call with no outputs: its node holds None
        for parent in parents:
            parent.values[nid] = None
    children = []
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
        template = inst.templates.get(body)
        if template is None:
            template = inst.templates[body] = _template(body)
            for slot, i in shared:
                template[slot] = pvals[i]
        values = template.copy()
        for slot, i in own:
            values[slot] = pvals[i]
        child = _Frame(body, values, parent, nid, ret, site, depth, inst)
        if state.tracing:
            child.path = f"{parent.path}/{site}" if parent.parent else str(site)
        if fwd_site is not None:
            fwd = (parent.children or {}).pop(fwd_site, None)
            if fwd is None:
                msg = f"forward/backward mismatch: no forward frame for call site {site}"
                state.fail(ExecutionError(msg), parent, nid)
                return
            for slot, i in body.fwd_slots:
                values[slot] = fwd.values[i]
            child.children = fwd.children
        elif s.record:
            parent.children[nid] = child
        children.append(child)
        if inst is not counted:
            if count:
                counted.frames[s.name] = counted.frames.get(s.name, 0) + count
            counted, count = inst, 0
        count += 1
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
    taken = ([], [])  # parents on the else / then branch
    for f in frames:
        taken[abs(f.values[pred].item(0)) > 0.5].append(f)
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
    """Control nodes: per frame, on the scheduler thread."""
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


# -- segments (kernels on any thread) --------------------------------------


def _operands(body, ids, frames, stacks: dict) -> list:
    """A batched kernel's operands, the values of node ids `ids`: 2-D if one
    value serves every frame.

    `stacks` holds the segment's results so far and the operands already
    gathered for it, and takes the ones gathered here.
    """
    ops = []
    for i in ids:
        a = stacks.get(i)
        if a is None:
            v = frames[0].values[i]
            if body.run_wide[i] or (body.shared[i] and all(f.values[i] is v for f in frames)):
                a = v  # one value for every frame
            else:
                a = np.array([f.values[i] for f in frames])
                if a.dtype != np.float64:
                    raise ValueError(f"node {i}: cannot stack a missing value")
            stacks[i] = a
        ops.append(a)
    return ops


def _stack(out, k: int):
    """Check a batched kernel's result for k frames and make it read-only."""
    if out.dtype != np.float64 or not (
        out.ndim == 2 or (out.ndim == 3 and out.shape[0] == k)
    ):
        raise ValueError(f"batched kernel returned {out.dtype} {out.shape} for {k} frames")
    out.flags.writeable = False
    return out


def _views(stack, k: int) -> list:
    """Per-frame values of a checked batched result: read-only views of it."""
    if stack.ndim == 2:  # every operand was shared: one value for all frames
        return [stack] * k
    return list(stack)


def _unresolved(body, u: int, frames):
    """(error, frame, node id) if an input from outside unit u is still
    pending in some frame, else None."""
    for nid in body.unit_nodes[u]:
        for i in body.inputs[nid]:
            if body.unit_of[i] == u:
                continue
            for f in frames:
                if f.values[i] is _PENDING:
                    return ExecutionError(
                        f"scheduling bug: node {nid} ran before input {i} "
                        f"resolved at key {_key_str(f)}"
                    ), f, nid
    return None


def _compute(state: _RunState, body, nid: int, frames, stacks, wid: int):
    """Compute segment member `nid` for a group: None, or (exception, frame)
    for the first frame that failed.

    In a batched pass (`stacks` is a dict, for groups of `_BATCH_MIN` frames
    or more) a member with a batched variant runs once over stacked operands,
    and frames get views of its result only where it is exposed. Otherwise,
    or if the batched kernel raises, the per-frame kernel runs for each
    frame, reading views of the members that stayed stacked.
    """
    if state.tracing:
        state.record(wid, body, nid, frames)
    k = len(frames)
    opts = state.opts
    if opts.instrument:
        with state.lock:
            state.in_flight += k
            state.peak = max(state.peak, state.in_flight)
    try:
        sink = body.sinks[nid]
        if sink is not None:
            return _sink_add(body, nid, sink, frames, stacks)
        batched = None if stacks is None else body.batched[nid]
        if batched is not None:
            try:
                out = _stack(batched(*_operands(body, body.inputs[nid], frames, stacks)), k)
            except Exception:  # noqa: BLE001 - the per-frame kernels below name the frame
                _unstack(body.inputs[nid], frames, stacks)
            else:
                stacks[nid] = out
                if body.exposed[nid]:
                    for f, v in zip(frames, _views(out, k)):
                        f.values[nid] = v
                return None
        kernel = body.kernels[nid]
        for f in frames:
            try:
                f.values[nid] = kernel(f.values)
            except Exception as exc:  # noqa: BLE001 - reported with full context
                return exc, f
        return None
    finally:
        if opts.instrument:
            with state.lock:
                state.in_flight -= k


def _unstack(ids, frames, stacks):
    """Give the frames views of those of nodes `ids` that stayed stacked, for
    per-frame kernels that read them."""
    k = len(frames)
    for i in ids:
        if frames[0].values[i] is _PENDING:
            for f, v in zip(frames, _views(stacks[i], k)):
                f.values[i] = v


def _by_instance(frames, stacks: dict):
    """A batched group's instances in the order of their first frame, a
    permutation of the frames that makes each instance's frames contiguous
    in their group order (None if they already are), and where each
    instance's run starts. Made once per group, for its sinks."""
    got = stacks.get(_BY_INSTANCE)
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
        got = stacks[_BY_INSTANCE] = (
            list(pos), None if perm == list(range(len(frames))) else np.array(perm), starts
        )
    return got


def _sink_add(body, nid: int, sink, frames, stacks):
    """Sink member `nid`: add each frame's contribution to its instance's
    sink entry. None, or (exception, frame) for the first frame that failed.

    A batched pass reduces the stacked contributions once per instance, in
    the group's frame order, and adds one partial per instance; a fused
    product is summed per instance as one gemm over its stacked operands.
    Otherwise, for a source that is never dense (row gradients, a row
    table), or if some frame's contribution is missing or ragged, each frame
    adds its own, a fused one computed straight from its operands.
    Either way the summation order follows from the group alone.
    """
    top_id, ids, product, swap, stacked = sink
    if body.exposed[nid]:  # a top-level grad_out waits on it
        for f in frames:
            f.values[nid] = None
    if stacks is not None and stacked:
        k = len(frames)
        try:
            ops = [
                a if a.ndim == 3 else np.broadcast_to(a, (k,) + a.shape)
                for a in _operands(body, ids, frames, stacks)
            ]
        except (AttributeError, ValueError):  # no gradient, or ragged rows
            _unstack(ids, frames, stacks)
        else:
            insts, perm, starts = _by_instance(frames, stacks)
            if perm is not None:
                ops = [a[perm] for a in ops]
            if product is None:
                parts = np.add.reduceat(ops[0], starts, axis=0)
            else:
                if swap:
                    ops = [x.swapaxes(1, 2) for x in ops]
                r = ops[0].shape[1]  # rows each frame contributes to A and B
                a, b = [x.reshape(k * r, x.shape[2]) for x in ops]
                ends = [*starts[1:], k]
                parts = [a[s * r : e * r].T @ b[s * r : e * r] for s, e in zip(starts, ends)]
            for inst, part in zip(insts, parts):
                try:
                    sink_put(inst.sink, top_id, part, True)
                except TypeError as exc:
                    return exc, next(f for f in frames if f.inst is inst)
            return None
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


def _run_members(state: _RunState, body, waves, frames, stacks):
    """Compute a segment's members wave by wave: None, or (exception, frame,
    node id) for the first that failed. With more than one thread, a wave's
    heavy members are shared among the run's threads. Sink adds have no work
    and the products fused into them are in no wave, so both stay here."""
    k = len(frames)
    offload = state.opts.threads > 1
    for wave in waves:
        done = None
        if offload and len(wave) > 1:
            heavy = [m for m in wave if k * body.work[m] >= _OFFLOAD_WORK]
            if len(heavy) > 1:
                tasks = [(body, m, frames, stacks) for m in heavy]
                done = dict(zip(heavy, _compute_all(state, tasks)))
        for m in wave:
            if done is not None and m in done:
                err = done[m]
            else:
                err = _compute(state, body, m, frames, stacks, 0)
            if err is not None:
                return err[0], err[1], m
    return None


_WORKER = threading.local()  # `id`: a pool thread's worker id in trace rows


def _offloaded(state: _RunState, body, nid: int, frames, stacks):
    return _compute(state, body, nid, frames, stacks, _WORKER.id)


def _compute_all(state: _RunState, tasks: list) -> list:
    """Run (body, node, frames, stacks) members at once, spread over the
    run's pool, started on the first call; returns their `_compute` results
    in order. A task that no worker has started yet runs here."""
    if state.pool is None:
        ids = count(1)
        state.pool = ThreadPoolExecutor(
            state.opts.threads - 1, _POOL_PREFIX,
            initializer=lambda: setattr(_WORKER, "id", next(ids)),
        )
    futures = [state.pool.submit(_offloaded, state, *t) for t in tasks[1:]]
    results = [_compute(state, *tasks[0], 0)]
    for f, task in zip(futures, tasks[1:]):
        results.append(_compute(state, *task, 0) if f.cancel() else f)
    return [r.result() if isinstance(r, Future) else r for r in results]


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
            state.record(0, body, m, frames)
    k = len(frames)
    opts = state.opts
    if opts.instrument:
        with state.lock:
            state.in_flight += k
            state.peak = max(state.peak, state.in_flight)
    later = tuple([] for _ in seg.deferred)
    try:
        run = seg.run
        for f in frames:
            run(f.values, f.inst.sink, later)
        for (top, own), adds in zip(seg.deferred, later):
            for sink, v in adds:
                sink_put(sink, top, v, own)
    except Exception as exc:  # noqa: BLE001 - the member loop names the member and frame
        err = _run_members(state, body, body.waves[u], frames, None)
        return err if err is not None else (exc, frames[0], seg.members[0])
    finally:
        if opts.instrument:
            with state.lock:
                state.in_flight -= k
    return None


def _compiled(body, u: int):
    """Segment u's compiled form, made on first use, or False if a member
    may stall (estimated work large enough to hand to a worker thread, as
    `_run_members` does, at some group size under `_BATCH_MIN`)."""
    seg = body.compiled[u]
    if seg is None:
        stall = any(
            body.work[m] * (_BATCH_MIN - 1) >= _OFFLOAD_WORK for w in body.waves[u] for m in w
        )
        seg = body.compiled[u] = False if stall else compile_segment(body, u)
    return seg


def _round(state: _RunState):
    """Run every unit group that became ready in the previous round.

    Groups settle in the order they became ready, whichever thread computed
    their members, so the next round's groups are the same for every thread
    count.
    """
    groups = state.ready
    state.ready = {}
    for (body, u), frames in groups.items():
        if state.opts.debug:
            bad = _unresolved(body, u, frames)
            if bad is not None:
                state.fail(*bad)
                return
        waves = body.waves[u]
        if waves is None:
            nid = body.unit_nodes[u][0]
            if state.tracing:
                state.record(0, body, nid, frames)
            _run_control(state, body, nid, frames)
            if state.error is not None:
                return
            continue
        if len(frames) >= _BATCH_MIN:
            error = _run_members(state, body, waves, frames, {})
        else:
            seg = _compiled(body, u)
            if seg:
                error = _run_compiled(state, body, u, seg, frames)
            else:
                error = _run_members(state, body, waves, frames, None)
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
    and the batch it is run in, never on the thread count. Every result
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
    state.watched = set(fetch_ids)
    tops = []
    for feeds in feed_list:
        values = _template(top)
        frame = _Frame(top, values, None, -1, (), None, 0, _Instance())
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
        frame.inst.fetch_remaining = sum(1 for i in state.watched if values[i] is _PENDING)
        if frame.inst.fetch_remaining:
            state.open += 1
        tops.append(frame)
    for u in top.initial_ready:
        state.ready[(top, u)] = tops.copy()

    deadline = None if opts.timeout_s is None else time.monotonic() + opts.timeout_s
    try:
        while state.open and state.ready and state.error is None:
            if deadline is not None and time.monotonic() > deadline:
                raise ExecutionError(f"run timed out after {opts.timeout_s}s")
            _round(state)
    finally:
        if state.pool is not None:
            state.pool.shutdown(cancel_futures=True)
    if state.error is not None:
        exc, key, nid, kind = state.error
        raise ExecutionError(f"node {nid} ({kind}) at key {key}: {exc}") from exc
    trace = state.trace
    if state.pool is not None:  # each thread's rows are in time order, not their mix
        trace.sort(key=itemgetter(0, 1))
    results = []
    for frame in tops:
        values = frame.values
        if frame.inst.fetch_remaining:
            missing = sorted(i for i in state.watched if values[i] is _PENDING)
            raise ExecutionError(
                f"run stalled: fetched node(s) {missing} never became ready"
            )
        results.append(
            RunResult(
                values=[
                    Tensor._wrap(v) if type(v) is np.ndarray else v
                    for v in (values[i] for i in fetch_ids)
                ],
                frames=frame.inst.frames,
                peak_concurrency=state.peak,
                trace=trace,
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
