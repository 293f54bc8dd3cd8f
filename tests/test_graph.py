"""Graph construction: subgraphs, captures, laziness wiring, build errors."""

import numpy as np
import pytest

from rdg import BuildError, ExecutionError, Graph, RunOptions, Tensor, run
from rdg.graph import RowTable, Shape, TableShape


def scalar_sig():
    return [(1, 1)], [(1, 1)]


def build_countdown():
    """f(n) = 1 if n <= 0.5 else n * f(n - 1); exercises cond + self-invoke."""
    g = Graph()
    f = g.declare_subgraph("F", *scalar_sig())
    base = g.declare_subgraph("Base", *scalar_sig())
    step = g.declare_subgraph("Step", *scalar_sig())

    fb = g.body(f)
    (n,) = fb.args
    fb.set_outputs(fb.cond(n, step, base, [n]))
    g.define_subgraph(f, fb)

    bb = g.body(base)
    bb.set_outputs([bb.constant(Tensor.scalar(1.0))])
    g.define_subgraph(base, bb)

    sb = g.body(step)
    (m,) = sb.args
    rec = sb.invoke(f, [sb.add(m, sb.constant(Tensor.scalar(-1.0)))])
    sb.set_outputs([sb.hadamard(m, rec[0])])
    g.define_subgraph(step, sb)

    x = g.placeholder((1, 1), "x")
    (y,) = g.invoke(f, [x])
    return g, x, y


class TestForwardDeclaration:
    def test_invoke_before_define(self):
        g = Graph()
        f = g.declare_subgraph("F", *scalar_sig())
        x = g.placeholder((1, 1), "x")
        (y,) = g.invoke(f, [x])  # body not defined yet
        fb = g.body(f)
        (a,) = fb.args
        fb.set_outputs([fb.neg(a)])
        g.define_subgraph(f, fb)
        fg = g.finalize()
        assert "invoke[F]" in fg.dump()

    def test_undefined_body_at_finalize(self):
        g = Graph()
        f = g.declare_subgraph("F", *scalar_sig())
        x = g.placeholder((1, 1), "x")
        g.invoke(f, [x])
        with pytest.raises(BuildError, match="undefined body.*F"):
            g.finalize()

    def test_duplicate_declare(self):
        g = Graph()
        g.declare_subgraph("F", *scalar_sig())
        with pytest.raises(BuildError, match="already declared"):
            g.declare_subgraph("F", *scalar_sig())

    def test_define_twice(self):
        g = Graph()
        f = g.declare_subgraph("F", *scalar_sig())
        fb = g.body(f)
        fb.set_outputs([fb.neg(fb.args[0])])
        g.define_subgraph(f, fb)
        fb2 = g.body(f)
        fb2.set_outputs([fb2.neg(fb2.args[0])])
        with pytest.raises(BuildError, match="already defined"):
            g.define_subgraph(f, fb2)

    def test_finalize_twice(self):
        g = Graph()
        g.placeholder((1, 1), "x")
        g.finalize()
        with pytest.raises(BuildError, match="finalize called twice"):
            g.finalize()

    def test_mutation_after_finalize(self):
        g = Graph()
        g.placeholder((1, 1), "x")
        g.finalize()
        with pytest.raises(BuildError, match="finalized"):
            g.placeholder((1, 1), "y")


class TestSignatures:
    def test_output_count_mismatch(self):
        g = Graph()
        f = g.declare_subgraph("F", [(1, 1)], [(1, 1), (1, 1)])
        fb = g.body(f)
        fb.set_outputs([fb.neg(fb.args[0])])
        with pytest.raises(BuildError, match="declares 2 output"):
            g.define_subgraph(f, fb)

    def test_output_shape_mismatch(self):
        g = Graph()
        f = g.declare_subgraph("F", [(2, 1)], [(3, 1)])
        fb = g.body(f)
        fb.set_outputs([fb.neg(fb.args[0])])
        with pytest.raises(BuildError, match="output 0"):
            g.define_subgraph(f, fb)

    def test_invoke_arity(self):
        g = Graph()
        f = g.declare_subgraph("F", [(1, 1), (1, 1)], [(1, 1)])
        x = g.placeholder((1, 1), "x")
        with pytest.raises(BuildError, match="expected 2 argument"):
            g.invoke(f, [x])

    def test_invoke_arg_shape(self):
        g = Graph()
        f = g.declare_subgraph("F", [(2, 2)], [(2, 2)])
        x = g.placeholder((1, 1), "x")
        with pytest.raises(BuildError, match="argument 0"):
            g.invoke(f, [x])

    def test_cond_branch_signatures_must_match(self):
        g = Graph()
        a = g.declare_subgraph("A", [(1, 1)], [(1, 1)])
        b = g.declare_subgraph("B", [(1, 1)], [(2, 1)])
        x = g.placeholder((1, 1), "x")
        with pytest.raises(BuildError, match="different signatures"):
            g.cond(x, a, b, [x])

    def test_cond_predicate_shape(self):
        g = Graph()
        a = g.declare_subgraph("A", [(1, 1)], [(1, 1)])
        b = g.declare_subgraph("B", [(1, 1)], [(1, 1)])
        p = g.placeholder((2, 1), "p")
        x = g.placeholder((1, 1), "x")
        with pytest.raises(BuildError, match="predicate must be 1x1"):
            g.cond(p, a, b, [x])

    def test_multi_output_invoke_yields_result_slots(self):
        # the call node holds output 0, and a result slot right after it
        # each further output
        g = Graph()
        f = g.declare_subgraph("F", [(1, 1)], [(2, 1), (3, 1), (4, 1)])
        fb = g.body(f)
        fb.set_outputs([fb.constant(Tensor.zeros(r, 1)) for r in (2, 3, 4)])
        g.define_subgraph(f, fb)
        x = g.placeholder((1, 1), "x")
        outs = g.invoke(f, [x])
        assert len(outs) == 3
        call = outs[0].id
        assert g.nodes[call].kind == "invoke"
        assert [h.id for h in outs] == [call, call + 1, call + 2]
        assert [g.shape_of(h) for h in outs] == [Shape(2, 1), Shape(3, 1), Shape(4, 1)]
        for j, h in enumerate(outs[1:], 1):
            node = g.nodes[h.id]
            assert (node.kind, node.payload, node.inputs) == ("result", j, [call])


def _x(g, rows, cols):
    """A fresh rows x cols placeholder of g."""
    return g.placeholder((rows, cols), f"x{len(g.nodes)}")


def _table(g):
    return g.constant(RowTable.zeros(3, 4))


def _define_with_foreign_body(g):
    other = Graph()
    body = other.body(other.declare_subgraph("F", *scalar_sig()))
    body.set_outputs(body.args)
    g.define_subgraph(g.declare_subgraph("F", *scalar_sig()), body)


def _run_slot(slot, kind):
    """Build and run a `kind` node at `slot` of a 3-slot table, raising the
    kernel's own error."""

    def build(g):
        ops = [_table(g), g.constant(Tensor.scalar(float(slot))), g.constant(Tensor.zeros(4, 1))]
        out = g.add_node(kind, ops[: 3 if kind == "table_set" else 2])
        try:
            run(g.finalize(), {}, [out])
        except ExecutionError as e:
            raise e.__cause__

    return build


class TestShapeInference:
    def test_matmul_mismatch_names_nodes(self):
        g = Graph()
        a = g.placeholder((2, 3), "a")
        b = g.placeholder((2, 3), "b")
        with pytest.raises(BuildError, match="incompatible shapes 2x3 and 2x3"):
            g.matmul(a, b)

    def test_binary_shape_mismatch(self):
        g = Graph()
        a = g.placeholder((2, 3), "a")
        b = g.placeholder((3, 2), "b")
        with pytest.raises(BuildError, match="mismatched shapes"):
            g.add(a, b)

    def test_concat_rows_requires_same_cols(self):
        g = Graph()
        a = g.placeholder((2, 3), "a")
        b = g.placeholder((2, 4), "b")
        with pytest.raises(BuildError, match="column mismatch"):
            g.concat_rows(a, b)

    def test_concat_rows_shape(self):
        g = Graph()
        a = g.placeholder((2, 3), "a")
        b = g.placeholder((4, 3), "b")
        assert g.shape_of(g.concat_rows(a, b)) == Shape(6, 3)

    def test_gather_row_index_must_be_scalar(self):
        g = Graph()
        t = g.placeholder((5, 4), "t")
        i = g.placeholder((2, 1), "i")
        with pytest.raises(BuildError, match="index must be 1x1"):
            g.gather_row(t, i)

    def test_softmax_logits_must_be_row(self):
        g = Graph()
        t = g.placeholder((2, 4), "t")
        i = g.placeholder((1, 1), "i")
        with pytest.raises(BuildError, match="logits must be 1xC"):
            g.softmax_xent(t, i)

    def test_slice_rows_bounds(self):
        g = Graph()
        t = g.placeholder((4, 2), "t")
        with pytest.raises(BuildError, match="out of range"):
            g.slice_rows(t, 2, 6)

    def test_transpose_shape(self):
        g = Graph()
        t = g.placeholder((4, 2), "t")
        assert g.shape_of(g.transpose(t)) == Shape(2, 4)

    def test_dynamic_rows_flow_through_concat(self):
        g = Graph()
        a = g.placeholder((None, 3), "a")
        b = g.placeholder((2, 3), "b")
        assert g.shape_of(g.concat_rows(a, b)) == Shape(None, 3)

    def test_matmul_rejects_dynamic_rows(self):
        g = Graph()
        a = g.placeholder((None, 3), "a")
        b = g.placeholder((3, 1), "b")
        with pytest.raises(BuildError, match="static row counts"):
            g.matmul(a, b)

    def test_dynamic_rows_satisfy_static_signature(self):
        g = Graph()
        f = g.declare_subgraph("F", [(None, 1)], [(1, 1)])
        fb = g.body(f)
        fb.set_outputs([fb.constant(Tensor.scalar(0.0))])
        g.define_subgraph(f, fb)
        x = g.placeholder((7, 1), "x")  # static arg into dynamic-row slot
        g.invoke(f, [x])
        g.finalize()

    def test_table_ops(self):
        g = Graph()
        t = g.constant(RowTable.zeros(3, 4))
        assert g.shape_of(t) == TableShape(3, 4)
        i = g.placeholder((1, 1), "i")
        got = g.table_get(t, i)
        assert g.shape_of(got) == Shape(4, 1)
        t2 = g.table_set(t, i, got)
        assert g.shape_of(t2) == TableShape(3, 4)
        v = g.placeholder((3, 1), "v")
        with pytest.raises(BuildError, match="row must be 4x1"):
            g.table_set(t, i, v)

    @pytest.mark.parametrize(
        "build, error, message",
        [
            pytest.param(
                lambda g: g.add_node("unary", (_x(g, 2, 2), _x(g, 2, 2)), payload="tanh"),
                BuildError, r"unary takes 1 input\(s\), got 2", id="arity",
            ),
            pytest.param(
                lambda g: g.matmul(_table(g), _x(g, 4, 1)),
                BuildError, "matmul needs tensor operands, got table", id="matmul-table",
            ),
            pytest.param(
                lambda g: g.binary(_x(g, 2, 2), _x(g, 2, 2), "scale"),
                BuildError, "scale factor must be 1x1, got 2x2", id="scale-factor",
            ),
            pytest.param(
                lambda g: g.binary(_x(g, 1, 3), _x(g, 1, 2), "softmax_xent_bwd"),
                BuildError, "label index must be 1x1, got 1x2", id="xent-bwd-label",
            ),
            pytest.param(
                lambda g: g.binary(_x(g, 2, 3), _x(g, 2, 2), "matmul_nt"),
                BuildError, "matmul_nt: 2x3 vs 2x2", id="matmul-nt",
            ),
            pytest.param(
                lambda g: g.binary(_x(g, 2, 3), _x(g, 3, 3), "matmul_tn"),
                BuildError, "matmul_tn: 2x3 vs 3x3", id="matmul-tn",
            ),
            pytest.param(
                lambda g: g.binary(_x(g, 2, 2), _x(g, 2, 2), "pow"),
                BuildError, "unknown binary function 'pow'", id="unknown-binary",
            ),
            pytest.param(
                lambda g: g.softmax_xent(_x(g, 1, 3), _x(g, 2, 1)),
                BuildError, "softmax_xent label must be 1x1, got 2x1", id="xent-label",
            ),
            pytest.param(
                lambda g: g.add_node("grad_accum", ()),
                BuildError, "grad_accum needs at least one input", id="accum-empty",
            ),
            pytest.param(
                lambda g: g.add_node("grad_accum", (_x(g, 2, 2), _x(g, 2, 3))),
                BuildError, "grad_accum operands disagree: 2x2 vs 2x3", id="accum-shapes",
            ),
            pytest.param(
                lambda g: g.table_get(_x(g, 2, 2), _x(g, 1, 1)),
                BuildError, "table_get needs a row table, got 2x2", id="get-non-table",
            ),
            pytest.param(
                lambda g: g.table_set(_x(g, 2, 2), _x(g, 1, 1), _x(g, 2, 1)),
                BuildError, "table_set needs a row table, got 2x2", id="set-non-table",
            ),
            pytest.param(
                lambda g: g.add_node("table_zero_slot", (_x(g, 2, 2), _x(g, 1, 1))),
                BuildError, "table_zero_slot needs a row table, got 2x2", id="zero-non-table",
            ),
            pytest.param(
                lambda g: g.add_node(
                    "table_adj_scatter", (_x(g, 3, 1), _x(g, 1, 1)), payload=TableShape(3, 4)
                ),
                BuildError, "table_adj_scatter column must be 4x1, got 3x1", id="adj-column",
            ),
            pytest.param(
                lambda g: g.add_node("fft", (_x(g, 2, 2),)),
                BuildError, "cannot infer shape for kind 'fft'", id="unknown-kind",
            ),
            pytest.param(
                lambda g: g.constant(np.zeros((2, 2))),
                BuildError, "constant of unsupported type ndarray", id="constant-type",
            ),
            pytest.param(
                lambda g: g.body(g.declare_subgraph("F", *scalar_sig())).finalize(),
                BuildError, "finalize the top-level graph, not a body", id="finalize-body",
            ),
            pytest.param(
                _define_with_foreign_body,
                BuildError, "body was not created from this graph family", id="foreign-body",
            ),
            pytest.param(
                _run_slot(3, "table_get"),
                IndexError, "slot 3 out of range for table of 3", id="get-slot",
            ),
            pytest.param(
                _run_slot(-1, "table_set"),
                IndexError, "slot -1 out of range for table of 3", id="set-slot",
            ),
        ],
    )
    def test_build_errors(self, build, error, message):
        with pytest.raises(error, match=message):
            build(Graph())


class TestCaptures:
    def test_direct_capture_from_top(self):
        g = Graph()
        w = g.parameter("W", (2, 2))
        f = g.declare_subgraph("F", [(2, 1)], [(2, 1)])
        fb = g.body(f)
        (x,) = fb.args
        fb.set_outputs([fb.matmul(w, x)])
        g.define_subgraph(f, fb)
        assert g.registry["F"].captures == [w]
        p = g.placeholder((2, 1), "p")
        (y,) = g.invoke(f, [p])
        fg = g.finalize()
        # the call site was rewired to pass W alongside the argument
        invoke_node = g.nodes[y.id]
        assert invoke_node.inputs == [p.id, w.id]
        assert "captures 1" in fg.dump()

    def test_transitive_capture_closure(self):
        g = Graph()
        w = g.parameter("W", (2, 2))
        outer = g.declare_subgraph("Outer", [(2, 1)], [(2, 1)])
        inner = g.declare_subgraph("Inner", [(2, 1)], [(2, 1)])
        ob = g.body(outer)
        ob.set_outputs(ob.invoke(inner, [ob.args[0]]))
        g.define_subgraph(outer, ob)
        ib = g.body(inner)
        ib.set_outputs([ib.matmul(w, ib.args[0])])
        g.define_subgraph(inner, ib)
        p = g.placeholder((2, 1), "p")
        g.invoke(outer, [p])
        g.finalize()
        # Outer never mentioned W, but must now carry it through to Inner.
        assert g.registry["Outer"].captures == [w]
        assert g.registry["Inner"].captures == [w]

    def test_capture_reuse_is_single_proxy(self):
        g = Graph()
        w = g.parameter("W", (2, 2))
        f = g.declare_subgraph("F", [(2, 1)], [(2, 1)])
        fb = g.body(f)
        (x,) = fb.args
        y = fb.matmul(w, x)
        z = fb.matmul(w, y)  # same outer node referenced twice
        fb.set_outputs([z])
        g.define_subgraph(f, fb)
        g.finalize()
        assert g.registry["F"].captures == [w]

    def test_capture_of_a_node_after_the_call_is_a_cycle(self):
        # A calls B, and B captures y = A.add(B's output, x): finalize wires y
        # into the call as an operand, so the call and y wait on each other.
        g = Graph()
        a = g.declare_subgraph("A", *scalar_sig())
        b = g.declare_subgraph("B", *scalar_sig())
        ab = g.body(a)
        (x,) = ab.args
        (out,) = ab.invoke(b, [x])
        y = ab.add(out, x)
        bb = ab.body(b)
        bb.set_outputs([bb.add(bb.args[0], y)])
        g.define_subgraph(b, bb)
        ab.set_outputs([y])
        g.define_subgraph(a, ab)
        g.invoke(a, [g.placeholder((1, 1), "p")])
        assert (out.id, y.id) == (1, 2)
        with pytest.raises(BuildError, match=r"node-level cycle through nodes \[1, 2\] in 'A'"):
            g.finalize()

    def test_unrelated_graph_rejected(self):
        g1 = Graph()
        g2 = Graph()
        x = g1.placeholder((1, 1), "x")
        with pytest.raises(BuildError, match="does not enclose"):
            g2.neg(x)

    def test_body_cannot_hold_placeholder_or_parameter(self):
        g = Graph()
        f = g.declare_subgraph("F", *scalar_sig())
        fb = g.body(f)
        with pytest.raises(BuildError, match="top-level"):
            fb.placeholder((1, 1), "x")
        with pytest.raises(BuildError, match="top-level"):
            fb.parameter("W", (1, 1))


class TestDump:
    def test_golden_dump(self):
        g, x, y = build_countdown()
        fg = g.finalize()
        expected = (
            "0: placeholder[x]() -> 1x1\n"
            "1: invoke[F](0) -> 1x1\n"
            "subgraph F: in [1x1] out [1x1] captures 0\n"
            "  0: input[0]() -> 1x1\n"
            "  1: cond[Step,Base](0, 0) -> 1x1\n"
            "  outputs: 1\n"
            "subgraph Base: in [1x1] out [1x1] captures 0\n"
            "  0: input[0]() -> 1x1\n"
            "  1: const[1x1]() -> 1x1\n"
            "  outputs: 1\n"
            "subgraph Step: in [1x1] out [1x1] captures 0\n"
            "  0: input[0]() -> 1x1\n"
            "  1: const[1x1]() -> 1x1\n"
            "  2: binary[add](0, 1) -> 1x1\n"
            "  3: cond[Step,Base](2, 2) -> 1x1\n"
            "  4: binary[hadamard](0, 3) -> 1x1\n"
            "  outputs: 4\n"
        )
        assert fg.dump() == expected

    def test_dump_deterministic(self):
        f1 = build_countdown()[0].finalize().dump()
        f2 = build_countdown()[0].finalize().dump()
        assert f1 == f2


def _section(fg, name: str) -> str:
    """The dump lines of SubGraph `name`'s body."""
    section = fg.dump().split(f"subgraph {name}:")[1].split("subgraph ")[0]
    return section.split("\n", 1)[1]


class TestInlineDispatchers:
    """finalize runs a dispatcher's cond in each body that invokes it: a
    dispatcher holds only compute nodes and one cond that yields its
    outputs, and captures only top-level nodes."""

    def test_mutual_recursion_steps_run_the_cond(self):
        # criterion 8's pair: Even/Odd dispatch to EvenStep/OddStep or Stop,
        # and each step invokes the other dispatcher
        g = Graph()
        sig = [(1, 1), (1, 1)], [(1, 1)]
        even, odd = g.declare_subgraph("Even", *sig), g.declare_subgraph("Odd", *sig)
        even_step = g.declare_subgraph("EvenStep", *sig)
        odd_step = g.declare_subgraph("OddStep", *sig)
        stop = g.declare_subgraph("Stop", *sig)
        b = g.body(stop)
        b.set_outputs([b.neg(b.neg(b.args[0]))])
        g.define_subgraph(stop, b)
        for ref, other, scale in ((even_step, odd, 0.5), (odd_step, even, 2.0)):
            b = g.body(ref)
            x, n = b.args
            x2 = b.hadamard(x, b.constant(Tensor.scalar(scale)))
            n2 = b.sub(n, b.constant(Tensor.ones(1, 1)))
            b.set_outputs(b.invoke(other, [x2, n2]))
            g.define_subgraph(ref, b)
        for ref, step in ((even, even_step), (odd, odd_step)):
            b = g.body(ref)
            x, n = b.args
            b.set_outputs(b.cond(n, step, stop, [x, n]))
            g.define_subgraph(ref, b)
        x0, n0 = g.placeholder((1, 1), "x0"), g.placeholder((1, 1), "n0")
        (out,) = g.invoke(even, [x0, n0])
        fg = g.finalize()
        assert "cond[OddStep,Stop]" in _section(fg, "EvenStep")
        assert "cond[EvenStep,Stop]" in _section(fg, "OddStep")
        for name in ("EvenStep", "OddStep"):
            assert "invoke[" not in _section(fg, name)
        feeds = {"x0": Tensor.scalar(3.0), "n0": Tensor.scalar(5.0)}
        res = run(fg, feeds, [out])
        assert res.values[0].item() == 3.0 * 0.5 * 2.0 * 0.5 * 2.0 * 0.5
        assert res.frames["Even"] == 1 and "Odd" not in res.frames
        assert res.frames["EvenStep"] == 3 and res.frames["OddStep"] == 2

    def test_dispatcher_capturing_an_enclosing_body_node_is_left_alone(self):
        # Pick dispatches on a node of Outer, the body both it and Caller are
        # nested in: it is no dispatcher, and Caller keeps its invoke
        g = Graph()
        outer, pick, caller, pos, neg = (
            g.declare_subgraph(name, *scalar_sig())
            for name in ("Outer", "Pick", "Caller", "Pos", "Neg")
        )
        for ref, f in ((pos, "square"), (neg, "neg")):
            b = g.body(ref)
            b.set_outputs([b.unary(b.args[0], f)])
            g.define_subgraph(ref, b)
        ob = g.body(outer)
        (x,) = ob.args
        y = ob.add(x, x)
        pb = ob.body(pick)
        pb.set_outputs(pb.cond(y, pos, neg, [pb.add(pb.args[0], y)]))
        g.define_subgraph(pick, pb)
        cb = ob.body(caller)
        cb.set_outputs(cb.invoke(pick, [cb.args[0]]))
        g.define_subgraph(caller, cb)
        ob.set_outputs(ob.invoke(caller, [x]))
        g.define_subgraph(outer, ob)
        xx = g.placeholder((1, 1), "x")
        (out,) = g.invoke(outer, [xx])
        fg = g.finalize()
        assert "invoke[Pick]" in _section(fg, "Caller")
        assert "invoke[Caller]" in _section(fg, "Outer")
        res = run(fg, {"x": Tensor.scalar(1.5)}, [out])
        assert res.values[0].item() == (1.5 + 3.0) ** 2
        assert res.frames["Pick"] == 1 and res.frames["Pos"] == 1
        res = run(fg, {"x": Tensor.scalar(0.1)}, [out])
        assert np.isclose(res.values[0].item(), -(0.1 + 0.2))
        assert res.frames["Neg"] == 1

    def test_dispatcher_enclosing_its_branches_is_left_alone(self):
        # Leaf and Internal are nested in D and Leaf captures y, a node D
        # computes from its input: each Leaf frame must read its own D
        # frame's y, so D is no target and Internal keeps its invoke
        g = Graph()
        sig = [(1, 1), (1, 1)], [(1, 1)]
        d = g.declare_subgraph("D", *sig)
        leaf, internal = g.declare_subgraph("Leaf", *sig), g.declare_subgraph("Internal", *sig)
        db = g.body(d)
        x, n = db.args
        y = db.unary(x, "square")
        lb = db.body(leaf)
        lb.set_outputs([lb.neg(y)])
        g.define_subgraph(leaf, lb)
        ib = db.body(internal)
        one = ib.constant(Tensor.ones(1, 1))
        ib.set_outputs(ib.invoke(d, [ib.add(ib.args[0], one), ib.sub(ib.args[1], one)]))
        g.define_subgraph(internal, ib)
        db.set_outputs(db.cond(n, internal, leaf, [x, n]))
        g.define_subgraph(d, db)
        x0, n0 = g.placeholder((1, 1), "x0"), g.placeholder((1, 1), "n0")
        (out,) = g.invoke(d, [x0, n0])
        fg = g.finalize()
        assert "invoke[D]" in _section(fg, "Internal")
        res = run(fg, {"x0": Tensor.scalar(1.5), "n0": Tensor.scalar(2.0)}, [out])
        assert res.values[0].item() == -(3.5**2)
        assert res.frames["D"] == 3 and res.frames["Internal"] == 2 and res.frames["Leaf"] == 1

    @pytest.mark.parametrize("name", ["Loop", "Forever"])
    def test_self_invoking_bodies_are_no_dispatchers(self, name):
        # criterion 7's body invokes itself: it holds no cond, keeps its
        # invoke, and still runs into the depth guard
        g = Graph()
        f = g.declare_subgraph(name, *scalar_sig())
        fb = g.body(f)
        fb.set_outputs(fb.invoke(f, [fb.args[0]]))
        g.define_subgraph(f, fb)
        x = g.placeholder((1, 1), "x")
        (y,) = g.invoke(f, [x])
        fg = g.finalize()
        assert _section(fg, name) == (
            "  0: input[0]() -> 1x1\n"
            f"  1: invoke[{name}](0) -> 1x1\n"
            "  outputs: 1\n"
        )
        with pytest.raises(ExecutionError, match="recursion depth 513 exceeds limit 512"):
            run(fg, {"x": Tensor.scalar(1.0)}, [y], RunOptions())
