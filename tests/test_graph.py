"""Graph construction: subgraphs, captures, laziness wiring, build errors."""

import pytest

from rdg import BuildError, Graph, Tensor
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
            "  3: invoke[F](2) -> 1x1\n"
            "  4: binary[hadamard](0, 3) -> 1x1\n"
            "  outputs: 4\n"
        )
        assert fg.dump() == expected

    def test_dump_deterministic(self):
        f1 = build_countdown()[0].finalize().dump()
        f2 = build_countdown()[0].finalize().dump()
        assert f1 == f2
