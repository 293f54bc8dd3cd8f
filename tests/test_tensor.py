"""Kernel-level checks: frozen hand values, stdlib-math oracles, purity.

The op checks run the compiled per-frame kernels of `kernels.py`, the ones
the executor runs, on one-node graphs over constant operands.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdg import BuildError, Graph, kernels, tensor
from rdg.tensor import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


def kernel(kind, *operands, payload=None):
    """The compiled kernel of one `kind` node applied to `operands`, as a
    tensor.

    Building the node checks the operand shapes, as it does for any graph;
    a kernel's own errors propagate unwrapped. Kernels read and return the
    read-only arrays that frames hold, as a run's frames do.
    """
    g = Graph()
    node = g.add_node(kind, [g.constant(x) for x in operands], payload=payload)
    fns, _, _ = kernels.compile_body(g)
    out = fns[node.id]([x.a for x in operands])
    assert not out.flags.writeable
    return Tensor._wrap(out)


def matmul(a, b):
    return kernel("matmul", a, b)


def unary(x, f):
    return kernel("unary", x, payload=f)


def binary(a, b, f):
    return kernel("binary", a, b, payload=f)


def concat_rows(a, b):
    return kernel("concat_rows", a, b)


def gather_row(table, i):
    return kernel("gather_row", table, Tensor.scalar(float(i)))


def transpose(x):
    return kernel("transpose", x)


class TestMatmul:
    def test_identity_left_and_right(self):
        m = tensor.random_init((2, 2), 1.0, rng(3))
        i2 = Tensor.eye(2)
        assert matmul(i2, m) == m
        assert matmul(m, i2) == m

    def test_hand_computed_product(self):
        a = Tensor.from_rows([[1, 2], [3, 4]])
        b = Tensor.from_rows([[5], [6]])
        # dot products computed by hand: 1*5+2*6=17, 3*5+4*6=39
        assert matmul(a, b) == Tensor.from_rows([[17], [39]])

    def test_zeros_annihilate(self):
        out = matmul(Tensor.zeros(3, 4), Tensor.ones(4, 2))
        assert out == Tensor.zeros(3, 2)

    def test_mismatch_names_both_shapes(self):
        with pytest.raises(BuildError) as e:
            matmul(Tensor.zeros(2, 3), Tensor.zeros(4, 2))
        assert "2x3" in str(e.value) and "4x2" in str(e.value)


class TestUnary:
    def test_tanh_zero(self):
        assert unary(Tensor.zeros(2, 2), "tanh") == Tensor.zeros(2, 2)

    def test_sigmoid_zero(self):
        out = unary(Tensor.scalar(0.0), "sigmoid")
        assert out.item() == 0.5

    def test_tanh_against_stdlib(self):
        # independent scalar oracle: math.tanh
        out = unary(Tensor.scalar(0.5), "tanh")
        assert abs(out.item() - math.tanh(0.5)) < 1e-15
        assert abs(out.item() - 0.46211715726000974) < 1e-15

    def test_sigmoid_against_stdlib(self):
        out = unary(Tensor.scalar(-1.25), "sigmoid")
        assert abs(out.item() - 1.0 / (1.0 + math.exp(1.25))) < 1e-15

    def test_neg_square(self):
        x = Tensor.from_rows([[2.0, -3.0]])
        assert unary(x, "neg") == Tensor.from_rows([[-2.0, 3.0]])
        assert unary(x, "square") == Tensor.from_rows([[4.0, 9.0]])

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            unary(Tensor.zeros(1, 1), "exp")


class TestBinary:
    def test_identities(self):
        m = tensor.random_init((3, 2), 1.0, rng(5))
        assert binary(m, Tensor.zeros(3, 2), "add") == m
        assert binary(m, Tensor.ones(3, 2), "hadamard") == m
        assert binary(m, m, "sub") == Tensor.zeros(3, 2)

    def test_shape_mismatch(self):
        with pytest.raises(BuildError):
            binary(Tensor.zeros(2, 2), Tensor.zeros(2, 3), "add")


class TestConcatRows:
    def test_rows_stack_in_order(self):
        a = Tensor.from_rows([[1.0, 2.0]])
        b = Tensor.from_rows([[3.0, 4.0]])
        assert concat_rows(a, b) == Tensor.from_rows([[1, 2], [3, 4]])

    def test_round_trip_split(self):
        a = tensor.random_init((2, 3), 1.0, rng(7))
        b = tensor.random_init((1, 3), 1.0, rng(8))
        c = concat_rows(a, b)
        assert Tensor.from_array(c.a[: a.rows]) == a
        assert Tensor.from_array(c.a[a.rows :]) == b

    def test_zeros_over_ones(self):
        c = concat_rows(Tensor.zeros(2, 3), Tensor.ones(1, 3))
        assert c.tolist() == [[0, 0, 0], [0, 0, 0], [1, 1, 1]]

    def test_column_mismatch(self):
        with pytest.raises(BuildError):
            concat_rows(Tensor.zeros(1, 2), Tensor.zeros(1, 3))


class TestSoftmaxCrossEntropy:
    def test_uniform_two_classes(self):
        loss, grad = tensor.softmax_cross_entropy(np.array([[3.0, 3.0]]), 0)
        assert abs(loss - math.log(2)) < 1e-15
        assert np.allclose(grad, [[-0.5, 0.5]], atol=1e-15)

    def test_huge_logit_is_stable(self):
        loss, grad = tensor.softmax_cross_entropy(np.array([[1000.0, 0.0]]), 0)
        assert math.isfinite(loss) and loss < 1e-12
        assert np.isfinite(grad).all()

    def test_label_out_of_range(self):
        with pytest.raises(IndexError):
            tensor.softmax_cross_entropy(np.zeros((1, 2)), 2)
        with pytest.raises(IndexError):
            tensor.softmax_cross_entropy(np.zeros((1, 2)), -1)

    @pytest.mark.parametrize("seed", range(10))
    def test_gradient_matches_central_differences(self, seed):
        r = rng(100 + seed)
        c = int(r.integers(2, 11))
        logits = tensor.random_init((1, c), 3.0, r).a
        label = int(r.integers(0, c))
        _, grad = tensor.softmax_cross_entropy(logits, label)
        h = 1e-6
        for j in range(c):
            up = logits.copy()
            dn = logits.copy()
            up[0, j] += h
            dn[0, j] -= h
            lp, _ = tensor.softmax_cross_entropy(up, label)
            lm, _ = tensor.softmax_cross_entropy(dn, label)
            fd = (lp - lm) / (2 * h)
            assert abs(fd - grad[0, j]) <= 1e-6 * max(1.0, abs(fd))


class TestGatherRow:
    def test_identity_row(self):
        assert gather_row(Tensor.eye(3), 1) == Tensor.from_rows([[0, 1, 0]])

    def test_purity(self):
        t = tensor.random_init((4, 3), 1.0, rng(9))
        before = t.a.copy()
        g1 = gather_row(t, 2)
        g2 = gather_row(t, 2)
        assert g1 == g2
        assert np.array_equal(t.a, before)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            gather_row(Tensor.eye(3), 3)
        with pytest.raises(IndexError):
            gather_row(Tensor.eye(3), -1)


class TestRandomInit:
    def test_deterministic_per_seed(self):
        a = tensor.random_init((5, 7), 0.5, rng(42))
        b = tensor.random_init((5, 7), 0.5, rng(42))
        assert a == b

    def test_range(self):
        t = tensor.random_init((100, 10), 0.01, rng(1))
        assert float(np.abs(t.a).max()) <= 0.01

    def test_mean_within_three_sigma(self):
        # mean of n uniform[-s, s] draws has std s/sqrt(3n)
        n = 100_000
        s = 0.01
        t = tensor.random_init((n, 1), s, rng(2))
        assert abs(float(t.a.mean())) < 3 * s / math.sqrt(3 * n)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            tensor.random_init((2, 2), 0.0, rng(0))


class TestIndexValue:
    def test_exact_and_near_integers(self):
        assert tensor.index_of(np.array([[4.0]])) == 4
        assert tensor.index_of(np.array([[4.0 + 1e-12]])) == 4

    def test_rejects_non_integral(self):
        with pytest.raises(ValueError):
            tensor.index_of(np.array([[4.5]]))
        with pytest.raises(ValueError):
            tensor.index_of(np.array([[4.0 + 1e-8]]))


@st.composite
def small_matrix(draw, max_dim=8):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    vals = draw(
        st.lists(
            st.floats(-10, 10, allow_nan=False, allow_infinity=False),
            min_size=r * c,
            max_size=r * c,
        )
    )
    return Tensor(r, c, vals)


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 8), st.integers(1, 8))
    def test_transpose_of_product(self, seed, n, k, m):
        r = rng(seed)
        a = tensor.random_init((n, k), 2.0, r)
        b = tensor.random_init((k, m), 2.0, r)
        lhs = transpose(matmul(a, b))
        rhs = matmul(transpose(b), transpose(a))
        assert np.allclose(lhs.a, rhs.a, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(small_matrix())
    def test_unary_outputs_finite_and_inputs_frozen(self, x):
        for f in ("tanh", "sigmoid", "neg", "square"):
            out = unary(x, f)
            assert np.isfinite(out.a).all()
        with pytest.raises(ValueError):
            x.a[0, 0] = 99.0  # backing array is read-only

    @settings(max_examples=40, deadline=None)
    @given(small_matrix(), st.integers(0, 2**31))
    def test_binary_pure_and_finite(self, x, seed):
        y = tensor.random_init((x.rows, x.cols), 5.0, rng(seed))
        xa = x.a.copy()
        for f in ("add", "sub", "hadamard"):
            out1 = binary(x, y, f)
            out2 = binary(x, y, f)
            assert out1 == out2
            assert np.isfinite(out1.a).all()
        assert np.array_equal(x.a, xa)

    def test_tensor_mutation_blocked(self):
        t = Tensor.zeros(2, 2)
        with pytest.raises(AttributeError):
            t.a = np.ones((2, 2))
        with pytest.raises(ValueError):
            t.data[0] = 1.0
