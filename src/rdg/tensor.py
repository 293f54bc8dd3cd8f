"""Dense 2-D float64 tensors.

Every value that flows through a graph edge is one of these: row-major,
64-bit, exactly two dimensions (vectors are single-row or single-column
matrices). Backing arrays are frozen, so an in-place mutation of an input is
an error rather than a silent bug. The ops over them are the compiled
kernels of `kernels.py`; this module keeps the helpers they share: the
softmax cross-entropy, reading an index out of a tensor, and initialisation.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np


class DimensionError(ValueError):
    """Shapes of the operands do not line up for the requested operation."""


class Shape(NamedTuple):
    rows: int | None  # None: row count varies per run (feed tables)
    cols: int

    def __str__(self) -> str:
        r = "?" if self.rows is None else str(self.rows)
        return f"{r}x{self.cols}"


class Tensor:
    """Immutable dense matrix of float64."""

    __slots__ = ("a",)

    def __init__(self, rows: int, cols: int, data: Iterable[float]):
        a = np.asarray(list(data), dtype=np.float64).reshape(rows, cols)
        a.flags.writeable = False
        object.__setattr__(self, "a", a)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @classmethod
    def _wrap(cls, a: np.ndarray) -> "Tensor":
        t = object.__new__(cls)
        if a.dtype != np.float64:
            a = a.astype(np.float64)
        if a.ndim != 2:
            raise DimensionError(f"tensors are 2-D, got array of shape {a.shape}")
        if a.flags.writeable:
            a = a.copy() if not a.flags.owndata or a.base is not None else a
            a.flags.writeable = False
        object.__setattr__(t, "a", a)
        return t

    @classmethod
    def _slices(cls, stacked: np.ndarray) -> list["Tensor"]:
        """One tensor per slice of a read-only k x r x c float64 array.

        The tensors are views of the stack: nothing is copied.
        """
        if stacked.dtype != np.float64 or stacked.ndim != 3 or stacked.flags.writeable:
            raise ValueError(f"need a read-only 3-D float64 stack, got {stacked.dtype} "
                             f"{stacked.shape}")
        new, put = object.__new__, object.__setattr__
        out = []
        for a in stacked:
            t = new(cls)
            put(t, "a", a)
            out.append(t)
        return out

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[float]]) -> "Tensor":
        a = np.asarray([list(r) for r in rows], dtype=np.float64)
        if a.ndim != 2:
            raise DimensionError("from_rows needs a rectangular list of rows")
        return cls._wrap(a)

    @classmethod
    def from_array(cls, a: np.ndarray) -> "Tensor":
        return cls._wrap(np.array(a, dtype=np.float64, copy=True))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Tensor":
        return cls._wrap(np.zeros((rows, cols)))

    @classmethod
    def ones(cls, rows: int, cols: int) -> "Tensor":
        return cls._wrap(np.ones((rows, cols)))

    @classmethod
    def eye(cls, n: int) -> "Tensor":
        return cls._wrap(np.eye(n))

    @classmethod
    def scalar(cls, v: float) -> "Tensor":
        return cls._wrap(np.array([[float(v)]]))

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> Shape:
        return Shape(self.a.shape[0], self.a.shape[1])

    @property
    def data(self) -> np.ndarray:
        """Flat row-major view of the entries (read-only)."""
        return self.a.reshape(-1)

    def item(self) -> float:
        if self.a.shape != (1, 1):
            raise DimensionError(f"item() needs a 1x1 tensor, got {self.shape}")
        return float(self.a[0, 0])

    def tolist(self) -> list[list[float]]:
        return self.a.tolist()

    def allclose(self, other: "Tensor", atol: float = 0.0, rtol: float = 0.0) -> bool:
        return self.a.shape == other.a.shape and np.allclose(
            self.a, other.a, atol=atol, rtol=rtol
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor)
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self):
        raise TypeError("Tensor is not hashable")

    def __repr__(self) -> str:
        return f"Tensor({self.rows}x{self.cols})"


def softmax_cross_entropy(logits: Tensor, label: int) -> tuple[float, Tensor]:
    """Loss -log softmax(logits)[label] and its gradient w.r.t. the logits.

    Stabilized by max-subtraction, so huge logits cannot overflow.
    """
    if logits.rows != 1:
        raise DimensionError(f"logits must be 1xC, got {logits.shape}")
    c = logits.cols
    if not 0 <= label < c:
        raise IndexError(f"label {label} out of range for {c} classes")
    z = logits.a[0] - logits.a[0].max()
    ez = np.exp(z)
    p = ez / ez.sum()
    # -log p[label] computed from the shifted logits to avoid log(0) underflow
    loss = float(np.log(ez.sum()) - z[label])
    grad = p.copy()
    grad[label] -= 1.0
    return loss, Tensor._wrap(grad.reshape(1, c))


def random_init(shape: Shape | tuple[int, int], scale: float, rng: np.random.Generator) -> Tensor:
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    rows, cols = shape
    return Tensor._wrap(rng.uniform(-scale, scale, size=(rows, cols)))


def index_value(t: Tensor) -> int:
    """Read a scalar index out of a 1x1 tensor.

    Indices travel as ordinary tensors; at every op boundary that consumes
    one, the value must sit within 1e-9 of an integer.
    """
    v = t.item()
    r = round(v)
    if abs(v - r) >= 1e-9:
        raise ValueError(f"expected an integral index, got {v!r}")
    return int(r)
