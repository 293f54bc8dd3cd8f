"""Dense 2-D float64 tensors: the values a caller hands to a run and gets back.

A `Tensor` is row-major, 64-bit and exactly two-dimensional (vectors are
single-row or single-column matrices), and its backing array is frozen, so
an in-place mutation is an error rather than a silent bug. Feeds, parameters,
constants and fetched values are tensors. Inside a run a dense value is the
frozen array itself (see `executor.py`): the executor unwraps feeds and
parameters on the way in and wraps what it fetches on the way out. The ops
are the compiled kernels of `kernels.py`; this module keeps the helpers they
share, which take arrays (the softmax cross-entropy, and reading an index
out of a 1x1 array), and parameter initialisation.
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


def softmax_cross_entropy(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Loss -log softmax(logits)[label] of a 1xC array, and its gradient
    w.r.t. the logits as a new array.

    Stabilized by max-subtraction, so huge logits cannot overflow.
    """
    if logits.shape[0] != 1:
        raise DimensionError(f"logits must be 1xC, got {logits.shape[0]}x{logits.shape[1]}")
    c = logits.shape[1]
    if not 0 <= label < c:
        raise IndexError(f"label {label} out of range for {c} classes")
    z = logits[0] - logits[0].max()
    ez = np.exp(z)
    p = ez / ez.sum()
    # -log p[label] computed from the shifted logits to avoid log(0) underflow
    loss = float(np.log(ez.sum()) - z[label])
    p[label] -= 1.0
    return loss, p.reshape(1, c)


def random_init(shape: Shape | tuple[int, int], scale: float, rng: np.random.Generator) -> Tensor:
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    rows, cols = shape
    return Tensor._wrap(rng.uniform(-scale, scale, size=(rows, cols)))


def index_of(a: np.ndarray) -> int:
    """Read a scalar index out of a 1x1 array.

    Indices travel as ordinary values; at every op boundary that consumes
    one, the value must sit within 1e-9 of an integer.
    """
    if a.shape != (1, 1):
        raise DimensionError(f"an index is a 1x1 tensor, got shape {a.shape}")
    v = float(a[0, 0])
    r = round(v)
    if abs(v - r) >= 1e-9:
        raise ValueError(f"expected an integral index, got {v!r}")
    return int(r)
