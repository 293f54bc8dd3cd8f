"""Recursive dataflow graphs.

A small dataflow-graph execution engine whose unit of reuse is the SubGraph:
a named, signed graph fragment that may invoke itself (or a mutually declared
peer), giving first-class recursion. Conditionals take SubGraph thunks, so
only the selected branch ever executes; that laziness is what lets recursive
model definitions terminate. A wavefront scheduler runs the frames that
reach the same node in one round as one stacked kernel, so independent
subtrees share their work, and reverse-mode differentiation mirrors every
recursive invocation with a gradient invocation at the same position.

Ships with three recursive tree models (TreeRNN, RNTN, TreeLSTM), an
unrolled sequential baseline for each, a labeled-binary-tree data pipeline,
an AdaGrad trainer, and a benchmark CLI.
"""

import os as _os

# Worker threads already overlap BLAS calls; nested BLAS threading would
# oversubscribe the pool.
_os.environ.setdefault("OMP_NUM_THREADS", "1")
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .tensor import Tensor, Shape, DimensionError  # noqa: E402
from .graph import (  # noqa: E402
    BuildError,
    FinalizedGraph,
    Graph,
    NodeHandle,
    RowGrads,
    RowTable,
    SubGraphRef,
    TableShape,
)
from .executor import (  # noqa: E402
    ExecutionError,
    RunOptions,
    RunResult,
    run,
    run_batch,
    run_training_step,
)
from .autodiff import GradientMap, differentiate  # noqa: E402

__all__ = [
    "Tensor",
    "Shape",
    "DimensionError",
    "Graph",
    "BuildError",
    "FinalizedGraph",
    "NodeHandle",
    "SubGraphRef",
    "TableShape",
    "RowTable",
    "RowGrads",
    "ExecutionError",
    "RunOptions",
    "RunResult",
    "run",
    "run_batch",
    "run_training_step",
    "differentiate",
    "GradientMap",
]
