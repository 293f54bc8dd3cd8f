"""The benchmark's workloads: inputs made from a seed, set-up, and one
operation each for the engine and for the oracle.

An operation is one `trainer.train` call over one batch, one `evaluate`
call over one batch, or one request (`executor.run` on one review). Each
workload holds a fixed list of operations, `ops`; a round of the benchmark
runs every one of them once. Imported after `rdg`, so that its BLAS thread
settings are in place before numpy loads.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from rdg import NodeHandle, RunOptions, Tensor, differentiate, run, run_batch
from rdg.data import (
    Vocab,
    generate_synthetic,
    load_corpus,
    synthetic_vocab,
    write_corpus,
)
from rdg.models import ModelConfig, build_recursive, init_params, make_feeds
from rdg.oracle import oracle_forward, oracle_forward_backward
from rdg.trainer import TrainConfig, evaluate, train

import checks

REVIEWS = Path(__file__).resolve().parent.parent / "src" / "rdg" / "corpora" / "mini_reviews.txt"
WORDS = 20  # synthetic words t0..t19; ids 1..20, 0 is the unknown word
LR = 0.05


class Workload:
    """One workload. Subclasses set the attributes below, as class
    attributes or in their constructor, and implement the methods."""

    name: str
    call: str  # the rdg function one operation calls, which names its span
    threads: int
    cfg: ModelConfig
    corpus_path: Path
    ops: list
    params: dict

    def load(self) -> list:
        """Parse the workload's corpus file (the data layer)."""
        return load_corpus(self.corpus_path, synthetic_vocab(WORDS))

    def setup(self) -> None:
        """From nothing to ready to run; timed as `setup_s`."""
        raise NotImplementedError

    def engine(self, op):
        raise NotImplementedError

    def oracle(self, op):
        raise NotImplementedError

    def check(self, op, out, ref) -> list[str]:
        raise NotImplementedError

    def executor_call(self) -> tuple:
        """(graph, fetches) of the `run_batch` call the operation makes."""
        return self.model.graph, [self.model.loss, self.model.prediction]

    def step_grads(self) -> list[dict]:
        """Per-instance gradients of one training step, of the kind `train`
        sums, at `params`: here on the first 25 instances.

        From the oracle here: the engine's gradient graph holds every
        frame's dense parameter gradient until the run ends, which for a
        d=256 TreeLSTM comes to about 315 MB per 64-leaf tree.
        """
        trees = [t for op in self.ops for t in op][:25]
        return [
            {k: Tensor.from_array(v) for k, v in
             oracle_forward_backward(self.cfg.kind, self.params, t)[1].items()}
            for t in trees
        ]


def _synthetic(seed: int, shape: str, sizes: list[int], path: Path) -> list:
    rng = np.random.default_rng(seed)
    trees = [generate_synthetic(shape, n, WORDS, 2, rng) for n in sizes]
    write_corpus(path, trees, synthetic_vocab(WORDS))
    return trees


def _batches(trees: list, size: int) -> list:
    return [trees[i : i + size] for i in range(0, len(trees), size)]


class Train(Workload):
    """AdaGrad training, one `train` call per batch, from restored parameters."""

    call = "trainer.train"
    threads = 1

    def __init__(self, name, kind, shape, sizes, batch, seed, workdir: Path):
        self.name = name
        self.cfg = ModelConfig(kind, d=16, vocab=WORDS + 1, classes=2)
        self.corpus_path = workdir / f"{name}-seed{seed}.txt"
        self.ops = _batches(_synthetic(seed, shape, sizes, self.corpus_path), batch)
        self.params = init_params(self.cfg, seed=seed)

    def setup(self):
        self.model = build_recursive(self.cfg)
        m = self.model
        self.grad = differentiate(m.graph, m.loss, list(m.params.values()))

    def engine(self, op):
        params = dict(self.params)  # train replaces entries, never mutates them
        cfg = TrainConfig(epochs=1, batch_size=len(op), lr=LR, threads=self.threads)
        (m,) = train(self.model, params, op, cfg, grad=self.grad)
        return m.loss_mean, params

    def oracle(self, op):
        return [oracle_forward_backward(self.cfg.kind, self.params, t) for t in op]

    def check(self, op, out, ref):
        return checks.check_train(out[0], out[1], self.params, ref, LR)

    def executor_call(self):
        g, gm = self.grad
        # The forward prediction keeps its node id in the gradient graph;
        # `train` fetches it next to the loss and the gradients.
        pred = NodeHandle(gm.loss.graph, self.model.prediction.id)
        return g, [gm.loss, pred] + [gm.param_grads[n] for n in gm.param_order]

    def step_grads(self):
        """From the engine, on the first operation's batch."""
        g, gm = self.grad
        fetches = [gm.param_grads[n] for n in gm.param_order]
        feeds = [make_feeds(self.model, t) for t in self.ops[0]]
        results = run_batch(g, feeds, fetches, RunOptions(threads=self.threads), self.params)
        return [dict(zip(gm.param_order, r.values)) for r in results]


class Reviews(Workload):
    """Closed loop, one client: one `run` per review of the bundled corpus."""

    name = "infer-reviews"
    call = "executor.run"
    threads = 1
    corpus_path = REVIEWS

    def __init__(self, seed, workdir: Path):
        self.setup()
        order = np.random.default_rng(seed).permutation(len(self.corpus))
        self.ops = [[self.corpus[i]] for i in order]
        self.params = init_params(self.cfg, seed=seed)
        self.opts = RunOptions(threads=self.threads)

    def load(self):
        self.vocab = Vocab()
        return load_corpus(self.corpus_path, self.vocab, grow=True)

    def setup(self):
        self.corpus = self.load()
        classes = 1 + max(t.labels[t.root] for t in self.corpus)
        self.cfg = ModelConfig("treelstm", d=16, vocab=self.vocab.size, classes=classes)
        self.model = build_recursive(self.cfg)

    def engine(self, op):
        (tree,) = op
        m = self.model
        res = run(m.graph, make_feeds(m, tree), [m.loss, m.prediction], self.opts, self.params)
        return res.values[0].item(), int(np.argmax(res.values[1].a))

    def oracle(self, op):
        return oracle_forward(self.cfg.kind, self.params, op[0])

    def check(self, op, out, ref):
        return checks.check_request(out[0], out[1], ref)


class Wide(Workload):
    """`evaluate` over batches of wide-state trees, at 2 threads."""

    name = "infer-lstm-wide"
    call = "trainer.evaluate"
    threads = 2
    batch = 25

    def __init__(self, seed, workdir: Path):
        self.cfg = ModelConfig("treelstm", d=256, vocab=WORDS + 1, classes=2)
        self.corpus_path = workdir / f"{self.name}-seed{seed}.txt"
        _synthetic(seed, "balanced", [64] * self.batch, self.corpus_path)
        self.setup()
        self.ops = _batches(self.corpus, self.batch)
        self.params = init_params(self.cfg, seed=seed)

    def setup(self):
        self.corpus = self.load()
        self.model = build_recursive(self.cfg)

    def engine(self, op):
        m = evaluate(self.model, self.params, op, threads=self.threads, batch_size=len(op))
        return m.loss_mean, m.accuracy

    def oracle(self, op):
        return [oracle_forward(self.cfg.kind, self.params, t) for t in op]

    def check(self, op, out, ref):
        return checks.check_evaluate(out[0], out[1], ref, [t.labels[t.root] for t in op])


def _linear_sizes(seed: int) -> list[int]:
    """200 to 249 leaves in steps of 7, in an order drawn from the seed.

    Every seed gets the same sizes, so seeds differ in order, words and
    parameters only. Linear trees of 257 leaves or more exceed the
    executor's depth guard.
    """
    return [int(n) for n in np.random.default_rng([seed, 1]).permutation(range(200, 250, 7))]


WORKLOADS = {
    "train-lstm-balanced": lambda seed, wd: Train(
        "train-lstm-balanced", "treelstm", "balanced", [64] * 25, 25, seed, wd
    ),
    "train-rnn-linear": lambda seed, wd: Train(
        "train-rnn-linear", "treernn", "linear", _linear_sizes(seed), 1, seed, wd
    ),
    "infer-reviews": Reviews,
    "infer-lstm-wide": Wide,
}
