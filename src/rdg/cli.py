"""Command-line surface: train, infer, bench, gendata.

Exit codes: 0 success, 1 runtime failure (divergence, bad checkpoint, IO),
2 usage error (argparse validation). Every command is deterministic given
--seed. --threads is accepted and must be >= 1; the engine computes every
kernel on the calling thread, so neither results nor speed depend on it.

Setting RDG_TRACE=1 makes `bench` write a per-node execution trace CSV
(timestamp_us, worker_id, key, node_id, op_kind) next to the report.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .data import CorpusError, Vocab, generate_dataset, load_corpus, synthetic_vocab, write_corpus
from .executor import ExecutionError, RunOptions, run
from .models import (
    MODEL_KINDS,
    CapacityError,
    ModelConfig,
    build_model,
    build_recursive,
    init_params,
    load_checkpoint,
    make_feeds,
    save_checkpoint,
)
from .trainer import (
    TrainConfig,
    TrainingDiverged,
    infer,
    train,
    write_metrics_csv,
)

log = logging.getLogger("rdg.cli")

BUNDLED_CORPUS = Path(__file__).parent / "corpora" / "mini_reviews.txt"


def cmd_train(args) -> int:
    vocab = Vocab()
    corpus = load_corpus(args.data, vocab, grow=True)
    if not corpus:
        log.error("corpus %s is empty", args.data)
        return 1
    val = load_corpus(args.val, vocab, grow=True) if args.val else None
    classes = max(max(t.labels) for t in corpus) + 1
    capacity = args.capacity or max(t.n_nodes for t in corpus + (val or []))
    model = build_model(
        ModelConfig(args.model, d=args.hidden, vocab=vocab.size, classes=classes,
                    per_node_loss=args.per_node_loss),
        args.mode, capacity,
    )
    params = init_params(model.config, seed=args.seed, scale=args.init_scale)
    cfg = TrainConfig(
        epochs=args.epochs, batch_size=args.batch, lr=args.lr, l2=args.l2,
        threads=args.threads, seed=args.seed,
    )
    log.info(
        "training %s (%s mode, d=%d, %d classes) on %d instance(s)",
        args.model, args.mode, args.hidden, classes, len(corpus),
    )
    try:
        history = train(model, params, corpus, cfg, val_corpus=val,
                        metrics_path=args.metrics)
    except TrainingDiverged as e:
        log.error("%s", e)
        return 1
    if args.out:
        save_checkpoint(args.out, model.config, params, vocab)
        log.info("checkpoint written to %s", args.out)
    if args.metrics:
        log.info("metrics written to %s", args.metrics)
    if history:
        last = history[-1]
        print(
            f"final epoch {last.epoch}: loss {last.loss_mean:.6f}, "
            f"accuracy {last.accuracy:.4f}, {last.instances_per_s:.1f} instances/s"
        )
    return 0


def cmd_infer(args) -> int:
    try:
        cfg, params, vocab = load_checkpoint(args.ckpt)
    except (ValueError, KeyError, OSError) as e:
        log.error("cannot load checkpoint %s: %s", args.ckpt, e)
        return 1
    if vocab is None:
        log.error("checkpoint %s carries no vocabulary; cannot map tokens", args.ckpt)
        return 1
    try:
        corpus = load_corpus(args.data, vocab, grow=False)
    except CorpusError as e:
        log.error("%s", e)
        return 1
    if not corpus:
        log.error("corpus %s is empty", args.data)
        return 1
    model = build_model(cfg, args.mode, max(t.n_nodes for t in corpus))
    try:
        preds, metrics = infer(model, params, corpus, threads=args.threads)
    except (ExecutionError, CapacityError) as e:
        log.error("%s", e)
        return 1
    for i, (tree, pred) in enumerate(zip(corpus, preds)):
        print(f"{i}\tpredicted={pred}\tlabel={tree.labels[tree.root]}")
    print(
        f"accuracy {metrics.accuracy:.4f} over {len(corpus)} instance(s), "
        f"{metrics.instances_per_s:.1f} instances/s, mean loss {metrics.loss_mean:.6f}"
    )
    return 0


def cmd_bench(args) -> int:
    modes = tuple(args.mode) if args.mode else ("recursive",)
    common = dict(kind=args.model, modes=modes, d=args.hidden,
                  warmup=args.warmup, runs=args.runs, seed=args.seed)
    if args.suite == "balancedness":
        rows = bench_mod.bench_balancedness(
            threads=args.threads, leaves=args.leaves or 64, **common
        )
    else:
        rows = bench_mod.bench_scaling(threads=args.threads, **common)
    bench_mod.write_bench_csv(args.out, rows)
    log.info("%d bench row(s) written to %s", len(rows), args.out)
    for r in rows:
        print(
            f"{r.suite} {r.model}/{r.mode} shape={r.shape} batch={r.batch} "
            f"threads={r.threads}: median {r.median_ms:.2f} ms, "
            f"p95 {r.p95_ms:.2f} ms, {r.instances_per_s:.1f} inst/s"
        )
    if args.suite == "scaling":
        for mode, ratio in sorted(bench_mod.scaling_ratios(rows).items()):
            print(f"T(max)/T(min) for {mode}: {ratio:.2f}x")
    if os.environ.get("RDG_TRACE") == "1":
        trace_path = Path(args.out).with_suffix(".trace.csv")
        rng = np.random.default_rng(args.seed)
        from .data import generate_synthetic

        tree = generate_synthetic("balanced", 8, 20, 2, rng)
        cfg = ModelConfig(args.model, d=args.hidden, vocab=22, classes=2)
        model = build_recursive(cfg)
        res = run(
            model.graph, make_feeds(model, tree), [model.loss],
            RunOptions(threads=args.threads, trace=True),
            init_params(cfg, seed=args.seed),
        )
        bench_mod.write_trace_csv(trace_path, res.trace)
        log.info("trace written to %s", trace_path)
    return 0


def cmd_gendata(args) -> int:
    try:
        corpus = generate_dataset(
            args.shape, args.leaves, args.count, args.vocab, args.classes, args.seed
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    write_corpus(args.out, corpus, synthetic_vocab(args.vocab))
    print(f"wrote {len(corpus)} instance(s) to {args.out}")
    return 0


def _count(minimum: int):
    """An argparse type: an integer of at least `minimum`."""

    def count(text: str) -> int:
        n = int(text)
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}")
        return n

    return count


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rdg",
        description="Recursive dataflow graphs: train, infer, and benchmark tree models.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common_model_flags(sp, default_threads=1):
        sp.add_argument("--model", choices=MODEL_KINDS, default="treernn")
        sp.add_argument("--hidden", type=_count(1), default=32, help="state width d")
        sp.add_argument("--threads", type=_count(1), default=default_threads,
                        help="accepted for compatibility (>= 1); results and speed "
                        "do not depend on it")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("train", help="train a model on a labeled-tree corpus")
    common_model_flags(sp)
    sp.add_argument("--mode", choices=("recursive", "iterative"), default="recursive")
    sp.add_argument("--data", required=True, help="training corpus path")
    sp.add_argument("--val", help="validation corpus path (accuracy source when given)")
    sp.add_argument("--batch", type=_count(1), default=25,
                    help="instances per optimizer step, run as one batch")
    sp.add_argument("--epochs", type=_count(0), default=10)
    sp.add_argument("--lr", type=float, default=0.05)
    sp.add_argument("--l2", type=float, default=0.0)
    sp.add_argument("--init-scale", type=float, default=0.1)
    sp.add_argument("--per-node-loss", action="store_true",
                    help="supervise every node, not just the root")
    sp.add_argument("--capacity", type=int, default=0,
                    help="iterative unroll length (default: largest instance)")
    sp.add_argument("--out", help="checkpoint path to write")
    sp.add_argument("--metrics", help="per-epoch metrics CSV path")
    sp.set_defaults(fn=cmd_train)

    sp = sub.add_parser("infer", help="classify a corpus with a trained checkpoint")
    sp.add_argument("--ckpt", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--mode", choices=("recursive", "iterative"), default="recursive")
    sp.add_argument("--threads", type=_count(1), default=1)
    sp.set_defaults(fn=cmd_infer)

    sp = sub.add_parser("bench", help="run a benchmark suite, write a CSV report")
    common_model_flags(sp, default_threads=8)
    sp.add_argument("--suite", choices=("balancedness", "scaling"), required=True)
    sp.add_argument("--mode", action="append", choices=("recursive", "iterative"),
                    help="repeatable; default recursive")
    sp.add_argument("--out", required=True, help="report CSV path")
    sp.add_argument("--runs", type=_count(1), default=100, help="timed runs per config")
    sp.add_argument("--warmup", type=_count(0), default=10)
    sp.add_argument("--leaves", type=int, default=0,
                    help="leaf count of the balancedness suite (default 64)")
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("gendata", help="generate a synthetic labeled-tree corpus")
    sp.add_argument("--shape", choices=("balanced", "moderate", "linear"),
                    required=True)
    sp.add_argument("--leaves", type=int, required=True)
    sp.add_argument("--count", type=int, required=True)
    sp.add_argument("--vocab", type=int, default=20, help="distinct word count")
    sp.add_argument("--classes", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_gendata)

    return p


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CorpusError, OSError) as e:
        log.error("%s", e)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
