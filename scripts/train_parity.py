#!/usr/bin/env python3
"""Train a TreeRNN on the synthetic subtree-parity task until it generalizes.

Generates balanced 16-leaf trees whose every node is labeled by the parity of
its subtree's word sum, trains with per-node supervision, and stops as soon as
validation accuracy reaches the target. Prints per-epoch progress and the wall
time to target for the recursive engine (and optionally the unrolled iterative
baseline for comparison).
"""

import argparse
import sys
import time

from rdg.cli import _count
from rdg.data import generate_dataset
from rdg.models import ModelConfig, build_iterative, build_recursive, init_params
from rdg.trainer import TrainConfig, evaluate, train


def time_to_target(model, train_set, val_set, args) -> tuple[float, int, float]:
    """Returns (seconds, epochs_used, final_val_accuracy)."""
    params = init_params(model.config, seed=args.seed, scale=0.1)
    cfg = TrainConfig(epochs=1, batch_size=args.batch, lr=args.lr,
                      threads=args.threads, seed=args.seed)
    t0 = time.perf_counter()
    acc = 0.0
    for epoch in range(args.max_epochs):
        train(model, params, train_set, cfg)
        acc = evaluate(model, params, val_set, threads=args.threads,
                       batch_size=args.batch).accuracy
        print(f"  epoch {epoch}: val accuracy {acc:.4f}")
        if acc >= args.target:
            return time.perf_counter() - t0, epoch + 1, acc
    return time.perf_counter() - t0, args.max_epochs, acc


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--train-count", type=_count(1), default=2000)
    p.add_argument("--val-count", type=_count(1), default=500)
    p.add_argument("--leaves", type=_count(1), default=16)
    p.add_argument("--hidden", type=_count(1), default=16)
    p.add_argument("--vocab", type=_count(1), default=10)
    p.add_argument("--batch", type=_count(1), default=25)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--threads", type=_count(1), default=8)
    p.add_argument("--target", type=float, default=0.93)
    p.add_argument("--max-epochs", type=_count(1), default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--compare-iterative", action="store_true",
                   help="also time the unrolled iterative baseline")
    args = p.parse_args()

    train_set = generate_dataset("balanced", args.leaves, args.train_count,
                                 args.vocab, 2, seed=args.seed)
    val_set = generate_dataset("balanced", args.leaves, args.val_count,
                               args.vocab, 2, seed=args.seed + 1)
    cfg = ModelConfig("treernn", d=args.hidden, vocab=args.vocab + 1, classes=2,
                      per_node_loss=True)

    print(f"recursive engine (target {args.target:.0%}):")
    rec_s, rec_epochs, rec_acc = time_to_target(build_recursive(cfg), train_set,
                                                val_set, args)
    hit = rec_acc >= args.target
    print(f"recursive: {rec_acc:.4f} after {rec_epochs} epoch(s), "
          f"{rec_s:.1f}s {'(target reached)' if hit else '(target NOT reached)'}")

    if args.compare_iterative:
        capacity = 2 * args.leaves - 1
        print("iterative baseline:")
        it_s, it_epochs, it_acc = time_to_target(
            build_iterative(cfg, capacity=capacity), train_set, val_set, args)
        print(f"iterative: {it_acc:.4f} after {it_epochs} epoch(s), {it_s:.1f}s")
        if hit and it_acc >= args.target:
            print(f"speedup to target: {it_s / rec_s:.2f}x")

    return 0 if hit else 1


if __name__ == "__main__":
    sys.exit(main())
