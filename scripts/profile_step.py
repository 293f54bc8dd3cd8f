#!/usr/bin/env python3
"""Where a training step's time goes: cProfile self times, top N; or its
peak memory.

Trains a recursive model (one thread) for one epoch over synthetic trees,
one `run_batch` step per batch, under cProfile, and prints the functions
with the largest self time. The gradient graph is built before profiling
starts. By default: TreeLSTM d=16, 5 steps of 25 balanced 64-leaf trees,
seed 1. The narrow case that `train-rnn-linear` runs, a linear TreeRNN at
batch 1:

    PYTHONPATH=src python scripts/profile_step.py [--top 15]
    PYTHONPATH=src python scripts/profile_step.py --kind treernn --shape linear --leaves 220 --batch 1

With `--memory` the same steps run under `tracemalloc` instead, and the
script prints the peak of the memory traced while they ran, numpy's array
buffers included:

    PYTHONPATH=src python scripts/profile_step.py --hidden 256 --memory
"""

import argparse
import cProfile
import pstats
import sys
import time
import tracemalloc

from rdg.autodiff import differentiate
from rdg.cli import _count
from rdg.data import generate_dataset
from rdg.models import MODEL_KINDS, ModelConfig, build_recursive, init_params
from rdg.trainer import TrainConfig, train

STEPS, SEED = 5, 1
WORDS = 20


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--top", type=_count(1), default=15, help="functions to print")
    p.add_argument("--kind", choices=MODEL_KINDS, default="treelstm", help="model")
    p.add_argument("--shape", choices=("balanced", "moderate", "linear"), default="balanced")
    p.add_argument("--leaves", type=_count(1), default=64, help="leaves per tree")
    p.add_argument("--batch", type=_count(1), default=25, help="trees per step")
    p.add_argument("--hidden", type=_count(1), default=16, help="state width d")
    p.add_argument("--memory", action="store_true", help="trace memory, not time")
    args = p.parse_args()

    cfg = ModelConfig(args.kind, d=args.hidden, vocab=WORDS + 1, classes=2)
    trees = generate_dataset(args.shape, args.leaves, STEPS * args.batch, WORDS, 2, SEED)
    model = build_recursive(cfg)
    grad = differentiate(model.graph, model.loss, list(model.params.values()))
    params = init_params(cfg, seed=SEED)
    tcfg = TrainConfig(epochs=1, batch_size=args.batch, lr=0.05, threads=1, seed=SEED)

    what = (
        f"{STEPS} steps of {args.batch} {args.shape} {args.leaves}-leaf trees, "
        f"{args.kind} d={args.hidden}, 1 thread"
    )
    if args.memory:
        tracemalloc.start()
        t0 = time.perf_counter()
        train(model, params, trees, tcfg, grad=grad)
        wall = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{what}: {wall:.3f} s wall traced, peak traced memory {peak / 2**20:.1f} MB")
        return 0

    prof = cProfile.Profile()
    t0 = time.perf_counter()
    prof.enable()
    train(model, params, trees, tcfg, grad=grad)
    prof.disable()
    wall = time.perf_counter() - t0

    stats = pstats.Stats(prof)
    total = stats.total_tt
    rows = sorted(stats.stats.items(), key=lambda kv: kv[1][2], reverse=True)[: args.top]
    print(f"{what}: {wall:.3f} s wall, {total:.3f} s profiled")
    print(f"{'function':<48} {'calls':>9} {'self s':>8} {'cum s':>8}")
    for (path, line, name), (_, calls, self_t, cum_t, _) in rows:
        where = f"{name} ({path.rsplit('/', 1)[-1]}:{line})" if line else name
        print(f"{where[:48]:<48} {calls:>9} {self_t:>8.3f} {cum_t:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
