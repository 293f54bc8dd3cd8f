#!/usr/bin/env python3
"""Finite-difference gradient check for every model kind.

Compares engine gradients (one reverse pass through the recursive graph)
against central finite differences of an independent reference forward,
on randomly shaped trees with random parameters. Exits nonzero if any
parameter of any model fails.
"""

import argparse
import sys

from rdg.cli import _count
from rdg.trainer import grad_check


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--kinds", nargs="+", default=["treernn", "rntn", "treelstm"])
    p.add_argument("--trials", type=_count(1), default=10, help="random trees per kind")
    p.add_argument("--tol", type=float, default=1e-4, help="relative error bound")
    p.add_argument("--hidden", type=_count(1), default=6)
    p.add_argument("--max-leaves", type=_count(1), default=16)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()

    all_ok = True
    for kind in args.kinds:
        report = grad_check(
            kind, trials=args.trials, tol=args.tol,
            d=args.hidden, max_leaves=args.max_leaves, seed=args.seed,
        )
        print(report.summary())
        print()
        all_ok = all_ok and report.ok
    print("all kinds PASS" if all_ok else "at least one kind FAILED")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
