#!/usr/bin/env python3
"""Run the two benchmark suites and write one CSV per suite.

Suites:
  balancedness  forward throughput across tree shapes at fixed node count,
                batch sizes 1/10/25
  scaling       forward latency on balanced trees of growing size,
                recursive vs. build-time-unrolled iterative

Medians over many runs are the headline numbers; p95 is reported alongside.
"""

import argparse
import sys
from pathlib import Path

from rdg import bench


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out-dir", default="bench_out")
    p.add_argument("--runs", type=int, default=100)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--suites", nargs="+",
                   default=["balancedness", "scaling"],
                   choices=["balancedness", "scaling"])
    args = p.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    common = dict(d=args.hidden, warmup=args.warmup, runs=args.runs, seed=args.seed)

    if "balancedness" in args.suites:
        rows = bench.bench_balancedness(**common)
        bench.write_bench_csv(out_dir / "balancedness.csv", rows)
        print(f"balancedness: {len(rows)} rows -> {out_dir / 'balancedness.csv'}")
        for r in rows:
            print(f"  {r.shape:<10} batch={r.batch:>2}: median {r.median_ms:8.2f} ms, "
                  f"{r.instances_per_s:8.1f} inst/s")

    if "scaling" in args.suites:
        rows = bench.bench_scaling(**common)
        bench.write_bench_csv(out_dir / "scaling.csv", rows)
        print(f"scaling: {len(rows)} rows -> {out_dir / 'scaling.csv'}")
        for r in rows:
            print(f"  {r.mode:<9} {r.shape:<13}: median {r.median_ms:8.2f} ms")
        ratios = bench.scaling_ratios(rows)
        for mode, ratio in sorted(ratios.items()):
            print(f"  T(max)/T(min) for {mode}: {ratio:.2f}x")

    return 0


if __name__ == "__main__":
    sys.exit(main())
