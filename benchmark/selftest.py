"""Self-test of the benchmark's output checks.

    python3 benchmark/selftest.py

On the first operation of every workload (seed 0), the check must pass on
the engine's real output and fail on each of: the loss moved by 1e-8
relative; the second output perturbed (one updated parameter entry moved by
1e-6 of the largest, the predicted class flipped, or the accuracy moved by
one instance); and the engine run with the classifier bias moved by 1e-4.
Exits 0 when every case behaves so. Takes a few seconds.
"""

from __future__ import annotations

import sys

from run import RESULTS, SRC


def _perturb_second(out, op):
    second = out[1]
    if isinstance(second, dict):  # updated parameters
        name = next(iter(second))
        a = second[name].a.copy()
        a.flat[0] += 1e-6 * abs(a).max()
        return out[0], {**second, name: type(second[name]).from_array(a)}
    if isinstance(second, int):  # predicted class
        return out[0], 1 - second
    return out[0], second + 1 / len(op)  # accuracy


def _shifted_params(params: dict) -> dict:
    a = params["bs"].a.copy()  # the classifier bias, which every model has
    a.flat[0] += 1e-4
    return {**params, "bs": type(params["bs"]).from_array(a)}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import rdg  # noqa: F401 - first, so its BLAS thread settings precede numpy

    from workloads import WORKLOADS

    RESULTS.mkdir(exist_ok=True)
    bad = 0
    for name, make in WORKLOADS.items():
        wl = make(0, RESULTS)
        wl.setup()
        op = wl.ops[0]
        out, ref = wl.engine(op), wl.oracle(op)
        params = wl.params
        wl.params = _shifted_params(params)
        shifted = wl.engine(op)
        wl.params = params
        cases = [
            ("real output", out, False),
            ("loss moved by 1e-8", (out[0] * (1 + 1e-8), out[1]), True),
            ("second output perturbed", _perturb_second(out, op), True),
            ("run with a shifted parameter", shifted, True),
        ]
        for case, got, should_fail in cases:
            problems = wl.check(op, got, ref)
            ok = bool(problems) == should_fail
            bad += not ok
            verdict = "fails" if problems else "passes"
            print(f"{'ok  ' if ok else 'FAIL'} {name}: {case} {verdict}"
                  + (f" ({problems[0]})" if problems else ""))
    print("PASS" if not bad else f"FAIL: {bad} case(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
