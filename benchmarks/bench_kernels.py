"""Benchmark the mod-p kernels: compiled backend versus the numpy fallback.

Both code paths live behind AKFORGE_BACKEND, which is read on every call,
so one process can time them side by side.  Run from the repository root:

    python3 benchmarks/bench_kernels.py [--repeats N]
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

# Import the package from this checkout's src/, installed or not.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from akforge._modp import (  # noqa: E402
    _HAS_NUMBA,
    eval_x_batch,
    primes_from_seed,
    rank_profile_mod_p,
    resultant_batch,
)

PRIME = primes_from_seed(1)[0]


def time_best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def rank_cases(rng: np.random.Generator):
    for rows, cols in ((200, 300), (400, 600), (800, 1200)):
        mat = rng.integers(0, PRIME, size=(rows, cols), dtype=np.int64)
        yield f"rank_profile {rows}x{cols}", lambda m=mat: rank_profile_mod_p(m, PRIME)


def resultant_cases(rng: np.random.Generator):
    for deg, npts in ((20, 500), (40, 1000), (80, 2000)):
        f = rng.integers(0, PRIME, size=(deg + 1, deg + 2), dtype=np.int64)
        g = rng.integers(0, PRIME, size=(deg + 1, deg + 2), dtype=np.int64)
        pts = np.arange(npts, dtype=np.int64)
        fv = eval_x_batch(f, pts, PRIME)
        gv = eval_x_batch(g, pts, PRIME)

        def run(fv=fv, gv=gv):
            return resultant_batch(fv, gv, PRIME)

        yield f"resultant_batch deg={deg} points={npts}", run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    rng = np.random.default_rng(20260823)
    cases = list(rank_cases(rng)) + list(resultant_cases(rng))

    # Selecting the numba backend without numba raises InvalidInput.
    if _HAS_NUMBA:
        os.environ["AKFORGE_BACKEND"] = "numba"
        for _, fn in cases:
            fn()  # compile before timing
    else:
        print("note: numba backend unavailable; timing the numpy path only")

    results = []
    for label, fn in cases:
        with_numba = None
        if _HAS_NUMBA:
            os.environ["AKFORGE_BACKEND"] = "numba"
            with_numba = time_best(fn, args.repeats)
        os.environ["AKFORGE_BACKEND"] = "numpy"
        results.append((label, with_numba, time_best(fn, args.repeats)))

    width = max(len(label) for label, *_ in results)
    print(f"{'kernel':<{width}}  {'numba':>10}  {'numpy':>10}  {'speedup':>8}")
    for label, t_nb, t_np in results:
        if t_nb is None:
            print(f"{label:<{width}}  {'-':>10}  {t_np:>9.4f}s  {'-':>8}")
            continue
        ratio = t_np / t_nb if t_nb > 0 else float("inf")
        print(f"{label:<{width}}  {t_nb:>9.4f}s  {t_np:>9.4f}s  {ratio:>7.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
