"""Timing of the integer kernels on the oracle cross-check path.

    PYTHONPATH=src python3 benchmarks/bench_kernels.py --label after
    PYTHONPATH=<other checkout>/src python3 benchmarks/bench_kernels.py --label before

Times three cases of the oracle-crosscheck benchmark workload:

- the bound table: ``steenbrink_inertia(d).mu_minus == upper_bound(d)`` for
  d = 2..200;
- the exact resultant oracle, ``milnor_resultant(f, arithmetic="exact")``,
  on the 12 resultant germs of oracle-crosscheck at seed 101 and on F(0),
  with the time inside ``_interp_valuation_exact``;
- the modular resultant oracle on F(1), with the time inside
  ``_sample_points`` and ``interpolate_monomial``.

The kernels are timed by wrapping those names in ``akforge.milnor``, so the
script runs unchanged against any checkout that has them.  The germs come
from ``perfbench/workloads.py`` of the checkout the script sits in.  Each
case runs once to warm up, then 5 times; the raw times and their median are
reported, with each case's results, so two records can be checked to agree.
The record, with the environment, is stored under ``runs[<label>]`` of
``benchmarks/BENCH_kernels.json``; records under other labels are kept, so
one file holds the numbers of two checkouts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import akforge.milnor as milnor
from akforge.bounds import steenbrink_inertia, upper_bound
from akforge.family import build_F
from akforge.poly import parse_poly

from _common import environment, store

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import make_inputs  # noqa: E402

SEED = 101
REPEATS = 5
OUT = Path(__file__).resolve().parent / "BENCH_kernels.json"


def bound_table() -> list[str]:
    return [str(all(steenbrink_inertia(d).mu_minus == upper_bound(d) for d in range(2, 201)))]


def resultant_germs() -> list:
    germs = [
        parse_poly(inp["poly"])
        for inp in make_inputs("oracle-crosscheck", SEED)
        if inp["op"] == "resultant" and "poly" in inp
    ]
    return germs + [build_F(0).F]


def measure(run, layers: tuple[str, ...] = ()) -> dict:
    """Warm up once, then time ``run()`` REPEATS times with ``layers`` wrapped."""
    results = run()
    totals, spent_runs = [], []
    originals = {name: getattr(milnor, name) for name in layers}
    for _ in range(REPEATS):
        spent: dict[str, float] = defaultdict(float)

        def wrap(name, fn):
            def inner(*args, **kwargs):
                t0 = time.perf_counter()
                out = fn(*args, **kwargs)
                spent[name] += time.perf_counter() - t0
                return out

            return inner

        for name, fn in originals.items():
            setattr(milnor, name, wrap(name, fn))
        try:
            t0 = time.perf_counter()
            again = run()
            totals.append(time.perf_counter() - t0)
        finally:
            for name, fn in originals.items():
                setattr(milnor, name, fn)
        assert again == results, "results changed between repeats"
        spent_runs.append(spent)
    return {
        "runs_s": [round(t, 4) for t in totals],
        "median_s": round(statistics.median(totals), 4),
        "layers_median_s": {
            name: round(statistics.median(s[name] for s in spent_runs), 4) for name in layers
        },
        "results": results,
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this record in the JSON")
    args = ap.parse_args()
    germs = resultant_germs()
    F1 = build_F(1).F
    cases = {
        "bound_table_d200": measure(bound_table),
        "resultant_exact_germs_and_F0": measure(
            lambda: [repr(milnor.milnor_resultant(f, arithmetic="exact")) for f in germs],
            ("_interp_valuation_exact",),
        ),
        "resultant_modular_F1": measure(
            lambda: [repr(milnor.milnor_resultant(F1, arithmetic="modular"))],
            ("_sample_points", "interpolate_monomial"),
        ),
    }
    for name, row in cases.items():
        print(name, row["median_s"], json.dumps(row["layers_median_s"]), flush=True)
    record = {
        "environment": environment(),
        "medians_over": f"{REPEATS} runs after one warm-up run",
        "cases": cases,
    }
    store(OUT, args.label, record)


if __name__ == "__main__":
    main()
