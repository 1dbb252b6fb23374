"""Layer-by-layer timing of the resultant oracle on the family members.

    PYTHONPATH=src python3 benchmarks/bench_resultant.py --label after
    PYTHONPATH=<other checkout>/src python3 benchmarks/bench_resultant.py --label before

Times ``milnor_resultant(build_F(s).F, arithmetic=a)`` for s = 0..3, first
with a = "modular" and then with a = "exact", and, inside it, the oracle's
layers: choosing the sample points (``_sample_points``), Horner evaluation
(``eval_x_batch``), the resultant at every point (``resultant_batch``) and
interpolation (``interpolate_monomial``).  The layers are timed by wrapping
those names in ``akforge.milnor``, so the script runs unchanged against any
checkout that has them; a layer that a checkout's path never calls reads 0.
Each member also records, per sheared partial, its number of terms next to
the cells of its dense (y-degree + 1) x (x-degree + 1) coefficient matrix:
the work of a sparse and of a dense evaluation per sample point, and how
many runs of sample points were taken, with their lengths.  Each s runs up
to three times, stopping once 10 s have been spent on it; the median run is
reported.  A run still going after 60 s is stopped (``signal.alarm``); it is
recorded as stopped, and the larger s of the same arithmetic as skipped.
The record, with the environment and, per arithmetic, the reports and the
largest s finished within 1 s and within 10 s, is stored under
``runs[<label>]`` of ``benchmarks/BENCH_resultant.json``; records under
other labels are kept, so one file holds the numbers of two checkouts.
"""

from __future__ import annotations

import argparse
import json
import signal
import time
from collections import defaultdict
from pathlib import Path

import akforge.milnor as milnor
from akforge.family import build_F

from _common import environment, store

LAYERS = ("_sample_points", "eval_x_batch", "resultant_batch", "interpolate_monomial")
ARITHMETICS = ("modular", "exact")
MAX_S = 3
BUDGETS_S = (1.0, 10.0)
STOP_AFTER_S = 60
OUT = Path(__file__).resolve().parent / "BENCH_resultant.json"


def partial_sizes(L: dict[int, dict[int, int]]) -> dict:
    """Terms of one partial's y-layers {j: {i: c}} and cells of its dense matrix."""
    return {
        "terms": sum(map(len, L.values())),
        "dense_cells": (max(L) + 1) * (max(map(max, L.values())) + 1),
    }


def timed_run(F, arithmetic: str) -> dict:
    """One oracle call with every layer wrapped; returns times, point counts and sizes."""
    spent: dict[str, float] = defaultdict(float)
    points: list[int] = []
    sizes: list[dict] = []
    originals = {name: getattr(milnor, name) for name in LAYERS}

    def wrap(name, fn):
        def inner(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            spent[name] += time.perf_counter() - t0
            if name == "_sample_points":
                points.append(len(out))
                sizes[:] = [partial_sizes(L) for L in args[:2]]
            return out

        return inner

    for name, fn in originals.items():
        setattr(milnor, name, wrap(name, fn))
    try:
        t0 = time.perf_counter()
        report = milnor.milnor_resultant(F, arithmetic=arithmetic)
        total = time.perf_counter() - t0
    finally:
        for name, fn in originals.items():
            setattr(milnor, name, fn)
    layers = {name: round(spent[name], 4) for name in LAYERS}
    return {
        "report": repr(report),
        "total_s": round(total, 4),
        "layers_s": layers,
        "other_s": round(total - sum(spent.values()), 4),
        "sample_runs": len(points),
        "points_per_run": sorted(set(points)),
        "partials": sizes,
    }


class OverLimit(Exception):
    """Raised in a run that passes STOP_AFTER_S."""


def _over_limit(signum, frame):
    raise OverLimit


def measure(s: int, arithmetic: str) -> dict:
    F = build_F(s).F
    runs = []
    while len(runs) < 3 and sum(r["total_s"] for r in runs) < 10.0:
        signal.alarm(STOP_AFTER_S)
        try:
            runs.append(timed_run(F, arithmetic))
        except OverLimit:
            return {"stopped": f"one run passed {STOP_AFTER_S} s"}
        finally:
            signal.alarm(0)
    runs.sort(key=lambda r: r["total_s"])
    row = dict(runs[len(runs) // 2])
    row["repeats"] = len(runs)
    row["interpolate_share"] = round(
        row["layers_s"]["interpolate_monomial"] / row["total_s"], 3
    )
    return row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this record in the JSON")
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _over_limit)
    record = {
        "environment": environment(),
        "medians_over": "up to 3 runs per s, stopping after 10 s",
    }
    for arithmetic in ARITHMETICS:
        milnor.milnor_resultant(build_F(0).F, arithmetic=arithmetic)  # warm-up
        members: dict[str, dict] = {}
        for s in range(MAX_S + 1):
            if any("stopped" in row for row in members.values()):
                members[str(s)] = {
                    "skipped": f"a smaller s was stopped after {STOP_AFTER_S} s, "
                    "so the larger s were not run"
                }
            else:
                members[str(s)] = measure(s, arithmetic)
            print(arithmetic, f"s={s}", json.dumps(members[str(s)]), flush=True)
        frontier = {}
        for budget in BUDGETS_S:
            done = [s for s, row in members.items() if row.get("total_s", budget + 1) <= budget]
            frontier[f"largest_s_within_{budget:g}s"] = max(map(int, done), default=None)
        record[arithmetic] = {"members": members, "frontier": frontier}
        print(arithmetic, json.dumps(frontier), flush=True)
    store(OUT, args.label, record)


if __name__ == "__main__":
    main()
