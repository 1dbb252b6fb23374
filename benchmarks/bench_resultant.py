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
A third ladder times the modular oracle on (x^e + y)^2 for e = 100, 300
and 1000, a germ of high x-degree on which every shear fails, with its
outcome (the report, or the error's repr), under the same stop and skip
rule.  The record, with the environment and, per arithmetic, the reports
and the largest s finished within 1 s and within 10 s, is stored under
``runs[<label>]`` of ``benchmarks/BENCH_resultant.json``; records under
other labels are kept, so one file holds the numbers of two checkouts.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import akforge.milnor as milnor
from akforge.errors import AkforgeError
from akforge.family import build_F
from akforge.poly import parse_poly

from _common import (
    Wrap, environment, frontier, median_run, parse_label, run_ladders, store, wrapped,
)

LAYERS = Wrap(milnor, ("_sample_points", "eval_x_batch", "resultant_batch", "interpolate_monomial"))
ARITHMETICS = ("modular", "exact")
MAX_S = 3
SHEAR_EXPONENTS = (100, 300, 1000)
OUT = Path(__file__).resolve().parent / "BENCH_resultant.json"


def partial_sizes(L: dict[int, dict[int, int]]) -> dict:
    """Terms of one partial's y-layers {j: {i: c}} and cells of its dense matrix."""
    return {
        "terms": sum(map(len, L.values())),
        "dense_cells": (max(L) + 1) * (max(map(max, L.values())) + 1),
    }


def timed_run(F, arithmetic: str) -> dict:
    """One oracle call with every layer wrapped; returns times, point counts and sizes."""
    points: list[int] = []
    sizes: list[dict] = []

    def after(name, args, out):
        if name == "_sample_points":
            points.append(len(out))
            sizes[:] = [partial_sizes(L) for L in args[:2]]

    with wrapped(LAYERS, after) as calls:
        t0 = time.perf_counter()
        report = milnor.milnor_resultant(F, arithmetic=arithmetic)
        total = time.perf_counter() - t0
    spent = calls.seconds
    return {
        "report": repr(report),
        "total_s": round(total, 4),
        "layers_s": {name: round(spent[name], 4) for name in LAYERS.names},
        "other_s": round(total - sum(spent.values()), 4),
        "sample_runs": len(points),
        "points_per_run": sorted(set(points)),
        "partials": sizes,
    }


def measure(s: int, arithmetic: str) -> dict:
    F = build_F(s).F
    row = median_run(lambda: timed_run(F, arithmetic))
    if "total_s" in row:
        row["interpolate_share"] = round(
            row["layers_s"]["interpolate_monomial"] / row["total_s"], 3
        )
    return row


def measure_shears(e: int) -> dict:
    """The modular oracle on (x^e + y)^2, timed with its outcome."""
    f = parse_poly(f"(x^{e} + y)^2")

    def run() -> dict:
        t0 = time.perf_counter()
        try:
            outcome = repr(milnor.milnor_resultant(f, arithmetic="modular"))
        except AkforgeError as exc:
            outcome = repr(exc)
        return {"outcome": outcome, "total_s": round(time.perf_counter() - t0, 4)}

    return median_run(run)


def main() -> None:
    label = parse_label(__doc__)
    record = {
        "environment": environment(),
        "medians_over": "up to 3 runs per s, stopping after 10 s",
    }
    for arithmetic in ARITHMETICS:
        milnor.milnor_resultant(build_F(0).F, arithmetic=arithmetic)  # warm-up
        members = run_ladders(
            [(str(s), "s", s) for s in range(MAX_S + 1)],
            lambda s: measure(s, arithmetic),
            prefix=f"{arithmetic} s=",
        )
        record[arithmetic] = {"members": members, "frontier": frontier(members, "total_s")}
        print(arithmetic, json.dumps(record[arithmetic]["frontier"]), flush=True)
    record["modular_high_x_degree"] = run_ladders(
        [(str(e), "e", e) for e in SHEAR_EXPONENTS],
        measure_shears,
        prefix="modular (x^e + y)^2, e=",
    )
    store(OUT, label, record)


if __name__ == "__main__":
    main()
