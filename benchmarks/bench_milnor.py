"""Timing and truncation rungs of the local-algebra Milnor oracle.

    PYTHONPATH=src python3 benchmarks/bench_milnor.py --label after
    PYTHONPATH=<other checkout>/src python3 benchmarks/bench_milnor.py --label before

Times ``milnor_number`` on the 40 A_k germs (k = 1..8) that the
oracle-crosscheck benchmark workload at seed 101 runs in exact arithmetic,
on F(0) with the hint 42 and with no hint, and on the non-isolated germs
(y - x^2)^2 and (y - x^5)^2.  Every truncation degree the search builds a
relation matrix for (a rung) is recorded by wrapping
``_dimension_profile(fx, fy, m_top)`` in ``akforge.milnor``, and the row
count and rank of that matrix by wrapping the ``rank_profile_sparse(rows,
ncols)`` it calls, so the script runs against any checkout whose
``_dimension_profile`` has that signature and calls that name.  Under
``rung_rows``, a case records per rung degree the matrices built, their
rows and their ranks, summed over its calls.
The germs come from ``perfbench/workloads.py`` of the checkout the script
sits in.  Each case runs up to three times, stopping once 10 s have been
spent on it; the median run is reported.  A run still going after 60 s is
stopped, and the case recorded as stopped.  The record, with the
environment, is stored under ``runs[<label>]`` of
``benchmarks/BENCH_milnor.json``; records under other labels are kept, so
one file holds the numbers of two checkouts.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

import akforge.milnor as milnor
from akforge.errors import NonIsolated
from akforge.poly import parse_poly

from _common import Wrap, environment, median_run, parse_label, store, workloads, wrapped

RUNGS = Wrap(milnor, ("_dimension_profile", "rank_profile_sparse"))
SEED = 101
OUT = Path(__file__).resolve().parent / "BENCH_milnor.json"


def timed_calls(calls: list[tuple]) -> dict:
    """Run ``milnor_number`` on each (poly, hint); time the lot."""
    reports, rungs, sizes = [], [], []

    def after(name: str, args: tuple, out: list) -> None:
        # each _dimension_profile makes one rank_profile_sparse call: zipped below
        if name == "rank_profile_sparse":
            sizes.append((len(args[0]), len(out)))
        else:
            rungs[-1].append(str(args[2]))

    with wrapped(RUNGS, after):
        t0 = time.perf_counter()
        for f, hint in calls:
            rungs.append([])
            try:
                reports.append(repr(milnor.milnor_number(f, expected=hint)))
            except NonIsolated as exc:
                reports.append(f"NonIsolated: {exc}")
        total = time.perf_counter() - t0
    rung_rows: dict[str, dict] = {}
    for m, (n_rows, rank) in zip((m for r in rungs for m in r), sizes, strict=True):
        row = rung_rows.setdefault(m, {"matrices": 0, "rows": 0, "rank": 0})
        row["matrices"] += 1
        row["rows"] += n_rows
        row["rank"] += rank
    return {"total_s": round(total, 4), "reports": reports, "rungs": rungs, "rung_rows": rung_rows}


def measure(calls: list[tuple]) -> dict:
    run = median_run(lambda: timed_calls(calls))
    if "stopped" in run:
        return run
    row = {"total_s": run["total_s"], "repeats": run["repeats"], "rung_rows": run["rung_rows"]}
    if len(calls) == 1:
        row["report"], row["rungs"] = run["reports"][0], run["rungs"][0]
    else:
        row["calls"] = len(calls)
        mus = Counter(r.split(",")[0].removeprefix("MilnorReport(") for r in run["reports"])
        row["mu"] = dict(sorted(mus.items()))
        row["rung_sequences"] = dict(Counter(" ".join(r) for r in run["rungs"]))
    return row


def cases() -> dict[str, list[tuple]]:
    germs = [
        inp for inp in workloads.make_inputs("oracle-crosscheck", SEED)
        if inp["op"] == "milnor" and "poly" in inp
    ]
    out = {
        f"germs seed {SEED} exact": [
            (parse_poly(inp["poly"]), None) for inp in germs if inp["arithmetic"] == "exact"
        ]
    }
    F0 = parse_poly(workloads.family_text(0))
    out["F(0) hint 42"] = [(F0, 42)]
    out["F(0) no hint"] = [(F0, None)]
    for text in ("(y - x^2)^2", "(y - x^5)^2"):
        out[text] = [(parse_poly(text), None)]
    return out


def main() -> None:
    label = parse_label(__doc__)
    milnor.milnor_number(parse_poly("y^2 + x^3"))  # warm-up
    results = {}
    for name, calls in cases().items():
        results[name] = measure(calls)
        print(name, json.dumps(results[name]), flush=True)
    record = {
        "environment": environment(),
        "medians_over": "up to 3 runs per case, stopping after 10 s",
        "cases": results,
    }
    store(OUT, label, record)


if __name__ == "__main__":
    main()
