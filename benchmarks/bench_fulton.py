"""Timing of Fulton's Milnor oracle on a decade ladder of the family.

    PYTHONPATH=src python3 benchmarks/bench_fulton.py --label after
    PYTHONPATH=<other checkout>/src python3 benchmarks/bench_fulton.py --label before

Times ``milnor_fulton(F(s))`` at s = 10^0, 10^1, ..., 10^7 (building F(s)
is not timed) and checks each value against k(s) = 420s^2 + 269s + 42.
Each s runs up to three times, stopping once 10 s have been spent on it;
the median run is reported.  A run still going after 60 s is stopped
(``signal.alarm``); it is recorded as stopped, and the larger s as
skipped.  The frontier is the largest s of the ladder finished within 1 s
and within 10 s.  The record, with the environment, is stored under
``runs[<label>]`` of ``benchmarks/BENCH_fulton.json``; records under other
labels are kept, so one file holds the numbers of two checkouts.  (Older
records also hold a cold CLI run, now timed by ``bench_cli.py``.)
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from akforge.family import build_F, family_params
from akforge.milnor import milnor_fulton

from _common import environment, frontier, median_run, parse_label, run_ladders, store

OUT = Path(__file__).resolve().parent / "BENCH_fulton.json"
LADDER = tuple(10**e for e in range(8))


def cross_check(s: int) -> dict:
    """The seconds of one Fulton run on F(s) as "total_s"; raises if it misses k(s)."""
    f = build_F(s).F
    t0 = time.perf_counter()
    mu = milnor_fulton(f).mu
    elapsed = time.perf_counter() - t0
    if mu != family_params(s).k:
        raise AssertionError(f"Fulton gave {mu} on F({s}), expected {family_params(s).k}")
    return {"total_s": elapsed}


def measure(s: int) -> dict:
    row = median_run(lambda: cross_check(s))
    if "stopped" in row:
        return row
    return {"k": family_params(s).k, "seconds": round(row["total_s"], 5), "repeats": row["repeats"]}


def main() -> None:
    label = parse_label(__doc__)
    milnor_fulton(build_F(0).F)  # warm-up
    rungs = run_ladders([(str(s), "s", s) for s in LADDER], measure, prefix="s=")
    record = {
        "environment": environment(),
        "medians_over": "up to 3 runs per s, stopping after 10 s",
        "fulton_seconds": rungs,
        "frontier": frontier(rungs, "seconds"),
    }
    print("frontier", json.dumps(record["frontier"]), flush=True)
    store(OUT, label, record)


if __name__ == "__main__":
    main()
