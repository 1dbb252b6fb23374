"""Timing and truncation rungs of the local-algebra Milnor oracle.

    PYTHONPATH=src python3 benchmarks/bench_milnor.py --label after
    PYTHONPATH=<other checkout>/src python3 benchmarks/bench_milnor.py --label before

Times ``milnor_number`` on the 40 A_k germs (k = 1..8) of the
oracle-crosscheck benchmark workload at seed 101, once per arithmetic, on
F(0) with the hint 42 and with no hint, and on the non-isolated germs
(y - x^2)^2 and (y - x^5)^2.  Every truncation degree the search builds a
relation matrix for (a rung) is recorded by wrapping ``_dimension_profile``
in ``akforge.milnor``, so the script runs unchanged against any checkout
that has it; a rung written ``m(exact)`` is the exact recomputation of a
modular profile.  The germs come from ``perfbench/workloads.py`` of the
checkout the script sits in.  Each case runs up to three times, stopping
once 10 s have been spent on it; the median run is reported.  The record,
with the environment, is stored under ``runs[<label>]`` of
``benchmarks/BENCH_milnor.json``; records under other labels are kept, so
one file holds the numbers of two checkouts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import akforge
import akforge.milnor as milnor
from akforge.errors import NonIsolated
from akforge.poly import parse_poly

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import family_text, make_inputs  # noqa: E402

SEED = 101
OUT = Path(__file__).resolve().parent / "BENCH_milnor.json"


def environment() -> dict:
    src = Path(akforge.__file__).resolve().parent
    def git(*argv: str) -> str:
        run = subprocess.run(["git", "-C", str(src), *argv], capture_output=True, text=True)
        return run.stdout.strip()

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "akforge_commit": git("rev-parse", "HEAD"),
        "akforge_uncommitted_changes": bool(git("status", "--porcelain", "--", ".")),
        "AKFORGE_PRIME_SEED": os.environ.get("AKFORGE_PRIME_SEED"),
    }


def timed_calls(calls: list[tuple]) -> dict:
    """Run ``milnor_number`` on each (poly, hint, arithmetic); time the lot."""
    original = milnor._dimension_profile
    reports, rungs = [], []

    def spy(fx, fy, m_top, arithmetic):
        rungs[-1].append(str(m_top) if arithmetic == asked else f"{m_top}({arithmetic})")
        return original(fx, fy, m_top, arithmetic)

    milnor._dimension_profile = spy
    try:
        t0 = time.perf_counter()
        for f, hint, asked in calls:
            rungs.append([])
            try:
                reports.append(repr(milnor.milnor_number(f, expected=hint, arithmetic=asked)))
            except NonIsolated as exc:
                reports.append(f"NonIsolated: {exc}")
        total = time.perf_counter() - t0
    finally:
        milnor._dimension_profile = original
    return {"total_s": round(total, 4), "reports": reports, "rungs": rungs}


def measure(calls: list[tuple]) -> dict:
    runs = []
    while len(runs) < 3 and sum(r["total_s"] for r in runs) < 10.0:
        runs.append(timed_calls(calls))
    runs.sort(key=lambda r: r["total_s"])
    run = runs[len(runs) // 2]
    row = {"total_s": run["total_s"], "repeats": len(runs)}
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
        inp for inp in make_inputs("oracle-crosscheck", SEED)
        if inp["op"] == "milnor" and "poly" in inp
    ]
    out = {}
    for arithmetic in ("exact", "modular"):
        out[f"germs seed {SEED} {arithmetic}"] = [
            (parse_poly(inp["poly"]), None, arithmetic)
            for inp in germs if inp["arithmetic"] == arithmetic
        ]
    F0 = parse_poly(family_text(0))
    out["F(0) hint 42"] = [(F0, 42, "exact")]
    out["F(0) no hint"] = [(F0, None, "exact")]
    for text in ("(y - x^2)^2", "(y - x^5)^2"):
        out[text] = [(parse_poly(text), None, "exact")]
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this record in the JSON")
    args = ap.parse_args()
    milnor.milnor_number(parse_poly("y^2 + x^3"), arithmetic="modular")  # warm-up
    results = {}
    for name, calls in cases().items():
        results[name] = measure(calls)
        print(name, json.dumps(results[name]), flush=True)
    record = {
        "environment": environment(),
        "medians_over": "up to 3 runs per case, stopping after 10 s",
        "cases": results,
    }
    data = json.loads(OUT.read_text()) if OUT.exists() else {"runs": {}}
    data["runs"][args.label] = record
    OUT.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
