"""Timing of Fulton's Milnor oracle on the family, its frontier, and the cold CLI.

    PYTHONPATH=src python3 benchmarks/bench_fulton.py
    PYTHONPATH=src python3 benchmarks/bench_fulton.py --before-src <other checkout>/src

Times ``milnor_fulton(F(s))`` at s = 0, 1, 2, 4, 20, 200 and 1000 (median
of three runs; building F(s) is not timed) and checks each value against
k(s) = 420s^2 + 269s + 42.  The frontier is the largest s whose cross-check
finishes within 1 s and within 10 s: s doubles from 1000 until one run takes
longer than the budget, then the interval is bisected to 2% (one run per
probe).  The cold CLI is ``python -m akforge milnor --poly F(0)`` in a new
interpreter, the text being the oracle-crosscheck benchmark workload's; with
--before-src the same command also runs against that checkout's sources, the
two alternating, and each side reports the median of its runs, what it
printed and whether ``import akforge.cli`` loads numpy.  The record, with
the environment, is written to ``benchmarks/BENCH_fulton.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import akforge
from akforge.family import build_F, family_params
from akforge.milnor import milnor_fulton

from _common import checkout, environment

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import family_text  # noqa: E402

OUT = Path(__file__).resolve().parent / "BENCH_fulton.json"
LADDER = (0, 1, 2, 4, 20, 200, 1000)
BUDGETS_S = (1.0, 10.0)
CLI_RUNS = 7


def cross_check(s: int) -> float:
    """Seconds of one Fulton run on F(s); raises if it misses k(s)."""
    f = build_F(s).F
    t0 = time.perf_counter()
    mu = milnor_fulton(f).mu
    elapsed = time.perf_counter() - t0
    if mu != family_params(s).k:
        raise AssertionError(f"Fulton gave {mu} on F({s}), expected {family_params(s).k}")
    return elapsed


def ladder() -> dict:
    out = {}
    for s in LADDER:
        seconds = statistics.median(cross_check(s) for _ in range(3))
        out[str(s)] = {"k": family_params(s).k, "seconds": round(seconds, 5)}
    return out


def frontier(budget_s: float) -> dict:
    lo, lo_t = LADDER[-1], cross_check(LADDER[-1])
    if lo_t > budget_s:
        raise AssertionError(f"F({lo}) already takes {lo_t:.2f} s")
    hi = None
    while hi is None:
        t = cross_check(2 * lo)
        if t > budget_s:
            hi = 2 * lo
        else:
            lo, lo_t = 2 * lo, t
    while hi - lo > max(1, lo // 50):
        mid = (lo + hi) // 2
        t = cross_check(mid)
        if t > budget_s:
            hi = mid
        else:
            lo, lo_t = mid, t
    return {
        "largest_s": lo,
        "k": family_params(lo).k,
        "seconds": round(lo_t, 3),
        "first_s_over": hi,
    }


def cli_run(src: Path, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, env=env, timeout=600)
    return time.perf_counter() - t0, proc


def cold_cli(sides: dict[str, Path]) -> dict:
    argv = ["-m", "akforge", "milnor", "--poly", family_text(0)]
    times: dict[str, list[float]] = {label: [] for label in sides}
    printed = {}
    for _ in range(CLI_RUNS):
        for label, src in sides.items():
            elapsed, proc = cli_run(src, argv)
            times[label].append(elapsed)
            ok = proc.returncode == 0
            printed[label] = json.loads(proc.stdout) if ok else proc.stderr.decode()
    probe = ["-c", "import sys, akforge.cli; print('numpy' in sys.modules)"]
    out = {}
    for label, src in sides.items():
        loads = cli_run(src, probe)[1].stdout.decode().strip() == "True"
        out[label] = {
            **checkout(src),
            "median_s": round(statistics.median(times[label]), 4),
            "runs": CLI_RUNS,
            "printed": printed[label],
            "import_loads_numpy": loads,
        }
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--before-src", type=Path, help="src/ of the checkout to compare the cold CLI with"
    )
    args = ap.parse_args()
    milnor_fulton(build_F(0).F)  # warm-up
    record = {"environment": environment(), "akforge": checkout(Path(akforge.__file__).parent)}
    record["fulton_seconds"] = ladder()
    print("ladder", json.dumps(record["fulton_seconds"]), flush=True)
    record["frontier"] = {}
    for budget in BUDGETS_S:
        row = record["frontier"][f"within_{budget:g}_s"] = frontier(budget)
        print("frontier", budget, json.dumps(row), flush=True)
    sides = {"after": Path(akforge.__file__).resolve().parents[1]}
    if args.before_src is not None:
        sides = {"before": args.before_src.resolve(), **sides}
    record["cold_cli_milnor_F0"] = cold_cli(sides)
    print("cold CLI", json.dumps(record["cold_cli_milnor_F0"]), flush=True)
    OUT.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
