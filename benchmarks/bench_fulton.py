"""Timing of Fulton's Milnor oracle on a decade ladder of the family, and the cold CLI.

    PYTHONPATH=src python3 benchmarks/bench_fulton.py --label after
    PYTHONPATH=<other checkout>/src python3 benchmarks/bench_fulton.py --label before

Times ``milnor_fulton(F(s))`` at s = 10^0, 10^1, ..., 10^7 (building F(s)
is not timed) and checks each value against k(s) = 420s^2 + 269s + 42.
Each s runs up to three times, stopping once 10 s have been spent on it;
the median run is reported.  A run still going after 60 s is stopped
(``signal.alarm``); it is recorded as stopped, and the larger s as
skipped.  The frontier is the largest s of the ladder finished within 1 s
and within 10 s.  The cold CLI is ``python -m akforge milnor --poly F(0)``
in a new interpreter, the text being the oracle-crosscheck benchmark
workload's: the median of seven runs, what it printed and whether
``import akforge.cli`` loads numpy.  The record, with the environment, is
stored under ``runs[<label>]`` of ``benchmarks/BENCH_fulton.json``;
records under other labels are kept, so one file holds the numbers of two
checkouts.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import akforge
from akforge.family import build_F, family_params
from akforge.milnor import milnor_fulton

from _common import environment, store

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import family_text  # noqa: E402

OUT = Path(__file__).resolve().parent / "BENCH_fulton.json"
LADDER = tuple(10**e for e in range(8))
BUDGETS_S = (1.0, 10.0)
STOP_AFTER_S = 60
CLI_RUNS = 7


class OverLimit(Exception):
    """Raised in a run that passes STOP_AFTER_S."""


def _over_limit(signum, frame):
    raise OverLimit


def cross_check(s: int) -> float:
    """Seconds of one Fulton run on F(s); raises if it misses k(s)."""
    f = build_F(s).F
    t0 = time.perf_counter()
    mu = milnor_fulton(f).mu
    elapsed = time.perf_counter() - t0
    if mu != family_params(s).k:
        raise AssertionError(f"Fulton gave {mu} on F({s}), expected {family_params(s).k}")
    return elapsed


def measure(s: int) -> dict:
    runs: list[float] = []
    while len(runs) < 3 and sum(runs) < 10.0:
        signal.alarm(STOP_AFTER_S)
        try:
            runs.append(cross_check(s))
        except OverLimit:
            return {"stopped": f"one run passed {STOP_AFTER_S} s"}
        finally:
            signal.alarm(0)
    return {
        "k": family_params(s).k,
        "seconds": round(statistics.median(runs), 5),
        "repeats": len(runs),
    }


def ladder() -> dict:
    out: dict[str, dict] = {}
    for s in LADDER:
        if any("stopped" in row for row in out.values()):
            out[str(s)] = {
                "skipped": f"a smaller s was stopped after {STOP_AFTER_S} s, "
                "so the larger s were not run"
            }
        else:
            out[str(s)] = measure(s)
        print(f"s={s}", json.dumps(out[str(s)]), flush=True)
    return out


def cli_run(src: Path, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, env=env, timeout=600)
    return time.perf_counter() - t0, proc


def cold_cli(src: Path) -> dict:
    times = []
    for _ in range(CLI_RUNS):
        elapsed, proc = cli_run(src, ["-m", "akforge", "milnor", "--poly", family_text(0)])
        times.append(elapsed)
    printed = json.loads(proc.stdout) if proc.returncode == 0 else proc.stderr.decode()
    probe = ["-c", "import sys, akforge.cli; print('numpy' in sys.modules)"]
    return {
        "median_s": round(statistics.median(times), 4),
        "runs": CLI_RUNS,
        "printed": printed,
        "import_loads_numpy": cli_run(src, probe)[1].stdout.decode().strip() == "True",
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this record in the JSON")
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _over_limit)
    milnor_fulton(build_F(0).F)  # warm-up
    rungs = ladder()
    record = {
        "environment": environment(),
        "medians_over": "up to 3 runs per s, stopping after 10 s",
        "fulton_seconds": rungs,
        "frontier": {},
    }
    for budget in BUDGETS_S:
        done = [s for s, row in rungs.items() if row.get("seconds", budget + 1) <= budget]
        record["frontier"][f"largest_s_within_{budget:g}s"] = max(map(int, done), default=None)
    print("frontier", json.dumps(record["frontier"]), flush=True)
    record["cold_cli_milnor_F0"] = cold_cli(Path(akforge.__file__).resolve().parents[1])
    print("cold CLI", json.dumps(record["cold_cli_milnor_F0"]), flush=True)
    store(OUT, args.label, record)


if __name__ == "__main__":
    main()
