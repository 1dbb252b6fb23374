"""Cold start of the akforge CLI, as the benchmark's fresh checkout runs it.

    PYTHONPATH=src python3 benchmarks/bench_cli.py --label after
    PYTHONPATH=<other checkout>/src python3 benchmarks/bench_cli.py --label before

Times, in a new interpreter each, the CLI runs of the perfbench workloads
(``python -m akforge construct --s 1``, ``certify --poly F(1)`` and
``milnor --poly F(0)``), ``import akforge.cli`` alone, and ``python -c
pass``, the interpreter's own start-up, as the floor.  Every child runs
from a temporary copy of ``src/akforge`` without ``__pycache__``, with
``PYTHONDONTWRITEBYTECODE=1``, so each one compiles the package as a fresh
clone does while the standard library keeps its bytecode cache.  The
inputs take turns for RUNS rounds; each gets the median and quartiles of
its wall and child CPU seconds, the sha256 of what it printed, which of
numpy, dataclasses and inspect it loaded, and the sorted akforge submodules
it imported (both read from one more, untimed run under ``-X importtime``).  The record, with the environment, is stored
under ``runs[<label>]`` of ``benchmarks/BENCH_cli.json``; records under
other labels are kept, so one file holds the numbers of two checkouts.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import akforge

from _common import environment, parse_label, store, workloads

OUT = Path(__file__).resolve().parent / "BENCH_cli.json"
RUNS = 15
WORKLOADS = ("member-ladder", "germ-classify", "oracle-crosscheck")
WATCHED = ("numpy", "dataclasses", "inspect")


def cli_inputs() -> dict[str, list[str]]:
    """{input: interpreter arguments} of each workload's CLI run, the bare import, the floor."""
    cases = {}
    for name in WORKLOADS:
        inp = next(i for i in workloads.make_inputs(name, 0) if i.get("role") == "cli")
        cases[inp["id"]] = ["-m", "akforge", *inp["argv"]]
    cases["import akforge.cli"] = ["-c", "import akforge.cli"]
    cases["python -c pass"] = ["-c", "pass"]
    return cases


def run_child(argv: list[str], env: dict, cwd: str) -> tuple[float, float, subprocess.CompletedProcess]:
    """Wall and CPU seconds of one child interpreter, and what it printed."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, env=env, cwd=cwd, timeout=600
    )
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    if proc.returncode != 0:
        raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr.decode()}")
    return wall, cpu, proc


def imported(argv: list[str], env: dict, cwd: str) -> set[str]:
    """The modules one more, untimed run of ``argv`` imports, read from ``-X importtime``."""
    stderr = run_child(["-X", "importtime", *argv], env, cwd)[2].stderr.decode()
    lines = [line for line in stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines}


def summary(times: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def cold_cli(src: Path) -> dict:
    """The record of every CLI input, run RUNS times in turns from a copy of ``src``."""
    cases = cli_inputs()
    with tempfile.TemporaryDirectory() as tmp:
        no_cache = shutil.ignore_patterns("__pycache__")
        shutil.copytree(src / "akforge", Path(tmp, "akforge"), ignore=no_cache)
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        wall = {case: [] for case in cases}
        cpu = {case: [] for case in cases}
        printed = {}
        for _ in range(RUNS):
            for case, argv in cases.items():
                w, c, proc = run_child(argv, env, tmp)
                wall[case].append(w)
                cpu[case].append(c)
                printed[case] = proc.stdout
        loaded = {case: imported(argv, env, tmp) for case, argv in cases.items()}
    return {
        case: {
            "wall_s": summary(wall[case]),
            "cpu_s": summary(cpu[case]),
            "stdout_sha256": hashlib.sha256(printed[case]).hexdigest(),
            "loads": {m: m in loaded[case] for m in WATCHED},
            "akforge_modules": sorted(m for m in loaded[case] if m.startswith("akforge.")),
        }
        for case in cases
    }


def main() -> None:
    label = parse_label(__doc__)
    record = {
        "environment": environment(),
        "runs": RUNS,
        "cold_cli": cold_cli(Path(akforge.__file__).resolve().parents[1]),
    }
    for case, row in record["cold_cli"].items():
        print(case, json.dumps(row), flush=True)
    store(OUT, label, record)


if __name__ == "__main__":
    main()
