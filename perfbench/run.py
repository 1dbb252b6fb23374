"""akforge benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--small]

The workloads, metrics and the layer each per-layer metric belongs to are
described in README.md next to this file and named in BENCHMARK.json.

Closed loop with a single client: the inputs of a workload run one after
another, each started when the previous one has its verdict.  The inputs
run as passes; every pass is a fresh worker process (worker.py), so each
pass starts from the same state and measures its own set-up, and passes
run one after another for about --seconds.  Every verdict is checked
against its known answer.

The last stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}; the lines before it record the environment and print every
metric with its unit and sample count.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 passes alternate untraced and traced and
the metrics are the per-layer ones plus the tracing overhead.  A wrong
verdict makes the exit code 1, a missing or crashing program 2.  --small
runs each workload at minimal size, for the benchmark's own test.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metric_names
from workloads import WORKLOADS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PRIME_SEED = "1729"
# A run must end within 180 s; leave room for the last pass to finish.
RUN_BUDGET_S = 170.0
# Typical time of worker.reference_time() on the machine the benchmark was
# tuned on (2-core x86-64 container, Python 3.11).  Timings are reported in
# seconds at that reference speed: a pass's raw seconds times NOMINAL_REF_S
# over the median reference time measured during the pass.  This scales
# out the drift of a shared machine's speed between passes and runs.
NOMINAL_REF_S = 0.007

END_TO_END = {
    "wall_s": "s",
    "verdict_p50_s": "s",
    "verdict_p90_s": "s",
    "heavy_s": "s",
    "cli_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "AKFORGE_BACKEND"}
    env["AKFORGE_PRIME_SEED"] = PRIME_SEED
    env["PYTHONPATH"] = str(SRC)
    return env


def environment(args) -> dict:
    def present(module: str) -> bool:
        return importlib.util.find_spec(module) is not None

    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba": present("numba"),
        "gmpy2": present("gmpy2"),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "small": args.small,
        "AKFORGE_PRIME_SEED": PRIME_SEED,
        "AKFORGE_BACKEND": None,
    }


def run_worker(inputs: list[dict], traced: bool, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if traced else [])
    start = time.perf_counter()
    proc = subprocess.run(
        cmd,
        input=json.dumps(inputs),
        capture_output=True,
        text=True,
        env=worker_env(),
        cwd=ROOT,
        timeout=timeout,
        check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["traced"] = traced
    result["elapsed"] = time.perf_counter() - start
    return result


def run_passes(inputs: list[dict], seconds: int, trace: bool) -> list[dict]:
    """Fresh-process passes while the next one would end by `seconds` plus
    half a pass, so that a run lasts about `seconds` on average.

    Traced runs alternate untraced and traced passes, starting untraced,
    so the tracing overhead is measured within one run."""
    min_passes = 2 if trace else 1
    start = time.perf_counter()
    passes: list[dict] = []
    while True:
        elapsed = time.perf_counter() - start
        traced = trace and len(passes) % 2 == 1
        passes.append(run_worker(inputs, traced, RUN_BUDGET_S - elapsed))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["elapsed"] for p in passes)
        if len(passes) >= min_passes and elapsed + typical / 2 > seconds:
            return passes
        if elapsed + typical > RUN_BUDGET_S:
            return passes


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile of a non-empty list."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_quantile(n: int) -> float:
    """0.9, or lower so that at least 10 of n samples lie beyond it."""
    return min(0.9, (n - 10) / n) if n > 20 else 0.9


def speed(p: dict) -> float:
    """Factor from a pass's raw seconds to seconds at the reference speed."""
    return NOMINAL_REF_S / statistics.median(p["refs"])


def busy_s(p: dict) -> float:
    """A pass's summed input time at the reference speed."""
    return speed(p) * sum(r["t"] for r in p["inputs"])


def end_to_end(inputs: list[dict], passes: list[dict]) -> tuple[dict, dict, dict]:
    """Metric values, sample counts and per-input medians from untraced passes."""
    per_input = {
        inp["id"]: statistics.median(speed(p) * p["inputs"][i]["t"] for p in passes)
        for i, inp in enumerate(inputs)
    }
    heavy = next(inp["id"] for inp in inputs if inp.get("role") == "heavy")
    cli = next(inp["id"] for inp in inputs if inp.get("role") == "cli")
    times = list(per_input.values())
    n_pass, n_in = len(passes), len(times)
    values = {
        "wall_s": statistics.median(busy_s(p) for p in passes),
        "verdict_p50_s": statistics.median(times),
        "verdict_p90_s": quantile(times, tail_quantile(n_in)),
        "heavy_s": per_input[heavy],
        "cli_s": per_input[cli],
        "setup_s": statistics.median(speed(p) * p["setup_s"] for p in passes),
        "peak_rss_mib": statistics.median(p["rss_mib"] for p in passes),
    }
    samples = {
        "wall_s": f"{n_pass} passes",
        "verdict_p50_s": f"{n_in} inputs x {n_pass} passes",
        "verdict_p90_s": f"q={tail_quantile(n_in):.3f} of {n_in} inputs x {n_pass} passes",
        "heavy_s": f"{heavy}, {n_pass} passes",
        "cli_s": f"{cli}, {n_pass} passes",
        "setup_s": f"{n_pass} processes",
        "peak_rss_mib": f"{n_pass} processes",
    }
    return values, samples, per_input


def per_layer(passes: list[dict]) -> tuple[dict, dict]:
    """Per-layer medians over traced passes, span times at the reference
    speed."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]

    def value(p: dict, name: str) -> float:
        v = p["layers"][name]
        return v * speed(p) if unit_of(name) == "s" else v

    values = {
        name: statistics.median(value(p, name) for p in traced)
        for name in layer_metric_names()
    }
    values["trace.overhead_s"] = statistics.median(
        busy_s(p) for p in traced
    ) - statistics.median(busy_s(p) for p in plain)
    values["trace.spans"] = statistics.median(p["spans"] for p in traced)
    n = f"{len(traced)} traced passes"
    samples = {name: n for name in values}
    samples["trace.overhead_s"] = f"{len(traced)} traced vs {len(plain)} untraced passes"
    return values, samples


def unit_of(name: str) -> str:
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "akforge" / "__init__.py").is_file():
        sys.stderr.write(f"error: no akforge sources under {SRC}\n")
        return 2

    inputs = make_inputs(args.workload, args.seed, args.small)
    print(json.dumps({"environment": environment(args)}))
    try:
        passes = run_passes(inputs, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    attempted = sum(len(p["inputs"]) for p in passes)
    wrong = [r for p in passes for r in p["inputs"] if not r["ok"]]
    for r in wrong[:10]:
        sys.stderr.write(f"wrong verdict: {r['id']}: {r['got']}\n")

    if args.trace:
        values, samples = per_layer(passes)
        units = {name: unit_of(name) for name in values}
    else:
        values, samples, per_input = end_to_end(inputs, passes)
        units = END_TO_END
        raw_wall = statistics.median(p["wall_s"] for p in passes)
        print(f"# unscaled: median pass wall time {raw_wall:.4f} s")
        for inp in inputs:  # the fixed inputs, not the seeded germs
            if "germ" not in inp["id"]:
                t = per_input[inp["id"]]
                print(f"# input {inp['id']}: {t:.6f} s median of {len(passes)} passes")
    print(f"# failed_frac = {len(wrong) / attempted:.6f} ({len(wrong)} of {attempted} verdicts)")
    for name, value in values.items():
        print(f"# {name} = {value:.6g} {units[name]} ({samples[name]})")
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": attempted,
                "failed": len(wrong),
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0 if not wrong else 1


if __name__ == "__main__":
    raise SystemExit(main())
