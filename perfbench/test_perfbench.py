"""The benchmark's own test: every workload at minimal size.

    python3 -m pytest perfbench

It checks that each run prints exactly the metrics BENCHMARK.json declares,
with their units, and that a traced pass is consistent: no span's self time
exceeds its duration, no span's children outlast it, and the top-level
spans fit inside the pass wall time.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--small"],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=170,
        check=False,
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_metrics_match_benchmark_json(workload, trace, section):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_are_consistent(workload, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import worker
    from workloads import make_inputs

    result, tracer = worker.run_pass(make_inputs(workload, 3, small=True), trace=True)
    assert all(r["ok"] for r in result["inputs"]), result["inputs"]
    assert tracer.spans and all(end is not None for _, _, end, _, _ in tracer.spans)
    for name, start, end, _, child in tracer.spans:
        duration = end - start
        assert 0 <= duration - child <= duration, name
    top_level = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
    assert top_level <= result["wall_s"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
