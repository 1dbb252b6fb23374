"""The timing harness that the ``benchmarks/bench_*.py`` scripts share, on fake runs.

    PYTHONPATH=src python3 -m pytest tests/test_bench_harness.py

Every name a script wraps must exist in the akforge module it wraps: a
wrapped name deleted from ``src/`` would otherwise surface only when the
script is next run.
"""

from __future__ import annotations

import importlib
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCH))
import _common  # noqa: E402

SCRIPTS = sorted(path.stem for path in BENCH.glob("bench_*.py"))


def fake_run(seconds: float):
    """A run that sleeps ``seconds`` and reports them as its total."""

    def run():
        time.sleep(seconds)
        return {"total_s": seconds}

    return run


def test_stopped_run_and_the_rest_of_its_ladder(monkeypatch, capsys):
    monkeypatch.setattr(_common, "STOP_AFTER_S", 1)
    cases = [("a", "L", 0), ("b", "L", 30), ("c", "L", 0), ("d", None, 0), ("e", "M", 0)]
    rows = _common.run_ladders(cases, lambda t: _common.median_run(fake_run(t)), prefix="s=")
    assert rows["a"] == rows["d"] == rows["e"] == {"total_s": 0, "repeats": 3}
    assert rows["b"] == {"stopped": "one run passed 1 s"}
    assert rows["c"] == {
        "skipped": "s=b was stopped after 1 s, so the larger cases of its ladder were not run"
    }
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == ["s=a", "s=b", "s=c", "s=d", "s=e"]


def test_median_of_three_is_the_middle_run():
    totals = iter([3.0, 1.0, 2.0])
    assert _common.median_run(lambda: {"total_s": next(totals)}) == {
        "total_s": 2.0,
        "repeats": 3,
    }
    totals = iter([6.0, 5.0, 1.0])  # 10 s are spent after two runs
    assert _common.median_run(lambda: {"total_s": next(totals)}) == {
        "total_s": 6.0,
        "repeats": 2,
    }


def test_frontier_reads_the_largest_s_within_each_budget():
    rows = {"1": {"t": 0.5}, "10": {"t": 5.0}, "100": {"t": 50.0}, "1000": {"stopped": "."}}
    assert list(_common.frontier(rows, "t").values()) == [1, 10]
    assert list(_common.frontier({"1": {"t": 20.0}}, "t").values()) == [None, None]


def test_wrapped_functions_are_restored_after_the_run_raises():
    module = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return 2 * module.inner(x)

    def boom():
        raise RuntimeError("boom")

    module.inner, module.outer, module.boom = inner, outer, boom
    seen = []
    with pytest.raises(RuntimeError, match="boom"):
        with _common.wrapped(
            _common.Wrap(module, ("inner", "outer", "boom")),
            lambda name, args, out: seen.append((name, args, out)),
        ) as calls:
            assert module.outer(1) == 4
            assert module.inner is not inner
            module.boom()
    assert (module.inner, module.outer, module.boom) == (inner, outer, boom)
    assert calls.counts == {"outer": 1, "boom": 1}
    assert calls.nested == {"inner": 1}
    assert set(calls.seconds) == {"outer", "boom"}
    assert seen == [("inner", (1,), 2), ("outer", (1,), 4)]


def test_wrapping_a_missing_name_raises_and_wraps_nothing():
    module = types.ModuleType("fake")
    module.present = present = lambda: None
    with pytest.raises(AttributeError):
        with _common.wrapped(_common.Wrap(module, ("present", "missing"))):
            pass
    assert module.present is present


@pytest.mark.parametrize("script", SCRIPTS)
def test_every_wrapped_name_exists(script):
    bench = importlib.import_module(script)
    wraps = [value for value in vars(bench).values() if isinstance(value, _common.Wrap)]
    # every Wrap a script builds is a module-level constant, so all are seen here
    assert len(wraps) == (BENCH / f"{script}.py").read_text().count("Wrap(")
    for wrap in wraps:
        assert wrap.module.__name__.startswith("akforge.")
        missing = [name for name in wrap.names if not callable(getattr(wrap.module, name, None))]
        assert not missing, f"{script} wraps {missing}, missing from {wrap.module.__name__}"
