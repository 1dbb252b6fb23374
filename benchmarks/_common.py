"""What the ``bench_*.py`` scripts share: the timing harness and the JSON store.

Each script runs as ``python3 benchmarks/bench_<name>.py --label <label>``,
so this directory is first on ``sys.path`` and ``from _common import ...``
finds this module.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterable, Iterator, NamedTuple

import akforge

# perfbench/ is no package on the path of an installed akforge; its seeded
# workloads are read from the checkout the scripts sit in.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import workloads  # noqa: E402

STOP_AFTER_S = 60
BUDGETS_S = (1.0, 10.0)


def git(src: Path, *argv: str) -> str:
    run = subprocess.run(["git", "-C", str(src), *argv], capture_output=True, text=True)
    return run.stdout.strip()


def checkout(src: Path) -> dict:
    """The commit of the checkout holding ``src`` and whether ``src`` differs from it."""
    return {
        "commit": git(src, "rev-parse", "HEAD") or None,
        "uncommitted_changes": bool(git(src, "status", "--porcelain", "--", ".")),
    }


def environment() -> dict:
    """Interpreter, numpy, machine, the measured akforge commit and the prime seed.

    numpy's version is read from its metadata, so recording it does not
    import numpy into a process that otherwise never loads it.
    """
    try:
        numpy = version("numpy")
    except PackageNotFoundError:
        numpy = None
    measured = checkout(Path(akforge.__file__).resolve().parent)
    return {
        "python": platform.python_version(),
        "numpy": numpy,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "akforge_commit": measured["commit"],
        "akforge_uncommitted_changes": measured["uncommitted_changes"],
        "AKFORGE_PRIME_SEED": os.environ.get("AKFORGE_PRIME_SEED"),
    }


def parse_label(doc: str) -> str:
    """The script's ``--label``: the key its record is stored under."""
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this record in the JSON")
    return ap.parse_args().label


def store(path: Path, label: str, record: dict) -> None:
    """Write ``record`` as ``runs[label]`` of the JSON file, keeping the other labels."""
    data = json.loads(path.read_text()) if path.exists() else {"runs": {}}
    data["runs"][label] = record
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


class OverLimit(Exception):
    """Raised in a run that passes STOP_AFTER_S."""


def _over_limit(signum, frame):
    raise OverLimit


def median_run(run: Callable[[], dict]) -> dict:
    """The median of up to three ``run()`` results by their "total_s", with "repeats".

    Runs stop once their "total_s" add up to 10 s.  A run still going after
    STOP_AFTER_S is interrupted, and the result is {"stopped": ...} instead.
    """
    runs: list[dict] = []
    signal.signal(signal.SIGALRM, _over_limit)
    while len(runs) < 3 and sum(r["total_s"] for r in runs) < 10.0:
        signal.alarm(STOP_AFTER_S)
        try:
            runs.append(run())
        except OverLimit:
            return {"stopped": f"one run passed {STOP_AFTER_S} s"}
        finally:
            signal.alarm(0)
    runs.sort(key=lambda r: r["total_s"])
    return {**runs[len(runs) // 2], "repeats": len(runs)}


def run_ladders(cases: Iterable[tuple], measure: Callable, prefix: str = "") -> dict[str, dict]:
    """{name: measure(arg)} over the (name, ladder, arg) cases, printed as they finish.

    Once a case is stopped, the later cases of its ladder are recorded as
    skipped instead of being run; a case whose ladder is None stands alone.
    """
    rows: dict[str, dict] = {}
    stopped: dict[str, str] = {}
    for name, ladder, arg in cases:
        if ladder in stopped:
            rows[name] = {
                "skipped": f"{prefix}{stopped[ladder]} was stopped after {STOP_AFTER_S} s, "
                "so the larger cases of its ladder were not run"
            }
        else:
            rows[name] = measure(arg)
            if ladder is not None and "stopped" in rows[name]:
                stopped[ladder] = name
        print(f"{prefix}{name}", json.dumps(rows[name]), flush=True)
    return rows


def frontier(rows: dict[str, dict], seconds: str) -> dict:
    """The largest s (a key of ``rows``) whose row's ``seconds`` is within each budget."""
    out = {}
    for budget in BUDGETS_S:
        done = [s for s, row in rows.items() if row.get(seconds, budget + 1) <= budget]
        out[f"largest_s_within_{budget:g}s"] = max(map(int, done), default=None)
    return out


class Wrap(NamedTuple):
    """Functions of an akforge module, by name, that a script wraps.

    Scripts define their Wraps at module level, so a test can check that
    every name still exists in its module.
    """

    module: ModuleType
    names: tuple[str, ...]


@dataclass
class Calls:
    """What ``wrapped`` saw: the seconds and count of the outermost calls of
    each name, and the count of calls made inside another wrapped call,
    whose time counts toward that outer call."""

    seconds: defaultdict = field(default_factory=lambda: defaultdict(float))
    counts: Counter = field(default_factory=Counter)
    nested: Counter = field(default_factory=Counter)


@contextmanager
def wrapped(target: Wrap, after: Callable | None = None) -> Iterator[Calls]:
    """Time the calls of ``target``'s functions inside the block, then restore them.

    ``after(name, args, out)``, if given, runs after each call returns,
    outside its timed span.
    """
    calls = Calls()
    depth = [0]

    def wrap(name, fn):
        def inner(*args, **kwargs):
            if depth[0]:
                calls.nested[name] += 1
                out = fn(*args, **kwargs)
            else:
                calls.counts[name] += 1
                depth[0] += 1
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    calls.seconds[name] += time.perf_counter() - t0
                    depth[0] -= 1
            if after is not None:
                after(name, args, out)
            return out

        return inner

    originals = {name: getattr(target.module, name) for name in target.names}
    try:
        for name, fn in originals.items():
            setattr(target.module, name, wrap(name, fn))
        yield calls
    finally:
        for name, fn in originals.items():
            setattr(target.module, name, fn)
