"""What the ``bench_*.py`` scripts share: the environment and the JSON store.

Each script runs as ``python3 benchmarks/bench_<name>.py``, so this
directory is first on ``sys.path`` and ``from _common import ...`` finds
this module.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from importlib.metadata import PackageNotFoundError, version
from pathlib import Path

import akforge


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


def store(path: Path, label: str, record: dict) -> None:
    """Write ``record`` as ``runs[label]`` of the JSON file, keeping the other labels."""
    data = json.loads(path.read_text()) if path.exists() else {"runs": {}}
    data["runs"][label] = record
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
