"""Layer-by-layer timing of the splitting-lemma classifier.

    PYTHONPATH=src python3 benchmarks/bench_classify.py --label after
    PYTHONPATH=<other checkout>/src python3 benchmarks/bench_classify.py --label before

Times ``split_and_classify`` on these ladders, each run in increasing order:

- the family members F(1)..F(4), F(8), F(20) and F(200);
- the unit-factor members F(s)*(1 + x^27) for s = 1, 4, 20, 200,
  F(s)*(1 + x) for s = 20, 200, F(s)*(1 + x + y) for s = 6, 20, and
  F(s)*(1 + x)^27 for s = 1, 20, 200 (degree 28s + 36: a degree that is
  not 9 mod 28);
- F(1)*(1 + x + y)^e for e = 9, 27.

A unit factor u (u(0) != 0) keeps the type of the germ but enters f_y and
f_yy, so these ladders time the classifier's division and Horner sums away
from the family's sparse shape.  A run still
going after 60 s is stopped; the case is recorded as stopped, and the
larger cases of its ladder as skipped, with that reason, instead of being
run.  It also times the 66 classify germs of perfbench's germ-classify
workload at seed 101 (the two family members of that workload excluded;
texts parsed before timing) and the polynomial-branch germs (y - x^60)^2
and (y - x^500)^2.

Inside each call it splits the time into the coordinate change
(``_y_square_chart``, or the older ``_rotate_corank_one``), the branch lift
(``_lift``, or the older ``_newton_branch``; every evaluation made inside
it, f_y and f_yy on the branch, is counted as lift time) and the evaluation
of f on the branch (``_eval_on_branch`` outside the lift), whichever order
a rung runs them in.  The names are wrapped in ``akforge.classify``, so the
script runs unchanged against a checkout that has either set.  The verdicts
are kept (for the germs, their count and sha256), so two records can be
checked for identical results.  Each case runs up to three times, stopping
once 10 s have been spent on it; the median run is reported.  The record
is stored under ``runs[<label>]`` of ``benchmarks/BENCH_classify.json``;
records under other labels are kept.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import signal
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import akforge.classify as classify
from akforge.errors import AkforgeError
from akforge.family import build_F
from akforge.poly import parse_poly

from _common import environment, store

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.workloads import germ_classify  # noqa: E402

COORDINATES = ("_y_square_chart", "_rotate_corank_one")
LIFTS = ("_lift", "_newton_branch")
MEMBERS = (1, 2, 3, 4, 8, 20, 200)
# (unit factor as text, its ladder of s)
UNIT_LADDERS = (
    ("(1+x^27)", (1, 4, 20, 200)),
    ("(1+x)", (20, 200)),
    ("(1+x+y)", (6, 20)),
    ("(1+x)^27", (1, 20, 200)),
)
UNIT_POWERS = (9, 27)
STOP_AFTER_S = 60
GERM_SEED = 101
OUT = Path(__file__).resolve().parent / "BENCH_classify.json"


def timed_run(germs: list) -> dict:
    """Classify every germ once with the layers wrapped; times and verdicts."""
    spent: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    inside_lift = [0]
    names = [n for n in (*COORDINATES, *LIFTS, "_eval_on_branch") if hasattr(classify, n)]
    originals = {name: getattr(classify, name) for name in names}

    def wrap(name, fn):
        layer = (
            "coordinates" if name in COORDINATES else "lift" if name in LIFTS else "branch_eval"
        )

        def inner(*args, **kwargs):
            if layer == "branch_eval" and inside_lift[0]:
                calls["eval_in_lift"] += 1
                return fn(*args, **kwargs)
            calls[layer] += 1
            inside_lift[0] += layer == "lift"
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[layer] += time.perf_counter() - t0
                inside_lift[0] -= layer == "lift"

        return inner

    for name, fn in originals.items():
        setattr(classify, name, wrap(name, fn))
    verdicts = []
    try:
        t0 = time.perf_counter()
        for f in germs:
            try:
                verdicts.append(repr(classify.split_and_classify(f)))
            except AkforgeError as exc:
                verdicts.append(type(exc).__name__)
        total = time.perf_counter() - t0
    finally:
        for name, fn in originals.items():
            setattr(classify, name, fn)
    layers = {name: round(spent[name], 4) for name in ("coordinates", "lift", "branch_eval")}
    return {
        "verdicts": verdicts if len(verdicts) == 1 else {
            "count": len(verdicts),
            "sha256": hashlib.sha256("\n".join(verdicts).encode()).hexdigest(),
        },
        "total_s": round(total, 4),
        "layers_s": layers,
        "other_s": round(total - sum(spent.values()), 4),
        "calls": dict(sorted(calls.items())),
    }


class OverLimit(Exception):
    """Raised in a run that passes STOP_AFTER_S."""


def _over_limit(signum, frame):
    raise OverLimit


def measure(germs: list) -> dict:
    runs = []
    while len(runs) < 3 and sum(r["total_s"] for r in runs) < 10.0:
        signal.alarm(STOP_AFTER_S)
        try:
            runs.append(timed_run(germs))
        except OverLimit:
            return {"stopped": f"one run passed {STOP_AFTER_S} s"}
        finally:
            signal.alarm(0)
    runs.sort(key=lambda r: r["total_s"])
    row = dict(runs[len(runs) // 2])
    row["repeats"] = len(runs)
    return row


def cases() -> list[tuple[str, str | None, list]]:
    """(name, ladder or None, germs) of every case, each ladder in increasing order."""
    out = [(f"F({s})", "F(s)", [build_F(s).F]) for s in MEMBERS]
    for unit, ladder in UNIT_LADDERS:
        u = parse_poly(unit)
        out += [(f"F({s})*{unit}", f"F(s)*{unit}", [build_F(s).F * u]) for s in ladder]
    out += [
        (f"F(1)*(1+x+y)^{e}", "F(1)*(1+x+y)^e", [build_F(1).F * parse_poly(f"(1 + x + y)^{e}")])
        for e in UNIT_POWERS
    ]
    germ_texts = [
        inp["poly"]
        for inp in germ_classify(GERM_SEED, small=False)
        if inp["op"] == "classify" and not inp["id"].startswith("F(")
    ]
    name = f"germ-classify seed {GERM_SEED} ({len(germ_texts)} germs)"
    out.append((name, None, [parse_poly(t) for t in germ_texts]))
    out += [(text, None, [parse_poly(text)]) for text in ("(y - x^60)^2", "(y - x^500)^2")]
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="key of this record in the JSON")
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _over_limit)
    classify.split_and_classify(build_F(0).F)  # warm-up
    rows = {}
    stopped: dict[str, str] = {}
    for name, ladder, germs in cases():
        if ladder in stopped:
            rows[name] = {
                "skipped": f"{stopped[ladder]} was stopped after {STOP_AFTER_S} s, "
                "so the larger cases of its ladder were not run"
            }
        else:
            rows[name] = measure(germs)
            if ladder and "stopped" in rows[name]:
                stopped[ladder] = name
        print(name, json.dumps(rows[name]), flush=True)
    record = {
        "environment": environment(),
        "medians_over": "up to 3 runs per case, stopping after 10 s",
        "cases": rows,
    }
    store(OUT, args.label, record)


if __name__ == "__main__":
    main()
