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
from the family's sparse shape.  A run still going after 60 s is stopped;
the case is recorded as stopped, and the larger cases of its ladder as
skipped.  It also times the 66 classify germs of perfbench's germ-classify
workload at seed 101 (the two family members of that workload excluded;
texts parsed before timing) and the polynomial-branch germs (y - x^60)^2
and (y - x^500)^2.

Inside each call it splits the time into the coordinate change
(``_y_square_chart``), the branch lift (``_lift``; every evaluation made
inside it, f_y and f_yy on the branch, is counted as lift time) and the
evaluation of f on the branch (``_eval_on_branch`` outside the lift),
whichever order a rung runs them in.  The names are wrapped in
``akforge.classify``; against a checkout that lacks one the script fails
at once instead of timing nothing.  The verdicts are kept (for the germs,
their count and sha256), so two records can be checked for identical
results.  Each case runs up to three times, stopping once 10 s have been
spent on it; the median run is reported.  One more, untimed run counts
the calls of ``akforge._xseries.conv_trunc``, one per XSeries product or
fused product-and-sum, as ``conv_trunc_calls``: the work the branch
evaluations do, apart from the timer.  The record is stored under
``runs[<label>]`` of ``benchmarks/BENCH_classify.json``; records under
other labels are kept.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from pathlib import Path

import akforge._xseries as xseries
import akforge.classify as classify
from akforge.errors import AkforgeError
from akforge.family import build_F
from akforge.poly import parse_poly

from _common import (
    Wrap, environment, median_run, parse_label, run_ladders, store, workloads, wrapped,
)

LAYERS = Wrap(classify, ("_y_square_chart", "_lift", "_eval_on_branch"))
LAYER_KEYS = dict(zip(LAYERS.names, ("coordinates", "lift", "branch_eval")))
# XSeries looks conv_trunc up in its module at call time, so this sees every product
PRODUCTS = Wrap(xseries, ("conv_trunc",))
MEMBERS = (1, 2, 3, 4, 8, 20, 200)
# (unit factor as text, its ladder of s)
UNIT_LADDERS = (
    ("(1+x^27)", (1, 4, 20, 200)),
    ("(1+x)", (20, 200)),
    ("(1+x+y)", (6, 20)),
    ("(1+x)^27", (1, 20, 200)),
)
UNIT_POWERS = (9, 27)
GERM_SEED = 101
OUT = Path(__file__).resolve().parent / "BENCH_classify.json"


def classify_all(germs: list) -> list[str]:
    """The verdict of every germ: its AkResult, or the name of the error raised."""
    verdicts = []
    for f in germs:
        try:
            verdicts.append(repr(classify.split_and_classify(f)))
        except AkforgeError as exc:
            verdicts.append(type(exc).__name__)
    return verdicts


def timed_run(germs: list) -> dict:
    """Classify every germ once with the layers wrapped; times and verdicts."""
    with wrapped(LAYERS) as layer_calls:
        t0 = time.perf_counter()
        verdicts = classify_all(germs)
        total = time.perf_counter() - t0
    spent = layer_calls.seconds
    calls = Counter({LAYER_KEYS[n]: c for n, c in layer_calls.counts.items()})
    calls["eval_in_lift"] = layer_calls.nested["_eval_on_branch"]
    return {
        "verdicts": verdicts if len(verdicts) == 1 else {
            "count": len(verdicts),
            "sha256": hashlib.sha256("\n".join(verdicts).encode()).hexdigest(),
        },
        "total_s": round(total, 4),
        "layers_s": {LAYER_KEYS[n]: round(spent[n], 4) for n in LAYERS.names},
        "other_s": round(total - sum(spent.values()), 4),
        "calls": dict(sorted((+calls).items())),
    }


def measure(germs: list) -> dict:
    """The median timed run, and the conv_trunc calls of one untimed run."""
    row = median_run(lambda: timed_run(germs))
    if "stopped" not in row:
        with wrapped(PRODUCTS) as products:
            classify_all(germs)
        row["conv_trunc_calls"] = products.counts["conv_trunc"]
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
        for inp in workloads.germ_classify(GERM_SEED, small=False)
        if inp["op"] == "classify" and not inp["id"].startswith("F(")
    ]
    name = f"germ-classify seed {GERM_SEED} ({len(germ_texts)} germs)"
    out.append((name, None, [parse_poly(t) for t in germ_texts]))
    out += [(text, None, [parse_poly(text)]) for text in ("(y - x^60)^2", "(y - x^500)^2")]
    return out


def main() -> None:
    label = parse_label(__doc__)
    classify.split_and_classify(build_F(0).F)  # warm-up
    rows = run_ladders(cases(), measure)
    record = {
        "environment": environment(),
        "medians_over": "up to 3 runs per case, stopping after 10 s",
        "cases": rows,
    }
    store(OUT, label, record)


if __name__ == "__main__":
    main()
