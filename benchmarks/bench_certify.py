"""Stage-by-stage timing of the family certifier, ``certify_member(s)``.

    PYTHONPATH=src python3 benchmarks/bench_certify.py --label after
    PYTHONPATH=<other checkout>/src python3 benchmarks/bench_certify.py --label before

For s = 0, 1, 2, 4, 20, 100, 10^3, 10^5 and 10^7 it times the four stages
of the certificate one after the other, as ``certify_member`` runs them:

- ``build_eq2``: ``build_F`` and the exact residual check ``verify_eq2``;
- ``invert_change``: the weighted series y(x, z) with z = y - A(x, y);
- ``compose_curve``: F(x, y(x, z)) in the window;
- ``newton_ak_certify``: the Newton-segment check of that window.

Each member runs five times; every stage and the total report the median
run.  The record keeps the sha256 of the canonical certificate bytes (as
``akforge construct --s N`` prints them) and the term counts of the series
and the window, so two records can be checked for identical output.  It
is stored under ``runs[<label>]`` of ``benchmarks/BENCH_certify.json``;
records under other labels are kept.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from pathlib import Path

from akforge.classify import newton_ak_certify
from akforge.family import build_F, certify_member, verify_eq2
from akforge.series import Weights, compose_curve, invert_change

from _common import environment, parse_label, store

MEMBERS = (0, 1, 2, 4, 20, 100, 10**3, 10**5, 10**7)
REPEATS = 5
STAGES = ("build_eq2", "invert_change", "compose_curve", "newton_ak_certify")
OUT = Path(__file__).resolve().parent / "BENCH_certify.json"


def timed_run(s: int) -> tuple[dict[str, float], dict]:
    """Seconds per stage of one certification of member s, and its sizes."""
    t0 = time.perf_counter()
    inst = build_F(s)
    verify_eq2(inst)
    t1 = time.perf_counter()
    k = inst.params.k
    y_series = invert_change(inst.A, Weights(2, k + 1), 2 * (k + 1))
    t2 = time.perf_counter()
    window = compose_curve(inst.F, y_series)
    t3 = time.perf_counter()
    newton = newton_ak_certify(window, k)
    t4 = time.perf_counter()
    if not newton.certified:
        raise AssertionError(f"member {s} was not certified")
    sizes = {"y_terms": len(y_series.body), "window_terms": len(window.body)}
    return dict(zip(STAGES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3))), sizes


def measure(s: int) -> dict:
    runs = [timed_run(s) for _ in range(REPEATS)]
    cert = certify_member(s).to_json_dict()
    text = json.dumps(cert, indent=2, sort_keys=True) + "\n"
    totals = [sum(stages.values()) for stages, _ in runs]
    return {
        "k": cert["family"]["k"],
        "cert_sha256": hashlib.sha256(text.encode()).hexdigest(),
        **runs[0][1],
        "stages_median_s": {
            name: round(statistics.median(stages[name] for stages, _ in runs), 5)
            for name in STAGES
        },
        "total_median_s": round(statistics.median(totals), 5),
        "total_runs_s": [round(t, 5) for t in totals],
    }


def main() -> None:
    label = parse_label(__doc__)
    certify_member(0)  # warm-up
    rows = {}
    for s in MEMBERS:
        rows[str(s)] = measure(s)
        print(s, json.dumps(rows[str(s)]), flush=True)
    record = {
        "environment": environment(),
        "medians_over": f"{REPEATS} runs per member",
        "cases": rows,
    }
    store(OUT, label, record)


if __name__ == "__main__":
    main()
