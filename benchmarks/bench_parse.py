"""Timing of the polynomial text parser, ``parse_poly``, on the texts users hand it.

    PYTHONPATH=src python3 benchmarks/bench_parse.py --label after
    PYTHONPATH=<other checkout>/src python3 benchmarks/bench_parse.py --label before

Times ``parse_poly`` on these cases, each a list of texts parsed one after
another:

- the germ texts of perfbench's germ-classify and of oracle-crosscheck at
  seeds 101, 102 and 103, one case per workload (the family members
  excluded);
- the family members F(1) and F(2), written as their defining formula;
- the expanded text of (1 + x + y)^40 (861 terms, about 21 KB);
- ``(1 + x + y)^40`` itself, whose time is spent expanding the power, not
  reading the text.

Each case runs RUNS times in turn with the others; it gets the median and
quartiles of its seconds, the number of tokens its texts lex to (read from
``akforge.poly._tokenize``), and the count and sha256 of the parsed
polynomials, written back as text, so two records can be checked for
identical results.  The record, with the environment, is stored under
``runs[<label>]`` of ``benchmarks/BENCH_parse.json``; records under other
labels are kept.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from pathlib import Path

from akforge import poly
from akforge.poly import parse_poly

from _common import environment, parse_label, store, workloads

OUT = Path(__file__).resolve().parent / "BENCH_parse.json"
RUNS = 21
SEEDS = (101, 102, 103)
POWER = "(1 + x + y)^40"


def germ_texts(workload: str) -> list[str]:
    """The "poly" text of every input of ``workload`` at SEEDS, family members excluded."""
    return [
        inp["poly"]
        for seed in SEEDS
        for inp in workloads.make_inputs(workload, seed)
        if "poly" in inp and not inp["id"].startswith("F(")
    ]


def cases() -> dict[str, list[str]]:
    out = {
        f"{name} germs, seeds {SEEDS[0]}-{SEEDS[-1]}": germ_texts(name)
        for name in ("germ-classify", "oracle-crosscheck")
    }
    out.update({f"F({s})": [workloads.family_text(s)] for s in (1, 2)})
    out[f"expanded {POWER}"] = [parse_poly(POWER).to_text()]
    out[POWER] = [POWER]
    return out


def timed(texts: list[str]) -> float:
    t0 = time.perf_counter()
    for text in texts:
        parse_poly(text)
    return time.perf_counter() - t0


def main() -> None:
    label = parse_label(__doc__)
    texts = cases()
    seconds: dict[str, list[float]] = {name: [] for name in texts}
    for _ in range(RUNS):
        for name, case in texts.items():
            seconds[name].append(timed(case))
    rows = {}
    for name, case in texts.items():
        q1, median, q3 = statistics.quantiles(seconds[name], n=4)
        written = "\n".join(parse_poly(text).to_text() for text in case)
        rows[name] = {
            "texts": len(case),
            "chars": sum(map(len, case)),
            "tokens": sum(len(poly._tokenize(text)) for text in case),
            "seconds": {"median": round(median, 5), "q1": round(q1, 5), "q3": round(q3, 5)},
            "polys_sha256": hashlib.sha256(written.encode()).hexdigest(),
        }
        print(name, rows[name], flush=True)
    store(OUT, label, {"environment": environment(), "runs": RUNS, "cases": rows})


if __name__ == "__main__":
    main()
