"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py [--trace] < inputs.json

stdin holds the input list made by workloads.make_inputs.  stdout receives
one JSON object: the set-up time (import of akforge plus warm-up), the pass
wall time, each input's time and verdict, the peak RSS and, for a traced
pass, the per-layer totals.  akforge must come from the src/ directory next
to this one; run.py puts it on PYTHONPATH, and the CLI child gets the same.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # before akforge and numpy are imported

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from fractions import Fraction  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer, installed, merge_totals  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CLI_TIMEOUT_S = 150
# A shared machine's speed drifts by 10-20% over seconds to minutes.  A fixed
# reference workload, timed between inputs at least this often, measures
# that speed so that run.py can scale it out of the pass's times.
REF_INTERVAL_S = 0.5


def _reference_once() -> float:
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(4000):
        table[i & 1023] = table.get(i & 1023, 0) + i * i
    big = int.from_bytes(bytes(range(256)) * 32, "little")
    for _ in range(2):
        big = (big * big) >> big.bit_length()
    packed = big.to_bytes((big.bit_length() + 7) // 8, "little")
    words = [int.from_bytes(packed[k : k + 8], "little") for k in range(0, 8192, 8)]
    q = Fraction(0)
    for w in words[:300]:
        q += Fraction(w % 97, 1 + w % 89)
    a = np.arange(40000, dtype=np.int64)
    for _ in range(10):
        a = (a * 48271 + 11) % 2147483647
    return time.perf_counter() - t0


def reference_time() -> float:
    """Median of three timings of a fixed workload that mixes what akforge
    spends its time on: interpreted dict and int loops, big-integer
    products, byte packing, Fraction sums and int64 numpy arithmetic.  It
    never touches akforge."""
    return statistics.median(_reference_once() for _ in range(3))


def plain_api() -> dict:
    """akforge's entry points, unwrapped, from this checkout's src/."""
    import akforge

    where = Path(akforge.__file__).resolve().parent
    if where != SRC / "akforge":
        raise ImportError(f"akforge imported from {where}, expected {SRC / 'akforge'}")
    return {
        "parse_poly": akforge.parse_poly,
        "split_and_classify": akforge.split_and_classify,
        "milnor_number": akforge.milnor_number,
        "milnor_resultant": akforge.milnor_resultant,
        "build_F": akforge.build_F,
        "certify_member": akforge.certify_member,
        "steenbrink_inertia": akforge.steenbrink_inertia,
        "upper_bound": akforge.upper_bound,
    }


def warm_up(api: dict, inputs: list[dict]) -> None:
    """One tiny call per operation the pass uses, so lazy imports and
    first-call costs land in set-up rather than in the first input."""
    ops = {inp["op"] for inp in inputs}
    germ = api["parse_poly"]("y^2 + x^3")
    if "certify" in ops:
        api["certify_member"](0)
    if "classify" in ops:
        api["split_and_classify"](germ)
    if "milnor" in ops:
        api["milnor_number"](germ, arithmetic="exact")
        api["milnor_number"](germ, arithmetic="modular")
    if "resultant" in ops:
        api["milnor_resultant"](germ, arithmetic="exact")
        api["milnor_resultant"](germ, arithmetic="modular")
    if "bounds" in ops:
        api["steenbrink_inertia"](3)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv: list[str], traced: bool) -> tuple[dict, dict | None]:
    """Run the akforge CLI in a child process; return what it printed and,
    when traced, the child's per-layer totals."""
    if traced:
        cmd = [sys.executable, str(HERE / "cli_traced.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "akforge", *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        cmd, capture_output=True, env=env, timeout=CLI_TIMEOUT_S, check=False
    )
    observed = {"exit": proc.returncode, "sha256": _sha256(proc.stdout)}
    with contextlib.suppress(ValueError):
        payload = json.loads(proc.stdout)
        if isinstance(payload, dict):
            observed.update(payload)
    child = None
    if traced:
        child = json.loads(proc.stderr.decode().splitlines()[-1])
    return observed, child


def observe(api: dict, inp: dict, traced: bool) -> tuple[dict, dict | None]:
    """Turn one input into the observations its `expect` is checked against."""
    op = inp["op"]
    if op == "certify":
        cert = api["certify_member"](inp["s"])
        text = json.dumps(cert.to_json_dict(), indent=2, sort_keys=True) + "\n"
        return {"sha256": _sha256(text.encode())}, None
    if op == "classify":
        result = api["split_and_classify"](api["parse_poly"](inp["poly"]))
        return {"kind": result.kind, "k": result.k}, None
    if op in ("milnor", "resultant"):
        if "family" in inp:
            f = api["build_F"](inp["family"]).F
        else:
            f = api["parse_poly"](inp["poly"])
        if op == "milnor":
            report = api["milnor_number"](
                f, expected=inp.get("hint"), arithmetic=inp["arithmetic"]
            )
        else:
            report = api["milnor_resultant"](f, arithmetic=inp["arithmetic"])
        return {"mu": report.mu}, None
    if op == "bounds":
        ok = all(
            api["steenbrink_inertia"](d).mu_minus == api["upper_bound"](d)
            for d in range(2, inp["d_max"] + 1)
        )
        return {"ok": ok}, None
    if op == "cli":
        return run_cli(inp["argv"], traced)
    raise ValueError(f"unknown op {op!r}")


def run_pass(inputs: list[dict], trace: bool) -> tuple[dict, Tracer | None]:
    """Warm up, then time every input once; trace the calls if asked."""
    api = plain_api()
    warm_up(api, inputs)
    tracer = Tracer() if trace else None
    scope = installed(tracer) if trace else contextlib.nullcontext(api)
    records = []
    with scope as api:
        setup_s = time.perf_counter() - _T0
        children = []
        refs = [reference_time()]
        last_ref = time.perf_counter()
        start = time.perf_counter()
        for inp in inputs:
            if time.perf_counter() - last_ref >= REF_INTERVAL_S:
                refs.append(reference_time())
                last_ref = time.perf_counter()
            index = tracer.open("input") if tracer else None
            t0 = time.perf_counter()
            error, child = None, None
            try:
                observed, child = observe(api, inp, trace)
            except Exception as exc:  # a failed input is a verdict, not a crash
                observed, error = {}, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.close(index, child["layers"]["cli.main_s"] if child else 0.0)
                if child:
                    children.append(child)
            got = {key: observed.get(key) for key in inp["expect"]}
            record = {"id": inp["id"], "t": elapsed, "ok": error is None and got == inp["expect"]}
            if not record["ok"]:
                record["got"] = error or got
            records.append(record)
        wall_s = time.perf_counter() - start
        refs.append(reference_time())
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "refs": refs,
        "inputs": records,
    }
    if tracer:
        layers = tracer.layer_totals()
        for child in children:
            merge_totals(layers, child["layers"])
        result["layers"] = layers
        result["spans"] = len(tracer.spans) + sum(c["spans"] for c in children)
    return result, tracer


def main() -> int:
    trace = "--trace" in sys.argv[1:]
    inputs = json.load(sys.stdin)
    result, _ = run_pass(inputs, trace)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
