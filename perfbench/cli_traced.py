"""Run the akforge CLI with the benchmark's span wrappers installed.

    python3 perfbench/cli_traced.py <akforge arguments>

stdout and the exit code are the CLI's own.  The last line on stderr is one
JSON object, {"layers": per-layer totals, "spans": span count}, which the
traced worker adds to its pass.
"""

from __future__ import annotations

import json
import runpy
import sys

from spans import Tracer, installed


def main() -> int:
    tracer = Tracer()
    code = 0
    with installed(tracer):
        sys.argv = ["akforge", *sys.argv[1:]]
        try:
            runpy.run_module("akforge", run_name="__main__")
        except SystemExit as exc:
            code = exc.code
    sys.stdout.flush()
    payload = {"layers": tracer.layer_totals(), "spans": len(tracer.spans)}
    sys.stderr.write(json.dumps(payload) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
