"""End-to-end tests for the command-line interface (in-process)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import akforge
from akforge.cli import main
from akforge.family import build_F
from akforge.poly import parse_poly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_single(capsys):
    code, out, err = run(capsys, "bound", "--d", "9")
    assert (code, out, err) == (0, "52\n", "")


def test_bound_table(capsys):
    code, out, _ = run(capsys, "bound", "--table", "--max-d", "3")
    assert code == 0
    assert out == "d,upper\n1,0\n2,1\n3,4\n"


def test_bound_usage_errors(capsys):
    code, _, err = run(capsys, "bound", "--d", "9", "--max-d", "3")
    assert code == 2 and "--table" in err
    code, _, err = run(capsys, "bound", "--table")
    assert code == 2 and "--max-d" in err
    code, _, _ = run(capsys, "bound")
    assert code == 2
    code, _, _ = run(capsys, "bound", "--d", "0")
    assert code == 2


def test_certify_node(capsys):
    code, out, _ = run(capsys, "certify", "--poly", "y^2 + x^2")
    assert code == 0
    assert json.loads(out) == {"kind": "A_k", "k": 1, "cap": None}


def test_certify_smooth_and_not_corank_one(capsys):
    code, out, _ = run(capsys, "certify", "--poly", "x + y^3")
    assert code == 0 and json.loads(out)["kind"] == "Smooth"
    code, out, _ = run(capsys, "certify", "--poly", "x^3 + y^3")
    assert code == 0 and json.loads(out)["kind"] == "NotCorankOne"


def test_certify_undetermined_exit_1(capsys):
    code, out, _ = run(capsys, "certify", "--poly", "y^2 + x^40", "--max-k", "32")
    assert code == 1
    assert json.loads(out) == {"kind": "Undetermined", "k": None, "cap": 32}


def test_certify_non_isolated_exit_1(capsys):
    for text in ("y^2", "(y*(1-x) - x^2)^2"):
        code, out, err = run(capsys, "certify", "--poly", text)
        assert code == 1 and out == ""
        assert "error:" in err and "curve through the origin" in err


def test_certify_noncritical_exit_1(capsys):
    code, _, err = run(capsys, "certify", "--poly", "1 + x^2")
    assert code == 1 and "error:" in err


def test_certify_syntax_error_exit_2(capsys):
    code, out, err = run(capsys, "certify", "--poly", "x $ y")
    assert code == 2 and out == "" and "position 2" in err


def test_poly_from_json_file(capsys, tmp_path):
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(parse_poly("y^2 + x^3").to_json_dict()))
    code, out, _ = run(capsys, "certify", "--poly", f"@{path}")
    assert code == 0 and json.loads(out)["k"] == 2

    code, _, err = run(capsys, "certify", "--poly", f"@{tmp_path}/missing.json")
    assert code == 2 and "missing.json" in err

    bad = tmp_path / "bad.json"
    bad.write_text('{"vars": ["x"], "terms": []}')
    code, _, err = run(capsys, "certify", "--poly", f"@{bad}")
    assert code == 2

    for term in ('{"e": [1.7, true], "c": "1"}', '{"e": [2, 0], "c": 0.1}'):
        bad.write_text('{"vars": ["x", "y"], "terms": [%s]}' % term)
        code, out, err = run(capsys, "certify", "--poly", f"@{bad}")
        assert (code, out) == (2, "") and err.startswith("error:")


def test_milnor_exact_and_modular(capsys):
    code, out, _ = run(capsys, "milnor", "--poly", "y^2 + x^6")
    payload = json.loads(out)
    assert code == 0 and payload["mu"] == 5 and payload["arithmetic"] == "exact"

    code, out, _ = run(capsys, "milnor", "--poly", "y^2 + x^6", "--modular")
    payload = json.loads(out)
    assert code == 0 and payload["mu"] == 5
    assert payload["arithmetic"].startswith("two-prime-modular")

    # --modular is the resultant oracle modulo two primes
    code, out, _ = run(capsys, "milnor", "--modular", "--poly", build_F(1).F.to_text())
    payload = json.loads(out)
    assert code == 0 and (payload["mu"], payload["method"]) == (731, "resultant")
    assert payload["arithmetic"].startswith("two-prime-modular(")


def test_milnor_modular_non_isolated_exits_fast(capsys):
    t0 = time.perf_counter()
    code, out, err = run(capsys, "milnor", "--modular", "--poly", "(y-x^8)^2")
    assert (code, out) == (1, "") and err.startswith("error:")
    assert time.perf_counter() - t0 < 1.0


def test_milnor_non_isolated_exit_1(capsys):
    # Fulton's reduction turns one partial into 0 and proves non-isolation.
    # The resultant oracle behind --modular finds no admissible shear on this
    # germ and raises GenericityFailure instead of NonIsolated: a known
    # defect, which still exits 1.
    code, out, err = run(capsys, "milnor", "--poly", "(y-x^2)^2")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "reduce to 0" in err and "not isolated" in err
    code, out, err = run(capsys, "milnor", "--modular", "--poly", "(y-x^2)^2")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "no admissible shear" in err


def test_milnor_runs_fulton_first(capsys):
    code, out, _ = run(capsys, "milnor", "--poly", build_F(1).F.to_text())
    payload = json.loads(out)
    assert code == 0
    assert payload == {"mu": 731, "method": "fulton", "stabilized_at": 731, "arithmetic": "exact"}
    # the local algebra needs D(226) for this germ; Fulton reduces f_x to 0
    t0 = time.perf_counter()
    code, out, err = run(capsys, "milnor", "--poly", "(y-x^8)^2")
    assert (code, out) == (1, "") and "not isolated" in err
    assert time.perf_counter() - t0 < 1.0


def test_milnor_falls_back_past_the_fulton_budget(capsys):
    # Fulton's polynomials outgrow the term budget on this dense A_8 germ
    code, out, _ = run(capsys, "milnor", "--poly", "(2*y + x^2)^2 + (x + 2*y + x*y^2)^9")
    payload = json.loads(out)
    assert code == 0
    assert (payload["mu"], payload["method"]) == (8, "truncated-local-algebra")


def test_construct_s0(capsys):
    code, out, _ = run(capsys, "construct", "--s", "0")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"]["d"] == 9 and payload["family"]["k"] == 42
    assert payload["newton_certificate"]["coeff_x_k_plus_1"] == "56"
    assert payload["milnor"] is None


def test_construct_with_milnor(capsys):
    code, out, _ = run(capsys, "construct", "--s", "0", "--milnor")
    payload = json.loads(out)
    assert code == 0 and payload["milnor"]["value"] == 42


def test_construct_out_file(capsys, tmp_path):
    path = tmp_path / "cert.json"
    code, out, _ = run(capsys, "construct", "--s", "0", "--out", str(path))
    assert code == 0 and out == ""
    payload = json.loads(path.read_text())
    assert payload["family"]["k"] == 42


def test_construct_negative_s_exit_2(capsys):
    code, _, err = run(capsys, "construct", "--s", "-1")
    assert code == 2 and "error:" in err


def test_family_table_csv_and_json(capsys):
    code, out, _ = run(capsys, "family-table", "--max-s", "1", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "s,d,k,upper,k_over_d2,upper_over_d2"
    assert out.splitlines()[2] == "1,37,731,990,0.533966,0.723156"

    code, out, _ = run(capsys, "family-table", "--max-s", "1")
    rows = json.loads(out)
    assert code == 0 and rows[1]["k"] == 731 and rows[0]["k_over_d2"] == "14/27"


def test_usage_errors(capsys):
    assert run(capsys, )[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "bound", "--x", "1")[0] == 2
    assert run(capsys, "certify")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0


def test_repeat_runs_identical(capsys):
    first = run(capsys, "construct", "--s", "0", "--milnor")
    second = run(capsys, "construct", "--s", "0", "--milnor")
    assert first == second
    first = run(capsys, "family-table", "--max-s", "3", "--csv")
    second = run(capsys, "family-table", "--max-s", "3", "--csv")
    assert first == second


# -- cold start: numpy is loaded only by the modular paths -------------------

_SRC = str(Path(akforge.__file__).resolve().parents[1])


def _python(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, env=env, timeout=120
    )


def test_import_does_not_load_numpy():
    proc = _python("import sys, akforge.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout == b"False\n", proc.stderr


# With sys.modules["numpy"] set to None, any import of numpy raises ImportError.
_CLI_WITHOUT_NUMPY = (
    "import sys; sys.modules['numpy'] = None\n"
    "from akforge.cli import main\n"
    "raise SystemExit(main(sys.argv[1:]))"
)


@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["construct", "--s", "0"], "family", {"s": 0, "l": 1, "m": 2, "d": 9, "k": 42}),
        (["certify", "--poly", "y^2 + x^3"], "k", 2),
        (["milnor", "--poly", build_F(0).F.to_text()], "mu", 42),
    ],
)
def test_cli_paths_never_load_numpy(argv, key, value):
    proc = _python(_CLI_WITHOUT_NUMPY, *argv)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)[key] == value
