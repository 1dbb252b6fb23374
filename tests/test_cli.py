"""End-to-end tests for the command-line interface (in-process)."""

from __future__ import annotations

import json

import pytest

from akforge.cli import main
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
    code, out, _ = run(capsys, "certify", "--poly", "y^2", "--max-k", "32")
    assert code == 1
    assert json.loads(out) == {"kind": "Undetermined", "k": None, "cap": 32}


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


def test_milnor_non_isolated_exit_1(capsys, monkeypatch):
    # deep-path coverage (cap reached without stabilization) lives in the
    # milnor suite with a small cap; here only the exit-code mapping matters
    import akforge.cli as cli_mod
    from akforge.errors import NonIsolatedSuspected

    def fake(f, **kwargs):
        raise NonIsolatedSuspected("no stabilization up to M=256")

    monkeypatch.setattr(cli_mod, "milnor_number", fake)
    code, out, err = run(capsys, "milnor", "--poly", "x^2*y^2")
    assert code == 1 and out == "" and "error:" in err


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
