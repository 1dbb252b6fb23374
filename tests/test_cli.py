"""End-to-end tests for the command-line interface (in-process)."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import akforge
import akforge.cli
from akforge._modp import primes_from_seed
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
    for n in ("0", "-3"):
        code, out, err = run(capsys, "bound", "--table", "--max-d", n)
        assert (code, out, err) == (2, "", f"error: --max-d must be an integer >= 1, got {n}\n")


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


@pytest.mark.parametrize(
    "argv, code, err",
    [
        (  # NonIsolated
            ["milnor", "--poly", "(y-x^2)^2"],
            1,
            "error: the partials reduce to 0 modulo each other: they share a component "
            "through the origin, so the singularity is not isolated\n",
        ),
        (  # GenericityFailure
            ["milnor", "--modular", "--poly", "(y-x^2)^2"],
            1,
            "error: no admissible shear found in 8 attempts\n",
        ),
        (  # NotACriticalGerm
            ["certify", "--poly", "1+x^2"],
            1,
            "error: the germ must vanish at the origin\n",
        ),
        (  # PreconditionViolated
            ["milnor", "--poly", "1+y^2+x^3"],
            1,
            "error: the germ must vanish at the origin\n",
        ),
        (  # PolySyntaxError
            ["certify", "--poly", "x$y"],
            2,
            "error: unexpected character '$' (at position 1)\n",
        ),
        (  # PolySyntaxError at the 101st of 2,000 nested '('
            ["certify", "--poly", "(" * 2000 + "x" + ")" * 2000],
            2,
            "error: parentheses nested more than 100 deep (at position 100)\n",
        ),
        (  # InvalidInput
            ["construct", "--s", "-1"],
            2,
            "error: family index must be an integer >= 0, got -1\n",
        ),
        (  # OSError
            ["certify", "--poly", "@missing.json"],
            2,
            "error: [Errno 2] No such file or directory: 'missing.json'\n",
        ),
        (  # ValueError
            ["certify", "--poly", "@bad.json"],
            2,
            "error: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)\n",
        ),
        (  # RecursionError in json.load, as InvalidInput
            ["milnor", "--poly", "@deep.json"],
            2,
            "error: deep.json: JSON nested too deeply to read\n",
        ),
    ],
    ids=[
        "non-isolated",
        "no-admissible-shear",
        "not-critical",
        "off-the-origin",
        "syntax-error",
        "deep-parentheses",
        "invalid-input",
        "missing-file",
        "bad-json",
        "deep-json",
    ],
)
def test_error_exit_code_and_message(capsys, monkeypatch, tmp_path, argv, code, err):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_text("{")
    (tmp_path / "deep.json").write_text("[" * 100_000)
    assert run(capsys, *argv) == (code, "", err)


def test_over_long_literal_is_a_syntax_error(capsys):
    code, out, err = run(capsys, "certify", "--poly", "y^2 + x^" + "9" * 5000)
    assert (code, out) == (2, "")
    assert err == "error: number literal has too many digits (at position 8)\n"


@pytest.mark.parametrize(
    "text", ["*".join(["2^3333"] * 5) + "*x^2 + y^2", "y^2 + x^3*(2^3333*x + 1)^8"]
)
def test_over_large_coefficient_exits_2(capsys, text):
    code, out, err = run(capsys, "certify", "--poly", text)
    assert (code, out) == (2, "")
    assert err == "error: a coefficient passes 10000 bits\n"


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


def test_milnor_modular_when_the_first_prime_divides_a_leading_coefficient():
    # lc_y(f_y) = 3*p1 vanishes mod p1: the oracle takes the exact path
    # instead of searching forever for a sample point
    p1 = primes_from_seed(2)[0]
    proc = subprocess.run(
        [sys.executable, "-m", "akforge", "milnor", "--modular", "--poly", f"x^2 + {p1}*y^3"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert (payload["mu"], payload["arithmetic"]) == (2, "exact")


def test_certify_expansion_past_the_budget_exit_2():
    # (1 + x + y)^100000 would take hours to expand; the parser's term budget
    # refuses it before the first large product
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "akforge", "certify", "--poly", "(1+x+y)^100000"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
        timeout=20,
    )
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:") and "term products" in proc.stderr


def test_construct_family_index_past_the_limit_exit_2():
    # certifying a member takes time quadratic in the digits of s (2,000
    # digits took 42 s); 101 digits are refused before any work
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "akforge", "construct", "--s", "1" + "0" * 100],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
        timeout=20,
    )
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: family index must be below 10^100\n"


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


def test_milnor_germ_off_the_origin_exit_1(capsys):
    # both milnor paths, like certify, reject a germ with a constant term
    for modular in ([], ["--modular"]):
        code, out, err = run(capsys, "milnor", *modular, "--poly", "1+y^2+x^3")
        assert (code, out) == (1, "")
        assert err.startswith("error:") and "must vanish at the origin" in err


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


@pytest.mark.parametrize("text", ["3^100000000000*x + y^2", "(3)^100000000000"])
def test_certify_literal_power_past_the_bit_budget_exit_2(text):
    # 3^100000000000 would need an integer of about 20 GB
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "akforge", "certify", "--poly", text],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=_SRC),
        timeout=20,
    )
    assert time.perf_counter() - t0 < 1.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error:") and "bits" in proc.stderr


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


def test_construct_s1_stdout_is_pinned(capsys):
    # the canonical certificate bytes of member 1, exactly as printed
    code, out, err = run(capsys, "construct", "--s", "1")
    assert (code, err) == (0, "")
    digest = "436711afd47a25dec1b82211f66e3f6be9861c95445081d1fe9cb61b57f40071"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
    """Run code in a new interpreter under -S, so that neither site nor the
    .pth files it reads load a module before akforge does."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, "-S", "-c", code, *argv], capture_output=True, env=env, timeout=120
    )


# numpy would cost every CLI run its native extensions, and dataclasses pulls
# in inspect, ast and dis.
@pytest.mark.parametrize("module", ["numpy", "dataclasses"])
def test_import_does_not_load(module):
    proc = _python(f"import sys, akforge.cli; print({module!r} in sys.modules)")
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


# -- cold start: each verb loads only the modules it runs --------------------

_RUN_AS_MAIN = (
    "import runpy, sys\n"
    "sys.argv = ['akforge', *sys.argv[1:]]\n"
    "try:\n"
    "    runpy.run_module('akforge', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    assert exc.code == 0, exc.code\n"
    "sys.stderr.write(' '.join(sorted(m for m in sys.modules if m.startswith('akforge.'))))"
)
_CERTIFIER = {"cli", "errors", "poly", "_xseries", "family", "series", "bounds"}
_ORACLES = {"milnor", "_modp", "_exactrank"}


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["milnor", "--poly", build_F(0).F.to_text()], {"cli", "errors", "poly"} | _ORACLES),
        (["certify", "--poly", build_F(1).F.to_text()], {"cli", "errors", "poly", "classify", "_xseries"}),
        (["construct", "--s", "1"], _CERTIFIER),
        (["bound", "--d", "9"], {"cli", "errors", "bounds"}),
        (["family-table", "--max-s", "1"], _CERTIFIER),
    ],
    ids=["milnor", "certify", "construct", "bound", "family-table"],
)
def test_each_verb_loads_only_its_modules(argv, modules):
    proc = _python(_RUN_AS_MAIN, *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stderr.decode().splitlines()[-1].split()
    assert set(loaded) == {f"akforge.{m}" for m in modules}


def test_importing_the_package_loads_no_submodule():
    proc = _python("import sys, akforge; print([m for m in sys.modules if m.startswith('akforge.')])")
    assert proc.returncode == 0 and proc.stdout == b"[]\n", proc.stderr


# -- the lazy namespaces -----------------------------------------------------


def test_public_names_are_their_module_attributes():
    for name in set(akforge.__all__) - {"__version__"}:
        value = getattr(akforge, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_dir_and_star_import_cover_all():
    assert set(akforge.__all__) <= set(dir(akforge))
    namespace = {}
    exec("from akforge import *", namespace)
    assert set(akforge.__all__) <= set(namespace)


@pytest.mark.parametrize("module", [akforge, akforge.cli], ids=["akforge", "cli"])
def test_unknown_attribute_is_named(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name


def test_cli_patch_sites_resolve_in_a_fresh_interpreter():
    names = ("main", "parse_poly", "split_and_classify", "milnor_number")
    proc = _python(
        "import akforge.cli as cli\n"
        f"for name in {names!r}:\n"
        "    print(name, getattr(cli, name).__module__)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines() == [
        "main akforge.cli",
        "parse_poly akforge.poly",
        "split_and_classify akforge.classify",
        "milnor_number akforge.milnor",
    ]


# perfbench's traced CLI sets its span wrappers on these names of akforge.cli.
@pytest.mark.parametrize(
    "name, argv",
    [
        ("parse_poly", ["certify", "--poly", "y^2 + x^3"]),
        ("split_and_classify", ["certify", "--poly", "y^2 + x^3"]),
        ("milnor_number", ["milnor", "--poly", "(2*y + x^2)^2 + (x + 2*y + x*y^2)^9"]),
    ],
)
def test_a_value_set_on_the_cli_is_what_the_verb_calls(capsys, monkeypatch, name, argv):
    real = getattr(akforge.cli, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(akforge.cli, name, spy)
    code, _, _ = run(capsys, *argv)
    assert code == 0 and len(calls) == 1
