"""Acceptance suite: one test per top-level deliverable.

Each test prints a single `[acceptance] criterion N: PASS/FAIL` line so the
outcome survives in captured output.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from akforge.bounds import ratio_table, steenbrink_inertia, upper_bound
from akforge.classify import AkResult, split_and_classify
from akforge.family import build_F, certify_member, verify_eq2
from akforge.milnor import milnor_number, milnor_resultant
from akforge.poly import Monomial, SparsePoly, parse_poly
from akforge.series import TruncatedSeries, Weights, compose_curve, invert_change

TIME_TARGETS = {0: 1.0, 1: 60.0, 2: 900.0}


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num}: FAIL ({label})")
        raise
    print(f"[acceptance] criterion {num}: PASS ({label})")


@pytest.fixture(scope="module")
def certificates():
    """Certify members s = 0, 1, 2 once; record wall time per member."""
    out = {}
    for s in (0, 1, 2):
        start = time.perf_counter()
        cert = certify_member(s)
        out[s] = (cert, time.perf_counter() - start)
    return out


def test_criterion_1_family_certification(certificates):
    with criterion(1, "members s=0,1,2 certified with coefficient 56"):
        expected = {0: (9, 42), 1: (37, 731), 2: (65, 2260)}
        for s, (d, k) in expected.items():
            cert, elapsed = certificates[s]
            assert cert.certified
            assert cert.params.d == d and cert.params.k == k
            assert cert.newton.coeff_z2 == 1
            assert cert.newton.coeff_xk1 == 56
            assert cert.newton.violations == ()
            assert elapsed < TIME_TARGETS[s], (s, elapsed)
        # the same pipeline is reachable through the CLI verb
        from akforge.cli import main

        assert main(["construct", "--s", "0", "--out", os.devnull]) == 0


def test_criterion_2_square_completion_identity():
    with criterion(2, "residual identity exact for s = 0..5"):
        for s in range(6):
            inst = build_F(s)
            residual = verify_eq2(inst)
            p = inst.params
            assert len(residual) == 4
            assert residual.coefficient(3 * p.l, 5 * p.m) == 56
            assert residual.coefficient(2 * p.l, 6 * p.m) == -56
            assert residual.coefficient(p.l, 7 * p.m) == 80
            assert residual.coefficient(0, 8 * p.m) == -100


def test_criterion_3_oracle_agreement_s0():
    with criterion(3, "both Milnor oracles give 42 at s=0, exactly"):
        F = build_F(0).F
        local = milnor_number(F, expected=42)
        res = milnor_resultant(F, arithmetic="exact")
        assert local.mu == res.mu == 42
        assert local.arithmetic == "exact"
        assert res.arithmetic == "exact"


def test_criterion_3_stretch_modular_s1():
    with criterion(3, "stretch: modular resultant gives 731 at s=1"):
        report = milnor_resultant(build_F(1).F, arithmetic="modular")
        assert report.mu == 731
        assert report.arithmetic.startswith("two-prime-modular")


def test_criterion_4_inertia_count_rederives_bound():
    with criterion(4, "inertia count equals the closed form for d = 2..200"):
        for d in range(2, 201):
            si = steenbrink_inertia(d)
            assert si.mu_minus == upper_bound(d), d
            assert si.mu_plus + si.mu_zero + si.mu_minus == (d - 1) ** 2, d


def test_criterion_5_constructed_ratio_near_limit():
    with criterion(5, "constructed k/d^2 within 1/1000 of 15/28 at s=10"):
        rows = ratio_table(10)
        assert abs(rows[10].ratio_k - Fraction(15, 28)) < Fraction(1, 1000)


def test_criterion_5_bound_ratio_identity():
    # One form cannot cover every d: 3/4 - 3/(2d) + 1/d^2 makes the bound
    # (3d^2 - 6d + 4)/4, which is 1/4 mod 1 at odd d and so not an integer.
    with criterion(
        5,
        "bound ratio identity for d <= 1000: 3/4 - 3/(2d) + 1/d^2 at even d, "
        "3/4 - 1/d + 1/(4d^2) at odd d",
    ):
        bad = []
        for d in range(2, 1001):
            lhs = Fraction(upper_bound(d), d * d)
            if d % 2 == 0:
                rhs = Fraction(3, 4) - Fraction(3, 2 * d) + Fraction(1, d * d)
            else:
                rhs = Fraction(3, 4) - Fraction(1, d) + Fraction(1, 4 * d * d)
            if lhs != rhs:
                bad.append((d, lhs, rhs))
        assert not bad, (
            f"{len(bad)} degrees violate the stated identity; first: {bad[0]}"
        )


# -- criterion 6: property suites -----------------------------------------


def rand_poly(rng: random.Random, max_deg: int, nterms: int, min_deg: int = 0):
    terms = []
    for _ in range(nterms):
        ex = rng.randrange(max_deg + 1)
        ey = rng.randrange(max_deg + 1)
        if ex + ey < min_deg:
            continue
        terms.append(((ex, ey), Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))))
    return SparsePoly(terms)


def rand_int_poly(rng: random.Random, max_deg: int, nterms: int, min_deg: int = 0):
    terms = []
    for _ in range(nterms):
        ex = rng.randrange(max_deg + 1)
        ey = rng.randrange(max_deg + 1)
        if ex + ey < min_deg:
            continue
        terms.append(((ex, ey), rng.randrange(-9, 10)))
    return SparsePoly(terms)


def test_criterion_6a_ring_axioms_at_scale():
    with criterion(6, "(a) 1000+ ring-axiom and substitution cases"):
        rng = random.Random(20260823)
        points = [(2, 3), (-1, 4), (5, -2)]
        for _ in range(850):
            p = rand_poly(rng, 5, 4)
            q = rand_poly(rng, 5, 4)
            r = rand_poly(rng, 5, 4)
            assert p + q == q + p
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert (p * q) * r == p * (q * r)
            assert p * (q + r) == p * q + p * r
            assert p + SparsePoly.zero() == p
            assert p * SparsePoly.one() == p
            assert p - p == SparsePoly.zero()
        for _ in range(150):
            p = rand_poly(rng, 4, 3)
            r = rand_poly(rng, 3, 3)
            q = rand_poly(rng, 4, 3)
            # substitution is a ring homomorphism
            lhs = (p * q).subst("y", r)
            rhs = p.subst("y", r) * q.subst("y", r)
            assert lhs == rhs
            lhs = (p + q).subst("x", r)
            rhs = p.subst("x", r) + q.subst("x", r)
            assert lhs == rhs
            for x0, y0 in points:
                assert p.subst("y", r).evaluate(x0, y0) == p.evaluate(
                    x0, r.evaluate(x0, y0)
                )


def test_criterion_6b_inversion_round_trips():
    with criterion(6, "(b) 50 series inversion round-trips"):
        rng = random.Random(6226)
        done = 0
        while done < 50:
            A = rand_int_poly(rng, 5, 5, min_deg=2)
            if A.order() < 2:
                continue
            w = Weights(rng.randrange(1, 4), rng.randrange(1, 4))
            cutoff = rng.randrange(w.wz, 14)
            phi = invert_change(A, w, cutoff)
            resid = compose_curve(SparsePoly.variable("y") - A, phi)
            assert resid.body == SparsePoly.variable("y"), (A, w, cutoff)
            done += 1


def _random_changes(rng: random.Random, count: int, k_max: int):
    """Origin-preserving coordinate changes applied to y^2 + x^(k+1)."""
    xv, yv = SparsePoly.variable("x"), SparsePoly.variable("y")
    out = []
    while len(out) < count:
        k = rng.randrange(1, k_max + 1)
        while True:
            a, b, c, d = (rng.randrange(-3, 4) for _ in range(4))
            if a * d - b * c != 0:
                break
        px = xv.scale(a) + yv.scale(b)
        py = xv.scale(c) + yv.scale(d)
        for _ in range(rng.randrange(3)):
            ex, ey = rng.randrange(3), rng.randrange(3)
            if ex + ey >= 2:
                t = SparsePoly({(ex, ey): rng.randrange(-2, 3)})
                if rng.random() < 0.5:
                    px = px + t
                else:
                    py = py + t
        f = parse_poly(f"y^2 + x^{k + 1}").compose(px, py)
        out.append((k, f))
    return out


def test_criterion_6c_classifier_under_coordinate_changes():
    with criterion(6, "(c) classifier recovers k under 100+ coordinate changes"):
        rng = random.Random(6336)
        for k, f in _random_changes(rng, 110, 15):
            assert split_and_classify(f) == AkResult("A_k", k=k), (k, f)


def test_criterion_6d_oracle_equivalence_small_k():
    with criterion(6, "(d) Milnor oracle equals k on the k <= 8 subset"):
        rng = random.Random(6336)
        checked = 0
        for k, f in _random_changes(rng, 110, 15):
            if k <= 8:
                assert milnor_number(f, expected=k).mu == k, (k, f)
                checked += 1
        assert checked >= 30


def test_criterion_6e_bound_consistency(certificates):
    with criterion(6, "(e) certified k below the degree bound"):
        for s, (cert, _) in certificates.items():
            assert cert.params.k <= upper_bound(cert.params.d)
            assert cert.bound_upper == upper_bound(cert.params.d)


# -- criterion 7: CLI determinism ------------------------------------------

CLI_COMMANDS = [
    ["construct", "--s", "0"],
    ["construct", "--s", "0", "--milnor"],
    ["construct", "--s", "1"],
    ["certify", "--poly", "y^2 + x^3"],
    ["certify", "--poly", "y^2", "--max-k", "32"],
    ["milnor", "--poly", "y^2 + x^6"],
    ["milnor", "--poly", "y^2 + x^6", "--modular"],
    ["bound", "--d", "9"],
    ["bound", "--table", "--max-d", "50"],
    ["family-table", "--max-s", "5"],
    ["family-table", "--max-s", "5", "--csv"],
]


def _run_cli(args: list[str], env: dict) -> tuple[int, bytes, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "akforge", *args],
        capture_output=True,
        env=env,
        timeout=300,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_criterion_7_cli_determinism():
    with criterion(7, "byte-identical CLI output across repeated runs"):
        env = dict(os.environ)
        env["AKFORGE_PRIME_SEED"] = "1729"
        for args in CLI_COMMANDS:
            first = _run_cli(args, env)
            second = _run_cli(args, env)
            assert first == second, args
            assert first[0] in (0, 1), (args, first)


def test_criterion_7_seed_changes_primes_not_results():
    with criterion(7, "prime seed steers primes but never the value"):
        env = dict(os.environ)
        env["AKFORGE_PRIME_SEED"] = "99991"
        code, out, _ = _run_cli(["milnor", "--poly", "y^2 + x^6", "--modular"], env)
        payload = json.loads(out)
        assert code == 0 and payload["mu"] == 5
        env["AKFORGE_PRIME_SEED"] = "1729"
        code, out2, _ = _run_cli(["milnor", "--poly", "y^2 + x^6", "--modular"], env)
        payload2 = json.loads(out2)
        assert code == 0 and payload2["mu"] == 5
        assert payload["arithmetic"] != payload2["arithmetic"]
