"""Tests for the two Milnor-number oracles."""

from __future__ import annotations

import ast
import itertools
import random
import re
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_acceptance import _random_changes

import akforge.milnor as milnor_mod
from akforge._modp import primes_from_seed, seeded_primes
from akforge.errors import (
    BudgetExceeded,
    GenericityFailure,
    InvalidInput,
    NonIsolated,
    PreconditionViolated,
)
from akforge.milnor import (
    FULTON_TERM_BUDGET,
    MilnorReport,
    milnor_fulton,
    milnor_number,
    milnor_resultant,
)
from akforge.family import build_F, family_params
from akforge.poly import SparsePoly, parse_poly


def member_s0() -> SparsePoly:
    A = parse_poly("x^4 + 2*x^3*y^2 - 2*x^2*y^4 + 4*x*y^6 - 10*y^8")
    return parse_poly("y^2 + x^8 + 4*x^7*y^2") - parse_poly("2*y") * A


def truncated_dimension(f: SparsePoly, M: int) -> int:
    """D(M): local-algebra dimension truncated below total degree M."""
    fx, fy = milnor_mod._partials(milnor_mod._integer_terms(f))
    return milnor_mod._dimension_profile(fx, fy, M)[M]


def test_truncated_dimension_basics():
    assert truncated_dimension(parse_poly("x^2 + y^2"), 3) == 1
    assert truncated_dimension(parse_poly("y^2 + x^6"), 8) == 5
    with pytest.raises(PreconditionViolated):
        milnor_number(parse_poly("1 + x^2"))


def test_truncated_dimension_never_stabilizes_for_nonisolated():
    for M in (3, 5, 9):
        assert truncated_dimension(parse_poly("x^2"), M) == M


def test_milnor_number_small_cases():
    assert milnor_number(parse_poly("x^2 + y^2")).mu == 1
    r = milnor_number(parse_poly("x^3 + y^3"))
    assert (r.mu, r.method, r.arithmetic) == (4, "truncated-local-algebra", "exact")
    # smooth germ
    assert milnor_number(parse_poly("x + y^2")).mu == 0
    # quasihomogeneous check: mu(x^a + y^b) = (a-1)(b-1)
    for a, b in ((2, 5), (3, 4), (4, 4)):
        f = parse_poly(f"x^{a} + y^{b}")
        assert milnor_number(f).mu == (a - 1) * (b - 1)


def test_milnor_number_chain_family():
    for k in range(1, 21):
        f = parse_poly(f"y^2 + x^{k + 1}")
        assert milnor_number(f, expected=k).mu == k
        assert milnor_resultant(f).mu == k


def test_milnor_number_rational_coefficients():
    assert milnor_number(parse_poly("1/2*x^2 + 1/5*y^3")).mu == 2


def test_oracles_scale_a_partial_by_the_lcm_of_its_denominators():
    # f_x = x + 1/3*y^2 and f_y = 2/3*x*y + 2/5*y^3: scaled term by term
    # with one factor instead, they would share the factor x + y^2
    f = parse_poly("1/2*x^2 + 1/3*x*y^2 + 1/10*y^4")
    assert milnor_number(f).mu == 3
    assert milnor_fulton(f).mu == 3
    for arithmetic in ("exact", "modular"):
        assert milnor_resultant(f, arithmetic=arithmetic).mu == 3


@pytest.mark.parametrize("text", ["x^2", "(y-x^2)^2", "x^2*y^2"])
def test_milnor_number_non_isolated_past_bezout(text):
    # D(M) <= mu <= (d-1)^2 for an isolated point; D past it is a proof
    with pytest.raises(NonIsolated, match="Bezout"):
        milnor_number(parse_poly(text))


def test_milnor_number_huge_hint_is_capped_at_the_bezout_rung():
    # expected + 3 would ask for a relation matrix of about 10^12 entries
    r = milnor_number(parse_poly("y^2 + x^6"), expected=10**6)
    assert (r.mu, r.stabilized_at) == (5, 5)


def test_milnor_number_non_isolated_stops_at_the_bezout_rung():
    # d = 10: the verdict comes at a rung no higher than (d-1)^2 + 1 = 82
    with pytest.raises(NonIsolated, match="Bezout") as info:
        milnor_number(parse_poly("(y - x^5)^2"))
    rung = int(re.match(r"D\((\d+)\)", str(info.value)).group(1))
    assert rung <= 82


def test_milnor_number_low_hint_only_sets_the_first_degree():
    # expected=10 starts at M = 13 and doubles past mu = 42
    assert milnor_number(member_s0(), expected=10).mu == 42


def test_milnor_number_rejects_non_integer_hint():
    for bad in (2.5, True, -1, "42"):
        with pytest.raises(InvalidInput):
            milnor_number(parse_poly("y^2 + x^3"), expected=bad)


def test_member_s0_both_oracles_give_42():
    F = member_s0()
    rt = milnor_number(F, expected=42)
    rr = milnor_resultant(F)
    assert rt.mu == 42 and rr.mu == 42
    assert rt.arithmetic == "exact" and rr.arithmetic == "exact"
    assert rr.stabilized_at == 42


def test_member_s1_modular_resultant():
    A1 = parse_poly("x^16 + 2*x^12*y^9 - 2*x^8*y^18 + 4*x^4*y^27 - 10*y^36")
    F1 = parse_poly("y^2 + x^32 + 4*x^28*y^9") - parse_poly("2*y") * A1
    r = milnor_resultant(F1, arithmetic="modular")
    assert r.mu == 731
    assert r.method == "resultant"
    assert r.arithmetic.startswith("two-prime-modular(")
    assert milnor_fulton(F1) == MilnorReport(731, "fulton", 731, "exact")


def test_member_s2_modular_resultant():
    F2 = build_F(2).F
    r = milnor_resultant(F2, arithmetic="modular")
    assert r.mu == 2260
    assert r.arithmetic.startswith("two-prime-modular(")
    assert milnor_fulton(F2).mu == 2260


def test_resultant_degree_within_total_degree_bound(monkeypatch):
    # deg_x Res_y(P, Q) <= qy*m + py*n - py*qy (m, n total degrees), checked
    # on an interpolant through the count the x-degrees alone give, which is
    # never smaller.  The exact valuation does not depend on which count is used.
    (p,) = primes_from_seed(1)
    interpolate, sample_points = milnor_mod.interpolate_monomial, milnor_mod._sample_points
    interpolants, widen = [], []

    def keep(*args):
        interpolants.append(interpolate(*args))
        return interpolants[-1]

    def sample(P, Q, count, p):
        if widen:  # the count from the x-degrees alone
            (py, px), (qy, qx) = ((max(L), max(map(max, L.values()))) for L in (P, Q))
            count = qy * px + py * qx + 1
        return sample_points(P, Q, count, p)

    monkeypatch.setattr(milnor_mod, "interpolate_monomial", keep)
    monkeypatch.setattr(milnor_mod, "_sample_points", sample)
    xv, yv = SparsePoly.variable("x"), SparsePoly.variable("y")
    germs = [build_F(0).F, build_F(1).F]
    germs += [f for k, f in _random_changes(random.Random(6336), 110, 15) if k <= 8]
    sharper = 0
    for i, f in enumerate(germs):
        rng, shears = random.Random(i), [0]
        while len(shears) < 3:
            t = rng.randrange(1, 100)
            if t not in shears:
                shears.append(t)
        for t in shears:
            g = f.compose(xv + yv.scale(t), yv)
            X = milnor_mod._integer_terms(g.diff("x"))
            Y = milnor_mod._integer_terms(g.diff("y"))
            (mx, py, m), (nx, qy, n) = milnor_mod._degrees(X), milnor_mod._degrees(Y)
            old = qy * mx + py * nx
            sharp = qy * m + py * n - py * qy
            P, Q = milnor_mod._y_layers(X), milnor_mod._y_layers(Y)
            milnor_mod._modular_valuation(P, Q, old + 1, p)
            top = np.nonzero(interpolants.pop())[0]
            assert top.size == 0 or top[-1] <= sharp, (i, t)
            sharper += sharp < old
            if t == 0 and old <= 100:
                want = milnor_resultant(f, arithmetic="exact")
                widen.append(True)
                assert milnor_resultant(f, arithmetic="exact") == want
                widen.clear()
    assert sharper >= 100


def test_modular_resultant_takes_the_exact_path_when_a_prime_kills_a_leading_coefficient():
    # lc_y(f_y) = 3*p1 vanishes mod p1 at every x, so p1 has no sample point
    p1 = primes_from_seed(2)[0]
    t0 = time.perf_counter()
    r = milnor_resultant(parse_poly(f"x^2 + {p1}*y^3"), arithmetic="modular")
    assert time.perf_counter() - t0 < 1.0
    assert r == MilnorReport(2, "resultant", 2, "exact")


@pytest.mark.parametrize(
    "text, mu",
    [
        ("y^2 + x^3", 2),  # f_x = 3*x^2 has y-degree 0
        ("x^2 + y^5", 4),  # so has f_x = 2*x
        ("y^2 + x^3 - 3*x^2", 1),  # f_x = 3*x*(x - 2) vanishes at the point 2
        ("y + x^2", 0),  # and f_y = 1 is a unit
        ("x + y^3", 0),  # as is f_x = 1
    ],
)
def test_resultant_reports_with_a_partial_of_y_degree_0(text, mu):
    f = parse_poly(text)
    modular = "two-prime-modular({},{})".format(*primes_from_seed(2))
    if mu == 0:  # a partial with a constant term decides mu = 0 before any shear
        modular = "exact"
    for arithmetic, label in (("exact", "exact"), ("modular", modular), ("auto", "exact")):
        assert milnor_resultant(f, arithmetic=arithmetic) == MilnorReport(
            mu, "resultant", mu, label
        )


def test_modular_resultant_takes_the_exact_path_when_both_primes_divide_a_partial():
    # f_x = 2*p1*p2*x vanishes mod both primes; no sample point avoids it
    p1, p2 = primes_from_seed(2)
    r = milnor_resultant(parse_poly(f"{p1 * p2}*x^2 + y^3"), arithmetic="modular")
    assert r == MilnorReport(2, "resultant", 2, "exact")


def test_primes_from_seed_are_the_first_seeded_primes():
    first = list(itertools.islice(seeded_primes(), 12))
    assert len(set(first)) == 12
    for n in (0, 1, 2, 12):
        assert primes_from_seed(n) == tuple(first[:n])
    assert primes_from_seed(3, seed=31415) == tuple(itertools.islice(seeded_primes(31415), 3))


@pytest.mark.parametrize("arithmetic", ["exact", "modular"])
@pytest.mark.parametrize(
    "text, mu",
    [
        # Res_y(f_x, f_y) = f_x = 3*p1*x^2 + 4*x^3, valuation 3 mod p1
        ("y^2 + {p1}*x^3 + x^4", 2),
        # Res_y(f_x, f_y) = 8*x*(x + p1)^2, valuation 3 mod p1; of the bound's
        # bits, qy*bitlen(||f_x||_1) = 2 and py*bitlen(||f_y||_1) = 2*33
        ("x^2 + x*y^2 + {p1}*y^2", 1),
    ],
    ids=["y^2+p1*x^3+x^4", "x^2+x*y^2+p1*y^2"],
)
def test_exact_resultant_when_the_first_prime_divides_the_coefficient_at_the_valuation(
    arithmetic, text, mu
):
    # the exact path needs more primes than p1; modular disagrees and falls back
    (p1,) = primes_from_seed(1)
    f = parse_poly(text.format(p1=p1))
    assert milnor_resultant(f, arithmetic=arithmetic) == MilnorReport(mu, "resultant", mu, "exact")
    assert milnor_fulton(f).mu == mu


def test_modular_resultant_runs_the_engine_once_per_prime(monkeypatch):
    # on y^2 + p1*x^3 + x^4, p1 and p2 disagree (3 against 2), and the
    # modular arithmetic goes on as the exact one does, without recomputing
    # the valuations at p1 and p2
    p1, p2 = primes_from_seed(2)
    f = parse_poly(f"y^2 + {p1}*x^3 + x^4")
    engine = milnor_mod._modular_valuation
    for arithmetic in ("exact", "modular"):
        primes = []

        def spy(P, Q, count, p):
            primes.append(p)
            return engine(P, Q, count, p)

        monkeypatch.setattr(milnor_mod, "_modular_valuation", spy)
        report = milnor_resultant(f, arithmetic=arithmetic)
        assert report == MilnorReport(2, "resultant", 2, "exact")
        assert primes == [p1, p2]


def test_exact_resultant_on_nonlinear_criterion_6c_germs(monkeypatch):
    # Changes of y^2 + x^(k+1) with quadratic terms (degrees 20, 27 and 27):
    # resultants of high x-degree with large coefficients, so the exact path
    # needs many primes.  Fulton's reduction passes its term budget on the
    # last two, and answers within 0.2 s with the budget lifted.
    monkeypatch.setattr(milnor_mod, "FULTON_TERM_BUDGET", 10**5)
    changes = _random_changes(random.Random(6336), 110, 15)
    for i in (16, 59, 76):
        k, f = changes[i]
        assert milnor_resultant(f, arithmetic="exact") == MilnorReport(k, "resultant", k, "exact")
        assert milnor_fulton(f).mu == k


@pytest.mark.parametrize("arithmetic", ["exact", "modular", "auto"])
def test_resultant_skips_a_shear_that_kills_f_y(arithmetic):
    # f = u^2 + u^3 with u = x - 50*y is constant along the shear t = 50, so
    # there f_y = 0; the other shears keep the non-monomial gcd
    # u(0, y)*(2 + 3*u(0, y)) of the restrictions: f is critical along u = 0
    with pytest.raises(GenericityFailure):
        milnor_resultant(parse_poly("(x - 50*y)^2 + (x - 50*y)^3"), arithmetic=arithmetic)


@pytest.mark.parametrize("arithmetic", ["exact", "modular", "auto"])
def test_resultant_smooth_germ_constant_along_a_shear(arithmetic):
    # f = u + u^2 with u = x - 50*y: f_x(0, 0) = 1, so mu = 0 before any
    # shear, although every shear fails the genericity conditions
    f = parse_poly("(x - 50*y) + (x - 50*y)^2")
    assert milnor_resultant(f, arithmetic=arithmetic) == MilnorReport(0, "resultant", 0, "exact")


def _big_integer_sample_points(P, Q, count: int, p: int) -> list[int]:
    """Reference: the first run of ``count`` consecutive t >= 1, tested on exact values."""
    lcs = [L[max(L)] for L in (P, Q)]
    t = 1
    while True:
        run = range(t, t + count)
        values = [[sum(c * u**i for i, c in lc.items()) for lc in lcs] for u in run]
        bad = [u for u, vs in zip(run, values) if not all(v % p for v in vs)]
        if not bad:
            return list(run)
        t = bad[-1] + 1


def test_modular_sample_points_match_the_big_integer_test(monkeypatch):
    calls = []
    sample_points = milnor_mod._sample_points

    def spy(P, Q, count, p):
        calls.append((P, Q, count))
        return sample_points(P, Q, count, p)

    monkeypatch.setattr(milnor_mod, "_sample_points", spy)
    milnor_resultant(build_F(1).F, arithmetic="modular")
    monkeypatch.undo()
    P, Q, count = calls[0]  # F(1)'s partials, as milnor_resultant shears them
    for p in primes_from_seed(2):
        pts = milnor_mod._sample_points(P, Q, count, p)
        assert pts == _big_integer_sample_points(P, Q, count, p) == list(range(1, count + 1))
        # leading y-coefficients that vanish at t = 3 mod p only, and at t = 7:
        # the run starts after the last of them
        P2, Q2 = (
            milnor_mod._y_layers(milnor_mod._integer_terms(parse_poly(text)))
            for text in (f"(x + {p - 3})*y^2 + x", "(x - 7)*y + 1")
        )
        pts = milnor_mod._sample_points(P2, Q2, 20, p)
        assert pts == _big_integer_sample_points(P2, Q2, 20, p) == list(range(8, 28))
        assert milnor_mod._sample_points(P2, Q2, 3, p) == [4, 5, 6]


def _layers(text: str) -> dict[int, dict[int, int]]:
    return milnor_mod._y_layers(milnor_mod._integer_terms(parse_poly(text)))


def test_sample_points_start_after_a_zero_of_a_leading_coefficient():
    # lc_y(P) = x - 2 vanishes at t = 2 mod every prime.  Mod 13 only, x + 11
    # vanishes at t = 2, 15, ... and x + 6 at t = 7, 20, ...: runs 3..6 and 8..12
    (p1,) = primes_from_seed(1)
    Q = _layers("y^2 + x^3")
    assert milnor_mod._sample_points(_layers("(x - 2)*y^3 + x^4"), Q, 5, p1) == [3, 4, 5, 6, 7]
    P13, Q13 = _layers("(x + 11)*y^3 + x^4"), _layers("(x + 6)*y^2 + x^3")
    assert milnor_mod._sample_points(P13, Q13, 5, p1) == [1, 2, 3, 4, 5]
    assert milnor_mod._sample_points(P13, Q13, 4, 13) == [3, 4, 5, 6]
    assert milnor_mod._sample_points(P13, Q13, 5, 13) == [8, 9, 10, 11, 12]
    for count in (1, 2, 4, 5):
        for p in (p1, 13):
            assert milnor_mod._sample_points(P13, Q13, count, p) == _big_integer_sample_points(
                P13, Q13, count, p
            )
    # the run 8..14 would pass 13: the points must stay below p
    with pytest.raises(ValueError, match="mod p = 13 by t = 12"):
        milnor_mod._sample_points(P13, Q13, 7, 13)


def test_sample_points_raise_at_once_when_no_run_can_exist():
    # x + 11 vanishes at t = 2 mod 13, and 13 points cannot lie in [1, 12] anyway
    P, Q = _layers("(x + 11)*y^3 + x^4"), _layers("y^2 + x^3")
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="no run of 13 sample points mod p = 13"):
        milnor_mod._sample_points(P, Q, 13, 13)
    # a leading coefficient 3*p1 vanishes at every t mod p1; x^3 and 3*p1 of
    # degrees 3 and 0 could leave no more than 3 roots otherwise, and a run
    # of 5 would then be complete by t = (3 + 1) * 5
    (p1,) = primes_from_seed(1)
    with pytest.raises(ValueError, match=f"no run of 5 sample points mod p = {p1} by t = 20"):
        milnor_mod._sample_points(_layers("x^3"), _layers(f"{3 * p1}*y^2"), 5, p1)
    assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("arithmetic", ["exact", "modular"])
def test_resultant_on_a_germ_whose_leading_coefficient_vanishes_at_2(monkeypatch, arithmetic):
    # f_y = 3*(x - 2)*y^2: the identity shear is admissible, and its
    # sample points must skip t = 2
    f = parse_poly("(x - 2)*y^3 + x^4")
    runs = []
    sample_points = milnor_mod._sample_points

    def spy(*args):
        runs.append(sample_points(*args))
        return runs[-1]

    monkeypatch.setattr(milnor_mod, "_sample_points", spy)
    r = milnor_resultant(f, arithmetic=arithmetic)
    assert r.mu == milnor_fulton(f).mu == 6
    assert runs and all(run[0] == 3 and run == list(range(3, 3 + len(run))) for run in runs)
    assert r.arithmetic == "exact" if arithmetic == "exact" else r.arithmetic.startswith("two-prime")


def test_modular_truncated_matches_exact():
    # the local algebra is exact only; "modular" runs the same elimination
    rng = random.Random(606)
    for _ in range(10):
        a = rng.randrange(2, 5)
        b = rng.randrange(2, 5)
        c = rng.randrange(-3, 4)
        f = parse_poly(f"x^{a} + y^{b}") + SparsePoly({(1, 1): c})
        assert milnor_number(f, arithmetic="modular") == milnor_number(f)


def test_prime_seed_shows_up_in_report(monkeypatch):
    monkeypatch.setenv("AKFORGE_PRIME_SEED", "31415")
    p1, p2 = primes_from_seed(2, seed=31415)
    r = milnor_resultant(parse_poly("x^2 + y^3"), arithmetic="modular")
    assert r.arithmetic == f"two-prime-modular({p1},{p2})"


def test_resultant_examples():
    assert milnor_resultant(parse_poly("x^2 + y^2")).mu == 1
    assert milnor_resultant(parse_poly("y^2 + x^6")).mu == 5
    assert milnor_resultant(parse_poly("x + y^2")).mu == 0
    r = milnor_resultant(parse_poly("x^2 + y^2"), arithmetic="modular")
    assert r.mu == 1


def test_resultant_nonisolated_detection():
    with pytest.raises(NonIsolated):
        milnor_resultant(parse_poly("y^2"))  # critical line y = 0
    with pytest.raises(NonIsolated):
        milnor_resultant(parse_poly("x^2*y^2"))  # both axes critical
    with pytest.raises(NonIsolated):
        milnor_resultant(SparsePoly.zero())  # zero gradient
    with pytest.raises(NonIsolated):
        milnor_resultant(parse_poly("(x + y)^3"))  # shared factor in partials


def test_resultant_retries_shear_and_succeeds():
    # Critical points at (0, 0), (0, 1/2), (0, 1) spoil the identity shear;
    # the first seeded shear moves the extra ones off the line x = 0.
    f = parse_poly("x^2 + y^2*(y - 1)^2")
    r = milnor_resultant(f)
    assert r.mu == 1


def test_resultant_rejects_a_germ_off_the_origin():
    with pytest.raises(PreconditionViolated):
        milnor_resultant(SparsePoly.constant(3))
    with pytest.raises(PreconditionViolated):
        milnor_resultant(parse_poly("1 + y^2 + x^3"), arithmetic="modular")


def test_resultant_genericity_failure(monkeypatch):
    monkeypatch.setattr(milnor_mod, "_SHEARS", (0,))
    with pytest.raises(GenericityFailure):
        milnor_resultant(parse_poly("x^2 + y^2*(y - 1)^2"))


def test_resultant_shear_seed_determinism():
    f = parse_poly("x^2 + y^2*(y - 1)^2")
    assert milnor_resultant(f) == milnor_resultant(f)


def test_resultant_gives_up_on_a_shared_factor_away_from_the_origin():
    # The partials share (2 + y)^2, which every shear keeps and which meets
    # x = 0 at y = -2, so no shear is admissible.  The oracle must give no
    # answer rather than a wrong one; Fulton and the local algebra give 3.
    f = parse_poly("(2 + y)^3*(y^2 - x^4)")
    for arithmetic in ("auto", "modular"):
        with pytest.raises(GenericityFailure, match="no admissible shear"):
            milnor_resultant(f, arithmetic=arithmetic)
    assert milnor_fulton(f).mu == 3
    assert milnor_number(f).mu == 3


def test_resultant_gives_up_on_a_high_x_degree_germ_within_2_s():
    # (x^300 + y)^2 is not isolated and no shear is admissible; each of the
    # eight shears shifts three integer terms, with no polynomial products.
    f = parse_poly("(x^300 + y)^2")
    t0 = time.perf_counter()
    with pytest.raises(GenericityFailure, match="no admissible shear"):
        milnor_resultant(f, arithmetic="modular")
    assert time.perf_counter() - t0 < 2


@st.composite
def integer_germs(draw):
    """Up to eight terms c*x^i*y^j with i, j <= 6 and 0 < |c| <= 20."""
    monomials = st.tuples(st.integers(0, 6), st.integers(0, 6))
    coefficients = st.integers(-20, 20).filter(bool)
    return SparsePoly(draw(st.dictionaries(monomials, coefficients, max_size=8)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(integer_germs())
def test_integer_shear_partials_match_compose(f):
    # the shear as a binomial shift of integer terms against the substitution
    # x -> x + t*y of SparsePoly.compose, at every shear the oracle tries
    xv, yv = SparsePoly.variable("x"), SparsePoly.variable("y")
    F = milnor_mod._integer_terms(f)
    for t in milnor_mod._SHEARS:
        g = f.compose(xv + yv.scale(t), yv)
        want = tuple(milnor_mod._integer_terms(g.diff(v)) for v in "xy")
        assert milnor_mod._partials(milnor_mod._shear(F, t)) == want, t


# The resultant oracle's shear admission before it ran in integers, moved
# here verbatim as the reference: a Fraction Euclid on p(0, y) and q(0, y).
def _restriction_y(layers: dict[int, dict[int, int]]) -> list[Fraction]:
    """Coefficient list (low to high) of p(0, y)."""
    out = [Fraction(layers.get(j, {}).get(0, 0)) for j in range(max(layers) + 1)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _gcd_univariate(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = list(a), list(b)
    while b:
        # remainder a mod b
        da, db = len(a) - 1, len(b) - 1
        inv = 1 / b[-1]
        for top in range(da, db - 1, -1):
            f = a[top] * inv
            if f:
                sh = top - db
                for i in range(db + 1):
                    a[sh + i] -= f * b[i]
        del a[db:]
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return a


def _is_monomial_univ(c: list[Fraction]) -> bool:
    return sum(1 for v in c if v) == 1


def fraction_admissible(P, Q) -> bool:
    # A shear along which f is constant leaves f_y = 0 and is not admissible.
    if not Q or any(max(L) and 0 not in L[max(L)] for L in (P, Q)):
        return False
    return _is_monomial_univ(_gcd_univariate(_restriction_y(P), _restriction_y(Q)))


@st.composite
def layer_pairs(draw):
    """y-layers of a nonzero P and a possibly zero Q, most of them keeping
    their y-degree at x = 0, both multiplied by one (y - r),
    r in {0, 1, -1, 2}, in about half the draws."""
    monomials = st.tuples(st.integers(0, 2), st.integers(0, 5))
    coefficients = st.integers(-6, 6).filter(bool)
    P, Q = (draw(st.dictionaries(monomials, coefficients, min_size=n, max_size=7)) for n in (1, 0))
    for terms in (P, Q):
        if terms and draw(st.integers(0, 3)):
            terms.setdefault((0, max(j for _, j in terms)), draw(coefficients))
    r = draw(st.sampled_from([None, 0, 1, -1, 2]))
    if r is not None:
        shared = SparsePoly({(0, 1): 1, (0, 0): -r})
        P, Q = (milnor_mod._integer_terms(SparsePoly(t) * shared) for t in (P, Q))
    return milnor_mod._y_layers(P), milnor_mod._y_layers(Q)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(layer_pairs())
@example(({0: {1: 2}}, {1: {0: 1}}))  # p(0, y) = 0 leaves q(0, y) = y: admissible
@example(({0: {1: 2}}, {2: {0: 1}, 1: {0: -1}}))  # ... or y^2 - y: not
@example(({0: {1: 1}}, {0: {2: 3}}))  # both restrictions zero
@example(({0: {1: 1}}, {}))  # f_y = 0
@example(({1: {0: 3}}, {0: {1: 5}}))  # a partial of y-degree 0
@example(({3: {0: 2}}, {5: {0: -7}, 0: {1: 1}}))  # pure powers of y
@example(({2: {1: 1}, 1: {0: 1}}, {1: {0: 1}}))  # p drops its y-degree at x = 0
@example(({2: {0: 1}, 1: {0: 2}}, {3: {0: 1}, 2: {0: 2}, 0: {1: 1}}))  # shared root y = -2
@example(({2: {0: 1}, 1: {0: 2}}, {3: {0: 1}, 2: {0: 3}, 0: {1: 1}}))  # no shared root
def test_admission_matches_the_fraction_gcd(pair):
    # the integer pseudo-remainder test against the Fraction Euclid it replaced
    P, Q = pair
    assert milnor_mod._admissible(P, Q) == fraction_admissible(P, Q)


def test_unknown_arithmetic_rejected():
    with pytest.raises(InvalidInput):
        milnor_resultant(parse_poly("x^2 + y^2"), arithmetic="float")
    with pytest.raises(InvalidInput):
        milnor_number(parse_poly("x^2 + y^2"), arithmetic="float")


def test_oracle_agreement_randomized():
    # Random perturbations of y^2 + x^(k+1) by higher-weight terms keep the
    # singularity type; both oracles must agree on mu = k.
    rng = random.Random(4242)
    for _ in range(25):
        k = rng.randrange(1, 9)
        f = parse_poly(f"y^2 + x^{k + 1}")
        # add terms strictly above the Newton segment
        for _ in range(rng.randrange(3)):
            i = rng.randrange(0, 8)
            j = rng.randrange(0, 4)
            if 2 * i + (k + 1) * j > 2 * (k + 1):
                f = f + SparsePoly({(i, j): rng.randrange(-4, 5)})
        a = milnor_number(f, expected=k).mu
        b = milnor_resultant(f).mu
        assert a == b == k, (f, a, b)


def test_report_shape():
    r = milnor_number(parse_poly("x^2 + y^2"))
    assert isinstance(r, MilnorReport)
    assert r.stabilized_at >= 1
    assert r.mu >= 0


_INVERTIBLE = [
    t for t in itertools.product(range(-3, 4), repeat=4) if t[0] * t[3] != t[1] * t[2]
]


@st.composite
def local_germs(draw):
    """A_k germs y^2 + x^(k+1) and non-isolated germs p^2 * q of degree <= 6,
    each after a random invertible linear change; an A_k germ's y may also
    get a quadratic term."""
    a, b, c, d = draw(st.sampled_from(_INVERTIBLE))
    xv, yv = SparsePoly.variable("x"), SparsePoly.variable("y")
    px = xv.scale(a) + yv.scale(b)
    py = xv.scale(c) + yv.scale(d)
    if draw(st.booleans()):
        e = draw(st.integers(1, 2))
        q = draw(st.sampled_from(["1", "1 + x", "x", "y - x"]))
        base = parse_poly(f"(y - x^{e})^2 * ({q})")
    else:
        k = draw(st.integers(1, 5))
        base = parse_poly(f"y^2 + x^{k + 1}")
        if draw(st.booleans()):
            py = py + SparsePoly({draw(st.sampled_from([(2, 0), (1, 1), (0, 2)])): 1})
    return base.compose(px, py)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(local_germs(), st.data())
def test_dimension_profile_does_not_depend_on_the_truncation(f, data):
    # D(m) read from a profile truncated at m_top is the same for every
    # m_top >= m; milnor_number's short first rungs rely on it
    fx, fy = milnor_mod._partials(milnor_mod._integer_terms(f))
    m1 = data.draw(st.integers(1, 12))
    m2 = data.draw(st.integers(m1 + 1, 16))
    dims1 = milnor_mod._dimension_profile(fx, fy, m1)
    dims2 = milnor_mod._dimension_profile(fx, fy, m2)
    assert dims1 == dims2[: m1 + 1]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(local_germs())
def test_milnor_number_matches_one_profile_at_the_bezout_rung(f):
    top = max((f.total_degree - 1) ** 2 + 1, 2)
    fx, fy = milnor_mod._partials(milnor_mod._integer_terms(f))
    dims = milnor_mod._dimension_profile(fx, fy, top)
    stable = [m for m in range(1, top) if dims[m + 1] == dims[m]]
    if not stable:
        with pytest.raises(NonIsolated):
            milnor_number(f)
        return
    m = stable[0]
    assert milnor_number(f) == MilnorReport(dims[m], "truncated-local-algebra", m, "exact")


def _unpruned_rows(fx: dict, fy: dict, m_top: int) -> list[dict[int, int]]:
    """The reference: every truncated monomial multiple of both partials,
    as milnor._relation_rows built them before it left out the multiples of
    f_x that the Koszul syzygy makes redundant."""
    rows: list[dict[int, int]] = []
    for terms in (fx, fy):
        if not terms:
            continue
        og = min(tx + ty for tx, ty in terms)
        for du in range(m_top - og):
            for a in range(du + 1):
                b = du - a
                row = {}
                for (tx, ty), c in terms.items():
                    if a + tx + b + ty < m_top:
                        row[milnor_mod._col_index(a + tx, b + ty)] = c
                if row:
                    rows.append(row)
    return rows


@settings(derandomize=True, deadline=None, max_examples=40)
@given(local_germs())
@example(parse_poly("x + y^2"))  # f_x = 1: every multiple of f_x is dropped
@example(parse_poly("y + x^2"))  # f_y = 1
@example(parse_poly("x^3"))  # f_y = 0: nothing is dropped
@example(parse_poly("y^3"))  # f_x = 0
@example(parse_poly("x^2"))  # non-isolated
@example(parse_poly("(y - x^2)^2"))  # non-isolated, f_y of least degree 1
def test_dimension_profile_matches_the_unpruned_rows(f):
    fx, fy = milnor_mod._partials(milnor_mod._integer_terms(f))
    for m in range(1, 17):
        ncols = m * (m + 1) // 2
        reference = milnor_mod._profile_to_dims(
            milnor_mod.rank_profile_sparse(_unpruned_rows(fx, fy, m), ncols), m
        )
        assert milnor_mod._dimension_profile(fx, fy, m) == reference, (f, m)


def test_relation_rows_of_F0_at_the_hinted_rung():
    # F(0) with the hint 42 is eliminated at M = 45: 820 of the 1,851 rows
    # are Koszul-redundant multiples of f_x, and the pivots are the same
    fx, fy = milnor_mod._partials(milnor_mod._integer_terms(member_s0()))
    ncols = 45 * 46 // 2
    rows = milnor_mod._relation_rows(fx, fy, 45)
    reference = _unpruned_rows(fx, fy, 45)
    assert (len(rows), len(reference)) == (1031, 1851)
    pivots = milnor_mod.rank_profile_sparse(rows, ncols)
    assert len(pivots) == 993
    assert pivots == milnor_mod.rank_profile_sparse(reference, ncols)


def test_milnor_number_raises_on_a_decreasing_profile(monkeypatch):
    # an explicit raise, so the check also runs under python -O
    monkeypatch.setattr(milnor_mod, "_dimension_profile", lambda fx, fy, m: [0, 1, 3, 2])
    with pytest.raises(AssertionError, match="non-decreasing"):
        milnor_number(parse_poly("y^2 + x^3"))


# -- Fulton's algorithm --------------------------------------------------------


def test_fulton_agrees_with_both_oracles_at_F0_and_on_criterion_6_germs():
    F = member_s0()
    assert milnor_fulton(F) == MilnorReport(42, "fulton", 42, "exact")
    assert milnor_number(F).mu == milnor_resultant(F).mu == 42
    checked = 0
    for k, f in _random_changes(random.Random(6336), 110, 15):
        if k > 8:
            continue
        try:
            mu = milnor_fulton(f).mu
        except BudgetExceeded:
            continue
        assert mu == milnor_number(f).mu == milnor_resultant(f).mu == k, (k, f)
        checked += 1
    assert checked >= 40


def test_fulton_cross_checks_F200():
    # 40 rule steps on polynomials of at most 46 terms
    assert milnor_fulton(build_F(200).F).mu == family_params(200).k == 16853842


def test_fulton_cross_checks_F100000_within_a_second():
    # Q loses its whole power of y in one step, so F(s) takes 40 steps at
    # every s >= 1
    f = build_F(10**5).F
    t0 = time.perf_counter()
    assert milnor_fulton(f).mu == family_params(10**5).k
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "text", ["(y-x^2)^2", "(y-x^8)^2", "(y-x^20)^2", "(y*(1-x)-x^2)^2", "y^2", "x^2*y^2"]
)
def test_fulton_proves_non_isolated_quickly(text):
    # the local algebra needs D(226) for (y-x^8)^2 and D(1522) for (y-x^20)^2
    t0 = time.perf_counter()
    with pytest.raises(NonIsolated, match="not isolated"):
        milnor_fulton(parse_poly(text))
    assert time.perf_counter() - t0 < 1.0


def test_fulton_unit_before_zero():
    # f_x = 1 is a unit although f_y = 0 (or 2y) vanishes at the origin
    for text in ("x", "x + y^2", "y + x^3"):
        assert milnor_fulton(parse_poly(text)) == MilnorReport(0, "fulton", 0, "exact")
    with pytest.raises(PreconditionViolated):
        milnor_fulton(parse_poly("1 + x^2"))


def test_fulton_small_cases_and_rational_coefficients():
    for a, b in ((2, 2), (2, 5), (3, 4), (4, 4), (3, 3)):
        assert milnor_fulton(parse_poly(f"x^{a} + y^{b}")).mu == (a - 1) * (b - 1)
    assert milnor_fulton(parse_poly("1/2*x^2 + 1/5*y^3")).mu == 2
    assert milnor_fulton(parse_poly("x^3 + y^3 + 7/3*x*y")).mu == 1


# A_8 after the change x -> x + 2y + xy^2, y -> 2y + x^2: dense enough that
# Fulton's polynomials pass the term budget within a few milliseconds.
DENSE_A8 = "(2*y + x^2)^2 + (x + 2*y + x*y^2)^9"


def test_fulton_budget_on_a_dense_germ():
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded, match=str(FULTON_TERM_BUDGET)):
        milnor_fulton(parse_poly(DENSE_A8))
    assert time.perf_counter() - t0 < 1.0
    assert milnor_number(parse_poly(DENSE_A8)).mu == 8


@st.composite
def changed_ak_germs(draw):
    """y^2 + x^(k+1), k <= 6, after an invertible linear change whose x or y
    may also get one quadratic term."""
    a, b, c, d = draw(st.sampled_from(_INVERTIBLE))
    xv, yv = SparsePoly.variable("x"), SparsePoly.variable("y")
    px = xv.scale(a) + yv.scale(b)
    py = xv.scale(c) + yv.scale(d)
    monomial = draw(st.sampled_from([(2, 0), (1, 1), (0, 2)]))
    tail = SparsePoly({monomial: draw(st.sampled_from([-1, 1, 2]))})
    which = draw(st.sampled_from(["none", "x", "y"]))
    px = px + tail if which == "x" else px
    py = py + tail if which == "y" else py
    k = draw(st.integers(1, 6))
    return k, parse_poly(f"y^2 + x^{k + 1}").compose(px, py)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(changed_ak_germs())
def test_fulton_matches_local_algebra_on_changed_ak_germs(germ):
    # a dense draw may outgrow the term budget; that error is the only other
    # outcome, and it bounds the time of every draw
    k, f = germ
    try:
        report = milnor_fulton(f)
    except BudgetExceeded:
        return
    assert report.mu == milnor_number(f).mu == k


def imported_names(module: str) -> set[str]:
    """The modules and akforge names that akforge/<module>.py imports."""
    path = Path(milnor_mod.__file__).with_name(f"{module}.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name.rpartition(".")[2] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                imported.add(node.module.rpartition(".")[2])
            if node.level or node.module == "akforge":
                imported |= {alias.name for alias in node.names}
    return imported


@pytest.mark.parametrize("module", ["milnor", "_modp", "_exactrank"])
def test_oracles_import_nothing_of_the_certifier(module):
    # the oracles cross-check the certifier and the classifier, so they must
    # share no code with them: no series, XSeries, Horner scheme or family
    imported = imported_names(module)
    assert not imported & {"series", "_xseries", "classify", "family"}, imported


@pytest.mark.parametrize("module", ["milnor", "_modp", "_exactrank"])
def test_oracles_compute_in_integers(module):
    # one arithmetic in the oracles: integers, and integers mod p
    assert "fractions" not in imported_names(module)
