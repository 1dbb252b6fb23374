"""Tests for the Newton-segment certifier and the splitting-lemma classifier."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from akforge._xseries import XSeries
from akforge.classify import (
    AkCertificate,
    AkResult,
    _eval_on_branch,
    _dy,
    _lift,
    _y_layers,
    _y_square_chart,
    hessian_corank,
    newton_ak_certify,
    split_and_classify,
)
from akforge.errors import (
    BudgetExceeded,
    InvalidInput,
    MismatchedContract,
    NonIsolated,
    NotACriticalGerm,
    WindowTooSmall,
)
from akforge.milnor import milnor_fulton, milnor_number
from akforge.poly import SparsePoly, parse_poly
from akforge.series import TruncatedSeries, Weights


def series_for(text: str, k: int, cutoff: int | None = None) -> TruncatedSeries:
    w = Weights(2, k + 1)
    return TruncatedSeries.from_poly(parse_poly(text), w, cutoff or 2 * (k + 1))


def member_s0() -> SparsePoly:
    A = parse_poly("x^4 + 2*x^3*y^2 - 2*x^2*y^4 + 4*x*y^6 - 10*y^8")
    return parse_poly("y^2 + x^8 + 4*x^7*y^2") - parse_poly("2*y") * A


# -- newton_ak_certify -----------------------------------------------------


def test_certify_normal_form_with_heavier_term():
    # the x^44 term weighs 88 > 86, so it must not spoil certification
    s = series_for("y^2 + 56*x^43 + 3*x^44", 42, cutoff=88)
    cert = newton_ak_certify(s, 42)
    assert cert.certified
    assert cert.coeff_z2 == 1
    assert cert.coeff_xk1 == 56
    assert cert.violations == ()


def test_certify_cusp():
    cert = newton_ak_certify(series_for("y^2 + x^3", 2), 2)
    assert cert.certified and cert.k == 2


def test_certify_reports_on_segment_violation():
    # (21, 1) satisfies 21/43 + 1/2 <= 1, so it lies on or below the segment
    cert = newton_ak_certify(series_for("y^2 + 56*x^43 + x^21*y", 42), 42)
    assert not cert.certified
    assert [(m.ex, m.ey) for m, _ in cert.violations] == [(21, 1)]
    assert cert.violations[0][1] == 1


def test_certify_missing_endpoint_not_certified():
    cert = newton_ak_certify(series_for("y^2", 5), 5)
    assert cert.coeff_xk1 == 0 and not cert.certified
    cert = newton_ak_certify(series_for("x^6", 5), 5)
    assert cert.coeff_z2 == 0 and not cert.certified


def test_certify_window_and_contract_errors():
    s = series_for("y^2 + x^3", 2)
    with pytest.raises(MismatchedContract):
        newton_ak_certify(s, 3)
    with pytest.raises(WindowTooSmall):
        newton_ak_certify(
            TruncatedSeries.from_poly(parse_poly("y^2"), Weights(2, 6), 10), 5
        )
    with pytest.raises(InvalidInput):
        newton_ak_certify(s, 0)


def test_certify_rejects_a_non_integer_k():
    # 2.0 matches the (2, 3) weights numerically and used to be certified as k = 2.0
    with pytest.raises(InvalidInput):
        newton_ak_certify(series_for("y^2 + x^3", 2), 2.0)
    with pytest.raises(InvalidInput):
        newton_ak_certify(series_for("y^2 + x^2", 1), True)


def test_certificate_term_exactly_on_segment_midpoint():
    # for odd weights, (3, 1) with k=5: 2*3 + 6*1 = 12 = 2(k+1): on the segment
    cert = newton_ak_certify(series_for("y^2 + x^6 + x^3*y", 5), 5)
    assert [(m.ex, m.ey) for m, _ in cert.violations] == [(3, 1)]


# -- hessian_corank --------------------------------------------------------


def test_hessian_corank_examples():
    assert hessian_corank(parse_poly("x^2 + y^2")) == 0
    assert hessian_corank(parse_poly("y^2 + x^3")) == 1
    assert hessian_corank(parse_poly("x^3 + y^3")) == 2
    assert hessian_corank(parse_poly("x^2 + 2*x*y + y^2")) == 1
    assert hessian_corank(parse_poly("x*y")) == 0


def test_hessian_corank_rejects_noncritical():
    with pytest.raises(NotACriticalGerm):
        hessian_corank(parse_poly("1 + x^2"))
    with pytest.raises(NotACriticalGerm):
        hessian_corank(parse_poly("x + y^2"))


# -- split_and_classify ----------------------------------------------------


def test_classify_basic_kinds():
    assert split_and_classify(parse_poly("y^2 + x^3")) == AkResult("A_k", k=2)
    assert split_and_classify(parse_poly("x^2 + y^2")) == AkResult("A_k", k=1)
    assert split_and_classify(parse_poly("x + y^3")) == AkResult("Smooth")
    assert split_and_classify(parse_poly("x^3 + y^3")) == AkResult("NotCorankOne")
    with pytest.raises(NotACriticalGerm):
        split_and_classify(parse_poly("1 + y^2"))
    for bad in (0, 2.5, True, "8"):
        with pytest.raises(InvalidInput):
            split_and_classify(parse_poly("y^2"), cap=bad)


def test_classify_tangential_double_point():
    assert split_and_classify(parse_poly("(y - x^2)^2 + y^5")).k == 9


def test_classify_rotated_normal_forms():
    # quadratic part x^2: variables must swap
    assert split_and_classify(parse_poly("x^2 + y^4")).k == 3
    # full quadratic corank-1 part
    assert split_and_classify(parse_poly("(x + y)^2 + x^3")).k == 2
    assert split_and_classify(parse_poly("(x - 2*y)^2 + y^6")).k == 5


RUNG_GERMS = [
    "(x + y)^2 + x^3",
    "(x - 2*y)^2 + y^6 + x^3*y",
    "(3*x - y + x*y)^2*(1 - x + 2*y) + x^9",
    "1/4*y^2 + 2/3*x^5 + 1/3*x^2*y",
    "(1/2*x - 3/5*y + 1/7*x^2)^2 + 1/3*y^7",
    "x^2 + y^4 + x*y^2 - 2*x*y^3",
]


@pytest.mark.parametrize("text", RUNG_GERMS)
def test_each_rung_lifts_the_branch_one_newton_step(text):
    # quadratic parts with b != 0 and c != 0, rational coefficients, and a
    # quadratic part x^2 that puts the germ through the variable swap
    f = _y_square_chart(parse_poly(text))
    assert f.coefficient(0, 2) != 0
    fy = f.diff("y")
    fy_layers, fyy_layers = _y_layers(fy), _y_layers(fy.diff("y"))
    h = XSeries.zero(1)
    for rung in range(1, 6):
        h = _lift(fy_layers, fyy_layers, h)
        assert h.prec == 2**rung
        assert h.coefficient(0) == 0
        # f_y(x, h(x)) by exact substitution, not by the classifier's Horner
        branch = SparsePoly({(i, 0): c for i, c in enumerate(h.coefficients())})
        residual = fy.subst("y", branch)
        assert all(m.ex >= h.prec for m, _ in residual.terms()), (rung, h)


def as_poly(h: XSeries) -> SparsePoly:
    return SparsePoly({(i, 0): c for i, c in enumerate(h.coefficients())})


@pytest.mark.parametrize("text", RUNG_GERMS)
def test_f_on_the_branch_mod_x_2p_needs_the_root_mod_x_p(text):
    # f_y(x, h) = O(x^p) and h* - h = O(x^p), so f(x, h) = f(x, h*) mod x^(2p):
    # the classifier reads f at twice the branch precision before lifting
    f = _y_square_chart(parse_poly(text))
    fy = f.diff("y")
    layers, fy_layers, fyy_layers = map(_y_layers, (f, fy, fy.diff("y")))
    h = XSeries.zero(1)
    while h.prec <= 16:
        p = h.prec
        far = _lift(fy_layers, fyy_layers, _lift(fy_layers, fyy_layers, h))
        assert far.prec == 4 * p
        exact = {m.ex: c for m, c in f.subst("y", as_poly(far)).terms() if m.ex < 2 * p}
        assert _eval_on_branch(layers, h.resize(2 * p)) == XSeries.from_terms(exact, 2 * p)
        h = _lift(fy_layers, fyy_layers, h)


@st.composite
def y_polys(draw):
    """Rational f with up to 12 terms, y-degree up to 9 and x-degree up to 30."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    terms = {}
    for _ in range(draw(st.integers(0, 12))):
        c = Fraction(rng.randrange(-9, 10), rng.randrange(1, 7))
        terms[(rng.randrange(31), rng.randrange(10))] = c
    return SparsePoly(terms)


def _assert_derived_layers(f: SparsePoly) -> None:
    # the classifier derives f_y and f_yy from f's layers; SparsePoly.diff is the reference
    fy_layers = _dy(_y_layers(f))
    assert fy_layers == _y_layers(f.diff("y"))
    assert _dy(fy_layers) == _y_layers(f.diff("y").diff("y"))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(y_polys())
@example(parse_poly("x^3 + 5"))
@example(parse_poly("y"))
@example(parse_poly("2/3*x*y^2 - y^3"))
def test_y_derivative_layers_equal_the_layers_of_the_derivative(f):
    _assert_derived_layers(f)


@pytest.mark.parametrize("text", RUNG_GERMS)
def test_y_derivative_layers_on_the_rung_germs(text):
    _assert_derived_layers(_y_square_chart(parse_poly(text)))


@st.composite
def germs_and_branches(draw):
    """f with y-exponent gaps up to 12, and a series h of precision up to 40."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    ey = draw(st.integers(0, 3))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        for _ in range(rng.randrange(1, 4)):
            terms[(rng.randrange(25), ey)] = Fraction(rng.randrange(1, 10), rng.randrange(1, 4))
        ey += draw(st.integers(1, 12))
    prec = draw(st.integers(1, 40))
    h = {rng.randrange(prec): Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
         for _ in range(draw(st.integers(0, 4)))}
    return SparsePoly(terms), XSeries.from_terms(h, prec)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(germs_and_branches())
@example((parse_poly("y^25 + x*y^13 + y^12 + x^3"), XSeries([0, 1, 1], prec=30)))
def test_eval_on_branch_matches_exact_substitution(case):
    f, h = case
    branch = SparsePoly({(i, 0): c for i, c in enumerate(h.coefficients())})
    exact = {m.ex: c for m, c in f.subst("y", branch).terms() if m.ex < h.prec}
    assert _eval_on_branch(_y_layers(f), h) == XSeries.from_terms(exact, h.prec)


def test_classify_undetermined_square():
    r = split_and_classify(parse_poly("y^2 + x^80"), cap=64)
    assert r == AkResult("Undetermined", cap=64)


@pytest.mark.parametrize(
    "text",
    ["y^2", "x^2", "(x + y)^2", "(y - x^2)^2", "(y - x^2 - x^5)^2*(1 + x)", "y^2*(1 + x^2)"],
)
def test_classify_non_isolated_polynomial_branch(text):
    with pytest.raises(NonIsolated):
        split_and_classify(parse_poly(text))


@pytest.mark.parametrize(
    "text", ["(y*(1-x) - x^2)^2", "(y*(1+x) - x^2)^2*(1 + x + y)^10"]
)
def test_classify_non_isolated_series_branch(text):
    # the branch y = x^2/(1 -+ x) is a power series, not a polynomial; the
    # search stops once f(x, h(x)) vanishes past the Bezout bound on k + 1
    with pytest.raises(NonIsolated, match="Bezout"):
        split_and_classify(parse_poly(text))


def test_classify_cap_respected_then_released():
    f = parse_poly("y^2 + x^12")
    assert split_and_classify(f, cap=4) == AkResult("Undetermined", cap=4)
    assert split_and_classify(f, cap=12).k == 11
    assert split_and_classify(f, cap=4096).k == 11


def test_cap_below_the_bezout_stop_is_a_budget():
    # (y - x^2)^2 is proven non-isolated on the first rung past (d-1)^2 + 1
    # = 10; a smaller cap ends the search first, at rung 8
    f = parse_poly("(y - x^2)^2")
    assert split_and_classify(f, cap=5) == AkResult("Undetermined", cap=5)
    with pytest.raises(NonIsolated, match="mod x\\^16"):
        split_and_classify(f, cap=10)


def test_classify_member_s0():
    assert split_and_classify(member_s0()) == AkResult("A_k", k=42)


def test_classify_agrees_with_certifier_small_members():
    # the general classifier must reproduce the certified k of the first
    # three family members without seeing the explicit change of variables;
    # s = 2 (k = 2260) runs the precision ladder up to 4096
    from akforge.family import certify_member

    for s in (0, 1, 2):
        cert = certify_member(s)
        result = split_and_classify(build_member(s))
        assert result == AkResult("A_k", k=cert.params.k)


def test_classify_member_s3_without_cap():
    # k + 1 = 4630 needs precision 8192, below the Bezout stop 92^2 + 1
    assert split_and_classify(build_member(3)) == AkResult("A_k", k=4629)


@pytest.mark.parametrize("s", [8, 20, 200])
def test_classify_far_members(s):
    # the branch has about ten nonzero terms at precision up to 2^25, so the
    # sparse series and the gap powers keep each member to milliseconds
    assert split_and_classify(build_member(s)) == AkResult("A_k", k=420 * s * s + 269 * s + 42)


@pytest.mark.parametrize("s", [0, 1, 2, 3, 4, 20, 200])
def test_classify_unit_factor_members(s):
    # u * F(s) with u(0) = 1 has the type of F(s), but the unit enters f_y
    # and f_yy: these rungs run the long division and the full Horner sums
    for unit in ("1 + x^27", "1 + x", "1 + x + y"):
        f = build_member(s) * parse_poly(unit)
        assert split_and_classify(f) == AkResult("A_k", k=420 * s * s + 269 * s + 42), unit


@pytest.mark.parametrize("s, pads", [(0, range(28)), (1, range(28)), (20, [27])])
def test_every_degree_member_keeps_the_type(s, pads):
    # F(s) * (1 + x)^j has degree d = 28s + 9 + j and the A_k point of F(s),
    # so the degrees 28s + 9 .. 28s + 36 all have a member of type A_k(s)
    k = 420 * s * s + 269 * s + 42
    for j in pads:
        f = build_member(s) * parse_poly(f"(1 + x)^{j}")
        assert f.total_degree == 28 * s + 9 + j
        assert split_and_classify(f) == AkResult("A_k", k=k), j


def test_classify_dense_unit_factor_member():
    f = build_member(1) * parse_poly("(1 + x + y)^9")
    assert split_and_classify(f) == AkResult("A_k", k=731)


def test_classify_high_order_and_high_degree_graph():
    assert split_and_classify(parse_poly("y^2 + x^100001")) == AkResult("A_k", k=100000)
    with pytest.raises(NonIsolated, match="Bezout"):
        split_and_classify(parse_poly("(y - x^500)^2"))


def build_member(s: int):
    from akforge.family import build_F

    return build_F(s).F


def test_classify_rational_coefficients():
    assert split_and_classify(parse_poly("1/4*y^2 + 2/3*x^5")).k == 4


def random_change(rng: random.Random):
    while True:
        a, b, c, d = (rng.randrange(-3, 4) for _ in range(4))
        if a * d - b * c != 0:
            break
    xv, yv = SparsePoly.variable("x"), SparsePoly.variable("y")
    px = xv.scale(a) + yv.scale(b)
    py = xv.scale(c) + yv.scale(d)
    # optional higher-order tails keep the change origin-preserving
    for _ in range(rng.randrange(3)):
        e = (rng.randrange(3), rng.randrange(3))
        if e[0] + e[1] >= 2:
            t = SparsePoly({e: rng.randrange(-2, 3)})
            if rng.random() < 0.5:
                px = px + t
            else:
                py = py + t
    return px, py


def test_classify_right_equivalence_randomized():
    rng = random.Random(1212)
    for _ in range(40):
        k = rng.randrange(1, 16)
        f = parse_poly(f"y^2 + x^{k + 1}")
        px, py = random_change(rng)
        g = f.compose(px, py)
        r = split_and_classify(g)
        assert r == AkResult("A_k", k=k), (k, px, py)


def test_classify_agrees_with_milnor_small_k():
    rng = random.Random(3434)
    for _ in range(15):
        k = rng.randrange(1, 9)
        f = parse_poly(f"y^2 + x^{k + 1}")
        px, py = random_change(rng)
        g = f.compose(px, py)
        assert milnor_number(g, expected=k).mu == k


invertible_linear = st.tuples(*[st.integers(-3, 3)] * 4).filter(
    lambda m: m[0] * m[3] - m[1] * m[2] != 0
)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.integers(1, 12), st.integers(1, 40), invertible_linear)
@example(3, 4, (1, 0, 0, 1))
@example(4, 4, (2, 1, 1, 1))
@example(7, 8, (1, -2, 3, 1))
@example(8, 8, (0, 1, 1, 0))
def test_cap_under_linear_changes(k, cap, m):
    # the vanishing order k + 1 is first seen on rung 2, 4, 8, ... or later,
    # so the examples put k + 1 and cap on a rung; k = 1 is read off the
    # Hessian, before any cap applies
    a, b, c, d = m
    xv, yv = SparsePoly.variable("x"), SparsePoly.variable("y")
    change = (xv.scale(a) + yv.scale(b), xv.scale(c) + yv.scale(d))
    f = parse_poly(f"y^2 + x^{k + 1}").compose(*change)
    if k == 1 or k + 1 <= cap:
        assert split_and_classify(f, cap=cap) == AkResult("A_k", k=k)
    else:
        assert split_and_classify(f, cap=cap) == AkResult("Undetermined", cap=cap)


small_ints = st.integers(-3, 3)


@st.composite
def smooth_branch_germs(draw):
    """u * (q*y - p)^2 with p(0) = 0, q(0) != 0 and a unit u = 1 + c*x."""
    xv, yv = SparsePoly.variable("x"), SparsePoly.variable("y")
    p = SparsePoly({(1, 0): draw(small_ints), (2, 0): draw(small_ints)})
    q = SparsePoly({(0, 0): draw(small_ints.filter(bool)), (1, 0): draw(small_ints)})
    u = SparsePoly.one() + xv.scale(draw(small_ints))
    return u, (q * yv - p) ** 2


@settings(derandomize=True, deadline=None, max_examples=15)
@given(smooth_branch_germs(), st.integers(1, 8))
def test_classifier_and_oracle_agree_on_smooth_branch_squares(germ, k):
    # extends criteria 6c/6d: the square of a smooth branch through the
    # origin is non-isolated, and adding x^(k+1) makes it A_k
    u, square = germ
    with pytest.raises(NonIsolated):
        split_and_classify(u * square)
    with pytest.raises(NonIsolated):
        milnor_number(u * square)
    f = u * (square + SparsePoly.term(k + 1, 0))
    assert split_and_classify(f) == AkResult("A_k", k=k)
    assert milnor_number(f).mu == k


@st.composite
def unit_factors(draw):
    """u of degree <= 2 with u(0) != 0."""
    c = draw(small_ints.filter(bool))
    rest = {e: draw(small_ints) for e in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2))}
    return SparsePoly({(0, 0): c, **rest})


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(1, 6), invertible_linear, unit_factors())
def test_unit_factor_keeps_the_type(k, m, u):
    # u * g has the type of g when u(0) != 0; a unit factor makes the germ
    # dense, so Fulton may pass its term budget, and the local algebra answers
    a, b, c, d = m
    xv, yv = SparsePoly.variable("x"), SparsePoly.variable("y")
    change = (xv.scale(a) + yv.scale(b), xv.scale(c) + yv.scale(d))
    g = parse_poly(f"y^2 + x^{k + 1}").compose(*change)
    f = u * g
    assert split_and_classify(f) == AkResult("A_k", k=k)
    try:
        assert milnor_fulton(f).mu == k
    except BudgetExceeded:
        assert milnor_number(f).mu == k


@st.composite
def nonlinear_changes(draw):
    """(a*x + b*y + p, c*x + d*y + q), ad - bc != 0, p and q of order 2 to 3."""
    a, b, c, d = draw(invertible_linear)
    xv, yv = SparsePoly.variable("x"), SparsePoly.variable("y")
    higher = st.dictionaries(
        st.sampled_from(((2, 0), (1, 1), (0, 2), (3, 0), (2, 1), (0, 3))), small_ints, max_size=2
    ).map(SparsePoly)
    return xv.scale(a) + yv.scale(b) + draw(higher), xv.scale(c) + yv.scale(d) + draw(higher)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(1, 8), nonlinear_changes())
@example(8, (parse_poly("x + y^2"), parse_poly("y + x^2")))
@example(3, (parse_poly("y - x^3"), parse_poly("x + 2*x*y")))
@example(6, (parse_poly("x + y + x^2 - 3*y^3"), parse_poly("y - 2*x + 3*x*y + x^3")))
def test_classifier_matches_the_oracles_under_nonlinear_changes(k, change):
    # the oracles as the CLI runs them: Fulton, then the local algebra once
    # Fulton passes its term budget (as on the last example)
    f = parse_poly(f"y^2 + x^{k + 1}").compose(*change)
    try:
        mu = milnor_fulton(f).mu
    except BudgetExceeded:
        mu = milnor_number(f).mu
    assert mu == k
    assert split_and_classify(f) == AkResult("A_k", k=mu)


def test_certificate_dataclass_properties():
    cert = AkCertificate(k=2, coeff_z2=Fraction(1), coeff_xk1=Fraction(0))
    assert not cert.certified
    with pytest.raises(InvalidInput):
        AkResult("B_k")
    with pytest.raises(InvalidInput):
        AkResult("A_k", k=0)
    with pytest.raises(InvalidInput):
        AkResult("Undetermined")
