"""Tests for the Newton-segment certifier and the splitting-lemma classifier."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from akforge.classify import (
    AkCertificate,
    AkResult,
    hessian_corank,
    newton_ak_certify,
    split_and_classify,
)
from akforge.errors import (
    InvalidInput,
    MismatchedContract,
    NonIsolated,
    NotACriticalGerm,
    WindowTooSmall,
)
from akforge.milnor import milnor_number
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
    with pytest.raises(InvalidInput):
        split_and_classify(parse_poly("y^2"), cap=0)


def test_classify_tangential_double_point():
    assert split_and_classify(parse_poly("(y - x^2)^2 + y^5")).k == 9


def test_classify_rotated_normal_forms():
    # quadratic part x^2: variables must swap
    assert split_and_classify(parse_poly("x^2 + y^4")).k == 3
    # full quadratic corank-1 part
    assert split_and_classify(parse_poly("(x + y)^2 + x^3")).k == 2
    assert split_and_classify(parse_poly("(x - 2*y)^2 + y^6")).k == 5


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


def test_classify_cap_respected_then_released():
    f = parse_poly("y^2 + x^12")
    assert split_and_classify(f, cap=4) == AkResult("Undetermined", cap=4)
    assert split_and_classify(f, cap=12).k == 11
    assert split_and_classify(f, cap=4096).k == 11


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


def test_certificate_dataclass_properties():
    cert = AkCertificate(
        k=2,
        coeff_z2=Fraction(1),
        coeff_xk1=Fraction(0),
        weights=Weights(2, 3),
        cutoff=6,
    )
    assert not cert.certified
    with pytest.raises(InvalidInput):
        AkResult("B_k")
    with pytest.raises(InvalidInput):
        AkResult("A_k", k=0)
    with pytest.raises(InvalidInput):
        AkResult("Undetermined")
