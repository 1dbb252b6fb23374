"""Tests for the weighted-truncated series engine and coordinate inversion."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from akforge.errors import InvalidInput, PreconditionViolated
from akforge.poly import SparsePoly, parse_poly
from akforge.series import (
    TruncatedSeries,
    Weights,
    _ZLayers,
    compose_curve,
    invert_change,
    truncate_by_weight,
)

W11 = Weights(1, 1)


def rand_int_poly(rng: random.Random, max_deg=4, nterms=5, min_deg=0) -> SparsePoly:
    terms = []
    for _ in range(rng.randrange(1, nterms + 1)):
        while True:
            e = (rng.randrange(max_deg + 1), rng.randrange(max_deg + 1))
            if e[0] + e[1] >= min_deg:
                break
        terms.append((e, rng.randrange(-9, 10)))
    return SparsePoly(terms)


def layered_product(p: SparsePoly, q: SparsePoly, w: Weights, cutoff: int) -> SparsePoly:
    """p * q in the window, formed on z-layers."""
    window = (*w, cutoff)
    a, b = (_ZLayers.from_rows(t.coeffs_in_y(), window) for t in (p, q))
    return (a * b).to_poly()


def test_contract_validation():
    with pytest.raises(InvalidInput):
        TruncatedSeries(SparsePoly.zero(), Weights(0, 1), 4)
    with pytest.raises(InvalidInput):
        TruncatedSeries(SparsePoly.zero(), Weights(1, 1), -1)
    with pytest.raises(InvalidInput):
        TruncatedSeries(parse_poly("x^5"), Weights(1, 1), 4)
    s = TruncatedSeries(parse_poly("x^2*y"), Weights(2, 3), 7)
    assert s.coefficient(2, 1) == 1


def test_from_poly_truncates():
    s = TruncatedSeries.from_poly(parse_poly("x^5 + x^2 + y^3"), Weights(1, 2), 4)
    assert s.body == parse_poly("x^2")
    assert truncate_by_weight(parse_poly("x + y"), Weights(3, 5), 4) == parse_poly("x")


def test_mul_matches_truncated_sparse_product():
    rng = random.Random(424242)
    for _ in range(60):
        w = Weights(rng.randrange(1, 4), rng.randrange(1, 4))
        cutoff = rng.randrange(0, 12)
        p, q = rand_int_poly(rng), rand_int_poly(rng)
        if rng.random() < 0.3:
            p = p.scale(Fraction(1, rng.randrange(2, 5)))
        a = TruncatedSeries.from_poly(p, w, cutoff)
        b = TruncatedSeries.from_poly(q, w, cutoff)
        got = layered_product(a.body, b.body, w, cutoff)
        assert got == truncate_by_weight(a.body * b.body, w, cutoff)


def test_mul_across_several_z_layers():
    # weights (1, 2) and cutoff 9 give the layers z^0 .. z^4, of precisions
    # 10, 8, 6, 4, 2; every product layer sums several pairs of layers
    w, cutoff = Weights(1, 2), 9
    p = parse_poly("(1 + x + 1/2*y)^4 + x^3*y^2")
    q = parse_poly("(2 - x*y + y^2)^3 + 1/3*x^7")
    window = (*w, cutoff)
    a, b = (_ZLayers.from_rows(t.coeffs_in_y(), window) for t in (p, q))
    assert sorted(a.rows) == sorted(b.rows) == [0, 1, 2, 3, 4]
    assert [a.rows[j].prec for j in range(5)] == [10, 8, 6, 4, 2]
    want = truncate_by_weight(p * q, w, cutoff)
    assert (a * b).to_poly() == want
    r = parse_poly("x^2 - 5*y^3")
    c = _ZLayers.from_rows(r.coeffs_in_y(), window)
    assert a.mul_add(b, c).to_poly() == want + truncate_by_weight(r, w, cutoff)


def test_invert_simple_quadratic_gives_catalan_counts():
    phi = invert_change(parse_poly("y^2"), W11, 5)
    assert phi.body == parse_poly("y + y^2 + 2*y^3 + 5*y^4 + 14*y^5")


def test_invert_degree_eight_perturbation_low_order():
    A = parse_poly("x^4 + 2*x^3*y^2 - 2*x^2*y^4 + 4*x*y^6 - 10*y^8")
    phi = invert_change(A, W11, 6)
    assert phi.body == parse_poly("y + x^4 + 2*x^3*y^2 - 2*x^2*y^4")


def test_invert_reads_the_layers_of_A_once(monkeypatch):
    # z joins A's y^0 layer, so every fixed-point pass substitutes into the
    # same layers; the s = 0 member takes several passes
    read = []
    coeffs_in_y = SparsePoly.coeffs_in_y
    monkeypatch.setattr(SparsePoly, "coeffs_in_y", lambda p: read.append(p) or coeffs_in_y(p))
    A = parse_poly("x^4 + 2*x^3*y^2 - 2*x^2*y^4 + 4*x*y^6 - 10*y^8")
    assert invert_change(A, Weights(2, 43), 86).body == invert_oracle(A, Weights(2, 43), 86)
    assert read.count(A) == 1


def test_invert_precondition():
    with pytest.raises(PreconditionViolated):
        invert_change(parse_poly("y"), W11, 4)
    with pytest.raises(PreconditionViolated):
        invert_change(parse_poly("x + y^2"), W11, 4)
    # zero perturbation is fine: the change is the identity
    assert invert_change(SparsePoly.zero(), W11, 4).body == parse_poly("y")


def test_invert_cutoff_must_fit_z():
    with pytest.raises(InvalidInput):
        invert_change(parse_poly("y^2"), Weights(1, 5), 4)


def test_invert_rejects_non_integer_weights():
    # 2.5 used to be computed with and then recorded as 2: the body lacked
    # x^3, which true (2, 3) weights keep within cutoff 7
    with pytest.raises(InvalidInput):
        invert_change(parse_poly("x^3 + y^2"), Weights(2.5, 3), 7)
    for w, cutoff in ((Weights(True, 1), 4), (Weights(1, 1), 4.0), (Weights(1, 1), True)):
        with pytest.raises(InvalidInput):
            invert_change(parse_poly("y^2"), w, cutoff)


def test_invert_rejects_a_zero_weight_at_once():
    # a zero x-weight never gains weighted order: this used to run for minutes
    with pytest.raises(InvalidInput):
        invert_change(parse_poly("x*y + y^2"), Weights(0, 1), 200)


@pytest.mark.parametrize("w", [Weights(0, 1), Weights(-1, 1), Weights(1, 0), Weights(1, -2)])
def test_invert_rejects_non_positive_weights(w):
    # these used to end in RuntimeError after the whole iteration
    with pytest.raises(InvalidInput):
        invert_change(parse_poly("x*y + y^2"), w, 4)


@pytest.mark.parametrize(
    "w, cutoff",
    [(Weights(2.5, 3), 7), (Weights(2, 3.0), 7), (Weights(False, 1), 4), (Weights(1, 1), 7.0)],
)
def test_series_record_rejects_non_integer_window(w, cutoff):
    with pytest.raises(InvalidInput):
        TruncatedSeries(SparsePoly.zero(), w, cutoff)


def invert_oracle(A: SparsePoly, w: Weights, cutoff: int) -> SparsePoly:
    """Fixed point of phi <- z + A(x, phi), expanding in full before truncating."""
    z = SparsePoly.variable("y")
    phi = z
    for _ in range(cutoff + 2):
        nxt = truncate_by_weight(z + A.subst("y", phi), w, cutoff)
        if nxt == phi:
            return phi
        phi = nxt
    raise AssertionError("oracle iteration did not converge")


def test_invert_engines_agree_randomized():
    # The truncated engine against the untruncated fixed-point oracle.
    rng = random.Random(808)
    for _ in range(30):
        A = rand_int_poly(rng, max_deg=4, nterms=4, min_deg=2)
        w = Weights(rng.randrange(1, 3), rng.randrange(1, 3))
        cutoff = rng.randrange(w.wz, 10)
        got = invert_change(A, w, cutoff)
        assert got.body == invert_oracle(A, w, cutoff), (A, w, cutoff)


def test_invert_round_trip_randomized():
    # phi solves y = z + A(x, y), so substituting phi into y - A(x, y)
    # must give back exactly z within the window.
    rng = random.Random(909)
    for _ in range(30):
        A = rand_int_poly(rng, max_deg=5, nterms=5, min_deg=2)
        w = Weights(rng.randrange(1, 4), rng.randrange(1, 4))
        cutoff = rng.randrange(w.wz, 14)
        phi = invert_change(A, w, cutoff)
        resid = compose_curve(SparsePoly.variable("y") - A, phi)
        assert resid.body == parse_poly("y"), (A, w, cutoff)


def test_invert_rational_coefficients():
    A = parse_poly("1/2*y^2")
    phi = invert_change(A, W11, 4)
    resid = compose_curve(SparsePoly.variable("y") - A, phi)
    assert resid.body == parse_poly("y")
    assert phi.body == invert_oracle(A, W11, 4)


def test_compose_engines_and_oracle():
    rng = random.Random(515)
    for _ in range(40):
        F = rand_int_poly(rng, max_deg=5, nterms=6)
        s = TruncatedSeries.from_poly(
            rand_int_poly(rng, max_deg=4, nterms=4),
            Weights(rng.randrange(1, 3), rng.randrange(1, 3)),
            rng.randrange(0, 10),
        )
        oracle = truncate_by_weight(F.subst("y", s.body), s.weights, s.cutoff)
        assert compose_curve(F, s).body == oracle


def test_compose_identity_series():
    F = parse_poly("y^2 - 2*x^3*y + x^7")
    ident = TruncatedSeries.from_poly(parse_poly("y"), W11, 7)
    assert compose_curve(F, ident).body == F


def test_certification_window_small_member():
    # Degree-9 member: the change of variable z = y - A collapses the curve
    # to z^2 + 56*x^43 inside the weight-86 window.
    A = parse_poly("x^4 + 2*x^3*y^2 - 2*x^2*y^4 + 4*x*y^6 - 10*y^8")
    F = parse_poly("y^2 + x^8 + 4*x^7*y^2") - parse_poly("2*y") * A
    w = Weights(2, 43)
    phi = invert_change(A, w, 86)
    G = compose_curve(F, phi)
    assert G.body == parse_poly("z^2 + 56*x^43".replace("z", "y"))
    assert compose_curve(SparsePoly.variable("y") - A, phi).body == parse_poly("y")


# -- property tests against the untruncated oracle --------------------------

coeffs = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
weights = st.builds(Weights, st.integers(1, 4), st.integers(1, 4))


def polys(max_ex: int, max_ey: int, max_terms: int):
    monomials = st.tuples(st.integers(0, max_ex), st.integers(0, max_ey))
    return st.dictionaries(monomials, coeffs, max_size=max_terms).map(SparsePoly)


@st.composite
def gapped_polys(draw):
    """F whose y-exponents sit up to 12 apart, so Horner steps need r**gap."""
    ey = draw(st.integers(0, 2))
    layers = []
    for gap in draw(st.lists(st.integers(1, 12), max_size=3)):
        layers.append(ey)
        ey += gap
    layers.append(ey)
    terms = [
        ((ex, e), draw(coeffs))
        for e in layers
        for ex in draw(st.sets(st.integers(0, 5), min_size=1, max_size=2))
    ]
    return SparsePoly(terms)


PROPERTY = settings(derandomize=True, deadline=None, max_examples=80)


@PROPERTY
@given(polys(6, 6, 6), polys(6, 6, 6), weights, st.integers(0, 24))
def test_mul_property_matches_untruncated_product(p, q, w, cutoff):
    a = TruncatedSeries.from_poly(p, w, cutoff)
    b = TruncatedSeries.from_poly(q, w, cutoff)
    got = layered_product(a.body, b.body, w, cutoff)
    assert got == truncate_by_weight(a.body * b.body, w, cutoff)


@PROPERTY
@given(gapped_polys(), polys(3, 2, 3), weights, st.integers(0, 30))
def test_compose_property_matches_untruncated_subst(F, r, w, cutoff):
    s = TruncatedSeries.from_poly(r, w, cutoff)
    oracle = truncate_by_weight(F.subst("y", s.body), w, cutoff)
    assert compose_curve(F, s).body == oracle
