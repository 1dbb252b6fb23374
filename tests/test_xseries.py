"""Tests for truncated univariate series arithmetic."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from akforge._xseries import XSeries
from akforge.errors import InvalidInput


def rand_series(rng: random.Random, prec: int, rational=True) -> XSeries:
    coeffs = [
        Fraction(rng.randrange(-9, 10), rng.randrange(1, 5) if rational else 1)
        for _ in range(prec)
    ]
    return XSeries.from_fractions(coeffs, prec)


def test_construction_and_normalization():
    s = XSeries([2, 4, 6], den=2)
    assert s.coefficients() == [1, 2, 3]
    assert s.den == 1
    t = XSeries([1, 0], den=-3)
    assert t.coefficient(0) == Fraction(-1, 3)
    assert XSeries([5], prec=4).coefficients() == [5, 0, 0, 0]
    with pytest.raises(ZeroDivisionError):
        XSeries([1], den=0)
    with pytest.raises(InvalidInput):
        XSeries([], prec=0)


@pytest.mark.parametrize(
    "num, den",
    [
        ([1, Fraction(1, 2)], 1),
        ([1, Fraction(2, 1)], 1),
        ([1, 0.5], 1),
        ([1.0, 2], 1),
        (["1"], 1),
        ([1, 2], 2.5),
        ([1, 2], Fraction(2)),
    ],
)
def test_construction_rejects_non_integers(num, den):
    # int() would truncate 1/2 to a stored zero numerator, and gcd would
    # reject a float denominator with a bare TypeError
    with pytest.raises(InvalidInput):
        XSeries(num, den)


@pytest.mark.parametrize("prec", [0, -3, 2.5, 2.0, Fraction(2), "2", True])
def test_precision_must_be_an_integer_at_least_one(prec):
    with pytest.raises(InvalidInput, match="series precision"):
        XSeries([1], prec=prec)
    with pytest.raises(InvalidInput, match="series precision"):
        XSeries([1, 2], prec=2).resize(prec)


def test_order_and_zero():
    assert XSeries.zero(5).order() is None
    assert XSeries([0, 0, 7], prec=5).order() == 2
    assert XSeries.one(3).order() == 0
    assert XSeries.zero(4).is_zero()


def rand_sparse_series(rng: random.Random, prec: int) -> XSeries:
    # shaped like a family member's Newton branch h(x): a few rational terms
    # on an arithmetic progression of exponents, one in ten or fewer nonzero
    gap = rng.randrange(3, 12)
    start = rng.randrange(1, gap + 1)
    coeffs = [Fraction(0)] * prec
    slots = range(start, prec, gap)
    for i in rng.sample(slots, min(len(slots), max(1, prec // 10))):
        coeffs[i] = Fraction(rng.randrange(-(2**30), 2**30), rng.randrange(1, 2**12))
    return XSeries.from_fractions(coeffs, prec)


def fraction_product(fa: list[Fraction], fb: list[Fraction]) -> list[Fraction]:
    prec = len(fa)
    return [sum(fa[i] * fb[n - i] for i in range(n + 1)) for n in range(prec)]


def test_add_mul_against_fraction_oracle():
    # small precisions, then the larger ones the classifier's precision
    # ladder reaches on family members, whose branch series are sparse
    rng = random.Random(99)
    draws = [rand_series, rand_sparse_series]
    precs = [rng.randrange(1, 12) for _ in range(40)] + [33, 64] * 3 + [300] * 2
    for prec in precs:
        a, b = rng.choice(draws)(rng, prec), rng.choice(draws)(rng, prec)
        fa, fb = a.coefficients(), b.coefficients()
        assert (a + b).coefficients() == [x + y for x, y in zip(fa, fb)]
        assert (a - b).coefficients() == [x - y for x, y in zip(fa, fb)]
        assert (a * b).coefficients() == fraction_product(fa, fb)
    for prec in (64, 300):
        sparse = rand_sparse_series(rng, prec)
        assert len(sparse.terms) <= 0.1 * prec
        dense = rand_series(rng, prec)
        fs, fd = sparse.coefficients(), dense.coefficients()
        assert (sparse * sparse).coefficients() == fraction_product(fs, fs)
        assert (sparse * dense).coefficients() == fraction_product(fs, fd)


def test_precision_mismatch_rejected():
    with pytest.raises(ValueError):
        XSeries.one(3) + XSeries.one(4)


def test_reciprocal_and_division():
    rng = random.Random(7)
    for _ in range(30):
        prec = rng.randrange(1, 14)
        a = rand_series(rng, prec)
        if a.coefficient(0) == 0:
            a = a + XSeries.one(prec)
        if a.coefficient(0) == 0:
            continue
        r = XSeries.one(prec) / a
        assert (a * r).coefficients() == [1] + [0] * (prec - 1)
        b = rand_series(rng, prec)
        assert ((b / a) * a) == b * XSeries.one(prec)
    with pytest.raises(ZeroDivisionError):
        XSeries.one(3) / XSeries([0, 1], prec=3)


def test_geometric_series_inverse():
    # 1/(1 - x) = 1 + x + x^2 + ...
    one_minus_x = XSeries([1, -1], prec=8)
    assert (XSeries.one(8) / one_minus_x).coefficients() == [1] * 8


def test_resize():
    s = XSeries([1, 2, 3], prec=3)
    assert s.resize(5).coefficients() == [1, 2, 3, 0, 0]
    assert s.resize(2).coefficients() == [1, 2]


# -- property tests against a Fraction-list oracle ----------------------------


def draw_coeffs(rng: random.Random, prec: int, shape: str) -> list[Fraction]:
    """Dense small rationals, a few large sparse ones, or a dense head and a sparse tail."""
    coeffs = [Fraction(0)] * prec
    head = {"dense": prec, "sparse": 0, "mixed": rng.randrange(min(prec, 20) + 1)}[shape]
    for i in range(head):
        coeffs[i] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    if shape != "dense":
        for i in rng.sample(range(prec), rng.randrange(max(1, prec // 10) + 1)):
            coeffs[i] = Fraction(rng.randrange(-(2**30), 2**30), rng.randrange(1, 2**12))
    return coeffs


shapes = st.sampled_from(["dense", "sparse", "mixed"])


@st.composite
def operands(draw, count: int = 2):
    """A precision up to 300 and ``count`` coefficient lists of drawn shapes."""
    prec = draw(st.integers(1, 300))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return prec, [draw_coeffs(rng, prec, draw(shapes)) for _ in range(count)]


def assert_canonical(s: XSeries) -> None:
    exps = [i for i, _ in s.terms]
    assert exps == sorted(set(exps)) and all(0 <= i < s.prec for i in exps)
    assert all(v for _, v in s.terms) and s.den > 0
    assert math.gcd(s.den, *(v for _, v in s.terms)) == 1


def oracle_reciprocal(fa: list[Fraction]) -> list[Fraction]:
    # a = A/D with integer A; the inverse's coefficients are D * R_n / A_0^(n+1),
    # where R_0 = 1 and R_n = -sum_(i=1..n) A_i * A_0^(i-1) * R_(n-i)
    d = math.lcm(*(c.denominator for c in fa))
    A = [int(c * d) for c in fa]
    lead = [A[0] ** i for i in range(len(A) + 1)]
    R = [1]
    for n in range(1, len(A)):
        R.append(-sum(A[i] * lead[i - 1] * R[n - i] for i in range(1, n + 1) if A[i]))
    return [Fraction(d * r, lead[n + 1]) for n, r in enumerate(R)]


PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)


@PROPERTY
@given(operands())
@example((300, [draw_coeffs(random.Random(1), 300, "dense")] * 2))
@example((300, [draw_coeffs(random.Random(2), 300, sh) for sh in ("sparse", "mixed")]))
def test_ring_operations_against_fraction_oracle(case):
    prec, (fa, fb) = case
    a, b = XSeries.from_fractions(fa, prec), XSeries.from_fractions(fb, prec)
    results = {
        "add": (a + b, [x + y for x, y in zip(fa, fb)]),
        "sub": (a - b, [x - y for x, y in zip(fa, fb)]),
        "neg": (-a, [-x for x in fa]),
        "mul": (a * b, fraction_product(fa, fb)),
    }
    for name, (got, want) in results.items():
        assert_canonical(got)
        assert got.coefficients() == want, name
        assert got == XSeries.from_fractions(want, prec), name


@PROPERTY
@given(operands(count=1), st.integers(1, 320))
@example((300, [draw_coeffs(random.Random(3), 300, "mixed")]), 7)
def test_resize_both_ways(case, new_prec):
    prec, (fa,) = case
    got = XSeries.from_fractions(fa, prec).resize(new_prec)
    assert_canonical(got)
    assert got.prec == new_prec
    assert got.coefficients() == (fa + [Fraction(0)] * new_prec)[:new_prec]


@settings(PROPERTY, max_examples=25)
@given(operands())
@example((300, [draw_coeffs(random.Random(4), 300, sh) for sh in ("mixed", "sparse")]))
def test_reciprocal_and_division_against_fraction_oracle(case):
    prec, (fa, fb) = case
    fa = [fa[0] or Fraction(-3, 2), *fa[1:]]
    a, b = XSeries.from_fractions(fa, prec), XSeries.from_fractions(fb, prec)
    inverse = oracle_reciprocal(fa)
    got = XSeries.one(prec) / a
    assert_canonical(got)
    assert got.coefficients() == inverse
    quotient = b / a
    assert_canonical(quotient)
    assert quotient.coefficients() == fraction_product(fb, inverse)


# -- the classifier's kernels: fused product-and-sum and division -------------


@st.composite
def products_and_addends(draw):
    """Two operands at one precision and an addend at any precision up to 340."""
    prec, (fa, fb) = draw(operands())
    addend_prec = draw(st.integers(1, 340))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return prec, fa, fb, draw_coeffs(rng, addend_prec, draw(shapes))


@PROPERTY
@given(products_and_addends())
@example((3, [Fraction(0), Fraction(1, 2), Fraction(0)], [Fraction(1, 3)] * 3,
          [Fraction(1, 5), Fraction(0), Fraction(0), Fraction(7, 9), Fraction(1)]))
@example((4, [Fraction(1, 6)] * 4, [Fraction(3, 2)] * 4, [Fraction(-1, 4)] * 4))
def test_mul_add_is_product_plus_resized_addend(case):
    prec, fa, fb, fc = case
    a, b = XSeries.from_fractions(fa, prec), XSeries.from_fractions(fb, prec)
    c = XSeries.from_fractions(fc, len(fc))
    got = a.mul_add(b, c)
    assert_canonical(got)
    assert got == a * b + c.resize(prec)


@st.composite
def mixed_precision_factors(draw):
    """Two factors at their own precisions up to 120, each zero below a drawn
    order (or zero throughout), and an addend at any precision up to 260."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    factors = []
    for _ in range(2):
        prec = draw(st.integers(1, 120))
        coeffs = draw_coeffs(rng, prec, draw(shapes))
        order = draw(st.integers(0, prec))  # prec: the factor is zero
        factors.append([Fraction(0)] * order + coeffs[order:])
    addend = draw_coeffs(rng, draw(st.integers(1, 260)), draw(shapes))
    return factors, addend, draw(st.integers(0, 2**32))


def known_precision(fa: list[Fraction], fb: list[Fraction]) -> int:
    """min(pa + ord b, pb + ord a), kept at most at max(pa, pb).

    A factor that is zero throughout has order equal to its precision.
    """
    pa, pb = len(fa), len(fb)
    ord_a = next((i for i, c in enumerate(fa) if c), pa)
    ord_b = next((i for i, c in enumerate(fb) if c), pb)
    return min(pa + ord_b, pb + ord_a, max(pa, pb))


def truncated_product(fa: list[Fraction], fb: list[Fraction], n: int) -> list[Fraction]:
    return [
        sum(fa[i] * fb[k - i] for i in range(max(0, k - len(fb) + 1), min(k + 1, len(fa))))
        for k in range(n)
    ]


@PROPERTY
@given(mixed_precision_factors())
@example(([[Fraction(1)] * 3, [Fraction(0)] * 2 + [Fraction(1)] * 8], [Fraction(1)] * 2, 0))
@example(([[Fraction(0)] * 4, [Fraction(0), Fraction(2)] * 3], [Fraction(5)] * 9, 1))
@example(([[Fraction(0)] * 5] * 2, [Fraction(1)], 2))
@example(([[Fraction(0), Fraction(1, 3)] * 4] * 2, [Fraction(1, 7)] * 20, 3))
def test_product_of_mixed_precisions_is_known_to_the_rule(case):
    # a is known mod x^pa and b mod x^pb: whatever lies beyond, a * b is
    # fixed mod x^min(pa + ord b, pb + ord a), and never kept past max(pa, pb)
    (fa, fb), fc, seed = case
    a, b = XSeries.from_fractions(fa, len(fa)), XSeries.from_fractions(fb, len(fb))
    n = known_precision(fa, fb)
    got = a * b
    assert_canonical(got)
    assert got.prec == n
    assert got.coefficients() == truncated_product(fa, fb, n)
    assert b * a == got
    rng = random.Random(seed)
    tail = [Fraction(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(len(fa) + len(fb))]
    unknown_a, unknown_b = fa + tail[: len(fb)], fb + tail[len(fb):]
    assert got.coefficients() == truncated_product(unknown_a, unknown_b, n)
    # the addend, of lower or higher precision, is read at n
    c = XSeries.from_fractions(fc, len(fc))
    fused = a.mul_add(b, c)
    assert_canonical(fused)
    assert fused == got + c.resize(n)
    assert b.mul_add(a, c) == fused


@PROPERTY
@given(operands(), st.integers(0, 300), st.integers(0, 2**32))
@example((8, [[Fraction(0)] * 8, [Fraction(1)] * 8]), 0, 1)
def test_division_reads_the_divisor_below_prec_minus_order(case, order, seed):
    # a product with a, whose terms start at x^ord(a), never reads the
    # divisor's inverse at or above x^(prec - ord(a))
    prec, (fa, fb) = case
    order = min(order, prec - 1)
    a = XSeries.from_fractions([Fraction(0)] * order + fa[order:], prec)
    fb = [fb[0] or Fraction(5, 3), *fb[1:]]
    b = XSeries.from_fractions(fb, prec)
    cut = prec - a.order() if a.terms else 1
    rng = random.Random(seed)
    changed = fb[:cut] + [Fraction(rng.randrange(-99, 100), rng.randrange(1, 9)) for _ in fb[cut:]]
    assert a / XSeries.from_fractions(changed, prec) == a / b
    assert a / b.resize(cut) == a / b
    if cut > 1:
        with pytest.raises(ValueError):
            a / b.resize(cut - 1)


@PROPERTY
@given(operands(), st.booleans())
@example((3, [[Fraction(0)] * 3, [Fraction(0), Fraction(1), Fraction(0)]]), True)
def test_division_by_a_zero_constant_term_raises(case, zero_dividend):
    prec, (fa, fb) = case
    a = XSeries.zero(prec) if zero_dividend else XSeries.from_fractions(fa, prec)
    b = XSeries.from_fractions([Fraction(0), *fb[1:]], prec)
    with pytest.raises(ZeroDivisionError):
        a / b


B0 = [Fraction(v) for v in (-1, 1, 2, -3, 6, 12)] + [Fraction(-3, 4), Fraction(5, 6)]


@st.composite
def sparse_quotients_and_divisors(draw):
    """q and b with a few rational terms at a precision up to 2^20; b(0) from a fixed set."""
    prec = draw(st.sampled_from([1, 2, 7, 30, 300, 2**12, 2**20]))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def sparse(count: int) -> dict[int, Fraction]:
        return {
            rng.randrange(prec): Fraction(rng.randrange(-(2**20), 2**20), rng.randrange(1, 2**8))
            for _ in range(count)
        }

    q = sparse(draw(st.integers(0, 8)))
    b = {**sparse(draw(st.integers(0, 6))), 0: draw(st.sampled_from(B0))}
    return XSeries.from_terms(q, prec), XSeries.from_terms(b, prec)


@PROPERTY
@given(sparse_quotients_and_divisors())
@example((XSeries.from_terms({1: Fraction(1, 2), 5: 7}, 9), XSeries([6, -4, 0, 9], prec=9)))
@example((XSeries.from_terms({0: 5, 3: Fraction(-2, 9)}, 8), XSeries([-3, 2, 1], prec=8)))
def test_division_undoes_a_product(case):
    # (q * b) / b == q mod x^prec; b(0) = -1, 2, -3, 6, ... makes the long
    # division scale its remainder whenever b(0) does not divide a term
    q, b = case
    got = (q * b) / b
    assert_canonical(got)
    assert got == q


def test_sparse_division_mod_a_huge_power():
    # (x^3 + x^30) / (1 + x^27) = x^3 exactly: one quotient term, however
    # far the precision reaches; b's inverse mod x^(2^30) is never formed
    prec = 2**30
    a = XSeries.from_terms({3: 1, 30: 1}, prec)
    b = XSeries.from_terms({0: 1, 27: 1}, prec)
    assert a / b == XSeries.from_terms({3: 1}, prec)
