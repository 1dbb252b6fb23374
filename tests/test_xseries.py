"""Tests for truncated univariate series arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from akforge._xseries import XSeries


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
    with pytest.raises(ValueError):
        XSeries([], prec=0)


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
        assert sum(v == 0 for v in sparse.num) >= 0.9 * prec
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
        r = a.reciprocal()
        assert (a * r).coefficients() == [1] + [0] * (prec - 1)
        b = rand_series(rng, prec)
        assert ((b / a) * a) == b * XSeries.one(prec)
    with pytest.raises(ZeroDivisionError):
        XSeries([0, 1], prec=3).reciprocal()


def test_geometric_series_inverse():
    # 1/(1 - x) = 1 + x + x^2 + ...
    one_minus_x = XSeries([1, -1], prec=8)
    assert one_minus_x.reciprocal().coefficients() == [1] * 8


def test_resize():
    s = XSeries([1, 2, 3], prec=3)
    assert s.resize(5).coefficients() == [1, 2, 3, 0, 0]
    assert s.resize(2).coefficients() == [1, 2]
