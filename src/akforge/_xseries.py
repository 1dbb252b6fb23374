"""Truncated univariate power series with exact rational coefficients.

A series is stored as integer numerator coefficients over one shared
positive denominator, normalized so their common content is 1.  Keeping the
numerators integral keeps products off Fraction arithmetic: a product is
one integer multiply-add per coefficient pair and a single gcd pass, not a
Fraction reduction per pair.  That matters for the classifier's small dense
germs, whose branch series are full at precision 32; on Fraction-based
sparse series the densest of them (A_19, A_20) classified about half as
fast.  Products are truncated as they are formed and touch only nonzero
coefficients, so the sparse Newton branches of high-k germs stay cheap at
precision in the thousands.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def conv_trunc(a: list[int], b: list[int], n: int) -> list[int]:
    """First ``n`` coefficients of the product a*b.

    Zero entries of either operand are skipped, and each row stops at
    x^(n-1), so no coefficient beyond the truncation is ever formed.
    """
    out = [0] * n
    b_terms = [(j, v) for j, v in enumerate(b[:n]) if v]
    for i, u in enumerate(a[:n]):
        if u:
            room = n - i
            for j, v in b_terms:
                if j >= room:
                    break
                out[i + j] += u * v
    return out


class XSeries:
    """Polynomial in one variable known modulo x^prec."""

    __slots__ = ("num", "den", "prec")

    def __init__(self, num: list[int], den: int = 1, prec: int | None = None):
        if den == 0:
            raise ZeroDivisionError("series denominator must be nonzero")
        if prec is None:
            prec = len(num)
        if prec < 1:
            raise ValueError("precision must be positive")
        num = [int(v) for v in num[:prec]]
        num.extend([0] * (prec - len(num)))
        if den < 0:
            den = -den
            num = [-v for v in num]
        g = den
        for v in num:
            g = gcd(g, v)
            if g == 1:
                break
        if g > 1:
            den //= g
            num = [v // g for v in num]
        self.num = num
        self.den = den
        self.prec = prec

    @classmethod
    def zero(cls, prec: int) -> "XSeries":
        return cls([0], 1, prec)

    @classmethod
    def one(cls, prec: int) -> "XSeries":
        return cls([1], 1, prec)

    @classmethod
    def from_fractions(cls, coeffs: list[Fraction], prec: int) -> "XSeries":
        den = 1
        for c in coeffs[:prec]:
            den = lcm(den, Fraction(c).denominator)
        num = [int(Fraction(c) * den) for c in coeffs[:prec]]
        return cls(num, den, prec)

    def coefficient(self, i: int) -> Fraction:
        if not 0 <= i < self.prec:
            raise IndexError("coefficient index beyond precision")
        return Fraction(self.num[i], self.den)

    def coefficients(self) -> list[Fraction]:
        return [Fraction(v, self.den) for v in self.num]

    def order(self) -> int | None:
        """Index of the lowest nonzero coefficient, or None if all zero."""
        for i, v in enumerate(self.num):
            if v:
                return i
        return None

    def is_zero(self) -> bool:
        return self.order() is None

    def resize(self, prec: int) -> "XSeries":
        """Change precision; enlarging pads with (unknown-as-zero) terms."""
        return XSeries(self.num, self.den, prec)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XSeries):
            return NotImplemented
        return self.prec == other.prec and self.den == other.den and self.num == other.num

    def __repr__(self) -> str:
        head = ", ".join(str(self.coefficient(i)) for i in range(min(self.prec, 6)))
        return f"XSeries([{head}{', ...' if self.prec > 6 else ''}] mod x^{self.prec})"

    def _require_same_prec(self, other: "XSeries") -> None:
        if self.prec != other.prec:
            raise ValueError("series precisions differ")

    def __add__(self, other: "XSeries") -> "XSeries":
        self._require_same_prec(other)
        d = lcm(self.den, other.den)
        fa, fb = d // self.den, d // other.den
        return XSeries(
            [fa * a + fb * b for a, b in zip(self.num, other.num)], d, self.prec
        )

    def __sub__(self, other: "XSeries") -> "XSeries":
        return self + (-other)

    def __neg__(self) -> "XSeries":
        return XSeries([-v for v in self.num], self.den, self.prec)

    def __mul__(self, other: "XSeries") -> "XSeries":
        self._require_same_prec(other)
        # conv_trunc is looked up in the module namespace at call time, so a
        # profiler that rebinds the module global sees every product.
        return XSeries(
            conv_trunc(self.num, other.num, self.prec),
            self.den * other.den,
            self.prec,
        )

    def reciprocal(self) -> "XSeries":
        """Multiplicative inverse; the constant term must be nonzero."""
        if self.num[0] == 0:
            raise ZeroDivisionError("series has zero constant term")
        two = XSeries([2], 1, self.prec)
        r = XSeries([self.den], self.num[0], self.prec)
        for _ in range(self.prec.bit_length() + 3):
            nxt = r * (two - self * r)
            if nxt == r:
                break
            r = nxt
        return r

    def __truediv__(self, other: "XSeries") -> "XSeries":
        return self * other.reciprocal()
