"""Truncated univariate power series with exact rational coefficients.

The package's one series arithmetic: the classifier's Newton branches and
the z-layers of the certifier's window (``series.py``) are XSeries, and both
substitute into a polynomial with ``subst_horner`` below.

A series is stored sparsely: the sorted (exponent, numerator) pairs of its
nonzero coefficients below the precision, over one shared positive
denominator, normalized so the numerators and the denominator have content
1.  Keeping the numerators integral keeps products off Fraction arithmetic:
a product is one integer multiply-add per pair of terms and a single gcd
pass, not a Fraction reduction per pair.  A sparse form with Fraction
coefficients classified the densest small germs (A_19, A_20, whose branch
series are full at precision 32) about half as fast as a dense integer
list did; integer-numerator pairs beat that dense list on such germs too
(the 198 germ-classify germs of seeds 101-103 classify in 0.65-0.70 s
instead of 0.83-1.0 s, best of three, 2-core x86-64, Python 3.11).  The
gain that matters is on the family, whose Newton branches have about ten
nonzero terms at precisions up to 2^25: a product there costs the number
of term pairs, not the precision.

A Horner step acc * r**gap + layer is ``mul_add``: one product pass seeded
with the addend, then one content normalization.  Division a / b is sparse
long division over the integers: each quotient term costs one pass over
b's terms, so a division costs about (quotient terms) x (divisor terms) and
reads b only mod x^(prec - ord(a)).
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm

from .errors import InvalidInput

Terms = list[tuple[int, int]]


def conv_trunc(a: Terms, b: Terms, n: int, seed: Terms = ()) -> Terms:
    """The (exponent, coefficient) pairs of seed + a*b below x^n, sorted, zeros dropped.

    Both operands are sorted pair lists, so each row stops at the first
    pair whose exponent would reach n: no coefficient beyond the truncation
    is ever formed.  The seed pairs, all below n, start the accumulator, so
    a product and a sum cost one pass.
    """
    out: dict[int, int] = dict(seed)
    get = out.get
    for i, u in a:
        room = n - i
        if room <= 0:
            break
        for j, v in b:
            if j >= room:
                break
            k = i + j
            out[k] = get(k, 0) + u * v
    return sorted(kv for kv in out.items() if kv[1])


class XSeries:
    """Polynomial in one variable known modulo x^prec."""

    __slots__ = ("terms", "den", "prec")

    def __init__(self, num: list[int], den: int = 1, prec: int | None = None):
        """The series sum(num[i] * x^i) / den mod x^prec; prec defaults to len(num)."""
        try:
            num, den = [operator.index(v) for v in num], operator.index(den)
        except TypeError:
            raise InvalidInput("series numerators and denominator must be integers") from None
        if den == 0:
            raise ZeroDivisionError("series denominator must be nonzero")
        if prec is None:
            prec = len(num)
        if prec < 1:
            raise ValueError("precision must be positive")
        sign = -1 if den < 0 else 1
        terms = [(i, sign * v) for i, v in enumerate(num[:prec]) if v]
        self._adopt(terms, sign * den, prec)

    def _adopt(self, terms: Terms, den: int, prec: int) -> None:
        # terms sorted, nonzero and below prec, den > 0: divide out the content
        g = den if den == 1 else gcd(den, *[v for _, v in terms])
        if g > 1:
            den //= g
            terms = [(i, v // g) for i, v in terms]
        self.terms = terms
        self.den = den
        self.prec = prec

    @classmethod
    def _wrap(cls, terms: Terms, den: int, prec: int) -> "XSeries":
        """Adopt sorted nonzero pairs below prec over den > 0, skipping the checks."""
        out = cls.__new__(cls)
        out._adopt(terms, den, prec)
        return out

    @classmethod
    def zero(cls, prec: int) -> "XSeries":
        return cls([0], 1, prec)

    @classmethod
    def one(cls, prec: int) -> "XSeries":
        return cls([1], 1, prec)

    @classmethod
    def from_terms(cls, coeffs: dict[int, Fraction | int], prec: int) -> "XSeries":
        """The series with the given {exponent: coefficient} terms, mod x^prec."""
        kept = sorted((i, c) for i, c in coeffs.items() if 0 <= i < prec and c)
        den = lcm(*(c.denominator for _, c in kept))
        return cls._wrap([(i, c.numerator * (den // c.denominator)) for i, c in kept], den, prec)

    @classmethod
    def from_fractions(cls, coeffs: list[Fraction | int], prec: int) -> "XSeries":
        return cls.from_terms(dict(enumerate(coeffs)), prec)

    def coefficient(self, i: int) -> Fraction:
        if not 0 <= i < self.prec:
            raise IndexError("coefficient index beyond precision")
        at = bisect_left(self.terms, (i,))
        if at < len(self.terms) and self.terms[at][0] == i:
            return Fraction(self.terms[at][1], self.den)
        return Fraction(0)

    def coefficients(self) -> list[Fraction]:
        out = [Fraction(0)] * self.prec
        for i, v in self.terms:
            out[i] = Fraction(v, self.den)
        return out

    def order(self) -> int | None:
        """Index of the lowest nonzero coefficient, or None if all zero."""
        return self.terms[0][0] if self.terms else None

    def is_zero(self) -> bool:
        return not self.terms

    def resize(self, prec: int) -> "XSeries":
        """Change precision; enlarging pads with (unknown-as-zero) terms."""
        if prec < 1:
            raise ValueError("precision must be positive")
        if prec == self.prec:
            return self
        return XSeries._wrap(self.terms[: bisect_left(self.terms, (prec,))], self.den, prec)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XSeries):
            return NotImplemented
        return self.prec == other.prec and self.den == other.den and self.terms == other.terms

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
        out = {i: fa * u for i, u in self.terms}
        get = out.get
        for j, v in other.terms:
            out[j] = get(j, 0) + fb * v
        return XSeries._wrap(sorted(kv for kv in out.items() if kv[1]), d, self.prec)

    def __sub__(self, other: "XSeries") -> "XSeries":
        return self + (-other)

    def __neg__(self) -> "XSeries":
        return XSeries._wrap([(i, -v) for i, v in self.terms], self.den, self.prec)

    def __mul__(self, other: "XSeries") -> "XSeries":
        self._require_same_prec(other)
        # conv_trunc is looked up in the module namespace at call time, so a
        # profiler that rebinds the module global sees every product.
        return XSeries._wrap(
            conv_trunc(self.terms, other.terms, self.prec),
            self.den * other.den,
            self.prec,
        )

    def mul_add(self, other: "XSeries", addend: "XSeries") -> "XSeries":
        """self * other + addend mod x^prec, as one product pass.

        The addend may have any precision: it enters as addend.resize(prec).
        Over the common denominator, the shorter factor is scaled and the
        addend's scaled pairs seed the product, so one content normalization
        follows instead of one per operation.
        """
        self._require_same_prec(other)
        den = self.den * other.den
        common = lcm(den, addend.den)
        a, b = self.terms, other.terms
        if common != den:
            scale = common // den
            if len(a) <= len(b):
                a = [(i, scale * u) for i, u in a]
            else:
                b = [(j, scale * v) for j, v in b]
        up = common // addend.den
        seed = [(i, up * v) for i, v in addend.terms[: bisect_left(addend.terms, (self.prec,))]]
        return XSeries._wrap(conv_trunc(a, b, self.prec, seed), common, self.prec)

    def __truediv__(self, other: "XSeries") -> "XSeries":
        """self / other mod x^prec by sparse long division; other(0) must be nonzero.

        Each quotient term cancels the lowest remainder term against b0, the
        numerator of other(0); when b0 does not divide that term, remainder
        and quotient are first scaled by |b0| / gcd.  The remainder starts at
        x^ord(self), so other is read only mod x^(prec - ord(self)).
        """
        if other.order() != 0:
            raise ZeroDivisionError("series has zero constant term")
        if not self.terms:
            return XSeries._wrap([], 1, self.prec)
        prec = self.prec
        if other.prec < prec - self.terms[0][0]:
            raise ValueError("divisor precision below prec - ord(dividend)")
        (_, b0), *tail = other.terms
        rest = dict(self.terms)
        todo = list(rest)  # sorted, so already a heap
        quotient, scale = [], 1
        while todo:
            i = heappop(todo)
            r = rest.pop(i)
            if not r:
                continue
            if r % b0:
                m = abs(b0) // gcd(r, b0)
                scale, r = scale * m, r * m
                quotient = [(e, m * v) for e, v in quotient]
                rest = {e: m * v for e, v in rest.items()}
            q = r // b0
            quotient.append((i, q))
            for j, v in tail:
                if i + j >= prec:
                    break
                if i + j not in rest:
                    heappush(todo, i + j)
                rest[i + j] = rest.get(i + j, 0) - q * v
        # scale * self = quotient * other over the numerators
        return XSeries._wrap([(e, other.den * v) for e, v in quotient], self.den * scale, prec)


def _gap_powers(r, exponents: set[int]) -> dict:
    """r**e for each positive e, by binary powering over shared squarings."""
    squares = [r]
    while (1 << len(squares)) <= max(exponents, default=0):
        squares.append(squares[-1] * squares[-1])
    out = {}
    for e in exponents:
        acc = None
        for bit, sq in enumerate(squares):
            if e >> bit & 1:
                acc = sq if acc is None else acc * sq
        out[e] = acc
    return out


def horner_layers(rows: dict, layer) -> list:
    """The (e, layer(row)) pairs of {e: row}, e falling: the layers subst_horner reads."""
    return [(e, layer(row)) for e, row in sorted(rows.items(), reverse=True)]


def subst_horner(layers: list, r):
    """The sum of c * r**e over the (e, c) pairs of layers, e falling, by Horner.

    The top c lies in the ring of r; the others are addends of its mul_add.
    Consecutive exponents e1 > e2 cost one acc.mul_add(r**(e1 - e2), c2), and
    each distinct gap is raised once per call by binary powering, so r needs
    only ``*`` and ``mul_add``.  F(s) has y-exponents 0, 1, 2, m+1, 2m+1,
    3m+1, 4m+1 (m = 7s+2), so its gaps are m, m-1 and 1: a few dozen
    products, not one per unit of y-degree.
    """
    exps = [e for e, _ in layers]
    powers = _gap_powers(r, ({a - b for a, b in zip(exps, exps[1:])} | {exps[-1]}) - {0})
    acc = layers[0][1]
    for prev, (e, layer) in zip(exps, layers[1:]):
        acc = acc.mul_add(powers[prev - e], layer)
    if exps[-1]:
        acc = acc * powers[exps[-1]]
    return acc
