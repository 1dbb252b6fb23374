"""Weighted-truncated power series in two variables, read as (x, z).

A TruncatedSeries is the window the certifier reads: a polynomial body,
positive integer weights for the two variables and a cutoff.  Only terms
whose weighted degree wx*i + wz*j stays at or below the cutoff are kept;
everything heavier is unknown and has been discarded.  It is produced by
invert_change and compose_curve, and newton_ak_certify reads its
coefficients; it has no arithmetic of its own.

Behind those two functions a series is a sum of z-layers c_j(x) * z^j, each
c_j an XSeries (integer numerators over one denominator) mod
x^((cutoff - wz*j)//wx + 1): exactly the terms of weight within the cutoff.
A product is one truncated XSeries product per pair of nonzero layers, so
no term above the cutoff is ever formed; since weights are positive, the
result is exact modulo the window.  Substitution for the second variable is
the Horner scheme the classifier shares, ``subst_horner``.  The family's
window (weights (2, k+1), cutoff 2(k+1)) has only the layers z^0, z^1, z^2,
and its inverted series y(x, z) a handful of terms at every member, so the
cost follows the number of terms, not the window's x-range.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from ._xseries import XSeries, subst_horner
# Unused here; kept because perfbench/spans.py patches series.conv_trunc by name.
from ._xseries import conv_trunc  # noqa: F401
from .errors import InvalidInput, PreconditionViolated, require_int
from .poly import Monomial, SparsePoly


class Weights(NamedTuple):
    wx: int
    wz: int


def _checked_window(weights, cutoff) -> Weights:
    """The weights as Weights, once both are integers >= 1 and the cutoff >= 0."""
    weights = Weights(*weights)
    require_int(weights.wx, "series weight wx", 1)
    require_int(weights.wz, "series weight wz", 1)
    require_int(cutoff, "series cutoff", 0)
    return weights


def truncate_by_weight(p: SparsePoly, weights: Weights, cutoff: int) -> SparsePoly:
    """Drop every term of p with weighted degree above the cutoff."""
    wx, wz = weights
    return SparsePoly(
        [((m.ex, m.ey), c) for m, c in p.terms() if wx * m.ex + wz * m.ey <= cutoff]
    )


@dataclass(frozen=True)
class TruncatedSeries:
    """A polynomial known exactly up to weighted degree `cutoff`."""

    body: SparsePoly
    weights: Weights
    cutoff: int

    def __post_init__(self):
        wx, wz = weights = _checked_window(self.weights, self.cutoff)
        object.__setattr__(self, "weights", weights)
        for m, _ in self.body.terms():
            if wx * m.ex + wz * m.ey > self.cutoff:
                raise InvalidInput(
                    "series body contains a term beyond the cutoff; "
                    "use TruncatedSeries.from_poly to truncate"
                )

    @classmethod
    def from_poly(cls, p: SparsePoly, weights: Weights, cutoff: int) -> "TruncatedSeries":
        weights = Weights(*weights)
        return cls(truncate_by_weight(p, weights, cutoff), weights, cutoff)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.body.coefficient(i, j)

    def terms(self):
        return self.body.terms()


# -- the window as z-layers ------------------------------------------------


@dataclass(eq=False, slots=True)
class _ZLayers:
    """A series in (x, z) inside the window (wx, wz, cutoff), as {j: c_j(x)}.

    Only nonzero layers are kept; c_j is an XSeries mod x^((cutoff - wz*j)//wx
    + 1).  Every operand of one computation shares the window.
    """

    rows: dict[int, XSeries]
    window: tuple[int, int, int]

    @classmethod
    def from_rows(cls, rows: dict[int, dict], window: tuple[int, int, int]) -> "_ZLayers":
        """The window's part of the series with {j: {i: coefficient of x^i z^j}}."""
        wx, wz, cutoff = window
        layers = [(j, XSeries.from_terms(row, (cutoff - wz * j) // wx + 1))
                  for j, row in rows.items() if wz * j <= cutoff]
        return cls({j: c for j, c in layers if c.terms}, window)

    def to_poly(self) -> SparsePoly:
        return SparsePoly._wrap(
            {Monomial(i, j): Fraction(v, c.den) for j, c in self.rows.items() for i, v in c.terms}
        )

    def __add__(self, other: "_ZLayers") -> "_ZLayers":
        rows = dict(self.rows)
        for j, c in other.rows.items():
            rows[j] = rows[j] + c if j in rows else c
        return _ZLayers({j: c for j, c in rows.items() if c.terms}, self.window)

    def __mul__(self, other: "_ZLayers") -> "_ZLayers":
        return self.mul_add(other, _ZLayers({}, self.window))

    def mul_add(self, other: "_ZLayers", addend: "_ZLayers") -> "_ZLayers":
        """self * other + addend in the window: one fused XSeries step per pair of layers."""
        wx, wz, cutoff = self.window
        rows, empty = dict(addend.rows), XSeries.zero(1)
        for i, a in self.rows.items():
            for l, b in other.rows.items():
                j = i + l
                if wz * j <= cutoff:
                    n = (cutoff - wz * j) // wx + 1
                    rows[j] = a.resize(n).mul_add(b.resize(n), rows.get(j, empty))
        return _ZLayers({j: c for j, c in rows.items() if c.terms}, self.window)


def _subst(F: SparsePoly, r: _ZLayers) -> _ZLayers:
    """F(x, r) in the window of r."""
    layers = [
        (e, _ZLayers.from_rows({0: row}, r.window))
        for e, row in sorted(F.coeffs_in_y().items(), reverse=True)
    ]
    return subst_horner(layers, r) if layers else _ZLayers({}, r.window)


# -- coordinate-change inversion -------------------------------------------


def invert_change(A: SparsePoly, weights: Weights, cutoff: int) -> TruncatedSeries:
    """Solve y = z + A(x, y) for y as a truncated series in (x, z).

    This inverts the substitution z = y - A(x, y).  A must vanish to
    order 2 at the origin, which makes the fixed-point iteration
    y <- z + A(x, y) gain at least one unit of weighted order per pass.
    Each pass substitutes the current iterate into A with the truncated
    Horner scheme, so no term above the cutoff is ever multiplied out.
    """
    weights = _checked_window(weights, cutoff)
    if A.order() < 2:
        raise PreconditionViolated("the perturbation must vanish to order 2 at the origin")
    if weights.wz > cutoff:
        raise InvalidInput("cutoff is too small to represent the new variable")
    z = _ZLayers.from_rows({1: {0: 1}}, (*weights, cutoff))
    phi = z
    for _ in range(cutoff + 2):
        nxt = z + _subst(A, phi)
        if nxt.rows == phi.rows:
            return TruncatedSeries(phi.to_poly(), weights, cutoff)
        phi = nxt
    raise RuntimeError("fixed-point iteration failed to converge")


def compose_curve(F: SparsePoly, y_series: TruncatedSeries) -> TruncatedSeries:
    """Substitute the series for the second variable of F, truncating on the fly.

    Equal to truncating F(x, y_series) after full expansion, but products
    never form a term above the series' cutoff.
    """
    weights, cutoff = y_series.weights, y_series.cutoff
    r = _ZLayers.from_rows(y_series.body.coeffs_in_y(), (*weights, cutoff))
    return TruncatedSeries(_subst(F, r).to_poly(), weights, cutoff)
