"""Weighted-truncated power series in two variables, read as (x, z).

A TruncatedSeries is the window the certifier reads: a polynomial body,
positive integer weights for the two variables and a cutoff.  Only terms
whose weighted degree wx*i + wz*j stays at or below the cutoff are kept;
everything heavier is unknown and has been discarded.  It is produced by
invert_change and compose_curve, and newton_ak_certify reads its
coefficients; it has no arithmetic of its own.

newton_ak_certify is the Newton-segment check: it accepts a window with
weights (2, k+1) exactly when, apart from the two segment endpoints z^2
and x^(k+1), every retained term lies strictly above the segment joining
(0,2) and (k+1,0).  Such a germ is semi-quasihomogeneous with principal
part z^2 + c*x^(k+1), hence of type A_k.

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

from fractions import Fraction
from typing import NamedTuple

from ._xseries import XSeries, horner_layers, subst_horner
# Unused here; kept because perfbench/spans.py patches series.conv_trunc by name.
from ._xseries import conv_trunc  # noqa: F401
from .errors import (
    InvalidInput,
    MismatchedContract,
    PreconditionViolated,
    WindowTooSmall,
    require_int,
)
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


class _TruncatedSeries(NamedTuple):
    body: SparsePoly
    weights: Weights
    cutoff: int


class TruncatedSeries(_TruncatedSeries):
    """A polynomial known exactly up to weighted degree `cutoff`."""

    __slots__ = ()

    def __new__(cls, body, weights, cutoff):
        wx, wz = weights = _checked_window(weights, cutoff)
        for m, _ in body.terms():
            if wx * m.ex + wz * m.ey > cutoff:
                raise InvalidInput(
                    "series body contains a term beyond the cutoff; "
                    "use TruncatedSeries.from_poly to truncate"
                )
        return super().__new__(cls, body, weights, cutoff)

    @classmethod
    def from_poly(cls, p: SparsePoly, weights: Weights, cutoff: int) -> "TruncatedSeries":
        weights = Weights(*weights)
        return cls(truncate_by_weight(p, weights, cutoff), weights, cutoff)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.body.coefficient(i, j)

    def terms(self):
        return self.body.terms()


# -- the Newton-segment check ----------------------------------------------


class AkCertificate(NamedTuple):
    """Outcome of the Newton-segment check for a claimed k."""

    k: int
    coeff_z2: Fraction
    coeff_xk1: Fraction
    violations: tuple[tuple[Monomial, Fraction], ...] = ()

    @property
    def certified(self) -> bool:
        return not self.violations and self.coeff_z2 != 0 and self.coeff_xk1 != 0


def newton_ak_certify(series: TruncatedSeries, expected_k: int) -> AkCertificate:
    """Check that a weighted series is the A_k normal form plus heavier terms.

    The contract requires weights (2, expected_k + 1).  Terms weighing more
    than 2*(expected_k + 1) lie strictly above the segment automatically;
    the certificate therefore records as violations exactly the retained
    terms, other than the endpoints, with weight at or below that line.
    """
    require_int(expected_k, "expected_k", 1)
    k1 = expected_k + 1
    if tuple(series.weights) != (2, k1):
        raise MismatchedContract(
            f"series weights {tuple(series.weights)} do not match (2, {k1})"
        )
    if series.cutoff < 2 * k1:
        raise WindowTooSmall(
            f"cutoff {series.cutoff} cannot witness weight {2 * k1}"
        )
    coeff_z2 = series.coefficient(0, 2)
    coeff_xk1 = series.coefficient(k1, 0)
    violations = tuple(
        (m, c)
        for m, c in series.terms()
        if (m.ex, m.ey) not in ((0, 2), (k1, 0)) and 2 * m.ex + k1 * m.ey <= 2 * k1
    )
    return AkCertificate(expected_k, coeff_z2, coeff_xk1, violations)


# -- the window as z-layers ------------------------------------------------


class _ZLayers:
    """A series in (x, z) inside the window (wx, wz, cutoff), as {j: c_j(x)}.

    Only nonzero layers are kept; c_j is an XSeries mod x^((cutoff - wz*j)//wx
    + 1).  Every operand of one computation shares the window.
    """

    __slots__ = ("rows", "window")

    def __init__(self, rows: dict[int, XSeries], window: tuple[int, int, int]):
        self.rows, self.window = rows, window

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


# -- coordinate-change inversion -------------------------------------------


def invert_change(A: SparsePoly, weights: Weights, cutoff: int) -> TruncatedSeries:
    """Solve y = z + A(x, y) for y as a truncated series in (x, z).

    This inverts the substitution z = y - A(x, y).  A must vanish to
    order 2 at the origin, which makes the fixed-point iteration
    y <- z + A(x, y) gain at least one unit of weighted order per pass.
    Each pass substitutes the current iterate into z + A with the truncated
    Horner scheme, so no term above the cutoff is ever multiplied out.  The
    layers of z + A in y are built once: z joins the y^0 layer of A.
    """
    weights = _checked_window(weights, cutoff)
    if A.order() < 2:
        raise PreconditionViolated("the perturbation must vanish to order 2 at the origin")
    if weights.wz > cutoff:
        raise InvalidInput("cutoff is too small to represent the new variable")
    window = (*weights, cutoff)
    rows = {e: {0: row} for e, row in A.coeffs_in_y().items()}
    rows.setdefault(0, {})[1] = {0: 1}
    layers = horner_layers(rows, lambda zrows: _ZLayers.from_rows(zrows, window))
    phi = _ZLayers.from_rows({1: {0: 1}}, window)
    for _ in range(cutoff + 2):
        nxt = subst_horner(layers, phi)
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
    window = (*weights, cutoff)
    layers = horner_layers(F.coeffs_in_y(), lambda row: _ZLayers.from_rows({0: row}, window))
    r = _ZLayers.from_rows(y_series.body.coeffs_in_y(), window)
    body = subst_horner(layers, r).to_poly() if layers else SparsePoly.zero()
    return TruncatedSeries(body, weights, cutoff)
