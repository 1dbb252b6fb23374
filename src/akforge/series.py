"""Weighted-truncated power series in two variables, read as (x, z).

A TruncatedSeries is the certifier's window: positive integer weights for
the two variables, a cutoff, and the series as its nonzero z-layers
c_j(x) * z^j.  Only terms whose weighted degree wx*i + wz*j stays at or
below the cutoff are kept; everything heavier is unknown and has been
discarded, so each c_j is an XSeries (integer numerators over one
denominator) mod x^((cutoff - wz*j)//wx + 1).  The window keeps that one
form from inversion to check: invert_change returns its converged iterate,
compose_curve substitutes it as it is, and newton_ak_certify reads the
result.  The polynomial ``body`` is formed only when it is read, as for the
certificate JSON.

A product is one truncated XSeries product per pair of nonzero layers, so
no term above the cutoff is ever formed; since weights are positive, the
result is exact modulo the window.  Substitution for the second variable is
the Horner scheme the classifier shares, ``subst_horner``.  The family's
window (weights (2, k+1), cutoff 2(k+1)) has only the layers z^0, z^1, z^2,
and its inverted series y(x, z) a handful of terms at every member, so the
cost follows the number of terms, not the window's x-range.

newton_ak_certify is the Newton-segment check: it accepts a window with
weights (2, k+1) exactly when, apart from the two segment endpoints z^2
and x^(k+1), every retained term lies strictly above the segment joining
(0,2) and (k+1,0).  Such a germ is semi-quasihomogeneous with principal
part z^2 + c*x^(k+1), hence of type A_k.
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


def _layer_prec(weights: Weights, cutoff: int, j: int) -> int:
    """The precision of the z^j layer: x^i z^j lies in the window iff i < this."""
    return (cutoff - weights.wz * j) // weights.wx + 1


class _TruncatedSeries(NamedTuple):
    layers: dict[int, XSeries]
    weights: Weights
    cutoff: int


class TruncatedSeries(_TruncatedSeries):
    """A series in (x, z) known exactly up to weighted degree `cutoff`.

    ``layers`` is {j: c_j}, the nonzero z-layers, each c_j an XSeries at
    the precision of its layer; every operand of one product shares the
    window.
    """

    __slots__ = ()

    def __new__(cls, layers, weights, cutoff):
        weights = _checked_window(weights, cutoff)
        if not isinstance(layers, dict):
            raise InvalidInput(
                "series layers must be a dict {j: XSeries}; "
                "use TruncatedSeries.from_poly for a polynomial"
            )
        for j, c in layers.items():
            if type(j) is not int or j < 0 or weights.wz * j > cutoff:
                raise InvalidInput(f"series layer z^{j!r} lies outside the window")
            n = _layer_prec(weights, cutoff, j)
            if not (isinstance(c, XSeries) and c.prec == n and c.terms):
                raise InvalidInput(f"series layer z^{j} must be a nonzero XSeries mod x^{n}")
        return cls._wrap(dict(layers), weights, cutoff)

    @classmethod
    def _wrap(cls, layers: dict[int, XSeries], weights: Weights, cutoff: int) -> "TruncatedSeries":
        """Adopt nonzero layers at their precisions in a checked window, skipping the checks."""
        return tuple.__new__(cls, (layers, weights, cutoff))

    @classmethod
    def _from_rows(cls, rows: dict[int, dict], weights: Weights, cutoff: int) -> "TruncatedSeries":
        """The window's part of the series with {j: {i: coefficient of x^i z^j}}."""
        kept = [(j, XSeries.from_terms(row, _layer_prec(weights, cutoff, j)))
                for j, row in rows.items() if weights.wz * j <= cutoff]
        return cls._wrap({j: c for j, c in kept if c.terms}, weights, cutoff)

    @classmethod
    def from_poly(cls, p: SparsePoly, weights: Weights, cutoff: int) -> "TruncatedSeries":
        """The window's part of p: every term above the cutoff is dropped."""
        weights = _checked_window(weights, cutoff)
        return cls._from_rows(p.coeffs_in_y(), weights, cutoff)

    @property
    def body(self) -> SparsePoly:
        """The window as a polynomial in (x, z)."""
        return SparsePoly._wrap({
            Monomial(i, j): Fraction(v, c.den) for j, c in self.layers.items() for i, v in c.terms
        })

    def coefficient(self, i: int, j: int) -> Fraction:
        c = self.layers.get(j)
        return c.coefficient(i) if c is not None and 0 <= i < c.prec else Fraction(0)

    def terms(self):
        """Yield (monomial, coefficient) pairs in the canonical order of SparsePoly."""
        return self.body.terms()

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self.mul_add(other, None)

    def mul_add(
        self, other: "TruncatedSeries", addend: "TruncatedSeries | None"
    ) -> "TruncatedSeries":
        """self * other + addend in the window: one fused XSeries step per pair of layers.

        A layer with no addend is a plain product, so no zero series is built for it.
        """
        weights, cutoff = self.weights, self.cutoff
        layers = dict(addend.layers) if addend is not None else {}
        for i, a in self.layers.items():
            for l, b in other.layers.items():
                j = i + l
                if weights.wz * j <= cutoff:
                    n = _layer_prec(weights, cutoff, j)
                    acc = layers.get(j)
                    a_n, b_n = a.resize(n), b.resize(n)
                    layers[j] = a_n * b_n if acc is None else a_n.mul_add(b_n, acc)
        return TruncatedSeries._wrap({j: c for j, c in layers.items() if c.terms}, weights, cutoff)


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
    rows = {e: {0: row} for e, row in A.coeffs_in_y().items()}
    rows.setdefault(0, {})[1] = {0: 1}
    layers = horner_layers(rows, lambda zrows: TruncatedSeries._from_rows(zrows, weights, cutoff))
    phi = TruncatedSeries._from_rows({1: {0: 1}}, weights, cutoff)
    for _ in range(cutoff + 2):
        nxt = subst_horner(layers, phi)
        if nxt.layers == phi.layers:
            return phi
        phi = nxt
    raise RuntimeError("fixed-point iteration failed to converge")


def compose_curve(F: SparsePoly, y_series: TruncatedSeries) -> TruncatedSeries:
    """Substitute the series for the second variable of F, truncating on the fly.

    Equal to truncating F(x, y_series) after full expansion, but products
    never form a term above the series' cutoff.
    """
    weights, cutoff = y_series.weights, y_series.cutoff
    layers = horner_layers(
        F.coeffs_in_y(), lambda row: TruncatedSeries._from_rows({0: row}, weights, cutoff)
    )
    return subst_horner(layers, y_series) if layers else TruncatedSeries._wrap({}, weights, cutoff)
