"""Weighted-truncated power series in two variables, read as (x, z).

A TruncatedSeries fixes a contract: positive integer weights for the two
variables and a cutoff.  Only terms whose weighted degree wx*i + wz*j stays
at or below the cutoff are kept; everything heavier is discarded.  Because
weights are positive, truncation commutes with ring operations, so all
arithmetic here is exact modulo the stated window.

One sparse engine does all the work.  Series are SparsePoly bodies (exact
rational coefficients), and every product is truncated as it is formed: a
pair of terms whose weighted degrees add up past the cutoff is skipped
before its coefficients are multiplied.  Substituting a series for the
second variable is a truncated Horner scheme that raises the series to each
distinct gap between consecutive exponents once, by binary powering.  The
family's inverted series y(x, z) has only a handful of terms at every
member, so the cost follows the number of terms, not the window's x-range.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

# Unused here; kept because perfbench/spans.py patches series.conv_trunc by name.
from ._xseries import conv_trunc  # noqa: F401
from .errors import InvalidInput, MismatchedContract, PreconditionViolated
from .poly import Monomial, SparsePoly

_ZERO = Fraction(0)


class Weights(NamedTuple):
    wx: int
    wz: int


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
        wx, wz = self.weights
        if wx < 1 or wz < 1:
            raise InvalidInput("series weights must be positive integers")
        if self.cutoff < 0:
            raise InvalidInput("series cutoff must be non-negative")
        object.__setattr__(self, "weights", Weights(int(wx), int(wz)))
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

    # -- accessors ---------------------------------------------------------

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.body.coefficient(i, j)

    def terms(self):
        return self.body.terms()

    def truncate(self, cutoff: int) -> "TruncatedSeries":
        """Shrink the window. The cutoff may only decrease."""
        if cutoff > self.cutoff:
            raise InvalidInput("cannot enlarge a truncation window")
        return TruncatedSeries.from_poly(self.body, self.weights, cutoff)

    # -- ring operations ---------------------------------------------------

    def _require_same_contract(self, other: "TruncatedSeries") -> None:
        if self.weights != other.weights or self.cutoff != other.cutoff:
            raise MismatchedContract(
                f"series contracts differ: weights {tuple(self.weights)} cutoff "
                f"{self.cutoff} vs weights {tuple(other.weights)} cutoff {other.cutoff}"
            )

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_contract(other)
        return TruncatedSeries(self.body + other.body, self.weights, self.cutoff)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_contract(other)
        return TruncatedSeries(self.body - other.body, self.weights, self.cutoff)

    def __neg__(self) -> "TruncatedSeries":
        return TruncatedSeries(-self.body, self.weights, self.cutoff)

    def scale(self, c) -> "TruncatedSeries":
        return TruncatedSeries(self.body.scale(c), self.weights, self.cutoff)

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._require_same_contract(other)
        return TruncatedSeries(
            _mul_trunc(self.body, other.body, self.weights, self.cutoff),
            self.weights,
            self.cutoff,
        )

    def __pow__(self, e: int) -> "TruncatedSeries":
        if e < 0:
            raise InvalidInput("negative power of a truncated series")
        result = TruncatedSeries(SparsePoly.one(), self.weights, self.cutoff)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result


# -- truncated products ----------------------------------------------------


def _mul_trunc(a: SparsePoly, b: SparsePoly, weights: Weights, cutoff: int) -> SparsePoly:
    """The product a*b with every term above the cutoff left out.

    The weighted degree of each pair is known before its coefficients are
    touched, so pairs that would land above the cutoff are skipped without
    a multiplication.  Sorting b by weight lets the inner loop stop at the
    first term that no longer fits.
    """
    wx, wz = weights
    bs = sorted(
        ((wx * m.ex + wz * m.ey, m.ex, m.ey, c) for m, c in b._terms.items()),
        key=lambda t: t[0],
    )
    data: dict[Monomial, Fraction] = {}
    for (ax, ay), ac in a._terms.items():
        room = cutoff - wx * ax - wz * ay
        for bw, bx, by, bc in bs:
            if bw > room:
                break
            m = Monomial(ax + bx, ay + by)
            s = data.get(m, _ZERO) + ac * bc
            if s:
                data[m] = s
            else:
                del data[m]
    return SparsePoly._wrap(data)


def _powers_trunc(
    r: SparsePoly, exponents: set[int], weights: Weights, cutoff: int
) -> dict[int, SparsePoly]:
    """Truncated r**e for each positive e, by binary powering over shared squarings."""
    squares = [r]
    while (1 << len(squares)) <= max(exponents, default=0):
        squares.append(_mul_trunc(squares[-1], squares[-1], weights, cutoff))
    out = {}
    for e in exponents:
        acc = None
        for bit, sq in enumerate(squares):
            if e >> bit & 1:
                acc = sq if acc is None else _mul_trunc(acc, sq, weights, cutoff)
        out[e] = acc
    return out


def _subst_second_truncated(
    F: SparsePoly, r: SparsePoly, weights: Weights, cutoff: int
) -> SparsePoly:
    """F(x, r), truncated, by Horner's scheme over the y-exponents of F.

    Consecutive y-exponents e1 > e2 cost one product with r**(e1 - e2).  Each
    distinct gap is powered once per call; the family's gaps are mostly m,
    so one r**m serves every step.
    """
    wx = weights.wx
    layers: dict[int, dict[Monomial, Fraction]] = {}
    for m, c in F._terms.items():
        if wx * m.ex <= cutoff:
            layers.setdefault(m.ey, {})[Monomial(m.ex, 0)] = c
    if not layers:
        return SparsePoly.zero()
    exps = sorted(layers, reverse=True)
    gaps = [prev - e for prev, e in zip(exps, exps[1:])]
    tail = exps[-1]
    powers = _powers_trunc(r, {*gaps, tail} - {0}, weights, cutoff)
    acc = SparsePoly._wrap(layers[exps[0]])
    for gap, e in zip(gaps, exps[1:]):
        acc = _mul_trunc(acc, powers[gap], weights, cutoff) + SparsePoly._wrap(layers[e])
    if tail:
        acc = _mul_trunc(acc, powers[tail], weights, cutoff)
    return acc


# -- coordinate-change inversion -------------------------------------------


def _check_inversion_input(A: SparsePoly, weights: Weights, cutoff: int) -> None:
    if A.order() < 2:
        raise PreconditionViolated(
            "the perturbation must vanish to order 2 at the origin"
        )
    if weights.wz > cutoff:
        raise InvalidInput("cutoff is too small to represent the new variable")


def invert_change(A: SparsePoly, weights: Weights, cutoff: int) -> TruncatedSeries:
    """Solve y = z + A(x, y) for y as a truncated series in (x, z).

    This inverts the substitution z = y - A(x, y).  A must vanish to
    order 2 at the origin, which makes the fixed-point iteration
    y <- z + A(x, y) gain at least one unit of weighted order per pass.
    Each pass substitutes the current iterate into A with the truncated
    Horner scheme, so no term above the cutoff is ever multiplied out.
    """
    weights = Weights(*weights)
    _check_inversion_input(A, weights, cutoff)
    z = SparsePoly.variable("y")
    phi = z
    for _ in range(cutoff + 2):
        nxt = z + _subst_second_truncated(A, phi, weights, cutoff)
        if nxt == phi:
            return TruncatedSeries(phi, weights, cutoff)
        phi = nxt
    raise RuntimeError("fixed-point iteration failed to converge")


def compose_curve(F: SparsePoly, y_series: TruncatedSeries) -> TruncatedSeries:
    """Substitute the series for the second variable of F, truncating on the fly.

    Equal to truncating F(x, y_series) after full expansion, but products
    never form a term above the series' cutoff.
    """
    weights, cutoff = y_series.weights, y_series.cutoff
    return TruncatedSeries(
        _subst_second_truncated(F, y_series.body, weights, cutoff), weights, cutoff
    )
