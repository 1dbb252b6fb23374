"""Singularity-type certification for plane-curve germs.

Two independent certifiers live here.  The Newton-segment certifier
inspects a prepared weighted series and accepts exactly when, apart from
the two segment endpoints z^2 and x^(k+1), every retained term lies
strictly above the segment joining (0,2) and (k+1,0); such a germ is
semi-quasihomogeneous with principal part z^2 + c*x^(k+1), hence of type
A_k.  The splitting-lemma classifier handles arbitrary corank-at-most-one
germs: it removes the square via one Newton-solved branch h(x) with
f_y(x, h(x)) = 0 and reads k off the x-order of f(x, h(x)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ._xseries import XSeries
from .errors import (
    InvalidInput,
    MismatchedContract,
    NonIsolated,
    NotACriticalGerm,
    WindowTooSmall,
)
from .poly import Monomial, SparsePoly
from .series import TruncatedSeries, Weights


@dataclass(frozen=True)
class AkCertificate:
    """Outcome of the Newton-segment check for a claimed k."""

    k: int
    coeff_z2: Fraction
    coeff_xk1: Fraction
    weights: Weights
    cutoff: int
    violations: tuple[tuple[Monomial, Fraction], ...] = field(default=())

    @property
    def certified(self) -> bool:
        return not self.violations and self.coeff_z2 != 0 and self.coeff_xk1 != 0


@dataclass(frozen=True)
class AkResult:
    """Classification outcome: A_k, Smooth, NotCorankOne, or Undetermined."""

    kind: str
    k: int | None = None
    cap: int | None = None

    def __post_init__(self):
        if self.kind not in ("A_k", "Smooth", "NotCorankOne", "Undetermined"):
            raise InvalidInput(f"unknown result kind {self.kind!r}")
        if self.kind == "A_k" and (self.k is None or self.k < 1):
            raise InvalidInput("A_k result requires k >= 1")
        if self.kind == "Undetermined" and self.cap is None:
            raise InvalidInput("Undetermined result carries the precision cap")


def newton_ak_certify(series: TruncatedSeries, expected_k: int) -> AkCertificate:
    """Check that a weighted series is the A_k normal form plus heavier terms.

    The contract requires weights (2, expected_k + 1).  Terms weighing more
    than 2*(expected_k + 1) lie strictly above the segment automatically;
    the certificate therefore records as violations exactly the retained
    terms, other than the endpoints, with weight at or below that line.
    """
    if expected_k < 1:
        raise InvalidInput("expected_k must be at least 1")
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
    return AkCertificate(
        k=expected_k,
        coeff_z2=coeff_z2,
        coeff_xk1=coeff_xk1,
        weights=series.weights,
        cutoff=series.cutoff,
        violations=violations,
    )


def _quadratic_entries(f: SparsePoly) -> tuple[Fraction, Fraction, Fraction]:
    return f.coefficient(2, 0), f.coefficient(1, 1), f.coefficient(0, 2)


def hessian_corank(f: SparsePoly) -> int:
    """Corank of the quadratic part: 2 minus the rank of the Hessian at 0."""
    if f.coefficient(0, 0) != 0 or f.coefficient(1, 0) != 0 or f.coefficient(0, 1) != 0:
        raise NotACriticalGerm("constant or linear part is nonzero")
    a, b, c = _quadratic_entries(f)
    if a == b == c == 0:
        return 2
    if 4 * a * c - b * b == 0:
        return 1
    return 0


def _rotate_corank_one(f: SparsePoly) -> SparsePoly:
    """Linear change making the quadratic part a nonzero multiple of y^2.

    The new x-axis follows the Hessian kernel.  When the quadratic part is
    already c*y^2 the change is the identity; when it is a*x^2 the two
    variables are swapped; otherwise the kernel vector (b, -2a) becomes the
    x-direction.
    """
    a, b, c = _quadratic_entries(f)
    if a == 0 and b == 0:
        return f
    xv, yv = SparsePoly.variable("x"), SparsePoly.variable("y")
    if b == 0:
        return f.compose(yv, xv)
    # x -> b*X, y -> -2a*X + Y
    return f.compose(xv.scale(b), xv.scale(-2 * a) + yv)


_PRECISION_START = 16


def _eval_on_branch(f: SparsePoly, h: XSeries) -> XSeries:
    """f(x, h(x)) truncated to the precision of h."""
    prec = h.prec
    layers = f.coeffs_in_y()
    acc = XSeries.zero(prec)
    power = XSeries.one(prec)
    level = 0
    for b in sorted(layers):
        while level < b:
            power = power * h
            level += 1
        layer = XSeries.from_fractions(
            [layers[b].get(i, Fraction(0)) for i in range(max(layers[b]) + 1)], prec
        )
        acc = acc + layer * power
    return acc


def _newton_branch(fy: SparsePoly, fyy: SparsePoly, prec: int, seed: XSeries) -> XSeries:
    """Solve f_y(x, h(x)) = 0 with h(0) = 0 by Newton iteration."""
    h = seed.resize(prec)
    for _ in range(prec.bit_length() + 4):
        num = _eval_on_branch(fy, h)
        if num.is_zero():
            return h
        den = _eval_on_branch(fyy, h)
        nxt = h - num / den
        if nxt == h:
            return h
        h = nxt
    return h


def split_and_classify(f: SparsePoly, cap: int | None = None) -> AkResult:
    """Classify a germ as A_k, Smooth, NotCorankOne, or Undetermined.

    For corank one the germ splits as unit * z^2 + g(x) with
    g(x) = f(x, h(x)); k is ord_x(g) - 1, searched with doubling precision.
    The search stops on its own: an isolated point of a degree-d curve has
    k = mu <= (d-1)^2 by Bezout applied to the two partials, so once g
    vanishes mod x^prec with prec > (d-1)^2 + 1 the germ is proven
    non-isolated and NonIsolated is raised.  An optional ``cap`` is a user
    budget: past a vanishing order of ``cap`` the result is Undetermined.
    """
    if cap is not None and cap < 1:
        raise InvalidInput("cap must be positive")
    if f.coefficient(0, 0) != 0:
        raise NotACriticalGerm("the germ must vanish at the origin")
    if f.coefficient(1, 0) != 0 or f.coefficient(0, 1) != 0:
        return AkResult("Smooth")
    corank = hessian_corank(f)
    if corank == 0:
        return AkResult("A_k", k=1)
    if corank == 2:
        return AkResult("NotCorankOne")
    g = _rotate_corank_one(f)
    bezout = (g.total_degree - 1) ** 2 + 1
    fy, fyy = g.diff("y"), g.diff("y").diff("y")
    prec = _PRECISION_START
    h = XSeries.zero(prec)
    while True:
        h = _newton_branch(fy, fyy, prec, h)
        order = _eval_on_branch(g, h).order()
        if order is not None:
            if cap is not None and order > cap:
                return AkResult("Undetermined", cap=cap)
            return AkResult("A_k", k=order - 1)
        if prec > bezout:
            raise NonIsolated(
                f"f(x, h(x)) vanishes mod x^{prec}, past the Bezout bound "
                f"k + 1 <= (d-1)^2 + 1 = {bezout}: the critical locus "
                "contains a curve through the origin"
            )
        if cap is not None and prec > cap:
            return AkResult("Undetermined", cap=cap)
        prec *= 2
