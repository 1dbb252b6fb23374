"""Splitting-lemma classification of plane-curve germs at the origin.

The classifier handles corank-at-most-one germs in their own coordinates.
With c = f_yy(0, 0)/2 != 0, the branch h(x) with f_y(x, h(x)) = 0,
h(0) = 0 gives f = f(x, h) + (y - h)^2 * u, u(0, 0) = c, and
k = ord_x f(x, h(x)) - 1.  No rotation is needed: for a corank-one
quadratic part a*x^2 + b*x*y + c*y^2 the 2-jet of f(x, h(x)) is
(4ac - b^2)/(4c) * x^2 = 0.  A precision rung reads f(x, h(x)) mod x^(2p)
from h, the branch mod x^p, which is exact because f_y(x, h) = O(x^p); only
if that reading vanishes does one Newton step take h to the root mod
x^(2p), dividing by f_yy(x, h) mod x^p.

Every evaluation on the branch (f, f_y and f_yy) runs the shared Horner
scheme graded by the branch's order: with v = ord h >= 1, the y^e layer
enters only mod x^(prec - e*v), and layers with e*v >= prec are dropped.
Only terms that cannot reach below x^prec are left out, so the result is
the ungraded scheme's, bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

from ._xseries import XSeries, horner_layers, subst_horner
from .errors import InvalidInput, NonIsolated, NotACriticalGerm, require_int
from .poly import SparsePoly


class _AkResult(NamedTuple):
    kind: str
    k: int | None = None
    cap: int | None = None


class AkResult(_AkResult):
    """Classification outcome: A_k, Smooth, NotCorankOne, or Undetermined."""

    __slots__ = ()

    def __new__(cls, kind, k=None, cap=None):
        if kind not in ("A_k", "Smooth", "NotCorankOne", "Undetermined"):
            raise InvalidInput(f"unknown result kind {kind!r}")
        if kind == "A_k" and (k is None or k < 1):
            raise InvalidInput("A_k result requires k >= 1")
        if kind == "Undetermined" and cap is None:
            raise InvalidInput("Undetermined result carries the precision cap")
        return super().__new__(cls, kind, k, cap)


def hessian_corank(f: SparsePoly) -> int:
    """Corank of the quadratic part: 2 minus the rank of the Hessian at 0."""
    if f.coefficient(0, 0) != 0 or f.coefficient(1, 0) != 0 or f.coefficient(0, 1) != 0:
        raise NotACriticalGerm("constant or linear part is nonzero")
    a, b, c = f.coefficient(2, 0), f.coefficient(1, 1), f.coefficient(0, 2)
    if a == b == c == 0:
        return 2
    if 4 * a * c - b * b == 0:
        return 1
    return 0


def _y_square_chart(f: SparsePoly) -> SparsePoly:
    """f, or f with x and y swapped if its y^2 coefficient is 0 (then b = 0)."""
    if f.coefficient(0, 2) != 0:
        return f
    return SparsePoly({(m.ey, m.ex): c for m, c in f.terms()})


Layers = list[tuple[int, XSeries]]


def _y_layers(f: SparsePoly) -> Layers:
    """(y-exponent, exact x-polynomial) pairs of f, highest exponent first."""
    return horner_layers(f.coeffs_in_y(), lambda c: XSeries.from_terms(c, max(c) + 1))


def _dy(layers: Layers) -> Layers:
    """The y-layers of the y-derivative: layer e of f becomes e * c_e at e - 1."""
    return [
        (e - 1, XSeries._wrap([(i, e * v) for i, v in c.terms], c.den, c.prec))
        for e, c in layers
        if e
    ]


def _eval_on_branch(layers: Layers, h: XSeries) -> XSeries:
    """f(x, h(x)) mod x^prec(h), by the shared Horner scheme over the y-exponents of f.

    With v = ord h (v = prec if h vanishes mod x^prec), c_e * h^e is
    O(x^(e*v)), so the layer c_e is needed only mod x^(prec - e*v) and not
    at all once e*v >= prec.  Each layer is resized to that precision, the
    exact y^0 layer included: a layer left at its own precision would cap
    the Horner products below what they need.  By the product rule of
    XSeries, the accumulator at y-exponent e then stays at prec - e*v,
    exactly the precision its later products need, and the sum comes out
    at prec.  Every coefficient below x^prec is the ungraded scheme's.
    """
    prec = h.prec
    v = prec if h.is_zero() else h.order()
    graded = [(e, c.resize(prec - e * v)) for e, c in layers if e * v < prec]
    return subst_horner(graded, h) if graded else XSeries.zero(prec)


def _lift(fy: Layers, fyy: Layers, h: XSeries) -> XSeries:
    """The root of f_y(x, h(x)) = 0 mod x^(2p), from h, the root mod x^p.

    ``fy`` and ``fyy`` are the y-layers of f_y and f_yy.  One Newton step
    h - f_y(x, h) / f_yy(x, h) mod x^(2p); it is skipped when f_y(x, h)
    already vanishes mod x^(2p).  Since f_y(x, h) = O(x^p), the quotient
    reads f_yy(x, h) only mod x^p, so f_yy is evaluated on h at its own
    precision p.  The division is sparse: on a unit-factor member such as
    F(s) * (1 + x^27) it costs a few terms, not the precision.
    """
    padded = h.resize(2 * h.prec)
    num = _eval_on_branch(fy, padded)
    if num.is_zero():
        return padded
    return padded - num / _eval_on_branch(fyy, h)


def split_and_classify(f: SparsePoly, cap: int | None = None) -> AkResult:
    """Classify a germ as A_k, Smooth, NotCorankOne, or Undetermined.

    For corank one, with c = f_yy(0, 0)/2 != 0 (x and y swapped otherwise),
    let h solve f_y(x, h(x)) = 0, h(0) = 0.  Then f = f(x, h) + (y - h)^2 * u
    with u(0, 0) = c, so f splits as unit * z^2 + g(x), g(x) = f(x, h(x)), and
    k = ord_x(g) - 1; the 2-jet (4ac - b^2)/(4c) * x^2 of g vanishes.

    A rung starts from h, the root mod x^p (p = 1, 2, 4, ...; h = 0 mod x),
    reads g mod x^(2p), and only then, if g vanishes there, lifts h by one
    Newton step to the root mod x^(2p).  Reading g at twice the branch
    precision is exact: with h* the true branch, f_y(x, h) = O(x^p) and
    h* - h = O(x^p), so f(x, h*) = f(x, h) + O(x^(2p)) by Taylor's formula in
    y.  So g is read at 2, 4, 8, ..., and the top rung never lifts.  The
    search stops on its own: an isolated point of a degree-d curve has
    k = mu <= (d-1)^2 by Bezout applied to the two partials, so once g
    vanishes mod x^(2p) with 2p > (d-1)^2 + 1 the germ is proven
    non-isolated and NonIsolated is raised.  An optional ``cap`` is a user
    budget: past a vanishing order of ``cap`` the result is Undetermined.
    f's y-layers are built once; those of f_y and f_yy are derived from them.
    """
    if cap is not None:
        require_int(cap, "cap", 1)
    if f.coefficient(0, 0) != 0:
        raise NotACriticalGerm("the germ must vanish at the origin")
    if f.coefficient(1, 0) != 0 or f.coefficient(0, 1) != 0:
        return AkResult("Smooth")
    corank = hessian_corank(f)
    if corank == 0:
        return AkResult("A_k", k=1)
    if corank == 2:
        return AkResult("NotCorankOne")
    f = _y_square_chart(f)
    bezout = (f.total_degree - 1) ** 2 + 1
    layers = _y_layers(f)
    fy_layers = _dy(layers)
    fyy_layers = _dy(fy_layers)
    h = XSeries.zero(1)
    while True:
        prec = 2 * h.prec
        order = _eval_on_branch(layers, h.resize(prec)).order()
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
        h = _lift(fy_layers, fyy_layers, h)
