"""Milnor-number oracles for isolated plane-curve singularities.

Three independent methods are provided so results can be cross-checked
without trusting a single code path.

Truncated local algebra: D(M) is the codimension of the span of truncated
multiples of the two partial derivatives inside polynomials of total degree
below M.  D is non-decreasing in M, and one consecutive equality
D(M+1) = D(M) pins the value exactly: it forces the M-th power of the
maximal ideal into the Jacobian ideal, after which nothing new can appear.
Every rank is computed by exact sparse elimination over the integers.

Resultant valuation: after an origin-fixing shear that pushes all other
critical points off the line x = 0, the Milnor number at the origin is the
order of vanishing in x of the resultant of the two partials with respect
to y.  The resultant is recovered by evaluation at integer sample points
and interpolation, either exactly or modulo two independent primes.

Fulton's algorithm: the Milnor number is the intersection multiplicity
I_0(f_x, f_y), reduced step by step with the rules that define it
(Fulton, *Algebraic Curves*, section 3.3) in exact integer arithmetic.  It
needs no truncation, shear or sample point, but its polynomials can grow on
dense germs, so it stops at a fixed term budget.

numpy is imported only inside the resultant's modular path, so importing
this module does not load it.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING

from ._exactrank import det_bareiss, rank_profile_sparse, sylvester_matrix
from ._modp import eval_x_batch, interpolate_monomial, primes_from_seed, resultant_batch
# Unused here; kept because perfbench/spans.py patches milnor.rank_profile_mod_p by name.
from ._modp import rank_profile_mod_p  # noqa: F401
from .errors import (
    BudgetExceeded,
    GenericityFailure,
    InvalidInput,
    NonIsolated,
    PreconditionViolated,
    require_int,
)
from .poly import SparsePoly

if TYPE_CHECKING:
    import numpy as np

TRUNCATED_METHOD = "truncated-local-algebra"
RESULTANT_METHOD = "resultant"
FULTON_METHOD = "fulton"

# Above this degree bound for the interpolated resultant, the exact
# Sylvester-determinant path is replaced by the two-prime modular one.
_EXACT_RESULTANT_LIMIT = 300

_SHEAR_ATTEMPTS = 8

# Most terms either polynomial of Fulton's reduction may reach.  On F(s) the
# reduction peaks at 46 terms; on dense random germs it can pass 10,000 and
# run for seconds.  At this cap, each seed-101 benchmark germ that passes it
# is stopped within 25 ms.
FULTON_TERM_BUDGET = 500


@dataclass(frozen=True)
class MilnorReport:
    mu: int
    method: str
    stabilized_at: int
    arithmetic: str


def _col_index(i: int, j: int) -> int:
    # Monomials ordered by total degree, then by x-exponent within a degree.
    deg = i + j
    return deg * (deg + 1) // 2 + i


def _relation_rows(fx: SparsePoly, fy: SparsePoly, m_top: int) -> list[dict[int, int]]:
    """Rows spanning {monomial * partial, truncated below degree m_top}."""
    rows: list[dict[int, int]] = []
    for g in (fx, fy):
        if g.is_zero:
            continue
        terms = [((m.ex, m.ey), int(c)) for m, c in _scale_integer(g).terms()]
        og = min(tx + ty for (tx, ty), _ in terms)
        for du in range(m_top - og):
            for a in range(du + 1):
                b = du - a
                row = {}
                for (tx, ty), c in terms:
                    if a + tx + b + ty < m_top:
                        row[_col_index(a + tx, b + ty)] = c
                if row:
                    rows.append(row)
    return rows


def _profile_to_dims(profile: list[int], m_top: int) -> list[int]:
    # D(m) for m = 0..m_top from one left-to-right rank profile: within the
    # first ncols(m) columns, the pivot count is the rank of that prefix.
    dims = []
    for m in range(m_top + 1):
        nc = m * (m + 1) // 2
        dims.append(nc - bisect_left(profile, nc))
    return dims


def _dimension_profile(fx: SparsePoly, fy: SparsePoly, m_top: int) -> list[int]:
    """D(m) for all m <= m_top, by exact sparse elimination."""
    rows = _relation_rows(fx, fy, m_top)
    return _profile_to_dims(rank_profile_sparse(rows, m_top * (m_top + 1) // 2), m_top)


def _require_no_constant(f: SparsePoly) -> None:
    if f.coefficient(0, 0) != 0:
        raise PreconditionViolated("the germ must vanish at the origin")


def milnor_truncated(f: SparsePoly, M: int) -> int:
    """D(M): local-algebra dimension truncated below total degree M."""
    require_int(M, "truncation degree", 1)
    _require_no_constant(f)
    return _dimension_profile(f.diff("x"), f.diff("y"), M)[M]


def milnor_number(
    f: SparsePoly,
    *,
    expected: int | None = None,
    arithmetic: str = "exact",
) -> MilnorReport:
    """Milnor number via stabilization of the truncated local algebra.

    The truncation degree M starts at ord(f) + 1 (``expected + 3`` with a
    hint), at least 2, and doubles until D stabilizes, but never past
    top = (d-1)^2 + 1 for a degree-d germ.  D(m) does not depend on the
    truncation of the matrix it is read from, so the rung only decides how
    far the search can see.  At top it always reaches a verdict: D is
    strictly increasing until D(M+1) = D(M) (then m^M lies in the Jacobian
    ideal by Nakayama), so an isolated point stabilizes at some
    M <= mu <= (d-1)^2, Bezout applied to the two partials.  A non-isolated
    point never stabilizes, so D(top) >= top exceeds (d-1)^2, which proves
    it non-isolated and raises NonIsolated.

    The elimination is always exact.  ``arithmetic`` may be "exact" or
    "modular"; both run the same exact elimination and report "exact".
    """
    if arithmetic not in ("exact", "modular"):
        raise InvalidInput(f"unknown arithmetic {arithmetic!r}")
    if expected is not None:
        require_int(expected, "expected", 0)
    _require_no_constant(f)
    bezout = (f.total_degree - 1) ** 2
    top = max(bezout + 1, 2)
    fx, fy = f.diff("x"), f.diff("y")
    first = expected + 3 if expected is not None else f.order() + 1
    m_run = min(max(first, 2), top)
    while True:
        dims = _dimension_profile(fx, fy, m_run)
        assert all(a <= b for a, b in zip(dims, dims[1:])), "D(M) must be monotone"
        for m in range(1, m_run):
            if dims[m + 1] == dims[m]:
                return MilnorReport(dims[m], TRUNCATED_METHOD, m, "exact")
        if dims[m_run] > bezout:
            raise NonIsolated(
                f"D({m_run}) = {dims[m_run]} exceeds the Bezout bound "
                f"mu <= (d-1)^2 = {bezout}: the singularity is not isolated"
            )
        if m_run == top:
            raise AssertionError(f"no verdict at the Bezout rung D({top}) = {dims[top]}")
        m_run = min(2 * m_run, top)


# -- resultant-valuation oracle --------------------------------------------


def _scale_integer(p: SparsePoly) -> SparsePoly:
    den = 1
    for _, c in p.terms():
        den = lcm(den, c.denominator)
    return p.scale(den) if den != 1 else p


def _restriction_y(p: SparsePoly) -> list[Fraction]:
    """Coefficient list (low to high) of p(0, y)."""
    out: list[Fraction] = []
    for m, c in p.terms():
        if m.ex == 0:
            if len(out) <= m.ey:
                out.extend([Fraction(0)] * (m.ey + 1 - len(out)))
            out[m.ey] = c
    while out and out[-1] == 0:
        out.pop()
    return out


def _gcd_univariate(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = list(a), list(b)
    while b:
        # remainder a mod b
        da, db = len(a) - 1, len(b) - 1
        inv = 1 / b[-1]
        for top in range(da, db - 1, -1):
            f = a[top] * inv
            if f:
                sh = top - db
                for i in range(db + 1):
                    a[sh + i] -= f * b[i]
        del a[db:]
        while a and a[-1] == 0:
            a.pop()
        a, b = b, a
    return a


def _is_monomial_univ(c: list[Fraction]) -> bool:
    return sum(1 for v in c if v) == 1


def _lc_y_poly(p: SparsePoly) -> dict[int, int]:
    """Integer x-coefficients of the leading y-layer."""
    dy = p.degree_in("y")
    layer = p.coeffs_in_y()[dy]
    return {i: int(c) for i, c in layer.items()}


def _eval_int_poly(coeffs: dict[int, int], t: int) -> int:
    return sum(c * t**i for i, c in coeffs.items())


def _dense_y_matrix(p: SparsePoly) -> list[list[int]]:
    """C[b][i] = integer coefficient of y^b x^i."""
    dy, dx = p.degree_in("y"), p.degree_in("x")
    mat = [[0] * (dx + 1) for _ in range(dy + 1)]
    for m, c in p.terms():
        mat[m.ey][m.ex] = int(c)
    return mat


def _exact_resultant_values(
    P: SparsePoly, Q: SparsePoly, points: list[int]
) -> list[int]:
    py, qy = P.degree_in("y"), Q.degree_in("y")
    pc = P.coeffs_in_y()
    qc = Q.coeffs_in_y()

    def layer_values(layers, dy, t):
        return [
            sum(int(c) * t**i for i, c in layers.get(b, {}).items())
            for b in range(dy + 1)
        ]

    values = []
    for t in points:
        pv = layer_values(pc, py, t)
        qv = layer_values(qc, qy, t)
        if py == 0 and qy == 0:
            values.append(1)
        elif py == 0:
            values.append(pv[0] ** qy)
        elif qy == 0:
            values.append(qv[0] ** py)
        else:
            values.append(det_bareiss(sylvester_matrix(pv, qv)))
    return values


def _interp_valuation_exact(points: list[int], values: list[int]) -> int | None:
    """Order of vanishing at 0 of the degree < len(points) interpolant."""
    n = len(points)
    coef = [Fraction(v) for v in values]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (points[i] - points[i - j])
    poly = [coef[n - 1]]
    for j in range(n - 2, -1, -1):
        xj = points[j]
        nxt = [Fraction(0)] * (len(poly) + 1)
        for i, v in enumerate(poly):
            nxt[i + 1] += v
            nxt[i] -= xj * v
        nxt[0] += coef[j]
        poly = nxt
    for i, v in enumerate(poly):
        if v:
            return i
    return None


def _sample_points(P, Q, count: int, p: int | None = None) -> list[int]:
    """The first ``count`` integers t >= 1 where no leading y-coefficient vanishes.

    With a modulus ``p`` the test is vanishing mod p, so the y-degrees of
    both polynomials survive reduction at every chosen point.
    """
    lcs = [_lc_y_poly(R) for R in (P, Q) if R.degree_in("y") > 0]
    pts: list[int] = []
    t = 1
    while len(pts) < count:
        values = [_eval_int_poly(lc, t) for lc in lcs]
        if all(v % p if p else v for v in values):
            pts.append(t)
        t += 1
    return pts


def _exact_valuation(P, Q, count: int) -> int | None:
    pts = _sample_points(P, Q, count)
    return _interp_valuation_exact(pts, _exact_resultant_values(P, Q, pts))


def _modular_interpolant(P, Q, count: int, p: int) -> np.ndarray:
    """Coefficients mod p of the interpolant of Res_y(P, Q) through ``count`` points."""
    import numpy as np

    py, qy = P.degree_in("y"), Q.degree_in("y")
    pts = _sample_points(P, Q, count, p)
    pts_arr = np.array(pts, dtype=np.int64)
    pmat = np.array([[c % p for c in row] for row in _dense_y_matrix(P)], dtype=np.int64)
    qmat = np.array([[c % p for c in row] for row in _dense_y_matrix(Q)], dtype=np.int64)
    if py == 0 and qy == 0:
        vals = np.ones(len(pts), dtype=np.int64)
    elif py == 0:
        base = eval_x_batch(pmat, pts_arr, p)[0]
        vals = np.array([pow(int(v), qy, p) for v in base], dtype=np.int64)
    elif qy == 0:
        base = eval_x_batch(qmat, pts_arr, p)[0]
        vals = np.array([pow(int(v), py, p) for v in base], dtype=np.int64)
    else:
        fv = eval_x_batch(pmat, pts_arr, p)
        gv = eval_x_batch(qmat, pts_arr, p)
        vals = resultant_batch(fv, gv, p)
    return interpolate_monomial(pts_arr, vals, p)


def _modular_valuation(P, Q, count: int, p: int) -> int | None:
    import numpy as np

    nz = np.nonzero(_modular_interpolant(P, Q, count, p))[0]
    return int(nz[0]) if nz.size else None


def _shear_values(seed: int) -> list[int]:
    rng = random.Random(seed)
    out = [0]
    while len(out) < _SHEAR_ATTEMPTS:
        v = rng.randrange(1, 100)
        if v not in out:
            out.append(v)
    return out


def milnor_resultant(
    f: SparsePoly, shear_seed: int = 0, *, arithmetic: str = "auto"
) -> MilnorReport:
    """Milnor number as the x-valuation of Res_y of the two partials.

    Tries the identity shear first, then up to seven seeded shears
    (x, y) -> (x + t*y, y) until the genericity conditions hold: other
    critical points stay off the line x = 0 and neither partial drops
    y-degree there.

    The resultant is interpolated through deg_x Res + 1 sample points, with

        deg_x Res_y(P, Q) <= min(qy*deg_x P + py*deg_x Q, qy*m + py*n - py*qy)

    for y-degrees py, qy and total degrees m, n of P and Q.  The first bound
    reads the x-degrees off the Sylvester matrix row by row; for the second,
    the entry in P-row i (0 <= i < qy) and column j is the coefficient of
    y^(py-j+i), of x-degree at most m - py + j - i, and in Q-row i
    (0 <= i < py) it has x-degree at most n - qy + j - i, so every term of
    the determinant has x-degree at most qy*(m-py) + py*(n-qy) + sum_j j -
    sum_{i<qy} i - sum_{i<py} i = qy*m + py*n - py*qy, never more than the
    classical m*n (Fulton, *Algebraic Curves*, section 1.6).  The ``auto``
    switch to modular arithmetic compares the first bound with
    _EXACT_RESULTANT_LIMIT.
    """
    if arithmetic not in ("auto", "exact", "modular"):
        raise InvalidInput(f"unknown arithmetic {arithmetic!r}")
    fx, fy = f.diff("x"), f.diff("y")
    if fx.is_zero and fy.is_zero:
        raise NonIsolated("the gradient vanishes identically")
    if fx.is_zero or fy.is_zero:
        g = fy if fx.is_zero else fx
        if g.coefficient(0, 0) != 0:
            return MilnorReport(0, RESULTANT_METHOD, 0, "exact")
        raise NonIsolated("the critical locus contains a curve through the origin")
    for var in ("x", "y"):
        if all(m[0 if var == "x" else 1] >= 1 for m, _ in fx.terms()) and all(
            m[0 if var == "x" else 1] >= 1 for m, _ in fy.terms()
        ):
            raise NonIsolated(f"the {var} = 0 axis lies in the critical locus")

    xv, yv = SparsePoly.variable("x"), SparsePoly.variable("y")
    for t in _shear_values(shear_seed):
        if t == 0:
            P, Q = _scale_integer(fx), _scale_integer(fy)
        else:
            g = f.compose(xv + yv.scale(t), yv)
            P, Q = _scale_integer(g.diff("x")), _scale_integer(g.diff("y"))
        py, qy = P.degree_in("y"), Q.degree_in("y")
        if py > 0 and _lc_y_poly(P).get(0, 0) == 0:
            continue
        if qy > 0 and _lc_y_poly(Q).get(0, 0) == 0:
            continue
        gcd0 = _gcd_univariate(_restriction_y(P), _restriction_y(Q))
        if not _is_monomial_univ(gcd0):
            continue
        bound = qy * P.degree_in("x") + py * Q.degree_in("x")
        count = min(bound, qy * P.total_degree + py * Q.total_degree - py * qy) + 1
        mode = arithmetic
        if mode == "auto":
            mode = "exact" if bound <= _EXACT_RESULTANT_LIMIT else "modular"
        if mode == "exact":
            val = _exact_valuation(P, Q, count)
            arith_used = "exact"
        else:
            p1, p2 = primes_from_seed(2)
            v1 = _modular_valuation(P, Q, count, p1)
            v2 = _modular_valuation(P, Q, count, p2)
            if v1 != v2:
                val = _exact_valuation(P, Q, count)
                arith_used = "exact"
            else:
                val = v1
                arith_used = f"two-prime-modular({p1},{p2})"
        if val is None:
            raise NonIsolated("the partials share a factor: resultant is identically zero")
        return MilnorReport(val, RESULTANT_METHOD, val, arith_used)
    raise GenericityFailure(
        f"no admissible shear found in {_SHEAR_ATTEMPTS} attempts"
    )


# -- Fulton's intersection-multiplicity oracle ------------------------------


def _integer_terms(p: SparsePoly) -> dict[tuple[int, int], int]:
    return {(m.ex, m.ey): int(c) for m, c in _scale_integer(p).terms()}


def milnor_fulton(f: SparsePoly) -> MilnorReport:
    """Milnor number as I_0(f_x, f_y), by Fulton's algorithm.

    With P, Q the partials scaled to integer coefficients and
    P_0 = P(x, 0), Q_0 = Q(x, 0), each step applies one rule that leaves
    I_0(P, Q) unchanged or moves a known part of it into the total:

    - a nonzero constant term makes P or Q a unit at the origin, so the
      rest contributes 0 and the total is returned (checked first, so
      that ``x`` and ``x + y^2`` give 0);
    - if Q_0 = 0 then Q = y*D and I_0(P, Q) = ord_x P_0 + I_0(P, D);
    - otherwise, with r = deg P_0 <= s = deg Q_0 (after a swap),
      Q <- lc(P_0)*Q - lc(Q_0)*x^(s-r)*P lowers deg Q_0, and the content of
      the new Q is divided out.

    Non-isolation is proven in three ways, each raising NonIsolated: P or Q
    reduces to 0 while the other is no unit; y divides both; the total
    passes (d-1)^2, which bounds the Milnor number of an isolated point of
    a degree-d germ by Bezout's theorem on the two partials.  A polynomial
    past FULTON_TERM_BUDGET terms raises BudgetExceeded: the answer is
    unknown, and callers may fall back to another oracle.
    """
    _require_no_constant(f)
    bezout = (f.total_degree - 1) ** 2
    P, Q = _integer_terms(f.diff("x")), _integer_terms(f.diff("y"))
    mu = 0
    while True:
        if (0, 0) in P or (0, 0) in Q:
            return MilnorReport(mu, FULTON_METHOD, mu, "exact")
        if not P or not Q:
            raise NonIsolated(
                "the partials reduce to 0 modulo each other: they share a component "
                "through the origin, so the singularity is not isolated"
            )
        p0 = [i for i, j in P if not j]
        q0 = [i for i, j in Q if not j]
        if not p0 or not q0:
            if not p0:
                P, Q, p0, q0 = Q, P, q0, p0
            if not p0:
                raise NonIsolated(
                    "y divides both reduced partials: the line y = 0 is a common "
                    "component, so the singularity is not isolated"
                )
            mu += min(p0)
            if mu > bezout:
                raise NonIsolated(
                    f"the intersection multiplicity passed the Bezout bound "
                    f"mu <= (d-1)^2 = {bezout}: the singularity is not isolated"
                )
            Q = {(i, j - 1): c for (i, j), c in Q.items()}
            continue
        r, s = max(p0), max(q0)
        if r > s:
            P, Q, r, s = Q, P, s, r
        a, b = P[r, 0], Q[s, 0]
        g = gcd(a, b)
        a, b, shift = a // g, b // g, s - r
        new = {m: a * c for m, c in Q.items()}
        for (i, j), c in P.items():
            key = (i + shift, j)
            v = new.get(key, 0) - b * c
            if v:
                new[key] = v
            else:
                del new[key]
        if len(new) > FULTON_TERM_BUDGET:
            raise BudgetExceeded(
                f"Fulton's reduction passed {FULTON_TERM_BUDGET} terms; "
                "no verdict within the term budget"
            )
        g = gcd(*new.values()) if new else 1
        Q = {m: c // g for m, c in new.items()} if g > 1 else new
