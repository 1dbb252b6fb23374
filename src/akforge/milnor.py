"""Milnor-number oracles for isolated plane-curve singularities.

Three independent methods are provided so results can be cross-checked
without trusting a single code path.

Truncated local algebra: D(M) is the codimension of the span of truncated
multiples of the two partial derivatives inside polynomials of total degree
below M.  D is non-decreasing in M, and one consecutive equality
D(M+1) = D(M) pins the value exactly: it forces the M-th power of the
maximal ideal into the Jacobian ideal, after which nothing new can appear.
Every rank is computed by exact sparse elimination over the integers, on
the truncated multiples of f_y and those of f_x whose multiplier the leading
term of f_y does not divide: the Koszul syzygy f_y*f_x = f_x*f_y puts the
others in the span of the rest, so no D(M) changes (_relation_rows).

Resultant valuation: after an origin-fixing shear that pushes all other
critical points off the line x = 0, the Milnor number at the origin is the
order of vanishing in x of the resultant of the two partials with respect
to y.  Each shear shifts f's integer terms, and its partials are kept as
y-layers {j: {i: c}}, the form every later step reads, the integer Euclid
on their restrictions to x = 0 that admits the shear included.  There is one
engine, at one prime p: evaluation at one run of consecutive sample points
mod p, a division-free batched Euclid, and interpolation by forward
differences.  One loop runs it over the seeded primes, once each: the
modular path stops at the first two where they agree and reports their
agreement; the exact path goes on until a bound on the coefficients of
Res_y proves the valuation (the classic modular resultant of Collins and
Brown, JACM 18, 1971).

Fulton's algorithm: the Milnor number is the intersection multiplicity
I_0(f_x, f_y), reduced step by step with the rules that define it
(Fulton, *Algebraic Curves*, section 3.3) in exact integer arithmetic.  It
needs no truncation, shear or sample point, but its polynomials can grow on
dense germs, so it stops at a fixed term budget.

numpy is imported only inside the resultant's engine, by either
arithmetic, so importing this module does not load it.
"""

from __future__ import annotations

from bisect import bisect_left
from math import gcd, lcm
from typing import NamedTuple

from ._exactrank import rank_profile_sparse
from ._modp import eval_x_batch, interpolate_monomial, resultant_batch
from ._modp import seeded_primes
# Unused here; kept because perfbench/spans.py patches milnor.det_bareiss and
# milnor.rank_profile_mod_p by name.
from ._exactrank import det_bareiss  # noqa: F401
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

TRUNCATED_METHOD = "truncated-local-algebra"
RESULTANT_METHOD = "resultant"
FULTON_METHOD = "fulton"

# Above this degree bound for the interpolated resultant, "auto" takes the
# two-prime modular path instead of the exact one.
_EXACT_RESULTANT_LIMIT = 300

# The shears t of (x, y) -> (x + t*y, y) that milnor_resultant tries, in order.
_SHEARS = (0, 50, 98, 54, 6, 34, 66, 63)

# Most terms either polynomial of Fulton's reduction may reach.  On F(s) the
# reduction peaks at 46 terms; on dense random germs it can pass 10,000 and
# run for seconds.  At this cap, each seed-101 benchmark germ that passes it
# is stopped within 25 ms.
FULTON_TERM_BUDGET = 500


class MilnorReport(NamedTuple):
    mu: int
    method: str
    stabilized_at: int
    arithmetic: str


def _integer_terms(p: SparsePoly) -> dict[tuple[int, int], int]:
    """{(i, j): c} for the terms c*x^i*y^j of p times the lcm of its denominators."""
    den = lcm(*(c.denominator for _, c in p.terms()))
    return {(m.ex, m.ey): c.numerator * (den // c.denominator) for m, c in p.terms()}


def _partials(F: dict[tuple[int, int], int]) -> tuple[dict, dict]:
    """The partials d/dx and d/dy of the integer terms F, as integer terms."""
    fx = {(i - 1, j): i * c for (i, j), c in F.items() if i}
    return fx, {(i, j - 1): j * c for (i, j), c in F.items() if j}


def _shear(F: dict[tuple[int, int], int], t: int) -> dict[tuple[int, int], int]:
    """F(x + t*y, y) for integer terms F: c*x^i*y^j gives c*C(i, a)*t^(i-a) at
    x^a*y^(j+i-a), for a = i down to 0 by C(i, a-1)*t = C(i, a)*a*t/(i-a+1)."""
    out: dict[tuple[int, int], int] = {}
    for (i, j), c in F.items():
        for a in range(i, -1, -1):
            out[a, j + i - a] = out.get((a, j + i - a), 0) + c
            c = c * a * t // (i - a + 1)
    return {m: c for m, c in out.items() if c}


def _col_index(i: int, j: int) -> int:
    # Monomials ordered by total degree, then by x-exponent within a degree.
    deg = i + j
    return deg * (deg + 1) // 2 + i


def _relation_rows(fx: dict, fy: dict, m_top: int) -> list[dict[int, int]]:
    """Rows spanning {monomial * partial, truncated below degree m_top}.

    Every row trunc(u*fy) is emitted, and every row trunc(u*fx) except those
    whose multiplier u is divisible by n0, the leading term of fy in the
    local order: least total degree first, ties broken by the larger
    x-exponent.  The dropped rows lie in the span of the kept ones (the
    Koszul syzygy fy*fx - fx*fy = 0, the redundancy that Faugere's F5
    criterion removes from Macaulay matrices), so the row space, its pivot
    columns and every D(m) read from them are those of all the rows.

    Proof.  Write fx = sum_i a_i*m_i and fy = sum_j b_j*n_j over distinct
    monomials, with n_0 = n0.  The order is compatible with products: n_j
    after n0 gives n_j*w after n0*w.  For every monomial w,
    sum_i a_i*m_i*w*fy = sum_j b_j*n_j*w*fx, and truncation below m_top is
    linear, so
        b_0*trunc(n0*w*fx) = sum_i a_i*trunc(m_i*w*fy)
                             - sum_{j>0} b_j*trunc(n_j*w*fx).
    Each trunc(m_i*w*fy) is an emitted row or zero: a multiplier of degree
    m_top - ord(fy) or more puts every term at degree m_top or more.  Each
    trunc(n_j*w*fx) has a multiplier after n0*w in the order; it is zero, a
    kept row, or a dropped one.  The nonzero rows are finitely many, so by
    induction from the last multiplier in the order down, every dropped row
    is a rational combination of kept rows.  The elimination stays exact.
    """
    n0 = min(fy, key=lambda t: (t[0] + t[1], -t[0]), default=None)
    rows: list[dict[int, int]] = []
    for terms, skip in ((fx, n0), (fy, None)):
        if not terms:
            continue
        og = min(tx + ty for tx, ty in terms)
        for du in range(m_top - og):
            for a in range(du + 1):
                b = du - a
                if skip is not None and a >= skip[0] and b >= skip[1]:
                    continue
                row = {}
                for (tx, ty), c in terms.items():
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


def _dimension_profile(fx: dict, fy: dict, m_top: int) -> list[int]:
    """D(m) for all m <= m_top, by exact sparse elimination."""
    rows = _relation_rows(fx, fy, m_top)
    return _profile_to_dims(rank_profile_sparse(rows, m_top * (m_top + 1) // 2), m_top)


def _require_no_constant(f: SparsePoly) -> None:
    if f.coefficient(0, 0) != 0:
        raise PreconditionViolated("the germ must vanish at the origin")


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

    Each rung eliminates the rows of _relation_rows, which leaves out the
    multiples of f_x that the Koszul syzygy makes redundant: on F(0) at the
    rung 45, 1,031 rows instead of 1,851, with the same 993 pivots.  The
    elimination is always exact.  ``arithmetic`` may be "exact" or
    "modular"; both run the same exact elimination and report "exact".
    """
    if arithmetic not in ("exact", "modular"):
        raise InvalidInput(f"unknown arithmetic {arithmetic!r}")
    if expected is not None:
        require_int(expected, "expected", 0)
    _require_no_constant(f)
    bezout = (f.total_degree - 1) ** 2
    top = max(bezout + 1, 2)
    fx, fy = _partials(_integer_terms(f))
    first = expected + 3 if expected is not None else f.order() + 1
    m_run = min(max(first, 2), top)
    while True:
        dims = _dimension_profile(fx, fy, m_run)
        if any(a > b for a, b in zip(dims, dims[1:])):
            raise AssertionError(f"D(m) must be non-decreasing, got {dims}")
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


def _y_layers(terms: dict[tuple[int, int], int]) -> dict[int, dict[int, int]]:
    """The same terms as y-layers {j: {i: c}}."""
    layers: dict[int, dict[int, int]] = {}
    for (i, j), c in terms.items():
        layers.setdefault(j, {})[i] = c
    return layers


def _degrees(terms: dict[tuple[int, int], int]) -> tuple[int, int, int]:
    """x-degree, y-degree and total degree of nonzero integer terms."""
    return max(i for i, _ in terms), max(j for _, j in terms), max(i + j for i, j in terms)


def _admissible(P, Q) -> bool:
    """Whether the shear whose partials f_x, f_y have the y-layers P, Q is
    admissible: f_y is not 0, a partial of positive y-degree keeps that
    degree at x = 0, and p(0, y), q(0, y) share no root but y = 0.

    For the last, y divides neither restriction once its power of y is
    divided out, so their gcd is a monomial exactly when the gcd of what is
    left is a nonzero constant; a zero restriction leaves the other.  Euclid
    decides it in integers by pseudo-remainders,
    a <- lc(b)*a - lead(a)*y^(deg a - deg b)*b, dividing out the content.
    """
    if not Q or any(max(L) and 0 not in L[max(L)] for L in (P, Q)):
        return False
    a, b = ([L.get(j, {}).get(0, 0) for j in range(max(L) + 1)] for L in (P, Q))
    a, b = (r[next((j for j, c in enumerate(r) if c), len(r)):] for r in (a, b))
    while b:
        while len(a) >= len(b):
            lead, shift = a[-1], len(a) - len(b)
            a = [b[-1] * c for c in a]
            for i, c in enumerate(b, shift):
                a[i] -= lead * c
            while a and not a[-1]:
                a.pop()
            g = gcd(*a)
            a = [c // g for c in a]
        a, b = b, a
    return len(a) == 1


def _sample_points(P, Q, count: int, p: int) -> list[int]:
    """The first run of ``count`` consecutive integers t >= 1 at which no
    leading y-coefficient of the y-layers P or Q vanishes mod p.

    A partial of y-degree 0 is its own leading coefficient.  Each value is
    read from powers of t mod p.  A point where one vanishes starts the run
    afresh after it, so where the first ``count`` integers all qualify they
    are the run.  With r roots mod p in all, at most r + 1 gaps lie between
    them, so a run is complete by t = (r + 1) * count, and r is at most the
    sum of the x-degrees of the leading coefficients unless one vanishes
    identically mod p.  A run that cannot end by then, or below p as
    interpolate_monomial requires, raises ValueError at once.
    """
    lcs = [[(i, c % p) for i, c in L[max(L)].items()] for L in (P, Q)]
    last = min(p - 1, (sum(max(L[max(L)]) for L in (P, Q)) + 1) * count)
    pts: list[int] = []
    t = 1
    while len(pts) < count:
        if t + count - len(pts) - 1 > last:
            raise ValueError(f"no run of {count} sample points mod p = {p} by t = {last}")
        if all(sum(c * pow(t, i, p) for i, c in lc) % p for lc in lcs):
            pts.append(t)
        else:
            pts.clear()
        t += 1
    return pts


def _modular_valuation(P, Q, count: int, p: int) -> int | None:
    """x-valuation of the interpolant of Res_y(P, Q) mod p through ``count`` points.

    eval_x_batch reads the y-layers P and Q term by term, as they are."""
    import numpy as np

    pts = np.array(_sample_points(P, Q, count, p), dtype=np.int64)
    values = resultant_batch(eval_x_batch(P, pts, p), eval_x_batch(Q, pts, p), p)
    nz = np.nonzero(interpolate_monomial(pts, values, p))[0]
    return int(nz[0]) if nz.size else None


def _resultant_valuation(P, Q, count: int, modular: bool) -> tuple[int | None, str]:
    """x-valuation of Res_y(P, Q) in Z[x], or None where Res_y(P, Q) = 0,
    and its arithmetic label: the least _modular_valuation over the seeded
    primes, computed once at each.

    Every coefficient of Res_y(P, Q) is at most B = ||P||_1^qy * ||Q||_1^py
    in absolute value, with ||.||_1 the sum of the absolute values of the
    coefficients and py, qy the y-degrees: expand the Sylvester determinant
    row by row, qy rows holding the y-coefficients of P and py those of Q.
    So B < 2^bits.  A prime that divides a leading y-coefficient outright
    leaves no sample point, so it is skipped.  Mod any other prime, the
    sample points keep both y-degrees, so the interpolant through
    ``count`` > deg_x Res_y points is Res_y(P, Q) mod p, and its valuation
    is at least the true one, v.  Once the admitted primes multiply past
    2^bits, the nonzero coefficient at x^v survives mod one of them, so v
    is the least valuation seen; and if all give the zero interpolant,
    every coefficient is a multiple of a number above B, so Res_y(P, Q) = 0.
    That answer is labelled "exact".

    With ``modular``, the loop stops after the second seeded prime where
    the first two seeded primes were both admitted and agree (None == None
    included), and labels the answer two-prime-modular(p1,p2): agreement,
    not proof.  Otherwise it goes on to the bound as above, but never stops
    before the second seeded prime has been tried.
    """
    norm_p, norm_q = (sum(abs(c) for row in L.values() for c in row.values()) for L in (P, Q))
    bits = max(Q) * norm_p.bit_length() + max(P) * norm_q.bit_length()
    seen: list[tuple[int, int | None]] = []  # (p, valuation) at each admitted prime
    product = 1
    for tried, p in enumerate(seeded_primes(), 1):
        if all(any(c % p for c in L[max(L)].values()) for L in (P, Q)):
            seen.append((p, _modular_valuation(P, Q, count, p)))
            product *= p
        if modular and tried == 2 and len(seen) == 2 and seen[0][1] == seen[1][1]:
            return seen[0][1], "two-prime-modular({},{})".format(seen[0][0], seen[1][0])
        if product >> bits and not (modular and tried < 2):
            return min((v for _, v in seen if v is not None), default=None), "exact"


def milnor_resultant(f: SparsePoly, *, arithmetic: str = "auto") -> MilnorReport:
    """Milnor number as the x-valuation of Res_y of the two partials.

    A partial with a nonzero constant term makes the origin a smooth point,
    so mu = 0 is reported, exactly, before any shear.  Otherwise it tries
    the shears (x, y) -> (x + t*y, y) for t in _SHEARS, the identity
    first, until the genericity conditions hold: other critical points stay
    off the line x = 0 and neither partial drops y-degree there.  Past the
    last shear it raises GenericityFailure, with no answer rather than a
    wrong one.  That happens on some non-isolated germs such as (y - x^2)^2,
    and on isolated germs whose partials share a factor away from the
    origin: on (2 + y)^3*(y^2 - x^4), mu = 3, every shear keeps the common
    factor 2 + y, which meets x = 0 at y = -2.  Fulton's algorithm and the
    local algebra answer there.

    f is read once as integer terms, which each shear shifts; _admissible
    tests the conditions on them by integer pseudo-remainders.  The sample
    points avoid the zeros mod p of the leading y-coefficient of every
    partial, y-degree 0 included, where the whole partial is that
    coefficient; so the Euclidean recurrence mod p sees the full y-degrees
    at every point, and a partial of y-degree 0 needs no special case: its
    resultant with one of y-degree q is its q-th power.  They are one run
    of consecutive integers (the first such run from 1), so the
    interpolation takes forward differences and needs no inverse of a gap.

    Both arithmetics run one loop over the seeded primes,
    _resultant_valuation, with one engine, _modular_valuation, at each.
    "modular" reports two-prime-modular(p1,p2) where the first two seeded
    primes agree; a disagreement, or a prime that divides a leading
    y-coefficient outright, lets the loop go on as "exact" does, until the
    product of the primes proves the valuation.  AKFORGE_PRIME_SEED picks
    the primes but cannot change a proven answer.

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
    _require_no_constant(f)
    F = _integer_terms(f)
    X, Y = _partials(F)
    if (0, 0) in X or (0, 0) in Y:
        return MilnorReport(0, RESULTANT_METHOD, 0, "exact")
    if not X and not Y:
        raise NonIsolated("the gradient vanishes identically")
    if not X or not Y:
        raise NonIsolated("the critical locus contains a curve through the origin")
    for axis, var in enumerate("xy"):
        if all(m[axis] for m in X) and all(m[axis] for m in Y):
            raise NonIsolated(f"the {var} = 0 axis lies in the critical locus")

    for t in _SHEARS:
        X, Y = _partials(_shear(F, t))
        P, Q = _y_layers(X), _y_layers(Y)
        if not _admissible(P, Q):
            continue
        (mx, py, m), (nx, qy, n) = _degrees(X), _degrees(Y)
        bound = qy * mx + py * nx
        count = min(bound, qy * m + py * n - py * qy) + 1
        if arithmetic == "auto":
            arithmetic = "exact" if bound <= _EXACT_RESULTANT_LIMIT else "modular"
        val, label = _resultant_valuation(P, Q, count, arithmetic == "modular")
        if val is None:
            raise NonIsolated("the partials share a factor: resultant is identically zero")
        return MilnorReport(val, RESULTANT_METHOD, val, label)
    raise GenericityFailure(f"no admissible shear found in {len(_SHEARS)} attempts")


# -- Fulton's intersection-multiplicity oracle ------------------------------


def milnor_fulton(f: SparsePoly) -> MilnorReport:
    """Milnor number as I_0(f_x, f_y), by Fulton's algorithm.

    With P, Q the partials scaled to integer coefficients and
    P_0 = P(x, 0), Q_0 = Q(x, 0), each step applies one rule that leaves
    I_0(P, Q) unchanged or moves a known part of it into the total:

    - a nonzero constant term makes P or Q a unit at the origin, so the
      rest contributes 0 and the total is returned (checked first, so
      that ``x`` and ``x + y^2`` give 0);
    - if Q_0 = 0 then Q = y^e*D with D(x, 0) != 0, and
      I_0(P, Q) = e*ord_x P_0 + I_0(P, D) by additivity and
      I_0(P, y) = ord_x P_0, in one step;
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
    P, Q = _partials(_integer_terms(f))
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
            e = min(j for _, j in Q)
            mu += e * min(p0)
            if mu > bezout:
                raise NonIsolated(
                    f"the intersection multiplicity passed the Bezout bound "
                    f"mu <= (d-1)^2 = {bezout}: the singularity is not isolated"
                )
            Q = {(i, j - e): c for (i, j), c in Q.items()}
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
