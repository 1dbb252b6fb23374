"""Degree bound for A_k points on plane curves and its inertia-count derivation.

For a curve of degree d the largest k admitting an A_k point satisfies

    k <= (d - 1)^2 - floor(d/2) * (floor(d/2) - 1).

`upper_bound` evaluates that closed form.  `steenbrink_inertia` re-derives
the same number as the negative inertia index of the intersection form of
the suspended homogeneous singularity x^d + y^d + z^2: each monomial basis
element x^a y^b (0 <= a, b <= d-2) contributes a spectral value

    l(a, b) = (a + 1)/d + (b + 1)/d + 1/2,

and the signature is read off by integrality and floor parity of l.  The
parity convention is calibrated on d = 2 (a single basis element with
l = 3/2, which must count as negative since the A_1 form in three
variables is negative definite).  With t = a + b + 2, l = (2t + d)/(2d),
so one integer divmod(2t + d, 2d) classifies a whole diagonal: l is
integral iff the remainder is 0, and floor(l) is the quotient.

`ratio_table` tabulates the constructed k of the curve family against the
bound, normalized by d^2; the constructed ratio climbs toward 15/28 while
the bound stays below 3/4.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from akforge.errors import InvalidInput, require_int

__all__ = [
    "InertiaIndices",
    "RatioRow",
    "upper_bound",
    "steenbrink_inertia",
    "ratio_table",
    "ratio_table_csv",
    "ratio_table_json",
    "render_decimal",
]


class _InertiaIndices(NamedTuple):
    d: int
    mu_plus: int
    mu_zero: int
    mu_minus: int


class InertiaIndices(_InertiaIndices):
    """Signature (mu_plus, mu_zero, mu_minus) of the intersection form."""

    __slots__ = ()

    def __new__(cls, d, mu_plus, mu_zero, mu_minus):
        total = (d - 1) ** 2
        if mu_plus + mu_zero + mu_minus != total:
            raise InvalidInput(
                f"inertia indices must sum to (d-1)^2 = {total}, got "
                f"{mu_plus + mu_zero + mu_minus}"
            )
        return super().__new__(cls, d, mu_plus, mu_zero, mu_minus)

    @property
    def total(self) -> int:
        return self.mu_plus + self.mu_zero + self.mu_minus


class _RatioRow(NamedTuple):
    s: int
    d: int
    k_constructed: int
    upper: int
    ratio_k: Fraction
    ratio_bound: Fraction


class RatioRow(_RatioRow):
    """One row of the asymptotic comparison table."""

    __slots__ = ()

    def __new__(cls, s, d, k_constructed, upper, ratio_k, ratio_bound):
        if k_constructed > upper:
            raise InvalidInput(
                f"constructed k = {k_constructed} exceeds the bound "
                f"{upper} at degree {d}"
            )
        return super().__new__(cls, s, d, k_constructed, upper, ratio_k, ratio_bound)


def upper_bound(d: int) -> int:
    """Largest k compatible with an A_k point on a degree-d curve.

    Normalized by d^2 the bound takes one form per parity of d, each
    strictly below 3/4:

        upper_bound(d)/d^2 = 3/4 - 3/(2d) + 1/d^2      (d even)
        upper_bound(d)/d^2 = 3/4 - 1/d + 1/(4d^2)      (d odd)
    """
    require_int(d, "degree", 1)
    half = d // 2
    return (d - 1) ** 2 - half * (half - 1)


def steenbrink_inertia(d: int) -> InertiaIndices:
    """Inertia indices of the intersection form of x^d + y^d + z^2."""
    require_int(d, "degree", 2)
    plus = zero = minus = 0
    # l(a, b) depends only on t = a + b + 2, so count each diagonal once.
    for t in range(2, 2 * d - 1):
        u = t - 2
        count = u + 1 if u <= d - 2 else 2 * d - 3 - u
        floor_l, rem = divmod(2 * t + d, 2 * d)
        if rem == 0:
            zero += count
        elif floor_l % 2 == 1:
            minus += count
        else:
            plus += count
    return InertiaIndices(d, plus, zero, minus)


def ratio_table(s_max: int) -> list[RatioRow]:
    """Rows comparing constructed k with the bound for s = 0..s_max."""
    # Imported here because the family module needs upper_bound at load time.
    from akforge.family import family_params

    require_int(s_max, "s_max", 0)
    rows = []
    for s in range(s_max + 1):
        params = family_params(s)
        upper = upper_bound(params.d)
        d2 = params.d * params.d
        rows.append(
            RatioRow(
                s=s,
                d=params.d,
                k_constructed=params.k,
                upper=upper,
                ratio_k=Fraction(params.k, d2),
                ratio_bound=Fraction(upper, d2),
            )
        )
    return rows


def render_decimal(value: Fraction) -> str:
    """Exact decimal rendering of a rational, rounded to six places."""
    scaled = round(value * 10**6)
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled), 10**6)
    return f"{sign}{whole}.{frac:06d}"


def ratio_table_csv(rows: list[RatioRow]) -> str:
    lines = ["s,d,k,upper,k_over_d2,upper_over_d2"]
    for row in rows:
        lines.append(
            f"{row.s},{row.d},{row.k_constructed},{row.upper},"
            f"{render_decimal(row.ratio_k)},{render_decimal(row.ratio_bound)}"
        )
    return "\n".join(lines) + "\n"


def ratio_table_json(rows: list[RatioRow]) -> list[dict]:
    out = []
    for row in rows:
        out.append(
            {
                "s": row.s,
                "d": row.d,
                "k": row.k_constructed,
                "upper": row.upper,
                "k_over_d2": f"{row.ratio_k.numerator}/{row.ratio_k.denominator}",
                "upper_over_d2": (
                    f"{row.ratio_bound.numerator}/{row.ratio_bound.denominator}"
                ),
                "k_over_d2_decimal": render_decimal(row.ratio_k),
                "upper_over_d2_decimal": render_decimal(row.ratio_bound),
            }
        )
    return out
