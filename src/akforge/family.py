"""Curve family with one highly degenerate point, and its certification.

For each s >= 0 set l = 3s+1, m = 7s+2.  The degree d = 28s+9 curve

    F(x, y) = y^2 - 2*y*A(x, y) + x^(8l) + 4*x^(7l)*y^m,
    A(x, y) = x^(4l) + 2*x^(3l)*y^m - 2*x^(2l)*y^(2m) + 4*x^l*y^(3m) - 10*y^(4m),

has an A_k point at the origin with k = 420s^2 + 269s + 42.  The proof is
effective and `certify_member` replays it with exact arithmetic:

1. completing the square gives F = (y - A)^2 + R with a short residual R
   (checked exactly by `verify_eq2`);
2. the change z = y - A is inverted as a weighted series y(x, z);
3. substituting back yields z^2 + 56*x^(k+1) + (terms strictly above the
   Newton segment), which the certifier checks term by term;
4. optionally an independent Milnor-number oracle, Fulton's algorithm for
   I_0(F_x, F_y), re-derives k.
"""

from __future__ import annotations

from typing import NamedTuple

from akforge.bounds import upper_bound
from akforge.classify import AkCertificate, newton_ak_certify
from akforge.errors import CertificationFailed, IdentityViolation, InvalidInput, require_int
from akforge.milnor import MilnorReport, milnor_fulton
from akforge.poly import SparsePoly, format_rational
from akforge.series import TruncatedSeries, Weights, compose_curve, invert_change

__all__ = [
    "FamilyParams",
    "CurveInstance",
    "FamilyCertificate",
    "family_params",
    "build_A",
    "build_F",
    "verify_eq2",
    "certify_member",
]


class FamilyParams(NamedTuple):
    """Exponent data of one family member."""

    s: int
    l: int
    m: int
    d: int
    k: int


class CurveInstance(NamedTuple):
    """One family member: parameters plus the defining polynomials."""

    params: FamilyParams
    F: SparsePoly
    A: SparsePoly


class FamilyCertificate(NamedTuple):
    """Aggregated evidence that member s carries an A_k point."""

    params: FamilyParams
    weights: Weights
    cutoff: int
    newton: AkCertificate
    window: SparsePoly
    milnor: MilnorReport | None
    bound_upper: int

    @property
    def certified(self) -> bool:
        return (
            self.newton.certified
            and self.params.k <= self.bound_upper
            and (self.milnor is None or self.milnor.mu == self.params.k)
        )

    def to_json_dict(self) -> dict:
        p = self.params
        milnor = None
        if self.milnor is not None:
            milnor = {
                "value": self.milnor.mu,
                "method": self.milnor.method,
                "stabilized_at": self.milnor.stabilized_at,
                "arithmetic": self.milnor.arithmetic,
            }
        return {
            "family": {"s": p.s, "l": p.l, "m": p.m, "d": p.d, "k": p.k},
            "eq2_identity": "ok",
            "inversion": {
                "weights": [self.weights.wx, self.weights.wz],
                "cutoff": self.cutoff,
            },
            "newton_certificate": {
                "k": self.newton.k,
                "coeff_z2": format_rational(self.newton.coeff_z2),
                "coeff_x_k_plus_1": format_rational(self.newton.coeff_xk1),
                "violations": [
                    {"e": [m.ex, m.ey], "c": format_rational(c)}
                    for m, c in self.newton.violations
                ],
            },
            "window_terms": self.window.to_json_dict(var_names=("x", "z"))["terms"],
            "milnor": milnor,
            "bound": {
                "d": p.d,
                "upper": self.bound_upper,
                "satisfied": p.k <= self.bound_upper,
            },
        }


# The family index s must be below this.  Certifying member s takes time
# about quadratic in the digits of s: on a 2-core machine `akforge construct
# --s` takes 0.5 s with 100 digits and 42 s with 2,000, and without a bound
# only Python's 4,300-digit limit on reading an int would stop it.
FAMILY_INDEX_LIMIT = 10**100


def family_params(s: int) -> FamilyParams:
    """Exponents (l, m), degree d, and target k for member s."""
    require_int(s, "family index", 0)
    if s >= FAMILY_INDEX_LIMIT:
        raise InvalidInput("family index must be below 10^100")
    l = 3 * s + 1
    m = 7 * s + 2
    d = 28 * s + 9
    k = 420 * s * s + 269 * s + 42
    if not (d == 4 * m + 1 == 7 * l + m and k + 1 == l * (20 * m + 3)):
        raise AssertionError(f"the family parameters of s = {s} break their identities")
    return FamilyParams(s=s, l=l, m=m, d=d, k=k)


def build_A(s: int) -> SparsePoly:
    """The five-term polynomial A used to complete the square."""
    p = family_params(s)
    return SparsePoly(
        [
            ((4 * p.l, 0), 1),
            ((3 * p.l, p.m), 2),
            ((2 * p.l, 2 * p.m), -2),
            ((p.l, 3 * p.m), 4),
            ((0, 4 * p.m), -10),
        ]
    )


def build_F(s: int) -> CurveInstance:
    """The degree 28s+9 member, assembled from its defining formula."""
    p = family_params(s)
    A = build_A(s)
    y = SparsePoly.variable("y")
    F = (
        y * y
        - y.scale(2) * A
        + SparsePoly.term(8 * p.l, 0, 1)
        + SparsePoly.term(7 * p.l, p.m, 4)
    )
    inst = CurveInstance(params=p, F=F, A=A)
    if F.total_degree != p.d:
        raise IdentityViolation(
            f"member {s} has total degree {F.total_degree}, expected {p.d}"
        )
    return inst


def expected_residual(p: FamilyParams) -> SparsePoly:
    """The four-term residual left after completing the square."""
    return SparsePoly(
        [
            ((3 * p.l, 5 * p.m), 56),
            ((2 * p.l, 6 * p.m), -56),
            ((p.l, 7 * p.m), 80),
            ((0, 8 * p.m), -100),
        ]
    )


def verify_eq2(inst: CurveInstance) -> SparsePoly:
    """Check F - (y - A)^2 against the closed-form residual, exactly."""
    y = SparsePoly.variable("y")
    shifted = y - inst.A
    residual = inst.F - shifted * shifted
    expected = expected_residual(inst.params)
    difference = residual - expected
    if not difference.is_zero:
        raise IdentityViolation(
            "completing the square left an unexpected residual; difference = "
            + difference.to_text(),
            difference=difference,
        )
    return residual


def certify_member(s: int, *, with_milnor: bool = False) -> FamilyCertificate:
    """Full certification pipeline for member s."""
    inst = build_F(s)
    p = inst.params
    verify_eq2(inst)

    weights = Weights(2, p.k + 1)
    cutoff = 2 * (p.k + 1)
    y_series = invert_change(inst.A, weights, cutoff)
    window = compose_curve(inst.F, y_series)
    newton = newton_ak_certify(window, p.k)

    milnor = milnor_fulton(inst.F) if with_milnor else None

    bound = upper_bound(p.d)
    cert = FamilyCertificate(
        params=p,
        weights=weights,
        cutoff=cutoff,
        newton=newton,
        window=window.body,
        milnor=milnor,
        bound_upper=bound,
    )
    if not newton.certified:
        raise CertificationFailed(
            f"member {s}: Newton-segment check rejected the claimed k = {p.k}",
            certificate=cert,
        )
    if p.k > bound:
        raise CertificationFailed(
            f"member {s}: k = {p.k} exceeds the degree bound {bound}",
            certificate=cert,
        )
    if milnor is not None and milnor.mu != p.k:
        raise CertificationFailed(
            f"member {s}: Milnor oracle returned {milnor.mu}, expected {p.k}",
            certificate=cert,
        )
    return cert
