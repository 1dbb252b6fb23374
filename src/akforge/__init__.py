"""akforge: exact construction and certification of highly degenerate curve points.

The package builds a family of plane curves of degree 28s+9 whose single
singular point is of type A_k with k = 420s^2 + 269s + 42, certifies the
type with exact arithmetic (weighted series inversion plus a Newton-segment
check), cross-checks k with three independent Milnor-number oracles (the
truncated local algebra, the resultant valuation and Fulton's
intersection-multiplicity algorithm), and compares the construction against
the general degree bound k <= (d-1)^2 - floor(d/2)(floor(d/2) - 1).

Importing the package does not load numpy: only the resultant oracle's
modular path uses it, and imports it when it first runs.
"""

from __future__ import annotations

from akforge.bounds import (
    InertiaIndices,
    RatioRow,
    ratio_table,
    steenbrink_inertia,
    upper_bound,
)
from akforge.classify import (
    AkCertificate,
    AkResult,
    hessian_corank,
    newton_ak_certify,
    split_and_classify,
)
from akforge.errors import (
    AkforgeError,
    BudgetExceeded,
    CertificationFailed,
    GenericityFailure,
    IdentityViolation,
    InvalidInput,
    MismatchedContract,
    NegativeExponent,
    NonIsolated,
    NotACriticalGerm,
    PolySyntaxError,
    PreconditionViolated,
    WindowTooSmall,
)
from akforge.family import (
    CurveInstance,
    FamilyCertificate,
    FamilyParams,
    build_A,
    build_F,
    certify_member,
    family_params,
    verify_eq2,
)
from akforge.milnor import (
    MilnorReport,
    milnor_fulton,
    milnor_number,
    milnor_resultant,
)
from akforge.poly import Monomial, SparsePoly, parse_poly
from akforge.series import TruncatedSeries, Weights, compose_curve, invert_change

__version__ = "1.0.0"

__all__ = [
    "AkCertificate",
    "AkResult",
    "AkforgeError",
    "BudgetExceeded",
    "CertificationFailed",
    "CurveInstance",
    "FamilyCertificate",
    "FamilyParams",
    "GenericityFailure",
    "IdentityViolation",
    "InertiaIndices",
    "InvalidInput",
    "MilnorReport",
    "MismatchedContract",
    "Monomial",
    "NegativeExponent",
    "NonIsolated",
    "NotACriticalGerm",
    "PolySyntaxError",
    "PreconditionViolated",
    "RatioRow",
    "SparsePoly",
    "TruncatedSeries",
    "Weights",
    "WindowTooSmall",
    "build_A",
    "build_F",
    "certify_member",
    "compose_curve",
    "family_params",
    "hessian_corank",
    "invert_change",
    "milnor_fulton",
    "milnor_number",
    "milnor_resultant",
    "newton_ak_certify",
    "parse_poly",
    "ratio_table",
    "split_and_classify",
    "steenbrink_inertia",
    "upper_bound",
    "verify_eq2",
    "__version__",
]
