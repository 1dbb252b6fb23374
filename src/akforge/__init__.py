"""akforge: exact construction and certification of highly degenerate curve points.

The package builds a family of plane curves of degree 28s+9 whose origin
is a singular point of type A_k with k = 420s^2 + 269s + 42, certifies the
type with exact arithmetic (weighted series inversion plus a Newton-segment
check), cross-checks k with three independent Milnor-number oracles (the
truncated local algebra, the resultant valuation and Fulton's
intersection-multiplicity algorithm), and compares the construction against
the general degree bound k <= (d-1)^2 - floor(d/2)(floor(d/2) - 1).

Importing the package loads no submodule: each public name is imported
from its module when it is first used, so a CLI verb loads only the modules
it runs.  Nothing loads numpy or inspect: the records are NamedTuples, and
the resultant oracle imports numpy when it first runs.
"""

from __future__ import annotations

import sys

# Public name -> the submodule that defines it.  A name is imported on first
# use (PEP 562), so `import akforge` loads no submodule.  The CLI reads its
# entry points through this table too.
_SOURCES = {
    "akforge.bounds": (
        "InertiaIndices",
        "RatioRow",
        "ratio_table",
        "ratio_table_csv",
        "ratio_table_json",
        "steenbrink_inertia",
        "upper_bound",
    ),
    "akforge.classify": ("AkResult", "hessian_corank", "split_and_classify"),
    "akforge.errors": (
        "AkforgeError",
        "BudgetExceeded",
        "CertificationFailed",
        "GenericityFailure",
        "IdentityViolation",
        "InvalidInput",
        "MismatchedContract",
        "NegativeExponent",
        "NonIsolated",
        "NotACriticalGerm",
        "PolySyntaxError",
        "PreconditionViolated",
        "WindowTooSmall",
    ),
    "akforge.family": (
        "CurveInstance",
        "FamilyCertificate",
        "FamilyParams",
        "build_A",
        "build_F",
        "certify_member",
        "family_params",
        "verify_eq2",
    ),
    "akforge.milnor": (
        "MilnorReport",
        "milnor_fulton",
        "milnor_number",
        "milnor_resultant",
    ),
    "akforge.poly": ("Monomial", "SparsePoly", "parse_poly"),
    "akforge.series": (
        "AkCertificate",
        "TruncatedSeries",
        "Weights",
        "compose_curve",
        "invert_change",
        "newton_ak_certify",
    ),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(module)  # the import statement's path, so -X importtime shows it
    value = getattr(sys.modules[module], name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__version__ = "1.0.0"

__all__ = [*sorted(_MODULE_OF), "__version__"]
