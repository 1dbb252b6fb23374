"""Command-line front end.

Verbs:

    construct     build and certify one family member, emit the JSON certificate
    certify       classify a user-supplied polynomial germ at the origin
    milnor        Milnor number of a polynomial germ at the origin
    bound         the degree bound, single value or table
    family-table  constructed k versus the bound, normalized by d^2

Exit codes: 0 success / certified; 1 well-formed input whose certification
or classification did not succeed; 2 usage or input errors.

Each verb imports only the modules it runs, besides this one and `errors`:

    construct     family, series, _xseries, poly, bounds
                  (--milnor adds milnor, _modp, _exactrank)
    certify       poly, classify, _xseries
    milnor        poly, milnor, _modp, _exactrank
    bound         bounds
    family-table  family, series, _xseries, poly, bounds

A verb reads each entry point it calls (`parse_poly`, `certify_member`, ...)
as an attribute of this module.  A value set here, such as a test's spy, is
what the verb calls; otherwise the name resolves through the lazy `akforge`
namespace, whose one table imports the defining module on first use.
"""

from __future__ import annotations

import argparse
import json
import sys

import akforge
from akforge.errors import (
    AkforgeError,
    BudgetExceeded,
    CertificationFailed,
    InvalidInput,
    PolySyntaxError,
    require_int,
)

__all__ = ["main", "build_parser"]


def __getattr__(name: str):
    # Only public names: the package's own dunders, such as __path__, stay its own.
    if name not in akforge.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(akforge, name)


def _entry(name: str):
    """The value set on this module for `name` if there is one, else the package's."""
    namespace = globals()
    return namespace[name] if name in namespace else getattr(akforge, name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akforge",
        description="Exact construction and certification of A_k points on plane curves.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_construct = sub.add_parser("construct", help="build and certify one family member")
    p_construct.set_defaults(run=_run_construct)
    p_construct.add_argument("--s", type=int, required=True, metavar="N")
    p_construct.add_argument(
        "--milnor",
        action="store_true",
        help="also cross-check k with Fulton's Milnor-number oracle",
    )
    p_construct.add_argument("--out", metavar="FILE", default=None)

    p_certify = sub.add_parser("certify", help="classify a polynomial germ at the origin")
    p_certify.set_defaults(run=_run_certify)
    p_certify.add_argument("--poly", required=True, metavar="SRC")
    p_certify.add_argument(
        "--max-k",
        type=int,
        metavar="CAP",
        help=(
            "optional budget: report Undetermined when the vanishing order "
            "k+1 exceeds CAP (without it the search stops at the degree's "
            "Bezout bound)"
        ),
    )

    p_milnor = sub.add_parser("milnor", help="Milnor number at the origin")
    p_milnor.set_defaults(run=_run_milnor)
    p_milnor.add_argument("--poly", required=True, metavar="SRC")
    p_milnor.add_argument(
        "--modular",
        action="store_true",
        help=(
            "use the resultant oracle modulo seeded primes (AKFORGE_PRIME_SEED), two "
            "if they agree, else up to the proof bound, instead of Fulton's algorithm"
        ),
    )

    p_bound = sub.add_parser("bound", help="degree bound for A_k points")
    p_bound.set_defaults(run=_run_bound)
    which = p_bound.add_mutually_exclusive_group(required=True)
    which.add_argument("--d", type=int, metavar="N")
    which.add_argument("--table", action="store_true")
    p_bound.add_argument("--max-d", type=int, metavar="N", default=None)

    p_table = sub.add_parser("family-table", help="constructed k versus the bound")
    p_table.set_defaults(run=_run_family_table)
    p_table.add_argument("--max-s", type=int, required=True, metavar="N")
    p_table.add_argument("--csv", action="store_true")

    return parser


def _load_poly(src: str):
    if src.startswith("@"):
        with open(src[1:], "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except RecursionError:
                raise InvalidInput(f"{src[1:]}: JSON nested too deeply to read") from None
        return _entry("SparsePoly").from_json_dict(data)
    return _entry("parse_poly")(src)


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _run_construct(args, parser: argparse.ArgumentParser) -> int:
    cert = _entry("certify_member")(args.s, with_milnor=args.milnor)
    _emit(_dump(cert.to_json_dict()), args.out)
    return 0


def _run_certify(args, parser: argparse.ArgumentParser) -> int:
    result = _entry("split_and_classify")(_load_poly(args.poly), cap=args.max_k)
    sys.stdout.write(_dump(result._asdict()))
    return 1 if result.kind == "Undetermined" else 0


def _run_milnor(args, parser: argparse.ArgumentParser) -> int:
    f = _load_poly(args.poly)
    if args.modular:
        report = _entry("milnor_resultant")(f, arithmetic="modular")
    else:
        # Fulton's algorithm first; past its term budget, the exact local algebra.
        try:
            report = _entry("milnor_fulton")(f)
        except BudgetExceeded:
            report = _entry("milnor_number")(f)
    sys.stdout.write(_dump(report._asdict()))
    return 0


def _run_bound(args, parser: argparse.ArgumentParser) -> int:
    upper_bound = _entry("upper_bound")
    if args.table:
        if args.max_d is None:
            parser.error("bound --table requires --max-d")
        require_int(args.max_d, "--max-d", 1)
        lines = ["d,upper"]
        for d in range(1, args.max_d + 1):
            lines.append(f"{d},{upper_bound(d)}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        if args.max_d is not None:
            parser.error("--max-d only applies with --table")
        sys.stdout.write(f"{upper_bound(args.d)}\n")
    return 0


def _run_family_table(args, parser: argparse.ArgumentParser) -> int:
    rows = _entry("ratio_table")(args.max_s)
    if args.csv:
        sys.stdout.write(_entry("ratio_table_csv")(rows))
    else:
        sys.stdout.write(_dump(_entry("ratio_table_json")(rows)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args, parser)
    except SystemExit as exc:
        # --help, a usage error, or parser.error inside a verb handler
        return int(exc.code or 0)
    except CertificationFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        cert = exc.certificate
        if cert is not None:
            for monomial, coeff in cert.newton.violations:
                sys.stderr.write(
                    f"violation: coefficient {coeff} at "
                    f"x^{monomial.ex} z^{monomial.ey}\n"
                )
        return 1
    except (PolySyntaxError, InvalidInput, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AkforgeError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
