"""Command-line front end.

Verbs:

    construct     build and certify one family member, emit the JSON certificate
    certify       classify a user-supplied polynomial germ at the origin
    milnor        Milnor number of a polynomial germ at the origin
    bound         the degree bound, single value or table
    family-table  constructed k versus the bound, normalized by d^2

Exit codes: 0 success / certified; 1 well-formed input whose certification
or classification did not succeed; 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from akforge.bounds import (
    ratio_table,
    ratio_table_csv,
    ratio_table_json,
    upper_bound,
)
from akforge.classify import split_and_classify
from akforge.errors import (
    AkforgeError,
    BudgetExceeded,
    CertificationFailed,
    InvalidInput,
    PolySyntaxError,
    require_int,
)
from akforge.family import certify_member
from akforge.milnor import milnor_fulton, milnor_number, milnor_resultant
from akforge.poly import SparsePoly, parse_poly

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="akforge",
        description="Exact construction and certification of A_k points on plane curves.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p_construct = sub.add_parser(
        "construct", help="build and certify one family member"
    )
    p_construct.add_argument("--s", type=int, required=True, metavar="N")
    p_construct.add_argument(
        "--milnor",
        action="store_true",
        help="also cross-check k with Fulton's Milnor-number oracle",
    )
    p_construct.add_argument("--out", metavar="FILE", default=None)

    p_certify = sub.add_parser(
        "certify", help="classify a polynomial germ at the origin"
    )
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
    which = p_bound.add_mutually_exclusive_group(required=True)
    which.add_argument("--d", type=int, metavar="N")
    which.add_argument("--table", action="store_true")
    p_bound.add_argument("--max-d", type=int, metavar="N", default=None)

    p_table = sub.add_parser(
        "family-table", help="constructed k versus the bound"
    )
    p_table.add_argument("--max-s", type=int, required=True, metavar="N")
    p_table.add_argument("--csv", action="store_true")

    return parser


def _load_poly(src: str) -> SparsePoly:
    if src.startswith("@"):
        with open(src[1:], "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except RecursionError:
                raise InvalidInput(f"{src[1:]}: JSON nested too deeply to read") from None
        return SparsePoly.from_json_dict(data)
    return parse_poly(src)


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _run_construct(args) -> int:
    cert = certify_member(args.s, with_milnor=args.milnor)
    _emit(_dump(cert.to_json_dict()), args.out)
    return 0


def _run_certify(args) -> int:
    result = split_and_classify(_load_poly(args.poly), cap=args.max_k)
    sys.stdout.write(
        _dump({"kind": result.kind, "k": result.k, "cap": result.cap})
    )
    return 1 if result.kind == "Undetermined" else 0


def _run_milnor(args) -> int:
    f = _load_poly(args.poly)
    if args.modular:
        report = milnor_resultant(f, arithmetic="modular")
    else:
        # Fulton's algorithm first; past its term budget, the exact local algebra.
        try:
            report = milnor_fulton(f)
        except BudgetExceeded:
            report = milnor_number(f)
    sys.stdout.write(
        _dump(
            {
                "mu": report.mu,
                "method": report.method,
                "stabilized_at": report.stabilized_at,
                "arithmetic": report.arithmetic,
            }
        )
    )
    return 0


def _run_bound(args, parser: argparse.ArgumentParser) -> int:
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


def _run_family_table(args) -> int:
    rows = ratio_table(args.max_s)
    if args.csv:
        sys.stdout.write(ratio_table_csv(rows))
    else:
        sys.stdout.write(_dump(ratio_table_json(rows)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.verb == "construct":
            return _run_construct(args)
        if args.verb == "certify":
            return _run_certify(args)
        if args.verb == "milnor":
            return _run_milnor(args)
        if args.verb == "bound":
            return _run_bound(args, parser)
        return _run_family_table(args)
    except SystemExit as exc:
        # parser.error inside a verb handler
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
