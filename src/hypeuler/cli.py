"""Command-line interface.

Three subcommands:

* ``series``: the equivariant generating function up to a given number of
  marked points, in the power-sum or Schur basis, as text, JSON or CSV;
* ``euler``: the table of integer Euler characteristics chi(H_{g,n});
* ``verify``: the exact cross-validation battery over a genus range and a
  point depth (its other ranges are fixed); each check prints one line,
  PASS with the range it covered or FAIL with its first counterexample.

Output is deterministic: terms are emitted in a fixed canonical order and
rationals render as ``p/q`` (or a bare integer).  ``series`` and ``euler``
build their whole output as one string and write it once, so a request
that fails writes nothing to stdout; ``series``'s JSON is emitted
directly, byte for byte what ``json.dumps(doc, indent=2)`` gives for the
same document.  Data goes to stdout, diagnostics to stderr.  Exit codes: 0
on success, 1 when verification fails, 2 on usage or domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Sequence

from .hyperelliptic_core import chi_pointed, equivariant_series
from .schur_transform import format_partition, p_to_schur, sign_twist
from .symfunc_series import TSeries, format_monomial
from .verify import run_battery

__all__ = ["run", "main"]


# Built once per process: parse_args leaves the parser as it found it.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypeuler",
        description=(
            "Exact S_n-equivariant Euler characteristics of moduli of "
            "pointed hyperelliptic curves (genus >= 2)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    series = sub.add_parser(
        "series",
        help="equivariant generating function up to t^max-points",
    )
    series.add_argument("--genus", type=int, required=True)
    series.add_argument("--max-points", type=int, required=True)
    series.add_argument(
        "--basis", choices=("powersum", "schur"), default="powersum"
    )
    series.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )
    series.add_argument(
        "--schur-convention",
        choices=("standard", "sign-twisted"),
        default="standard",
        help=(
            "Schur-basis normalization: 'standard' pairs power sums with "
            "characters directly; 'sign-twisted' additionally tensors with "
            "the sign character (conjugate partitions).  The power-sum "
            "coefficients pin down only the standard choice."
        ),
    )

    euler = sub.add_parser(
        "euler", help="table of integer Euler characteristics"
    )
    euler.add_argument("--genus", type=int, required=True)
    euler.add_argument("--max-points", type=int, required=True)
    euler.add_argument(
        "--format", choices=("text", "json", "csv"), default="text"
    )

    verify = sub.add_parser("verify", help="run the cross-validation battery")
    verify.add_argument(
        "--genus-range",
        default="2..10",
        metavar="A..B",
        help="inclusive genus range (default 2..10)",
    )
    verify.add_argument("--max-points", type=int, default=8)
    verify.add_argument(
        "--roundtrip",
        action="store_true",
        help="also assert the power-sum/Schur output round trip",
    )
    return parser


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ValueError(f"expected A..B, got {text!r}")
    return int(lo), int(hi)


def _series_rows(
    series: TSeries, basis: str, twisted: bool
) -> list[tuple[int, list[tuple[tuple, str]]]]:
    # Per degree n: (n, [(key, value string), ...]) in canonical order; the
    # key is a monomial's (k, e) pairs or a partition's parts.
    rows = []
    for n, poly in enumerate(series.coeffs):
        if basis == "powersum":
            items = poly.sorted_terms()
        else:
            vec = p_to_schur(poly, n)
            if twisted:
                vec = sign_twist(vec)
            items = vec.sorted_items()
        rows.append((n, [(key, str(value)) for key, value in items]))
    return rows


# A newline and the indent json.dumps(indent=2) gives each nesting depth.
_NL = tuple("\n" + "  " * depth for depth in range(8))


def _json_array(items: Sequence[str], depth: int) -> str:
    """Rendered values laid out as json.dumps(indent=2) lays out a list."""
    if not items:
        return "[]"
    inner = _NL[depth + 1]
    return "[" + inner + ("," + inner).join(items) + _NL[depth] + "]"


def _json_monomial(key: tuple) -> str:
    # A list of [k, e] pairs at the depth of a term's key.
    nl6, nl7 = _NL[6:8]
    return _json_array([f"[{nl7}{k},{nl7}{e}{nl6}]" for k, e in key], 5)


def _json_partition(key: tuple) -> str:
    # A flat list of parts at the depth of a term's key.
    return _json_array(list(map(str, key)), 5)


# Per basis: the JSON field of a term's key, its JSON and its text form.
_KEY_FORMATS = {
    "powersum": ("monomial", _json_monomial, format_monomial),
    "schur": (
        "partition", _json_partition, lambda key: "s" + format_partition(key)
    ),
}


def _series_json(genus: int, max_points: int, basis: str, rows: list) -> str:
    """The series document exactly as json.dumps(doc, indent=2) writes it.

    Nothing needs escaping: keys are ints or int pairs, values are p/q
    strings, and the names and the basis are fixed ASCII.
    """
    label, json_key, _ = _KEY_FORMATS[basis]
    nl1, nl2, nl3, nl4, nl5 = _NL[1:6]
    terms = []
    for n, coeffs in rows:
        entries = [
            f'{{{nl5}"{label}": {json_key(key)},'
            f'{nl5}"value": "{value}"{nl4}}}'
            for key, value in coeffs
        ]
        terms.append(
            f'{{{nl3}"n": {n},{nl3}"coeffs": {_json_array(entries, 3)}{nl2}}}'
        )
    return (
        f'{{{nl1}"genus": {genus},{nl1}"max_points": {max_points},'
        f'{nl1}"basis": "{basis}",{nl1}"terms": {_json_array(terms, 1)}\n}}'
    )


def _series_lines(rows: list, basis: str, fmt: str) -> list[str]:
    label, _, text_key = _KEY_FORMATS[basis]
    if fmt == "csv":
        return [f"n,{label},value"] + [
            f"{n},{text_key(key)},{value}"
            for n, coeffs in rows
            for key, value in coeffs
        ]
    lines = []
    for n, coeffs in rows:
        if not coeffs:
            lines.append(f"t^{n}: 0")
            continue
        parts = []
        for key, value in coeffs:
            text = text_key(key)
            if text == "1":
                parts.append(value)
            elif value == "1":
                parts.append(text)
            elif value == "-1":
                parts.append(f"-{text}")
            else:
                parts.append(f"{value}*{text}")
        joined = parts[0]
        for p in parts[1:]:
            joined += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        lines.append(f"t^{n}: {joined}")
    return lines


def _emit_series(args: argparse.Namespace) -> int:
    series = equivariant_series(args.genus, args.max_points)
    twisted = args.schur_convention == "sign-twisted"
    rows = _series_rows(series, args.basis, twisted)
    if args.format == "json":
        out = _series_json(args.genus, args.max_points, args.basis, rows)
    else:
        out = "\n".join(_series_lines(rows, args.basis, args.format))
    sys.stdout.write(out + "\n")
    return 0


def _chi_text(n: int, chi: int) -> str:
    # str(int) refuses values past the interpreter's digit limit.
    try:
        return str(chi)
    except ValueError:
        raise ValueError(
            f"chi(H_(g,n)) at n={n} has more than "
            f"{sys.get_int_max_str_digits()} digits; lower --max-points"
        ) from None


def _emit_euler(args: argparse.Namespace) -> int:
    if args.max_points < 0:
        raise ValueError(f"max points must be >= 0, got {args.max_points}")
    values = [
        (n, _chi_text(n, chi_pointed(args.genus, n)))
        for n in range(args.max_points + 1)
    ]
    if args.format == "json":
        doc = {
            "genus": args.genus,
            "max_points": args.max_points,
            "values": [{"n": n, "chi": chi} for n, chi in values],
        }
        out = json.dumps(doc, indent=2)
    elif args.format == "csv":
        out = "\n".join(["n,chi"] + [f"{n},{chi}" for n, chi in values])
    else:
        width = max(len(chi) for _, chi in values)
        out = "\n".join(
            [f"chi(H_(g,n)) for genus g = {args.genus}"]
            + [f"n={n:<3d} {chi:>{width}}" for n, chi in values]
        )
    sys.stdout.write(out + "\n")
    return 0


def _emit_verify(args: argparse.Namespace) -> int:
    g_lo, g_hi = _parse_range(args.genus_range)
    results = run_battery(g_lo, g_hi, args.max_points, roundtrip=args.roundtrip)
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"{tag} {res.name}: {res.detail}")
        failed += not res.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def run(args: Sequence[str]) -> int:
    """Parse and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(args))
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors.
        return 0 if exc.code in (0, None) else 2
    try:
        if ns.command == "series":
            return _emit_series(ns)
        if ns.command == "euler":
            return _emit_euler(ns)
        return _emit_verify(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
