"""Command-line interface.

Subcommands:

- `table`     write the character table (CSV or JSON)
- `classpoly` write the class-polynomial vector of one basis element
- `pieri`     write a strip expansion together with its brute-force cross-check
- `dim`       print the algebra dimension
- `verify`    run the verification suites of `mirhecke.checks`

Exit codes: 0 success (for `verify`: every check ran and passed), 1 a check
failed (for `verify`, a JSON report of the failed checks on stdout),
2 malformed arguments, 3 `verify` only: no check failed but some were
skipped (rank >= 6 without --slow).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import characters, checks, symfun
from .combinatorics import BasisIndex, standard_basis_count


def _parse_partition(parser: argparse.ArgumentParser, text: str):
    try:
        return characters.parse_partition(text)
    except ValueError as exc:
        parser.error(str(exc))


def _parse_index(parser: argparse.ArgumentParser, text: str, n: int) -> BasisIndex:
    """Parse 'A=1.3;B=2.3;w=1.2.3' (empty or '0' for empty subsets)."""
    fields = {}
    for chunk in text.split(";"):
        if not chunk.strip():
            continue
        if "=" not in chunk:
            parser.error(f"bad index component {chunk!r}")
        key, _, val = chunk.partition("=")
        key = key.strip()
        if key not in ("A", "B", "w"):
            parser.error(f"unknown index key {key!r} in {text!r} (keys: A, B, w)")
        if key in fields:
            parser.error(f"repeated index key {key!r} in {text!r}")
        fields[key] = val.strip()
    try:
        A = _parse_dotted(fields.get("A", ""))
        B = _parse_dotted(fields.get("B", ""))
        w = _parse_dotted(fields.get("w", "")) or tuple(range(1, n + 1))
        return BasisIndex(tuple(A), tuple(B), tuple(w))
    except (ValueError, KeyError) as exc:
        parser.error(f"bad index {text!r}: {exc}")


def _parse_dotted(text: str) -> tuple:
    text = text.strip()
    if text in ("", "0"):
        return ()
    return tuple(int(a) for a in text.split("."))


def _emit(payload: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mirhecke", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="write the character table")
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--format", choices=("json", "csv"), default="json")
    p_table.add_argument("--out", default=None)
    p_table.add_argument("--g-variant", choices=symfun.G_VARIANTS, default="oracle")

    p_cp = sub.add_parser("classpoly", help="write class polynomials of a basis element")
    p_cp.add_argument("--n", type=int, required=True)
    p_cp.add_argument("--index", required=True, help='e.g. "A=2;B=1;w=1.2"')
    p_cp.add_argument("--out", default=None)

    p_pieri = sub.add_parser("pieri", help="strip expansion with brute-force cross-check")
    p_pieri.add_argument("--m", type=int, required=True)
    p_pieri.add_argument("--nu", default="0", help='partition, e.g. "2.1" (empty: "0")')
    p_pieri.add_argument("--r", type=int, default=5)
    p_pieri.add_argument("--g-variant", choices=symfun.G_VARIANTS, default="oracle")
    p_pieri.add_argument("--out", default=None)

    p_dim = sub.add_parser("dim", help="print the algebra dimension")
    p_dim.add_argument("--n", type=int, required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument("--n", type=int, required=True)
    p_verify.add_argument("--r", type=int, default=None)
    p_verify.add_argument(
        "--suite", choices=checks.SUITES + ("all",), default="all"
    )
    p_verify.add_argument("--g-variant", choices=symfun.G_VARIANTS, default="oracle")
    p_verify.add_argument("--slow", action="store_true", help="include the rank >= 6 oracle items")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built at the first `main` call and reused by later ones.

    `parse_args` starts every call from a fresh namespace filled with the
    defaults, so nothing carries over from one call to the next.
    """
    return _build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    if args.command == "dim":
        if args.n < 1:
            parser.error("--n must be >= 1")
        print(standard_basis_count(args.n))
        return 0

    if args.command == "table":
        if args.n < 1:
            parser.error("--n must be >= 1")
        table = characters.character_table(args.n, args.g_variant)
        if args.format == "csv":
            _emit(table.to_csv(), args.out)
        else:
            _emit(json.dumps(table.to_json(), indent=2) + "\n", args.out)
        return 0

    if args.command == "classpoly":
        if args.n < 1:
            parser.error("--n must be >= 1")
        idx = _parse_index(parser, args.index, args.n)
        if idx.n != args.n:
            parser.error(f"index rank {idx.n} != --n {args.n}")
        try:
            cp = characters.class_polynomials(args.n, idx)
        except characters.ClassPolynomialDefect as exc:
            _emit(json.dumps({"status": "fail", "error": str(exc)}) + "\n", args.out)
            return 1
        _emit(json.dumps(cp.to_json(), indent=2) + "\n", args.out)
        return 0

    if args.command == "pieri":
        if args.m < 0:
            parser.error("--m must be >= 0")
        if args.r < 1:
            parser.error("--r must be >= 1")
        nu = _parse_partition(parser, args.nu)
        got = symfun.pieri_qtilde(args.m, nu, args.r, args.g_variant)
        want = symfun.pieri_bruteforce(args.m, nu, args.r)
        payload = {
            "m": args.m,
            "nu": characters.partition_string(nu),
            "r": args.r,
            "variant": args.g_variant,
            "coeffs": {
                characters.partition_string(lam): c.to_json() for lam, c in sorted(got.items())
            },
            "oracle_match": got == want,
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
        return 0 if got == want else 1

    if args.command == "verify":
        if args.n < 1:
            parser.error("--n must be >= 1")
        r = args.n if args.r is None else args.r
        if r < args.n:
            parser.error(f"--r must be >= --n (got r={r}, n={args.n})")
        suites = checks.SUITES if args.suite == "all" else (args.suite,)
        report = [
            {"suite": name, **entry}
            for name in suites
            for entry in checks.run_suite(name, args.n, r, args.g_variant, args.slow)
        ]
        for entry in report:
            print(f"[{entry['status'].upper()}] {entry['suite']}: {entry['check']}")
        failures = [entry for entry in report if entry["status"] == "fail"]
        if failures:
            print(json.dumps({"status": "fail", "failures": failures}, default=str))
            return 1
        skipped = sum(entry["status"] == "skip" for entry in report)
        if skipped:
            print(f"{len(report) - skipped} checks passed, {skipped} skipped (n={args.n}, r={r})")
            return 3
        print(f"all {len(report)} checks passed (n={args.n}, r={r})")
        return 0

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
