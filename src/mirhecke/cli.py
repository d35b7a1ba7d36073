"""Command-line interface.

Subcommands:

- `table`     write the character table (CSV or JSON)
- `classpoly` write the class-polynomial vector of one basis element
- `pieri`     write a strip expansion together with its brute-force cross-check
- `dim`       print the algebra dimension
- `verify`    run the verification suites; exit 0 iff everything passes

Exit codes: 0 success, 1 internal check failure (JSON report on stdout),
2 malformed arguments.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys

from . import algebra, characters, symfun, tensorrep
from .combinatorics import (
    BasisIndex,
    iter_standard_basis,
    partitions_up_to,
    standard_basis_count,
)
from .ring import ZERO


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
        fields[key.strip()] = val.strip()
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
# verification suites
# ---------------------------------------------------------------------------


def _suite_relations(n: int, r: int, variant: str, slow: bool) -> list[dict]:
    out = [dict(kind="algebra", **rep) for rep in algebra.check_relations(n)]
    out += [dict(kind="tensor", **rep) for rep in tensorrep.verify_rep_relations(n, r)]
    return out


def _pair_sample(n: int, count: int, seed: int = 0):
    basis = list(iter_standard_basis(n))
    rng = random.Random(seed)
    return [(rng.choice(basis), rng.choice(basis)) for _ in range(count)]


def _suite_oracle(n: int, r: int, variant: str, slow: bool) -> list[dict]:
    reports: list[dict] = []

    def record(check, ok, witness=None):
        reports.append(
            {"check": check, "n": n, "r": r, "status": "pass" if ok else "fail", "witness": witness}
        )

    # multiplicativity of the tensor action against algebra products;
    # tensor space at rank >= 5 is large, so that item hides behind --slow
    if n <= 3:
        pairs = list(itertools.product(iter_standard_basis(n), repeat=2))
    elif n == 4:
        pairs = _pair_sample(n, 200)
    elif slow:
        pairs = _pair_sample(n, 10)
    else:
        pairs = None
    if pairs is None:
        reports.append(
            {
                "check": "psi multiplicative on basis pairs",
                "n": n,
                "r": r,
                "status": "skip",
                "witness": "rank >= 5: rerun with --slow",
            }
        )
    else:
        bad = None
        for a_idx, b_idx in pairs:
            prod = algebra.mul(algebra.basis_element(a_idx), algebra.basis_element(b_idx))
            lhs = tensorrep.psi_of_element(prod, r)
            rhs = tensorrep.compose_operators(
                tensorrep.psi_matrix(r, a_idx), tensorrep.psi_matrix(r, b_idx)
            )
            if lhs != rhs:
                bad = {"a": a_idx.to_json(), "b": b_idx.to_json()}
                break
        record(f"psi multiplicative on {len(pairs)} basis pairs", bad is None, bad)

    # recursive characters against the trace oracle, column by column
    bad = None
    for mu in partitions_up_to(n):
        oracle = tensorrep.char_oracle(algebra.hat_T(n, mu), r=r)
        for lam in partitions_up_to(n):
            if oracle.get(lam, ZERO) != characters.mn_character(n, lam, mu, variant):
                bad = {"lam": list(lam), "mu": list(mu)}
                break
        if bad:
            break
    record("character recursion matches trace oracle", bad is None, bad)

    # trace invariance under reordering of composition parts
    bad = None
    for k in range(n + 1):
        for gam in _compositions_of(k):
            srt = tuple(sorted(gam, reverse=True))
            if gam == srt:
                continue
            a = tensorrep.char_oracle(algebra.hat_T(n, gam), r=r)
            b = tensorrep.char_oracle(algebra.hat_T(n, srt), r=r)
            if a != b:
                bad = {"composition": list(gam)}
                break
        if bad:
            break
    record("composition invariance of oracle traces", bad is None, bad)

    if n <= 3:
        expected = standard_basis_count(n)
        ranks = [tensorrep.image_rank(n, r, v0 * v0, v0) for v0 in (2, 3)]
        record(
            f"image rank = dim = {expected} at two specializations",
            all(rk == expected for rk in ranks),
            None if all(rk == expected for rk in ranks) else ranks,
        )
        table = characters.character_table(n, variant)
        bad = None
        for idx in iter_standard_basis(n):
            try:
                cp = characters.class_polynomials(n, idx, table)
            except characters.ClassPolynomialDefect as exc:
                bad = {"index": idx.to_json(), "error": str(exc)}
                break
            traces = tensorrep.char_oracle(algebra.basis_element(idx), r=n)
            for lam in table.labels:
                lhs = ZERO
                for mu, f in cp.coeffs.items():
                    lhs = lhs + f * table.entries[(lam, mu)]
                if lhs != traces.get(lam, ZERO):
                    bad = {"index": idx.to_json(), "lam": list(lam)}
                    break
            if bad:
                break
        record("class polynomials reconstruct all oracle traces", bad is None, bad)
    return reports


def _compositions_of(k: int):
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in _compositions_of(k - first):
            yield (first,) + rest


def _suite_frobenius(n: int, r: int, variant: str, slow: bool) -> list[dict]:
    reports: list[dict] = []

    def record(check, ok, witness=None):
        reports.append(
            {"check": check, "n": n, "r": r, "status": "pass" if ok else "fail", "witness": witness}
        )

    bad = None
    for mu in partitions_up_to(n):
        lhs = symfun.qtilde_mu(mu, r)
        rhs = symfun.sym_zero(r)
        for lam in partitions_up_to(n):
            rhs = rhs + symfun.schur(lam, r).scale(characters.mn_character(n, lam, mu, variant))
        if lhs != rhs:
            bad = {"mu": list(mu)}
            break
    record("Frobenius identity", bad is None, bad)

    table = characters.character_table(n, variant)
    ok = all(
        table.entries[(lam, mu)].is_zero()
        for lam in table.labels
        for mu in table.labels
        if sum(lam) > sum(mu)
    )
    record("vanishing above the diagonal blocks", ok)

    dets = [characters.table_determinant_at(table, q0) for q0 in (2, 3)]
    record("table determinant nonzero at q0 in {2, 3}", all(d != 0 for d in dets))

    col = tuple([1] * n)
    dim_ok = True
    total_sq = 0
    for lam in table.labels:
        coeffs = dict(table.entries[(lam, col)].items())
        if set(coeffs) != {0} or coeffs[0] <= 0:
            dim_ok = False
            break
        total_sq += coeffs[0] ** 2
    dim_ok = dim_ok and total_sq == standard_basis_count(n)
    record("identity column: positive integers with square-sum = dim", dim_ok)
    return reports


def _suite_pieri(n: int, r: int, variant: str, slow: bool) -> list[dict]:
    reports: list[dict] = []

    def record(check, ok, witness=None):
        reports.append(
            {"check": check, "n": n, "r": r, "status": "pass" if ok else "fail", "witness": witness}
        )

    size = min(n, 5)
    bad = None
    for m in range(1, size + 1):
        for bound in range(size - m + 1):
            for nu in partitions_up_to(bound):
                if sum(nu) != bound:
                    continue
                got = symfun.pieri_qtilde(m, nu, size, variant)
                want = symfun.pieri_bruteforce(m, nu, size)
                if got != want:
                    bad = {"m": m, "nu": list(nu)}
                    break
            if bad:
                break
        if bad:
            break
    record(f"strip expansion matches product oracle (variant={variant})", bad is None, bad)

    bad = None
    for m in range(1, min(n + 2, 7)):
        for rr in range(1, 5):
            if not symfun.check_two_symmetric(m, rr):
                bad = {"m": m, "r": rr}
                break
        if bad:
            break
    record("two-parameter symmetry identity", bad is None, bad)

    bad = None
    for m in range(1, min(n + 1, 6)):
        for rr in range(1, 4):
            if not symfun.check_generating(m, rr):
                bad = {"m": m, "r": rr, "kind": "generating"}
                break
            if symfun.qtilde_from_sequences(m, rr) != symfun.qtilde(m, rr):
                bad = {"m": m, "r": rr, "kind": "sequence"}
                break
        if bad:
            break
    record("generating function and sequence sum reproduce qtilde", bad is None, bad)
    return reports


_SUITES = {
    "relations": _suite_relations,
    "oracle": _suite_oracle,
    "frobenius": _suite_frobenius,
    "pieri": _suite_pieri,
}


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
        "--suite", choices=tuple(_SUITES) + ("all",), default="all"
    )
    p_verify.add_argument("--g-variant", choices=symfun.G_VARIANTS, default="oracle")
    p_verify.add_argument("--r-mode", choices=("n", "n-plus-1"), default="n")
    p_verify.add_argument("--slow", action="store_true", help="include rank-5 oracle items")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
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
            print(json.dumps({"status": "fail", "error": str(exc)}))
            return 1
        _emit(json.dumps(cp.to_json(), indent=2) + "\n", args.out)
        return 0

    if args.command == "pieri":
        if args.m < 0:
            parser.error("--m must be >= 0")
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
        r = args.r
        if r is None:
            r = args.n + 1 if args.r_mode == "n-plus-1" else args.n
        if r < args.n:
            parser.error(f"--r must be >= --n (got r={r}, n={args.n})")
        suites = list(_SUITES) if args.suite == "all" else [args.suite]
        report = []
        for name in suites:
            report.extend(
                {"suite": name, **entry}
                for entry in _SUITES[name](args.n, r, args.g_variant, args.slow)
            )
        failures = [entry for entry in report if entry["status"] != "pass"]
        for entry in report:
            label = entry.get("check") or entry.get("relation")
            print(f"[{entry['status'].upper()}] {entry['suite']}: {label}")
        if failures:
            print(json.dumps({"status": "fail", "failures": failures}, default=str))
            return 1
        print(f"all {len(report)} checks passed (n={args.n}, r={r})")
        return 0

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
