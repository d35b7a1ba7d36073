"""The verification checks, shared by `mirhecke verify` and the test suite.

Each check compares a result against an independent route (the tensor
trace oracle, the Frobenius formula, brute-force polynomial products,
class-polynomial reconstruction) and returns the witness of its first
failure, or None when it passes.  A witness is a small JSON-ready value
naming where the two routes disagree.

`run_suite` groups the checks into the four `verify` suites and turns their
outcomes into {check, n, r, status, witness} records, where status is
"pass", "fail" or "skip".  Tensor space grows as (r+1)^n, so the suites gate
the expensive items by rank: multiplicativity runs on every basis pair for
n <= 3, on 200 seeded pairs at n = 4 and on 10 only with `slow` above that;
image rank and class-polynomial reconstruction run for n <= 3 only.
"""

from __future__ import annotations

import itertools
import random

from . import algebra, characters, symfun, tensorrep
from .characters import CharacterTable
from .combinatorics import (
    iter_standard_basis,
    partitions_of,
    partitions_up_to,
    standard_basis_count,
)
from .ring import ZERO


def basis_pairs(n: int, slow: bool = False):
    """Basis pairs for `psi_multiplicative`: all of them for n <= 3, 200 drawn from
    random.Random(0) at n = 4, 10 above that when `slow`, else None."""
    if n <= 3:
        return list(itertools.product(iter_standard_basis(n), repeat=2))
    count = 200 if n == 4 else 10 if slow else 0
    if not count:
        return None
    basis = list(iter_standard_basis(n))
    rng = random.Random(0)
    return [(rng.choice(basis), rng.choice(basis)) for _ in range(count)]


def _compositions(k: int):
    if k == 0:
        yield ()
        return
    for first in range(1, k + 1):
        for rest in _compositions(k - first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# tensor oracle against the algebra and the recursion
# ---------------------------------------------------------------------------


def psi_multiplicative(pairs, r: int):
    """Psi(ab) = Psi(a) o Psi(b) on r+1 letters for each basis pair (a, b)."""
    for a, b in pairs:
        prod = algebra.mul(algebra.basis_element(a), algebra.basis_element(b))
        lhs = tensorrep.psi_of_element(prod, r)
        rhs = tensorrep.compose_operators(tensorrep.psi_matrix(r, a), tensorrep.psi_matrix(r, b))
        if lhs != rhs:
            return {"a": a.to_json(), "b": b.to_json()}
    return None


def recursion_matches_oracle(n: int, r: int, variant: str = "oracle"):
    """Every recursive character value equals the trace oracle, column by column."""
    for mu in partitions_up_to(n):
        oracle = tensorrep.char_oracle(algebra.hat_T(n, mu), r=r)
        for lam in partitions_up_to(n):
            if oracle.get(lam, ZERO) != characters.mn_character(n, lam, mu, variant):
                return {"lam": list(lam), "mu": list(mu)}
    return None


def composition_invariance(n: int, r: int):
    """Oracle traces of hat_T(n, gamma) do not change when the parts of gamma are sorted."""
    for k in range(n + 1):
        for gam in _compositions(k):
            srt = tuple(sorted(gam, reverse=True))
            if gam == srt:
                continue
            a = tensorrep.char_oracle(algebra.hat_T(n, gam), r=r)
            b = tensorrep.char_oracle(algebra.hat_T(n, srt), r=r)
            if a != b:
                return {"composition": list(gam)}
    return None


def image_rank_equals_dim(n: int, r: int):
    """The tensor image has rank dim H_n at v0 = 2 and v0 = 3; the witness lists both ranks."""
    expected = standard_basis_count(n)
    ranks = [tensorrep.image_rank(n, r, v0 * v0, v0) for v0 in (2, 3)]
    return None if all(rk == expected for rk in ranks) else ranks


def class_polynomials_reconstruct(table: CharacterTable):
    """Every basis element's class polynomials are Laurent and, contracted with the
    table, give back its oracle traces at r = n."""
    n = table.n
    for idx in iter_standard_basis(n):
        try:
            cp = characters.class_polynomials(n, idx, table)
        except characters.ClassPolynomialDefect as exc:
            return {"index": idx.to_json(), "error": str(exc)}
        traces = tensorrep.char_oracle(algebra.basis_element(idx), r=n)
        for lam in table.labels:
            lhs = ZERO
            for mu, f in cp.coeffs.items():
                lhs = lhs + f * table.entries[(lam, mu)]
            if lhs != traces.get(lam, ZERO):
                return {"index": idx.to_json(), "lam": list(lam)}
    return None


# ---------------------------------------------------------------------------
# the character table
# ---------------------------------------------------------------------------


def frobenius_identity(n: int, r: int, variant: str = "oracle"):
    """qtilde_mu = sum_lam chi[lam](mu) s_lam in r variables, for every mu of size <= n."""
    for mu in partitions_up_to(n):
        lhs = symfun.qtilde_mu(mu, r)
        rhs = symfun.sym_zero(r)
        for lam in partitions_up_to(n):
            rhs = rhs + symfun.schur(lam, r).scale(characters.mn_character(n, lam, mu, variant))
        if lhs != rhs:
            return {"mu": list(mu)}
    return None


def vanishing_above_diagonal(table: CharacterTable):
    """Every entry with |lam| > |mu| is exactly zero."""
    for lam in table.labels:
        for mu in table.labels:
            if sum(lam) > sum(mu) and not table.entries[(lam, mu)].is_zero():
                return {"lam": list(lam), "mu": list(mu)}
    return None


def determinant_nonzero(table: CharacterTable):
    """The table specialized at q0 = 2 and q0 = 3 is invertible."""
    for q0 in (2, 3):
        if characters.table_determinant_at(table, q0) == 0:
            return {"q0": q0}
    return None


def identity_column(table: CharacterTable):
    """The identity column holds positive integers whose squares sum to dim H_n."""
    col = tuple([1] * table.n)
    total = 0
    for lam in table.labels:
        coeffs = dict(table.entries[(lam, col)].items())
        if set(coeffs) != {0} or coeffs[0] <= 0:
            return {"lam": list(lam)}
        total += coeffs[0] ** 2
    if total != standard_basis_count(table.n):
        return {"square_sum": total}
    return None


# ---------------------------------------------------------------------------
# symmetric functions
# ---------------------------------------------------------------------------


def pieri_matches_bruteforce(r: int, variant: str = "oracle"):
    """The strip Pieri rule equals the brute-force product for all m >= 1 and nu
    with m + |nu| <= r, in r variables."""
    for m in range(1, r + 1):
        for size in range(r - m + 1):
            for nu in partitions_of(size):
                if symfun.pieri_qtilde(m, nu, r, variant) != symfun.pieri_bruteforce(m, nu, r):
                    return {"m": m, "nu": list(nu)}
    return None


def two_parameter_symmetry(m_max: int):
    """qtilde_m(y; q) = (-q)^(m-1) g_m(y; q^-1) for m <= m_max and r <= 4."""
    for m in range(1, m_max + 1):
        for r in range(1, 5):
            if not symfun.check_two_symmetric(m, r):
                return {"m": m, "r": r}
    return None


def generating_and_sequences(m_max: int):
    """The generating function and the sequence sum both give qtilde_m, m <= m_max, r <= 3."""
    for m in range(1, m_max + 1):
        for r in range(1, 4):
            if not symfun.check_generating(m, r):
                return {"m": m, "r": r, "kind": "generating"}
            if symfun.qtilde_from_sequences(m, r) != symfun.qtilde(m, r):
                return {"m": m, "r": r, "kind": "sequence"}
    return None


# ---------------------------------------------------------------------------
# the verify suites
# ---------------------------------------------------------------------------


def _status(witness) -> str:
    return "pass" if witness is None else "fail"


def _ran(check: str, witness) -> tuple:
    return check, _status(witness), witness


def _oracle(n: int, r: int, variant: str, slow: bool):
    pairs = basis_pairs(n, slow)
    if pairs is None:
        yield "psi multiplicative on basis pairs", "skip", "rank >= 5: rerun with --slow"
    else:
        yield _ran(f"psi multiplicative on {len(pairs)} basis pairs", psi_multiplicative(pairs, r))
    yield _ran("character recursion matches trace oracle", recursion_matches_oracle(n, r, variant))
    yield _ran("composition invariance of oracle traces", composition_invariance(n, r))
    if n <= 3:
        yield _ran(
            f"image rank = dim = {standard_basis_count(n)} at two specializations",
            image_rank_equals_dim(n, r),
        )
        yield _ran(
            "class polynomials reconstruct all oracle traces",
            class_polynomials_reconstruct(characters.character_table(n, variant)),
        )


def _frobenius(n: int, r: int, variant: str, slow: bool):
    yield _ran("Frobenius identity", frobenius_identity(n, r, variant))
    table = characters.character_table(n, variant)
    # verify has always reported these three as a verdict only, without a witness
    yield "vanishing above the diagonal blocks", _status(vanishing_above_diagonal(table)), None
    yield "table determinant nonzero at q0 in {2, 3}", _status(determinant_nonzero(table)), None
    yield (
        "identity column: positive integers with square-sum = dim",
        _status(identity_column(table)),
        None,
    )


def _pieri(n: int, r: int, variant: str, slow: bool):
    yield _ran(
        f"strip expansion matches product oracle (variant={variant})",
        pieri_matches_bruteforce(min(n, 5), variant),
    )
    yield _ran("two-parameter symmetry identity", two_parameter_symmetry(min(n + 1, 6)))
    yield _ran(
        "generating function and sequence sum reproduce qtilde",
        generating_and_sequences(min(n, 5)),
    )


_OUTCOMES = {"oracle": _oracle, "frobenius": _frobenius, "pieri": _pieri}
SUITES = ("relations",) + tuple(_OUTCOMES)


def run_suite(suite: str, n: int, r: int, variant: str, slow: bool) -> list:
    """The {check, n, r, status, witness} records of one suite, in a fixed order.

    The relations suite evaluates every defining relation through the algebra
    engine and as an operator identity on tensor space; its records carry a
    `kind` of "algebra" or "tensor" in front.
    """
    if suite == "relations":
        return [dict(kind="algebra", **rep) for rep in algebra.check_relations(n)] + [
            dict(kind="tensor", **rep) for rep in tensorrep.verify_rep_relations(n, r)
        ]
    return [
        {"check": check, "n": n, "r": r, "status": status, "witness": witness}
        for check, status, witness in _OUTCOMES[suite](n, r, variant, slow)
    ]
