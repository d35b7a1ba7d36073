"""Irreducible characters of the mirabolic Hecke algebra.

Rows of the character table are labelled by pairs (lambda, k) with lambda a
partition of k <= n; columns by the cocenter representatives attached to
partitions mu of size <= n.  Entries are computed by a recursion that strips
the last (smallest) part m of mu and sums over all ways of removing a strip
of size at most m from lambda:

    chi[lam](mu) = sum_nu g(|lam/nu|, m) * wtbar(lam, nu) * chi[nu](mu - last part)

with the base case chi[lam](empty) = [lam == empty].

The strips lam/nu come straight from the row-by-row generator
`combinatorics.strip_removals`, which also reads off their components; the
inverted strip weights and the transition coefficients g(t, m) live in
`symfun`, next to the Pieri rule that uses them.  For each (lam, m, variant)
the list of (nu, |nu|, g * wtbar) is built once.  Values are memoized in
process only; nothing is written to disk.

The transition coefficients ship in two variants (`symfun.G_VARIANTS`).  The
default "oracle" variant passes the brute-force product oracle for every
tested size; the "paper" variant reproduces a published case list that
fails that oracle at m = 2 (kept selectable so the discrepancy is
demonstrable, never used by default).

Class polynomials express any standard basis element through the cocenter
representatives: the coefficient vector is the unique solution of the linear
system given by the character table against the Schur-Weyl trace oracle, and
it must come out Laurent-polynomial (denominators clear exactly).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .combinatorics import (
    BasisIndex,
    Partition,
    check_partition,
    partitions_up_to,
    strip_removals,
)
from .ring import LaurentScalar, ONE, ZERO, solve_linear
from .symfun import g_coeff, strip_weight


class ClassPolynomialDefect(RuntimeError):
    """Raised when a class-polynomial solution is not Laurent-polynomial."""


# ---------------------------------------------------------------------------
# the recursive character engine
# ---------------------------------------------------------------------------

_MN_CACHE: dict = {}


@cache
def _transitions(lam: Partition, m: int, variant: str) -> tuple:
    """(nu, |nu|, g(|lam/nu|, m) * wtbar(lam, nu)) for every strip lam/nu of size <= m."""
    k = sum(lam)
    return tuple(
        (nu, k - size, g_coeff(size, m, variant) * strip_weight(size, comps))
        for nu, size, comps in strip_removals(lam, m)
    )


def mn_character(n: int, lam, mu, variant: str = "oracle") -> LaurentScalar:
    """Character value chi[(lam, |lam|)] on the representative of mu, rank n.

    The recursion removes the last part of mu; removing any other part gives
    the same value (see `mn_character_removing_first` for the cross-check).
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) > n or sum(mu) > n:
        raise ValueError(f"|lam| and |mu| must be <= n = {n}")
    return _mn(n, lam, mu, variant, last=True)


def _mn(n: int, lam: Partition, mu: Partition, variant: str, last: bool) -> LaurentScalar:
    if not mu:
        return ONE if not lam else ZERO
    key = (variant, n, lam, mu) if last else (variant + "!first", n, lam, mu)
    hit = _MN_CACHE.get(key)
    if hit is not None:
        return hit
    if last:
        m, rest = mu[-1], mu[:-1]
    else:
        m, rest = mu[0], mu[1:]
    total = ZERO
    for nu, nu_size, coeff in _transitions(lam, m, variant):
        if nu_size <= n - m:
            sub = _mn(n - m, nu, rest, variant, last)
            if sub:
                total = total + coeff * sub
    _MN_CACHE[key] = total
    return total


def mn_character_removing_first(n: int, lam, mu, variant: str = "oracle") -> LaurentScalar:
    """Cross-check mode: the same recursion stripping the first (largest) part."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) > n or sum(mu) > n:
        raise ValueError(f"|lam| and |mu| must be <= n = {n}")
    return _mn(n, lam, mu, variant, last=False)


# ---------------------------------------------------------------------------
# the character table
# ---------------------------------------------------------------------------


@dataclass
class CharacterTable:
    """Square table of character values, rows and columns in canonical order."""

    n: int
    labels: list
    entries: dict  # (row partition, col partition) -> LaurentScalar
    variant: str = "oracle"

    def value(self, lam, mu) -> LaurentScalar:
        return self.entries[(tuple(lam), tuple(mu))]

    def matrix(self) -> list:
        return [[self.entries[(lam, mu)] for mu in self.labels] for lam in self.labels]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "variant": self.variant,
            "labels": [partition_string(p) for p in self.labels],
            "entries": [
                [self.entries[(lam, mu)].to_json() for mu in self.labels]
                for lam in self.labels
            ],
        }

    def to_csv(self) -> str:
        lines = ["lambda\\mu," + ",".join(partition_string(p) for p in self.labels)]
        for lam in self.labels:
            cells = [self.entries[(lam, mu)].to_string() for mu in self.labels]
            lines.append(partition_string(lam) + "," + ",".join(cells))
        return "\n".join(lines) + "\n"


def character_table(n: int, variant: str = "oracle") -> CharacterTable:
    """The full table of chi[(lam, |lam|)] on the mu-representatives, |lam|, |mu| <= n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    labels = partitions_up_to(n)
    entries = {(lam, mu): mn_character(n, lam, mu, variant) for lam in labels for mu in labels}
    return CharacterTable(n, labels, entries, variant)


def table_determinant_at(table: CharacterTable, q0) -> "Fraction":
    """Determinant of the table specialized at a rational q0 (entries are even)."""
    from fractions import Fraction

    size = len(table.labels)
    m = [
        [table.entries[(lam, mu)].specialize(q0) for mu in table.labels]
        for lam in table.labels
    ]
    det = Fraction(1)
    for k in range(size):
        piv = None
        for i in range(k, size):
            if m[i][k]:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        inv = Fraction(1) / m[k][k]
        for i in range(k + 1, size):
            f = m[i][k] * inv
            if f:
                for j in range(k, size):
                    m[i][j] -= f * m[k][j]
    return det


# ---------------------------------------------------------------------------
# class polynomials
# ---------------------------------------------------------------------------


@dataclass
class ClassPolyVector:
    """Coefficients expressing a basis element through the cocenter representatives."""

    index: BasisIndex
    coeffs: dict  # partition -> LaurentScalar

    def to_json(self) -> dict:
        order = sorted(self.coeffs, key=lambda p: (sum(p), [-a for a in p]))
        return {
            "index": self.index.to_json(),
            "f": {partition_string(p): self.coeffs[p].to_json() for p in order},
        }


def class_polynomials(
    n: int, idx: BasisIndex, table: CharacterTable | None = None
) -> ClassPolyVector:
    """Solve for the coefficients f with chi[lam](T_idx) = sum_mu f[mu] chi[lam](mu-rep).

    The right side comes from the independent tensor trace oracle at r = n;
    the solution is exact over the fraction field and must clear to Laurent
    polynomials (a non-polynomial solution is a defect, not a result).
    """
    from . import tensorrep
    from .algebra import basis_element

    if idx.n != n:
        raise ValueError("index rank mismatch")
    if table is None:
        table = character_table(n)
    labels = table.labels
    traces = tensorrep.char_oracle(basis_element(idx), r=n)
    matrix = [[table.entries[(lam, mu)] for mu in labels] for lam in labels]
    rhs = [traces.get(lam, ZERO) for lam in labels]
    sol = solve_linear(matrix, rhs)
    coeffs = {}
    for mu, f in zip(labels, sol):
        if f.is_zero():
            continue
        if not f.is_laurent():
            raise ClassPolynomialDefect(f"non-polynomial coefficient at {mu}: {f!r}")
        coeffs[mu] = f.as_laurent()
    return ClassPolyVector(idx, coeffs)


# ---------------------------------------------------------------------------
# partition strings (CSV-safe, dot-separated)
# ---------------------------------------------------------------------------


def partition_string(p) -> str:
    p = tuple(p)
    return ".".join(str(a) for a in p) if p else "0"


def parse_partition(s: str) -> Partition:
    s = s.strip()
    if s in ("", "0"):
        return ()
    try:
        parts = tuple(int(a) for a in s.split("."))
    except ValueError as exc:
        raise ValueError(f"bad partition string {s!r}") from exc
    return check_partition(parts)
