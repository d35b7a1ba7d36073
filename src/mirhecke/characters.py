"""Irreducible characters of the mirabolic Hecke algebra.

Rows of the character table are labelled by pairs (lambda, k) with lambda a
partition of k <= n; columns by the cocenter representatives attached to
partitions mu of size <= n.  Entries are computed by a recursion that strips
the last (smallest) part m of mu and sums over all ways of removing a strip
of size at most m from lambda:

    chi[lam](mu) = sum_nu g(|lam/nu|, m) * wtbar(lam, nu) * chi[nu](mu - last part)

with the base case chi[lam](empty) = [lam == empty].

The strips lam/nu come straight from the row-by-row generator
`combinatorics.strip_removals`, which also reads off their components.  For
each (lam, m, variant) the list of (nu, |nu|, g * wtbar) is built once by
`symfun.transitions`, the table the strip Pieri rule reads too, so the Pieri
brute-force check validates the very coefficients used here.  Values are
memoized in process only; nothing is written to disk.

The transition coefficients ship in two variants (`symfun.G_VARIANTS`).  The
default "oracle" variant passes the brute-force product oracle for every
tested size; the "paper" variant reproduces a published case list that
fails that oracle at m = 2 (kept selectable so the discrepancy is
demonstrable, never used by default).

Class polynomials express any standard basis element through the cocenter
representatives: the coefficient vector is the unique solution of the linear
system given by the character table against the Schur-Weyl trace oracle.  It
is solved fraction-free and must come out Laurent-polynomial: one exact
division by d = +-det(table) per coefficient.  Every basis element solves
against the same table, whose factorization `solve_linear` computes once.
That the table is invertible at sample points is checked in
`checks.determinant_nonzero`, by its rank over Q.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import (
    BasisIndex,
    Partition,
    check_partition,
    partitions_up_to,
)
from .ring import InexactDivisionError, LaurentScalar, ONE, ZERO, solve_linear
from .symfun import transitions


class ClassPolynomialDefect(RuntimeError):
    """Raised when a class-polynomial solution is not Laurent-polynomial."""


# ---------------------------------------------------------------------------
# the recursive character engine
# ---------------------------------------------------------------------------

_MN_CACHE: dict = {}


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
    for nu, nu_size, coeff in transitions(lam, m, variant):
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
    # the labels are canonical partitions of size <= n, so the recursion reads them as they are
    entries = {(lam, mu): _mn(n, lam, mu, variant, True) for lam in labels for mu in labels}
    return CharacterTable(n, labels, entries, variant)


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

    The right side comes from the independent tensor trace oracle at r = n.
    `solve_linear` gives (d, y) with f = y / d; each nonzero y[mu] must divide
    exactly by d in Z[v, v^-1] (a non-Laurent coefficient is a defect, not a
    result, and raises ClassPolynomialDefect).
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
    d, y = solve_linear(matrix, rhs)
    coeffs = {}
    for mu, y_mu in zip(labels, y):
        if y_mu.is_zero():
            continue
        try:
            coeffs[mu] = y_mu.exact_div(d)
        except InexactDivisionError:
            raise ClassPolynomialDefect(
                f"non-polynomial coefficient at {mu}: ({y_mu.to_string()}) / ({d.to_string()})"
            ) from None
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
