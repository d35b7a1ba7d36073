"""Partitions, skew strips, Kostka numbers, permutations, and basis indices.

Partitions are plain tuples of weakly decreasing positive ints (the empty
tuple is the partition of 0), so they can key dictionaries everywhere.
Permutations are tuples of images `(w(1), ..., w(n))` with 1-based values and
compose right-to-left: (u v)(x) = u(v(x)).

The standard basis of the rank-n algebra is indexed by triples (A, B, w)
with A, B equal-size subsets of {1..n} and w a permutation fixing 1..k
pointwise (k = |A|); `standard_basis(n)` enumerates them in a fixed order so
serialized output is byte-stable.
"""

from __future__ import annotations

import itertools
from functools import cache, lru_cache
from math import comb, factorial

Partition = tuple[int, ...]
Permutation = tuple[int, ...]


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def check_partition(parts) -> Partition:
    p = tuple(int(a) for a in parts)
    if any(a <= 0 for a in p):
        raise ValueError(f"partition parts must be positive: {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError(f"parts must be weakly decreasing: {p}")
    return p


@cache
def partitions_of(k: int) -> tuple[Partition, ...]:
    """All partitions of k, lexicographically descending ((k) first, (1^k) last)."""
    if k < 0:
        return ()
    if k == 0:
        return ((),)

    def gen(remaining: int, maxpart: int, prefix: tuple):
        if remaining == 0:
            yield prefix
            return
        for a in range(min(remaining, maxpart), 0, -1):
            yield from gen(remaining - a, a, prefix + (a,))

    return tuple(gen(k, k, ()))


def partitions_up_to(n: int) -> list[Partition]:
    """All partitions of every k <= n, graded by size then lex-descending."""
    if n < 0:
        raise ValueError("n must be >= 0")
    out: list[Partition] = []
    for k in range(n + 1):
        out.extend(partitions_of(k))
    return out


def dominates(lam: Partition, mu: Partition) -> bool:
    """Dominance order on partitions of equal size."""
    s1 = s2 = 0
    for i in range(max(len(lam), len(mu))):
        s1 += lam[i] if i < len(lam) else 0
        s2 += mu[i] if i < len(mu) else 0
        if s1 < s2:
            return False
    return True


# ---------------------------------------------------------------------------
# skew strips
# ---------------------------------------------------------------------------


def strip_removals(lam: Partition, m: int):
    """Yield (nu, |lam/nu|, components) for every strip lam/nu with |lam/nu| <= m.

    The strip is read off consecutive rows instead of boxes (Macdonald,
    Symmetric Functions and Hall Polynomials, I.3 and III.5): lam/nu has no
    2x2 block iff nu_i >= lam_{i+1} - 1 for every row i, and consecutive
    non-empty rows i, i+1 lie in one component iff nu_i < lam_{i+1}.  A
    component running from row a down to row b occupies b - a + 1 rows and
    lam_a - nu_b columns.  Components are listed top to bottom; tests hold
    all of this against a brute-force analysis of the boxes.
    """
    lam = check_partition(lam)
    if m < 0:
        raise ValueError("m must be >= 0")
    if not lam:
        yield (), 0, ()
        return
    ell = len(lam)
    floor = [b - 1 for b in lam[1:]] + [0]

    def rows(i: int, budget: int, cap: int):
        if i == ell:
            yield ()
            return
        for a in range(min(lam[i], cap), max(floor[i], lam[i] - budget) - 1, -1):
            for tail in rows(i + 1, budget - (lam[i] - a), a):
                yield (a,) + tail

    total = sum(lam)
    for nu in rows(0, m, lam[0]):
        comps = []
        top = None  # first row of the component being read
        for i in range(ell + 1):
            if top is not None and (i == ell or nu[i] == lam[i] or nu[i - 1] >= lam[i]):
                comps.append((i - top, lam[top] - nu[i - 1]))
                top = None
            if top is None and i < ell and nu[i] < lam[i]:
                top = i
        yield tuple(a for a in nu if a), total - sum(nu), tuple(comps)


# ---------------------------------------------------------------------------
# Kostka numbers
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def kostka(lam: Partition, mu: Partition) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    Computed by peeling the horizontal strip of the largest entry: the
    strips of `strip_removals` of size mu[-1] whose components each span
    one row.  The cache is shared process-wide (lru_cache insertion is
    atomic per key).
    """
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"|{lam}| != |{mu}|")
    if not lam:
        return 1
    if not dominates(lam, mu):
        return 0
    last = mu[-1]
    rest = mu[:-1]
    return sum(
        kostka(nu, rest)
        for nu, size, comps in strip_removals(lam, last)
        if size == last and all(rows == 1 for rows, _ in comps)
    )


def _n_rearrangements(mu: Partition, r: int) -> int:
    """Number of distinct compositions of length r with parts a rearrangement of mu."""
    counts = {}
    for a in mu:
        counts[a] = counts.get(a, 0) + 1
    if len(mu) > r:
        return 0
    n = factorial(r)
    for c in counts.values():
        n //= factorial(c)
    n //= factorial(r - len(mu))
    return n


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------


def identity_perm(n: int) -> Permutation:
    return tuple(range(1, n + 1))


def pinverse(u: Permutation) -> Permutation:
    out = [0] * len(u)
    for i, a in enumerate(u):
        out[a - 1] = i + 1
    return tuple(out)


def reduced_word(w: Permutation) -> tuple[int, ...]:
    """A deterministic reduced word (s_{i_1} ... s_{i_l} = w, 1-based indices).

    Repeatedly strips the leftmost descent on the right, so each step removes
    exactly one inversion.
    """
    w = list(w)
    rev = []
    while True:
        for i in range(len(w) - 1):
            if w[i] > w[i + 1]:
                w[i], w[i + 1] = w[i + 1], w[i]
                rev.append(i + 1)
                break
        else:
            break
    return tuple(reversed(rev))


def apply_right_s(w: Permutation, i: int) -> Permutation:
    """w * s_i (swap the images at positions i, i+1; 1-based)."""
    out = list(w)
    out[i - 1], out[i] = out[i], out[i - 1]
    return tuple(out)


# ---------------------------------------------------------------------------
# basis indices
# ---------------------------------------------------------------------------


class BasisIndex:
    """Index (A, B, w) of a standard basis element of the rank-n algebra.

    A and B are sorted tuples of equal size k; w (stored as a full image
    list of length n) fixes 1..k pointwise.

    A value type: validated when built, immutable (assignment raises
    AttributeError), equal to and ordered like the tuple (A, B, w), and
    hashed like it.  The hash is computed once, since indices are dict keys
    on every product.  A slotted class, not a dataclass: no per-instance
    dict, and loading the package loads neither `dataclasses` nor `inspect`.
    """

    __slots__ = ("A", "B", "w", "_hash")

    def __init__(self, A: tuple[int, ...], B: tuple[int, ...], w: Permutation):
        n = len(w)
        k = len(A)
        if len(B) != k:
            raise ValueError("|A| != |B|")
        for s in (A, B):
            if list(s) != sorted(set(s)) or any(not 1 <= a <= n for a in s):
                raise ValueError(f"invalid subset {s} of 1..{n}")
        if sorted(w) != list(range(1, n + 1)):
            raise ValueError(f"invalid permutation {w}")
        if any(w[i] != i + 1 for i in range(k)):
            raise ValueError(f"w = {w} must fix 1..{k} pointwise")
        init = object.__setattr__
        init(self, "A", A)
        init(self, "B", B)
        init(self, "w", w)
        init(self, "_hash", hash((A, B, w)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: BasisIndex is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: BasisIndex is immutable")

    def __reduce__(self):
        # rebuilt through the constructor: validated, with a hash of this process
        return (BasisIndex, (self.A, self.B, self.w))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if other.__class__ is not BasisIndex:
            return NotImplemented
        return self.A == other.A and self.B == other.B and self.w == other.w

    def __lt__(self, other):
        if other.__class__ is not BasisIndex:
            return NotImplemented
        return (self.A, self.B, self.w) < (other.A, other.B, other.w)

    def __le__(self, other):
        if other.__class__ is not BasisIndex:
            return NotImplemented
        return (self.A, self.B, self.w) <= (other.A, other.B, other.w)

    def __gt__(self, other):
        if other.__class__ is not BasisIndex:
            return NotImplemented
        return (self.A, self.B, self.w) > (other.A, other.B, other.w)

    def __ge__(self, other):
        if other.__class__ is not BasisIndex:
            return NotImplemented
        return (self.A, self.B, self.w) >= (other.A, other.B, other.w)

    def __repr__(self):
        return f"BasisIndex(A={self.A!r}, B={self.B!r}, w={self.w!r})"

    @property
    def n(self) -> int:
        return len(self.w)

    @property
    def k(self) -> int:
        return len(self.A)

    def to_json(self) -> dict:
        return {"A": list(self.A), "B": list(self.B), "w": list(self.w)}

    @classmethod
    def from_json(cls, obj: dict) -> "BasisIndex":
        return cls(tuple(obj["A"]), tuple(obj["B"]), tuple(obj["w"]))


def _trusted_index(A: tuple, B: tuple, w: Permutation) -> BasisIndex:
    """A BasisIndex on fields that the caller built valid, made without the constructor's checks."""
    out = BasisIndex.__new__(BasisIndex)
    init = object.__setattr__
    init(out, "A", A)
    init(out, "B", B)
    init(out, "w", w)
    init(out, "_hash", hash((A, B, w)))
    return out


def fixing_permutations(n: int, k: int):
    """Permutations of {1..n} fixing 1..k, lexicographic by image list."""
    head = tuple(range(1, k + 1))
    for tail in itertools.permutations(range(k + 1, n + 1)):
        yield head + tail


def iter_standard_basis(n: int):
    """Yield the basis indices of rank n in the canonical order.

    Order: k ascending, then A and B lexicographic, then w lexicographic.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    universe = range(1, n + 1)
    for k in range(n + 1):
        for A in itertools.combinations(universe, k):
            for B in itertools.combinations(universe, k):
                for w in fixing_permutations(n, k):
                    yield BasisIndex(A, B, w)


def standard_basis(n: int) -> list[BasisIndex]:
    basis = list(iter_standard_basis(n))
    expected = standard_basis_count(n)
    if len(basis) != expected:
        raise AssertionError(
            f"basis enumeration mismatch at n={n}: {len(basis)} != {expected}"
        )
    return basis


def standard_basis_count(n: int) -> int:
    """Closed-form dimension sum_k C(n,k)^2 k! (equal to sum_k C(n,k)^2 (n-k)!)."""
    total = sum(comb(n, k) ** 2 * factorial(k) for k in range(n + 1))
    mirrored = sum(comb(n, k) ** 2 * factorial(n - k) for k in range(n + 1))
    if total != mirrored:
        raise AssertionError("dimension formulas disagree; enumeration defect")
    return total
