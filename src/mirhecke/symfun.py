"""Symmetric polynomials in r variables over the Laurent scalar ring.

A `SymPoly` stores a symmetric polynomial in x_1..x_r as a finitely
supported map from partitions to coefficients, in the monomial basis
m_lambda.  The Schur basis is a triangular view through Kostka numbers, so
`schur_expand` is exact elimination by dominance order.

The character theory lives in two one-parameter families evaluated at
(x_1, ..., x_r, 1):

- `qtilde(m, r)`: the weighted trace of a long braid cycle on m tensor
  factors, equal to sum over partitions mu of m of
  (-1)^(m - len(mu)) (q-1)^(len(mu)-1) m_mu;
- `g_poly(m, r)`: the weakly-increasing-sequence sum with weights
  q^(#equal adjacents) (q-1)^(#strict ascents).

They are exchanged by q -> q^-1 up to the factor (-q)^(m-1); that identity
and the generating-function description are exposed as exact checks.  The
strip Pieri rule `pieri_qtilde` expands qtilde * schur through `transitions`,
the strip weights times transition coefficients `g_coeff` (two variants, see
`G_VARIANTS`) that the character recursion reads too, and is always
verifiable against the brute-force product expansion.

Per-shape work is done once per process.  `_strips(lam)` enumerates every
strip of lam once, and `transitions(lam, m, variant)` keeps those of size
<= m on each call; it holds no memo of its own, since a character table
reads each (lam, m) once.  A coefficient g(t, m) * strip_weight(t,
components) depends only on the strip's shape, so `_strip_coeff` memoizes
it under (t, components, m, variant) (Macdonald, I.3 and III.5; Ram,
Invent. Math. 106 (1991)).
"""

from __future__ import annotations

import itertools
from functools import cache, lru_cache

from .combinatorics import (
    Partition,
    check_partition,
    _n_rearrangements,
    kostka,
    partitions_of,
    strip_removals,
)
from .ring import LaurentScalar, ONE, Q_MINUS_1, ZERO, accumulate

G_VARIANTS = ("oracle", "paper")


class SchurExpandError(ValueError):
    """Raised when a polynomial cannot be written in the Schur span."""


class SymPoly:
    """A symmetric polynomial in r variables, monomial-basis coefficients.

    The constructor copies `terms` (default: no terms) with each partition
    checked and without zero coefficients.  Equal when r and the terms are;
    unhashable.  Two slots and no per-instance dict.
    """

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms: dict | None = None):
        self.r = r
        clean = {}
        if terms is not None:
            for mu, c in terms.items():
                mu = check_partition(mu)
                if len(mu) > r:
                    raise ValueError(f"partition {mu} has more than r={r} parts")
                if c:
                    clean[mu] = c
        self.terms = clean

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, mu) -> LaurentScalar:
        return self.terms.get(tuple(mu), ZERO)

    def scale(self, s: LaurentScalar | int) -> "SymPoly":
        if isinstance(s, int):
            s = LaurentScalar.from_int(s)
        if not s:
            return SymPoly(self.r, {})
        return SymPoly(self.r, {mu: c * s for mu, c in self.terms.items()})

    def __add__(self, other: "SymPoly") -> "SymPoly":
        if self.r != other.r:
            raise ValueError("variable-count mismatch")
        terms = dict(self.terms)
        for mu, c in other.terms.items():
            accumulate(terms, mu, c)
        return SymPoly(self.r, terms)

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self + other.scale(-1)

    def __mul__(self, other: "SymPoly") -> "SymPoly":
        return mul_sym(self, other)

    def __eq__(self, other) -> bool:
        return isinstance(other, SymPoly) and self.r == other.r and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "SymPoly(0)"
        bits = [
            f"({self.terms[mu].to_string()})*m{list(mu)}"
            for mu in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True)
        ]
        return "SymPoly(" + " + ".join(bits) + ")"

    def to_json(self) -> dict:
        order = sorted(self.terms, key=lambda t: (sum(t), [-a for a in t]))
        return {
            "r": self.r,
            "basis": "m",
            "terms": [
                {"partition": list(mu), "coeff": self.terms[mu].to_json()} for mu in order
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "SymPoly":
        r = obj["r"]
        coeffs = {
            tuple(t["partition"]): LaurentScalar.from_json(t["coeff"]) for t in obj["terms"]
        }
        basis = obj.get("basis", "m")
        if basis == "m":
            return cls(r, coeffs)
        if basis == "s":
            return from_schur_coeffs(coeffs, r)
        raise ValueError(f"unknown basis {basis!r}")


def sym_zero(r: int) -> SymPoly:
    return SymPoly(r, {})


def sym_one(r: int) -> SymPoly:
    return SymPoly(r, {(): ONE})


def m_sym(mu, r: int) -> SymPoly:
    """The monomial symmetric polynomial m_mu(x_1..x_r)."""
    mu = check_partition(mu)
    if len(mu) > r:
        raise ValueError(f"m_sym needs len(mu) <= r, got {mu} with r={r}")
    return SymPoly(r, {mu: ONE})


def schur(lam, r: int) -> SymPoly:
    """The Schur polynomial s_lam(x_1..x_r); zero when lam has more than r rows."""
    lam = check_partition(lam)
    if len(lam) > r:
        return sym_zero(r)
    terms = {}
    for mu in partitions_of(sum(lam)):
        if len(mu) > r:
            continue
        k = kostka(lam, mu)
        if k:
            terms[mu] = LaurentScalar.from_int(k)
    return SymPoly(r, terms)


# ---------------------------------------------------------------------------
# monomial-level expansion (products)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _m_monomials(mu: Partition, r: int) -> tuple:
    """All distinct exponent vectors of m_mu in r variables."""
    padded = tuple(mu) + (0,) * (r - len(mu))
    return tuple(sorted(set(itertools.permutations(padded))))


def _to_monomials(p: SymPoly) -> dict:
    out = {}
    for mu, c in p.terms.items():
        for e in _m_monomials(mu, p.r):
            out[e] = c
    return out


def _fold_symmetric(vectors: dict) -> dict:
    """Fold coefficients on exponent vectors into partition keys, checking symmetry.

    `vectors` maps an exponent vector to a coefficient.  A vector is either a
    monomial in r variables, zeros kept, or a composition alpha, zeros
    removed, standing for the monomials of that content: a quasisymmetric
    polynomial in the monomial basis M_alpha (Gessel 1984).  Zero
    coefficients are dropped first, so a missing vector counts as zero.  The
    rest is symmetric iff the vectors with the same sorted nonzero parts lam
    carry one coefficient and make up the whole rearrangement orbit, of
    `_n_rearrangements(lam, len(vector))` vectors.  Returns {lam: coefficient}.
    The coefficients need only compare and test for zero, so packed ints
    (`ring.pack`) fold as well as scalars.
    """
    groups: dict = {}
    for e, c in vectors.items():
        if c:
            groups.setdefault(tuple(sorted((a for a in e if a), reverse=True)), []).append((e, c))
    terms: dict = {}
    for lam, group in groups.items():
        (e, c), *others = group
        if any(d != c for _, d in others) or len(group) != _n_rearrangements(lam, len(e)):
            raise AssertionError(f"asymmetric coefficients on rearrangements of {lam}")
        terms[lam] = c
    return terms


def mul_sym(p: SymPoly, q: SymPoly) -> SymPoly:
    if p.r != q.r:
        raise ValueError(f"variable-count mismatch: {p.r} != {q.r}")
    if p.is_zero() or q.is_zero():
        return sym_zero(p.r)
    a = _to_monomials(p)
    b = _to_monomials(q)
    if len(a) < len(b):
        a, b = b, a
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            accumulate(out, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
    return SymPoly(p.r, _fold_symmetric(out))


def schur_expand(p: SymPoly) -> dict:
    """Write p = sum c_lam s_lam(x_1..x_r); returns {lam: c_lam}.

    Elimination proceeds from the lexicographically largest partition in
    each degree; unitriangularity of the Kostka matrix (K_{ll} = 1) makes
    this exact.
    """
    rem = dict(p.terms)
    out: dict[Partition, LaurentScalar] = {}
    guard = 0
    while rem:
        guard += 1
        if guard > 100_000:
            raise SchurExpandError("Schur elimination failed to terminate")
        kappa = max(rem, key=lambda t: (sum(t), t))
        c = rem[kappa]
        out[kappa] = c
        for mu, k in schur(kappa, p.r).terms.items():
            accumulate(rem, mu, -(c * k))
        if kappa in rem:
            raise SchurExpandError(f"head term {kappa} did not eliminate")
    return out


def from_schur_coeffs(coeffs: dict, r: int) -> SymPoly:
    out = sym_zero(r)
    for lam, c in coeffs.items():
        out = out + schur(lam, r).scale(c)
    return out


# ---------------------------------------------------------------------------
# the Hall-Littlewood-type families at (x_1..x_r, 1)
# ---------------------------------------------------------------------------


def _m_with_trailing_one(mu: Partition, r: int) -> SymPoly:
    """m_mu(x_1, ..., x_r, 1): delete at most one part into the extra slot."""
    terms: dict[Partition, LaurentScalar] = {}
    if len(mu) <= r:
        terms[mu] = ONE
    for a in sorted(set(mu)):
        nu = list(mu)
        nu.remove(a)
        nu_t = tuple(nu)
        if len(nu_t) <= r:
            terms[nu_t] = terms.get(nu_t, ZERO) + ONE
    return SymPoly(r, terms)


def qtilde(m: int, r: int) -> SymPoly:
    """The normalized Hall-Littlewood generator evaluated at (x_1..x_r, 1).

    qtilde(0) is 1 by convention (empty product of parts).
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return sym_one(r)
    out = sym_zero(r)
    for mu in partitions_of(m):
        ell = len(mu)
        coeff = Q_MINUS_1 ** (ell - 1)
        if (m - ell) % 2:
            coeff = -coeff
        out = out + _m_with_trailing_one(mu, r).scale(coeff)
    return out


def qtilde_mu(mu, r: int) -> SymPoly:
    """Product of qtilde over the parts of mu (partition or composition)."""
    out = sym_one(r)
    for a in mu:
        out = mul_sym(out, qtilde(int(a), r))
    return out


def g_poly(m: int, r: int) -> SymPoly:
    """The ascent-weighted sequence sum g_m evaluated at (x_1..x_r, 1).

    Sums q^(#equal adjacent pairs) (q-1)^(#strict ascents) over weakly
    increasing sequences in {1..r+1}, the last letter standing for the
    variable specialized to 1.  g_0 = 1.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return sym_one(r)
    monos: dict = {}
    for seq in itertools.combinations_with_replacement(range(1, r + 2), m):
        e_cnt = sum(1 for a in range(m - 1) if seq[a] == seq[a + 1])
        g_cnt = sum(1 for a in range(m - 1) if seq[a] < seq[a + 1])
        coeff = LaurentScalar.q_power(e_cnt) * Q_MINUS_1**g_cnt
        expo = [0] * r
        for v in seq:
            if v <= r:
                expo[v - 1] += 1
        accumulate(monos, tuple(expo), coeff)
    return SymPoly(r, _fold_symmetric(monos))


def _bar_coeffs(p: SymPoly) -> SymPoly:
    """Apply q -> q^-1 to every coefficient (variables untouched)."""
    return SymPoly(p.r, {mu: c.bar() for mu, c in p.terms.items()})


def _neg_q_pow(e: int) -> LaurentScalar:
    s = LaurentScalar.q_power(e)
    return -s if e % 2 else s


def check_two_symmetric(m: int, r: int) -> bool:
    """Exact identity qtilde_m(y; q) = (-q)^(m-1) g_m(y; q^-1), m >= 1."""
    if m < 1:
        raise ValueError("m must be >= 1")
    rhs = _bar_coeffs(g_poly(m, r)).scale(_neg_q_pow(m - 1))
    return qtilde(m, r) == rhs


# ---------------------------------------------------------------------------
# independent reconstructions of qtilde (verification routes)
# ---------------------------------------------------------------------------


def qtilde_from_sequences(m: int, r: int) -> SymPoly:
    """qtilde via the weakly decreasing sequence sum (descent-weighted)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    monos: dict = {}
    for inc in itertools.combinations_with_replacement(range(1, r + 2), m):
        seq = tuple(reversed(inc))
        e_cnt = sum(1 for a in range(m - 1) if seq[a] == seq[a + 1])
        g_cnt = sum(1 for a in range(m - 1) if seq[a] > seq[a + 1])
        coeff = Q_MINUS_1**g_cnt
        if e_cnt % 2:
            coeff = -coeff
        expo = [0] * r
        for v in seq:
            if v <= r:
                expo[v - 1] += 1
        accumulate(monos, tuple(expo), coeff)
    return SymPoly(r, _fold_symmetric(monos))


def hl_q_from_generating(m: int, r: int) -> SymPoly:
    """The y^m coefficient of prod_{i=1}^{r+1} (1 - q x_i y)/(1 - x_i y), x_{r+1} = 1.

    Each factor expands as 1 + (1-q) sum_{j>=1} (x_i y)^j; the product is
    truncated at y-degree m.
    """
    one_minus_q = -Q_MINUS_1
    width = r + 1
    series: list[dict] = [{(0,) * r: ONE}] + [{} for _ in range(m)]
    for i in range(1, width + 1):
        factor: list[dict] = []
        for j in range(m + 1):
            if j == 0:
                factor.append({(0,) * r: ONE})
            else:
                expo = [0] * r
                if i <= r:
                    expo[i - 1] = j
                factor.append({tuple(expo): one_minus_q})
        new: list[dict] = [{} for _ in range(m + 1)]
        for d1, c1 in enumerate(series):
            for e1, a1 in c1.items():
                for d2 in range(m + 1 - d1):
                    for e2, a2 in factor[d2].items():
                        e = tuple(x + y for x, y in zip(e1, e2))
                        accumulate(new[d1 + d2], e, a1 * a2)
        series = new
    return SymPoly(r, _fold_symmetric(series[m]))


def check_generating(m: int, r: int) -> bool:
    """Exact cross-multiplied identity (q-1) qtilde_m = (-1)^m q_m from the product."""
    if m < 1:
        raise ValueError("m must be >= 1")
    lhs = qtilde(m, r).scale(Q_MINUS_1)
    rhs = hl_q_from_generating(m, r)
    if m % 2:
        rhs = rhs.scale(-1)
    return lhs == rhs


# ---------------------------------------------------------------------------
# the strip Pieri rule
# ---------------------------------------------------------------------------


def _strip_supersets(nu: Partition, m: int, r: int):
    """Partitions lam containing nu with |lam/nu| <= m and at most r rows."""
    if len(nu) > r:
        return
    max_rows = min(r, len(nu) + m)

    def gen(i: int, remaining: int, prefix: tuple):
        if i == max_rows:
            yield prefix
            return
        lo = nu[i] if i < len(nu) else 0
        hi = min(prefix[-1] if prefix else lo + remaining, lo + remaining)
        for a in range(hi, max(lo, 1) - 1, -1):
            yield from gen(i + 1, remaining - (a - lo), prefix + (a,))
        if lo == 0:
            # end the diagram at row i
            yield prefix

    yield from gen(0, m, ())


def strip_weight(size: int, components) -> LaurentScalar:
    """The inverted weight of a strip with the given size and components.

    This is the classical strip weight under q -> q^-1.  It is 1 for the
    empty strip (the Pieri oracle at m = 1 forces that convention); otherwise
    (-q)^(1 - size) (q-1)^(cc - 1) prod_b q^(rows(b)-1) (-1)^(cols(b)-1)
    over the (rows, cols) pairs b of its cc connected components.
    """
    if size == 0:
        return ONE
    out = _neg_q_pow(1 - size) * Q_MINUS_1 ** (len(components) - 1)
    for ro, co in components:
        out = out * LaurentScalar.q_power(ro - 1)
        if (co - 1) % 2:
            out = -out
    return out


def g_coeff(t: int, m: int, variant: str = "oracle") -> LaurentScalar:
    """Transition coefficient g_{t,m}(q) of the strip Pieri rule, m >= 1.

    oracle: t=0 -> (-1)^(m-1); 0<t<m -> (-1)^m (q-1) q^(t-1); t=m -> (-q)^(m-1).
    paper:  t=0 -> (-1)^m q;   0<t<m -> (-1)^(m-t+1) (q-1);   t=m -> 1.

    The oracle variant is what substituting the two-parameter symmetry into
    the classical Pieri expansion produces; the paper variant reproduces a
    published case list that fails the product oracle at m = 2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 0 <= t <= m:
        raise ValueError(f"t = {t} out of range 0..{m}")
    if variant not in G_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "oracle":
        if t == 0:
            return LaurentScalar.from_int(-1 if (m - 1) % 2 else 1)
        if t == m:
            return _neg_q_pow(m - 1)
        out = Q_MINUS_1 * LaurentScalar.q_power(t - 1)
        return -out if m % 2 else out
    if t == 0:
        out = LaurentScalar.q_power(1)
        return -out if m % 2 else out
    if t == m:
        return ONE
    return -Q_MINUS_1 if (m - t + 1) % 2 else Q_MINUS_1


@cache
def _strips(lam: Partition) -> tuple:
    """Every strip removal (nu, |lam/nu|, components) from lam, enumerated once per shape."""
    return tuple(strip_removals(lam, sum(lam)))


@cache
def _strip_coeff(size: int, components: tuple, m: int, variant: str) -> LaurentScalar:
    """g(size, m) * strip_weight(size, components), shared by all strips of one shape."""
    return g_coeff(size, m, variant) * strip_weight(size, components)


def transitions(lam: Partition, m: int, variant: str) -> tuple:
    """(nu, |nu|, g(t, m) * strip_weight(t, components)) for every strip lam/nu of size t <= m.

    The strips of size <= m are filtered from `_strips(lam)`, in the order
    `strip_removals(lam, m)` yields them, and their coefficients read from
    `_strip_coeff`.
    """
    k = sum(lam)
    return tuple(
        (nu, k - size, _strip_coeff(size, comps, m, variant))
        for nu, size, comps in _strips(lam)
        if size <= m
    )


def pieri_qtilde(m: int, nu, r: int, variant: str = "oracle") -> dict:
    """Schur coefficients of qtilde_m * s_nu via the strip expansion.

    Sums g_{t,m} times the inverted strip weight over all strips lam/nu of
    size t <= m, as read from `transitions(lam, m, variant)`.  The result must
    agree with the brute-force `schur_expand(mul_sym(qtilde(m, r), schur(nu, r)))`;
    the "paper" variant of the transition coefficients is provided for the
    documented comparison and fails that oracle at m = 2.
    """
    nu = check_partition(nu)
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return {nu: ONE} if len(nu) <= r else {}
    out: dict[Partition, LaurentScalar] = {}
    for lam in _strip_supersets(nu, m, r):
        c = next((c for mu, _, c in transitions(lam, m, variant) if mu == nu), ZERO)
        if c:
            out[lam] = c
    return out


def pieri_bruteforce(m: int, nu, r: int) -> dict:
    """Independent oracle: expand the product and read off Schur coefficients."""
    nu = check_partition(nu)
    return schur_expand(mul_sym(qtilde(m, r), schur(nu, r)))
