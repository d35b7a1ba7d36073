"""The mirabolic Hecke algebra: exact arithmetic in the standard basis.

The rank-n algebra is generated by braid generators T_1..T_{n-1} (quadratic
relation T_i^2 = (q-1)T_i + q) and idempotents P_1..P_n, with P_j absorbing
lower braid letters up to sign (P_j T_i = T_i P_j = -P_j for i < j) and
commuting with higher ones.  Its standard basis is indexed by triples
(A, B, w): the element is T_A * P_k * T_w * T_B^{-1} where T_A and T_B are
canonical shuffle words attached to the k-subsets A and B and w fixes 1..k.

Normal forms are computed through an internal *working basis* of elements
T_A * P_k * T_d, with d running over the minimal-length representatives of
the cosets S_k \\ S_n.  In that basis the generator actions are local:

- right multiplication by T_i is the usual two-term Hecke step followed by
  re-minimizing d (each discarded S_k-letter contributes a sign, since
  P_k T_j = -P_k for j < k);
- right multiplication by P_1 follows from the closed form
  P_k T_k T_{k-1} ... T_1 P_1
    = sum_{j=1}^{k-1} (-q)^{j-1}(q-1) P_k T_k...T_{j+1}
      + (-q)^{k-1}(q-1) P_k + (-1)^k q^k P_{k+1},
  obtained by repeatedly rewriting P_j T_j P_j = (q-1)P_j - q P_{j+1}.
  With m = d(1) > k, (P_k T_d) P_1 is T_{m-1} ... T_{k+1} times that form
  (times T_z on the right), and (T_A P_k T_d) P_1 is T_{a_j-1} ... T_j
  times the row of A with a_j replaced by j, for the first j with a_j > j.
  So each row is one group of left letters on a row already built.  A left
  letter acts on T_A P_k T_d by a four-case rule, from T_s T_w = T_{sw} or
  (q-1) T_w + q T_{sw} (Geck-Pfeiffer 2000, 4.4): T_i T_A P_k is
  T_{A-i+(i+1)} P_k if only i is in A, (q-1) T_A P_k + q T_{A-(i+1)+i} P_k
  if only i+1 is, -T_A P_k if both are, and T_A P_k T_p for one p > k if
  neither is; then T_p T_d is that step on the left of d.

Conversion between the working and standard bases is unitriangular with
respect to permutation length (the tail T_w T_B^{-1} expands as
q^{-len} T_{w c_B^{-1}} plus strictly shorter terms), so both directions are
exact over Z[q, q^-1].  Higher idempotents appearing in input words are
first expanded through P_j = -P_{j-1} T_{j-1}^{-1} P_{j-1}.

All coefficients live in Z[v, v^-1] with q = v^2; purely algebraic
computations stay in even v-exponents, and so do the engine tables: the T
rows are written in powers of q and every other table is built from them.

The engine runs on plain ints (Kronecker substitution, see `ring.pack`).
A product whose inputs are all in Z[q, q^-1], as every product of
generators is, packs each working coefficient p in q-slots as
p(q = 2^B) * 2^(B*E) (step 2), where one power of q is a shift of
unit = B bits; any other product packs in v-slots, p(v = 2^B) * 2^(B*E)
(step 1), unit = 2B.  Every table entry is a monomial a q^e that acts by
a shift of e units with a sign or a small scale.  Both substitutions are
ring homomorphisms, so every packed value is exactly the image of its true
Laurent coefficient, and a packed zero can be dropped without changing any
image downstream.  Only the decoded outputs must fit their slots:

- B.  An output is a unit lead^-1 times a bucket value, so every output
  coefficient is bounded by the l1 mass of the whole result,
  ||working(x)||_1 * sum_y ||c_y||_1 G(word_y) * G_elim(n).  A letter T^+-1
  multiplies the mass by at most 3 and P_1 by at most G_P1(n), the largest
  mass of a P_1 row, so G(word) = 3^(#T) G_P1(n)^(#P1) with each P_j counted
  as its expansion (2^(j-1) letters P_1, 2^(j-1) - 1 letters T^-1).
  G_elim(n) is the largest mass elimination makes from one unit key,
  g(k, d) = 1 + sum ||t||_1 g(k, d2) over the tail of its step.  Both are
  read off the complete tables of the rank when its `_Layout` is built,
  never at import.  B is `slot_bits` of that bound and never a setting.
- E.  Every right shift must be exact, so -E * step is a lower bound on
  every v-exponent (even with step 2) of every intermediate value: x's
  lowest working exponent, less 2 per inverse letter (those inside P_j
  included); the stack is covered both before and after it is scaled by
  c_y.  P_1 letters and elimination lower no exponent: `_Layout` raises
  `NegativeExponentError` when a P_1 row or an elimination step of the
  rank has a negative power of q.

Decoding is exact because the true output coefficients satisfy
|a| < 2^(B-1), where balanced base-2^B digits are unique.  Nothing scans
an output for odd exponents: q-slots cannot hold one.  One engine,
`_product`, serves `mul`, `reduce_word` and `rmul_gen`.

Key ids.  The engine's working elements are {kid: packed int}.  Every
working key (A, d) of rank n has a dense id kid = blocks[A] + index_k(d):
index_k(d) is the position of d among the n!/k! minimal representatives
of S_k \\ S_n, shortest first, and every k-subset A owns a block of n!/k!
ids, the blocks laid out for k = 0..n in `itertools.combinations` order
(`_Layout`).  Every row names its targets by the shift delta = target -
kid.  The T^+-1 rows, the elimination steps and the working expansions of
the standard elements depend only on the shape (k, d), so each is built
once per shape and applies to every A; the P_1 rows change A and are
built per kid.  A constant with several monomials, such as q - 1, is
several entries.  One kernel, `ring.apply_rows` with `sel` = `kid_shape`
for the per-shape tables and the ids themselves for the P_1 rows, shifts,
signs and accumulates every row table (T^+-1, P_1, `tails`);
`_to_standard` does the same per length bucket.  The same kernel applies
the letter rows of tensor space (`tensorrep`).  Ids are mapped to and
from a BasisIndex only where a product enters and leaves the engine.

Working to standard is an elimination: the key (A, d) is the unit leading
term of one standard element (A, B, w), so it is replaced by that element
minus its strictly shorter tail terms.  `_to_standard` buckets the keys by
length(d) and drains the buckets from the longest down; every tail term
lands in a shorter bucket, so each key is eliminated exactly once.
`_product` right-multiplies x by the words of its terms in sorted order,
restarting each word from the partial product of its longest common prefix
with the previous word.

What is memoized, and where (`clear_caches` empties all of it):

- `_layout(n)` is the one engine state of rank n, complete when it is
  built: the ids, `t_rows` (T^+-1, per shape and letter), `steps`, `tails`
  and `tail_bounds` (per shape), `p1_rows`, `basis` (per kid), `kids`, the
  gains G_P1 and G_elim, and the `letters` of the rank.
  Every table is a product of the rank's T rows, in ids and powers of q;
  the build does no LaurentScalar arithmetic.  The T rows are written by
  Deodhar's lemma (`_t_row`).  The standard element T_A P_k T_w T_B^-1 is
  the key (A, w) times the T^-1 letters of T_B^-1, so its `tails` row is
  those T^-1 rows applied to one monomial, and its step (`_standard_step`)
  is read off that row: the monomial at delta 0 is the unit lead, the
  others the strictly shorter tail.  A P_1 row is built by
  `_Layout.rmul_p1` from an earlier row, or from `_p1_closed_form` (the
  keys of P_k T_k ... T_{j+1} times the T rows of z), with the left rule
  `_Layout.t_left`.  Each distinct monomial, row, step-tail entry and step
  is one object across all tables.  The tests compare every T row, step,
  tail, closed form and P_1 row with a term-by-term Hecke product on
  LaurentScalar.
- `functools.cache` memos (`cache_info()` gives hits, misses and size):
  the builders' helpers `_absorb` (the coset split of a permutation),
  `_cycle_perm`, `_subset_perm` and `_pi_expansion`, and the per-index
  word and gains `_basis_data` of the terms of y in `mul`.

Each table and memo is bounded by the size of the basis or the working
basis, times the number of generators.  The defining relations are checked
through `mul` in `mirhecke.checks`.
"""

from __future__ import annotations

import itertools
from functools import cache, lru_cache
from typing import Iterable, Iterator

from .combinatorics import (
    BasisIndex,
    Permutation,
    apply_left_s,
    apply_right_s,
    identity_perm,
    iter_standard_basis,
    pcompose,
    pinverse,
    plength,
    reduced_word,
)
from .ring import (
    LaurentScalar,
    ONE,
    Q,
    Q_MINUS_1,
    ZERO,
    accumulate,
    apply_rows,
    pack,
    slot_bits,
    unpack,
)

# a generator letter is ("T", i, +1 | -1) or ("P", j)
Letter = tuple


class NegativeExponentError(ArithmeticError):
    """Raised when a P_1 row or an elimination step built for a rank has a power of q below 0."""


class GeneratorWord:
    """A word in the generators T_i, T_i^-1 (1 <= i <= n-1) and P_j (1 <= j <= n)."""

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: Iterable[Letter]):
        self.n = n
        self.letters = tuple(letters)
        for lt in self.letters:
            if lt[0] == "T":
                _, i, e = lt
                if not (1 <= i <= n - 1) or e not in (1, -1):
                    raise ValueError(f"bad letter {lt} for rank {n}")
            elif lt[0] == "P":
                _, j = lt
                if not (1 <= j <= n):
                    raise ValueError(f"bad letter {lt} for rank {n}")
            else:
                raise ValueError(f"unknown letter {lt}")

    def reversed(self) -> "GeneratorWord":
        return GeneratorWord(self.n, tuple(reversed(self.letters)))

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, GeneratorWord)
            and self.n == other.n
            and self.letters == other.letters
        )

    def __repr__(self):
        def fmt(lt):
            if lt[0] == "P":
                return f"P{lt[1]}"
            return f"T{lt[1]}" + ("" if lt[2] == 1 else "^-1")

        return " ".join(fmt(lt) for lt in self.letters) or "1"


# ---------------------------------------------------------------------------
# permutation scaffolding for the working basis
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _cycle_perm(n: int, m: int, i: int) -> Permutation:
    """Permutation of the word T_{m-1} T_{m-2} ... T_i: i -> m, t -> t-1 on (i, m]."""
    out = list(range(1, n + 1))
    if m > i:
        out[i - 1] = m
        for t in range(i + 1, m + 1):
            out[t - 1] = t - 1
    return tuple(out)


@lru_cache(maxsize=None)
def _subset_perm(n: int, A: tuple[int, ...]) -> Permutation:
    """The permutation of the word T_A: j -> a_j on 1..k, increasing elsewhere."""
    k = len(A)
    rest = [x for x in range(1, n + 1) if x not in set(A)]
    return tuple(A) + tuple(rest) if k else tuple(rest)


def _subset_word(A: tuple[int, ...]) -> tuple[int, ...]:
    """Letters of T_A = T_{a_1,1} T_{a_2,2} ... (1-based T indices)."""
    letters = []
    for j, a in enumerate(A, start=1):
        letters.extend(range(a - 1, j - 1, -1))
    return tuple(letters)


@cache
def _absorb(k: int, u: Permutation) -> tuple[int, Permutation]:
    """Split u = u1 * d with u1 in S_k and d minimal in the coset S_k u (memoized).

    Returns ((-1)^length(u1), d); multiplying P_k by the S_k-part contributes
    exactly that sign.  `_Layout` asks for every (k, u) of its rank, and
    every table builder asks again.
    """
    if k <= 1:
        return 1, u
    inv = pinverse(u)
    seq = inv[:k]
    sign = 1
    for a in range(k):
        for b in range(a + 1, k):
            if seq[a] > seq[b]:
                sign = -sign
    order = sorted(range(k), key=lambda t: seq[t])
    relabel = [0] * (k + 1)
    for t, jm1 in enumerate(order):
        relabel[jm1 + 1] = t + 1
    d = tuple(relabel[a] if a <= k else a for a in u)
    return sign, d


@lru_cache(maxsize=None)
def _pi_expansion(j: int) -> tuple[int, tuple[Letter, ...]]:
    """P_j as (sign, word) over {P_1, T_i^-1}: P_j = sign * product(word)."""
    if j == 1:
        return 1, (("P", 1),)
    _, prev = _pi_expansion(j - 1)
    return -1, prev + (("T", j - 1, -1),) + prev


# ---------------------------------------------------------------------------
# the working-basis engine on key ids
# ---------------------------------------------------------------------------


def _letters(n: int) -> list:
    """One tuple per generator letter of rank n: (T_i, T_i^-1, P_i) at position i."""
    return [(("T", i, 1), ("T", i, -1), ("P", i)) for i in range(n + 1)]


def _t_row(index_k: dict, k: int, d: Permutation, i: int, inv: bool) -> tuple:
    """The row of (P_k T_d) * T_i^{+-1} by Deodhar's lemma, in powers of q.

    For a minimal representative d of S_k \\ S_n, either d s_i is minimal
    too, or d s_i = s_j d with s_j in S_k.  The latter happens exactly on an
    ascent d(i) < d(i+1) with both values <= k, and then both signs give
    -P_k T_d, because P_k T_j = -P_k and so P_k T_j^-1 = -P_k.  Otherwise,
    with delta the id shift from d to d s_i, an ascent gives T_{d s_i} for
    T_i and q^-1 T_{d s_i} + (q^-1 - 1) T_d for T_i^-1, and a descent gives
    (q-1) T_d + q T_{d s_i} for T_i and T_{d s_i} for T_i^-1.  The monomials
    come in the order of a term-by-term Hecke product, so that equal rows
    are equal tuples.
    """
    a, b = d[i - 1], d[i]
    if a < b and b <= k:
        return ((0, 0, -1),)
    delta = index_k[apply_right_s(d, i)] - index_k[d]
    if a < b:
        return ((delta, -1, 1), (0, 0, -1), (0, -1, 1)) if inv else ((delta, 0, 1),)
    return ((delta, 0, 1),) if inv else ((0, 1, 1), (0, 0, -1), (delta, 1, 1))


def _rmul_t(t_rows: list, row: tuple, slots: Iterable[int]) -> tuple:
    """A row of monomials (shape, e, a) on absolute shape ids times the T rows of each slot in turn.

    Slot 2(i-1) + inv is T_i^{+-1}, as in `_Layout.t_rows`; a row's delta
    moves a shape id as it moves a key id.  Exact zeros are dropped.
    """
    for slot in slots:
        rows = t_rows[slot]
        out: dict = {}
        get = out.get
        for s, e, a in row:
            for delta, e2, a2 in rows[s]:
                key = s + delta, e + e2
                out[key] = get(key, 0) + a * a2
        row = tuple((s, e, a) for (s, e), a in out.items() if a)
    return row


def _standard_step(row: tuple, lengths: tuple, s: int) -> tuple:
    """The elimination step of shape s, read off its `tails` row.

    The standard element (A, B, w) is lead * T_A P_k T_d plus tail terms
    t * T_A P_k T_d2, each d2 strictly shorter than d; the lead is the one
    monomial of the row at delta 0.  So T_A P_k T_d = lead^-1 (A, B, w) +
    sum (-t lead^-1) T_A P_k T_d2, and the step is (length(d), e, a, tail)
    for lead^-1 = a q^e, each tail entry (delta, e2, a2, length(d2)) for
    -t lead^-1 = a2 q^e2; `lengths` holds length(d) per shape id.
    Raises AssertionError if lead is not a unit or a tail term is not shorter.
    """
    lead = [(e, a) for delta, e, a in row if not delta]
    if len(lead) != 1 or lead[0][1] not in (1, -1):
        raise AssertionError(f"non-unit leading coefficient for shape {s}")
    ((e, a),) = lead
    ld = lengths[s]
    tail = []
    for delta, e2, a2 in row:
        if delta:
            l2 = lengths[s + delta]
            if l2 >= ld:
                raise AssertionError("length triangularity violated")
            tail.append((delta, e2 - e, -a2 * a, l2))
    return ld, -e, a, tuple(tail)


def _p1_closed_form(lay: "_Layout", k: int, d: Permutation) -> tuple:
    """P_k T_k ... T_1 P_1 T_z for 1 <= k < m = d(1), as a row of monomials (kid, e, a).

    The closed form of the module docstring, with T_z multiplied in on the
    right for z = (T_{m-1} ... T_1)^-1 d.  T_k ... T_{j+1} maps j+1 to k+1
    and keeps 1..j in order, so it is its own minimal representative: each
    P_k term is that key times its monomials of (-q)^(j-1)(q-1), times the
    T rows of the letters of z.  The ids are absolute; every A' is 1..k or
    1..k+1.  (P_k T_d) * P_1 is T_{m-1} ... T_{k+1} times this.
    """
    n = len(d)
    z = pcompose(pinverse(_cycle_perm(n, d[0], 1)), d)
    Ak = tuple(range(1, k + 1))
    base = lay.blocks[Ak]
    first = lay.kid_shape[base]  # the shape id of (k, identity)
    terms = []
    for j in range(1, k + 1):  # j = k is P_k itself
        shape = first + lay.index[k][_cycle_perm(n, k + 1, j + 1)]
        sign = 1 if j % 2 else -1
        terms += [(shape, j, sign), (shape, j - 1, -sign)]
    row = _rmul_t(lay.t_rows, tuple(terms), [2 * i - 2 for i in reduced_word(z)])
    sign, dd = _absorb(k + 1, z)  # (-q)^k P_{k+1} T_z
    last = (lay.kid(Ak + (k + 1,), dd), k, sign if k % 2 == 0 else -sign)
    return tuple((base + s - first, e, a) for s, e, a in row) + (last,)


class _Layout:
    """Dense int ids for the working keys (A, d) of rank n, and every table the engine reads.

    A shape is a pair (k, d); shape ids run over k = 0..n and, within k,
    over index_k(d).  kid(A, d) = blocks[A] + index_k(d).  Every table is
    complete when `__init__` returns.  A row is a tuple of monomials
    (delta, e, a), the term a q^e of target kid + delta, which
    `ring.apply_rows` reads; equal rows are one shared tuple:

    - `t_rows[2(i-1) + inv][shape]`: T_i^{+-1};
    - `p1_rows[kid]`: P_1, built in ascending kid order, so the parent that
      `rmul_p1` reads is always built;
    - `tails[shape]`: the standard element (A, B, w) that key (A, d) leads,
      in the working basis and the same for every A; `tail_bounds[shape]`
      is its (l1 mass, lowest exponent capped at 0).

    Every table is a product of the T rows.  The T rows are written by
    `_t_row`.  (A, B, w) = T_A P_k T_w T_B^-1 with w fixing 1..k, so its
    tails row is the T_t^-1 rows of the letters of T_B^-1 applied to the
    one monomial at (k, w).  `steps[shape]` is `_standard_step` of that
    row: (length(d), lead^-1 exponent, lead^-1 sign, tail), each tail entry
    (delta, e, a, length(d2)).  A P_1 row is `rmul_p1`.  Each distinct
    monomial, row, step-tail entry and step is one object, shared by every
    table that holds it.

    `basis[kid]` is the BasisIndex that key kid leads; `kids` is its
    inverse.  Every exponent is a power of q.  `g_p1` is the largest l1
    mass of a P_1 row.  `g_elim` is the largest mass that elimination makes
    from a unit key, g(k, d) = 1 + sum ||t||_1 g(k, d2) over the tail t of
    the step.  No P_1 row and no step lowers an exponent: every exponent in
    them is >= 0, or `NegativeExponentError` is raised, so neither needs a
    term in the offset of `_product`.
    """

    __slots__ = (
        "n", "shapes", "index", "blocks", "kid_A", "kid_shape", "t_rows", "p1_rows", "steps",
        "tails", "tail_bounds", "basis", "kids", "letters", "g_p1", "g_elim",
    )

    def __init__(self, n: int):
        perms = list(itertools.permutations(range(1, n + 1)))
        reps = [
            sorted({_absorb(k, u)[1] for u in perms}, key=lambda d: (plength(d), d))
            for k in range(n + 1)
        ]
        self.n = n
        self.shapes = shapes = [(k, d) for k in range(n + 1) for d in reps[k]]
        self.index = index = [{d: t for t, d in enumerate(ds)} for ds in reps]
        self.blocks: dict[tuple, int] = {}
        self.kid_A: list[tuple] = []
        self.kid_shape: list[int] = []
        first = [0]  # first[k]: the shape id of (k, identity)
        for k, ds in enumerate(reps):
            for A in itertools.combinations(range(1, n + 1), k):
                self.blocks[A] = len(self.kid_A)
                self.kid_A.extend([A] * len(ds))
                self.kid_shape.extend(range(first[k], first[k] + len(ds)))
            first.append(first[k] + len(ds))
        # one object per distinct monomial, row, step-tail entry and step (at
        # n = 5, 117 of 2,608 T rows are distinct)
        shared: dict = {}

        def intern(row: tuple) -> tuple:
            got = shared.get(row)
            if got is None:
                got = tuple([shared.setdefault(m, m) for m in row])
                shared[got] = got
            return got

        self.t_rows = [[] for _ in range(2 * (n - 1))]
        for slot, rows in enumerate(self.t_rows):
            i, inv = slot // 2 + 1, slot % 2 == 1
            for k, d in shapes:
                rows.append(intern(_t_row(index[k], k, d, i, inv)))
        lengths = tuple(plength(d) for _, d in shapes)
        self.steps, self.tails, self.tail_bounds, leads, gain = [], [], [], [], []
        for s, (k, d) in enumerate(shapes):  # shortest first: every tail shape is known
            B = pinverse(d)[:k]
            w = pcompose(d, _subset_perm(n, B))
            leads.append((B, w))
            inverse = [2 * t - 1 for j in range(k, 0, -1) for t in range(j, B[j - 1])]
            row = _rmul_t(self.t_rows, ((first[k] + index[k][w], 0, 1),), inverse)
            row = intern(tuple((s2 - s, e, a) for s2, e, a in row))
            self.tails.append(row)
            self.tail_bounds.append((sum(abs(a) for *_, a in row), min(0, *(e for _, e, _ in row))))
            ld, e, a, tail = _standard_step(row, lengths, s)
            if e < 0 or any(e2 < 0 for _, e2, _, _ in tail):
                raise NegativeExponentError(f"elimination step of shape {(k, d)} lowers q")
            step = ld, e, a, intern(tail)
            self.steps.append(shared.setdefault(step, step))
            gain.append(1 + sum(abs(a2) * gain[s + delta] for delta, _, a2, _ in tail))
        self.g_elim = max(gain)
        self.basis = [BasisIndex(A, *leads[s]) for A, s in zip(self.kid_A, self.kid_shape)]
        self.kids = {idx: kid for kid, idx in enumerate(self.basis)}
        self.letters = _letters(n)
        self.p1_rows: list[tuple] = []
        for kid in range(len(self.kid_A)):
            row = self.rmul_p1(kid)
            if any(e < 0 for _, e, _ in row):
                raise NegativeExponentError(f"P_1 row of key {self.key(kid)} lowers q")
            self.p1_rows.append(intern(row))
        self.g_p1 = max(sum(abs(a) for _, _, a in row) for row in self.p1_rows)

    def kid(self, A: tuple, d: Permutation) -> int:
        return self.blocks[A] + self.index[len(A)][d]

    def key(self, kid: int) -> tuple:
        """The working key (A, d) of an id."""
        return self.kid_A[kid], self.shapes[self.kid_shape[kid]][1]

    def rmul_p1(self, kid: int) -> tuple:
        """The row of (T_A P_k T_d) * P_1 for kid = (A, d), from an already-built row or the T rows.

        If a_j > j for some j, the first such, the row is T_{a_j-1} ... T_j
        times the row of the parent, A with a_j replaced by j (an earlier
        subset in `itertools.combinations` order, so a smaller kid); for
        m = d(1) <= k it is the parent's row itself (its one delta moves to
        A's block).  Else A = 1..k, and the row is one term for k = 0 or
        m <= k, else T_{m-1} ... T_{k+1} times `_p1_closed_form`, the T rows
        of z applied to the keys of P_k T_k ... T_{j+1}.  The left letters
        act by `t_left` on absolute ids; the row is returned in id deltas
        and powers of q, and `__init__` shares it with every equal row.
        """
        A, d = self.key(kid)
        k, m = len(A), d[0]
        j = next((j for j, a in enumerate(A, 1) if a > j), 0)
        letters = ()
        if j:
            parent = self.kid(A[: j - 1] + (j,) + A[j:], d)
            if m <= k:
                return self.p1_rows[parent]
            row = tuple((parent + delta, e, a) for delta, e, a in self.p1_rows[parent])
            letters = range(j, A[j - 1])
        elif k and m > k:
            row = _p1_closed_form(self, k, d)
            letters = range(k + 1, m)
        else:
            z = pcompose(pinverse(_cycle_perm(self.n, m, 1)), d)
            if not k:
                row = ((self.kid((m,), z), 0, 1),)
            else:  # P_1 T_z passes P_k with one sign per letter T_{m-1} .. T_1
                sign, dd = _absorb(k, z)
                row = ((self.kid(A, dd), 0, -sign if (m - 1) % 2 else sign),)
        for i in letters:
            row = self.t_left(row, i)
        return tuple((target - kid, e, a) for target, e, a in row)

    def t_left(self, row: tuple, i: int) -> tuple:
        """T_i * row for a row of monomials (kid, e, a) on absolute ids, by the four-case left rule.

        The cases are those of the module docstring.  If neither i nor i+1
        is in A, T_i T_A = T_A T_p for p = k + #{letters <= i outside A},
        and T_p T_d is T_{s_p d} if d^-1(p) < d^-1(p+1), else
        (q-1) T_d + q T_{s_p d}; s_p d is again a minimal representative.
        """
        out: dict = {}
        get = out.get
        kid_A, kid_shape, shapes, index = self.kid_A, self.kid_shape, self.shapes, self.index
        moves: dict = {}  # per subset A in the row
        for kid, e, a in row:
            A = kid_A[kid]
            move = moves.get(A)
            if move is None:
                move = moves[A] = self.left_move(A, i)
            case, x = move
            if case == 3:
                terms = ((kid, e, -a),)
            elif case == 1:
                terms = ((kid + x, e, a),)
            elif case == 2:
                terms = ((kid, e + 1, a), (kid, e, -a), (kid + x, e + 1, a))
            else:
                k, d = shapes[kid_shape[kid]]
                kid2 = kid - index[k][d] + index[k][apply_left_s(d, x)]
                if d.index(x) < d.index(x + 1):
                    terms = ((kid2, e, a),)
                else:
                    terms = ((kid, e + 1, a), (kid, e, -a), (kid2, e + 1, a))
            for kid2, e2, a2 in terms:
                key = kid2, e2
                out[key] = get(key, 0) + a2
        return tuple((kid, e, a) for (kid, e), a in out.items() if a)

    def left_move(self, A: tuple, i: int) -> tuple:
        """How T_i meets T_A, as (case, x) for `t_left`.

        Case 3: i and i+1 are both in A.  Case 1 (only i) and case 2 (only
        i+1): x is the id shift from A's block to that of A with i and i+1
        swapped.  Case 0 (neither): x = p.
        """
        if i in A and i + 1 in A:
            return 3, 0
        if i in A or i + 1 in A:
            A2 = tuple(i + 1 if x == i else i if x == i + 1 else x for x in A)
            return 1 if i in A else 2, self.blocks[A2] - self.blocks[A]
        return 0, len(A) + i - sum(x < i for x in A)


@cache
def _layout(n: int) -> _Layout:
    """The key ids and complete engine tables of rank n, built at once (memoized)."""
    return _Layout(n)


def _w_rmul_letter(lay: _Layout, elem: dict, letter: Letter, unit: int) -> dict:
    if letter[0] == "T":
        rows = lay.t_rows[2 * letter[1] - 2 + (letter[2] == -1)]
        return apply_rows(elem, rows, lay.kid_shape, unit)
    if letter[1] == 1:
        return apply_rows(elem, lay.p1_rows, range(len(lay.p1_rows)), unit)
    sign, word = _pi_expansion(letter[1])
    for lt in word:
        elem = _w_rmul_letter(lay, elem, lt, unit)
    return {key: -c for key, c in elem.items()} if sign < 0 else elem


def _to_standard(lay: _Layout, welem: dict, bits: int, offset: int, step: int) -> dict:
    """Unitriangular elimination from the packed working basis to decoded standard terms.

    Keys are bucketed by length(d) and drained from the longest down; every
    tail term is strictly shorter, so a bucket is complete when it is reached
    and the order within it does not matter.
    """
    steps, shape, basis = lay.steps, lay.kid_shape, lay.basis
    unit = 2 // step * bits
    out: dict[BasisIndex, LaurentScalar] = {}
    buckets: list[dict] = []
    for kid, c in welem.items():
        ld = steps[shape[kid]][0]
        while len(buckets) <= ld:
            buckets.append({})
        buckets[ld][kid] = c
    for ld in range(len(buckets) - 1, -1, -1):
        for kid, c in buckets[ld].items():
            _, e, a, tail = steps[shape[kid]]
            t = c if not e else c << e * unit if e > 0 else c >> -e * unit
            out[basis[kid]] = unpack(t if a == 1 else -t, bits, offset, step)
            for delta, e, a, l2 in tail:
                t = c if not e else c << e * unit if e > 0 else c >> -e * unit
                bucket = buckets[l2]
                key = kid + delta
                v = bucket.get(key)
                if v is None:
                    bucket[key] = t if a == 1 else -t if a == -1 else a * t
                else:
                    v = v + t if a == 1 else v - t if a == -1 else v + a * t
                    if v:
                        bucket[key] = v
                    else:
                        del bucket[key]
    return out


# -- a priori slot width and offset -----------------------------------------


def _word_bounds(n: int, letters: tuple) -> tuple[int, int]:
    """(gain, drop) of a generator word at rank n.

    The gain 3^(#T) G_P1^(#P1) bounds how much the word multiplies the l1
    mass of a working element; the drop 2 (#T^-1) bounds how far it lowers
    the lowest v-exponent (a P_1 row lowers none).  Each P_j counts as its
    expansion `_pi_expansion(j)`.
    """
    t = inv = p1 = 0
    for lt in letters:
        for x in _pi_expansion(lt[1])[1] if lt[0] == "P" else (lt,):
            if x[0] == "T":
                t += 1
                inv += x[2] == -1
            else:
                p1 += 1
    return 3**t * _layout(n).g_p1**p1, 2 * inv


def _read(c: LaurentScalar) -> tuple[int, int, bool]:
    """(lowest exponent, l1 norm, all exponents even) of a nonzero scalar, in one pass."""
    lo = None
    mass = 0
    even = True
    for e, a in c.items():
        if lo is None or e < lo:
            lo = e
        mass += abs(a)
        even = even and not e & 1
    return lo, mass, even


@cache
def _basis_data(idx: BasisIndex) -> tuple:
    """(letters, gain, drop) of a basis index: `basis_word(idx)` and its `_word_bounds` (memoized).

    The letters are the rank's shared letter tuples and are not checked
    again: a BasisIndex is validated when it is made, and its basis word is
    then a valid word of rank idx.n.
    """
    letters = tuple(_basis_letters(idx, _layout(idx.n).letters))
    return letters, *_word_bounds(idx.n, letters)


def clear_caches() -> None:
    """Drop all memoized engine state, the id layouts and tables included.

    Useful in long-running processes.
    """
    for fn in (
        _layout, _basis_data, _absorb, _cycle_perm, _subset_perm, _pi_expansion,
    ):
        fn.cache_clear()


def _product(x: "AlgebraElement", words: list) -> "AlgebraElement":
    """x * sum c * word over words = [(letters, gain, drop, c), ...] in normal form.

    One pass over x and one over the words read every coefficient for the
    slot width, the offset and the slot unit (q-slots when every
    coefficient is in Z[q, q^-1], else v-slots); then x is packed into the
    working basis and right-multiplied by the words in sorted order, each
    starting from the stored partial product of its longest common prefix
    with the previous word.
    """
    n = x.n
    if not x.terms or not words:
        return AlgebraElement(n, {})
    lay = _layout(n)
    kids, tail_bounds, shape = lay.kids, lay.tail_bounds, lay.kid_shape
    mass_x = 0
    lo_x = None
    even = True
    for idx, c in x.terms.items():
        lo, mass, ev = _read(c)
        tail_mass, tail_lo = tail_bounds[shape[kids[idx]]]
        mass_x += mass * tail_mass
        lo_x = lo + 2 * tail_lo if lo_x is None else min(lo_x, lo + 2 * tail_lo)
        even = even and ev
    gain = 0
    low = lo_x
    scaled = []
    for letters, g, drop, c in words:
        lo, mass, ev = _read(c)
        gain += mass * g
        # the stack before and after it is scaled by c; elimination lowers nothing
        low = min(low, lo_x - drop + min(lo, 0))
        even = even and ev
        scaled.append((letters, c, max(0, -lo)))
    bits = slot_bits(mass_x * gain * lay.g_elim)
    step = 2 if even else 1  # every exponent, low included, is even when step is 2
    unit = 2 // step * bits  # the shift of one power of q
    offset = -low // step
    packed = {kids[idx]: pack(c, bits, offset, step) for idx, c in x.terms.items()}
    scaled.sort(key=lambda t: t[0])  # by word alone: scalars do not compare
    stack = [apply_rows(packed, lay.tails, shape, unit)]  # stack[j]: x times prev[:j]
    prev: tuple = ()
    total: dict = {}
    get = total.get
    for letters, c, shift in scaled:
        j = 0
        while j < len(prev) and j < len(letters) and prev[j] == letters[j]:
            j += 1
        del stack[j + 1 :]
        for lt in letters[j:]:
            stack.append(_w_rmul_letter(lay, stack[-1], lt, unit))
        prev = letters
        shift //= step
        cp = pack(c, bits, shift, step)
        shift *= bits
        for kid, s in stack[-1].items():
            t = (s * cp) >> shift if shift else s * cp if cp != 1 else s
            v = get(kid)
            if v is None:
                total[kid] = t
            else:
                v += t
                if v:
                    total[kid] = v
                else:
                    del total[kid]
    return AlgebraElement(n, _to_standard(lay, total, bits, offset, step))


# ---------------------------------------------------------------------------
# public element type and operations
# ---------------------------------------------------------------------------


def _canonical_key(idx: BasisIndex):
    return (idx.k, idx.A, idx.B, idx.w)


class AlgebraElement:
    """A linear combination of standard basis elements of the rank-n algebra.

    Immutable by convention: all operations return fresh elements; term maps
    are never mutated after construction.  The constructor copies `terms`
    (default: no terms) without its zero coefficients, so an element never
    shares the caller's dict.  Equal when n and the terms are; unhashable,
    like the dict it holds.  Two slots and no per-instance dict.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict | None = None):
        self.n = n
        self.terms = {} if terms is None else {i: c for i, c in terms.items() if c}
        for idx in self.terms:
            if idx.n != n:
                raise ValueError(f"index {idx} has wrong rank (expected {n})")

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, idx: BasisIndex) -> LaurentScalar:
        return self.terms.get(idx, ZERO)

    def support(self) -> list[BasisIndex]:
        return sorted(self.terms, key=_canonical_key)

    def scale(self, s: LaurentScalar | int) -> "AlgebraElement":
        if isinstance(s, int):
            s = LaurentScalar.from_int(s)
        if not s:
            return AlgebraElement(self.n, {})
        return AlgebraElement(self.n, {i: c * s for i, c in self.terms.items()})

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        terms = dict(self.terms)
        for i, c in other.terms.items():
            accumulate(terms, i, c)
        return AlgebraElement(self.n, terms)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)

    def __neg__(self) -> "AlgebraElement":
        return self.scale(-1)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return mul(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __repr__(self):
        if not self.terms:
            return "AlgebraElement(0)"
        bits = []
        for idx in self.support():
            c = self.terms[idx]
            bits.append(f"({c.to_string()})*T[A={list(idx.A)},B={list(idx.B)},w={list(idx.w)}]")
        return "AlgebraElement(" + " + ".join(bits) + ")"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"index": idx.to_json(), "coeff": self.terms[idx].to_json()}
                for idx in self.support()
            ],
        }

    @classmethod
    def from_json(cls, obj: dict) -> "AlgebraElement":
        terms = {
            BasisIndex.from_json(t["index"]): LaurentScalar.from_json(t["coeff"])
            for t in obj["terms"]
        }
        return cls(obj["n"], terms)


def identity_element(n: int) -> AlgebraElement:
    idx = BasisIndex((), (), identity_perm(n))
    return AlgebraElement(n, {idx: ONE})


def basis_element(idx: BasisIndex) -> AlgebraElement:
    return AlgebraElement(idx.n, {idx: ONE})


def gen_T(n: int, i: int, power: int = 1) -> AlgebraElement:
    return reduce_word(GeneratorWord(n, [("T", i, power)]))


def gen_P(n: int, j: int) -> AlgebraElement:
    return reduce_word(GeneratorWord(n, [("P", j)]))


def t0_element(n: int) -> AlgebraElement:
    """The affine generator expressed through P_1: q(1 - P_1) - 1."""
    return identity_element(n).scale(Q_MINUS_1) - gen_P(n, 1).scale(Q)


def _basis_letters(idx: BasisIndex, letters: list) -> list[Letter]:
    """The letters of T_A P_k T_w T_B^{-1}, taken from `letters` = `_letters(idx.n)`."""
    out = [letters[i][0] for i in _subset_word(idx.A)]
    if idx.k >= 1:
        out.append(letters[idx.k][2])
    out.extend(letters[i][0] for i in reduced_word(idx.w))
    for j in range(idx.k, 0, -1):
        out.extend(letters[t][1] for t in range(j, idx.B[j - 1]))
    return out


def basis_word(idx: BasisIndex) -> GeneratorWord:
    """The defining word T_A P_k T_w T_B^{-1} of a standard basis element."""
    return GeneratorWord(idx.n, _basis_letters(idx, _letters(idx.n)))


def reduce_word(word: GeneratorWord) -> AlgebraElement:
    """Normal form of a product of generators, starting from the identity."""
    words = [(word.letters, *_word_bounds(word.n, word.letters), ONE)]
    return _product(identity_element(word.n), words)


def rmul_gen(x: AlgebraElement, letter: Letter) -> AlgebraElement:
    """Right multiplication x * g for a single generator letter g."""
    letters = GeneratorWord(x.n, [letter]).letters  # validate
    return _product(x, [(letters, *_word_bounds(x.n, letters), ONE)])


def mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Exact product x * y in basis normal form.

    x is multiplied on the right by the basis word of each term of y.  The
    words are taken in sorted order, and each starts from the stored partial
    product of its longest common prefix with the previous word.
    """
    if x.n != y.n:
        raise ValueError(f"rank mismatch: {x.n} != {y.n}")
    return _product(x, [(*_basis_data(idx), c) for idx, c in y.terms.items()])


def hat_T(n: int, mu) -> AlgebraElement:
    """The cocenter representative attached to a partition or composition mu.

    This is P_{n-|mu|} followed by the long-cycle braid word of each part of
    mu, acting on consecutive blocks after an identity prefix of length
    n - |mu|.  The empty mu gives P_n; mu of full size n has no idempotent.
    """
    parts = tuple(int(a) for a in mu)
    if any(a < 1 for a in parts):
        raise ValueError(f"parts must be >= 1: {parts}")
    k = sum(parts)
    if k > n:
        raise ValueError(f"|mu| = {k} exceeds n = {n}")
    letters: list[Letter] = []
    if n - k >= 1:
        letters.append(("P", n - k))
    offset = n - k
    for a in parts:
        letters.extend(("T", t, 1) for t in range(offset + 1, offset + a))
        offset += a
    return reduce_word(GeneratorWord(n, letters))


def iota_embed(x: AlgebraElement) -> AlgebraElement:
    """The index-shifting embedding of rank n-1 into rank n (T_i -> T_{i+1}, P_j -> P_{j+1}).

    On the standard basis this relabels (A, B, w) to ({1} u (A+1), {1} u (B+1),
    shifted w) for k >= 1 and to (0, 0, shifted w) for k = 0.
    """
    n = x.n + 1
    if n < 2:
        raise ValueError("rank must be >= 2 after embedding")
    terms = {}
    for idx, c in x.terms.items():
        w2 = (1,) + tuple(a + 1 for a in idx.w)
        if idx.k == 0:
            terms[BasisIndex((), (), w2)] = c
        else:
            A2 = (1,) + tuple(a + 1 for a in idx.A)
            B2 = (1,) + tuple(a + 1 for a in idx.B)
            terms[BasisIndex(A2, B2, w2)] = c
    return AlgebraElement(n, terms)


def rho(x: AlgebraElement) -> AlgebraElement:
    """The corner embedding T_i -> P_1 T_{i+1}, P_j -> P_{j+1} of rank n-1 into rank n.

    Images of basis elements are basis elements: (A, B, w) maps to
    ({1} u (A+1), {1} u (B+1), shifted w) with unit coefficient.
    """
    n = x.n + 1
    terms = {}
    for idx, c in x.terms.items():
        w2 = (1,) + tuple(a + 1 for a in idx.w)
        A2 = (1,) + tuple(a + 1 for a in idx.A)
        B2 = (1,) + tuple(a + 1 for a in idx.B)
        terms[BasisIndex(A2, B2, w2)] = c
    return AlgebraElement(n, terms)


def star(x: AlgebraElement) -> AlgebraElement:
    """The anti-automorphism fixing every generator (word reversal)."""
    out = AlgebraElement(x.n, {})
    for idx, c in x.terms.items():
        out = out + reduce_word(basis_word(idx).reversed()).scale(c)
    return out


def all_basis_elements(n: int) -> list[AlgebraElement]:
    return [basis_element(idx) for idx in iter_standard_basis(n)]
