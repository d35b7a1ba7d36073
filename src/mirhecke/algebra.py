"""The mirabolic Hecke algebra: exact arithmetic in the standard basis.

The rank-n algebra is generated by braid generators T_1..T_{n-1} (quadratic
relation T_i^2 = (q-1)T_i + q) and idempotents P_1..P_n, with P_j absorbing
lower braid letters up to sign (P_j T_i = T_i P_j = -P_j for i < j) and
commuting with higher ones.  Its standard basis is indexed by triples
(A, B, w): the element is T_A * P_k * T_w * T_B^{-1} where T_A and T_B are
canonical shuffle words attached to the k-subsets A and B and w fixes 1..k.

Products are computed in the standard basis itself: every generator acts
locally on it, so no other basis and no elimination is needed.  Write
b = (A, B, w), k = |A|, and beta for the permutation of T_B (j -> b_j on
1..k, increasing on the rest), so that b T_i^-1 = T_A P_k T_w (T_i T_B)^-1.

- T_i^-1, by Deodhar's lemma on the minimal coset representatives of
  S_n / (S_k x S_{n-k}) (Geck-Pfeiffer 2000):
  (a) if s_i beta is shorter than beta, it is the permutation of B' = B
      with i+1 replaced by i, and b T_i^-1 = (q^-1 - 1) b + q^-1 (A, B', w);
  (b) else, if s_i beta is the permutation of B' = B with i replaced by
      i+1, then T_i T_B = T_B' and b T_i^-1 = (A, B', w);
  (c) else s_i beta = beta s_j with j != k, so T_i T_B = T_B T_j and
      b T_i^-1 = T_A P_k T_w T_j^-1 T_B^-1.  For j < k, s_j commutes with
      w and P_k T_j^-1 = -P_k, so this is -b.  For j > k it is
      (A, B, w s_j) if w(j) > w(j+1), else q^-1 (A, B, w s_j) + (q^-1 - 1) b.
  And b T_i = q (b T_i^-1) + (q - 1) b.  So either b T_i^+-1 = -b, or b
  has one partner b' with b T_i = b' (cases a and c on an ascent of w) or
  b T_i^-1 = b' (cases b and c on a descent); a row has at most 3
  monomials.  The rule never reads A, so one row serves every A.
- P_j maps b to +-1 times one basis element, with no power of q: the
  rook-monoid picture of Solomon (J. Algebra 273, 2004).  Read b as the
  partial permutation sigma with domain D = [n] - B, image I = [n] - A and
  sigma(D_t) = I_{w(k+t)-k}.  For x = 1..j in ascending order with x not
  in B, let y = sigma(x); multiply by (-1)^(#{a in A: a < y} + #{b in B:
  b < x}) with the current A and B, add y to A and x to B, and drop x from
  sigma.  So b P_j = b exactly when {1..j} is in B.  The engine reads P_j
  as the j steps X_1 ... X_j, X_x being the rule for one x.  After
  X_1 ... X_{x-1}, {1..x-1} is in B, so X_x fixes b when x is in B and
  otherwise x is the first gap of B (the smallest element of [n] - B).
  Then the step factors: r = w(k+1) - k is the rank of y = sigma(x) in
  [n] - A, the target shape (B u {x}, w') and the sign (-1)^(x-1) depend
  on (B, w) alone (`_relabel_shape`), and A' = A u {y} with the sign
  (-1)^(y - r) depends on (A, r) alone (`_relabel_subset`).

All coefficients live in Z[v, v^-1] with q = v^2; purely algebraic
computations stay in even v-exponents, and so do the engine tables, which
are written in powers of q.

The engine runs on plain ints (Kronecker substitution, see `ring.pack`).
A product whose inputs are all in Z[q, q^-1], as every product of
generators is, packs each coefficient p in q-slots as p(q = 2^B) * 2^(B*E)
(step 2), where one power of q is a shift of unit = B bits; any other
product packs in v-slots, p(v = 2^B) * 2^(B*E) (step 1), unit = 2B.  Every
table entry is a monomial a q^e that acts by a shift of e units with a
sign.  Both substitutions are ring homomorphisms, so every packed value is
exactly the image of its true Laurent coefficient, and a packed zero can be
dropped without changing any image downstream.  Only the decoded outputs
must fit their slots:

- B.  Every output coefficient is bounded by the l1 mass of the whole
  result, ||x||_1 * sum_y ||c_y||_1 3^(#T(word_y)): a T^+-1 row has l1
  mass at most 3 and an X row mass 1.  B is `slot_bits` of that bound and
  never a setting.
- E.  Every right shift must be exact, so -E * step is a lower bound on
  every v-exponent (even with step 2) of every intermediate value: x's
  lowest exponent, less 2 per T^-1 letter; the stack is covered both
  before and after it is scaled by c_y.  A T^-1 row lowers an exponent by
  at most one power of q, and no T row and no X row lowers one: `_Layout`
  raises `NegativeExponentError` otherwise.

Decoding is exact because the true output coefficients satisfy
|a| < 2^(B-1), where balanced base-2^B digits are unique.  Nothing scans
an output for odd exponents: q-slots cannot hold one.  One engine,
`_product`, serves `mul`, `reduce_word` and `rmul_gen`: it packs x by basis
id, right-multiplies it by the words of its terms in sorted order (each
word restarts from the partial product of its longest common prefix with
the previous word), sums the words and unpacks.  A word reaches it resolved
to the layout's steps: one per T letter and X_1 ... X_j per P_j.

Ids.  Every basis element of rank n has a dense id, its position in
`iter_standard_basis(n)`: a shape is a pair (B, w), and every k-subset A
owns a block of ids, one per shape of size k, in the same order
(`_Layout`).  Every row names its target by the shift delta = target - id.
The T^+-1 rows depend only on the shape, so each is built once per shape
and applies to every A; the X rows change A, so X_1 has one per id and
X_x (x >= 2) one per id that reaches it, each assembled from a part per
shape and a part per (A, r) with no work per id beyond an addition and a
lookup.  One kernel, `ring.apply_rows` with `sel` = `kid_shape` for the T
rows and the ids themselves for the X rows,
shifts, signs and accumulates every row table.  The same kernel applies
the letter rows of tensor space (`tensorrep`).  Ids are mapped to and from
a BasisIndex only where a product enters and leaves the engine.

What is memoized, and where (`clear_caches` empties all of it):

- `_layout(n)` is the one engine state of rank n, complete when it is
  built: `t_rows` (T^+-1, per shape and letter, from `_t_move` and
  `_t_rows`, with beta^-1 once per subset B), `x_rows` (X_1 .. X_n, from
  `_relabel_shape` per shape and `_relabel_subset` per (A, r)), `basis`
  (per id, made without the BasisIndex checks from the same enumeration as
  `iter_standard_basis`), `kids` (its inverse), `kid_shape` and the
  `steps` of the rank, a tuple of (slot, rows, sel) per letter.  The build
  does no LaurentScalar arithmetic.  Each distinct monomial and row is one
  object across all tables.  The tests compare every T row and every X_1
  row with a term-by-term Hecke product on LaurentScalar, and each product
  X_1 ... X_j with the reference relabel, which they also check against
  the product by P_j = -P_{j-1} T_{j-1}^-1 P_{j-1}.
- `functools.cache` memos (`cache_info()` gives hits, misses and size):
  the steps and gains of a basis word in two parts, `_head_data` per
  subset A (T_A) and `_tail_data` per shape (P_k T_w T_B^-1), so a shape's
  word is read once however many A use it; and their join `_basis_data`
  per index, for the terms of y in `mul`.

Each table and memo is bounded by the size of the basis times the number
of generators.  The defining relations are checked through `mul` in
`mirhecke.checks`.
"""

from __future__ import annotations

import itertools
from functools import cache
from typing import Iterable, Iterator

from .combinatorics import (
    BasisIndex,
    Permutation,
    _trusted_index,
    apply_right_s,
    fixing_permutations,
    identity_perm,
    iter_standard_basis,
    pinverse,
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
    """Raised when a T row built for a rank has a power of q below 0, or a T^-1 row one below -1."""


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
# the generator rules on the standard basis
# ---------------------------------------------------------------------------


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


def _t_move(B: tuple, w: Permutation, i: int, beta_inv: Permutation) -> tuple:
    """How T_i meets the shape (B, w), by the rule of the module docstring: (case, B', w').

    beta_inv is the inverse of beta = `_subset_perm(n, B)`, which the caller
    computes once per subset.  Case 0: b T_i^+-1 = -b.  Case 1:
    b T_i = (A, B', w').  Case 2: b T_i^-1 = (A, B', w').  Raises
    AssertionError if s_i beta is neither a shuffle permutation nor beta s_j
    for a simple s_j (then j != k: both positions p < p2 lie on one side of k).
    """
    k = len(B)
    p, p2 = beta_inv[i - 1], beta_inv[i]
    if p > p2:  # (a): i+1 is in B and i is not
        return 1, tuple(i if b == i + 1 else b for b in B), w
    if p <= k < p2:  # (b): i is in B and i+1 is not
        return 2, tuple(i + 1 if b == i else b for b in B), w
    if p2 != p + 1:  # (c): beta^-1 s_i beta is the transposition (p, p2)
        raise AssertionError(f"T_{i} on T_B for B = {B}: beta^-1 s_i beta is not a simple s_j")
    if p < k:
        return 0, B, w
    return 2 if w[p - 1] > w[p] else 1, B, apply_right_s(w, p)


def _t_rows(case: int, delta: int) -> tuple:
    """(T_i row, T_i^-1 row) of a shape in `_t_move`'s case, its partner at id shift delta."""
    if not case:
        return ((0, 0, -1),), ((0, 0, -1),)
    if case == 1:
        return ((delta, 0, 1),), ((0, -1, 1), (0, 0, -1), (delta, -1, 1))
    return ((0, 0, -1), (0, 1, 1), (delta, 1, 1)), ((delta, 0, 1),)


def _relabel_shape(B: tuple, w: Permutation) -> tuple:
    """The part of b X_x that the shape fixes, for b = (A, B, w), k = |B| < n: (x, sign, r, B', w').

    x is the first gap of B, so #{b in B: b < x} = x - 1 gives the sign
    (-1)^(x-1).  sigma(x) = y is the r-th element of [n] - A,
    r = w(k+1) - k.  X_x adds x to B and y to A and drops x from sigma, so
    w' is the identity on 1..k+1 followed by the ranks in [n] - A' of the
    remaining images: each u of w(k+2..n) becomes u + 1, less 1 when its
    rank u - k in [n] - A is above r.
    """
    k = len(B)
    x = next((t for t, b in enumerate(B, 1) if b != t), k + 1)
    r = w[k] - k
    w2 = identity_perm(k + 1) + tuple(u + 1 - (u - k > r) for u in w[k + 1 :])
    return x, 1 if x & 1 else -1, r, B[: x - 1] + (x,) + B[x - 1 :], w2


def _relabel_subset(n: int, A: tuple, r: int) -> tuple:
    """The part of b X_x that A and r fix, for sigma(x) = y the r-th element of [n] - A: (sign, A').

    A' = A u {y}, and the sign (-1)^#{a in A: a < y} of the relabel is
    (-1)^(y - r), since r - 1 elements of [n] - A lie below y.
    """
    y = [x for x in range(1, n + 1) if x not in A][r - 1]
    return -1 if (y - r) & 1 else 1, tuple(sorted(A + (y,)))


# ---------------------------------------------------------------------------
# the engine on basis ids
# ---------------------------------------------------------------------------


class _Layout:
    """Dense int ids for the basis of rank n, and every table the engine reads.

    A shape is a pair (B, w); shape ids run over k = 0..n and, within k,
    over the k-subsets B and then the permutations w fixing 1..k, both in
    the order of `iter_standard_basis`.  Every k-subset A owns a block of
    ids, one per shape of size k in that order, so the id of (A, B, w) is
    its position in `iter_standard_basis(n)`.  Every table is complete when
    `__init__` returns.  A row is a tuple of monomials (delta, e, a), the
    term a q^e of target id + delta, which `ring.apply_rows` reads; equal
    rows are one shared tuple:

    - `t_rows[2(i-1) + inv][shape]`: T_i^{+-1}, `_t_rows` of `_t_move`,
      with beta^-1 computed once per subset B;
    - `x_rows[x-1][kid]`: X_x, the one monomial (delta, 0, +-1) of the
      signed relabel, assembled from `_relabel_shape` (once per shape with
      k < n) and `_relabel_subset` (once per k-subset A and rank r).  X_1
      is a list with a row per id; X_x for x >= 2 is a dict with rows only
      on the ids that X_1 ... X_{x-1} can reach, those with {1..x-1} in B:
      the shared row (0, 0, 1) where x is in B, the relabel where x is the
      first gap.

    `basis[kid]` is the BasisIndex of an id; `kids` is its inverse and
    `kid_shape[kid]` its shape id.  A step is (slot, rows, sel) with
    `apply_rows(elem, rows, sel, unit)` its product: slot 2(i-1) + inv for
    T_i^{+-1} (sel = `kid_shape`), 2(n-1) + x-1 for X_x (sel = the ids).
    `steps[2(i-1) + inv]` is the one-step tuple of the letter T_i^{+-1},
    `steps[2(n-1) + j-1]` the steps X_1 ... X_j of the letter P_j.  No T
    row has a power of q below 0 and no T^-1 row
    one below -1, or `NegativeExponentError` is raised: the offset of
    `_product` counts one power of q per T^-1 letter.
    """

    __slots__ = ("n", "kid_shape", "t_rows", "x_rows", "basis", "kids", "steps")

    def __init__(self, n: int):
        universe = range(1, n + 1)
        subsets = [list(itertools.combinations(universe, k)) for k in range(n + 1)]
        perms = [list(fixing_permutations(n, k)) for k in range(n + 1)]
        shapes = [list(itertools.product(subsets[k], perms[k])) for k in range(n + 1)]
        # the position of a shape within its size, so within the block of any A
        local = {shape: s for size in shapes for s, shape in enumerate(size)}
        blocks: dict[tuple, int] = {}  # the first id of each subset A
        self.n = n
        self.basis: list[BasisIndex] = []
        self.kid_shape: list[int] = []
        first = 0  # the shape id of the first shape of size k
        for k, size in enumerate(shapes):
            own = range(first, first + len(size))
            first += len(size)
            for A in subsets[k]:
                blocks[A] = len(self.basis)
                self.basis += [_trusted_index(A, B, w) for B, w in size]
                self.kid_shape += own
        self.kids = {idx: kid for kid, idx in enumerate(self.basis)}
        # one object per distinct monomial and row (at n = 5, 61 of 2,608 T rows are distinct)
        shared: dict = {}

        def intern(row: tuple) -> tuple:
            got = shared.get(row)
            if got is None:
                got = tuple([shared.setdefault(m, m) for m in row])
                shared[got] = got
            return got

        pairs: dict = {}  # (case, delta) -> the checked (T row, T^-1 row)
        self.t_rows = [[] for _ in range(2 * (n - 1))]
        for k, ws in enumerate(perms):
            for b, B in enumerate(subsets[k]):
                beta_inv = pinverse(_subset_perm(n, B))
                for s, w in enumerate(ws, b * len(ws)):
                    for i in range(1, n):
                        case, B2, w2 = _t_move(B, w, i, beta_inv)
                        key = case, local[B2, w2] - s
                        pair = pairs.get(key)
                        if pair is None:
                            row, inv = _t_rows(*key)
                            if min(e for _, e, _ in row) < 0 or min(e for _, e, _ in inv) < -1:
                                raise NegativeExponentError(f"T_{i} row of shape {(B, w)} lowers q too far")
                            pair = pairs[key] = intern(row), intern(inv)
                        self.t_rows[2 * i - 2].append(pair[0])
                        self.t_rows[2 * i - 1].append(pair[1])
        fixed = intern(((0, 0, 1),))
        relabels: dict = {(0, 1): fixed}  # (delta, sign) -> the X row
        self.x_rows: list = [[fixed] * len(self.basis)] + [{} for _ in range(1, n)]
        for k, size in enumerate(shapes):
            # per shape: (x, sign, r, shift of the target's position); x = n + 1 when B = [n]
            parts = []
            for s, (B, w) in enumerate(size):
                if k == n:
                    parts.append((n + 1, 1, 0, 0))
                else:
                    x, sign, r, B2, w2 = _relabel_shape(B, w)
                    parts.append((x, sign, r, local[B2, w2] - s))
            for A in subsets[k]:
                # moves[r]: (shift of the block, sign), shared by every x
                moves = [(0, 1)]
                for r in range(1, n - k + 1):
                    sign, A2 = _relabel_subset(n, A, r)
                    moves.append((blocks[A2] - blocks[A], sign))
                for kid, (x, sign, r, shift) in enumerate(parts, blocks[A]):
                    for t in range(2, x):  # t is in B: b X_t = b
                        self.x_rows[t - 1][kid] = fixed
                    if x <= n:
                        block, s2 = moves[r]
                        key = block + shift, sign * s2
                        row = relabels.get(key)
                        if row is None:
                            row = relabels[key] = intern(((key[0], 0, key[1]),))
                        self.x_rows[x - 1][kid] = row
        ids = range(len(self.basis))
        x_steps = [(2 * n - 2 + t, rows, ids) for t, rows in enumerate(self.x_rows)]
        self.steps = [((slot, rows, self.kid_shape),) for slot, rows in enumerate(self.t_rows)]
        self.steps += [tuple(x_steps[:j]) for j in range(1, n + 1)]


@cache
def _layout(n: int) -> _Layout:
    """The ids and complete engine tables of rank n, built at once (memoized)."""
    return _Layout(n)


# -- words as steps, and their a priori slot width and offset ---------------


def _word_bounds(letters) -> tuple[int, int]:
    """(gain, drop) of a generator word: (3^(#T), 2 (#T^-1)).

    The gain bounds how much the word multiplies the l1 mass of an element
    (a T^+-1 row has mass at most 3, a P_j letter mass 1); the drop bounds
    how far it lowers the lowest v-exponent (only T^-1 lowers one, by at
    most 2).  The same holds for the letters of tensor space (`tensorrep`).
    """
    t = inv = 0
    for lt in letters:
        if lt[0] == "T":
            t += 1
            inv += lt[2] == -1
    return 3**t, 2 * inv


def _word_data(n: int, letters) -> tuple:
    """(steps, gain, drop) of a generator word of rank n: the layout's steps
    of its letters in turn, and `_word_bounds`."""
    table = _layout(n).steps
    steps = []
    for lt in letters:
        steps += table[2 * lt[1] - 2 + (lt[2] == -1) if lt[0] == "T" else 2 * n - 3 + lt[1]]
    return tuple(steps), *_word_bounds(letters)


@cache
def _head_data(n: int, A: tuple) -> tuple:
    """`_word_data` of T_A, the part of a basis word that the subset A fixes (memoized)."""
    return _word_data(n, [("T", i, 1) for i in _subset_word(A)])


@cache
def _tail_data(n: int, B: tuple, w: Permutation) -> tuple:
    """`_word_data` of P_k T_w T_B^{-1}, the part of a basis word that the shape fixes (memoized)."""
    return _word_data(n, _tail_letters(B, w))


@cache
def _basis_data(idx: BasisIndex) -> tuple:
    """(steps, gain, drop) of `basis_word(idx)`, joined from its two parts (memoized).

    A BasisIndex is validated when it is made, so its word is a valid word
    of rank idx.n and is not checked again.
    """
    head, gain, _ = _head_data(idx.n, idx.A)
    tail, tail_gain, drop = _tail_data(idx.n, idx.B, idx.w)
    return head + tail, gain * tail_gain, drop


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


def clear_caches() -> None:
    """Drop all memoized engine state, the id layouts and tables included.

    Useful in long-running processes.
    """
    for fn in (_layout, _basis_data, _head_data, _tail_data):
        fn.cache_clear()


def _product(x: "AlgebraElement", words: list) -> "AlgebraElement":
    """x * sum c * word over words = [(steps, gain, drop, c), ...] in normal form.

    A word is the product of its steps (`_word_data`).  One pass over x and
    one over the words read every coefficient for the slot width, the
    offset and the slot unit (q-slots when every coefficient is in
    Z[q, q^-1], else v-slots); then x is packed by basis id and
    right-multiplied by the words in sorted order, each starting from the
    stored partial product of its longest common prefix with the previous
    word (steps are shared objects, compared by identity).  The sum is
    unpacked into an element as it stands: its ids are distinct basis
    elements of the rank with nonzero coefficients.
    """
    n = x.n
    if not x.terms or not words:
        return _element(n, {})
    lay = _layout(n)
    kids = lay.kids
    mass_x = 0
    lo_x = None
    even = True
    for c in x.terms.values():
        lo, mass, ev = _read(c)
        mass_x += mass
        lo_x = lo if lo_x is None else min(lo_x, lo)
        even = even and ev
    gain = 0
    low = lo_x
    scaled = []
    for steps, g, drop, c in words:
        lo, mass, ev = _read(c)
        gain += mass * g
        # the stack before and after it is scaled by c
        low = min(low, lo_x - drop + min(lo, 0))
        even = even and ev
        scaled.append((steps, c, max(0, -lo)))
    bits = slot_bits(mass_x * gain)
    step = 2 if even else 1  # every exponent, low included, is even when step is 2
    unit = 2 // step * bits  # the shift of one power of q
    offset = -low // step
    stack = [{kids[idx]: pack(c, bits, offset, step) for idx, c in x.terms.items()}]
    # by steps alone, which order by their slot: scalars do not compare
    scaled.sort(key=lambda t: t[0])
    prev: tuple = ()  # stack[j]: x times prev[:j]
    total: dict = {}
    get = total.get
    for steps, c, shift in scaled:
        j = 0
        while j < len(prev) and j < len(steps) and prev[j] is steps[j]:
            j += 1
        del stack[j + 1 :]
        for _, rows, sel in steps[j:]:
            stack.append(apply_rows(stack[-1], rows, sel, unit))
        prev = steps
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
    basis = lay.basis
    return _element(n, {basis[kid]: unpack(c, bits, offset, step) for kid, c in total.items()})


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


def _element(n: int, terms: dict) -> AlgebraElement:
    """An element on terms that the engine made, taken as they are: no copy and no rank check."""
    out = AlgebraElement.__new__(AlgebraElement)
    out.n = n
    out.terms = terms
    return out


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


def _tail_letters(B: tuple, w: Permutation) -> list[Letter]:
    """The letters of P_k T_w T_B^{-1}, the part of a basis word after T_A."""
    k = len(B)
    out: list[Letter] = [("P", k)] if k else []
    out += [("T", i, 1) for i in reduced_word(w)]
    for j in range(k, 0, -1):
        out += [("T", t, -1) for t in range(j, B[j - 1])]
    return out


def basis_word(idx: BasisIndex) -> GeneratorWord:
    """The defining word T_A P_k T_w T_B^{-1} of a standard basis element."""
    head = [("T", i, 1) for i in _subset_word(idx.A)]
    return GeneratorWord(idx.n, head + _tail_letters(idx.B, idx.w))


def reduce_word(word: GeneratorWord) -> AlgebraElement:
    """Normal form of a product of generators, starting from the identity."""
    return _product(identity_element(word.n), [(*_word_data(word.n, word.letters), ONE)])


def rmul_gen(x: AlgebraElement, letter: Letter) -> AlgebraElement:
    """Right multiplication x * g for a single generator letter g."""
    letters = GeneratorWord(x.n, [letter]).letters  # validate
    return _product(x, [(*_word_data(x.n, letters), ONE)])


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
