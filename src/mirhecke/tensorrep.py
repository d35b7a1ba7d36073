"""Sparse tensor-space action and the weighted-trace character oracle.

The rank-n algebra acts on the n-fold tensor power of an (r+1)-dimensional
space.  On index words (k_1..k_n) over {1..r+1} the braid generator acts on
two adjacent letters by

    (a, a) -> -(a, a)
    (a, b) -> -v (b, a)                 for a < b
    (a, b) -> -v (b, a) + (q-1) (a, b)  for a > b

(with v = q^(1/2)), and the j-th idempotent keeps exactly the words whose
first j letters all equal r+1.  Inverse braid letters act as
q^-1 (R - (q-1)), which gives a local rule of the same shape, applied in
one pass without any matrix inversion:

    (a, a) -> -(a, a)
    (a, b) -> -v^-1 (b, a) + (q^-1 - 1) (a, b)   for a < b
    (a, b) -> -v^-1 (b, a)                       for a > b

The diagonal weighting operator D multiplies a word by x_{k_1} ... x_{k_n}
with x_{r+1} = 1.  The weighted trace of an algebra element is a symmetric
polynomial whose Schur expansion recovers every irreducible character value
of that element at once; this is the module's `char_oracle`, the independent
route against which the recursive character engine is validated.

The kernel runs on plain ints (see `ring.pack`).  A coefficient p is
stored as X = p(2^B) * 2^(B*E), so the four letter constants become shifts:

    -v c         = -(c << B)
    (q-1) c      = (c << 2B) - c
    -v^-1 c      = -(c >> B)
    (q^-1 - 1) c = (c >> 2B) - c

Only R^-1 lowers a v-exponent, by at most 2, so an offset E of twice the
inverse letters keeps every exponent of a unit word's image at or above -E,
which makes every right shift exact.  Decoding is exact when every coefficient that is
read back or compared satisfies |a| < 2^(B-1).  R^+-1 sends a unit word to
at most two words whose coefficients have l1 norms 1 and 2, so every entry
of Psi(word) e_w has l1 norm at most 3^L for L braid letters.  Callers
derive B from that bound (`letter_bound`) and whatever they sum on top of
it: a trace adds up at most (#words) entries, a combination sum c_x Psi(x)
has norm at most sum ||c_x||_1 3^(L_x), a composition Psi(a) Psi(b) at most
3^(L_a + L_b).  B is never a setting.  `apply_R`, `psi_apply`,
`psi_matrix` and `TensorState` keep LaurentScalar coefficients: they pack
on entry and unpack on exit.

Traces never build an operator.  D preserves content, so it commutes with
every R_i and e_j, and e_k is idempotent; by cyclicity of the trace

    tr(D Psi(T_A e_k Y)) = tr(D e_k (Y T_A) e_k).

So `basis_trace` runs only over the (r+1)^(n-k) words that begin with k
letters r+1, applies the letters of Y T_A to each and reads back the word's
own coefficient.  The packed diagonal entries are summed per monomial and
each sum is unpacked once, with B derived from (r+1)^(n-k) 3^L.  That word
set is closed under relabelling 1..r, so every trace still passes the
full-orbit symmetry check of `_from_monomials`.

Everything here is lazy and sparse: operators are never materialized as
dense matrices, and only per-basis-element traces are memoized.  The
defining relations are checked as operator identities in `mirhecke.checks`,
from the columns that `psi_columns` builds one content at a time.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import AlgebraElement, GeneratorWord, basis_word
from .combinatorics import BasisIndex, iter_standard_basis
from .ring import accumulate, pack, slot_bits, unpack
from .symfun import SymPoly, _from_monomials, schur_expand


@dataclass
class TensorState:
    """A sparse vector on the tensor power: {index word: coefficient}."""

    n: int
    r: int
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for w, c in self.terms.items():
            if len(w) != self.n or any(not 1 <= k <= self.r + 1 for k in w):
                raise ValueError(f"bad index word {w} for n={self.n}, r={self.r}")
            if c:
                clean[w] = c
        self.terms = clean

    def __eq__(self, other):
        return (
            isinstance(other, TensorState)
            and (self.n, self.r) == (other.n, other.r)
            and self.terms == other.terms
        )


# ---------------------------------------------------------------------------
# the kernel: packed int coefficients, v = 2^bits
# ---------------------------------------------------------------------------


def _apply_R(i: int, terms: dict, bits: int) -> dict:
    out: dict = {}
    two = 2 * bits
    for w, c in terms.items():
        a, b = w[i - 1], w[i]
        if a == b:
            accumulate(out, w, -c)
        else:
            accumulate(out, w[: i - 1] + (b, a) + w[i + 1 :], -(c << bits))
            if a > b:
                accumulate(out, w, (c << two) - c)
    return out


def _apply_R_inv(i: int, terms: dict, bits: int) -> dict:
    out: dict = {}
    two = 2 * bits
    for w, c in terms.items():
        a, b = w[i - 1], w[i]
        if a == b:
            accumulate(out, w, -c)
        else:
            accumulate(out, w[: i - 1] + (b, a) + w[i + 1 :], -(c >> bits))
            if a < b:
                accumulate(out, w, (c >> two) - c)
    return out


def _apply_e(j: int, terms: dict, r: int) -> dict:
    top = r + 1
    return {w: c for w, c in terms.items() if all(k == top for k in w[:j])}


def _act(letters, terms: dict, r: int, bits: int) -> dict:
    """Apply a word's letters to a packed sparse vector, rightmost letter first."""
    for lt in reversed(letters):
        if not terms:
            break
        if lt[0] == "P":
            terms = _apply_e(lt[1], terms, r)
        elif lt[2] == 1:
            terms = _apply_R(lt[1], terms, bits)
        else:
            terms = _apply_R_inv(lt[1], terms, bits)
    return terms


def letter_bound(letters) -> int:
    """3^(braid letters): a bound on the coefficient l1 norms of Psi(word) e_w."""
    return 3 ** sum(lt[0] == "T" for lt in letters)


def letter_offset(letters) -> int:
    """2 x (inverse letters): only R^-1 lowers a v-exponent, by at most 2."""
    return 2 * sum(lt[0] == "T" and lt[2] == -1 for lt in letters)


def _scalar_act(letters, terms: dict, r: int) -> dict:
    """`_act` on LaurentScalar coefficients: pack on entry, unpack on exit."""
    mass = sum(c.l1_norm() for c in terms.values())
    bits = slot_bits(max(1, mass) * letter_bound(letters))
    low = min((c.min_exp() for c in terms.values() if c), default=0)
    offset = max(0, -low) + letter_offset(letters)
    packed = {w: pack(c, bits, offset) for w, c in terms.items()}
    return {w: unpack(c, bits, offset) for w, c in _act(letters, packed, r, bits).items()}


def apply_R(i: int, state: TensorState) -> TensorState:
    """Action of the i-th braid generator on adjacent tensor factors."""
    if not 1 <= i <= state.n - 1:
        raise ValueError(f"i = {i} out of range")
    return TensorState(state.n, state.r, _scalar_act([("T", i, 1)], state.terms, state.r))


def apply_e(j: int, state: TensorState) -> TensorState:
    """Projection keeping words whose first j letters are all r+1."""
    if not 1 <= j <= state.n:
        raise ValueError(f"j = {j} out of range")
    return TensorState(state.n, state.r, _apply_e(j, state.terms, state.r))


def psi_apply(word: GeneratorWord, state: TensorState) -> TensorState:
    """Apply a generator word as an operator, rightmost letter first."""
    return TensorState(state.n, state.r, _scalar_act(word.letters, state.terms, state.r))


def basis_words(n: int, r: int):
    return itertools.product(range(1, r + 2), repeat=n)


def content_blocks(n: int, r: int):
    """The index words grouped by content (multiset of letters), one list each.
    R_i permutes letters and e_j keeps or drops words, so each span is invariant."""
    for content in itertools.combinations_with_replacement(range(1, r + 2), n):
        yield sorted(set(itertools.permutations(content)))


def psi_columns(words_of: dict, inputs, r: int, bits: int, offset: int) -> dict:
    """{x: {w: Psi(words_of[x]) e_w}} over the input words w, zero columns left out,
    packed with (bits, offset); the caller derives both from the words it compares.
    Letter tuples that end alike share their common suffix, applied only once."""
    one = 1 << (bits * offset)
    done = {(): {w: {w: one} for w in inputs}}
    for letters in sorted({lt[i:] for lt in words_of.values() for i in range(len(lt))}, key=len):
        tail = done[letters[1:]].items()
        done[letters] = {w: c for w, v in tail if (c := _act(letters[:1], v, r, bits))}
    return {x: done[letters] for x, letters in words_of.items()}


def psi_matrix(r: int, idx: BasisIndex) -> dict:
    """Sparse operator of a basis element, built afresh: {input word: {output word: coeff}}."""
    letters = basis_word(idx).letters
    bits = slot_bits(letter_bound(letters))
    offset = letter_offset(letters)
    one = 1 << (bits * offset)
    out = {}
    for w in basis_words(idx.n, r):
        col = _act(letters, {w: one}, r, bits)
        if col:
            out[w] = {u: unpack(c, bits, offset) for u, c in col.items()}
    return out


# ---------------------------------------------------------------------------
# memoized per-basis-element traces
# ---------------------------------------------------------------------------

_TRACE_CACHE: dict = {}


def basis_trace(r: int, idx: BasisIndex) -> SymPoly:
    """Weighted diagonal trace of one basis element, as a symmetric polynomial.

    The word T_A P_k Y is rotated to e_k (Y T_A) e_k (see the module
    docstring), so only words starting with k letters r+1 are visited.
    Diagonal entries are summed packed, one sum per monomial, and each sum
    is unpacked once.
    """
    key = (r, idx)
    hit = _TRACE_CACHE.get(key)
    if hit is not None:
        return hit
    letters = basis_word(idx).letters
    k = idx.k
    if k:
        p = letters.index(("P", k))
        letters = letters[p + 1 :] + letters[:p]
    bits = slot_bits((r + 1) ** (idx.n - k) * letter_bound(letters))
    offset = letter_offset(letters)
    one = 1 << (bits * offset)
    head = (r + 1,) * k
    monos: dict = {}
    for tail in basis_words(idx.n - k, r):
        w = head + tail
        c = _act(letters, {w: one}, r, bits).get(w)
        if not c:
            continue
        expo = [0] * r
        for a in tail:
            if a <= r:
                expo[a - 1] += 1
        accumulate(monos, tuple(expo), c)
    out = _from_monomials({e: unpack(c, bits, offset) for e, c in monos.items()}, r)
    _TRACE_CACHE[key] = out
    return out


def trace_D(x: AlgebraElement, r: int) -> SymPoly:
    """tr(D Psi(x)): the weight-monomial-graded trace of x on tensor space."""
    out = SymPoly(r, {})
    for idx, c in x.terms.items():
        out = out + basis_trace(r, idx).scale(c)
    return out


def char_oracle(x: AlgebraElement, r: int | None = None) -> dict:
    """All irreducible character values of x, from the Schur expansion of tr(D Psi(x)).

    Requires r >= n so that Schur polynomials with up to n rows stay
    linearly independent; entry lam is the character of the row (lam, |lam|).
    """
    if r is None:
        r = x.n
    if r < x.n:
        raise ValueError(f"char oracle needs r >= n, got r={r} < n={x.n}")
    return schur_expand(trace_D(x, r))


# ---------------------------------------------------------------------------
# diagnostics: image rank
# ---------------------------------------------------------------------------


def image_rank(n: int, r: int, q0, v0) -> int:
    """Rank over Q of the span of the vectorized basis operators at q = q0, v = v0.

    Faithfulness of the tensor action for r >= n makes this the algebra
    dimension at any generic specialization; q0 must equal v0^2 since the
    operators involve odd powers of v.
    """
    pivots: dict = {}
    rank = 0
    for idx in iter_standard_basis(n):
        vec: dict = {}
        for col, colmap in psi_matrix(r, idx).items():
            for row, c in colmap.items():
                val = c.specialize(q0, v0)
                if val:
                    vec[(col, row)] = val
        # reduce against existing pivot rows
        while vec:
            pos = min(vec)
            piv = pivots.get(pos)
            if piv is None:
                inv = Fraction(1) / vec[pos]
                pivots[pos] = {p: a * inv for p, a in vec.items()}
                rank += 1
                break
            f = vec[pos]
            for p, a in piv.items():
                s = vec.get(p, Fraction(0)) - f * a
                if s:
                    vec[p] = s
                else:
                    vec.pop(p, None)
    return rank
