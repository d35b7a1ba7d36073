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

Traces never build an operator.  D preserves content, so it commutes with
every R_i and e_j, and e_k is idempotent; by cyclicity of the trace

    tr(D Psi(T_A e_k Y)) = tr(D e_k (Y T_A) e_k).

So `basis_trace` runs only over the (r+1)^(n-k) words that begin with k
letters r+1, applies the letters of Y T_A to each and reads back the word's
own coefficient.  That word set is closed under relabelling 1..r, so every
trace still passes the full-orbit symmetry check of `_from_monomials`.

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
from .ring import ONE, QINV, Q_MINUS_1, V, accumulate
from .symfun import SymPoly, _from_monomials, schur_expand

_MINUS_V = -V
_MINUS_VINV = -V.inverse_unit()
_QINV_MINUS_1 = QINV - ONE


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


def _raw_apply_R(i: int, terms: dict) -> dict:
    out: dict = {}
    for w, c in terms.items():
        a, b = w[i - 1], w[i]
        if a == b:
            accumulate(out, w, -c)
        else:
            swapped = w[: i - 1] + (b, a) + w[i + 1 :]
            accumulate(out, swapped, c * _MINUS_V)
            if a > b:
                accumulate(out, w, c * Q_MINUS_1)
    return out


def _raw_apply_R_inv(i: int, terms: dict) -> dict:
    out: dict = {}
    for w, c in terms.items():
        a, b = w[i - 1], w[i]
        if a == b:
            accumulate(out, w, -c)
        else:
            swapped = w[: i - 1] + (b, a) + w[i + 1 :]
            accumulate(out, swapped, c * _MINUS_VINV)
            if a < b:
                accumulate(out, w, c * _QINV_MINUS_1)
    return out


def _raw_apply_e(j: int, terms: dict, r: int) -> dict:
    top = r + 1
    return {w: c for w, c in terms.items() if all(k == top for k in w[:j])}


def _act(letters, terms: dict, r: int) -> dict:
    """Apply a word's letters to a sparse vector, rightmost letter first."""
    for lt in reversed(letters):
        if not terms:
            break
        if lt[0] == "P":
            terms = _raw_apply_e(lt[1], terms, r)
        elif lt[2] == 1:
            terms = _raw_apply_R(lt[1], terms)
        else:
            terms = _raw_apply_R_inv(lt[1], terms)
    return terms


def apply_R(i: int, state: TensorState) -> TensorState:
    """Action of the i-th braid generator on adjacent tensor factors."""
    if not 1 <= i <= state.n - 1:
        raise ValueError(f"i = {i} out of range")
    return TensorState(state.n, state.r, _raw_apply_R(i, state.terms))


def apply_e(j: int, state: TensorState) -> TensorState:
    """Projection keeping words whose first j letters are all r+1."""
    if not 1 <= j <= state.n:
        raise ValueError(f"j = {j} out of range")
    return TensorState(state.n, state.r, _raw_apply_e(j, state.terms, state.r))


def psi_apply(word: GeneratorWord, state: TensorState) -> TensorState:
    """Apply a generator word as an operator, rightmost letter first."""
    return TensorState(state.n, state.r, _act(word.letters, state.terms, state.r))


def basis_words(n: int, r: int):
    return itertools.product(range(1, r + 2), repeat=n)


def content_blocks(n: int, r: int):
    """The index words grouped by content (multiset of letters), one list each.
    R_i permutes letters and e_j keeps or drops words, so each span is invariant."""
    for content in itertools.combinations_with_replacement(range(1, r + 2), n):
        yield sorted(set(itertools.permutations(content)))


def psi_columns(words_of: dict, inputs, r: int) -> dict:
    """{x: {w: Psi(words_of[x]) e_w}} over the input words w, zero columns left out.
    Letter tuples that end alike share their common suffix, applied only once."""
    done = {(): {w: {w: ONE} for w in inputs}}
    for letters in sorted({lt[i:] for lt in words_of.values() for i in range(len(lt))}, key=len):
        tail = done[letters[1:]].items()
        done[letters] = {w: c for w, v in tail if (c := _act(letters[:1], v, r))}
    return {x: done[letters] for x, letters in words_of.items()}


def psi_matrix(r: int, idx: BasisIndex) -> dict:
    """Sparse operator of a basis element, built afresh: {input word: {output word: coeff}}."""
    letters = basis_word(idx).letters
    return {w: col for w in basis_words(idx.n, r) if (col := _act(letters, {w: ONE}, r))}


# ---------------------------------------------------------------------------
# memoized per-basis-element traces
# ---------------------------------------------------------------------------

_TRACE_CACHE: dict = {}


def basis_trace(r: int, idx: BasisIndex) -> SymPoly:
    """Weighted diagonal trace of one basis element, as a symmetric polynomial.

    The word T_A P_k Y is rotated to e_k (Y T_A) e_k (see the module
    docstring), so only words starting with k letters r+1 are visited.
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
    head = (r + 1,) * k
    monos: dict = {}
    for tail in basis_words(idx.n - k, r):
        w = head + tail
        c = _act(letters, {w: ONE}, r).get(w)
        if not c:
            continue
        expo = [0] * r
        for a in tail:
            if a <= r:
                expo[a - 1] += 1
        accumulate(monos, tuple(expo), c)
    out = _from_monomials(monos, r)
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
