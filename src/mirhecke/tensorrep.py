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
3^(L_a + L_b).  B is never a setting.

`psi_columns` is the one function that builds operator columns; `checks`
compares them and `image_rank` ranks them.  Only `basis_trace` applies
letters itself, because it visits a rotated word (below).

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

`image_rank(n, r, bits)` ranks the basis operators at v = 2^bits.  An
exact integer is all it needs, not a decodable one, so no slot width is
derived: each packed entry is the operator entry at v = 2^bits times the
common factor 2^(bits*E), which leaves the rank unchanged, and `bits` = 1
is allowed.  The rank is taken over Q by `ring.rank_over_q`.
"""

from __future__ import annotations

import itertools

from .algebra import AlgebraElement, basis_word
from .combinatorics import BasisIndex, iter_standard_basis
from .ring import accumulate, rank_over_q, slot_bits, unpack
from .symfun import SymPoly, _from_monomials, schur_expand


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


def image_rank(n: int, r: int, bits: int) -> int:
    """Rank over Q of the span of the basis operators at v = 2^bits.

    Faithfulness of the tensor action for r >= n makes this the algebra
    dimension at any generic point; a rank at one point never exceeds the
    generic rank.  Each operator is one row: its packed columns, built one
    content block at a time, keyed by (input word, output word).
    """
    words_of = {idx: basis_word(idx).letters for idx in iter_standard_basis(n)}
    offset = max(map(letter_offset, words_of.values()))
    rows: dict = {idx: {} for idx in words_of}
    for block in content_blocks(n, r):
        for idx, cols in psi_columns(words_of, block, r, bits, offset).items():
            row = rows[idx]
            for w, col in cols.items():
                for u, c in col.items():
                    row[(w, u)] = c
    return rank_over_q(rows.values())
