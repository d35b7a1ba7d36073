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
it: a trace adds up at most (#words) entries, a side sum c Psi(x) o Psi(y)
has norm at most sum ||c||_1 3^(L_x + L_y).  B is never a setting.

`psi_columns` is the one function that builds operator columns, for its
two callers: `first_differences` compares them and `image_rank` ranks
them.  Only `basis_trace` applies letters itself, because it visits a
rotated word (below).

`first_differences` is the one operator comparison.  `checks` hands it
the defining relations and Psi(ab) = Psi(a) o Psi(b) as identities whose
terms c Psi(x) or c Psi(x) o Psi(y) hold one word or two.  It derives B
once, packs columns at E = the largest `letter_offset` of the words, so a
k-word term sits at offset kE, and packs each c at base - kE, base being
the largest kE - min(0, lowest exponent of c): every term lands at base,
and lhs - rhs is summed into one difference per column, which must vanish.

Every route visits one content block per order pattern of letters.  The
local rules read only whether a < b, a == b or a > b, and whether a letter
is r+1.  So an order-preserving relabelling of the letters 1..r, which maps
a content block onto another, maps each operator's columns on the one onto
its columns on the other: the blocks are isomorphic.  `pattern_blocks`
yields one representative per class, the block whose letters below r+1 are
exactly 1..p, built from a composition (c_1..c_p), p <= min(n, r), and a
count of letters r+1.  There are 2^n of them for r >= n, whatever r is: at
n = r = 4, 16 of 70 blocks (150 of 625 words); at n = r = 5, 32 of 252
(1082 of 7776).

- `first_differences`: an identity fails on a block iff it fails on the
  block's representative.  The representative is the componentwise-smallest
  content of its class, so it comes before every other block of the class
  in content order.  The first failing block is therefore a representative,
  and the witness, its first failing word, is the one a scan over every
  block finds.
- `image_rank`: isomorphic blocks only repeat coordinates, so leaving them
  out keeps the rank.
- `basis_trace`: the coefficient of a monomial x^e depends only on the
  composition of e with its zeros removed, so the trace is quasisymmetric
  (Gessel 1984) by the same argument.  That it is symmetric, i.e. that
  rearranged compositions carry equal coefficients, is the Schur-Weyl half,
  and it is computed, not assumed: every composition is summed, and
  `symfun._from_compositions` raises when two rearrangements of one
  partition differ, zero included.

Traces never build an operator.  D preserves content, so it commutes with
every R_i and e_j, and e_k is idempotent; by cyclicity of the trace

    tr(D Psi(T_A e_k Y)) = tr(D e_k (Y T_A) e_k).

So `basis_trace` runs only over the words that begin with k letters r+1 and
whose last n-k letters form a representative block, applies the letters of
Y T_A to each and reads back the word's own coefficient.  The packed
diagonal entries are summed per composition and each sum is unpacked once,
with B derived from (r+1)^(n-k) 3^L.

Everything here is lazy and sparse: operators are never materialized as
dense matrices, and only per-basis-element traces are memoized
(`functools.cache` on `basis_trace`).

`image_rank(n, r, bits)` ranks the basis operators at v = 2^bits.  An
exact integer is all it needs, not a decodable one, so no slot width is
derived: each packed entry is the operator entry at v = 2^bits times the
common factor 2^(bits*E), which leaves the rank unchanged, and `bits` = 1
is allowed.  The rank is taken over Q by `ring.rank_over_q`.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import cache

from .algebra import AlgebraElement, basis_word
from .combinatorics import BasisIndex, iter_standard_basis
from .ring import accumulate, pack, rank_over_q, slot_bits, unpack
from .symfun import SymPoly, _from_compositions, schur_expand


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


def pattern_blocks(n: int, r: int):
    """The sorted words of each representative content block: those whose letters
    below r+1 are exactly 1..p, in content order (that of
    `itertools.combinations_with_replacement`).

    The content with c_i letters i for i = 1..p, p <= min(n, r), and
    n - sum(c) letters r+1 stands for every block that an order-preserving
    relabelling of 1..r maps onto it (see the module docstring).  It is built
    from the composition (c_1..c_p), so the cost does not grow with r.
    """
    top = r + 1
    contents = [(top,) * n]
    for m in range(1, n + 1):
        for steps in itertools.product((0, 1), repeat=m - 1):
            if sum(steps) < r:
                contents.append(tuple(itertools.accumulate(steps, initial=1)) + (top,) * (n - m))
    for content in sorted(contents):
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
# operator identities: sum c Psi(x) (Psi(y)) = sum c' Psi(x') (Psi(y'))
# ---------------------------------------------------------------------------


def first_differences(identities, n: int, r: int) -> list:
    """One witness per identity (lhs, rhs) on r+1 letters: the first input word, in
    content-block order, on which the two sides differ, else None.

    A side is a list of terms (c, words): a LaurentScalar c and one letter tuple
    x (c Psi(x)) or two, x and y (c Psi(x) o Psi(y)).  Only the representative
    blocks of `pattern_blocks` are visited, which leaves every witness as it is
    (see the module docstring).  Each block builds the columns of every word
    once; only the identities that have not failed yet are compared on it.
    """
    words, bits, offset, packed = _pack_identities(list(identities))
    out: list = [None] * len(packed)
    for block in pattern_blocks(n, r):
        cols = psi_columns(words, block, r, bits, offset)
        for k, signed in enumerate(packed):
            if out[k] is None:
                out[k] = _first_difference(cols, signed, block)
    return out


def _pack_identities(identities: list) -> tuple:
    """(words, B, E, [lhs - rhs as terms (packed c, words)]) of the identities.
    A function of its own, so the identities' scalars are freed once packed."""
    sides = [side for identity in identities for side in identity]
    words = {w: w for side in sides for _, ws in side for w in ws}
    bound = (sum(c.l1_norm() * letter_bound(sum(ws, ())) for c, ws in side) for side in sides)
    bits = slot_bits(max(bound))
    offset = max(map(letter_offset, words))
    floors = (len(ws) * offset - min(0, c.min_exp()) for side in sides for c, ws in side)
    base = max(floors)
    packed = [
        [
            (sign * pack(c, bits, base - len(ws) * offset), ws)
            for sign, side in zip((1, -1), identity)
            for c, ws in side
        ]
        for identity in identities
    ]
    return words, bits, offset, packed


def _first_difference(cols: dict, signed: list, block):
    """The first word w of `block` on which sum c Psi(words) e_w is not zero, else None.

    `signed` holds the terms (c, words) of lhs - rhs with packed c; `cols` holds
    the block's packed columns.  Every term is summed in place into one
    difference per column."""
    diff: dict = {}
    for c, ws in signed:
        if len(ws) == 1:
            for w, col in cols[ws[0]].items():
                tgt = diff.setdefault(w, {})
                for u, s in col.items():
                    tgt[u] = tgt.get(u, 0) + (s if c == 1 else c * s)
        else:
            x, y = ws
            xcols = cols[x]
            for w, ycol in cols[y].items():
                tgt = diff.setdefault(w, {})
                for u, t in ycol.items():
                    if c != 1:
                        t *= c
                    for v, s in xcols.get(u, {}).items():
                        tgt[v] = tgt.get(v, 0) + t * s
    if not any(any(col.values()) for col in diff.values()):
        return None
    return next(w for w in block if any(diff.get(w, {}).values()))


# ---------------------------------------------------------------------------
# memoized per-basis-element traces
# ---------------------------------------------------------------------------


@cache
def basis_trace(r: int, idx: BasisIndex) -> SymPoly:
    """Weighted diagonal trace of one basis element, as a symmetric polynomial.

    The word T_A P_k Y is rotated to e_k (Y T_A) e_k (see the module
    docstring), so only words starting with k letters r+1 are visited, and of
    those only the representative blocks of the tail.  Diagonal entries are
    summed packed, one sum per composition, and each sum is unpacked once;
    the fold into partitions checks that rearranged compositions agree.
    """
    letters = basis_word(idx).letters
    k = idx.k
    if k:
        p = letters.index(("P", k))
        letters = letters[p + 1 :] + letters[:p]
    bits = slot_bits((r + 1) ** (idx.n - k) * letter_bound(letters))
    offset = letter_offset(letters)
    one = 1 << (bits * offset)
    head = (r + 1,) * k
    comps: dict = {}
    for block in pattern_blocks(idx.n - k, r):
        total = 0
        for tail in block:
            w = head + tail
            total += _act(letters, {w: one}, r, bits).get(w, 0)
        comps[tuple(Counter(a for a in block[0] if a <= r).values())] = total
    return _from_compositions({a: unpack(c, bits, offset) for a, c in comps.items()}, r)


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
    generic rank.  Each operator is one row: its packed columns on the
    representative blocks of `pattern_blocks`, keyed by (input word, output
    word); the other blocks only repeat these coordinates.
    """
    words_of = {idx: basis_word(idx).letters for idx in iter_standard_basis(n)}
    offset = max(map(letter_offset, words_of.values()))
    rows: dict = {idx: {} for idx in words_of}
    for block in pattern_blocks(n, r):
        for idx, cols in psi_columns(words_of, block, r, bits, offset).items():
            row = rows[idx]
            for w, col in cols.items():
                for u, c in col.items():
                    row[(w, u)] = c
    return rank_over_q(rows.values())
