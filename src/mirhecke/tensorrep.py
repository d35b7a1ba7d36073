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

Word ids and rows.  Every letter maps the words of one content (a block)
into the same block, so each block gets dense word ids: the position of a
word among the block's sorted words.  `_block(content, r)` builds, once
per (content, r), one row per word and braid letter R_i^+-1, from the
local rules above (`_braid_row`): a tuple of at most three monomials
(delta, e, a), the term a v^e of word id + delta.  For each idempotent e_j
it keeps the set of the ids that e_j keeps (`_idempotent_keeps`).  A
block of N words thus holds 2(n-1) N rows, equal rows shared, and n id
sets: linear in N times the number of letters.  The memo is pure and in
process only; `_block.cache_clear()` empties it.

The rows are applied by the engine's one kernel, `ring.apply_rows`, on
plain ints (see `ring.pack`).  A coefficient p is stored as
X = p(2^B) * 2^(B*E), one power of v being a shift of unit = B bits, so
the four letter constants become shifts:

    -v c         = -(c << B)
    (q-1) c      = (c << 2B) - c
    -v^-1 c      = -(c >> B)
    (q^-1 - 1) c = (c >> 2B) - c

Only R^-1 lowers a v-exponent, by at most 2, so an offset E of twice the
inverse letters keeps every exponent of a unit word's image at or above -E,
which makes every right shift exact.  Decoding is exact when every coefficient that is
read back or compared satisfies |a| < 2^(B-1).  R^+-1 sends a unit word to
at most two words whose coefficients have l1 norms 1 and 2, so every entry
of Psi(word) e_w has l1 norm at most 3^L for L braid letters.  That
bound and the offset E are the gain and the drop of the engine's own
`algebra._word_bounds`.  Callers derive B from the gain and whatever they
sum on top of it: a trace adds up at most (#words) entries, a side sum
c Psi(x) o Psi(y) has norm at most sum ||c||_1 3^(L_x + L_y).  B is never
a setting.

`psi_columns` is the one function that builds operator columns, for its
two callers: `first_differences` compares them and `image_rank` ranks
them.  It advances the columns of every input word of a block together:
its state is one packed sparse vector keyed w * N + u (entry u of the
column of input w), and the kernel finds the row of key k through a
selector list, sel[k] = k mod N, made for the call and dropped after it.
So a block costs one kernel pass per distinct letter suffix that starts
with a braid letter, and one filter by the kept ids per suffix that starts
with an idempotent, whatever N is.  The suffixes, shortest first, are the
same for every block, so each caller builds that order once
(`suffix_order`) and hands it to every block.  Only `basis_trace` applies letters
itself, because it visits a rotated word (below); it advances the
diagonal starting points of a whole block the same way.

`first_differences` is the one operator comparison.  `checks` hands it
the defining relations and Psi(ab) = Psi(a) o Psi(b) as identities whose
terms c Psi(x) or c Psi(x) o Psi(y) hold one word or two.  It derives B
once, packs columns at E = the largest drop of the words, so a
k-word term sits at offset kE, and packs each c at base - kE, base being
the largest kE - min(0, lowest exponent of c): every term lands at base,
and lhs - rhs is summed into one int-keyed difference per block, which
must vanish.  Its witness is the first failing word in block order, that
is the smallest failing input id.

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
  `symfun._fold_symmetric` raises when two rearrangements of one
  partition differ, zero included.

Traces never build an operator.  D preserves content, so it commutes with
every R_i and e_j, and e_k is idempotent; by cyclicity of the trace

    tr(D Psi(T_A e_k Y)) = tr(D e_k (Y T_A) e_k).

So `trace_sums` runs only over the words that begin with k letters r+1
(the ids that e_k keeps) in the blocks whose last n-k letters have a
representative content, applies the letters of Y T_A to all of them at
once, on the rows of their common block, and reads back each word's own
coefficient.  Only the diagonal of the last letter's image is read, and
the entry (w, w) of R_i^+-1 X comes from the entries (w, w) and (w, s_i w)
of X alone, the targets of w's own row (s_i is an involution on words);
so the last letter is applied to those entries only.  The packed diagonal
entries are summed per composition, and the sums are folded into
partitions as packed ints: at a width where every sum decodes, equal ints
are equal sums, so the rearrangement check of `symfun._fold_symmetric`
runs on the ints themselves.  A sum adds at most (r+1)^(n-k) entries of l1
norm at most 3^L, so the caller passes a width of at least
slot_bits((r+1)^(n-k) 3^L) (`trace_bound`) plus whatever it sums on top.  `basis_trace` passes exactly that and unpacks
once per partition; `characters.class_polynomials` passes the width of its
class-polynomial map and reads the sums packed.

Everything here is lazy and sparse: operators are never materialized as
dense matrices.  Four things are memoized, with `functools.cache`: the
block tables (`_block`), the representative contents per (n, r)
(`_pattern_contents`), the rotated word of each basis index
(`_rotated_letters`) and the per-basis-element traces (`basis_trace`).

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

from .algebra import AlgebraElement, _word_bounds, basis_word
from .combinatorics import BasisIndex, iter_standard_basis
from .ring import apply_rows, pack, rank_over_q, slot_bits, unpack
from .symfun import SymPoly, _fold_symmetric, schur_expand


# ---------------------------------------------------------------------------
# content blocks on dense word ids, one row table per letter
# ---------------------------------------------------------------------------


def _braid_row(word: tuple, i: int, s: int) -> tuple:
    """R_i^s (s = +-1) on one word by the local rules: ((word', e, a), ...), terms a v^e word'."""
    a, b = word[i - 1], word[i]
    if a == b:
        return ((word, 0, -1),)
    swap = (word[: i - 1] + (b, a) + word[i + 1 :], s, -1)
    return (swap, (word, 2 * s, 1), (word, 0, -1)) if (a > b) == (s == 1) else (swap,)


def _idempotent_keeps(word: tuple, j: int, r: int) -> bool:
    """Whether e_j keeps the word: its first j letters all equal r+1."""
    return all(k == r + 1 for k in word[:j])


class _Block:
    """The words of one content, sorted, and the action of every letter on them.

    A word's id is its position in `words`.  `table[("T", i, s)][u]` is the
    row of R_i^s on word u, `_braid_row` with each target word named by its
    id shift delta = target - u: monomials (delta, e, a), the term a v^e of
    word u + delta.  `table[("P", j)]` is the set of the ids that e_j keeps.
    """

    __slots__ = ("words", "ids", "table")

    def __init__(self, content: tuple, r: int):
        n = len(content)
        self.words = words = sorted(set(itertools.permutations(content)))
        self.ids = ids = {w: u for u, w in enumerate(words)}
        self.table: dict = {}
        shared: dict = {}  # equal rows are one tuple
        for i in range(1, n):
            for s in (1, -1):
                rows = []
                for u, w in enumerate(words):
                    row = tuple((ids[t] - u, e, a) for t, e, a in _braid_row(w, i, s))
                    rows.append(shared.setdefault(row, row))
                self.table[("T", i, s)] = rows
        for j in range(1, n + 1):
            self.table[("P", j)] = frozenset(
                u for u, w in enumerate(words) if _idempotent_keeps(w, j, r)
            )


@cache
def _block(content: tuple, r: int) -> _Block:
    """The block of the words with this content (sorted) on r+1 letters (memoized)."""
    return _Block(content, r)


@cache
def _pattern_contents(n: int, r: int) -> tuple:
    """The sorted contents of the representative blocks, in content order (memoized)."""
    top = r + 1
    contents = [(top,) * n]
    for m in range(1, n + 1):
        for steps in itertools.product((0, 1), repeat=m - 1):
            if sum(steps) < r:
                contents.append(tuple(itertools.accumulate(steps, initial=1)) + (top,) * (n - m))
    return tuple(sorted(contents))


def pattern_blocks(n: int, r: int):
    """The sorted words of each representative content block: those whose letters
    below r+1 are exactly 1..p, in content order (that of
    `itertools.combinations_with_replacement`).  Each is the block's own
    `words` list (`_block`), which callers only read.

    The content with c_i letters i for i = 1..p, p <= min(n, r), and
    n - sum(c) letters r+1 stands for every block that an order-preserving
    relabelling of 1..r maps onto it (see the module docstring).  It is built
    from the composition (c_1..c_p), so the cost does not grow with r.
    """
    for content in _pattern_contents(n, r):
        yield _block(content, r).words


def suffix_order(words_of: dict) -> list:
    """The nonempty suffixes of the letter tuples of `words_of`, shortest first:
    each comes after the suffix one letter shorter, from which `psi_columns`
    builds it."""
    return sorted({lt[i:] for lt in words_of.values() for i in range(len(lt))}, key=len)


def psi_columns(words_of: dict, suffixes: list, inputs, r: int, bits: int, offset: int) -> dict:
    """{x: {w * N + u: entry u of Psi(words_of[x]) e_w}} over the input words w, zeros left out.

    The inputs are words of one content; w and u are ids in that content's
    block of N words.  `suffixes` is `suffix_order(words_of)`, built once by
    the caller for all its blocks.  The entries are packed with (bits,
    offset); the caller derives both from the words it compares.  The
    columns of every input advance together: one kernel pass per distinct
    letter suffix that starts with a braid letter, one filter per suffix
    that starts with an idempotent; letter tuples that end alike share their
    common suffix.
    """
    inputs = list(inputs)
    blk = _block(tuple(sorted(inputs[0])), r)
    size = len(blk.words)
    sel = list(range(size)) * size  # key w * N + u -> u, for this call only
    one = 1 << (bits * offset)
    done = {(): {blk.ids[w] * (size + 1): one for w in inputs}}
    for letters in suffixes:
        state, table = done[letters[1:]], blk.table[letters[0]]
        if letters[0][0] == "P":
            done[letters] = {key: c for key, c in state.items() if sel[key] in table}
        else:
            done[letters] = apply_rows(state, table, sel, bits)
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
    suffixes = suffix_order(words)
    out: list = [None] * len(packed)
    for block in pattern_blocks(n, r):
        cols = psi_columns(words, suffixes, block, r, bits, offset)
        for k, signed in enumerate(packed):
            if out[k] is None:
                w = _first_difference(cols, signed, len(block))
                out[k] = None if w is None else block[w]
    return out


def _pack_identities(identities: list) -> tuple:
    """(words, B, E, [lhs - rhs as terms (packed c, words)]) of the identities.
    A function of its own, so the identities' scalars are freed once packed."""
    sides = [side for identity in identities for side in identity]
    words = {w: w for side in sides for _, ws in side for w in ws}
    bound = (sum(c.l1_norm() * _word_bounds(sum(ws, ()))[0] for c, ws in side) for side in sides)
    bits = slot_bits(max(bound))
    offset = max(_word_bounds(w)[1] for w in words)
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


def _first_difference(cols: dict, signed: list, size: int):
    """The smallest input id w on which sum c Psi(words) e_w is not zero, else None.

    `signed` holds the terms (c, words) of lhs - rhs with packed c; `cols`
    holds the block's packed columns, keyed w * size + u (`psi_columns`).
    Every term is summed in place into one difference, keyed alike.  For
    c Psi(x) o Psi(y), entry u of Psi(y) e_w meets column u of Psi(x), whose
    entry v lands on key w * size + v, the key of the y entry plus v - u.
    """
    diff: dict = {}
    get = diff.get
    for c, ws in signed:
        if len(ws) == 1:
            for key, s in cols[ws[0]].items():
                diff[key] = get(key, 0) + (s if c == 1 else c * s)
            continue
        x, y = ws
        xcols: dict = {}  # the entries of Psi(x) by input id u, as (v - u, entry)
        for key, s in cols[x].items():
            u, v = divmod(key, size)
            xcols.setdefault(u, []).append((v - u, s))
        for key, t in cols[y].items():
            if c != 1:
                t *= c
            for shift, s in xcols.get(key % size, ()):
                target = key + shift
                diff[target] = get(target, 0) + t * s
    if not any(diff.values()):
        return None
    return min(key for key, d in diff.items() if d) // size


# ---------------------------------------------------------------------------
# memoized per-basis-element traces
# ---------------------------------------------------------------------------


@cache
def _rotated_letters(idx: BasisIndex) -> tuple:
    """The letters of Y T_A for the basis word T_A P_k Y (all of them for k = 0), memoized."""
    letters = basis_word(idx).letters
    if idx.k:
        p = letters.index(("P", idx.k))
        letters = letters[p + 1 :] + letters[:p]
    return letters


def trace_bound(r: int, idx: BasisIndex) -> int:
    """(r+1)^(n-k) 3^L: a bound on the l1 norm of every diagonal sum of `trace_sums`."""
    return (r + 1) ** (idx.n - idx.k) * _word_bounds(_rotated_letters(idx))[0]


def trace_sums(r: int, idx: BasisIndex, bits: int) -> tuple[int, dict]:
    """(E, {lam: packed sum}): the diagonal sums of one basis element, folded to partitions.

    The word T_A P_k Y is rotated to e_k (Y T_A) e_k (see the module
    docstring), so only words starting with k letters r+1 are visited, and of
    those only the representative blocks of the tail.  Diagonal entries are
    summed packed at `bits` and offset E, one sum per composition; the fold
    into partitions checks, on the packed ints, that rearranged compositions
    agree.  The caller passes bits >= slot_bits(`trace_bound`(r, idx)) plus
    whatever it sums on top; the sums are never unpacked here.
    """
    letters = _rotated_letters(idx)
    offset = _word_bounds(letters)[1]
    one = 1 << (bits * offset)
    k = idx.k
    head = (r + 1,) * k
    comps: dict = {}
    for tail in _pattern_contents(idx.n - k, r):
        blk = _block(tail + head, r)  # a sorted content: the letters r+1 come last
        size = len(blk.words)
        sel = list(range(size)) * size  # key w * N + u -> u, as in `psi_columns`
        # the words that begin with k letters r+1: those that e_k keeps
        diagonal = [u * (size + 1) for u in (blk.table[("P", k)] if k else range(size))]
        vec = dict.fromkeys(diagonal, one)
        for lt in reversed(letters[1:]):  # braid letters only
            vec = apply_rows(vec, blk.table[lt], sel, bits)
        if letters:
            # of the last letter's image only the diagonal is read: entry (w, w)
            # comes from (w, w) and (w, s_i w), the keys of w's own row
            rows = blk.table[letters[0]]
            near = {}
            for key in diagonal:
                for delta, _, _ in rows[sel[key]]:
                    c = vec.get(key + delta)
                    if c:
                        near[key + delta] = c
            vec = apply_rows(near, rows, sel, bits)
        total = sum(vec.get(key, 0) for key in diagonal)
        comps[tuple(Counter(a for a in tail if a <= r).values())] = total
    return offset, _fold_symmetric(comps)


@cache
def basis_trace(r: int, idx: BasisIndex) -> SymPoly:
    """Weighted diagonal trace of one basis element, as a symmetric polynomial:
    `trace_sums` at the width of its own bound, each partition's sum unpacked once."""
    bits = slot_bits(trace_bound(r, idx))
    offset, sums = trace_sums(r, idx, bits)
    return SymPoly(r, {lam: unpack(c, bits, offset) for lam, c in sums.items()})


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
    offset = max(_word_bounds(w)[1] for w in words_of.values())
    suffixes = suffix_order(words_of)
    rows: dict = {idx: {} for idx in words_of}
    base = 0
    for block in pattern_blocks(n, r):
        for idx, col in psi_columns(words_of, suffixes, block, r, bits, offset).items():
            rows[idx].update((base + key, c) for key, c in col.items())
        base += len(block) ** 2
    return rank_over_q(rows.values())
