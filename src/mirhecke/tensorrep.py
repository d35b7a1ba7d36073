"""Sparse tensor-space action and the weighted-trace character oracle.

The rank-n algebra acts on the n-fold tensor power of an (r+1)-dimensional
space.  On index words (k_1..k_n) over {1..r+1} the braid generator acts on
two adjacent letters by

    (a, a) -> -(a, a)
    (a, b) -> -v (b, a)                 for a < b
    (a, b) -> -v (b, a) + (q-1) (a, b)  for a > b

(with v = q^(1/2)), and the j-th idempotent keeps exactly the words whose
first j letters all equal r+1.  Inverse braid letters act through
q^-1 (R - (q-1)), avoiding any matrix inversion.

The diagonal weighting operator D multiplies a word by x_{k_1} ... x_{k_n}
with x_{r+1} = 1.  The weighted trace of an algebra element is a symmetric
polynomial whose Schur expansion recovers every irreducible character value
of that element at once; this is the module's `char_oracle`, the independent
route against which the recursive character engine is validated.

Everything here is lazy and sparse: operators are never materialized as
dense matrices, and per-basis-element traces and matrices are memoized.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .algebra import AlgebraElement, GeneratorWord, basis_word
from .combinatorics import BasisIndex, iter_standard_basis
from .ring import MINUS_QINV_QM1, ONE, Q, QINV, Q_MINUS_1, V, accumulate
from .symfun import SymPoly, _from_monomials, schur_expand

Word = tuple  # (k_1, ..., k_n) with 1 <= k_i <= r+1

_MINUS_V = -V


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
    out = {w: c * MINUS_QINV_QM1 for w, c in terms.items()}
    for w, c in _raw_apply_R(i, terms).items():
        accumulate(out, w, c * QINV)
    return out


def _raw_apply_e(j: int, terms: dict, r: int) -> dict:
    top = r + 1
    return {w: c for w, c in terms.items() if all(k == top for k in w[:j])}


def _raw_apply_letter(letter, terms: dict, r: int) -> dict:
    if letter[0] == "T":
        if letter[2] == 1:
            return _raw_apply_R(letter[1], terms)
        return _raw_apply_R_inv(letter[1], terms)
    return _raw_apply_e(letter[1], terms, r)


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
    terms = state.terms
    for lt in reversed(word.letters):
        terms = _raw_apply_letter(lt, terms, state.r)
    return TensorState(state.n, state.r, terms)


def basis_words(n: int, r: int):
    return itertools.product(range(1, r + 2), repeat=n)


# ---------------------------------------------------------------------------
# memoized per-basis-element operators and traces
# ---------------------------------------------------------------------------

_PSI_CACHE: dict = {}
_TRACE_CACHE: dict = {}


def clear_caches() -> None:
    _PSI_CACHE.clear()
    _TRACE_CACHE.clear()


def psi_matrix(r: int, idx: BasisIndex) -> dict:
    """Sparse operator of a basis element: {input word: {output word: coeff}}."""
    key = (r, idx)
    hit = _PSI_CACHE.get(key)
    if hit is not None:
        return hit
    n = idx.n
    letters = tuple(reversed(basis_word(idx).letters))
    mat = {}
    for w in basis_words(n, r):
        terms = {w: ONE}
        for lt in letters:
            terms = _raw_apply_letter(lt, terms, r)
            if not terms:
                break
        if terms:
            mat[w] = terms
    _PSI_CACHE[key] = mat
    return mat


def psi_of_element(x: AlgebraElement, r: int) -> dict:
    """Sparse operator of an arbitrary element (linear combination of matrices)."""
    out: dict = {}
    for idx, c in x.terms.items():
        for col, colmap in psi_matrix(r, idx).items():
            tgt = out.setdefault(col, {})
            for row, s in colmap.items():
                accumulate(tgt, row, c * s)
    return {col: colmap for col, colmap in out.items() if colmap}


def compose_operators(a: dict, b: dict) -> dict:
    """Operator composition a o b on sparse column maps."""
    out: dict = {}
    for col, bcol in b.items():
        tgt: dict = {}
        for mid, c in bcol.items():
            acol = a.get(mid)
            if not acol:
                continue
            for row, s in acol.items():
                accumulate(tgt, row, c * s)
        if tgt:
            out[col] = tgt
    return out


def basis_trace(r: int, idx: BasisIndex) -> SymPoly:
    """Weighted diagonal trace of one basis element, as a symmetric polynomial."""
    key = (r, idx)
    hit = _TRACE_CACHE.get(key)
    if hit is not None:
        return hit
    mat = psi_matrix(r, idx)
    monos: dict = {}
    for col, colmap in mat.items():
        c = colmap.get(col)
        if not c:
            continue
        expo = [0] * r
        for k in col:
            if k <= r:
                expo[k - 1] += 1
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
# diagnostics: operator relations, multiplicativity, image rank
# ---------------------------------------------------------------------------


def _combo_action(parts, w: Word, r: int) -> dict:
    """Apply sum_k coeff_k * (word_k) to the basis vector w."""
    total: dict = {}
    for coeff, letters in parts:
        terms = {w: ONE}
        for lt in reversed(letters):
            terms = _raw_apply_letter(lt, terms, r)
            if not terms:
                break
        for ww, c in terms.items():
            accumulate(total, ww, coeff * c)
    return total


def verify_rep_relations(n: int, r: int) -> list[dict]:
    """Check every defining relation as an operator identity on all basis vectors."""
    T = lambda i: ("T", i, 1)
    P = lambda j: ("P", j)
    checks: list[tuple[str, list, list]] = []
    for i in range(1, n):
        checks.append(
            (f"R{i}^2 = (q-1)R{i} + q", [(ONE, [T(i), T(i)])], [(Q_MINUS_1, [T(i)]), (Q, [])])
        )
    for i in range(1, n - 1):
        checks.append(
            (
                f"R{i}R{i+1}R{i} = R{i+1}R{i}R{i+1}",
                [(ONE, [T(i), T(i + 1), T(i)])],
                [(ONE, [T(i + 1), T(i), T(i + 1)])],
            )
        )
    for i in range(1, n):
        for j in range(i + 2, n):
            checks.append(
                (f"R{i}R{j} = R{j}R{i}", [(ONE, [T(i), T(j)])], [(ONE, [T(j), T(i)])])
            )
    for j in range(1, n + 1):
        checks.append((f"e{j}^2 = e{j}", [(ONE, [P(j), P(j)])], [(ONE, [P(j)])]))
    for j in range(1, n + 1):
        for i in range(j + 1, n + 1):
            checks.append((f"e{i}e{j} = e{i}", [(ONE, [P(i), P(j)])], [(ONE, [P(i)])]))
            checks.append((f"e{j}e{i} = e{i}", [(ONE, [P(j), P(i)])], [(ONE, [P(i)])]))
    for i in range(1, n + 1):
        for j in range(1, n):
            if i < j:
                checks.append(
                    (f"e{i}R{j} = R{j}e{i}", [(ONE, [P(i), T(j)])], [(ONE, [T(j), P(i)])])
                )
            elif j < i:
                checks.append(
                    (f"e{i}R{j} = -e{i}", [(ONE, [P(i), T(j)])], [(-ONE, [P(i)])])
                )
                checks.append(
                    (f"R{j}e{i} = -e{i}", [(ONE, [T(j), P(i)])], [(-ONE, [P(i)])])
                )
    for i in range(1, n):
        checks.append(
            (
                f"e{i+1} = -q^-1(e{i}R{i}e{i} - (q-1)e{i})",
                [(ONE, [P(i + 1)])],
                [(-QINV, [P(i), T(i), P(i)]), (QINV * Q_MINUS_1, [P(i)])],
            )
        )
    reports = []
    for name, lhs, rhs in checks:
        witness = None
        for w in basis_words(n, r):
            if _combo_action(lhs, w, r) != _combo_action(rhs, w, r):
                witness = list(w)
                break
        reports.append(
            {
                "check": name,
                "n": n,
                "r": r,
                "status": "pass" if witness is None else "fail",
                "witness": witness,
            }
        )
    return reports


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
