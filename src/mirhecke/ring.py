"""Exact scalar arithmetic for the algebra kernel.

Everything downstream computes over the Laurent polynomial ring Z[v, v^-1]
with q = v^2.  A single variable v keeps the half-integer powers of q needed
by the tensor-space operators in the same ring as the intrinsic algebra
coefficients, which provably stay in even v-exponents (the Z[q, q^-1]
subring).  No floating point enters anywhere; integer coefficients are
arbitrary-precision Python ints and specializations are `fractions.Fraction`.

`solve_linear` is fraction-free (Bareiss) elimination carried through the
back substitution: it returns (d, y) with M y = d c, d = +-det M, and every
division on the way is exact in Z[v, v^-1].  No fraction field is needed;
a caller that wants x = y / d divides each y_i by d with `exact_div`, which
raises InexactDivisionError when the quotient is not Laurent.  Coefficient
growth stays polynomial for the table sizes that occur here (12 x 12 at
n = 4, 19 x 19 at n = 5).

Class polynomials solve one character table against many right sides, so
the matrix half of the elimination (row swaps, pivots, eliminated columns
and the final upper triangle) is computed once per matrix content and kept
in a small bounded in-process cache; each call replays only its right side
and the back substitution.

`rank_over_q` is the one elimination over Q: a sparse row reduction of
rows {position: int or Fraction}.  It ranks the tensor image
(`tensorrep.image_rank`) and tests the specialized character table for
invertibility (`checks.determinant_nonzero`).

The tensor-space kernels (`tensorrep`) and the normal-form engine
(`algebra`) run on plain ints instead (Kronecker substitution).
`pack(x, bits, offset)` stores a Laurent polynomial p as the integer
p(2^bits) * 2^(bits * offset): v -> 2^bits is a ring homomorphism, so sums
and products of packed values are the packed sums and products, and
multiplying by v^+-1 is a shift by `bits`.  The offset must cover the lowest
exponent that can occur, so that every right shift is exact.  `unpack` reads
the integer back as balanced base-2^bits digits.  The digits are unique as
long as every coefficient satisfies |a| < 2^(bits-1); `slot_bits(bound)` is
the width at which any coefficient of absolute value <= bound decodes, and
a caller must derive the bound a priori for every value it will unpack or
compare.  `pack` raises ValueError on an exponent below -offset or a
coefficient too wide for the slot; a packed integer carries no record of
either, so `unpack` cannot check them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping


class SingularMatrixError(ValueError):
    """Raised by `solve_linear` when the matrix is singular over C(v)."""


class InexactDivisionError(ArithmeticError):
    """Raised when an exact Laurent division leaves a remainder."""


class LaurentScalar:
    """An element of Z[v, v^-1], stored sparsely as {v-exponent: coefficient}.

    Instances are immutable; all arithmetic returns fresh objects in
    canonical form (no zero coefficients stored).
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        c = {}
        if coeffs:
            for e, a in coeffs.items():
                if a:
                    c[int(e)] = int(a)
        self._c = c
        self._hash = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, a: int) -> "LaurentScalar":
        return cls({0: a})

    @classmethod
    def v_power(cls, e: int, coeff: int = 1) -> "LaurentScalar":
        """coeff * v^e."""
        return cls({e: coeff})

    @classmethod
    def q_power(cls, e: int, coeff: int = 1) -> "LaurentScalar":
        """coeff * q^e, i.e. coeff * v^(2e)."""
        return cls({2 * e: coeff})

    # -- inspection ----------------------------------------------------

    def items(self):
        return self._c.items()

    def is_zero(self) -> bool:
        return not self._c

    def is_one(self) -> bool:
        return self._c == {0: 1}

    def is_even(self) -> bool:
        """True when the scalar lies in the subring Z[q, q^-1]."""
        return all(e % 2 == 0 for e in self._c)

    def is_unit(self) -> bool:
        """Units of Z[v, v^-1] are the single terms +-v^e."""
        if len(self._c) != 1:
            return False
        (a,) = self._c.values()
        return a in (1, -1)

    def l1_norm(self) -> int:
        """Sum of the absolute values of the coefficients."""
        return sum(abs(a) for a in self._c.values())

    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero scalar has no exponents")
        return min(self._c)

    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero scalar has no exponents")
        return max(self._c)

    # -- arithmetic ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentScalar.from_int(other)
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        if self._hash is None:
            # a constant equals its int, so it must hash like it
            c = self._c
            self._hash = hash(c.get(0, 0) if c.keys() <= {0} else tuple(sorted(c.items())))
        return self._hash

    def __neg__(self) -> "LaurentScalar":
        return LaurentScalar({e: -a for e, a in self._c.items()})

    def __add__(self, other) -> "LaurentScalar":
        if isinstance(other, int):
            other = LaurentScalar.from_int(other)
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        c = dict(self._c)
        for e, a in other._c.items():
            s = c.get(e, 0) + a
            if s:
                c[e] = s
            else:
                c.pop(e, None)
        out = LaurentScalar.__new__(LaurentScalar)
        out._c = c
        out._hash = None
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentScalar":
        if isinstance(other, int):
            other = LaurentScalar.from_int(other)
        return self + (-other)

    def __rsub__(self, other) -> "LaurentScalar":
        return (-self) + other

    def __mul__(self, other) -> "LaurentScalar":
        if type(other) is not LaurentScalar:
            if isinstance(other, int):
                if other == 0:
                    return ZERO
                if other == 1:
                    return self
                return LaurentScalar({e: a * other for e, a in self._c.items()})
            if not isinstance(other, LaurentScalar):
                return NotImplemented
        a, b = self._c, other._c
        if len(a) == 1 and len(b) != 1:
            a, b = b, a  # b is the monomial factor when there is one
        if len(b) == 1:
            # shift the exponents and scale the coefficients; a product of
            # nonzero ints is nonzero, so nothing cancels
            ((e2, a2),) = b.items()
            if e2 == 0 and a2 == 1:
                # scalars are immutable, so the other factor is the product
                return self if a is self._c else other
            c = {}
            for e1, a1 in a.items():
                c[e1 + e2] = a1 * a2
        elif not a or not b:
            return ZERO
        else:
            c = {}
            for e1, a1 in a.items():
                for e2, a2 in b.items():
                    e = e1 + e2
                    s = c.get(e, 0) + a1 * a2
                    if s:
                        c[e] = s
                    else:
                        del c[e]
        out = LaurentScalar.__new__(LaurentScalar)
        out._c = c
        out._hash = None
        return out

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "LaurentScalar":
        if k < 0:
            if self.is_unit():
                return self.inverse_unit() ** (-k)
            raise ValueError("negative power of a non-unit scalar")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def inverse_unit(self) -> "LaurentScalar":
        if not self.is_unit():
            raise ValueError("not a unit of Z[v, v^-1]")
        ((e, a),) = self._c.items()
        return LaurentScalar({-e: a})

    def bar(self) -> "LaurentScalar":
        """The bar involution v -> v^-1 (hence q -> q^-1)."""
        return LaurentScalar({-e: a for e, a in self._c.items()})

    def specialize(self, q0: Fraction | int, v0: Fraction | int | None = None) -> Fraction:
        """Evaluate at q = q0 (and v = v0 when odd exponents occur).

        q0 must be nonzero since q is invertible in the algebra.  v0, when
        supplied, must satisfy v0^2 = q0.
        """
        q0 = Fraction(q0)
        if q0 == 0:
            raise ValueError("q0 = 0 is not allowed: q must be invertible")
        if v0 is not None:
            v0 = Fraction(v0)
            if v0 * v0 != q0:
                raise ValueError("v0^2 != q0")
        total = Fraction(0)
        for e, a in self._c.items():
            if e % 2 == 0:
                total += a * q0 ** (e // 2)
            else:
                if v0 is None:
                    raise ValueError("odd v-exponent present: v0 is required")
                total += a * v0**e
        return total

    def exact_div(self, other: "LaurentScalar | int") -> "LaurentScalar":
        """Exact division by a scalar or int; raises InexactDivisionError otherwise.

        Long division of the integer coefficient lists, lowest exponents
        shifted to 0: each quotient coefficient is the top remainder
        coefficient over the divisor's leading one, and the first that
        leaves a remainder shows the quotient is not in Z[v, v^-1].
        """
        if isinstance(other, int):
            other = LaurentScalar.from_int(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if self.is_zero():
            return ZERO
        if other.is_unit():
            return self * other.inverse_unit()
        rem, nshift = self._as_poly()
        den, dshift = other._as_poly()
        dg = len(den) - 1
        lead = den[dg]
        quo = {}
        for k in range(len(rem) - 1 - dg, -1, -1):
            c, r = divmod(rem[k + dg], lead)
            if r:
                raise InexactDivisionError("inexact Laurent division")
            if c:
                quo[k + nshift - dshift] = c
                for i in range(dg):
                    rem[k + i] -= c * den[i]
        if any(rem[:dg]):
            raise InexactDivisionError("inexact Laurent division")
        return LaurentScalar(quo)

    # -- dense helper (for division) -----------------------------------

    def _as_poly(self) -> tuple[list[int], int]:
        """Return (dense coefficient list, shift) with poly[0] != 0."""
        lo = self.min_exp()
        hi = self.max_exp()
        dense = [0] * (hi - lo + 1)
        for e, a in self._c.items():
            dense[e - lo] = a
        return dense, lo

    # -- rendering -------------------------------------------------------

    def __repr__(self):
        return f"LaurentScalar({self.to_string()!r})"

    def to_string(self) -> str:
        """Human-readable form, in q when all exponents are even, else in v."""
        if not self._c:
            return "0"
        var = "q" if self.is_even() else "v"
        halve = var == "q"
        parts = []
        for e in sorted(self._c, reverse=True):
            a = self._c[e]
            ee = e // 2 if halve else e
            if ee == 0:
                term = str(abs(a))
            else:
                mag = "" if abs(a) == 1 else f"{abs(a)}*"
                pw = var if ee == 1 else f"{var}^{ee}"
                term = f"{mag}{pw}"
            if not parts:
                parts.append(("-" if a < 0 else "") + term)
            else:
                parts.append(("-" if a < 0 else "+") + term)
        return "".join(parts)

    def to_json(self) -> dict:
        # exponents are emitted high-to-low so output bytes are reproducible
        order = sorted(self._c, reverse=True)
        if self.is_even():
            return {"var": "q", "coeffs": {str(e // 2): str(self._c[e]) for e in order}}
        return {"var": "v", "coeffs": {str(e): str(self._c[e]) for e in order}}

    @classmethod
    def from_json(cls, obj: dict) -> "LaurentScalar":
        var = obj["var"]
        if var not in ("q", "v"):
            raise ValueError(f"unknown variable {var!r}")
        mult = 2 if var == "q" else 1
        return cls({mult * int(e): int(a) for e, a in obj["coeffs"].items()})


ZERO = LaurentScalar()
ONE = LaurentScalar.from_int(1)
MINUS_ONE = LaurentScalar.from_int(-1)
Q = LaurentScalar.q_power(1)
QINV = LaurentScalar.q_power(-1)
V = LaurentScalar.v_power(1)
Q_MINUS_1 = Q - ONE
# -q^-1 (q-1): the constant term of T^-1 = q^-1 T - q^-1 (q-1)
MINUS_QINV_QM1 = -(QINV * Q_MINUS_1)


def accumulate(terms: dict, key, val) -> None:
    """terms[key] += val in a sparse map, dropping the key when the sum is zero."""
    s = terms.get(key)
    s = val if s is None else s + val
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


def slot_bits(bound: int) -> int:
    """Slot width at which every coefficient of absolute value <= bound packs and unpacks."""
    if bound < 1:
        raise ValueError(f"coefficient bound must be >= 1, got {bound}")
    return bound.bit_length() + 1


def pack(x: LaurentScalar, bits: int, offset: int) -> int:
    """x(2^bits) * 2^(bits * offset), the integer image of x under v -> 2^bits."""
    if bits < 2:
        raise ValueError(f"slot width must be >= 2 bits, got {bits}")
    half = 1 << (bits - 1)
    out = 0
    for e, a in x.items():
        if e < -offset:
            raise ValueError(f"exponent {e} below the offset -{offset}")
        if not -half < a < half:
            raise ValueError(f"coefficient {a} does not fit a {bits}-bit slot")
        out += a << (bits * (e + offset))
    return out


def unpack(packed: int, bits: int, offset: int) -> LaurentScalar:
    """The Laurent polynomial with coefficients |a| < 2^(bits-1) that packs to `packed`."""
    if bits < 2:
        raise ValueError(f"slot width must be >= 2 bits, got {bits}")
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    c = {}
    e = -offset
    while packed:
        d = packed & mask
        if d >= half:
            d -= mask + 1
        if d:
            c[e] = d
        packed = (packed - d) >> bits
        e += 1
    out = LaurentScalar.__new__(LaurentScalar)
    out._c = c
    out._hash = None
    return out


@lru_cache(maxsize=8)
def _bareiss(rows: tuple) -> tuple:
    """Fraction-free forward elimination of a square matrix, recorded for replay.

    Returns (steps, upper, d): per column k the step (row swapped into k,
    pivot, previous pivot, column entries m_ik below the pivot before they
    were eliminated), the final upper triangle and the final pivot d.
    """
    m = [list(row) for row in rows]
    n = len(m)
    steps = []
    prev = ONE
    for k in range(n):
        swap = k
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    swap = i
                    break
            else:
                raise SingularMatrixError(f"singular system (column {k})")
        piv = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * piv - m[i][k] * m[k][j]).exact_div(prev)
        steps.append((swap, piv, prev, tuple(m[i][k] for i in range(k + 1, n))))
        for i in range(k + 1, n):
            m[i][k] = ZERO
        prev = piv
    return tuple(steps), tuple(tuple(row) for row in m), prev


def solve_linear(
    matrix: Iterable[Iterable[LaurentScalar]], rhs: Iterable[LaurentScalar]
) -> tuple[LaurentScalar, list[LaurentScalar]]:
    """Solve M x = c fraction-free: return (d, y) with M y = d c, so x = y / d.

    Bareiss elimination divides exactly by the previous pivot; the back
    substitution

        y_i = (d * c'_i - sum_{j > i} m_ij * y_j) / m_ii

    divides exactly too, because d = +-det M makes y = +-adj(M) c Laurent.
    Here d is the final pivot and c' the eliminated right side.  The matrix
    half of the elimination is cached by content, so repeated solves against
    one matrix replay only the right side, with the same operations in the
    same order as on the augmented matrix.  Raises SingularMatrixError if M
    is singular, on every call: a failed elimination is not cached.
    """
    rows = tuple(tuple(row) for row in matrix)
    c = list(rhs)
    n = len(rows)
    if len(c) != n or any(len(row) != n for row in rows):
        raise ValueError("matrix must be square and match the rhs length")
    steps, upper, d = _bareiss(rows)
    for k, (swap, piv, prev, col) in enumerate(steps):
        if swap != k:
            c[k], c[swap] = c[swap], c[k]
        ck = c[k]
        for i, mik in enumerate(col, k + 1):
            c[i] = (c[i] * piv - mik * ck).exact_div(prev)
    y = [ZERO] * n
    for i in range(n - 1, -1, -1):
        row = upper[i]
        acc = d * c[i]
        for j in range(i + 1, n):
            acc = acc - row[j] * y[j]
        y[i] = acc.exact_div(row[i])
    return d, y


def rank_over_q(rows: Iterable[Mapping]) -> int:
    """Rank over Q of sparse rows {position: int or Fraction}, zero entries allowed.

    Each row is reduced against the pivot rows on its lowest position until
    it vanishes or opens a new pivot there; positions need only be mutually
    orderable.
    """
    pivots: dict = {}
    for row in rows:
        vec = {p: a for p, a in row.items() if a}
        while vec:
            pos = min(vec)
            piv = pivots.get(pos)
            if piv is None:
                inv = Fraction(1) / vec[pos]
                pivots[pos] = {p: a * inv for p, a in vec.items()}
                break
            f = vec[pos]
            for p, a in piv.items():
                s = vec.get(p, 0) - f * a
                if s:
                    vec[p] = s
                else:
                    vec.pop(p, None)
    return len(pivots)
