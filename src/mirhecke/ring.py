"""Exact scalar arithmetic for the algebra kernel.

Everything downstream computes over the Laurent polynomial ring Z[v, v^-1]
with q = v^2.  A single variable v keeps the half-integer powers of q needed
by the tensor-space operators in the same ring as the intrinsic algebra
coefficients, which provably stay in even v-exponents (the Z[q, q^-1]
subring).  No floating point enters anywhere; integer coefficients are
arbitrary-precision Python ints and specializations are `fractions.Fraction`.
Its only users, `LaurentScalar.specialize` and `rank_over_q`, import it once
per call, so loading the package loads neither `fractions` nor `decimal`.

`adjugate_columns` is fraction-free (Bareiss) elimination of [M | I]
carried through the back substitution: it returns d = +-det M and every
column adj_j = d M^-1 e_j, and every division on the way is exact in
Z[v, v^-1].  No fraction field is needed; a caller that wants M^-1 divides
by d with `exact_div`, which raises InexactDivisionError when the quotient
is not Laurent.  The class polynomials of `characters` read the whole
adjugate of a character table and cache what they derive from it; `ring`
itself keeps no state.

The elimination runs on packed ints (see `pack` below), in q-slots
(step 2) when every exponent of every entry of the n x n matrix M is even
and in v-slots otherwise.  Its width B and offset E are derived from M
before anything is packed:

- B = `slot_bits`(H) with H = prod over i of (1 + sum over j of ||m_ij||_1);
- E = n * depth, depth being the most slots any entry reaches below slot 0.

Proof.  Every value the elimination keeps is, up to sign, a minor of
[M | I]: after step k the Bareiss entry of row i and column j is the minor
on rows {0..k, i} and columns {0..k, j} of the row-swapped matrix
(Bareiss, Math. Comp. 22, 1968), each pivot and d are such entries, and
y_i = +-adj_ij is the minor on every row and on the columns of M but i
together with e_j.  A minor on the rows R is a signed sum of products of
one entry from each row of R, so its l1 norm is at most the product over
R of the l1 norms of the rows of [M | I], which is at most H, and its
lowest slot is at least -|R| * depth >= -E.  So each such value packs at
offset E to an int, every coefficient has absolute value below 2^(B-1),
and the int decodes uniquely and is 0 exactly when the minor is: a zero
pivot is found on ints.  A step forms a * b - c * e, which is packed at
offset 2E, and divides it by the previous pivot, packed at E; the
quotient is a minor, so the int division is exact and leaves it packed at
E.  A nonzero remainder is a fault and raises InexactDivisionError.
Nothing is decoded between steps: d and adj are decoded once, at the end.

Certificate.  The proof holds for correct code; the decoded result is
checked as it stands: M adj_j = d e_j for every j, on packed ints at the
width `slot_bits`(max over i of sum over j of
||m_ij||_1 * A + ||d||_1), A being the largest absolute coefficient of
adj.  That bounds every coefficient of (M adj_j)_i - d [i = j], so at that
width equal ints are equal polynomials.  A mismatch raises ArithmeticError.
Given d != 0, the identity fixes every column to d M^-1 e_j; that d is
+-det M rests on the elimination.  For the character tables of rank 4, 5
and 6 (12, 19 and 30 rows) one call takes about 2 ms, 10 ms and 0.25 s
(Python 3.11, shared 2-core Xeon VM), the certificate 1/15 of it at n = 6.

`rank_over_q` is the one elimination over Q: a sparse row reduction of
rows {position: int or Fraction}.  It ranks the tensor image
(`tensorrep.image_rank`) and tests the specialized character table for
invertibility (`checks.determinant_nonzero`).

The tensor-space action (`tensorrep`), the normal-form engine (`algebra`)
and the character recursion (`characters`) run on plain ints instead
(Kronecker substitution).
`pack(x, bits, offset)` stores a Laurent polynomial p as the integer
p(2^bits) * 2^(bits * offset): v -> 2^bits is a ring homomorphism, so sums
and products of packed values are the packed sums and products, and
multiplying by v^+-1 is a shift by `bits`.  With `step` = 2 a slot holds a
power of q = v^2 instead (v^2 -> 2^bits), for values in Z[q, q^-1]: the
character recursion always packs so, the engine whenever every input of a
product is in Z[q, q^-1], and `pack` raises ValueError on an odd exponent.
The offset must cover the lowest exponent that can occur, so that every
right shift is exact.  `unpack` reads the integer back as balanced
base-2^bits digits.  The digits are unique as
long as every coefficient satisfies |a| < 2^(bits-1); `slot_bits(bound)` is
the width at which any coefficient of absolute value <= bound decodes, and
a caller must derive the bound a priori for every value it will unpack or
compare.  `pack` raises ValueError on an exponent below -offset or a
coefficient too wide for the slot; a packed integer carries no record of
either, so `unpack` cannot check them.

`apply_rows(elem, rows, sel, unit)` is the one shift-and-accumulate kernel
on packed sparse vectors {int key: packed int}.  A row is a tuple of
monomials (delta, e, a): the term a x^e of key + delta, x^e being a shift
by e * unit bits.  `sel[key]` picks the row of a key.  The engine applies
its T^+-1, P_1 and tail tables with it (x = q, unit = B or 2B bits), and
tensor space its letter rows (x = v, unit = B), so both read their tables
by the same code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

if TYPE_CHECKING:  # imported where it is used, so loading the package skips it
    from fractions import Fraction


class SingularMatrixError(ValueError):
    """Raised by `adjugate_columns` when the matrix is singular over C(v)."""


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
        from fractions import Fraction

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
        c = self._c
        if not c:
            return "0"
        var, halve = "q", 1
        for e in c:
            if e & 1:
                var, halve = "v", 0
                break
        parts = []
        for e in sorted(c, reverse=True):
            a = c[e]
            sign = "+"
            if a < 0:
                sign, a = "-", -a
            e >>= halve
            if e == 0:
                parts.append(f"{sign}{a}")
            elif a == 1:
                parts.append(f"{sign}{var}" if e == 1 else f"{sign}{var}^{e}")
            else:
                parts.append(f"{sign}{a}*{var}" if e == 1 else f"{sign}{a}*{var}^{e}")
        out = "".join(parts)
        return out[1:] if out[0] == "+" else out

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


def pack(x: LaurentScalar, bits: int, offset: int, step: int = 1) -> int:
    """x(2^bits) * 2^(bits * offset), the integer image of x under v^step -> 2^bits.

    With step = 2 each slot holds a power of q = v^2, and an odd power of v
    raises ValueError.
    """
    if bits < 2:
        raise ValueError(f"slot width must be >= 2 bits, got {bits}")
    half = 1 << (bits - 1)
    items = x.items()
    if step != 1:
        for e, _ in items:
            if e % step:
                raise ValueError(f"exponent {e} is not a multiple of {step}")
        items = [(e // step, a) for e, a in items]
    out = 0
    for e, a in items:
        if e < -offset:
            raise ValueError(f"exponent {e} below the offset -{offset}")
        if not -half < a < half:
            raise ValueError(f"coefficient {a} does not fit a {bits}-bit slot")
        out += a << (bits * (e + offset))
    return out


def unpack(packed: int, bits: int, offset: int, step: int = 1) -> LaurentScalar:
    """The Laurent polynomial with coefficients |a| < 2^(bits-1) that packs to `packed`."""
    if bits < 2:
        raise ValueError(f"slot width must be >= 2 bits, got {bits}")
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    c = {}
    # skip the whole zero slots at the bottom in one shift
    low = ((packed & -packed).bit_length() - 1) // bits if packed else 0
    packed >>= low * bits
    e = (low - offset) * step
    while packed:
        d = packed & mask
        if d >= half:
            d -= mask + 1
        if d:
            c[e] = d
        packed = (packed - d) >> bits
        e += step
    out = LaurentScalar.__new__(LaurentScalar)
    out._c = c
    out._hash = None
    return out


def apply_rows(elem: dict, rows, sel, unit: int) -> dict:
    """The packed sparse vector sum of c * rows[sel[key]] over the terms (key, c) of elem.

    A row is a tuple of monomials (delta, e, a): the term a x^e of target
    key + delta, where x is the variable one slot unit stands for and x^e is
    a shift by e * unit bits.  The sums are accumulated in place and exact
    zeros are dropped.  A right shift is exact when the packing offset covers
    every exponent that can occur; the caller derives it.
    """
    out: dict = {}
    get = out.get
    for key, c in elem.items():
        for delta, e, a in rows[sel[key]]:
            t = c if not e else c << e * unit if e > 0 else c >> -e * unit
            target = key + delta
            v = get(target)
            if v is None:
                out[target] = t if a == 1 else -t if a == -1 else a * t
            else:
                v = v + t if a == 1 else v - t if a == -1 else v + a * t
                if v:
                    out[target] = v
                else:
                    del out[target]
    return out


def adjugate_columns(rows: tuple) -> tuple:
    """(d, [adj_0, ..., adj_{n-1}]) for a square matrix given as a tuple of row
    tuples: d = +-det M and adj_j = d M^-1 e_j as its nonzero (i, entry) pairs.

    Fraction-free (Bareiss) elimination of the augmented matrix [M | I]
    divides exactly by the previous pivot and swaps a lower row in when a
    pivot is zero; d is the final pivot.  Each eliminated identity column
    c' is then back-substituted,

        y_i = (d * c'_i - sum_{j > i} m_ij * y_j) / m_ii,

    which divides exactly too, because y = d M^-1 e_j = +-adj(M) e_j is
    Laurent.  All of it runs on packed ints at the width and offset of the
    module docstring; d and the columns are decoded once, at the end, and
    returned only after M adj_j = d e_j holds for every j (`_certify`).
    Raises SingularMatrixError when a column has no nonzero pivot,
    InexactDivisionError when a division leaves a remainder and
    ArithmeticError when the certificate fails.
    """
    n = len(rows)
    step = 2 if all(a.is_even() for row in rows for a in row) else 1
    norms = [sum(a.l1_norm() for a in row) for row in rows]
    bound = 1
    for s in norms:
        bound *= 1 + s
    bits = slot_bits(bound)
    offset = n * _slot_depth((a for row in rows for a in row), step)
    one = 1 << bits * offset
    m = [
        [pack(a, bits, offset, step) for a in row] + [one if i == j else 0 for j in range(n)]
        for i, row in enumerate(rows)
    ]
    prev = one
    for k in range(n):
        if not m[k][k]:
            i = next((i for i in range(k + 1, n) if m[i][k]), None)
            if i is None:
                raise SingularMatrixError(f"singular matrix (column {k})")
            m[k], m[i] = m[i], m[k]
        row_k = m[k]
        piv = row_k[k]
        for row in m[k + 1:]:
            mik = row[k]
            for j in range(k + 1, 2 * n):
                x, r = divmod(row[j] * piv - mik * row_k[j], prev)
                if r:
                    raise InexactDivisionError("inexact Bareiss division")
                row[j] = x
        prev = piv
    packed = []
    for col in range(n, 2 * n):
        y = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            acc = prev * row[col]
            for j in range(i + 1, n):
                acc -= row[j] * y[j]
            y[i], r = divmod(acc, row[i])
            if r:
                raise InexactDivisionError("inexact back substitution")
        packed.append(y)
    d = unpack(prev, bits, offset, step)
    adj = [tuple((i, unpack(x, bits, offset, step)) for i, x in enumerate(y) if x) for y in packed]
    _certify(rows, max(norms, default=0), d, adj, step)
    return d, adj


def _slot_depth(values, step: int) -> int:
    """How many slots (of `step` powers of v each) the lowest exponent of the values
    reaches below slot 0."""
    return max(0, -(min((e for x in values for e, _ in x.items()), default=0) // step))


def _certify(rows: tuple, mass: int, d: LaurentScalar, adj: list, step: int) -> None:
    """Raise ArithmeticError unless M adj_j = d e_j for every j, compared on packed ints
    at a width at which equal ints are equal polynomials (module docstring); mass is
    the largest l1 norm of a row of M."""
    top = max((abs(a) for col in adj for _, x in col for _, a in x.items()), default=0)
    bits = slot_bits(mass * top + d.l1_norm())
    low_m = _slot_depth((a for row in rows for a in row), step)
    low_a = _slot_depth((x for col in adj for _, x in col), step)
    pm = [[pack(a, bits, low_m, step) for a in row] for row in rows]
    target = pack(d, bits, low_m + low_a, step)
    for j, col in enumerate(adj):
        pcol = [(k, pack(x, bits, low_a, step)) for k, x in col]
        for i, prow in enumerate(pm):
            if sum(prow[k] * x for k, x in pcol) != (target if i == j else 0):
                raise ArithmeticError(f"adjugate certificate fails: (M adj_{j})_{i} != d e_{j}")


def rank_over_q(rows: Iterable[Mapping]) -> int:
    """Rank over Q of sparse rows {position: int or Fraction}, zero entries allowed.

    Each row is reduced against the pivot rows on its lowest position until
    it vanishes or opens a new pivot there; positions need only be mutually
    orderable.
    """
    from fractions import Fraction

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
