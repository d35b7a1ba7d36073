"""Exact scalar arithmetic for the algebra kernel.

Everything downstream computes over the Laurent polynomial ring Z[v, v^-1]
with q = v^2.  A single variable v keeps the half-integer powers of q needed
by the tensor-space operators in the same ring as the intrinsic algebra
coefficients, which provably stay in even v-exponents (the Z[q, q^-1]
subring).  No floating point enters anywhere; integer coefficients are
arbitrary-precision Python ints and specializations are `fractions.Fraction`.

`RationalFunction` is the fraction field, needed only to invert the character
table; it is kept in a reduced normal form (gcd removed, content removed,
denominator leading coefficient positive) so equality is plain comparison.

`solve_linear` is fraction-free (Bareiss) elimination: all intermediate
divisions are exact in Z[v, v^-1], which keeps coefficient growth polynomial
for the table sizes that occur here (at most 19 x 19).
"""

from __future__ import annotations

from fractions import Fraction
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
            self._hash = hash(tuple(sorted(self._c.items())))
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
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return LaurentScalar({e: a * other for e, a in self._c.items()})
        if not isinstance(other, LaurentScalar):
            return NotImplemented
        if not self._c or not other._c:
            return ZERO
        c: dict[int, int] = {}
        for e1, a1 in self._c.items():
            for e2, a2 in other._c.items():
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

    def exact_div(self, other: "LaurentScalar") -> "LaurentScalar":
        """Exact division in Z[v, v^-1]; raises InexactDivisionError otherwise."""
        if not isinstance(other, LaurentScalar) or other.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        if self.is_zero():
            return ZERO
        if other.is_unit():
            return self * other.inverse_unit()
        num, nshift = self._as_poly()
        den, dshift = other._as_poly()
        quo, rem = _poly_divmod(num, den)
        if rem or quo is None:
            raise InexactDivisionError("inexact Laurent division")
        out = LaurentScalar({e + nshift - dshift: a for e, a in enumerate(quo) if a})
        return out

    # -- dense helpers (for division/gcd) -------------------------------

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


# ---------------------------------------------------------------------------
# dense integer polynomial helpers (internal)
# ---------------------------------------------------------------------------


def _poly_trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _poly_divmod(f: list[int], g: list[int]):
    """Divide over Q; return (quotient, remainder) with integer checks deferred.

    Returns (None, f) if the quotient would need non-integer coefficients.
    """
    f = [Fraction(a) for a in f]
    g = list(g)
    if not _poly_trim(list(g)):
        raise ZeroDivisionError
    dg = len(_poly_trim(list(g))) - 1
    lead = Fraction(g[dg])
    quo = [Fraction(0)] * max(len(f) - dg, 0)
    rem = f
    while True:
        rem = _poly_trim(rem)
        if len(rem) - 1 < dg or not rem:
            break
        k = len(rem) - 1 - dg
        c = rem[-1] / lead
        quo[k] = c
        for i in range(dg + 1):
            rem[k + i] -= c * g[i]
    if any(c.denominator != 1 for c in quo):
        return None, rem
    return [int(c) for c in quo], [int(c) for c in rem]


def _content(f: list[int]) -> int:
    from math import gcd

    g = 0
    for a in f:
        g = gcd(g, abs(a))
    return g or 1


def _poly_primitive(f: list[int]) -> list[int]:
    c = _content(f)
    return [a // c for a in f]


def _poly_gcd(f: list[int], g: list[int]) -> list[int]:
    """gcd in Z[v] via the primitive pseudo-remainder sequence."""
    from math import gcd as igcd

    f = _poly_trim(list(f))
    g = _poly_trim(list(g))
    if not f:
        return _poly_primitive(g) if g else []
    if not g:
        return _poly_primitive(f)
    cf, cg = _content(f), _content(g)
    f = [a // cf for a in f]
    g = [a // cg for a in g]
    if len(f) < len(g):
        f, g = g, f
    while g:
        # pseudo-remainder of f by g
        r = list(f)
        dg = len(g) - 1
        lead = g[-1]
        steps = len(f) - len(g) + 1
        for _ in range(steps):
            r = _poly_trim(r)
            if len(r) - 1 < dg:
                break
            k = len(r) - 1 - dg
            c = r[-1]
            r = [a * lead for a in r]
            for i in range(dg + 1):
                r[k + i] -= c * g[i]
            r = _poly_trim(r)
        f, g = g, _poly_primitive(_poly_trim(r)) if _poly_trim(r) else []
    cont = igcd(cf, cg)
    out = [a * cont for a in f]
    if out and out[-1] < 0:
        out = [-a for a in out]
    return out


class RationalFunction:
    """An element of the fraction field of Z[v, v^-1], reduced and normalized.

    Normal form: the denominator is a plain polynomial in v with nonzero
    constant term and positive leading coefficient; gcd and integer content
    common to numerator and denominator are removed.  Equality of normal
    forms is then structural equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentScalar, den: LaurentScalar = ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = ZERO
            self.den = ONE
            return
        npoly, nsh = num._as_poly()
        dpoly, dsh = den._as_poly()
        g = _poly_gcd(npoly, dpoly)
        if len(g) > 1 or (g and g[0] != 1):
            npoly, _ = _poly_divmod(npoly, g)
            dpoly, _ = _poly_divmod(dpoly, g)
        if dpoly[-1] < 0:
            npoly = [-a for a in npoly]
            dpoly = [-a for a in dpoly]
        # push the Laurent shift entirely onto the numerator
        shift = nsh - dsh
        self.num = LaurentScalar({e + shift: a for e, a in enumerate(npoly) if a})
        self.den = LaurentScalar({e: a for e, a in enumerate(dpoly) if a})

    @classmethod
    def from_laurent(cls, a: LaurentScalar) -> "RationalFunction":
        return cls(a, ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_laurent(self) -> bool:
        return self.den.is_unit()

    def as_laurent(self) -> LaurentScalar:
        if not self.is_laurent():
            raise InexactDivisionError(f"{self} is not a Laurent polynomial")
        return self.num * self.den.inverse_unit()

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentScalar):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        out = RationalFunction.__new__(RationalFunction)
        out.num = -self.num
        out.den = self.den
        return out

    def __add__(self, other):
        if isinstance(other, LaurentScalar):
            other = RationalFunction(other)
        return RationalFunction(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, LaurentScalar):
            other = RationalFunction(other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if isinstance(other, LaurentScalar):
            other = RationalFunction(other)
        if other.is_zero():
            raise ZeroDivisionError
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __repr__(self):
        if self.den.is_one():
            return f"RationalFunction({self.num.to_string()!r})"
        return f"RationalFunction({self.num.to_string()!r} / {self.den.to_string()!r})"


def solve_linear(
    matrix: Iterable[Iterable[LaurentScalar]], rhs: Iterable[LaurentScalar]
) -> list[RationalFunction]:
    """Solve M x = c exactly over the fraction field of Z[v, v^-1].

    Fraction-free (Bareiss) elimination on the augmented matrix keeps every
    intermediate entry in the Laurent ring; only the final back substitution
    introduces fractions.  Raises SingularMatrixError if M is singular.
    """
    m = [list(row) + [b] for row, b in zip([list(r) for r in matrix], list(rhs))]
    n = len(m)
    if any(len(row) != n + 1 for row in m):
        raise ValueError("matrix must be square and match the rhs length")
    prev = ONE
    for k in range(n):
        if m[k][k].is_zero():
            for i in range(k + 1, n):
                if not m[i][k].is_zero():
                    m[k], m[i] = m[i], m[k]
                    break
            else:
                raise SingularMatrixError(f"singular system (column {k})")
        piv = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n + 1):
                m[i][j] = (m[i][j] * piv - m[i][k] * m[k][j]).exact_div(prev)
            m[i][k] = ZERO
        prev = piv
    sol: list[RationalFunction] = [RationalFunction(ZERO)] * n
    for i in range(n - 1, -1, -1):
        acc = RationalFunction(m[i][n])
        for j in range(i + 1, n):
            acc = acc - sol[j] * m[i][j]
        sol[i] = acc / RationalFunction(m[i][i])
    return sol
