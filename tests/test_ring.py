import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from mirhecke.ring import (
    InexactDivisionError,
    LaurentScalar,
    MINUS_ONE,
    ONE,
    Q,
    QINV,
    Q_MINUS_1,
    SingularMatrixError,
    V,
    ZERO,
    pack,
    rank_over_q,
    slot_bits,
    solve_linear,
    unpack,
)

scalars = st.builds(
    LaurentScalar,
    st.dictionaries(st.integers(-6, 6), st.integers(-50, 50), max_size=5),
)
nonzero_scalars = scalars.filter(bool)
monomials = st.one_of(
    st.sampled_from([ONE, MINUS_ONE, Q, QINV, V]),
    st.builds(LaurentScalar.v_power, st.integers(-6, 6), st.integers(-50, 50)),
)


def dense_product(a, b):
    """Schoolbook convolution of dense coefficient lists, as {v-exponent: coeff}."""
    if a.is_zero() or b.is_zero():
        return {}
    lo_a, lo_b = a.min_exp(), b.min_exp()
    da = [0] * (a.max_exp() - lo_a + 1)
    db = [0] * (b.max_exp() - lo_b + 1)
    for e, c in a.items():
        da[e - lo_a] = c
    for e, c in b.items():
        db[e - lo_b] = c
    prod = [0] * (len(da) + len(db) - 1)
    for i, x in enumerate(da):
        for j, y in enumerate(db):
            prod[i + j] += x * y
    return {i + lo_a + lo_b: c for i, c in enumerate(prod) if c}


def L(coeffs):
    return LaurentScalar(coeffs)


class TestScalarArith:
    def test_q_minus_1_plus_1_is_q(self):
        assert Q_MINUS_1 + ONE == Q

    def test_v_times_v_is_q(self):
        assert V * V == Q

    def test_difference_of_squares(self):
        assert Q_MINUS_1 * (Q + ONE) == LaurentScalar.q_power(2) - ONE

    @given(scalars, scalars, scalars)
    @settings(deadline=None, max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    def test_canonical_form_drops_zeros(self):
        assert L({3: 0, 1: 2})._c == {1: 2}
        assert (Q - Q).is_zero()

    @pytest.mark.parametrize("a", [-2, 0, 1, 5])
    def test_constants_hash_like_ints(self, a):
        # equal objects must hash equal, or sets and dicts lose them
        s = LaurentScalar.from_int(a)
        assert s == a and hash(s) == hash(a)
        assert a in {s} and s in {a}
        assert {s: "x"}[a] == "x"


class TestMonomialFastPath:
    @given(st.one_of(scalars, monomials), st.one_of(scalars, monomials))
    @settings(deadline=None, max_examples=200)
    def test_matches_dense_convolution(self, a, b):
        want = dense_product(a, b)
        assert (a * b)._c == want and (b * a)._c == want

    @given(scalars, st.integers(-5, 5))
    @settings(deadline=None, max_examples=60)
    def test_int_factor(self, a, k):
        want = dense_product(a, LaurentScalar.from_int(k))
        assert (a * k)._c == want and (k * a)._c == want

    @given(scalars, scalars)
    @settings(deadline=None, max_examples=60)
    def test_unit_factor_never_aliases(self, x, y):
        before = dict(x._c)
        for prod in (x * ONE, ONE * x, x * 1, 1 * x):
            assert prod == x and hash(prod) == hash(x)
        assert MINUS_ONE * x == x * MINUS_ONE == -x
        shared = x * ONE
        assert shared + y == x + y and shared * y == x * y
        assert x._c == before and shared._c == before


@st.composite
def packable(draw):
    """(x, bits, offset) with every coefficient of x inside the slot and every
    exponent at or above -offset; coefficients at the slot edge are drawn often."""
    bits = draw(st.integers(2, 40))
    offset = draw(st.integers(0, 8))
    top = (1 << (bits - 1)) - 1
    coeff = st.one_of(st.sampled_from([top, -top, 1, -1]), st.integers(-top, top))
    return LaurentScalar(draw(st.dictionaries(st.integers(-offset, 8), coeff, max_size=6))), bits, offset


class TestPacking:
    @given(packable())
    def test_roundtrip(self, case):
        x, bits, offset = case
        assert unpack(pack(x, bits, offset), bits, offset) == x

    @given(packable(), packable())
    def test_sums_and_products_pack(self, a, b):
        # v -> 2^bits is a ring homomorphism; shifted offsets add under products
        (x, bits, offset), (y, _, _) = a, b
        y = LaurentScalar({e: c % 3 - 1 for e, c in y.items() if e >= -offset})
        big = slot_bits(max(1, x.l1_norm()) * max(2, y.l1_norm()))
        px, py = pack(x, big, offset), pack(y, big, offset)
        assert unpack(px + py, big, offset) == x + y
        assert unpack(px * py, big, 2 * offset) == x * y

    def test_edge_coefficients_and_negative_exponents(self):
        for bits in (2, 3, 8, 33):
            top = (1 << (bits - 1)) - 1
            x = L({-3: top, -1: -top, 0: 1, 5: -top})
            assert unpack(pack(x, bits, 3), bits, 3) == x
            assert unpack(pack(-x, bits, 4), bits, 4) == -x

    def test_zero(self):
        assert pack(ZERO, 4, 2) == 0
        assert unpack(0, 4, 2) == ZERO

    def test_shift_is_multiplication_by_v(self):
        x = L({-2: 3, 1: -1})
        bits = slot_bits(3)
        assert unpack(pack(x, bits, 3) << bits, bits, 3) == x * V
        assert unpack(pack(x, bits, 3) >> bits, bits, 3) == x * V.inverse_unit()

    def test_pack_raises_outside_its_range(self):
        with pytest.raises(ValueError, match="offset"):
            pack(L({-3: 1}), 8, 2)
        for bits in (2, 5, 16):
            half = 1 << (bits - 1)
            with pytest.raises(ValueError, match="slot"):
                pack(L({0: half}), bits, 0)
            with pytest.raises(ValueError, match="slot"):
                pack(L({4: -half}), bits, 0)
        with pytest.raises(ValueError, match="2 bits"):
            pack(ONE, 1, 0)
        with pytest.raises(ValueError, match="2 bits"):
            unpack(1, 1, 0)

    def test_slot_bits_is_the_narrowest_width(self):
        for bound in range(1, 300):
            bits = slot_bits(bound)
            x = L({0: bound, 1: -bound})
            assert unpack(pack(x, bits, 0), bits, 0) == x
            with pytest.raises(ValueError):
                pack(x, bits - 1, 0)
        with pytest.raises(ValueError):
            slot_bits(0)


class TestBar:
    def test_q_to_q_inverse(self):
        assert Q.bar() == QINV

    def test_linear(self):
        assert Q_MINUS_1.bar() == QINV - ONE

    def test_involution_example(self):
        a = LaurentScalar.q_power(2) - Q
        assert a.bar().bar() == a

    @given(scalars, scalars)
    @settings(deadline=None, max_examples=60)
    def test_involution_and_multiplicative(self, a, b):
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()


class TestSpecialize:
    def test_basic(self):
        assert Q_MINUS_1.specialize(3) == 2
        assert QINV.specialize(2) == Fraction(1, 2)
        assert Q.specialize(4, 2) == 4  # v^2 at v0 = 2

    def test_odd_exponent_needs_v0(self):
        assert V.specialize(4, 2) == 2
        with pytest.raises(ValueError):
            V.specialize(4)

    def test_q0_zero_rejected(self):
        with pytest.raises(ValueError):
            Q.specialize(0)

    def test_v0_consistency(self):
        with pytest.raises(ValueError):
            V.specialize(4, 3)

    @given(scalars, scalars)
    @settings(deadline=None, max_examples=40)
    def test_ring_homomorphism(self, a, b):
        q0, v0 = Fraction(9, 4), Fraction(3, 2)
        assert (a * b).specialize(q0, v0) == a.specialize(q0, v0) * b.specialize(q0, v0)
        assert (a + b).specialize(q0, v0) == a.specialize(q0, v0) + b.specialize(q0, v0)


class TestExactDivision:
    def test_unit_division(self):
        a = Q * Q_MINUS_1
        assert a.exact_div(Q) == Q_MINUS_1

    def test_polynomial_division(self):
        a = (Q_MINUS_1) * (Q + ONE)
        assert a.exact_div(Q + ONE) == Q_MINUS_1

    def test_inexact_raises(self):
        # a nonzero remainder, a quotient 1/2 that exists over Q only, and a
        # divisor of higher degree
        for a, b in [(Q_MINUS_1, Q + ONE), (Q + ONE, 2 * (Q + ONE)), (Q + ONE, Q * Q + Q + ONE)]:
            with pytest.raises(InexactDivisionError):
                a.exact_div(b)

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            Q.exact_div(ZERO)

    def test_int_divisor(self):
        assert LaurentScalar.from_int(4).exact_div(2) == LaurentScalar.from_int(2)
        assert (2 * Q_MINUS_1).exact_div(-2) == -Q_MINUS_1
        assert Q.exact_div(1) == Q
        with pytest.raises(InexactDivisionError):
            (Q + ONE).exact_div(2)
        with pytest.raises(ZeroDivisionError):
            Q.exact_div(0)

    @given(nonzero_scalars, nonzero_scalars)
    @settings(deadline=None, max_examples=60)
    def test_product_roundtrip(self, a, b):
        assert (a * b).exact_div(b) == a

    @given(scalars, nonzero_scalars, nonzero_scalars, st.integers(1, 3), st.integers(1, 3), st.booleans())
    @settings(deadline=None, max_examples=150)
    def test_matches_sympy(self, x, b, noise, k, m, exact):
        # numerator k * x * b over m * b: exact when m divides k * x; adding
        # noise makes most pairs inexact
        a = x * b * k if exact else x * b * k + noise
        try:
            ours = dict(a.exact_div(b * m).items())
        except InexactDivisionError:
            ours = None
        assert ours == sympy_quotient(a, b * m)


VSYM = sympy.Symbol("v")


def sympy_quotient(a: LaurentScalar, b: LaurentScalar):
    """a / b through sympy: the quotient as {v-exponent: coefficient} when it
    lies in Z[v, v^-1], else None."""
    to_expr = lambda s: sum((c * VSYM**e for e, c in s.items()), sympy.Integer(0))
    num, den = sympy.fraction(sympy.cancel(to_expr(a) / to_expr(b)))
    den_terms = sympy.Poly(den, VSYM).terms()
    if len(den_terms) != 1:
        return None
    ((shift,), lead) = den_terms[0]
    out = {}
    for (e,), c in sympy.Poly(num, VSYM).terms():
        c = sympy.Rational(c) / lead
        if not c.is_integer:
            return None
        if c:
            out[e - shift] = int(c)
    return out


def det3(M):
    """Cofactor expansion of a 3 x 3 determinant along the first row."""
    return (
        M[0][0] * (M[1][1] * M[2][2] - M[1][2] * M[2][1])
        - M[0][1] * (M[1][0] * M[2][2] - M[1][2] * M[2][0])
        + M[0][2] * (M[1][0] * M[2][1] - M[1][1] * M[2][0])
    )


def solve_checked(M, c):
    """solve_linear(M, c) after asserting M y = d c in Laurent arithmetic; returns (d, y)."""
    d, y = solve_linear(M, c)
    for row, ci in zip(M, c):
        acc = ZERO
        for mij, yj in zip(row, y):
            acc = acc + mij * yj
        assert acc == d * ci
    return d, y


class TestSolveLinear:
    def test_identity_system(self):
        d, y = solve_checked([[ONE, ZERO], [ZERO, ONE]], [Q, ONE])
        assert d == ONE and y == [Q, ONE]

    def test_upper_triangular(self):
        d, y = solve_checked([[ONE, ONE], [ZERO, ONE]], [Q, ONE])
        assert d == ONE and y == [Q_MINUS_1, ONE]

    def test_rank2_character_system(self):
        # the rank-2 table restricted to the rows/columns that can carry
        # the braid-idempotent product: solution ((q-1), -q), det = -1
        d, y = solve_checked([[ONE, ONE], [ONE, ZERO]], [MINUS_ONE, Q_MINUS_1])
        assert d == MINUS_ONE
        assert [yi.exact_div(d) for yi in y] == [Q_MINUS_1, -Q]

    def test_singular_raises(self):
        # a failed elimination is not cached: every call raises again
        M = [[ONE, ONE], [ONE, ONE]]
        for c in ([ONE, ZERO], [ONE, ZERO], [ZERO, Q]):
            with pytest.raises(SingularMatrixError):
                solve_linear(M, c)

    def test_needs_row_swap(self):
        # det = -1; the swap makes the final pivot +1
        d, y = solve_checked([[ZERO, ONE], [ONE, ZERO]], [Q, V])
        assert d == ONE and y == [V, Q]

    def test_right_sides_replay_one_factorization(self):
        # column 0 needs a row swap and det M = q^3 - q^2 - v^3 + 1; the results
        # must not depend on whether the factorization is cached or fresh
        M = [[ZERO, Q, ONE], [ONE, V, Q_MINUS_1], [Q, ONE, ZERO]]
        det = det3(M)
        rhss = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [Q, V, MINUS_ONE]]
        first = [solve_checked(M, c) for c in rhss]
        assert all(d in (det, -det) for d, _ in first)
        for k in range(1, 12):  # more matrices than the cache holds
            solve_linear([[L({k: 1}), ONE], [ONE, ZERO]], [ONE, ONE])
        assert [solve_linear(M, c) for c in rhss] == first

    def test_non_unit_determinant(self):
        # det = q + 1: y = adj(M) c stays Laurent although x = y / d does not
        M = [[Q, MINUS_ONE], [ONE, ONE]]
        d, y = solve_checked(M, [ONE, ZERO])
        assert d == Q + ONE and y == [ONE, MINUS_ONE]
        with pytest.raises(InexactDivisionError):
            y[0].exact_div(d)

    @given(
        st.lists(scalars, min_size=9, max_size=9),
        st.lists(st.lists(scalars, min_size=3, max_size=3), min_size=1, max_size=4),
    )
    @settings(deadline=None, max_examples=25)
    def test_reconstruction(self, entries, rhss):
        # several right sides against one matrix, as class polynomials solve them
        M = [entries[0:3], entries[3:6], entries[6:9]]
        det = det3(M)
        for rhs in rhss:
            try:
                d, _ = solve_checked(M, rhs)
            except SingularMatrixError:
                assert det.is_zero()
                continue
            assert d in (det, -det)


def random_matrix(rng, rows, cols, rank, fractions):
    """A rows x cols matrix of rank <= `rank`: a product of random factors, so it is
    rank-deficient whenever rank < min(rows, cols)."""
    def entry():
        a = rng.randint(-4, 4)
        return Fraction(a, rng.randint(1, 5)) if fractions else a

    left = [[entry() for _ in range(rank)] for _ in range(rows)]
    right = [[entry() for _ in range(cols)] for _ in range(rank)]
    return [[sum(row[t] * right[t][j] for t in range(rank)) for j in range(cols)] for row in left]


def sparse(matrix):
    return [dict(enumerate(row)) for row in matrix]


class TestRankOverQ:
    @pytest.mark.parametrize("fractions", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_sympy(self, seed, fractions):
        rng = random.Random(seed)
        for _ in range(8):
            rows, cols = rng.randint(1, 7), rng.randint(1, 7)
            m = random_matrix(rng, rows, cols, rng.randint(0, min(rows, cols)), fractions)
            if rng.random() < 0.5:  # a zero row somewhere
                m.insert(rng.randint(0, rows), [0] * cols)
            assert rank_over_q(sparse(m)) == sympy.Matrix(m).rank(), m

    def test_empty_and_zero_inputs(self):
        assert rank_over_q([]) == 0
        assert rank_over_q([{}, {}]) == 0
        assert rank_over_q(sparse([[0, 0], [0, 0]])) == 0
        assert rank_over_q(iter([{(2, 1): Fraction(1, 3)}, {(1, 2): 0}])) == 1


class TestSerialization:
    def test_even_uses_q(self):
        obj = (Q - ONE).to_json()
        assert obj["var"] == "q"
        assert obj["coeffs"] == {"1": "1", "0": "-1"}
        assert LaurentScalar.from_json(obj) == Q_MINUS_1

    def test_odd_uses_v(self):
        obj = V.to_json()
        assert obj["var"] == "v"
        assert LaurentScalar.from_json(obj) == V

    def test_bad_var(self):
        with pytest.raises(ValueError):
            LaurentScalar.from_json({"var": "t", "coeffs": {}})

    @given(scalars)
    @settings(deadline=None, max_examples=60)
    def test_roundtrip(self, a):
        assert LaurentScalar.from_json(a.to_json()) == a

    def test_strings(self):
        assert (LaurentScalar.q_power(2) - Q + ONE).to_string() == "q^2-q+1"
        assert QINV.to_string() == "q^-1"
        assert ZERO.to_string() == "0"
        assert V.to_string() == "v"
