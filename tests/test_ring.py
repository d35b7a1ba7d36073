from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mirhecke.ring import (
    InexactDivisionError,
    LaurentScalar,
    MINUS_ONE,
    ONE,
    Q,
    QINV,
    Q_MINUS_1,
    RationalFunction,
    SingularMatrixError,
    V,
    ZERO,
    solve_linear,
)

scalars = st.builds(
    LaurentScalar,
    st.dictionaries(st.integers(-6, 6), st.integers(-50, 50), max_size=5),
)
nonzero_scalars = scalars.filter(bool)


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
        with pytest.raises(InexactDivisionError):
            Q_MINUS_1.exact_div(Q + ONE)

    @given(nonzero_scalars, nonzero_scalars)
    @settings(deadline=None, max_examples=60)
    def test_product_roundtrip(self, a, b):
        assert (a * b).exact_div(b) == a


class TestRationalFunction:
    def test_reduction_idempotent(self):
        f = RationalFunction(Q * Q_MINUS_1, Q_MINUS_1 * (Q + ONE))
        g = RationalFunction(f.num, f.den)
        assert (f.num, f.den) == (g.num, g.den)

    def test_cross_multiplied_equality(self):
        f = RationalFunction(Q, Q + ONE)
        g = RationalFunction(Q * Q_MINUS_1, (Q + ONE) * Q_MINUS_1)
        assert f == g

    def test_arithmetic(self):
        f = RationalFunction(ONE, Q)
        assert f + f == RationalFunction(LaurentScalar.from_int(2), Q)
        assert f * RationalFunction(Q) == RationalFunction(ONE)
        assert (f / f) == RationalFunction(ONE)

    def test_as_laurent(self):
        f = RationalFunction(Q * Q_MINUS_1, Q)
        assert f.is_laurent()
        assert f.as_laurent() == Q_MINUS_1
        g = RationalFunction(ONE, Q + ONE)
        assert not g.is_laurent()
        with pytest.raises(InexactDivisionError):
            g.as_laurent()

    def test_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(ONE, ZERO)


class TestSolveLinear:
    def test_identity_system(self):
        M = [[ONE, ZERO], [ZERO, ONE]]
        x = solve_linear(M, [Q, ONE])
        assert x[0] == RationalFunction(Q) and x[1] == RationalFunction(ONE)

    def test_upper_triangular(self):
        M = [[ONE, ONE], [ZERO, ONE]]
        x = solve_linear(M, [Q, ONE])
        assert x[0] == RationalFunction(Q_MINUS_1) and x[1] == RationalFunction(ONE)

    def test_rank2_character_system(self):
        # the rank-2 table restricted to the rows/columns that can carry
        # the braid-idempotent product: solution ((q-1), -q)
        M = [[ONE, ONE], [ONE, ZERO]]
        c = [MINUS_ONE, Q_MINUS_1]
        x = solve_linear(M, c)
        assert x[0] == RationalFunction(Q_MINUS_1)
        assert x[1] == RationalFunction(-Q)

    def test_singular_raises(self):
        M = [[ONE, ONE], [ONE, ONE]]
        with pytest.raises(SingularMatrixError):
            solve_linear(M, [ONE, ZERO])

    def test_needs_row_swap(self):
        M = [[ZERO, ONE], [ONE, ZERO]]
        x = solve_linear(M, [Q, V])
        assert x[0] == RationalFunction(V) and x[1] == RationalFunction(Q)

    @given(st.lists(scalars, min_size=9, max_size=9), st.lists(scalars, min_size=3, max_size=3))
    @settings(deadline=None, max_examples=25)
    def test_reconstruction(self, entries, rhs):
        M = [entries[0:3], entries[3:6], entries[6:9]]
        try:
            x = solve_linear(M, rhs)
        except SingularMatrixError:
            return
        for i in range(3):
            acc = RationalFunction(ZERO)
            for j in range(3):
                acc = acc + x[j] * RationalFunction(M[i][j])
            assert acc == RationalFunction(rhs[i])


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
