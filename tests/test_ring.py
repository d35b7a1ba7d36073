import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from bareiss_reference import adjugate_reference, replay_reference
from mirhecke import characters, ring
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
    adjugate_columns,
    pack,
    rank_over_q,
    slot_bits,
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


def reference_to_string(x):
    """The term-by-term rendering `LaurentScalar.to_string` must reproduce byte for byte."""
    c = dict(x.items())
    if not c:
        return "0"
    var = "q" if x.is_even() else "v"
    halve = var == "q"
    parts = []
    for e in sorted(c, reverse=True):
        a = c[e]
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

    @given(packable())
    def test_q_slots(self, case):
        # step 2: v^2 -> 2^bits, one slot per power of q
        x, bits, offset = case
        q = LaurentScalar({2 * e: a for e, a in x.items()})
        packed = pack(q, bits, offset, 2)
        assert packed == pack(x, bits, offset)
        assert unpack(packed, bits, offset, 2) == q

    def test_q_slots_refuse_odd_powers_of_v(self):
        with pytest.raises(ValueError, match="multiple of 2"):
            pack(L({2: 1, -1: 3}), 8, 2, 2)
        with pytest.raises(ValueError, match="offset"):
            pack(L({-6: 1}), 8, 2, 2)

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


def det(M):
    """Laplace expansion of a small square determinant along the first row."""
    if not M:
        return ONE
    total = ZERO
    for j, a in enumerate(M[0]):
        if a:
            minor = det([row[:j] + row[j + 1:] for row in M[1:]])
            total = total + a * minor if j % 2 == 0 else total - a * minor
    return total


def adjugate_checked(M):
    """(d, columns) of adjugate_columns(M), each column dense, after asserting
    d = +-det M and, for every j, M adj_j = d e_j in Laurent arithmetic and
    adj_j = replay_reference(M, e_j)[1] (with the same d)."""
    n = len(M)
    d, cols = adjugate_columns(tuple(tuple(row) for row in M))
    assert d in (det(M), -det(M))
    assert len(cols) == n
    dense = []
    for j, col in enumerate(cols):
        assert all(a for _, a in col)
        y = [ZERO] * n
        for i, a in col:
            y[i] = a
        unit = [ONE if i == j else ZERO for i in range(n)]
        for row, ci in zip(M, unit):
            acc = ZERO
            for mij, yj in zip(row, y):
                acc = acc + mij * yj
            assert acc == d * ci
        assert replay_reference(M, unit) == (d, y)
        dense.append(y)
    return d, dense


def combine(columns, c):
    """y = sum_j c_j adj_j: the solve of M y = d c read off the adjugate columns."""
    y = [ZERO] * len(c)
    for cj, col in zip(c, columns):
        for i, a in enumerate(col):
            y[i] = y[i] + cj * a
    return y


class TestSolveLinear:
    """`adjugate_columns` solves M y = d e_j for every j in one elimination."""

    def test_identity_system(self):
        d, cols = adjugate_checked([[ONE, ZERO], [ZERO, ONE]])
        assert d == ONE and cols == [[ONE, ZERO], [ZERO, ONE]]

    def test_upper_triangular(self):
        d, cols = adjugate_checked([[ONE, ONE], [ZERO, ONE]])
        assert d == ONE and cols == [[ONE, ZERO], [MINUS_ONE, ONE]]

    def test_rank2_character_system(self):
        # the rank-2 table restricted to the rows/columns that can carry
        # the braid-idempotent product: solution ((q-1), -q), det = -1
        d, cols = adjugate_checked([[ONE, ONE], [ONE, ZERO]])
        assert d == MINUS_ONE
        y = combine(cols, [MINUS_ONE, Q_MINUS_1])
        assert [yi.exact_div(d) for yi in y] == [Q_MINUS_1, -Q]

    def test_singular_raises(self):
        M = ((ONE, ONE), (ONE, ONE))
        for _ in range(2):
            with pytest.raises(SingularMatrixError):
                adjugate_columns(M)

    def test_needs_row_swap(self):
        # det = -1; the swap makes the final pivot +1
        d, cols = adjugate_checked([[ZERO, ONE], [ONE, ZERO]])
        assert d == ONE and cols == [[ZERO, ONE], [ONE, ZERO]]

    def test_right_sides_replay_one_factorization(self):
        # column 0 needs a row swap and det M = q^3 - q^2 - v^3 + 1; the columns
        # of one elimination give the solve of every right side
        M = [[ZERO, Q, ONE], [ONE, V, Q_MINUS_1], [Q, ONE, ZERO]]
        d, cols = adjugate_checked(M)
        for c in ([ONE, ZERO, ZERO], [ZERO, ZERO, ONE], [Q, V, MINUS_ONE], [ZERO] * 3):
            assert replay_reference(M, c) == (d, combine(cols, c))

    def test_non_unit_determinant(self):
        # det = q + 1: adj(M) stays Laurent although M^-1 = adj(M) / d does not
        d, cols = adjugate_checked([[Q, MINUS_ONE], [ONE, ONE]])
        assert d == Q + ONE and cols == [[ONE, MINUS_ONE], [ONE, Q]]
        with pytest.raises(InexactDivisionError):
            cols[0][0].exact_div(d)

    @given(
        st.lists(scalars, min_size=9, max_size=9),
        st.lists(st.lists(scalars, min_size=3, max_size=3), min_size=1, max_size=4),
    )
    @settings(deadline=None, max_examples=25)
    def test_reconstruction(self, entries, rhss):
        # several right sides against one matrix, as class polynomials solve them
        M = [entries[0:3], entries[3:6], entries[6:9]]
        try:
            d, cols = adjugate_checked(M)
        except SingularMatrixError:
            assert det(M).is_zero()
            return
        for rhs in rhss:
            assert replay_reference(M, rhs) == (d, combine(cols, rhs))


def random_laurent(rng, density):
    """A sparse random Laurent scalar; zero with probability 1 - density."""
    if rng.random() >= density:
        return ZERO
    return L({rng.randint(-2, 2): rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(1, 2))})


def random_invertible(rng):
    """A random invertible Laurent matrix of size 2..5 whose (0, 0) entry is
    zero half of the time, so that column 0 needs a row swap."""
    while True:
        n = rng.randint(2, 5)
        M = [[random_laurent(rng, 0.6) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            M[0][0] = ZERO
        try:
            replay_reference(M, [ZERO] * n)
        except SingularMatrixError:
            continue
        return M


class TestSolveLinearAdjugate:
    """The adjugate columns of random matrices, swaps and non-unit determinants
    included, give exactly the pair (d, y) that the replay on [M | c] gives."""

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_replay(self, seed):
        rng = random.Random(seed)
        swapped, non_unit = 0, 0
        for _ in range(12):
            M = random_invertible(rng)
            n = len(M)
            d, cols = adjugate_checked(M)
            rhss = [
                [ZERO] * n,
                [random_laurent(rng, 1.0) for _ in range(n)],
                [random_laurent(rng, 0.4) for _ in range(n)],
                [ZERO] * (n - 1) + [random_laurent(rng, 1.0)],
            ]
            for c in rhss:
                assert replay_reference(M, c) == (d, combine(cols, c))
            swapped += M[0][0].is_zero()
            non_unit += not d.is_unit()
        assert swapped and non_unit

    def test_singular_raises_every_call(self):
        rng = random.Random(7)
        row = [random_laurent(rng, 1.0) for _ in range(4)]
        M = [row, [random_laurent(rng, 1.0) for _ in range(4)], list(row), [ONE, ZERO, Q, V]]
        for _ in range(3):
            with pytest.raises(SingularMatrixError):
                adjugate_columns(tuple(map(tuple, M)))
        with pytest.raises(SingularMatrixError):
            replay_reference(M, [ONE, ZERO, ZERO, ZERO])


laurent_entries = st.one_of(
    st.just(ZERO),
    st.builds(
        LaurentScalar,
        st.dictionaries(st.integers(-3, 3), st.integers(-3, 3), min_size=1, max_size=3),
    ),
)


@st.composite
def square_matrices(draw):
    """An n x n matrix over Z[v, v^-1], n <= 5, with odd and negative exponents;
    at each step k in a drawn set, row k starts as a multiple of row k - 1, so the
    leading (k+1)-minor vanishes and the pivot of step k is zero (a row swap, or a
    singular matrix when no lower row helps)."""
    n = draw(st.integers(1, 5))
    rows = [[draw(laurent_entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows[0][0] = ZERO
    for k in draw(st.sets(st.integers(1, n - 1), max_size=2)) if n > 1 else ():
        c = draw(st.sampled_from([ONE, MINUS_ONE, V, QINV, Q_MINUS_1]))
        rows[k][: k + 1] = [c * a for a in rows[k - 1][: k + 1]]
    return tuple(map(tuple, rows))


class TestPackedAdjugate:
    """`adjugate_columns` on packed ints gives exactly the (d, columns) of the
    Laurent reference, and a decoded result that fails M adj_j = d e_j raises."""

    @given(square_matrices())
    @settings(deadline=None, max_examples=80)
    def test_matches_the_laurent_reference(self, rows):
        try:
            want = adjugate_reference(rows)
        except SingularMatrixError:
            with pytest.raises(SingularMatrixError):
                adjugate_columns(rows)
            return
        assert adjugate_columns(rows) == want

    def test_the_strategy_reaches_every_case(self):
        # swaps, singular matrices, q-slots and v-slots all occur in the draws
        seen = set()

        @given(square_matrices())
        @settings(deadline=None, max_examples=200, derandomize=True)
        def draw(rows):
            try:
                adjugate_reference(rows)
                seen.add("invertible")
            except SingularMatrixError:
                seen.add("singular")
            seen.add("even" if all(a.is_even() for row in rows for a in row) else "odd")
            if any(e < 0 for row in rows for a in row for e, _ in a.items()):
                seen.add("negative")
            if len(rows) > 1 and not rows[0][0] and any(row[0] for row in rows):
                seen.add("swap")

        draw()
        assert seen == {"invertible", "singular", "even", "odd", "negative", "swap"}

    @pytest.mark.parametrize("variant", ["oracle", "paper"])
    @pytest.mark.parametrize("n", [4, 5])
    def test_character_tables_match_the_laurent_reference(self, n, variant):
        table = characters.character_table(n, variant)
        labels = table.labels
        rows = tuple(tuple(table.entries[(lam, mu)] for mu in labels) for lam in labels)
        assert adjugate_columns(rows) == adjugate_reference(rows)

    # M = [[8, 1], [-1, 8]] has det 65 and H = (1 + 9) * (1 + 9) = 100: one bit
    # below slot_bits(100) = 8, a slot holds |a| < 64, so d no longer decodes
    # while every entry of M still packs; the second matrix has det 64q + 1
    TIGHT = [
        ((L({0: 8}), L({0: 1})), (L({0: -1}), L({0: 8}))),
        ((L({2: 8}), L({-1: 1})), (L({1: -1}), L({0: 8}))),
    ]

    @pytest.mark.parametrize("rows", TIGHT)
    def test_a_width_one_bit_too_narrow_raises(self, rows, monkeypatch):
        assert adjugate_columns(rows) == adjugate_reference(rows)
        real = ring.slot_bits
        monkeypatch.setattr(ring, "slot_bits", lambda bound: real(bound) - 1)
        with pytest.raises(ArithmeticError, match="certificate"):
            adjugate_columns(rows)

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_table_at_one_bit_below_its_need_raises(self, n, monkeypatch):
        # the a priori width is loose for a character table, so the elimination
        # is narrowed to one bit below what its largest decoded coefficient needs
        table = characters.character_table(n)
        labels = table.labels
        rows = tuple(tuple(table.entries[(lam, mu)] for mu in labels) for lam in labels)
        d, adj = adjugate_reference(rows)
        need = max(abs(a) for x in [d] + [x for col in adj for _, x in col] for _, a in x.items())
        real, calls = ring.slot_bits, []

        def narrow(bound):
            calls.append(bound)
            return real(need) - 1 if len(calls) == 1 else real(bound)

        monkeypatch.setattr(ring, "slot_bits", narrow)
        with pytest.raises(ArithmeticError, match="certificate"):
            adjugate_columns(rows)

    @pytest.mark.parametrize("which", [1, 5, -1])
    def test_a_perturbed_decoded_entry_raises(self, which, monkeypatch):
        # d is decoded first, then the adjugate entries in column order
        table = characters.character_table(3)
        labels = table.labels
        rows = tuple(tuple(table.entries[(lam, mu)] for mu in labels) for lam in labels)
        _, adj = adjugate_reference(rows)
        count = 1 + sum(map(len, adj))
        target = which % count
        real, calls = ring.unpack, []

        def perturbed(*args):
            calls.append(1)
            x = real(*args)
            return x + ONE if len(calls) - 1 == target else x

        monkeypatch.setattr(ring, "unpack", perturbed)
        with pytest.raises(ArithmeticError, match="certificate"):
            adjugate_columns(rows)
        assert len(calls) == count

    def test_the_certificate_raises_under_python_O(self):
        # a raised exception, not an assert, so `python -O` keeps the check
        code = (
            "from mirhecke import characters, ring\n"
            "t = characters.character_table(3)\n"
            "rows = tuple(tuple(t.entries[(a, b)] for b in t.labels) for a in t.labels)\n"
            "real = ring.unpack\n"
            "ring.unpack = lambda *args: real(*args) + ring.ONE\n"
            "ring.adjugate_columns(rows)\n"
        )
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 1
        assert "ArithmeticError: adjugate certificate fails" in proc.stderr


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

    def test_strings_match_the_reference(self):
        # every sign and magnitude class on exponents 0, +-1, +-2 and beyond,
        # all even (rendered in q) or with an odd one (rendered in v)
        rng = random.Random(19)
        coeffs = [1, -1, 2, -2, 3, -7, 10, -12, 100, -1000]
        exps = list(range(-9, 10))
        cases = [ZERO, ONE, MINUS_ONE, Q, QINV, V, -V, V.inverse_unit(), Q_MINUS_1]
        cases += [L({e: a}) for e in exps for a in coeffs]
        for _ in range(2000):
            terms = rng.randint(1, 6)
            even = rng.random() < 0.5
            cases.append(
                L({rng.choice(exps) * (2 if even else 1): rng.choice(coeffs) for _ in range(terms)})
            )
        assert any(not x.is_even() for x in cases) and any(x and x.is_even() for x in cases)
        for x in cases:
            assert x.to_string() == reference_to_string(x), x._c

    @given(scalars)
    @settings(deadline=None, max_examples=200)
    def test_strings_match_the_reference_on_drawn_scalars(self, x):
        assert x.to_string() == reference_to_string(x)
