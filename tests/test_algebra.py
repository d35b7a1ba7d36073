import random

import pytest

from mirhecke.algebra import (
    AlgebraElement,
    GeneratorWord,
    OddExponentError,
    _finish,
    all_basis_elements,
    basis_element,
    basis_word,
    check_relations,
    even_exponent_ok,
    gen_P,
    gen_T,
    hat_T,
    identity_element,
    iota_embed,
    mul,
    reduce_word,
    rho,
    rmul_gen,
    star,
    t0_element,
)
from mirhecke.combinatorics import BasisIndex, identity_perm, iter_standard_basis, partitions_up_to
from mirhecke.ring import LaurentScalar, ONE, Q, Q_MINUS_1, V


def idx(A, B, w):
    return BasisIndex(tuple(A), tuple(B), tuple(w))


class TestBasisWords:
    def test_idempotent_after_shuffle(self):
        word = basis_word(idx([1], [2], [1, 2]))
        assert word.letters == (("P", 1), ("T", 1, -1))

    def test_shuffle_before_idempotent(self):
        word = basis_word(idx([2], [1], [1, 2]))
        assert word.letters == (("T", 1, 1), ("P", 1))

    def test_full_subset_collapses_to_idempotent(self):
        word = basis_word(idx([1, 2], [1, 2], [1, 2]))
        assert word.letters == (("P", 2),)

    def test_conjugated_idempotent_regression(self):
        # the length-3 word T1 P2 T1^-1 reduces to the bare idempotent P2
        w = GeneratorWord(2, [("T", 1, 1), ("P", 2), ("T", 1, -1)])
        assert reduce_word(w) == gen_P(2, 2)

    def test_roundtrip_all_small_ranks(self):
        for n in (1, 2, 3):
            for index in iter_standard_basis(n):
                assert reduce_word(basis_word(index)) == basis_element(index)

    def test_bad_letters(self):
        with pytest.raises(ValueError):
            GeneratorWord(2, [("T", 2, 1)])
        with pytest.raises(ValueError):
            GeneratorWord(2, [("P", 3)])
        with pytest.raises(ValueError):
            GeneratorWord(2, [("X", 1)])


class TestRightMultiplication:
    def test_idempotent_square(self):
        p1 = gen_P(2, 1)
        assert rmul_gen(p1, ("P", 1)) == p1

    def test_idempotent_times_braid(self):
        got = rmul_gen(gen_P(2, 1), ("T", 1, 1))
        want = AlgebraElement(
            2,
            {
                idx([1], [2], [1, 2]): Q,
                idx([1], [1], [1, 2]): Q_MINUS_1,
            },
        )
        assert got == want

    def test_top_idempotent_absorbs_braid(self):
        p2 = basis_element(idx([1, 2], [1, 2], [1, 2]))
        assert rmul_gen(p2, ("T", 1, 1)) == -p2


class TestMul:
    def test_sandwich_lowers_to_next_idempotent(self):
        n = 2
        p1, t1 = gen_P(n, 1), gen_T(n, 1)
        assert mul(p1, mul(t1, p1)) == p1.scale(Q_MINUS_1) - gen_P(n, 2).scale(Q)

    def test_braid_quadratic(self):
        t1 = gen_T(2, 1)
        assert mul(t1, t1) == t1.scale(Q_MINUS_1) + identity_element(2).scale(Q)

    def test_higher_idempotent_absorbs_lower(self):
        assert mul(gen_P(2, 2), gen_P(2, 1)) == gen_P(2, 2)

    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            mul(identity_element(2), identity_element(3))

    def test_associativity_rank2_exhaustive(self):
        els = all_basis_elements(2)
        for a in els:
            for b in els:
                ab = mul(a, b)
                for c in els:
                    assert mul(ab, c) == mul(a, mul(b, c))

    def test_associativity_rank3_exhaustive(self):
        els = all_basis_elements(3)
        prods = [[mul(a, b) for b in els] for a in els]
        for i, a in enumerate(els):
            for j in range(len(els)):
                ab = prods[i][j]
                for k, c in enumerate(els):
                    assert mul(ab, c) == mul(a, prods[j][k]), (i, j, k)

    def test_associativity_rank4_sampled(self):
        els = all_basis_elements(4)
        rng = random.Random(7)
        for _ in range(40):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))

    def test_even_exponents_closed_under_products(self):
        els = all_basis_elements(3)
        rng = random.Random(3)
        for _ in range(60):
            prod = mul(rng.choice(els), rng.choice(els))
            assert even_exponent_ok(prod)


class TestEvenExponentInvariant:
    def test_odd_exponent_raises(self):
        # a hand-built working-basis term v * 1, which no even input can produce
        with pytest.raises(OddExponentError):
            _finish(2, {((), identity_perm(2)): V})

    def test_unchecked_finish_keeps_odd_exponent(self):
        out = _finish(2, {((), identity_perm(2)): V}, check_even=False)
        assert not even_exponent_ok(out)


class TestHatT:
    def test_empty_partition_is_top_idempotent(self):
        assert hat_T(2, ()) == gen_P(2, 2)

    def test_all_ones_is_identity(self):
        assert hat_T(2, (1, 1)) == identity_element(2)
        assert hat_T(4, (1, 1, 1, 1)) == identity_element(4)

    def test_single_row_is_braid(self):
        assert hat_T(2, (2,)) == gen_T(2, 1)

    def test_composition_argument(self):
        assert hat_T(3, (1, 2)).n == 3

    def test_size_overflow(self):
        with pytest.raises(ValueError):
            hat_T(2, (3,))
        with pytest.raises(ValueError):
            hat_T(2, (0,))


class TestEmbeddings:
    def test_iota_idempotent_shift(self):
        assert iota_embed(gen_P(1, 1)) == gen_P(2, 2)

    def test_iota_braid_shift(self):
        assert iota_embed(gen_T(2, 1)) == gen_T(3, 2)

    def test_iota_matches_shifted_words(self):
        for n in (1, 2, 3):
            for index in iter_standard_basis(n):
                elem = basis_element(index)
                shifted_letters = []
                for lt in basis_word(index):
                    if lt[0] == "T":
                        shifted_letters.append(("T", lt[1] + 1, lt[2]))
                    else:
                        shifted_letters.append(("P", lt[1] + 1))
                via_words = reduce_word(GeneratorWord(n + 1, shifted_letters))
                assert iota_embed(elem) == via_words

    def test_rho_of_identity(self):
        assert rho(identity_element(2)) == gen_P(3, 1)

    def test_rho_is_p1_times_iota(self):
        for n in (1, 2, 3):
            p1 = gen_P(n + 1, 1)
            for index in iter_standard_basis(n):
                elem = basis_element(index)
                assert rho(elem) == mul(p1, iota_embed(elem))

    def test_rho_images_are_distinct_unit_basis_elements(self):
        for n in (2, 3):
            images = set()
            for index in iter_standard_basis(n - 1):
                im = rho(basis_element(index))
                assert len(im.terms) == 1
                ((target, coeff),) = im.terms.items()
                assert coeff == ONE
                images.add(target)
            assert len(images) == len(list(iter_standard_basis(n - 1)))

    def test_rho_multiplicative(self):
        els = all_basis_elements(2)
        for a in els:
            for b in els:
                assert rho(mul(a, b)) == mul(rho(a), rho(b))

    def test_rho_sends_cocenter_reps_to_cocenter_reps(self):
        for n in (2, 3, 4):
            for mu in partitions_up_to(n - 1):
                assert rho(hat_T(n - 1, mu)) == hat_T(n, mu)


class TestStar:
    def test_fixes_idempotent(self):
        assert star(gen_P(2, 1)) == gen_P(2, 1)

    def test_reverses_shuffle(self):
        t1p1 = basis_element(idx([2], [1], [1, 2]))  # the word T1 P1
        p1t1 = rmul_gen(gen_P(2, 1), ("T", 1, 1))
        assert star(t1p1) == p1t1

    def test_involution(self):
        for x in (hat_T(2, (2,)), hat_T(3, (2, 1)), gen_P(3, 2)):
            assert star(star(x)) == x

    def test_anti_multiplicative(self):
        els = all_basis_elements(3)
        rng = random.Random(11)
        for _ in range(25):
            a, b = rng.choice(els), rng.choice(els)
            assert star(mul(a, b)) == mul(star(b), star(a))


class TestWordConsistency:
    """Random-word cross-checks: reduction is a homomorphism from free words."""

    @staticmethod
    def _random_word(rng, n, length):
        letters = []
        for _ in range(length):
            kind = rng.randrange(3)
            if kind == 0:
                letters.append(("T", rng.randrange(1, n), 1))
            elif kind == 1:
                letters.append(("T", rng.randrange(1, n), -1))
            else:
                letters.append(("P", rng.randrange(1, n + 1)))
        return letters

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_concatenation_equals_product(self, n):
        rng = random.Random(n)
        for _ in range(30):
            w1 = self._random_word(rng, n, rng.randrange(0, 6))
            w2 = self._random_word(rng, n, rng.randrange(0, 6))
            left = reduce_word(GeneratorWord(n, w1))
            right = reduce_word(GeneratorWord(n, w2))
            assert reduce_word(GeneratorWord(n, w1 + w2)) == mul(left, right)

    def test_inverse_letters_cancel(self):
        n = 3
        rng = random.Random(99)
        for _ in range(20):
            i = rng.randrange(1, n)
            w = self._random_word(rng, n, 4)
            padded = w + [("T", i, 1), ("T", i, -1)]
            assert reduce_word(GeneratorWord(n, padded)) == reduce_word(
                GeneratorWord(n, w)
            )


class TestRelations:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_defining_relations(self, n):
        failures = [r for r in check_relations(n) if r["status"] != "pass"]
        assert not failures

    def test_t0_quadratic_directly(self):
        n = 2
        t0 = t0_element(n)
        two = LaurentScalar.from_int(2)
        lhs = mul(t0, t0) - t0.scale(Q - two) - identity_element(n).scale(Q_MINUS_1)
        assert lhs.is_zero()

    def test_mixed_braid_relation_directly(self):
        n = 2
        t0, t1 = t0_element(n), gen_T(n, 1)
        lhs = mul(mul(mul(t0, t1), t0), t1)
        rhs = (mul(mul(t1, t0), t1) + mul(t1, t0)).scale(Q_MINUS_1) - mul(
            mul(t0, t1), t0
        )
        assert lhs == rhs

    def test_braid_relation_rank3(self):
        t1, t2 = gen_T(3, 1), gen_T(3, 2)
        assert mul(mul(t1, t2), t1) == mul(mul(t2, t1), t2)


class TestSerialization:
    def test_element_json_roundtrip(self):
        x = mul(gen_P(2, 1), gen_T(2, 1))
        assert AlgebraElement.from_json(x.to_json()) == x

    def test_json_is_canonically_sorted(self):
        x = hat_T(3, (2,))
        obj = x.to_json()
        keys = [
            (len(t["index"]["A"]), t["index"]["A"], t["index"]["B"], t["index"]["w"])
            for t in obj["terms"]
        ]
        assert keys == sorted(keys)
