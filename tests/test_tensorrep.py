import itertools
import random

import pytest

from mirhecke.algebra import (
    GeneratorWord,
    basis_element,
    gen_P,
    gen_T,
    hat_T,
    identity_element,
    mul,
)
from mirhecke.combinatorics import BasisIndex, iter_standard_basis, partitions_up_to
from mirhecke.characters import mn_character
from mirhecke.ring import LaurentScalar, ONE, Q_MINUS_1, V, ZERO
from mirhecke.symfun import m_sym, qtilde, qtilde_mu, sym_one
from mirhecke import tensorrep
from mirhecke.tensorrep import (
    TensorState,
    apply_R,
    apply_e,
    basis_words,
    char_oracle,
    compose_operators,
    image_rank,
    psi_apply,
    psi_matrix,
    psi_of_element,
    trace_D,
    verify_rep_relations,
)


def unit(n, r, word):
    return TensorState(n, r, {tuple(word): ONE})


class TestLocalOperators:
    def test_equal_letters(self):
        out = apply_R(1, unit(2, 2, (1, 1)))
        assert out.terms == {(1, 1): -ONE}

    def test_increasing_pair(self):
        out = apply_R(1, unit(2, 2, (1, 2)))
        assert out.terms == {(2, 1): -V}

    def test_decreasing_pair(self):
        out = apply_R(1, unit(2, 2, (2, 1)))
        assert out.terms == {(1, 2): -V, (2, 1): Q_MINUS_1}

    def test_projection_keeps_top_prefix(self):
        assert apply_e(1, unit(2, 1, (2, 1))).terms == {(2, 1): ONE}
        assert apply_e(1, unit(2, 1, (1, 2))).terms == {}
        assert apply_e(2, unit(2, 1, (2, 1))).terms == {}

    def test_range_validation(self):
        with pytest.raises(ValueError):
            apply_R(2, unit(2, 2, (1, 1)))
        with pytest.raises(ValueError):
            apply_e(3, unit(2, 2, (1, 1)))
        with pytest.raises(ValueError):
            TensorState(2, 1, {(3, 1): ONE})


class TestPsiApply:
    def test_projection_word(self):
        state = unit(2, 2, (3, 1))
        out = psi_apply(GeneratorWord(2, [("P", 1)]), state)
        assert out == state

    def test_quadratic_relation(self):
        for w in basis_words(2, 2):
            state = unit(2, 2, w)
            twice = psi_apply(GeneratorWord(2, [("T", 1, 1), ("T", 1, 1)]), state)
            once = apply_R(1, state)
            rhs = TensorState(2, 2, {})
            for k, c in once.terms.items():
                rhs.terms[k] = c * Q_MINUS_1
            for k, c in state.terms.items():
                rhs.terms[k] = rhs.terms.get(k, ZERO) + c * LaurentScalar.q_power(1)
            assert twice == TensorState(2, 2, rhs.terms)

    def test_idempotent_recursion_operator(self):
        # -q^-1 (e_i R_i e_i - (q-1) e_i) acts as e_{i+1}
        n, r = 3, 2
        qinv = LaurentScalar.q_power(-1)
        for w in basis_words(n, r):
            state = unit(n, r, w)
            sandwich = psi_apply(
                GeneratorWord(n, [("P", 2), ("T", 2, 1), ("P", 2)]), state
            )
            single = psi_apply(GeneratorWord(n, [("P", 2)]), state)
            combo = {}
            for k, c in sandwich.terms.items():
                combo[k] = c * (-qinv)
            for k, c in single.terms.items():
                s = combo.get(k, ZERO) + c * qinv * Q_MINUS_1
                if s:
                    combo[k] = s
                else:
                    combo.pop(k, None)
            assert TensorState(n, r, combo) == psi_apply(
                GeneratorWord(n, [("P", 3)]), state
            )

    def test_inverse_braid(self):
        n, r = 2, 2
        for w in basis_words(n, r):
            state = unit(n, r, w)
            roundtrip = psi_apply(GeneratorWord(n, [("T", 1, 1), ("T", 1, -1)]), state)
            assert roundtrip == state


class TestRelationReports:
    @pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 2)])
    def test_all_pass(self, n, r):
        failures = [x for x in verify_rep_relations(n, r) if x["status"] != "pass"]
        assert not failures

    def test_report_shape(self):
        reports = verify_rep_relations(2, 1)
        # rank 2 has the R1 quadratic and the e-relations but no braid relation
        assert {x["check"] for x in reports} == {
            "R1^2 = (q-1)R1 + q",
            "e1^2 = e1",
            "e2^2 = e2",
            "e2e1 = e2",
            "e1e2 = e2",
            "e2R1 = -e2",
            "R1e2 = -e2",
            "e2 = -q^-1(e1R1e1 - (q-1)e1)",
        }
        for x in reports:
            assert set(x) == {"check", "n", "r", "status", "witness"}


class TestTraces:
    def test_identity_rank1(self):
        assert trace_D(identity_element(1), 1) == sym_one(1) + m_sym((1,), 1)

    def test_long_cycle_gives_qtilde(self):
        for m in (1, 2, 3):
            for r in (1, 2, 3):
                assert trace_D(hat_T(m, (m,)), r) == qtilde(m, r)

    def test_cocenter_reps_give_qtilde_products(self):
        for n in (2, 3):
            for mu in partitions_up_to(n):
                assert trace_D(hat_T(n, mu), n) == qtilde_mu(mu, n)

    def test_oracle_matches_recursion_small(self):
        for n in (1, 2, 3):
            for mu in partitions_up_to(n):
                oracle = char_oracle(hat_T(n, mu), r=n)
                for lam in partitions_up_to(n):
                    assert oracle.get(lam, ZERO) == mn_character(n, lam, mu)

    def test_braid_idempotent_product_trace(self):
        # T1 P1 has character q-1 on the single-box row and -1 on the empty row
        got = char_oracle(basis_element(BasisIndex((2,), (1,), (1, 2))), r=2)
        assert got == {(1,): Q_MINUS_1, (): -ONE}

    def test_identity_column_dimensions(self):
        for n in (1, 2, 3):
            got = char_oracle(identity_element(n), r=n)
            total = 0
            for lam, c in got.items():
                coeffs = dict(c.items())
                assert set(coeffs) == {0} and coeffs[0] > 0
                total += coeffs[0] ** 2
            from mirhecke.combinatorics import standard_basis_count

            assert total == standard_basis_count(n)

    def test_oracle_requires_enough_variables(self):
        with pytest.raises(ValueError):
            char_oracle(identity_element(3), r=2)


class TestMultiplicativity:
    def test_exhaustive_rank2(self):
        basis = list(iter_standard_basis(2))
        for a in basis:
            for b in basis:
                prod = mul(basis_element(a), basis_element(b))
                lhs = psi_of_element(prod, 2)
                rhs = compose_operators(psi_matrix(2, a), psi_matrix(2, b))
                assert lhs == rhs, (a, b)

    def test_sampled_rank3(self):
        basis = list(iter_standard_basis(3))
        rng = random.Random(5)
        for _ in range(60):
            a, b = rng.choice(basis), rng.choice(basis)
            prod = mul(basis_element(a), basis_element(b))
            assert psi_of_element(prod, 3) == compose_operators(
                psi_matrix(3, a), psi_matrix(3, b)
            )


class TestConformanceMode:
    def test_extra_variable_gives_same_characters(self):
        # r = n separates all Schur polynomials that occur; r = n + 1 must agree
        for n in (1, 2, 3):
            for mu in partitions_up_to(n):
                a = char_oracle(hat_T(n, mu), r=n)
                b = char_oracle(hat_T(n, mu), r=n + 1)
                assert a == b, (n, mu)


class TestImageRank:
    def test_rank1(self):
        assert image_rank(1, 1, 4, 2) == 2

    def test_rank2(self):
        assert image_rank(2, 2, 4, 2) == 7

    def test_rank3_two_points(self):
        assert image_rank(3, 3, 4, 2) == 34
        assert image_rank(3, 3, 9, 3) == 34
