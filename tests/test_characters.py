import json

import pytest

from mirhecke import characters, checks, symfun, tensorrep
from mirhecke.algebra import basis_element, hat_T
from mirhecke.characters import (
    CharacterTable,
    ClassPolynomialDefect,
    character_table,
    class_polynomials,
    mn_character,
    mn_character_removing_first,
    parse_partition,
    partition_string,
)
from mirhecke.combinatorics import BasisIndex, iter_standard_basis, partitions_up_to
from mirhecke.ring import LaurentScalar, MINUS_ONE, ONE, Q, QINV, Q_MINUS_1, ZERO, rank_over_q
from mirhecke.symfun import g_coeff, wtbar


def q_int(x):
    return LaurentScalar.from_int(x)


class TestStripWeights:
    def test_single_box(self):
        assert wtbar((1,), ()) == ONE

    def test_horizontal_domino(self):
        assert wtbar((2,), ()) == QINV

    def test_vertical_domino(self):
        assert wtbar((1, 1), ()) == MINUS_ONE

    def test_empty_strip_convention(self):
        assert wtbar((2, 1), (2, 1)) == ONE

    def test_non_strip_is_zero(self):
        assert wtbar((2, 2), ()) == ZERO

    def test_exponent_bookkeeping(self):
        # size s strip: total weight exponent count matches s - 1
        for lam in partitions_up_to(5):
            for nu in partitions_up_to(5):
                try:
                    w = wtbar(lam, nu)
                except Exception:
                    continue
                if not w or lam == nu:
                    continue
                # wtbar is (-q)^(1-s) times a polynomial of degree <= s-1
                s = sum(lam) - sum(nu)
                assert w.min_exp() >= 2 * (1 - s)


class TestTransitionCoefficients:
    def test_oracle_values(self):
        assert g_coeff(1, 1) == ONE
        assert g_coeff(2, 2) == -Q
        assert g_coeff(0, 2) == MINUS_ONE
        assert g_coeff(1, 2) == Q_MINUS_1
        assert g_coeff(3, 3) == LaurentScalar.q_power(2)

    def test_paper_values(self):
        assert g_coeff(0, 2, "paper") == Q
        assert g_coeff(2, 2, "paper") == ONE
        assert g_coeff(1, 2, "paper") == Q_MINUS_1
        assert g_coeff(1, 3, "paper") == -Q_MINUS_1
        assert g_coeff(2, 3, "paper") == Q_MINUS_1
        # the displayed case list disagrees with the oracle values at the ends
        assert g_coeff(0, 2, "paper") != g_coeff(0, 2)
        assert g_coeff(2, 2, "paper") != g_coeff(2, 2)

    def test_range_errors(self):
        with pytest.raises(ValueError):
            g_coeff(3, 2)
        with pytest.raises(ValueError):
            g_coeff(0, 0)
        with pytest.raises(ValueError):
            g_coeff(1, 1, "wrong")


class TestCharacterRecursion:
    def test_base_case(self):
        assert mn_character(3, (), ()) == ONE
        assert mn_character(3, (1,), ()) == ZERO

    def test_rank2_empty_row(self):
        row = [mn_character(2, (), mu) for mu in partitions_up_to(2)]
        assert row == [ONE, ONE, MINUS_ONE, ONE]

    def test_rank2_sign_row(self):
        row = [mn_character(2, (1, 1), mu) for mu in partitions_up_to(2)]
        assert row == [ZERO, ZERO, Q, ONE]

    def test_rank2_middle_row(self):
        row = [mn_character(2, (1,), mu) for mu in partitions_up_to(2)]
        assert row == [ZERO, ONE, Q_MINUS_1, q_int(2)]

    def test_size_errors(self):
        with pytest.raises(ValueError):
            mn_character(1, (2,), ())

    def test_removing_first_part_agrees(self):
        for n in (2, 3, 4):
            for lam in partitions_up_to(n):
                for mu in partitions_up_to(n):
                    assert mn_character(n, lam, mu) == mn_character_removing_first(
                        n, lam, mu
                    ), (n, lam, mu)


class TestCharacterTable:
    def test_rank1(self):
        t = character_table(1)
        assert t.labels == [(), (1,)]
        assert t.matrix() == [[ONE, ONE], [ZERO, ONE]]

    def test_rank2(self):
        t = character_table(2)
        want = [
            [ONE, ONE, MINUS_ONE, ONE],
            [ZERO, ONE, Q_MINUS_1, q_int(2)],
            [ZERO, ZERO, MINUS_ONE, ONE],
            [ZERO, ZERO, Q, ONE],
        ]
        assert t.matrix() == want

    def test_vanishing(self):
        for n in (1, 2, 3):
            assert checks.vanishing_above_diagonal(character_table(n)) is None

    def test_determinant_nonzero(self):
        for n in (1, 2, 3):
            t = character_table(n)
            for q0 in (2, 3, 5):
                rows = [
                    {mu: t.entries[(lam, mu)].specialize(q0) for mu in t.labels}
                    for lam in t.labels
                ]
                assert rank_over_q(rows) == len(t.labels)
            assert checks.determinant_nonzero(t) is None

    def test_csv_golden_rank1(self):
        t = character_table(1)
        assert t.to_csv() == "lambda\\mu,0,1\n0,1,1\n1,0,1\n"

    def test_csv_byte_stable(self):
        a = character_table(2).to_csv()
        b = character_table(2).to_csv()
        assert a == b

    def test_json_shape(self):
        obj = character_table(2).to_json()
        assert obj["labels"] == ["0", "1", "2", "1.1"]
        assert len(obj["entries"]) == 4 and len(obj["entries"][0]) == 4

    def test_cold_fills_identical(self):
        for variant in ("oracle", "paper"):
            fills = []
            for _ in range(2):
                characters._MN_CACHE.clear()
                symfun.transitions.cache_clear()
                fills.append(character_table(5, variant))
            assert fills[0].entries == fills[1].entries
            assert fills[0].to_csv().encode() == fills[1].to_csv().encode()


class TestClassPolynomials:
    def test_braid_idempotent_product(self):
        cp = class_polynomials(2, BasisIndex((2,), (1,), (1, 2)))
        assert cp.coeffs == {(1,): Q_MINUS_1, (): -Q}

    def test_idempotent_inverse_braid(self):
        cp = class_polynomials(2, BasisIndex((1,), (2,), (1, 2)))
        assert cp.coeffs == {(): MINUS_ONE}

    def test_conjugated_idempotent(self):
        cp = class_polynomials(2, BasisIndex((2,), (2,), (1, 2)))
        assert cp.coeffs == {(1,): ONE}

    def test_all_rank3_laurent_and_reconstruct(self):
        n = 3
        table = character_table(n)
        for idx in iter_standard_basis(n):
            cp = class_polynomials(n, idx, table)  # raises on non-Laurent
            traces = tensorrep.char_oracle(basis_element(idx), r=n)
            for lam in table.labels:
                lhs = ZERO
                for mu, f in cp.coeffs.items():
                    lhs = lhs + f * table.entries[(lam, mu)]
                assert lhs == traces.get(lam, ZERO), (idx, lam)

    def test_pure_braid_elements_use_full_size_columns(self):
        n = 3
        table = character_table(n)
        for idx in iter_standard_basis(n):
            if idx.k == 0:
                cp = class_polynomials(n, idx, table)
                assert all(sum(mu) == n for mu in cp.coeffs)

    def test_cocenter_representatives_are_delta_vectors(self):
        n = 2
        table = character_table(n)
        for mu in partitions_up_to(n):
            elem = hat_T(n, mu)
            # expand hat_T in the basis and contract its class polynomials
            total = {}
            for idx, c in elem.terms.items():
                cp = class_polynomials(n, idx, table)
                for nu, f in cp.coeffs.items():
                    s = total.get(nu, ZERO) + c * f
                    if s:
                        total[nu] = s
                    else:
                        total.pop(nu, None)
            assert total == {tuple(mu): ONE}

    def test_scaled_table_is_a_defect(self):
        # a table scaled by (q + 1) has solution f / (q + 1), which is not Laurent;
        # solving the unscaled table first must not let its factorization be reused
        table = character_table(2)
        idx = BasisIndex((2,), (1,), (1, 2))
        assert class_polynomials(2, idx, table).coeffs == {(1,): Q_MINUS_1, (): -Q}
        scaled = CharacterTable(
            table.n, table.labels, {k: (Q + ONE) * v for k, v in table.entries.items()}
        )
        with pytest.raises(ClassPolynomialDefect, match=r"at \(\): \(q\^5.*\) / \(-q\^5.*-1\)"):
            class_polynomials(2, idx, scaled)

    def test_json(self):
        cp = class_polynomials(2, BasisIndex((2,), (1,), (1, 2)))
        obj = cp.to_json()
        assert obj["f"]["1"] == {"var": "q", "coeffs": {"1": "1", "0": "-1"}}
        json.dumps(obj)


class TestPartitionStrings:
    def test_roundtrip(self):
        for p in [(), (1,), (3, 2, 1)]:
            assert parse_partition(partition_string(p)) == p

    def test_empty_forms(self):
        assert parse_partition("") == ()
        assert parse_partition("0") == ()

    def test_bad_strings(self):
        with pytest.raises(ValueError):
            parse_partition("2.x")
        with pytest.raises(ValueError):
            parse_partition("1.2")
