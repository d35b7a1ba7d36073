import itertools
from collections import Counter

import pytest

from mirhecke.combinatorics import partitions_of, partitions_up_to, strip_removals
from mirhecke.ring import LaurentScalar, MINUS_ONE, ONE, Q, Q_MINUS_1
from mirhecke.symfun import (
    SchurExpandError,
    _fold_symmetric,
    _to_monomials,
    SymPoly,
    check_generating,
    check_two_symmetric,
    from_schur_coeffs,
    g_coeff,
    g_poly,
    hl_q_from_generating,
    m_sym,
    mul_sym,
    pieri_bruteforce,
    pieri_qtilde,
    qtilde,
    qtilde_from_sequences,
    qtilde_mu,
    schur,
    schur_expand,
    strip_weight,
    sym_one,
    sym_zero,
    transitions,
)

# -- independent oracle: expand a polynomial over explicit variables ----------


def eval_at(p: SymPoly, values):
    """Evaluate a SymPoly at concrete Laurent-scalar variable values."""
    total = LaurentScalar.from_int(0)
    for mu, c in p.terms.items():
        padded = tuple(mu) + (0,) * (p.r - len(mu))
        seen = set()
        for perm in itertools.permutations(padded):
            if perm in seen:
                continue
            seen.add(perm)
            term = c
            for e, x in zip(perm, values):
                term = term * x**e
            total = total + term
    return total


def ssyt_monomial_oracle(lam, r):
    """schur via direct SSYT enumeration: sum over tableaux of x^content."""
    cells = [(i, j) for i in range(len(lam)) for j in range(lam[i])]
    counts = {}

    def fill(pos, tab):
        if pos == len(cells):
            content = [0] * r
            for v in tab.values():
                content[v - 1] += 1
            key = tuple(content)
            counts[key] = counts.get(key, 0) + 1
            return
        i, j = cells[pos]
        lo = 1
        if j > 0:
            lo = max(lo, tab[(i, j - 1)])
        if i > 0:
            lo = max(lo, tab[(i - 1, j)] + 1)
        for v in range(lo, r + 1):
            tab[(i, j)] = v
            fill(pos + 1, tab)
        tab.pop((i, j), None)

    fill(0, {})
    terms = {}
    for content, c in counts.items():
        key = tuple(sorted((a for a in content if a), reverse=True))
        terms[key] = LaurentScalar.from_int(c)
    return SymPoly(r, terms)


class TestBases:
    def test_schur_single_box(self):
        assert schur((1,), 2) == m_sym((1,), 2)

    def test_schur_hook(self):
        got = schur((2, 1), 3)
        want = m_sym((2, 1), 3) + m_sym((1, 1, 1), 3).scale(2)
        assert got == want
        assert got == ssyt_monomial_oracle((2, 1), 3)

    def test_schur_too_many_rows_is_zero(self):
        assert schur((1, 1, 1), 2) == sym_zero(2)

    def test_schur_matches_ssyt_oracle(self):
        for size in range(1, 5):
            for lam in partitions_of(size):
                for r in (2, 3, 4):
                    assert schur(lam, r) == ssyt_monomial_oracle(lam, r)

    def test_m_sym_rejects_long_partitions(self):
        with pytest.raises(ValueError):
            m_sym((1, 1, 1), 2)


class TestMul:
    def test_power_sums(self):
        got = mul_sym(m_sym((1,), 2), m_sym((1,), 2))
        want = m_sym((1, 1), 2).scale(2) + m_sym((2,), 2)
        assert got == want

    def test_unit(self):
        p = schur((2, 1), 3)
        assert mul_sym(p, sym_one(3)) == p

    def test_pieri_square(self):
        got = mul_sym(schur((1,), 2), schur((1,), 2))
        want = schur((2,), 2) + schur((1, 1), 2)
        assert got == want

    def test_variable_count_mismatch(self):
        with pytest.raises(ValueError):
            mul_sym(sym_one(2), sym_one(3))

    def test_against_evaluation_oracle(self):
        vals = (Q, Q_MINUS_1, LaurentScalar.v_power(1))
        for lam in ((2,), (1, 1), (2, 1)):
            for mu in ((1,), (2,), (1, 1)):
                p, q = schur(lam, 3), schur(mu, 3)
                prod = mul_sym(p, q)
                assert eval_at(prod, vals) == eval_at(p, vals) * eval_at(q, vals)


class TestFromCompositions:
    # `_fold_symmetric` on compositions: exponent vectors with their zeros removed
    def test_folds_every_composition_of_a_symmetric_polynomial(self):
        for r in (1, 2, 3, 4):
            for lam in partitions_up_to(4):
                p = schur(lam, r)
                comps = {tuple(a for a in e if a): c for e, c in _to_monomials(p).items()}
                assert SymPoly(r, _fold_symmetric(comps)) == p, (lam, r)

    def test_zero_coefficients_fold_away(self):
        got = _fold_symmetric({(1, 2): Q, (2, 1): Q, (1,): ONE - ONE, (): ONE})
        assert got == {(2, 1): Q, (): ONE}

    def test_rearrangements_that_differ_raise(self):
        with pytest.raises(AssertionError, match=r"\(2, 1\)"):
            _fold_symmetric({(1, 2): Q, (2, 1): Q_MINUS_1})

    def test_zero_beside_a_nonzero_rearrangement_raises(self):
        with pytest.raises(AssertionError):
            _fold_symmetric({(1, 2): ONE - ONE, (2, 1): Q})

    def test_missing_rearrangement_counts_as_zero(self):
        with pytest.raises(AssertionError):
            _fold_symmetric({(2, 1, 1): Q, (1, 2, 1): Q})
        assert _fold_symmetric({(1, 2): ONE - ONE}) == {}


    def test_packed_ints_fold_and_raise(self):
        # trace sums fold as packed ints: equal ints merge, unequal ones raise
        assert _fold_symmetric({(1, 2): 5 << 40, (2, 1): 5 << 40, (1,): 0}) == {(2, 1): 5 << 40}
        with pytest.raises(AssertionError, match=r"\(2, 1\)"):
            _fold_symmetric({(1, 2): 5 << 40, (2, 1): 6 << 40})
        with pytest.raises(AssertionError):
            _fold_symmetric({(1, 2): 0, (2, 1): 1})


class TestFoldMonomials:
    # `_fold_symmetric` on monomials in r variables: exponent vectors with their zeros
    def test_folds_every_monomial_of_a_symmetric_polynomial(self):
        for r in (1, 2, 3, 4):
            for lam in partitions_up_to(4):
                p = schur(lam, r)
                assert SymPoly(r, _fold_symmetric(_to_monomials(p))) == p, (lam, r)

    def test_zero_coefficients_fold_away(self):
        got = _fold_symmetric({(1, 0): Q, (0, 1): Q, (1, 1): ONE - ONE, (0, 0): ONE})
        assert got == {(1,): Q, (): ONE}

    def test_rearrangements_that_differ_raise(self):
        with pytest.raises(AssertionError, match=r"\(2, 1\)"):
            _fold_symmetric({(1, 2, 0): Q, (2, 1, 0): Q, (0, 1, 2): Q, (0, 2, 1): Q,
                             (1, 0, 2): Q, (2, 0, 1): Q_MINUS_1})

    def test_missing_rearrangement_raises(self):
        # the zeros count: (1, 0) and (0, 1) are both in the orbit of m_(1)
        with pytest.raises(AssertionError, match=r"\(1,\)"):
            _fold_symmetric({(1, 0): Q})
        with pytest.raises(AssertionError):
            _fold_symmetric({(1, 0): Q, (0, 1): ONE - ONE})
        assert _fold_symmetric({(1,): Q}) == {(1,): Q}


class TestSchurExpand:
    def test_constant_plus_line(self):
        p = m_sym((1,), 2) + sym_one(2)
        assert schur_expand(p) == {(): ONE, (1,): ONE}

    def test_qtilde2(self):
        got = schur_expand(qtilde(2, 2))
        assert got == {
            (): MINUS_ONE,
            (1,): Q_MINUS_1,
            (2,): MINUS_ONE,
            (1, 1): Q,
        }

    def test_roundtrip(self):
        for lam in partitions_up_to(4):
            if len(lam) > 3:
                continue
            assert schur_expand(schur(lam, 3)) == {lam: ONE}

    def test_reconstruction(self):
        p = qtilde_mu((2, 1), 3)
        assert from_schur_coeffs(schur_expand(p), 3) == p


class TestQtilde:
    def test_zero(self):
        assert qtilde(0, 3) == sym_one(3)

    def test_one(self):
        assert qtilde(1, 2) == sym_one(2) + m_sym((1,), 2)

    def test_two(self):
        want = (
            sym_one(2).scale(-1)
            + m_sym((1,), 2).scale(Q_MINUS_1)
            + m_sym((2,), 2).scale(-1)
            + m_sym((1, 1), 2).scale(Q_MINUS_1)
        )
        assert qtilde(2, 2) == want

    def test_mu_products(self):
        assert qtilde_mu((), 2) == sym_one(2)
        sq = mul_sym(qtilde(1, 2), qtilde(1, 2))
        assert qtilde_mu((1, 1), 2) == sq
        assert qtilde_mu((2, 1), 3) == mul_sym(qtilde(2, 3), qtilde(1, 3))

    def test_sequence_sum_agrees(self):
        for m in range(1, 6):
            for r in range(1, 4):
                assert qtilde_from_sequences(m, r) == qtilde(m, r)

    def test_generating_function_agrees(self):
        for m in range(1, 7):
            for r in range(1, 5):
                assert check_generating(m, r)


class TestGPoly:
    def test_zero(self):
        assert g_poly(0, 2) == sym_one(2)

    def test_one(self):
        assert g_poly(1, 2) == sym_one(2) + m_sym((1,), 2)

    def test_two_one_variable(self):
        got = g_poly(2, 1)
        want = (
            sym_one(1).scale(Q)
            + m_sym((1,), 1).scale(Q_MINUS_1)
            + m_sym((2,), 1).scale(Q)
        )
        assert got == want

    def test_two_symmetric_small(self):
        assert check_two_symmetric(1, 2)
        assert check_two_symmetric(2, 2)
        assert check_two_symmetric(5, 3)

    def test_two_symmetric_range(self):
        for m in range(1, 7):
            for r in range(1, 5):
                assert check_two_symmetric(m, r)


class TestPieri:
    def test_one_box_on_empty(self):
        assert pieri_qtilde(1, (), 5) == {(): ONE, (1,): ONE}

    def test_two_boxes_on_empty(self):
        got = pieri_qtilde(2, (), 5)
        assert got == {
            (): MINUS_ONE,
            (1,): Q_MINUS_1,
            (2,): MINUS_ONE,
            (1, 1): Q,
        }

    def test_one_box_on_line(self):
        assert pieri_qtilde(1, (1,), 5) == {
            (1,): ONE,
            (2,): ONE,
            (1, 1): ONE,
        }

    def test_matches_bruteforce(self):
        for m in range(0, 5):
            for size in range(0, 5 - m):
                for nu in partitions_of(size):
                    assert pieri_qtilde(m, nu, 5) == pieri_bruteforce(m, nu, 5), (m, nu)

    def test_paper_variant_fails_at_m2(self):
        got = pieri_qtilde(2, (), 5, variant="paper")
        want = pieri_bruteforce(2, (), 5)
        assert got != want

    def test_row_count_respected(self):
        # with r = 1 only single-row partitions can appear
        got = pieri_qtilde(2, (), 1)
        assert got == pieri_bruteforce(2, (), 1)
        assert all(len(lam) <= 1 for lam in got)


class TestTransitions:
    def test_matches_direct_construction(self):
        # one enumeration per shape, filtered by size, with shape-memoized
        # coefficients, gives the same multiset as building each (lam, m) afresh
        for lam in partitions_up_to(7):
            k = sum(lam)
            for m in range(1, 9):
                for variant in ("oracle", "paper"):
                    want = Counter(
                        (nu, k - size, g_coeff(size, m, variant) * strip_weight(size, comps))
                        for nu, size, comps in strip_removals(lam, m)
                    )
                    assert Counter(transitions(lam, m, variant)) == want, (lam, m, variant)


class TestSerialization:
    def test_roundtrip_m_basis(self):
        p = qtilde(2, 3)
        assert SymPoly.from_json(p.to_json()) == p

    def test_schur_basis_load(self):
        obj = {
            "r": 3,
            "basis": "s",
            "terms": [{"partition": [2, 1], "coeff": {"var": "q", "coeffs": {"0": "1"}}}],
        }
        assert SymPoly.from_json(obj) == schur((2, 1), 3)

    @pytest.mark.parametrize("basis", ["p", "S", ""])
    def test_unknown_basis_raises(self, basis):
        obj = {
            "r": 3,
            "basis": basis,
            "terms": [{"partition": [2, 1], "coeff": {"var": "q", "coeffs": {"0": "1"}}}],
        }
        with pytest.raises(ValueError, match="unknown basis"):
            SymPoly.from_json(obj)
