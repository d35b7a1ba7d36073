import functools
import json
from collections import Counter

import pytest

from bareiss_reference import replay_reference
from mirhecke import algebra, characters, checks, ring, symfun, tensorrep
from mirhecke.algebra import basis_element, hat_T
from mirhecke.characters import (
    CharacterTable,
    ClassPolynomialDefect,
    character_table,
    class_polynomials,
    mn_character,
    parse_partition,
    partition_string,
)
from mirhecke.combinatorics import (
    BasisIndex,
    iter_standard_basis,
    partitions_up_to,
    strip_removals,
)
from mirhecke.ring import (
    InexactDivisionError,
    LaurentScalar,
    MINUS_ONE,
    ONE,
    Q,
    QINV,
    Q_MINUS_1,
    V,
    ZERO,
    rank_over_q,
)
from mirhecke.symfun import g_coeff, strip_weight, transitions


def clear_character_memos():
    for memo in (characters._table, characters._default_rows, symfun._strips, symfun._strip_coeff):
        memo.cache_clear()


@functools.cache
def reference_chi(lam, mu, variant):
    """The recursion on LaurentScalar, memoized per (lam, mu), that the packed columns replace."""
    if not mu:
        return ONE if not lam else ZERO
    m, rest = mu[-1], mu[:-1]
    rest_size = sum(rest)
    total = ZERO
    for nu, nu_size, coeff in transitions(lam, m, variant):
        if nu_size <= rest_size:
            sub = reference_chi(nu, rest, variant)
            if sub:
                total = total + coeff * sub
    return total


def q_int(x):
    return LaurentScalar.from_int(x)


def strip_weight_of(lam, nu):
    """The inverted strip weight of lam/nu; zero when lam/nu is no strip."""
    for mu, size, comps in strip_removals(lam, sum(lam)):
        if mu == nu:
            return strip_weight(size, comps)
    return ZERO


def chi_removing_first(lam, mu):
    """The character recursion stripping the first (largest) part of mu, unmemoized."""
    if not mu:
        return ONE if not lam else ZERO
    total = ZERO
    for nu, _, coeff in transitions(lam, mu[0], "oracle"):
        total = total + coeff * chi_removing_first(nu, mu[1:])
    return total


class TestStripWeights:
    def test_single_box(self):
        assert strip_weight_of((1,), ()) == ONE

    def test_horizontal_domino(self):
        assert strip_weight_of((2,), ()) == QINV

    def test_vertical_domino(self):
        assert strip_weight_of((1, 1), ()) == MINUS_ONE

    def test_empty_strip_convention(self):
        assert strip_weight_of((2, 1), (2, 1)) == ONE

    def test_non_strip_is_zero(self):
        assert strip_weight_of((2, 2), ()) == ZERO

    def test_exponent_bookkeeping(self):
        # size s strip: total weight exponent count matches s - 1
        for lam in partitions_up_to(5):
            for nu in partitions_up_to(5):
                w = strip_weight_of(lam, nu)
                if not w or lam == nu:
                    continue
                # the weight is (-q)^(1-s) times a polynomial of degree <= s-1
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
                    want = chi_removing_first(lam, mu)
                    assert mn_character(n, lam, mu) == want, (n, lam, mu)


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

    def test_rank_free_memo(self):
        # chi[lam](mu) does not depend on n, though the memo is per rank (its
        # slot width and offset are): a cold rank-n table is the restriction
        # of a cold rank-(n+1) table
        for variant in ("oracle", "paper"):
            for n in range(1, 7):
                clear_character_memos()
                small = character_table(n, variant)
                clear_character_memos()
                big = character_table(n + 1, variant)
                assert small.entries == {key: big.entries[key] for key in small.entries}

    def test_one_strip_enumeration_per_partition(self, monkeypatch):
        seen = []
        real = symfun.strip_removals

        def counting(lam, m):
            seen.append(lam)
            return real(lam, m)

        monkeypatch.setattr(symfun, "strip_removals", counting)
        clear_character_memos()
        character_table(8)
        assert seen and len(seen) == len(set(seen))

    def test_columns_match_the_reference_recursion(self):
        for variant in ("oracle", "paper"):
            for n in range(1, 9):
                table = character_table(n, variant)
                labels = table.labels
                for lam in labels:
                    for mu in labels:
                        assert table.entries[(lam, mu)] == reference_chi(lam, mu, variant), (n, lam, mu)

    def test_bounds_cover_every_entry_and_product(self, monkeypatch):
        # the B and E that `_bounds` gives a build decode every entry, and E
        # reaches below the lowest q-exponent of every product c * chi[nu](rest)
        # the recursion sums (v-exponents are 2 * q)
        found = []
        real_bounds = characters._bounds

        def bounds_spy(rows, coeffs, labels):
            found.append(real_bounds(rows, coeffs, labels))
            return found[-1]

        monkeypatch.setattr(characters, "_bounds", bounds_spy)
        for variant in ("oracle", "paper"):
            for n in range(1, 11):
                characters._table.cache_clear()
                found.clear()
                table = character_table(n, variant)
                ((bits, offset),) = found
                entries = table.entries
                widest = max(abs(a) for x in entries.values() for _, a in x.items())
                assert widest < 1 << (bits - 1), (n, variant)
                lowest = 0
                for mu in table.labels[1:]:
                    rest, rest_size = mu[:-1], sum(mu) - mu[-1]
                    for lam in table.labels:
                        if sum(lam) > sum(mu):
                            break
                        for nu, nu_size, c in transitions(lam, mu[-1], variant):
                            x = entries[(nu, rest)]
                            if nu_size <= rest_size and x:
                                lowest = min(lowest, c.min_exp() + x.min_exp())
                assert lowest >= -2 * offset, (n, variant)
                if variant == "paper" and n >= 2:
                    assert lowest < 0  # the bound is exercised, not vacuous

    def test_bounds_read_every_row_the_columns_read(self, monkeypatch):
        # B and E are sound only if M[m] and s(m) range over every (lam, m) a
        # column reads: each build hands `_bounds` an id-row for every such row
        read, bounded = set(), []
        real_transitions, real_bounds = characters.transitions, characters._bounds

        def transitions_spy(lam, m, variant):
            read.add((lam, m))
            return real_transitions(lam, m, variant)

        def bounds_spy(rows, coeffs, labels):
            bounded.append({(labels[i], m) for m, id_rows in rows.items() for i in range(len(id_rows))})
            return real_bounds(rows, coeffs, labels)

        monkeypatch.setattr(characters, "transitions", transitions_spy)
        monkeypatch.setattr(characters, "_bounds", bounds_spy)
        for variant in ("oracle", "paper"):
            for n in range(1, 10):
                characters._table.cache_clear()
                read.clear()
                bounded.clear()
                labels = character_table(n, variant).labels
                want = {(lam, mu[-1]) for mu in labels[1:] for lam in labels if sum(lam) <= sum(mu)}
                assert read == want, (n, variant)
                assert bounded == [want], (n, variant)

    def test_each_column_and_id_row_is_built_once(self, monkeypatch):
        # a build reads transitions once per (lam, m) that a column applies and
        # builds one column per nonempty mu (the empty one is the base case);
        # repeated tables and single characters reuse the build
        calls, columns = Counter(), []
        real_transitions, real_column = characters.transitions, characters._column

        def transitions_spy(lam, m, variant):
            calls[(lam, m, variant)] += 1
            return real_transitions(lam, m, variant)

        def column_spy(rest, id_rows, packed, count):
            columns.append(count)
            return real_column(rest, id_rows, packed, count)

        monkeypatch.setattr(characters, "transitions", transitions_spy)
        monkeypatch.setattr(characters, "_column", column_spy)
        for variant in ("oracle", "paper"):
            for n in (4, 6):
                characters._table.cache_clear()
                calls.clear()
                columns.clear()
                for _ in range(2):
                    labels = character_table(n, variant).labels
                    for lam in labels:
                        for mu in labels:
                            mn_character(n, lam, mu, variant)
                want = {(lam, mu[-1]) for mu in labels[1:] for lam in labels if sum(lam) <= sum(mu)}
                assert calls == Counter({(lam, m, variant): 1 for lam, m in want}), (n, variant)
                assert len(columns) == len(labels) - 1, (n, variant)

    def test_odd_power_of_v_is_refused(self, monkeypatch):
        real = characters.transitions

        def odd(lam, m, variant):
            return tuple((nu, size, c * V) for nu, size, c in real(lam, m, variant))

        monkeypatch.setattr(characters, "transitions", odd)
        clear_character_memos()
        with pytest.raises(ValueError, match="multiple of 2"):
            character_table(3)
        with pytest.raises(ValueError, match="multiple of 2"):
            mn_character(2, (1,), (1,))

    def test_json_shape(self):
        obj = character_table(2).to_json()
        assert obj["labels"] == ["0", "1", "2", "1.1"]
        assert len(obj["entries"]) == 4 and len(obj["entries"][0]) == 4

    def test_cold_fills_identical(self):
        for variant in ("oracle", "paper"):
            fills = []
            for _ in range(2):
                clear_character_memos()
                fills.append(character_table(5, variant))
            assert fills[0].entries == fills[1].entries
            assert fills[0].to_csv().encode() == fills[1].to_csv().encode()


def class_map(table):
    labels = tuple(table.labels)
    rows = tuple(tuple(table.entries[(lam, mu)] for mu in labels) for lam in labels)
    return characters._class_map(table.n, labels, rows)


def reference_solve(n, idx, table):
    """(d, y) of `replay_reference` against the Schur expansion of the oracle trace at r = n."""
    labels = table.labels
    traces = tensorrep.char_oracle(basis_element(idx), r=n)
    matrix = [[table.entries[(lam, mu)] for mu in labels] for lam in labels]
    return replay_reference(matrix, [traces.get(lam, ZERO) for lam in labels])


def reference_class_polynomials(n, idx, table):
    """{mu: y_mu / d} by `reference_solve` and exact division; InexactDivisionError if not Laurent."""
    d, y = reference_solve(n, idx, table)
    return {mu: y_mu.exact_div(d) for mu, y_mu in zip(table.labels, y) if y_mu}


class TestClassPolynomials:
    def test_table_of_another_rank_is_refused(self):
        # a rank-2 table has no column (3): solving against it gave f on (), (1), (2)
        idx = BasisIndex((), (), (2, 3, 1))
        assert class_polynomials(3, idx).coeffs == {(3,): ONE}
        with pytest.raises(ValueError, match="rank 2 given for rank 3"):
            class_polynomials(3, idx, character_table(2))
        assert class_polynomials(3, idx, character_table(3)).coeffs == {(3,): ONE}

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

    def test_whole_basis_runs_one_elimination_per_table(self, monkeypatch):
        # all 209 rank-4 calls share the default table: its rows are read once,
        # its adjugate comes from one elimination, and the inverse Kostka matrix
        # from one Schur expansion per label; the same table passed in finds
        # the same map, and a table of the other variant adds one elimination
        eliminated, expanded, read = [], [], []
        real_adjugate, real_expand = characters.adjugate_columns, symfun.schur_expand
        real_rows = characters._rows

        def counting_adjugate(rows):
            eliminated.append(1)
            return real_adjugate(rows)

        def counting_expand(p):
            expanded.append(1)
            return real_expand(p)

        def counting_rows(labels, entries):
            read.append(1)
            return real_rows(labels, entries)

        monkeypatch.setattr(characters, "adjugate_columns", counting_adjugate)
        monkeypatch.setattr(characters, "_rows", counting_rows)
        for module in (symfun, characters, tensorrep):
            monkeypatch.setattr(module, "schur_expand", counting_expand)
        characters._class_map.cache_clear()
        characters._default_rows.cache_clear()
        basis = list(iter_standard_basis(4))
        for idx in basis:
            class_polynomials(4, idx)
        assert len(basis) == 209
        assert len(read) == 1
        assert len(eliminated) == 1
        assert 0 < len(expanded) <= len(partitions_up_to(4)) == 12
        class_polynomials(4, basis[0], character_table(4))
        assert len(eliminated) == 1
        class_polynomials(4, basis[0], character_table(4, "paper"))
        assert len(eliminated) == 2

    @pytest.mark.parametrize("variant", ["oracle", "paper"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_packed_map_matches_solve_linear(self, n, variant):
        # the two tables differ in content, so each gets its own map
        table = character_table(n, variant)
        for idx in iter_standard_basis(n):
            try:
                want = reference_class_polynomials(n, idx, table)
            except InexactDivisionError:
                with pytest.raises(ClassPolynomialDefect):
                    class_polynomials(n, idx, table)
                continue
            assert class_polynomials(n, idx, table).coeffs == want, idx

    @pytest.mark.parametrize("variant", ["oracle", "paper"])
    def test_width_and_offset_cover_every_decoded_value(self, variant):
        for n in (2, 3, 4):
            table = character_table(n, variant)
            d, bits, offset, _ = class_map(table)
            for idx in iter_standard_basis(n):
                _, y = reference_solve(n, idx, table)
                low = -(offset + algebra._word_bounds(tensorrep._rotated_letters(idx))[1])
                for y_mu in y:
                    if y_mu:
                        assert max(abs(a) for _, a in y_mu.items()) < 1 << (bits - 1), idx
                        assert y_mu.min_exp() >= low, idx

    @pytest.mark.parametrize("variant", ["oracle", "paper"])
    def test_width_and_offset_are_the_documented_bounds(self, variant):
        # B = slot_bits(max_i sum_j ||adj_ij||_1 sum_mu |S_j,mu| T) and
        # E_adj = max(0, -lowest exponent of adj), read off independent solves
        for n in (2, 3, 4):
            table = character_table(n, variant)
            labels = table.labels
            matrix = [[table.entries[(lam, mu)] for mu in labels] for lam in labels]
            size = len(labels)
            units = [[ONE if i == j else ZERO for i in range(size)] for j in range(size)]
            adj = [replay_reference(matrix, unit)[1] for unit in units]  # adj[j][i] = adj_ij
            spread = [0] * size  # sum over mu of |S_j,mu|, S_j,mu = [s_j] m_mu
            for mu in labels:
                for lam, c in symfun.schur_expand(symfun.SymPoly(n, {mu: ONE})).items():
                    spread[labels.index(lam)] += abs(int(c.specialize(1)))
            mass = max(sum(adj[j][i].l1_norm() * spread[j] for j in range(size)) for i in range(size))
            top = max(tensorrep.trace_bound(n, idx) for idx in iter_standard_basis(n))
            low = min(a.min_exp() for col in adj for a in col if a)
            _, bits, offset, _ = class_map(table)
            assert (bits, offset) == (ring.slot_bits(mass * top), max(0, -low)), n

    def test_width_follows_the_table(self):
        # B is derived from the table's adjugate, not fixed: scaling the table
        # by (q + 1) scales the adjugate by (q + 1)^11 and widens the slots
        table = character_table(4)
        scaled = CharacterTable(
            table.n, table.labels, {k: (Q + ONE) * v for k, v in table.entries.items()}
        )
        assert class_map(character_table(3))[1] < class_map(table)[1] < class_map(scaled)[1]

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
