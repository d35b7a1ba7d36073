import itertools

import pytest

from mirhecke.combinatorics import (
    BasisIndex,
    ContainmentError,
    conjugate,
    contains,
    count_ssyt,
    count_standard_basis_by_enumeration,
    identity_perm,
    iter_standard_basis,
    kostka,
    partitions_of,
    partitions_up_to,
    pcompose,
    pinverse,
    plength,
    reduced_word,
    standard_basis,
    standard_basis_count,
    strip_data,
    strip_removals,
)
from mirhecke.symfun import strip_weight, wtbar

# -- independent oracles used by the tests ----------------------------------


def partition_count_oracle(k):
    """Partition numbers by the direct recurrence p(k, max part)."""

    def p(k, m):
        if k == 0:
            return 1
        return sum(p(k - a, a) for a in range(min(k, m), 0, -1))

    return p(k, k)


def skew_boxes(lam, nu):
    nu = nu + (0,) * (len(lam) - len(nu))
    return {
        (i + 1, j)
        for i, a in enumerate(lam)
        for j in range(nu[i] + 1, a + 1)
    }


def components_oracle(boxes):
    """Connected components under edge adjacency, brute force."""
    boxes = set(boxes)
    comps = []
    while boxes:
        comp = {boxes.pop()}
        grew = True
        while grew:
            grew = False
            for b in list(boxes):
                i, j = b
                if {(i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1)} & comp:
                    comp.add(b)
                    boxes.remove(b)
                    grew = True
        comps.append(comp)
    return comps


def ssyt_oracle(lam, content):
    """Brute-force count of semistandard tableaux of shape lam, content mu."""
    entries = []
    for v, mult in enumerate(content, start=1):
        entries.extend([v] * mult)
    rows = len(lam)
    count = 0
    cells = [(i, j) for i in range(rows) for j in range(lam[i])]
    seen = set()
    for perm in set(itertools.permutations(entries)):
        if perm in seen:
            continue
        seen.add(perm)
        tab = {}
        ok = True
        for cell, v in zip(cells, perm):
            tab[cell] = v
        for (i, j) in cells:
            if j + 1 < lam[i] and tab[(i, j)] > tab[(i, j + 1)]:
                ok = False
                break
            if i + 1 < rows and j < lam[i + 1] and tab[(i, j)] >= tab[(i + 1, j)]:
                ok = False
                break
        count += ok
    return count


# -- partitions --------------------------------------------------------------


class TestPartitions:
    def test_zero(self):
        assert partitions_up_to(0) == [()]

    def test_two(self):
        assert partitions_up_to(2) == [(), (1,), (2,), (1, 1)]

    def test_five_count_against_oracle(self):
        got = partitions_up_to(5)
        want = sum(partition_count_oracle(k) for k in range(6))
        assert len(got) == want == 19

    def test_grade_order(self):
        ps = partitions_up_to(4)
        sizes = [sum(p) for p in ps]
        assert sizes == sorted(sizes)
        for k in range(5):
            grade = [p for p in ps if sum(p) == k]
            assert grade == sorted(grade, reverse=True)

    def test_all_valid_and_distinct(self):
        ps = partitions_of(6)
        assert len(set(ps)) == len(ps) == partition_count_oracle(6)
        for p in ps:
            assert sum(p) == 6 and list(p) == sorted(p, reverse=True)


# -- strips -------------------------------------------------------------------


class TestStripData:
    def test_single_row(self):
        d = strip_data((2,), ())
        assert d.is_strip and d.size == 2 and d.cc == 1
        assert d.components == ((1, 2),)

    def test_two_by_two_block(self):
        d = strip_data((2, 2), ())
        assert not d.is_strip
        assert d.size == 4

    def test_disconnected(self):
        d = strip_data((2, 1, 1), (1,))
        assert d.is_strip and d.size == 3 and d.cc == 2
        # box (1,2) is isolated; boxes (2,1),(3,1) form a column pair
        assert d.components == ((1, 1), (2, 1))
        comps = components_oracle(skew_boxes((2, 1, 1), (1,)))
        assert len(comps) == 2
        data = sorted(
            (len({i for i, _ in c}), len({j for _, j in c})) for c in comps
        )
        assert data == sorted(d.components)

    def test_empty_strip(self):
        d = strip_data((2, 1), (2, 1))
        assert d.is_strip and d.size == 0 and d.cc == 0 and d.components == ()

    def test_containment_error(self):
        with pytest.raises(ContainmentError):
            strip_data((2,), (3,))
        with pytest.raises(ContainmentError):
            strip_data((2, 1), (1, 1, 1))

    def test_matches_oracle_everywhere(self):
        for lam in partitions_up_to(6):
            for nu in partitions_up_to(6):
                if len(nu) > len(lam) or any(
                    nu[i] > lam[i] for i in range(len(nu))
                ):
                    continue
                d = strip_data(lam, nu)
                boxes = skew_boxes(lam, nu)
                assert d.size == len(boxes)
                has_block = any(
                    {(i, j + 1), (i + 1, j), (i + 1, j + 1)} <= boxes
                    for (i, j) in boxes
                )
                assert d.is_strip == (not has_block)
                comps = components_oracle(boxes)
                assert d.cc == len(comps)
                if d.is_strip and d.size:
                    assert d.size == sum(ro + co - 1 for ro, co in d.components)

    def test_transpose_symmetry(self):
        for lam in partitions_up_to(6):
            for nu in partitions_up_to(6):
                try:
                    d = strip_data(lam, nu)
                except ContainmentError:
                    continue
                t = strip_data(conjugate(lam), conjugate(nu))
                assert d.is_strip == t.is_strip
                assert sorted(d.components) == sorted((c, r) for r, c in t.components)


class TestStripRemovals:
    def test_row_rule_matches_box_rule(self):
        # every lam with |lam| <= 8, every nu inside lam, every m <= |lam|
        for lam in partitions_up_to(8):
            k = sum(lam)
            inside = {nu: strip_data(lam, nu) for nu in partitions_up_to(k) if contains(lam, nu)}
            for m in range(k + 1):
                got = list(strip_removals(lam, m))
                yielded = [nu for nu, _, _ in got]
                assert len(set(yielded)) == len(yielded), (lam, m)
                want = {nu for nu, d in inside.items() if d.is_strip and d.size <= m}
                assert set(yielded) == want, (lam, m)
                for nu, size, comps in got:
                    d = inside[nu]
                    assert (size, comps) == (d.size, d.components), (lam, nu)
                    assert strip_weight(size, comps) == wtbar(lam, nu), (lam, nu)

    def test_empty_partition(self):
        assert list(strip_removals((), 3)) == [((), 0, ())]

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            list(strip_removals((2, 1), -1))


# -- Kostka -------------------------------------------------------------------


class TestKostka:
    def test_diagonal(self):
        for lam in partitions_up_to(5):
            assert kostka(lam, lam) == 1

    def test_hook_content(self):
        assert kostka((2, 1), (1, 1, 1)) == 2
        assert kostka((2, 1), (1, 1, 1)) == ssyt_oracle((2, 1), (1, 1, 1))

    def test_single_row(self):
        for mu in partitions_of(4):
            assert kostka((4,), mu) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            kostka((2,), (1,))

    def test_against_bruteforce(self):
        for size in range(1, 5):
            for lam in partitions_of(size):
                for mu in partitions_of(size):
                    assert kostka(lam, mu) == ssyt_oracle(lam, mu), (lam, mu)

    def test_ssyt_count_identity(self):
        for size in range(1, 5):
            for lam in partitions_of(size):
                for r in range(1, 5):
                    direct = sum(
                        ssyt_oracle(lam, tuple(content))
                        for content in itertools.product(range(size + 1), repeat=r)
                        if sum(content) == size
                    )
                    assert count_ssyt(lam, r) == direct


# -- permutations -------------------------------------------------------------


class TestPermutations:
    def test_compose_inverse(self):
        for w in itertools.permutations((1, 2, 3, 4)):
            assert pcompose(w, pinverse(w)) == identity_perm(4)
            assert pcompose(pinverse(w), w) == identity_perm(4)

    def test_reduced_word_reconstructs(self):
        for n in (2, 3, 4):
            for w in itertools.permutations(range(1, n + 1)):
                word = reduced_word(w)
                assert len(word) == plength(w)
                acc = identity_perm(n)
                for i in word:
                    s = list(identity_perm(n))
                    s[i - 1], s[i] = s[i], s[i - 1]
                    acc = pcompose(acc, tuple(s))
                assert acc == w


# -- the standard basis index set ---------------------------------------------


class TestStandardBasis:
    def test_rank_one(self):
        assert standard_basis(1) == [
            BasisIndex((), (), (1,)),
            BasisIndex((1,), (1,), (1,)),
        ]

    def test_rank_two_explicit(self):
        got = standard_basis(2)
        want = [
            BasisIndex((), (), (1, 2)),
            BasisIndex((), (), (2, 1)),
            BasisIndex((1,), (1,), (1, 2)),
            BasisIndex((1,), (2,), (1, 2)),
            BasisIndex((2,), (1,), (1, 2)),
            BasisIndex((2,), (2,), (1, 2)),
            BasisIndex((1, 2), (1, 2), (1, 2)),
        ]
        assert got == want

    @pytest.mark.parametrize(
        "n,count", [(1, 2), (2, 7), (3, 34), (4, 209), (5, 1546)]
    )
    def test_counts(self, n, count):
        assert standard_basis_count(n) == count
        assert len(standard_basis(n)) == count

    def test_enumeration_matches_closed_form_to_8(self):
        for n in range(1, 9):
            assert count_standard_basis_by_enumeration(n) == standard_basis_count(n)

    def test_canonical_order(self):
        basis = standard_basis(3)
        keys = [(idx.k, idx.A, idx.B, idx.w) for idx in basis]
        assert keys == sorted(keys)

    def test_validation(self):
        with pytest.raises(ValueError):
            BasisIndex((1,), (), (1, 2))
        with pytest.raises(ValueError):
            BasisIndex((1,), (1,), (2, 1))  # w must fix 1
        with pytest.raises(ValueError):
            BasisIndex((3,), (1,), (1, 2))  # out of range
        with pytest.raises(ValueError):
            BasisIndex((), (), (1, 1))

    def test_json_roundtrip(self):
        idx = BasisIndex((1, 3), (2, 3), (1, 2, 3))
        assert BasisIndex.from_json(idx.to_json()) == idx

    def test_cached_hash_matches_fields(self):
        basis = standard_basis(4)
        for idx in basis:
            twin = BasisIndex(tuple(idx.A), tuple(idx.B), tuple(idx.w))
            assert twin == idx and twin is not idx
            assert hash(twin) == hash(idx) == hash((idx.A, idx.B, idx.w))
        assert len(set(basis)) == len(basis) == 209

    def test_cached_hash_keeps_field_order(self):
        basis = standard_basis(4)
        assert sorted(basis) == sorted(basis, key=lambda x: (x.A, x.B, x.w))
        assert sorted(reversed(basis)) == sorted(basis)

    def test_cached_hash_is_not_shown(self):
        idx = BasisIndex((1, 3), (2, 3), (1, 2, 3))
        assert repr(idx) == "BasisIndex(A=(1, 3), B=(2, 3), w=(1, 2, 3))"
        assert idx.to_json() == {"A": [1, 3], "B": [2, 3], "w": [1, 2, 3]}
