import itertools

import pytest

from permutation_reference import pcompose, plength
from mirhecke.combinatorics import (
    BasisIndex,
    _n_rearrangements,
    identity_perm,
    kostka,
    partitions_of,
    partitions_up_to,
    pinverse,
    reduced_word,
    standard_basis,
    standard_basis_count,
    strip_removals,
)

# -- independent oracles used by the tests ----------------------------------


def partition_count_oracle(k):
    """Partition numbers by the direct recurrence p(k, max part)."""

    def p(k, m):
        if k == 0:
            return 1
        return sum(p(k - a, a) for a in range(min(k, m), 0, -1))

    return p(k, k)


def conjugate(lam):
    if not lam:
        return ()
    out = [0] * lam[0]
    for a in lam:
        for j in range(a):
            out[j] += 1
    return tuple(out)


def inside(lam, nu):
    """Whether the diagram of nu lies inside the diagram of lam."""
    return len(nu) <= len(lam) and all(a <= b for a, b in zip(nu, lam))


def skew_boxes(lam, nu):
    nu = nu + (0,) * (len(lam) - len(nu))
    return {
        (i + 1, j)
        for i, a in enumerate(lam)
        for j in range(nu[i] + 1, a + 1)
    }


def has_block(boxes):
    """Whether the boxes contain a 2x2 block."""
    return any({(i, j + 1), (i + 1, j), (i + 1, j + 1)} <= boxes for (i, j) in boxes)


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


def component_shapes(boxes):
    """(rows occupied, columns occupied) of each component, top to bottom."""
    comps = sorted(components_oracle(boxes), key=lambda c: min(i for i, _ in c))
    return tuple((len({i for i, _ in c}), len({j for _, j in c})) for c in comps)


def removals(lam, m=None):
    """{nu: (size, components)} as `strip_removals` yields them (every size by default)."""
    got = list(strip_removals(lam, sum(lam) if m is None else m))
    out = {nu: (size, comps) for nu, size, comps in got}
    assert len(out) == len(got), (lam, m)
    return out


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
    """Worked examples: the size and components `strip_removals` yields for one shape."""

    def test_single_row(self):
        assert removals((2,))[()] == (2, ((1, 2),))

    def test_two_by_two_block(self):
        # (2, 2)/() is the 2x2 block itself, so no strip; every other (2, 2)/nu is a strip
        assert set(removals((2, 2))) == {(2, 2), (2, 1), (2,), (1, 1), (1,)}

    def test_disconnected(self):
        # box (1,2) is isolated; boxes (2,1),(3,1) form a column pair
        assert removals((2, 1, 1))[(1,)] == (3, ((1, 1), (2, 1)))
        assert component_shapes(skew_boxes((2, 1, 1), (1,))) == ((1, 1), (2, 1))

    def test_empty_strip(self):
        assert removals((2, 1), 0) == {(2, 1): (0, ())}

    def test_transpose_symmetry(self):
        for lam in partitions_up_to(6):
            strips, transposed = removals(lam), removals(conjugate(lam))
            assert {conjugate(nu) for nu in strips} == set(transposed), lam
            for nu, (size, comps) in strips.items():
                t_size, t_comps = transposed[conjugate(nu)]
                assert size == t_size
                assert sorted(comps) == sorted((c, r) for r, c in t_comps), (lam, nu)


class TestStripRemovals:
    def test_row_rule_matches_box_rule(self):
        # every lam with |lam| <= 8, every nu inside lam, every m <= |lam|
        for lam in partitions_up_to(8):
            k = sum(lam)
            boxes = {nu: skew_boxes(lam, nu) for nu in partitions_up_to(k) if inside(lam, nu)}
            for m in range(k + 1):
                got = removals(lam, m)
                want = {nu for nu, b in boxes.items() if len(b) <= m and not has_block(b)}
                assert set(got) == want, (lam, m)
                for nu, (size, comps) in got.items():
                    assert not has_block(boxes[nu]), (lam, nu)
                    assert size == len(boxes[nu]), (lam, nu)
                    assert comps == component_shapes(boxes[nu]), (lam, nu)
                    # one-row components, as `kostka` reads them, are horizontal strips
                    columns = [j for _, j in boxes[nu]]
                    horizontal = len(set(columns)) == len(columns)
                    assert all(rows == 1 for rows, _ in comps) == horizontal, (lam, nu)

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
        # size 6 is the first with a strip of size mu[-1] that is not horizontal
        # and a nonzero count below it: (3, 3) / (2, 2) with mu = (2, 2, 2)
        for size in range(1, 7):
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
                    via_kostka = sum(
                        kostka(lam, mu) * _n_rearrangements(mu, r) for mu in partitions_of(size)
                    )
                    assert via_kostka == direct


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
