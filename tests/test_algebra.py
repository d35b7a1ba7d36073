import functools
import hashlib
import itertools
import json
import random

import pytest

from permutation_reference import apply_left_s, p_relabel, pcompose, plength
from mirhecke.algebra import (
    AlgebraElement,
    GeneratorWord,
    all_basis_elements,
    basis_element,
    basis_word,
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
from mirhecke import algebra, checks
from mirhecke.combinatorics import (
    BasisIndex,
    Permutation,
    apply_right_s,
    iter_standard_basis,
    partitions_up_to,
    pinverse,
    reduced_word,
    standard_basis,
)
from mirhecke.ring import (
    LaurentScalar,
    MINUS_ONE,
    ONE,
    Q,
    QINV,
    Q_MINUS_1,
    accumulate,
    apply_rows,
    pack,
    slot_bits,
)


def idx(A, B, w):
    return BasisIndex(tuple(A), tuple(B), tuple(w))


# -- reference loops the packed engine is compared against -------------------
# These run on LaurentScalar coefficients: each table constant, stored as
# (exponent, coeff) pairs, is read back as a scalar and multiplied in.  They
# share no rule with the engine: an element is expanded into the working
# basis T_A P_k T_d (d minimal in S_k \ S_n), multiplied there by plain
# Hecke products, and brought back by greedy elimination.

# -q^-1 (q-1): the constant term of T^-1 = q^-1 T - q^-1 (q-1)
MINUS_QINV_QM1 = -(QINV * Q_MINUS_1)


def scalar(const):
    return LaurentScalar(dict(const))


def const(s):
    return tuple(s.items())


@functools.cache
def absorb(k, u):
    """Split u = u1 * d with u1 in S_k and d minimal in the coset S_k u.

    Returns ((-1)^length(u1), d); multiplying P_k by the S_k-part contributes
    exactly that sign.
    """
    if k <= 1:
        return 1, u
    seq = pinverse(u)[:k]
    sign = 1
    for a in range(k):
        for b in range(a + 1, k):
            if seq[a] > seq[b]:
                sign = -sign
    order = sorted(range(k), key=lambda t: seq[t])
    relabel = [0] * (k + 1)
    for t, jm1 in enumerate(order):
        relabel[jm1 + 1] = t + 1
    return sign, tuple(relabel[a] if a <= k else a for a in u)


def cycle_perm(n, m, i):
    """Permutation of the word T_{m-1} T_{m-2} ... T_i: i -> m, t -> t-1 on (i, m]."""
    out = list(range(1, n + 1))
    if m > i:
        out[i - 1] = m
        for t in range(i + 1, m + 1):
            out[t - 1] = t - 1
    return tuple(out)


def hecke_rmul_letter(terms, i, inv):
    """{u: coeff} over S_n times T_i^{+-1} in the plain Hecke algebra."""
    out = {}
    for u, c in terms.items():
        u2 = apply_right_s(u, i)
        ascent = u[i - 1] < u[i]
        if not inv:
            if ascent:
                accumulate(out, u2, c)
            else:
                accumulate(out, u, c * Q_MINUS_1)
                accumulate(out, u2, c * Q)
        else:
            if not ascent:
                accumulate(out, u2, c)
            else:
                accumulate(out, u2, c * QINV)
                accumulate(out, u, c * MINUS_QINV_QM1)
    return out


def hecke_rmul_perm(terms, d):
    for i in reduced_word(d):
        terms = hecke_rmul_letter(terms, i, inv=False)
    return terms


@functools.cache
def reference_tail_expansion(B, w: Permutation):
    """P_k (T_w T_B^{-1}) as {d: coeff} over minimal coset representatives."""
    k = len(B)
    terms = {w: ONE}
    for j in range(k, 0, -1):
        for t in range(j, B[j - 1]):
            terms = hecke_rmul_letter(terms, t, inv=True)
    out = {}
    for u, c in terms.items():
        sign, d = absorb(k, u)
        accumulate(out, d, -c if sign < 0 else c)
    return out


def reference_p1_closed_form(k, d):
    """P_k T_k ... T_1 P_1 T_z for 1 <= k < m = d(1), as (((A', d'), const), ...).

    P_k T_k ... T_1 P_1 = sum_{j=1}^{k-1} (-q)^{j-1}(q-1) P_k T_k...T_{j+1}
    + (-q)^{k-1}(q-1) P_k + (-1)^k q^k P_{k+1}, from repeatedly rewriting
    P_j T_j P_j = (q-1)P_j - q P_{j+1}; each term a plain Hecke product
    reduced modulo S_k, with T_z multiplied in on the right for
    z = (T_{m-1} ... T_1)^-1 d.
    """
    n = len(d)
    z = pcompose(pinverse(cycle_perm(n, d[0], 1)), d)
    out = {}
    Ak = tuple(range(1, k + 1))
    coeff = Q_MINUS_1
    for j in range(1, k):
        hecke = hecke_rmul_perm({cycle_perm(n, k + 1, j + 1): ONE}, z)
        for u, su in hecke.items():
            sign, dd = absorb(k, u)
            val = coeff * su
            accumulate(out, (Ak, dd), -val if sign < 0 else val)
        coeff = coeff * -Q
    sign, dd = absorb(k, z)
    accumulate(out, (Ak, dd), -coeff if sign < 0 else coeff)
    coeffp = (-Q) ** k
    sign, dd = absorb(k + 1, z)
    accumulate(out, (Ak + (k + 1,), dd), -coeffp if sign < 0 else coeffp)
    return tuple((key, const(s)) for key, s in out.items())


def reference_rmul_T_key(k, d, i, inv):
    """(P_k T_d) * T_i^{+-1} as ((d', const), ...) in the working basis: the
    Hecke product term by term, each permutation reduced modulo S_k with the
    sign of its discarded S_k-part folded into its coefficient."""
    out = {}
    for u, s in hecke_rmul_letter({d: ONE}, i, inv).items():
        sign, dd = (1, d) if u == d else absorb(k, u)
        accumulate(out, dd, -s if sign < 0 else s)
    return tuple((dd, tuple(s.items())) for dd, s in out.items())


@functools.cache
def reference_lmul_T_key(i, A, d):
    """T_i * (T_A P_k T_d) in the working basis, as a general Hecke product.

    T_i T_A is T_{s_i c_A} or (q-1) T_A + q T_{s_i c_A}, for c_A the
    permutation of T_A; each permutation x is split as T_{A'} times T_t with
    A' the sorted head of x (sorting the head costs one sign per inversion),
    and T_t T_d is expanded and reduced modulo S_k.
    """
    n = len(d)
    k = len(A)
    cA = algebra._subset_perm(n, A)
    cAinv = pinverse(cA)
    ascent = cAinv[i - 1] < cAinv[i]
    x2 = apply_left_s(cA, i)
    branches = ((x2, ONE),) if ascent else ((cA, Q_MINUS_1), (x2, Q))
    out = {}
    for x, s in branches:
        if x == cA:
            accumulate(out, (A, d), s)
            continue
        head = x[:k]
        sign = 1
        for a in range(k):
            for b in range(a + 1, k):
                if head[a] > head[b]:
                    sign = -sign
        A2 = tuple(sorted(head))
        e = A2 + x[k:]
        wt = pcompose(pinverse(algebra._subset_perm(n, A2)), e)
        hecke = hecke_rmul_perm({wt: ONE}, d)
        for u, su in hecke.items():
            sg2, dd = absorb(k, u)
            val = s * su
            accumulate(out, (A2, dd), -val if sign * sg2 < 0 else val)
    return out


def reference_lmul_T(elem, i):
    out = {}
    for (A, d), c in elem.items():
        for key, s in reference_lmul_T_key(i, A, d).items():
            accumulate(out, key, c * s)
    return out


@functools.cache
def reference_rmul_P1_key(A, d):
    """(T_A P_k T_d) * P_1 from scratch: for m = d(1) > k, the whole word
    T_A T_{m-1} ... T_{k+1} replayed on the closed form through
    `reference_lmul_T`."""
    n = len(d)
    k = len(A)
    m = d[0]
    z = pcompose(pinverse(cycle_perm(n, m, 1)), d)
    if k >= 1 and m <= k:
        sign, dd = absorb(k, z)
        if (m - 1) % 2:
            sign = -sign
        return {(A, dd): ONE if sign > 0 else MINUS_ONE}
    if k == 0:
        return {((m,), z): ONE}
    out = {key: scalar(c) for key, c in reference_p1_closed_form(k, d)}
    for i in reversed(algebra._subset_word(A) + tuple(range(m - 1, k, -1))):
        out = reference_lmul_T(out, i)
    return out


def reference_working(x):
    """x in the working basis, read straight from `reference_tail_expansion`."""
    xw = {}
    for index, c in x.terms.items():
        for d, s in reference_tail_expansion(index.B, index.w).items():
            accumulate(xw, (index.A, d), c * s)
    return xw


def reference_rmul_letter(elem, letter):
    """A working element times one generator letter, term by term."""
    out = {}
    if letter[0] == "T":
        _, i, e = letter
        for (A, d), c in elem.items():
            for d2, s in reference_rmul_T_key(len(A), d, i, e == -1):
                accumulate(out, (A, d2), c * scalar(s))
        return out
    if letter[1] == 1:
        for (A, d), c in elem.items():
            for key, s in reference_rmul_P1_key(A, d).items():
                accumulate(out, key, c * s)
        return out
    # the expansion P_j = -P_{j-1} T_{j-1}^-1 P_{j-1}, letter by letter
    j = letter[1]
    for lt in (("P", j - 1), ("T", j - 1, -1), ("P", j - 1)):
        elem = reference_rmul_letter(elem, lt)
    return {key: -c for key, c in elem.items()}


def greedy_to_standard(welem):
    """Working to standard basis, always eliminating the greatest remaining key
    by (length(d), d, A) and reading each step straight from `reference_tail_expansion`."""
    out = {}
    work = dict(welem)
    while work:
        A, d = max(work, key=lambda kd: (plength(kd[1]), kd[1], kd[0]))
        k, n = len(A), len(d)
        B = pinverse(d)[:k]
        w = pcompose(d, algebra._subset_perm(n, B))
        tail = reference_tail_expansion(B, w)
        coeff = work[(A, d)] * tail[d].inverse_unit()
        accumulate(out, BasisIndex(A, B, w), coeff)
        for d2, s in tail.items():
            accumulate(work, (A, d2), -(coeff * s))
    return out


def reference_rmul_basis(index, letter):
    """One basis element times one letter through the working basis: {BasisIndex: scalar}."""
    return greedy_to_standard(reference_rmul_letter(reference_working(basis_element(index)), letter))


def hecke_lmul_letter(terms, i):
    """T_i times {u: coeff} in the plain Hecke algebra, through the anti-automorphism T_u -> T_{u^-1}."""
    flipped = hecke_rmul_letter({pinverse(u): c for u, c in terms.items()}, i, inv=False)
    return {pinverse(u): c for u, c in flipped.items()}


def term_by_term_mul(x, y):
    """x * y with every term of y applied to x letter by letter, no sharing."""
    xw = reference_working(x)
    total = {}
    for index, c in y.terms.items():
        cur = xw
        for lt in basis_word(index):
            cur = reference_rmul_letter(cur, lt)
        for key, s in cur.items():
            accumulate(total, key, c * s)
    return AlgebraElement(x.n, greedy_to_standard(total))


def even_exponent_ok(x):
    """Whether every coefficient of x lies in the Z[q, q^-1] subring."""
    return all(c.is_even() for c in x.terms.values())


def q_exp(e):
    """A v-exponent of a reference term as the power of q that the engine tables store."""
    assert e % 2 == 0, f"odd v-exponent {e} in a reference term"
    return e // 2


def needed_bits(x):
    """The narrowest slot in which every coefficient of x decodes.

    Balanced digits of width B hold -2^(B-1) <= a < 2^(B-1).
    """
    digits = (a for c in x.terms.values() for _, a in c.items())
    return max((2, *((a if a > 0 else ~a).bit_length() + 1 for a in digits)))


def golden_triples():
    els = all_basis_elements(4)
    rng = random.Random(8)
    return [tuple(rng.choice(els) for _ in range(3)) for _ in range(60)]


def random_scalar(rng):
    return LaurentScalar({2 * rng.randrange(-3, 4): rng.randrange(-4, 5) for _ in range(3)})


def odd_scalar(rng):
    return LaurentScalar({rng.randrange(-5, 6): rng.randrange(-4, 5) for _ in range(3)})


def high_scalar(rng):
    """A nonzero scalar whose lowest exponent is positive."""
    low = 2 * rng.randrange(1, 4)
    return LaurentScalar({low + 2 * j: rng.choice((-2, -1, 1, 2)) for j in range(2)})


def random_combination(rng, els, terms, draw=random_scalar):
    out = AlgebraElement(els[0].n, {})
    for _ in range(terms):
        out = out + rng.choice(els).scale(draw(rng))
    return out


def odd_pairs():
    """30 seeded rank-3 pairs (x, y) with odd v-exponents in their coefficients."""
    els = all_basis_elements(3)
    rng = random.Random(13)
    return [
        (random_combination(rng, els, 2, odd_scalar), random_combination(rng, els, 3, odd_scalar))
        for _ in range(30)
    ]


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

    def test_clear_caches_empties_every_memo(self):
        # every memo of the module, found by name: one that `clear_caches`
        # leaves out fails here
        memos = [
            fn
            for fn in vars(algebra).values()
            if hasattr(fn, "cache_clear") and fn.__module__ == algebra.__name__
        ]
        assert algebra._layout in memos and algebra._basis_data in memos
        x = reduce_word(GeneratorWord(3, [("T", 2, 1), ("T", 1, 1), ("T", 2, -1)]))
        y = gen_P(3, 2)
        want = mul(x, y)
        assert mul(x, y) == want and algebra._basis_data.cache_info().hits > 0
        assert all(fn.cache_info().currsize > 0 for fn in memos)
        lay = algebra._layout(3)
        algebra.clear_caches()
        assert [fn.cache_info().currsize for fn in memos] == [0] * len(memos)
        assert algebra._layout(3) is not lay
        assert mul(x, y) == want

    def test_golden_products(self):
        # sha256 of the normal forms of 60 seeded rank-4 triples, both
        # bracketings, as computed by greedy elimination and term-by-term
        # products: the faster loops must give the same bytes
        digest = hashlib.sha256()
        for a, b, c in golden_triples():
            for prod in (mul(mul(a, b), c), mul(a, mul(b, c))):
                digest.update(json.dumps(prod.to_json(), sort_keys=True).encode())
        assert digest.hexdigest() == (
            "e31cd04973284c749f54351e2a27f91e33ae89318e6cc4fc8a13b3126ae0f4a2"
        )

    def test_prefix_shared_mul_matches_term_by_term(self):
        els = all_basis_elements(4)
        rng = random.Random(5)
        multi = 0
        for _ in range(30):
            x = random_combination(rng, els, 2)
            y = random_combination(rng, els, rng.randrange(2, 7))
            multi += len(y.terms) > 1
            assert mul(x, y) == term_by_term_mul(x, y)
        assert multi >= 25


class TestPackedEngine:
    """The int engine against the LaurentScalar reference loops, and its slot width."""

    def test_odd_exponents_match_the_reference(self):
        # odd inputs are packed in v-slots
        odd = 0
        for x, y in odd_pairs():
            got = mul(x, y)
            odd += not even_exponent_ok(got)
            assert got == term_by_term_mul(x, y)
        assert odd >= 10

    def test_slot_unit_follows_the_inputs(self, monkeypatch):
        # q-slots (step 2) on every golden product, v-slots (step 1) on odd inputs
        steps = set()

        def recording(x, bits, offset, step=1):
            steps.add(step)
            return pack(x, bits, offset, step)

        def steps_of(x, y):
            steps.clear()
            mul(x, y)
            return set(steps)

        monkeypatch.setattr(algebra, "pack", recording)
        for a, b, c in golden_triples():
            for x, y in ((a, b), (b, c), (mul(a, b), c), (a, mul(b, c))):
                assert steps_of(x, y) == {2}
        for x, y in odd_pairs():
            assert steps_of(x, y) == {1}

    def test_positive_lowest_exponents_on_lowering_words(self):
        # q^a c_y with a > 0 on words with T^-1 or P_j letters: the offset must
        # cover the stack before it is scaled by c_y, not only the scaled value
        els = all_basis_elements(4)
        def lowers(lt):
            return lt[0] == "T" and lt[2] == -1 or lt[0] == "P" and lt[1] > 1

        lowering = [e for e in els if any(map(lowers, basis_word(e.support()[0])))]
        rng = random.Random(17)
        for _ in range(25):
            x = random_combination(rng, els, 2)
            y = random_combination(rng, lowering, rng.randrange(1, 4), high_scalar)
            assert mul(x, y) == term_by_term_mul(x, y)

    def test_derived_width_covers_every_golden_product(self, monkeypatch):
        # the width is slot_bits of ||x||_1 * sum_y ||c_y||_1 3^(#T(word_y)),
        # a P_j letter counting as no T letter, and it covers the widest true
        # coefficient; on these 240 products it is 9 bits in the median and
        # 18 at most, and the need is 4 bits at most
        def t_letters(index):
            return sum(lt[0] == "T" for lt in basis_word(index))

        bounds = []

        def recording(bound):
            bounds.append(bound)
            return slot_bits(bound)

        def checked(x, y):
            bounds.clear()
            prod = mul(x, y)
            (bound,) = bounds
            mass_x = sum(c.l1_norm() for c in x.terms.values())
            assert bound == mass_x * sum(c.l1_norm() * 3 ** t_letters(i) for i, c in y.terms.items())
            assert slot_bits(bound) >= needed_bits(prod)
            return prod

        monkeypatch.setattr(algebra, "slot_bits", recording)
        for a, b, c in golden_triples():
            checked(checked(a, b), c)
            checked(a, checked(b, c))

    def test_one_bit_below_the_widest_coefficient_breaks_a_product(self, monkeypatch):
        # the a priori bound is loose (7 bits over the need in the median of
        # the golden products), so the cut is made one bit below the width
        # that the widest true coefficient needs; basis inputs keep every
        # packed input coefficient at 1
        pairs = [pair for a, b, c in golden_triples() for pair in ((a, b), (b, c))]
        want = [mul(x, y) for x, y in pairs]
        top = max(map(needed_bits, want))
        assert top >= 3
        monkeypatch.setattr(algebra, "slot_bits", lambda bound: top - 1)
        wrong = 0
        for (x, y), prod in zip(pairs, want):
            wrong += mul(x, y) != prod
        assert wrong

    def test_products_skip_the_constructor(self, monkeypatch):
        # the engine yields distinct basis elements of the rank with nonzero
        # coefficients, so its result is not copied or checked again; the
        # public constructor keeps both
        x, y = hat_T(4, (2, 1)), gen_P(4, 2) + gen_T(4, 3)
        want = mul(x, y)
        calls = []
        true_init = AlgebraElement.__init__

        def counting(self, *args):
            calls.append(args)
            true_init(self, *args)

        monkeypatch.setattr(AlgebraElement, "__init__", counting)
        got = mul(x, y)
        assert got == want and not calls
        assert all(c and index.n == 4 for index, c in got.terms.items())
        with pytest.raises(ValueError, match="wrong rank"):
            AlgebraElement(3, got.terms)

    def test_no_scalar_products_once_the_tables_are_built(self, monkeypatch):
        els = all_basis_elements(3)
        rng = random.Random(19)
        pairs = [tuple(random_combination(rng, els, 3) for _ in "xy") for _ in range(20)]
        want = [mul(x, y) for x, y in pairs]
        calls = []
        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__neg__", "__pow__"):
            def counting(*args, _name=name, _true=getattr(LaurentScalar, name)):
                calls.append(_name)
                return _true(*args)

            monkeypatch.setattr(LaurentScalar, name, counting)
        assert Q_MINUS_1 * Q == Q * Q - Q and calls  # the counters see scalar arithmetic
        # every table is a product of the T rows in ids and powers of q
        algebra.clear_caches()
        calls.clear()
        for n in range(1, 6):
            algebra._layout(n)
        assert calls == []
        assert [mul(x, y) for x, y in pairs] == want
        assert not {"__mul__", "__rmul__"} & set(calls)
        algebra.clear_caches()


def golden_json(triples):
    """The per-product JSON of the golden triples, both bracketings, in the given order."""
    return [
        json.dumps(prod.to_json(), sort_keys=True)
        for a, b, c in triples
        for prod in (mul(mul(a, b), c), mul(a, mul(b, c)))
    ]


def relabel_ids(lay):
    """relabel(j, kid): (sign, id) of b P_j for the basis element b of id kid, by `p_relabel` (memoized)."""

    @functools.cache
    def relabel(j, kid):
        index = lay.basis[kid]
        sign, *target = p_relabel(index.A, index.B, index.w, j)
        return sign, lay.kids[BasisIndex(*target)]

    return relabel


def assert_relabel_induction(lay, relabel, kid):
    """The engine's steps of each P_j, X_1 ... X_j, take kid to the relabel
    of P_j, and each relabel of P_j (j >= 2) at kid is the product by
    -P_{j-1} T_{j-1}^-1 P_{j-1}."""
    n = lay.n
    steps = lay.steps[3 * n - 3]  # the letter P_n: X_1 ... X_n
    elem = {kid: 1}
    for j, (_, rows, sel) in enumerate(steps, 1):
        assert lay.steps[2 * n - 3 + j] == steps[:j]
        # at unit 1 a power of q is a shift, so only a row (delta, 0, +-1) gives +-1
        elem = apply_rows(elem, rows, sel, 1)
        sign, target = relabel(j, kid)
        assert elem == {target: sign}, (lay.basis[kid], j)
    for j in range(2, n + 1):
        s1, k1 = relabel(j - 1, kid)
        got = {}
        for delta, e, a in lay.t_rows[2 * j - 3][lay.kid_shape[k1]]:
            s2, k2 = relabel(j - 1, k1 + delta)
            got[k2, e] = got.get((k2, e), 0) - s1 * a * s2
        sign, target = relabel(j, kid)
        assert {key: v for key, v in got.items() if v} == {(target, 0): sign}, (lay.basis[kid], j)


class TestKeyIds:
    """The id layout: complete tables, outputs free of id order, rows built once, each rule twice."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
    def test_every_table_is_complete(self, n):
        algebra.clear_caches()
        lay = algebra._layout(n)
        shapes = max(lay.kid_shape) + 1
        tables = (lay.kid_shape, lay.x_rows[0], lay.basis, *lay.t_rows)
        assert len(lay.t_rows) == 2 * (n - 1) and len(lay.x_rows) == n
        assert all(None not in table for table in tables)
        assert len(lay.x_rows[0]) == len(lay.basis) == len(lay.kid_shape)
        assert all(len(rows) == shapes for rows in lay.t_rows)
        # X_x (x >= 2) holds a row exactly on the ids with {1..x-1} in B
        for x, rows in enumerate(lay.x_rows[1:], 2):
            reach = {kid for kid, index in enumerate(lay.basis) if set(range(1, x)) <= set(index.B)}
            assert set(rows) == reach and None not in rows.values()
        # the layout makes its indices without the constructor's checks: they
        # are the validated standard basis in its order, and `kids` maps it
        # one-to-one onto the ids
        basis = standard_basis(n)
        assert lay.basis == basis
        assert all(type(got) is BasisIndex and hash(got) == hash(want) for got, want in zip(lay.basis, basis))
        assert lay.kids == {index: kid for kid, index in enumerate(basis)}
        # shape ids in the order in which the shapes first occur
        shape_id = {}
        for index in basis:
            shape_id.setdefault((index.B, index.w), len(shape_id))
        assert lay.kid_shape == [shape_id[index.B, index.w] for index in basis]
        algebra.clear_caches()

    def test_outputs_do_not_depend_on_id_order(self):
        triples = golden_triples()
        algebra.clear_caches()
        forward = golden_json(triples)
        algebra.clear_caches()
        # the triples backwards, with rank-3 products in between
        lay = algebra._layout(4)
        rng = random.Random(23)
        els3 = all_basis_elements(3)
        backward = []
        for triple in reversed(triples):
            mul(rng.choice(els3), rng.choice(els3))
            backward.extend(reversed(golden_json([triple])))
        assert algebra._layout(4) is lay
        assert backward[::-1] == forward

    def test_rows_are_built_once(self, monkeypatch):
        algebra.clear_caches()
        # T moves per (B, w, i) and beta^-1 per subset B; the X rows of every
        # x from a part per shape (B, w) with |B| < n and a part per (A, r),
        # so no relabel runs per id or per x
        names = ("_t_move", "_subset_perm", "_relabel_shape", "_relabel_subset")
        calls = {name: {} for name in names}
        for name, seen in calls.items():
            def counting(*args, _true=getattr(algebra, name), _seen=seen):
                _seen[args] = _seen.get(args, 0) + 1
                return _true(*args)

            monkeypatch.setattr(algebra, name, counting)
        golden_json(golden_triples())
        assert {name: max(seen.values()) for name, seen in calls.items()} == dict.fromkeys(calls, 1)
        n = 4
        lay = algebra._layout(n)
        shapes = {(index.B, index.w) for index in lay.basis}
        subsets = {index.A for index in lay.basis}
        assert {args[:3] for args in calls["_t_move"]} == {
            (B, w, i) for B, w in shapes for i in range(1, n)
        }
        assert set(calls["_subset_perm"]) == {(n, B) for B in subsets}
        assert set(calls["_relabel_shape"]) == {(B, w) for B, w in shapes if len(B) < n}
        assert set(calls["_relabel_subset"]) == {
            (n, A, r) for A in subsets for r in range(1, n - len(A) + 1)
        }
        # 64 + 32 calls build the 209 X_1 rows and the 99 rows of X_2 .. X_4 at n = 4
        rows = sum(map(len, lay.x_rows))
        assert (len(calls["_relabel_shape"]), len(calls["_relabel_subset"]), rows) == (64, 32, 209 + 99)
        algebra.clear_caches()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
    def test_p1_closed_forms_match_the_hecke_product(self, n):
        # the closed form of every P_j, P_1 included, is the signed relabel of
        # `p_relabel`: b P_j is +-1 times one basis element with no power of
        # q, and it is b exactly when {1..j} is in B.  The engine's steps
        # X_1 ... X_j give it at every id.  By induction on j it is the
        # product by the expansion P_j = -P_{j-1} T_{j-1}^-1 P_{j-1}, in ids:
        # each step composes the relabel of P_{j-1} with the engine's T^-1
        # row (each T row and X_1 row is checked against the Hecke product in
        # its own test)
        lay = algebra._layout(n)
        relabel = relabel_ids(lay)
        fixed = 0
        for kid, index in enumerate(lay.basis):
            assert_relabel_induction(lay, relabel, kid)
            for j in range(1, n + 1):
                fixes = set(range(1, j + 1)) <= set(index.B)
                assert (relabel(j, kid) == (1, kid)) == fixes, (index, j)
                fixed += fixes
        # b is fixed by P_1..P_m for the longest run 1..m at the head of B
        assert fixed == sum(
            next(m for m in range(n + 1) if m == len(i.B) or i.B[m] != m + 1) for i in lay.basis
        )
        if n <= 4:  # and the public product, and the expansion on LaurentScalar, directly
            for kid, index in enumerate(lay.basis):
                b = basis_element(index)
                for j in range(1, n + 1):
                    sign, target = relabel(j, kid)
                    want = basis_element(lay.basis[target]).scale(sign)
                    assert rmul_gen(b, ("P", j)) == want
                    assert reference_rmul_basis(index, ("P", j)) == want.terms, (index, j)

    @pytest.mark.slow
    def test_rank7_p1_rows_and_relabels_on_a_sample(self):
        # the same checks on 2,000 seeded ids of rank 7, past the reach of the
        # exhaustive tests: the steps X_1 ... X_j give the reference relabel
        # of every P_j, and each passes the induction through the T^-1 rows
        algebra.clear_caches()
        lay = algebra._layout(7)
        relabel = relabel_ids(lay)
        for kid in random.Random(29).sample(range(len(lay.basis)), 2000):
            assert_relabel_induction(lay, relabel, kid)
        algebra.clear_caches()

    @pytest.mark.parametrize("n", [4, 5])
    def test_equal_table_values_are_one_object(self, n):
        algebra.clear_caches()
        lay = algebra._layout(n)
        rows = [*itertools.chain.from_iterable(lay.t_rows), *lay.x_rows[0]]
        rows += [row for table in lay.x_rows[1:] for row in table.values()]
        seen, monomials = {}, {}
        entries = 0
        for row in rows:
            assert seen.setdefault(row, row) is row
            for m in row:
                assert monomials.setdefault(m, m) is m
                entries += 1
        # the sharing is real: 1,058 entries hold 142 monomials at n = 4,
        # and 7,308 hold 533 at n = 5
        assert 4 * len(monomials) < entries
        algebra.clear_caches()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
    def test_p1_rows_match_the_word_replay(self, n):
        algebra.clear_caches()
        lay = algebra._layout(n)
        assert len(lay.x_rows[0]) == sum(1 for _ in iter_standard_basis(n))
        for kid, row in enumerate(lay.x_rows[0]):
            # the reference as the rows store it: id deltas and powers of q
            want = {
                (lay.kids[target] - kid, q_exp(e)): a
                for target, s in reference_rmul_basis(lay.basis[kid], ("P", 1)).items()
                for e, a in s.items()
            }
            assert len(row) == len(want) and {(t, e): a for t, e, a in row} == want
        algebra.clear_caches()
        reference_rmul_P1_key.cache_clear()
        reference_lmul_T_key.cache_clear()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
    def test_t_rows_match_the_hecke_product(self, n):
        # a T row depends on the shape (B, w) alone: the reference is taken at
        # the first basis element of each shape, and the row, applied at every
        # id of the shape, must give it with A carried along
        lay = algebra._layout(n)
        letters = [("T", i, e) for i in range(1, n) for e in (1, -1)]
        want = {}
        for kid, index in enumerate(lay.basis):
            shape = lay.kid_shape[kid]
            for slot, letter in enumerate(letters):
                if (shape, slot) not in want:
                    want[shape, slot] = {
                        (target.B, target.w, q_exp(e)): a
                        for target, s in reference_rmul_basis(index, letter).items()
                        for e, a in s.items()
                    }
                row = lay.t_rows[slot][shape]
                got = {}
                for delta, e, a in row:
                    target = lay.basis[kid + delta]
                    assert target.A == index.A
                    got[target.B, target.w, e] = a
                assert len(got) == len(row) and got == want[shape, slot], (index, letter)
        assert len(want) == (max(lay.kid_shape) + 1) * len(letters)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_left_rule_matches_the_hecke_product(self, n):
        # `_t_move` rests on T_i T_B in the Hecke algebra of S_n: T_B' or
        # (q-1) T_B + q T_B' for a shuffle B', or else T_B T_j for the simple
        # s_j = beta^-1 s_i beta
        lay = algebra._layout(n)
        for B, w in {(index.B, index.w) for index in lay.basis}:
            k = len(B)
            beta = algebra._subset_perm(n, B)
            for i in range(1, n):
                case, B2, w2 = algebra._t_move(B, w, i, pinverse(beta))
                left = hecke_lmul_letter({beta: ONE}, i)
                if B2 != B:  # cases (a) and (b)
                    beta2 = algebra._subset_perm(n, B2)
                    assert w2 == w and case in (1, 2)
                    assert left == ({beta2: ONE} if case == 2 else {beta: Q_MINUS_1, beta2: Q})
                    continue
                j = pinverse(beta)[i - 1]
                assert left == hecke_rmul_letter({beta: ONE}, j, inv=False), (B, i)
                if j < k:  # P_k T_j^-1 = -P_k, and s_j commutes with w
                    assert (case, w2) == (0, w)
                else:  # T_w T_j^-1 is T_{w s_j} on a descent
                    assert w2 == apply_right_s(w, j) and case == (2 if w[j - 1] > w[j] else 1)

    @pytest.mark.parametrize("n, attained", [(2, 3), (3, 9), (4, 27)])
    def test_rank_gains_bound_every_unit_key(self, n, attained):
        # a unit key T_A P_k T_d of the working basis (d minimal in S_k \ S_n)
        # is the basis element (A, 1..k, 1) times the word of T_d; the gain
        # `_word_bounds` gives that word (3 per T letter, 1 for a P_1 after
        # it) bounds the l1 mass of the key and of its P_1 product in the
        # standard basis, and neither lowers an exponent; the largest mass a
        # unit key reaches is 3^(n-1)
        identity = tuple(range(1, n + 1))
        key_mass = []
        for k in range(n + 1):
            for d in sorted({absorb(k, u)[1] for u in itertools.permutations(identity)}):
                word = tuple(("T", i, 1) for i in reduced_word(d))
                for A in itertools.combinations(identity, k):
                    unit = basis_element(idx(A, identity[:k], identity))
                    working = {(A, d): ONE}
                    p1 = reference_rmul_letter(working, ("P", 1))
                    for letters, welem in ((word, working), (word + (("P", 1),), p1)):
                        want = greedy_to_standard(welem)
                        got = unit
                        for lt in letters:
                            got = rmul_gen(got, lt)
                        assert got.terms == want, (A, d, letters)
                        gain, drop = algebra._word_bounds(letters)
                        mass = sum(c.l1_norm() for c in want.values())
                        assert mass <= gain and drop == 0
                        assert min(c.min_exp() for c in want.values()) >= 0
                    key_mass.append(sum(c.l1_norm() for c in greedy_to_standard(working).values()))
        assert max(key_mass) == attained

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_letter_gains_bound_every_row(self, n):
        # the slot width rests on an l1 mass of at most 3 per T^+-1 row and of
        # 1 per X row, so per P_j letter, the offset on one power of q per
        # T^-1 row at most; all three are attained
        lay = algebra._layout(n)
        for inv in (0, 1):
            rows = [row for slot in lay.t_rows[inv::2] for row in slot]
            assert max(sum(abs(a) for *_, a in row) for row in rows) == 3
            assert min(e for row in rows for _, e, _ in row) == -inv
        rows = [*lay.x_rows[0], *(row for table in lay.x_rows[1:] for row in table.values())]
        assert {(len(row), row[0][1], abs(row[0][2])) for row in rows} == {(1, 0, 1)}


class TestEvenExponentInvariant:
    """Every engine table stores powers of q; `_layout` refuses a row that lowers q too far."""

    @pytest.mark.parametrize("inv", [0, 1], ids=["T", "T^-1"])
    def test_negative_power_of_q_raises_at_build(self, monkeypatch, inv):
        # a T row with a q^-1 term or a T^-1 row with a q^-2 term would lower
        # the offset that `_product` derives from the T^-1 letters alone
        true_rows = algebra._t_rows
        calls = []

        def lowering(case, delta):
            calls.append(case)
            rows = list(true_rows(case, delta))
            if len(calls) == 1:
                (t, e, a), *others = rows[inv]
                rows[inv] = ((t, e - 1 - inv, a), *others)
            return tuple(rows)

        monkeypatch.setattr(algebra, "_t_rows", lowering)
        algebra._layout.cache_clear()
        try:
            with pytest.raises(algebra.NegativeExponentError):
                algebra._layout(3)
            assert calls
        finally:
            algebra._layout.cache_clear()

    def test_a_beta_that_is_not_a_shuffle_raises_at_build(self, monkeypatch):
        # with B = {1, 2, 3} read as beta = (1 3 2 4), T_1 finds the values 1
        # and 2 at positions 1 and 3: beta^-1 s_1 beta is no simple reflection
        true_perm = algebra._subset_perm

        def wrong(n, A):
            return (1, 3, 2, 4) if (n, A) == (4, (1, 2, 3)) else true_perm(n, A)

        monkeypatch.setattr(algebra, "_subset_perm", wrong)
        algebra._layout.cache_clear()
        try:
            with pytest.raises(AssertionError, match="not a simple"):
                algebra._layout(4)
        finally:
            algebra._layout.cache_clear()

    def test_tables_store_powers_of_q(self):
        # T_1 on the basis element T_{s_1} is (q-1) T_{s_1} + q T_1
        lay = algebra._layout(2)
        row = lay.t_rows[0][lay.kid_shape[lay.kids[idx((), (), (2, 1))]]]
        assert sorted(row) == [(-1, 1, 1), (0, 0, -1), (0, 1, 1)]


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
        records = checks.run_suite("relations", n, n, "oracle", False)
        assert not [x for x in records if x["status"] != "pass"]

    def test_perturbed_product_fails_the_engine_route_only(self, monkeypatch):
        # mul adds P2 to every product; the tensor route never calls mul
        true_mul = algebra.mul
        monkeypatch.setattr(algebra, "mul", lambda x, y: true_mul(x, y) + gen_P(x.n, 2))
        records = checks.run_suite("relations", 2, 2, "oracle", False)
        engine = [x for x in records if not x["check"].endswith(" on tensor space")]
        tensor = [x for x in records if x["check"].endswith(" on tensor space")]
        p1 = next(x for x in engine if x["check"] == "P1^2 = P1")
        assert p1["status"] == "fail" and p1["witness"].startswith("AlgebraElement(")
        assert all(x["status"] == "pass" for x in tensor)

    def test_flipped_x2_row_fails_the_engine_route(self):
        # the engine reads P_2 from its own X_2 table, not from P_1 and T_1,
        # so the relations tie the two: a sign flipped on the X_2 row of
        # ({1}, {1}, 1) at n = 3 fails 11 relations, P2^2 = P2, T1P2 = -P2,
        # P3 = -P2T2^-1 P2 and P2 = -P1T1^-1 P1 among them, and the tensor
        # route, which never reads the table, passes; the last one fails only
        # in the fold from the first generator, where P2 meets the row once
        algebra.clear_caches()
        lay = algebra._layout(3)
        kid = lay.kids[idx((1,), (1,), (1, 2, 3))]
        ((delta, e, a),) = lay.x_rows[1][kid]
        lay.x_rows[1][kid] = ((delta, e, -a),)
        try:
            records = checks.run_suite("relations", 3, 3, "oracle", False)
        finally:
            algebra.clear_caches()
        failed = [x["check"] for x in records if x["status"] != "pass"]
        assert len(failed) == 11
        assert {"P2^2 = P2", "T1P2 = -P2", "P3 = -P2T2^-1 P2", "P2 = -P1T1^-1 P1"} <= set(failed)

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
