import itertools

import pytest

from mirhecke.algebra import (
    basis_element,
    basis_word,
    gen_P,
    hat_T,
    identity_element,
)
from mirhecke.combinatorics import BasisIndex, iter_standard_basis, partitions_up_to
from mirhecke.characters import class_polynomials, mn_character
from mirhecke import ring
from mirhecke.ring import (
    LaurentScalar,
    ONE,
    Q,
    QINV,
    Q_MINUS_1,
    V,
    ZERO,
    accumulate,
    pack,
    slot_bits,
    unpack,
)
from mirhecke.symfun import SymPoly, _fold_symmetric, m_sym, qtilde, qtilde_mu, sym_one
from mirhecke import algebra, checks, tensorrep
from mirhecke.tensorrep import (
    char_oracle,
    image_rank,
    pattern_blocks,
    psi_columns,
    suffix_order,
    trace_D,
)


def basis_words(n, r):
    return itertools.product(range(1, r + 2), repeat=n)


def content_blocks(n, r):
    """Every index word, grouped by content (multiset of letters): the blocks in
    `combinations_with_replacement` order, the words of each sorted."""
    for content in itertools.combinations_with_replacement(range(1, r + 2), n):
        yield sorted(set(itertools.permutations(content)))


def block_of(word):
    """The sorted words of the word's content: its content block."""
    return sorted(set(itertools.permutations(word)))


def columns(cols, block):
    """{input word: {output word: packed entry}} of columns keyed w * N + u on N block words."""
    out = {}
    for key, c in cols.items():
        w, u = divmod(key, len(block))
        out.setdefault(block[w], {})[block[u]] = c
    return out


def relabelling(word, r):
    """The order-preserving map of the word's letters below r+1 onto 1..p (r+1 fixed)."""
    low = sorted({a for a in word if a <= r})
    rank = dict(zip(low, range(1, len(low) + 1)))
    return lambda w: tuple(rank.get(a, a) for a in w)


# Reference rules on LaurentScalar coefficients, independent of the packed kernel.


def ref_apply_R(i, terms):
    out = {}
    for w, c in terms.items():
        a, b = w[i - 1], w[i]
        if a == b:
            accumulate(out, w, -c)
        else:
            accumulate(out, w[: i - 1] + (b, a) + w[i + 1 :], c * -V)
            if a > b:
                accumulate(out, w, c * Q_MINUS_1)
    return out


def ref_apply_R_inv(i, terms):
    out = {}
    for w, c in terms.items():
        a, b = w[i - 1], w[i]
        if a == b:
            accumulate(out, w, -c)
        else:
            accumulate(out, w[: i - 1] + (b, a) + w[i + 1 :], c * -V.inverse_unit())
            if a < b:
                accumulate(out, w, c * (QINV - ONE))
    return out


def ref_act(letters, terms, r):
    for lt in reversed(letters):
        if lt[0] == "P":
            terms = {w: c for w, c in terms.items() if all(k == r + 1 for k in w[: lt[1]])}
        elif lt[2] == 1:
            terms = ref_apply_R(lt[1], terms)
        else:
            terms = ref_apply_R_inv(lt[1], terms)
    return terms


def ref_operator(letters, n, r):
    """{input word: nonzero column} of a word's operator, by the reference rules."""
    cols = {w: ref_act(letters, {w: ONE}, r) for w in basis_words(n, r)}
    return {w: col for w, col in cols.items() if col}


# one letter on a unit word: coefficients have l1 norm <= 3 and exponents >= -2
BITS, OFFSET = slot_bits(3), 2


def unpacked(terms, bits=BITS, offset=OFFSET):
    return {w: unpack(c, bits, offset) for w, c in terms.items()}


def letter_image(letter, w, r):
    """One letter on the unit word w: its row in the block table, applied by the
    engine's kernel (a braid letter) or read off the kept ids (an idempotent), unpacked."""
    blk = tensorrep._block(tuple(sorted(w)), r)
    u, table = blk.ids[w], blk.table[letter]
    if letter[0] == "P":
        return {w: ONE} if u in table else {}
    out = ring.apply_rows({u: pack(ONE, BITS, OFFSET)}, table, range(len(blk.words)), BITS)
    return unpacked({blk.words[t]: c for t, c in out.items()})


def psi(letters, w, r):
    """Psi(word) e_w through `psi_columns`, unpacked, at the width the letters need."""
    gain, offset = algebra._word_bounds(letters)
    bits = slot_bits(gain)
    words_of = {0: tuple(letters)}
    cols = psi_columns(words_of, suffix_order(words_of), [w], r, bits, offset)[0]
    return unpacked(columns(cols, block_of(w)).get(w, {}), bits, offset)


def combine(*parts):
    """sum c * vec over (c, vec) pairs of sparse vectors, zeros dropped."""
    out = {}
    for c, vec in parts:
        for k, a in vec.items():
            accumulate(out, k, c * a)
    return out


# every row of every block: r from 1 to 3, and r in {n, n + 1}
SMALL = sorted({(n, r) for n in (1, 2, 3, 4) for r in (1, 2, 3, n, n + 1)})


# Row-builder mutants: R_i (not R_i^-1) with its diagonal rule, (a, b) -> (a, b), replaced.


def mutant_R(diagonal):
    """`_braid_row` whose R_i keeps the terms diagonal((a, b), w), as (v-exponent,
    coeff) pairs, on a word w with letters (a, b) at i, i+1."""
    true_row = tensorrep._braid_row

    def row(w, i, s):
        if s == -1:
            return true_row(w, i, s)
        a, b = w[i - 1], w[i]
        swap = () if a == b else ((w[: i - 1] + (b, a) + w[i + 1 :], 1, -1),)
        return swap + tuple((w, e, c) for e, c in diagonal((a, b), w))

    return row


def _diagonal(pair, descent=1, equal=-1):
    """equal on a == b, descent * (q-1) on a > b, nothing on a < b (R_i: -1 and 1)."""
    a, b = pair
    if a == b:
        return ((0, equal),)
    return ((2, descent), (0, -descent)) if a > b and descent else ()


# no (q-1) term on a > b: the quadratic relation fails
braid_without_quadratic_term = mutant_R(lambda pair, w: _diagonal(pair, descent=0))
# the (q-1) term doubled when the larger letter repeats in the word: it reads only
# letter order and letter counts, which relabelling keeps, but traces lose symmetry
doubled_descent_term = mutant_R(
    lambda pair, w: _diagonal(pair, descent=1 + (w.count(pair[0]) > 1))
)
# letter 2 is special: R_i acts on (2, 2) as +1, which no relabelling respects
letter_two_special = mutant_R(lambda pair, w: _diagonal(pair, equal=1 if pair[0] == 2 else -1))


def keeps_every_word(w, j, r):
    """An e_j that keeps every word: P_j collapses onto the identity."""
    return True


@pytest.fixture
def fresh_tables():
    """Empty block-table and trace memos before and after the test: rows are built
    anew, so a patched row builder is read, and nothing built or computed under it
    reaches a later test."""
    tensorrep._block.cache_clear()
    tensorrep.basis_trace.cache_clear()
    yield
    tensorrep._block.cache_clear()
    tensorrep.basis_trace.cache_clear()


class TestKernelAgainstReference:
    @pytest.mark.parametrize("n,r", SMALL)
    def test_braid_letters(self, n, r):
        # every word is one row of its block's table
        for w in basis_words(n, r):
            for i in range(1, n):
                assert letter_image(("T", i, 1), w, r) == ref_apply_R(i, {w: ONE}), (i, w)
                assert letter_image(("T", i, -1), w, r) == ref_apply_R_inv(i, {w: ONE}), (i, w)

    @pytest.mark.parametrize("n,r", SMALL)
    def test_idempotent_letters(self, n, r):
        for w in basis_words(n, r):
            for j in range(1, n + 1):
                got = letter_image(("P", j), w, r)
                assert got == ref_act([("P", j)], {w: ONE}, r), (j, w)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_basis_operators(self, n):
        # whole words on every input word: the width and offset derived from the letters suffice
        for idx in iter_standard_basis(n):
            letters = basis_word(idx).letters
            gain, offset = algebra._word_bounds(letters)
            bits = slot_bits(gain)
            words_of = {idx: letters}
            suffixes = suffix_order(words_of)
            got = {}
            for block in content_blocks(n, n):
                cols = psi_columns(words_of, suffixes, block, n, bits, offset)[idx]
                for w, col in columns(cols, block).items():
                    got[w] = unpacked(col, bits, offset)
            assert got == ref_operator(letters, n, n), idx


class TestLocalOperators:
    def test_equal_letters(self):
        for r in (1, 2):
            assert letter_image(("T", 1, 1), (1, 1), r) == {(1, 1): -ONE}
            assert letter_image(("T", 1, -1), (1, 1), r) == {(1, 1): -ONE}

    def test_increasing_pair(self):
        assert letter_image(("T", 1, 1), (1, 2), 1) == {(2, 1): -V}

    def test_decreasing_pair(self):
        assert letter_image(("T", 1, 1), (2, 1), 1) == {(1, 2): -V, (2, 1): Q_MINUS_1}

    def test_projection_keeps_top_prefix(self):
        assert letter_image(("P", 1), (2, 1), 1) == {(2, 1): ONE}
        assert letter_image(("P", 1), (1, 2), 1) == {}
        assert letter_image(("P", 2), (2, 1), 1) == {}


class TestPsiApply:
    def test_projection_word(self):
        assert psi([("P", 1)], (3, 1), 2) == {(3, 1): ONE}

    def test_quadratic_relation(self):
        for w in basis_words(2, 2):
            twice = psi([("T", 1, 1), ("T", 1, 1)], w, 2)
            once = psi([("T", 1, 1)], w, 2)
            assert twice == combine((Q_MINUS_1, once), (LaurentScalar.q_power(1), {w: ONE})), w

    def test_idempotent_recursion_operator(self):
        # -q^-1 (e_i R_i e_i - (q-1) e_i) acts as e_{i+1}
        n, r = 3, 2
        qinv = LaurentScalar.q_power(-1)
        for w in basis_words(n, r):
            sandwich = psi([("P", 2), ("T", 2, 1), ("P", 2)], w, r)
            single = psi([("P", 2)], w, r)
            combo = combine((-qinv, sandwich), (qinv * Q_MINUS_1, single))
            assert combo == psi([("P", 3)], w, r), w

    def test_inverse_braid(self):
        # R_i R_i^-1 = R_i^-1 R_i = 1, and R_i^-1 = q^-1 (R_i - (q-1)), on every word
        qinv = LaurentScalar.q_power(-1)
        for n, r, i in [(n, r, i) for n in (2, 3, 4) for r in (1, 2, 3) for i in range(1, n)]:
            for w in basis_words(n, r):
                for order in ((1, -1), (-1, 1)):
                    word = [("T", i, e) for e in order]
                    assert psi(word, w, r) == {w: ONE}, (n, r, i, order, w)
                want = combine((qinv, psi([("T", i, 1)], w, r)), (-qinv * Q_MINUS_1, {w: ONE}))
                assert letter_image(("T", i, -1), w, r) == want, (n, r, i, w)


def split_routes(records):
    """The engine records and the tensor records of a relations suite, in order."""
    suffix = " on tensor space"
    engine = [x for x in records if not x["check"].endswith(suffix)]
    tensor = [x for x in records if x["check"].endswith(suffix)]
    return engine, tensor


class TestRelationReports:
    @pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 2)])
    def test_all_pass(self, n, r):
        records = checks.run_suite("relations", n, r, "oracle", False)
        assert not [x for x in records if x["status"] != "pass"]

    def test_report_shape(self):
        records = checks.run_suite("relations", 2, 1, "oracle", False)
        rank2 = [
            "T0^2 = (q-2)T0 + (q-1)",
            "T1^2 = (q-1)T1 + q",
            "T0T1T0T1 = (q-1)(T1T0T1 + T1T0) - T0T1T0",
            "T1T0T1T0 = (q-1)(T1T0T1 + T0T1) - T0T1T0",
            "P1^2 = P1",
            "P2^2 = P2",
            "P2P1 = P2",
            "P1P2 = P2",
            "P2T1 = -P2",
            "T1P2 = -P2",
            "P2 = -P1T1^-1 P1",
        ]
        assert [x["check"] for x in records] == rank2 + [f"{c} on tensor space" for c in rank2]
        for x in records:
            assert set(x) == {"check", "n", "r", "status", "witness"}
            assert (x["n"], x["r"]) == (2, 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_routes_list_the_same_relations(self, n):
        engine, tensor = split_routes(checks.run_suite("relations", n, n, "oracle", False))
        names = [name for name, _, _ in checks.defining_relations(n)]
        assert [x["check"] for x in engine] == names
        assert [x["check"] for x in tensor] == [f"{c} on tensor space" for c in names]
        assert all(x["status"] == "pass" for x in engine + tensor)

    def test_witness_can_be_a_later_word_of_its_block(self):
        # P1 = P2 holds on (1, 3), the first word of content {1, 3}, and fails on (3, 1)
        p1, p2 = (("P", 1),), (("P", 2),)
        table = [("P1 = P2", [(ONE, p1)], [(ONE, p2)]), ("P2 = P2", [(ONE, p2)], [(ONE, p2)])]
        assert checks.relations_on_tensor_space(table, 2, 2) == [[3, 1], None]

    @pytest.mark.usefixtures("fresh_tables")
    def test_braid_without_quadratic_term_fails_the_tensor_route_only(self, monkeypatch):
        # R_i without its (q-1) term on a > b no longer satisfies the quadratic relation
        monkeypatch.setattr(tensorrep, "_braid_row", braid_without_quadratic_term)
        engine, tensor = split_routes(checks.run_suite("relations", 2, 2, "oracle", False))
        assert all(x["status"] == "pass" for x in engine)
        quad = next(x for x in tensor if x["check"] == "T1^2 = (q-1)T1 + q on tensor space")
        # content {1, 1} passes (R acts there as -1); (1, 2) opens content {1, 2}
        assert (quad["status"], quad["witness"]) == ("fail", [1, 2])


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


def diagonal_traces(n, r):
    """{basis index: weighted trace} read off the diagonal of the columns that
    `psi_columns` builds on every word, one content block at a time, each entry
    unpacked before the sum."""
    letters = {x: basis_word(x).letters for x in iter_standard_basis(n)}
    gains, drops = zip(*map(algebra._word_bounds, letters.values()))
    bits, offset = slot_bits(max(gains)), max(drops)
    suffixes = suffix_order(letters)
    monos = {x: {} for x in letters}
    for block in content_blocks(n, r):
        for x, cols in psi_columns(letters, suffixes, block, r, bits, offset).items():
            for w, col in columns(cols, block).items():
                c = col.get(w)
                if c:
                    expo = tuple(sum(k == a for k in w) for a in range(1, r + 1))
                    accumulate(monos[x], expo, unpack(c, bits, offset))
    return {x: SymPoly(r, _fold_symmetric(m)) for x, m in monos.items()}


class TestRotatedTraces:
    @pytest.mark.parametrize(
        "n,r", [(n, r) for n in (1, 2, 3) for r in (n, n + 1)] + [(4, 4)]
    )
    @pytest.mark.usefixtures("fresh_tables")
    def test_matches_operator_diagonal(self, n, r):
        for idx, want in diagonal_traces(n, r).items():
            assert tensorrep.basis_trace(r, idx) == want, idx

    @pytest.mark.usefixtures("fresh_tables")
    def test_never_builds_an_operator(self, monkeypatch):
        def no_operators(*args):
            raise AssertionError("basis_trace must not build operator columns")

        monkeypatch.setattr(tensorrep, "psi_columns", no_operators)
        for idx in iter_standard_basis(3):
            tensorrep.basis_trace(3, idx)
        for mu in partitions_up_to(3):
            oracle = char_oracle(hat_T(3, mu), r=3)
            for lam in partitions_up_to(3):
                assert oracle.get(lam, ZERO) == mn_character(3, lam, mu)

    @pytest.mark.usefixtures("fresh_tables")
    def test_order_invariant_asymmetry_is_caught(self, monkeypatch):
        # the mutant keeps the relabelling premise, so only the comparison of
        # rearranged compositions can see it
        monkeypatch.setattr(tensorrep, "_braid_row", doubled_descent_term)
        assert relabelling_mismatches(3, 3) == []
        raised = []
        for idx in iter_standard_basis(3):
            try:
                tensorrep.basis_trace(3, idx)
            except AssertionError:
                raised.append(idx)
        assert len(raised) == 5, raised

    @pytest.mark.usefixtures("fresh_tables")
    def test_asymmetry_is_caught_on_the_class_polynomial_route(self, monkeypatch):
        # class polynomials read the packed trace sums, folded by the same check
        monkeypatch.setattr(tensorrep, "_braid_row", doubled_descent_term)
        raised = []
        for idx in iter_standard_basis(3):
            try:
                class_polynomials(3, idx)
            except AssertionError:
                raised.append(idx)
        assert len(raised) == 5, raised


def reference_trace(r, idx):
    """tr(D Psi(idx)) from the diagonal of the reference rules, over every word."""
    letters = basis_word(idx).letters
    monos = {}
    for w in basis_words(idx.n, r):
        c = ref_act(letters, {w: ONE}, r).get(w)
        if c:
            expo = tuple(sum(k == a for k in w) for a in range(1, r + 1))
            accumulate(monos, expo, c)
    return SymPoly(r, _fold_symmetric(monos))


@pytest.mark.usefixtures("fresh_tables")
class TestSlotWidth:
    N, R = 3, 3

    def traces(self):
        return {idx: tensorrep.basis_trace(self.R, idx) for idx in iter_standard_basis(self.N)}

    def test_derived_width_covers_every_trace(self, monkeypatch):
        widths = []

        def recording(bound):
            widths.append(slot_bits(bound))
            return widths[-1]

        monkeypatch.setattr(tensorrep, "slot_bits", recording)
        got = self.traces()
        assert len(widths) == len(got)
        for bits, (idx, trace) in zip(widths, got.items()):
            assert trace == reference_trace(self.R, idx), idx
            widest = max(abs(a) for c in trace.terms.values() for _, a in c.items())
            assert bits >= slot_bits(widest), idx

    def test_one_bit_below_the_widest_coefficient_breaks_a_trace(self, monkeypatch):
        # the a priori bound 3^L is loose, so the cut is made one bit below the
        # width that the widest true coefficient needs
        want = {idx: reference_trace(self.R, idx) for idx in iter_standard_basis(self.N)}
        widest = max(abs(a) for t in want.values() for c in t.terms.values() for _, a in c.items())
        assert widest >= 2
        monkeypatch.setattr(tensorrep, "slot_bits", lambda bound: slot_bits(widest) - 1)
        wrong = []
        for idx, trace in self.traces().items():
            if trace != want[idx]:
                wrong.append(idx)
        assert wrong


def count_scalar_work(monkeypatch):
    """Count LaurentScalar products, and the values packed or unpacked, from now on."""
    seen = {"products": 0, "values": 0}

    def counting(fn, key):
        def wrapped(*args):
            seen[key] += 1
            return fn(*args)

        return wrapped

    mul = LaurentScalar.__mul__
    monkeypatch.setattr(LaurentScalar, "__mul__", counting(mul, "products"))
    monkeypatch.setattr(LaurentScalar, "__rmul__", counting(mul, "products"))
    for name in ("unpack", "pack"):
        monkeypatch.setattr(tensorrep, name, counting(getattr(tensorrep, name), "values"))
    return seen


class TestNoScalarProductsPerLetter:
    @pytest.mark.usefixtures("fresh_tables")
    def test_traces(self, monkeypatch):
        seen = count_scalar_work(monkeypatch)
        for idx in iter_standard_basis(3):
            tensorrep.basis_trace(3, idx)
        assert seen["values"] > 0
        assert seen["products"] <= seen["values"]

    def test_multiplicativity(self, monkeypatch):
        pairs = checks.basis_pairs(3)
        prods = {(a, b): algebra.mul(basis_element(a), basis_element(b)) for a, b in pairs}
        monkeypatch.setattr(algebra, "mul", lambda x, y: prods[(*x.terms, *y.terms)])
        seen = count_scalar_work(monkeypatch)
        assert checks.psi_multiplicative(pairs, 3) is None
        assert seen["values"] > 0
        assert seen["products"] <= seen["values"]


def perturb_products(monkeypatch, extra):
    """Make algebra.mul add extra[(a, b)] to the product of basis elements a and b."""
    mul = algebra.mul

    def perturbed(x, y):
        out = mul(x, y)
        key = (*x.terms, *y.terms)
        return out + extra[key] if key in extra else out

    monkeypatch.setattr(algebra, "mul", perturbed)


class TestMultiplicativity:
    def test_perturbed_product_is_the_witness(self, monkeypatch):
        pairs = checks.basis_pairs(3)
        a, b = pairs[500]
        perturb_products(monkeypatch, {(a, b): gen_P(3, 1)})
        assert checks.psi_multiplicative(pairs, 3) == {"a": a.to_json(), "b": b.to_json()}

    def test_witness_is_first_failure_in_pair_order(self, monkeypatch):
        # the later pair fails on the first content, the earlier one (P_3 acts
        # on the all-(r+1) word only) on the last
        pairs = checks.basis_pairs(3)
        early, late = pairs[100], pairs[700]
        perturb_products(monkeypatch, {early: gen_P(3, 3), late: identity_element(3)})
        a, b = early
        assert checks.psi_multiplicative(pairs, 3) == {"a": a.to_json(), "b": b.to_json()}

    def test_negative_exponent_in_a_product_is_packed(self, monkeypatch):
        # q^-20 lies below every word's own offset, so the packing offset must cover it
        pairs = checks.basis_pairs(3)
        a, b = pairs[300]
        perturb_products(monkeypatch, {(a, b): gen_P(3, 1).scale(LaurentScalar.q_power(-20))})
        assert checks.psi_multiplicative(pairs, 3) == {"a": a.to_json(), "b": b.to_json()}

    def test_block_comparison_reads_every_column(self):
        # Psi(x + y) = Psi(a) Psi(b) on the words w1, w2 of one content; the
        # entries of x and y at v9 cancel, so that entry is absent on both sides
        names = ["w1", "w2", "w3", "u1", "u2", "u3", "v1", "v2", "v3", "v9"]
        size = len(names)
        ids = {name: i for i, name in enumerate(names)}
        nested = {
            "a": {"u1": {"v1": 2}, "u2": {"v2": 1}},
            "b": {"w1": {"u1": 3}, "w2": {"u2": 1}, "w3": {"u3": 4}},
            "x": {"w1": {"v1": 6, "v9": 5}, "w2": {"v2": 1}},
            "y": {"w1": {"v9": -5}},
            "z": {"w2": {"v3": 1}},
        }
        # keyed w * N + u, as `psi_columns` keys them
        cols = {
            x: {ids[w] * size + ids[u]: c for w, col in xcols.items() for u, c in col.items()}
            for x, xcols in nested.items()
        }

        def first(*terms):
            w = tensorrep._first_difference(cols, list(terms), size)
            return None if w is None else names[w]

        ab, x, y, z = ("a", "b"), ("x",), ("y",), ("z",)
        assert first((1, ab), (-1, x), (-1, y)) is None
        assert first((1, ab), (-1, x)) == "w1"
        # a mismatch in the second column only
        assert first((1, ab), (-1, x), (-1, y), (-1, z)) == "w2"
        # a one-word term beside the two-word term, with scalars 1 and not 1
        assert first((1, ab), (1, z), (-1, x), (-1, y), (-1, z)) is None
        assert first((3, ab), (3, z), (-3, x), (-3, y), (-3, z)) is None
        assert first((3, ab), (2, z), (-3, x), (-3, y), (-3, z)) == "w2"

    def test_low_exponent_on_a_two_word_side(self):
        # q^-20 P2 = -q^-20 Psi(P1 T1^-1) o Psi(P1): q^-20 lies below every word's
        # offset, so base must be 2E + 20 (E = 2) for the two-word term to pack
        low = LaurentScalar.q_power(-20)
        lhs = [(low, ((("P", 2),),))]
        p1t, p1 = (("P", 1), ("T", 1, -1)), (("P", 1),)
        identities = [(lhs, [(c, (p1t, p1))]) for c in (-low, -low * Q, low)]
        # P2 keeps the words that begin 4, 4; the first in block order opens content {1, 4, 4}
        assert tensorrep.first_differences(identities, 3, 3) == [None, (4, 4, 1), (4, 4, 1)]

    @pytest.mark.parametrize("n,r", [(n, r) for n in (1, 2, 3, 4) for r in (n, n + 1)])
    def test_content_blocks_partition_the_words(self, n, r):
        blocks = list(content_blocks(n, r))
        words = [w for block in blocks for w in block]
        assert len(words) == len(set(words)) == (r + 1) ** n
        assert set(words) == set(basis_words(n, r))
        contents = [{tuple(sorted(w)) for w in block} for block in blocks]
        assert all(len(c) == 1 for c in contents)
        assert len(set.union(*contents)) == len(blocks)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_block_columns_match_operators(self, n):
        letters = {x: basis_word(x).letters for x in iter_standard_basis(n)}
        whole = {x: ref_operator(lt, n, n) for x, lt in letters.items()}
        gains, drops = zip(*map(algebra._word_bounds, letters.values()))
        bits, offset = slot_bits(max(gains)), max(drops)
        suffixes = suffix_order(letters)
        for words in content_blocks(n, n):
            cols = psi_columns(letters, suffixes, words, n, bits, offset)
            for x, op in whole.items():
                got = {w: unpacked(col, bits, offset) for w, col in columns(cols[x], words).items()}
                assert got == {w: col for w, col in op.items() if w in words}, (x, words)

    def test_never_builds_an_operator(self, monkeypatch):
        # every call builds the columns of one content block only, never a whole operator
        build = tensorrep.psi_columns
        contents = []

        def one_block(words_of, suffixes, inputs, r, bits, offset):
            inputs = list(inputs)
            contents.append({tuple(sorted(w)) for w in inputs})
            assert len(contents[-1]) == 1, contents[-1]
            return build(words_of, suffixes, inputs, r, bits, offset)

        monkeypatch.setattr(tensorrep, "psi_columns", one_block)
        assert checks.psi_multiplicative(checks.basis_pairs(3), 3) is None
        assert len(contents) == len(list(pattern_blocks(3, 3)))


class TestBlockTables:
    @pytest.mark.parametrize("n", [3, 4])
    def test_one_kernel_call_per_suffix(self, monkeypatch, n):
        # the columns of every input word advance together: a block makes one
        # kernel call per distinct suffix that starts with a braid letter,
        # whatever its size
        letters = {x: basis_word(x).letters for x in iter_standard_basis(n)}
        suffixes = {lt[i:] for lt in letters.values() for i in range(len(lt))}
        braid = sum(suffix[0][0] == "T" for suffix in suffixes)
        kernel = ring.apply_rows
        calls = []

        def counting(elem, rows, sel, unit):
            calls.append(len(elem))
            return kernel(elem, rows, sel, unit)

        monkeypatch.setattr(tensorrep, "apply_rows", counting)
        order = suffix_order(letters)
        assert set(order) == suffixes
        sizes = set()
        for block in pattern_blocks(n, n):
            calls.clear()
            psi_columns(letters, order, block, n, 8, 16)
            assert len(calls) == braid, len(block)
            sizes.add(len(block))
        assert len(sizes) >= 3

    @pytest.mark.parametrize("caller", ["first_differences", "image_rank"])
    def test_one_suffix_order_per_call(self, monkeypatch, caller):
        # every block reads the same suffix order: one build per call, not one per block
        order, build = tensorrep.suffix_order, tensorrep.psi_columns
        orders, blocks = [], []

        def counting_order(words_of):
            orders.append(len(words_of))
            return order(words_of)

        def counting_columns(words_of, suffixes, *rest):
            blocks.append(suffixes)
            return build(words_of, suffixes, *rest)

        monkeypatch.setattr(tensorrep, "suffix_order", counting_order)
        monkeypatch.setattr(tensorrep, "psi_columns", counting_columns)
        if caller == "first_differences":
            assert checks.psi_multiplicative(checks.basis_pairs(3), 3) is None
        else:
            assert image_rank(3, 3, 1) == 34
        assert len(orders) == 1
        assert len(blocks) == len(list(pattern_blocks(3, 3))) > 1
        assert all(suffixes is blocks[0] for suffixes in blocks)

    @pytest.mark.parametrize("n,r", [(4, 4), (5, 5)])
    def test_tables_are_linear_in_the_block(self, n, r):
        # one row of at most 3 monomials per word and braid letter, one id set per idempotent
        for block in pattern_blocks(n, r):
            blk = tensorrep._block(block[0], r)
            assert blk.words == block
            braid = [("T", i, s) for i in range(1, n) for s in (1, -1)]
            assert sorted(blk.table) == sorted(braid + [("P", j) for j in range(1, n + 1)])
            for letter, table in blk.table.items():
                if letter[0] == "T":
                    assert len(table) == len(block)
                    assert all(1 <= len(row) <= 3 for row in table)
                else:
                    assert table <= set(range(len(block)))


def relabelling_mismatches(n, r):
    """The content blocks whose basis-operator columns, relabelled onto their
    representative block, differ from the representative's own columns."""
    letters = {x: basis_word(x).letters for x in iter_standard_basis(n)}
    gains, drops = zip(*map(algebra._word_bounds, letters.values()))
    bits, offset = slot_bits(max(gains)), max(drops)
    suffixes = suffix_order(letters)
    reps = {}
    bad = []
    for block in content_blocks(n, r):
        move = relabelling(block[0], r)
        rep = tuple(map(move, block))
        if rep not in reps:
            reps[rep] = {
                x: columns(xcols, list(rep))
                for x, xcols in psi_columns(letters, suffixes, rep, r, bits, offset).items()
            }
        cols = psi_columns(letters, suffixes, block, r, bits, offset)
        moved = {
            x: {
                move(w): {move(u): c for u, c in col.items()}
                for w, col in columns(xcols, block).items()
            }
            for x, xcols in cols.items()
        }
        if moved != reps[rep]:
            bad.append(block[0])
    return bad


def all_block_differences(identities, n, r):
    """`first_differences` by a scan over every content block."""
    words, bits, offset, packed = tensorrep._pack_identities(list(identities))
    suffixes = suffix_order(words)
    out = [None] * len(packed)
    for block in content_blocks(n, r):
        cols = psi_columns(words, suffixes, block, r, bits, offset)
        for k, signed in enumerate(packed):
            if out[k] is None:
                w = tensorrep._first_difference(cols, signed, len(block))
                out[k] = None if w is None else block[w]
    return out


def relation_identities(n, crossed=False):
    """The defining relations as operator identities; crossed pairs each left side
    with the next relation's right side, so most of them fail."""
    table = checks.defining_relations(n)
    rights = [rhs for _, _, rhs in table]
    if crossed:
        rights = rights[1:] + rights[:1]
    return [
        [[(c, (w,)) for c, w in side] for side in (lhs, rhs)]
        for (_, lhs, _), rhs in zip(table, rights)
    ]


class TestPatternBlocks:
    @pytest.mark.parametrize(
        "n,r", sorted({(n, r) for n in (1, 2, 3, 4) for r in (1, 2, n, n + 1)})
    )
    def test_representatives_in_block_order(self, n, r):
        # the blocks whose letters below r+1 are exactly 1..p, in content-block order
        want = [b for b in content_blocks(n, r) if relabelling(b[0], r)(b[0]) == b[0]]
        assert list(pattern_blocks(n, r)) == want

    def test_block_and_word_counts(self):
        for n, blocks, words in [(4, 16, 150), (5, 32, 1082)]:
            got = list(pattern_blocks(n, n))
            assert (len(got), sum(map(len, got))) == (blocks, words), n

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_extra_letter_adds_no_block(self, n):
        assert len(list(pattern_blocks(n, n))) == len(list(pattern_blocks(n, n + 1))) == 2**n

    @pytest.mark.parametrize(
        "n,r", [(n, r) for n in (1, 2, 3) for r in (n, n + 1)] + [(4, 4)]
    )
    def test_relabelled_blocks_have_the_same_columns(self, n, r):
        assert relabelling_mismatches(n, r) == []

    @pytest.mark.usefixtures("fresh_tables")
    def test_value_dependent_kernel_breaks_the_premise(self, monkeypatch):
        monkeypatch.setattr(tensorrep, "_braid_row", letter_two_special)
        assert relabelling_mismatches(2, 2)

    @pytest.mark.parametrize(
        "n,r", [(n, r) for n in (1, 2, 3) for r in (n, n + 1)] + [(4, 4)]
    )
    @pytest.mark.parametrize("crossed", [False, True])
    def test_relation_witnesses_match_the_all_block_scan(self, n, r, crossed):
        identities = relation_identities(n, crossed)
        got = tensorrep.first_differences(identities, n, r)
        assert got == all_block_differences(identities, n, r)
        assert crossed == any(w is not None for w in got) or n == 1

    @pytest.mark.parametrize(
        "name,mutant",
        [
            ("_braid_row", braid_without_quadratic_term),
            ("_braid_row", doubled_descent_term),
            ("_idempotent_keeps", keeps_every_word),
        ],
    )
    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.usefixtures("fresh_tables")
    def test_mutant_witnesses_match_the_all_block_scan(self, monkeypatch, name, mutant, n):
        monkeypatch.setattr(tensorrep, name, mutant)
        identities = relation_identities(n)
        got = tensorrep.first_differences(identities, n, n)
        assert got == all_block_differences(identities, n, n)
        assert any(w is not None for w in got)


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
        assert image_rank(1, 1, 1) == 2

    def test_rank2(self):
        assert image_rank(2, 2, 1) == 7

    def test_rank3_two_points(self):
        assert image_rank(3, 3, 1) == 34
        assert image_rank(3, 3, 2) == 34

    @pytest.mark.usefixtures("fresh_tables")
    def test_rank_reads_the_kernel_columns(self, monkeypatch):
        # e_j that keeps every word collapses P_j onto the identity: the rank drops
        monkeypatch.setattr(tensorrep, "_idempotent_keeps", keeps_every_word)
        witness = checks.image_rank_equals_dim(2, 2)
        assert witness is not None and len(witness) == 2
        assert all(rank < 7 for rank in witness), witness
