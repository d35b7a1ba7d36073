import pytest

from mirhecke.algebra import (
    basis_element,
    basis_word,
    gen_P,
    hat_T,
    identity_element,
)
from mirhecke.combinatorics import BasisIndex, iter_standard_basis, partitions_up_to
from mirhecke.characters import mn_character
from mirhecke import ring
from mirhecke.ring import (
    LaurentScalar,
    ONE,
    QINV,
    Q_MINUS_1,
    V,
    ZERO,
    accumulate,
    pack,
    slot_bits,
    unpack,
)
from mirhecke.symfun import _from_monomials, m_sym, qtilde, qtilde_mu, sym_one
from mirhecke import algebra, checks, tensorrep
from mirhecke.tensorrep import (
    basis_words,
    char_oracle,
    content_blocks,
    image_rank,
    psi_columns,
    trace_D,
)


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


def packed_unit(w):
    return {w: pack(ONE, BITS, OFFSET)}


def psi(letters, w, r):
    """Psi(word) e_w through `psi_columns`, unpacked, at the width the letters need."""
    bits = slot_bits(tensorrep.letter_bound(letters))
    offset = tensorrep.letter_offset(letters)
    col = psi_columns({0: tuple(letters)}, [w], r, bits, offset)[0].get(w, {})
    return unpacked(col, bits, offset)


def combine(*parts):
    """sum c * vec over (c, vec) pairs of sparse vectors, zeros dropped."""
    out = {}
    for c, vec in parts:
        for k, a in vec.items():
            accumulate(out, k, c * a)
    return out


SMALL = [(n, r) for n in (1, 2, 3, 4) for r in (1, 2, 3)]


class TestKernelAgainstReference:
    @pytest.mark.parametrize("n,r", SMALL)
    def test_braid_letters(self, n, r):
        for w in basis_words(n, r):
            for i in range(1, n):
                got = unpacked(tensorrep._apply_R(i, packed_unit(w), BITS))
                assert got == ref_apply_R(i, {w: ONE}), (i, w)
                got = unpacked(tensorrep._apply_R_inv(i, packed_unit(w), BITS))
                assert got == ref_apply_R_inv(i, {w: ONE}), (i, w)

    @pytest.mark.parametrize("n,r", SMALL)
    def test_idempotent_letters(self, n, r):
        for w in basis_words(n, r):
            for j in range(1, n + 1):
                got = unpacked(tensorrep._apply_e(j, packed_unit(w), r))
                assert got == ref_act([("P", j)], {w: ONE}, r), (j, w)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_basis_operators(self, n):
        # whole words on every input word: the width and offset derived from the letters suffice
        for idx in iter_standard_basis(n):
            letters = basis_word(idx).letters
            bits = slot_bits(tensorrep.letter_bound(letters))
            offset = tensorrep.letter_offset(letters)
            cols = psi_columns({idx: letters}, basis_words(n, n), n, bits, offset)[idx]
            got = {w: unpacked(col, bits, offset) for w, col in cols.items()}
            assert got == ref_operator(letters, n, n), idx


class TestLocalOperators:
    def test_equal_letters(self):
        out = unpacked(tensorrep._apply_R(1, packed_unit((1, 1)), BITS))
        assert out == {(1, 1): -ONE}

    def test_increasing_pair(self):
        out = unpacked(tensorrep._apply_R(1, packed_unit((1, 2)), BITS))
        assert out == {(2, 1): -V}

    def test_decreasing_pair(self):
        out = unpacked(tensorrep._apply_R(1, packed_unit((2, 1)), BITS))
        assert out == {(1, 2): -V, (2, 1): Q_MINUS_1}

    def test_projection_keeps_top_prefix(self):
        assert unpacked(tensorrep._apply_e(1, packed_unit((2, 1)), 1)) == {(2, 1): ONE}
        assert unpacked(tensorrep._apply_e(1, packed_unit((1, 2)), 1)) == {}
        assert unpacked(tensorrep._apply_e(2, packed_unit((2, 1)), 1)) == {}


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
                got = unpacked(tensorrep._apply_R_inv(i, packed_unit(w), BITS))
                assert got == want, (n, r, i, w)


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

    def test_braid_without_quadratic_term_fails_the_tensor_route_only(self, monkeypatch):
        # R_i without its (q-1) term on a > b no longer satisfies the quadratic relation
        def mutant(i, terms, bits):
            out = {}
            for w, c in terms.items():
                a, b = w[i - 1], w[i]
                if a == b:
                    accumulate(out, w, -c)
                else:
                    accumulate(out, w[: i - 1] + (b, a) + w[i + 1 :], -(c << bits))
            return out

        monkeypatch.setattr(tensorrep, "_apply_R", mutant)
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
    bits = slot_bits(max(map(tensorrep.letter_bound, letters.values())))
    offset = max(map(tensorrep.letter_offset, letters.values()))
    monos = {x: {} for x in letters}
    for block in content_blocks(n, r):
        for x, cols in psi_columns(letters, block, r, bits, offset).items():
            for w, col in cols.items():
                c = col.get(w)
                if c:
                    expo = tuple(sum(k == a for k in w) for a in range(1, r + 1))
                    accumulate(monos[x], expo, unpack(c, bits, offset))
    return {x: _from_monomials(m, r) for x, m in monos.items()}


class TestRotatedTraces:
    @pytest.mark.parametrize(
        "n,r", [(n, r) for n in (1, 2, 3) for r in (n, n + 1)] + [(4, 4)]
    )
    def test_matches_operator_diagonal(self, n, r, monkeypatch):
        monkeypatch.setattr(tensorrep, "_TRACE_CACHE", {})
        for idx, want in diagonal_traces(n, r).items():
            assert tensorrep.basis_trace(r, idx) == want, idx

    def test_never_builds_an_operator(self, monkeypatch):
        def no_operators(*args):
            raise AssertionError("basis_trace must not build operator columns")

        monkeypatch.setattr(tensorrep, "_TRACE_CACHE", {})
        monkeypatch.setattr(tensorrep, "psi_columns", no_operators)
        for idx in iter_standard_basis(3):
            tensorrep.basis_trace(3, idx)
        for mu in partitions_up_to(3):
            oracle = char_oracle(hat_T(3, mu), r=3)
            for lam in partitions_up_to(3):
                assert oracle.get(lam, ZERO) == mn_character(3, lam, mu)


def reference_trace(r, idx):
    """tr(D Psi(idx)) from the diagonal of the reference rules, over every word."""
    letters = basis_word(idx).letters
    monos = {}
    for w in basis_words(idx.n, r):
        c = ref_act(letters, {w: ONE}, r).get(w)
        if c:
            expo = tuple(sum(k == a for k in w) for a in range(1, r + 1))
            accumulate(monos, expo, c)
    return _from_monomials(monos, r)


class TestSlotWidth:
    N, R = 3, 3

    def traces(self, monkeypatch):
        monkeypatch.setattr(tensorrep, "_TRACE_CACHE", {})
        return {idx: tensorrep.basis_trace(self.R, idx) for idx in iter_standard_basis(self.N)}

    def test_derived_width_covers_every_trace(self, monkeypatch):
        widths = []

        def recording(bound):
            widths.append(slot_bits(bound))
            return widths[-1]

        monkeypatch.setattr(tensorrep, "slot_bits", recording)
        got = self.traces(monkeypatch)
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
        for idx, trace in self.traces(monkeypatch).items():
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
    for module, name in [(tensorrep, "unpack"), (checks, "pack")]:
        monkeypatch.setattr(module, name, counting(getattr(module, name), "values"))
    return seen


class TestNoScalarProductsPerLetter:
    def test_traces(self, monkeypatch):
        monkeypatch.setattr(tensorrep, "_TRACE_CACHE", {})
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
        bits = slot_bits(max(map(tensorrep.letter_bound, letters.values())))
        offset = max(map(tensorrep.letter_offset, letters.values()))
        for words in content_blocks(n, n):
            cols = psi_columns(letters, words, n, bits, offset)
            for x, op in whole.items():
                got = {w: unpacked(col, bits, offset) for w, col in cols[x].items()}
                assert got == {w: col for w, col in op.items() if w in words}, (x, words)

    def test_never_builds_an_operator(self, monkeypatch):
        # every call builds the columns of one content block only, never a whole operator
        build = tensorrep.psi_columns
        contents = []

        def one_block(words_of, inputs, r, bits, offset):
            inputs = list(inputs)
            contents.append({tuple(sorted(w)) for w in inputs})
            assert len(contents[-1]) == 1, contents[-1]
            return build(words_of, inputs, r, bits, offset)

        monkeypatch.setattr(tensorrep, "psi_columns", one_block)
        assert checks.psi_multiplicative(checks.basis_pairs(3), 3) is None
        assert len(contents) == len(list(content_blocks(3, 3)))


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

    def test_rank_reads_the_kernel_columns(self, monkeypatch):
        # e_j that keeps every word collapses P_j onto the identity: the rank drops
        monkeypatch.setattr(tensorrep, "_apply_e", lambda j, terms, r: terms)
        witness = checks.image_rank_equals_dim(2, 2)
        assert witness is not None and len(witness) == 2
        assert all(rank < 7 for rank in witness), witness
