"""Acceptance suite: one test per criterion, all exact (zero tolerance).

Each criterion runs the checks of `mirhecke.checks`, the same functions that
`mirhecke verify` runs, over the ranks and ranges the criterion names.  Run
with `pytest -s tests/test_acceptance.py` to see the per-criterion pass/fail
lines; `-m "not slow"` skips the optional rank-5 tensor items.
"""

import pytest

from mirhecke import checks, tensorrep
from mirhecke.characters import character_table, class_polynomials
from mirhecke.combinatorics import (
    BasisIndex,
    count_standard_basis_by_enumeration,
    standard_basis_count,
)
from mirhecke.ring import LaurentScalar, MINUS_ONE, ONE, Q, Q_MINUS_1, ZERO
from mirhecke.symfun import pieri_bruteforce, pieri_qtilde


def first_failure(witnesses):
    """The first witness that is not None, or None; stops at the first failure."""
    return next((w for w in witnesses if w is not None), None)


def report(num, desc, witness):
    """Print the criterion line and fail with the witness unless it is None."""
    print(f"[{'PASS' if witness is None else 'FAIL'}] criterion {num}: {desc}")
    assert witness is None, f"criterion {num} failed: {desc}; first failure: {witness}"


def test_criterion_01_presentation_relations():
    failures = [
        rep
        for n in (2, 3, 4)
        for rep in checks.run_suite("relations", n, n, "oracle", False)
        if rep["status"] != "pass"
    ]
    report(
        1,
        "defining relations hold through the rewrite engine and on tensor space, n = 2..4",
        failures or None,
    )


def test_criterion_02_dimension_formula():
    expected_head = [2, 7, 34, 209, 1546]
    mismatched = [
        n for n in range(1, 9) if count_standard_basis_by_enumeration(n) != standard_basis_count(n)
    ]
    head = [standard_basis_count(n) for n in range(1, 6)]
    ok = not mismatched and head == expected_head
    report(
        2,
        "enumerated index set matches sum C(n,k)^2 k!, n = 1..8",
        None if ok else {"mismatched n": mismatched, "head": head},
    )


def test_criterion_03_oracle_equivalence():
    # checks.basis_pairs: every pair for n <= 3, 200 pairs from Random(0) at n = 4
    witness = first_failure(
        checks.psi_multiplicative(checks.basis_pairs(n), n) for n in (1, 2, 3, 4)
    )
    report(3, "tensor action is multiplicative (n <= 3 exhaustive, n = 4 sampled)", witness)


def test_criterion_04_frobenius_identity():
    witness = first_failure(checks.frobenius_identity(n, n) for n in range(1, 6))
    two = LaurentScalar.from_int(2)
    want = [
        [ONE, ONE, MINUS_ONE, ONE],
        [ZERO, ONE, Q_MINUS_1, two],
        [ZERO, ZERO, MINUS_ONE, ONE],
        [ZERO, ZERO, Q, ONE],
    ]
    if witness is None and character_table(2).matrix() != want:
        witness = "rank-2 table differs from the worked values"
    report(4, "Frobenius identity for n = 1..5 and the exact n = 2 table", witness)


def test_criterion_05_recursion_vs_schur_weyl():
    witness = first_failure(checks.recursion_matches_oracle(n, n) for n in range(1, 5))
    report(5, "recursive characters equal Schur-Weyl trace columns, n <= 4", witness)


def test_criterion_06_pieri_rule():
    witness = checks.pieri_matches_bruteforce(5)
    if witness is None and pieri_qtilde(2, (), 5, variant="paper") == pieri_bruteforce(2, (), 5):
        witness = "the published coefficient list passes at m = 2"
    report(
        6,
        "strip Pieri rule matches the product oracle (and the published "
        "coefficient list fails at m = 2 as documented)",
        witness,
    )


def test_criterion_07_two_parameter_symmetry():
    report(
        7,
        "qtilde_m(y; q) = (-q)^(m-1) g_m(y; q^-1) for m <= 6, r <= 4",
        checks.two_parameter_symmetry(6),
    )


def test_criterion_08_generating_function_and_sequences():
    report(
        8,
        "generating function and sequence sums reproduce qtilde",
        checks.generating_and_sequences(5),
    )


def test_criterion_09_class_polynomials():
    t2 = character_table(2)
    worked = [
        (BasisIndex((2,), (1,), (1, 2)), {(1,): Q_MINUS_1, (): -Q}),
        (BasisIndex((1,), (2,), (1, 2)), {(): MINUS_ONE}),
        (BasisIndex((2,), (2,), (1, 2)), {(1,): ONE}),
    ]
    witness = first_failure(
        idx.to_json() if class_polynomials(2, idx, t2).coeffs != want else None
        for idx, want in worked
    )
    if witness is None:
        witness = first_failure(
            checks.class_polynomials_reconstruct(character_table(n), n) for n in (1, 2, 3)
        )
    report(9, "class polynomials: worked rank-2 values, Laurent entries, "
              "full reconstruction for n <= 3", witness)


def test_criterion_10_cocenter_dimension():
    witness = first_failure(
        checks.determinant_nonzero(table) or checks.vanishing_above_diagonal(table)
        for table in map(character_table, range(1, 6))
    )
    report(10, "table invertible at q0 in {2,3} and vanishing above size, n <= 5", witness)


def test_criterion_11_composition_invariance():
    witness = first_failure(checks.composition_invariance(n, n) for n in range(1, 5))
    report(11, "oracle traces are invariant under reordering composition parts", witness)


def test_criterion_12_image_rank():
    witness = first_failure(checks.image_rank_equals_dim(n, n) for n in (1, 2, 3))
    report(12, "tensor image rank equals the algebra dimension, n <= 3, two points", witness)


def test_criterion_13_semisimple_dimension_identity():
    witness = first_failure(checks.identity_column(character_table(n)) for n in range(1, 6))
    report(13, "sum of squared identity-character values equals the dimension, n <= 5", witness)


@pytest.mark.slow
def test_slow_rank5_oracle_column():
    """Optional extension of criterion 5 to n = 5 (rank-5 tensor traces)."""
    report(
        "5 (slow)",
        "recursive characters equal trace columns at n = 5",
        checks.recursion_matches_oracle(5, 5),
    )


@pytest.mark.slow
def test_slow_rank4_image_rank():
    """Optional extension of criterion 12 to n = 4, at the single point v0 = 2."""
    rank = tensorrep.image_rank(4, 4, 1)
    report("12 (slow)", "image rank at n = 4", None if rank == standard_basis_count(4) else rank)
