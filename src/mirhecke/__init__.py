"""Exact computational kernel for the mirabolic Hecke algebra.

Subpackages:

- `ring`: Laurent scalars over Z[v, v^-1] (q = v^2), exact division,
  fraction-free linear solving and the rank of sparse rational matrices.
- `combinatorics`: partitions, skew strips, Kostka numbers, permutations,
  and the standard basis index set.
- `algebra`: normal-form arithmetic in the standard basis.
- `symfun`: symmetric polynomials (monomial/Schur bases), the
  Hall-Littlewood-type generators driving the character theory, strip
  weights and the transition coefficients of the strip Pieri rule.
- `characters`: the recursive character engine, character tables, and
  class polynomials.
- `tensorrep`: the sparse tensor-space action, the weighted-trace
  character oracle used for cross-validation, and the rank of the image.
- `checks`: the verification checks, each comparing a result against an
  independent route; `mirhecke verify` and the test suite both run them.
- `cli`: the `mirhecke` command-line interface.
"""

from .ring import LaurentScalar, solve_linear
from .combinatorics import BasisIndex, SkewStripData, partitions_up_to, standard_basis
from .algebra import AlgebraElement, GeneratorWord, basis_word, hat_T, mul, rmul_gen
from .symfun import SymPoly, qtilde, schur, schur_expand
from .characters import CharacterTable, character_table, class_polynomials, mn_character
from .tensorrep import char_oracle, image_rank, trace_D

__all__ = [
    "LaurentScalar",
    "solve_linear",
    "BasisIndex",
    "SkewStripData",
    "partitions_up_to",
    "standard_basis",
    "AlgebraElement",
    "GeneratorWord",
    "basis_word",
    "hat_T",
    "mul",
    "rmul_gen",
    "SymPoly",
    "qtilde",
    "schur",
    "schur_expand",
    "CharacterTable",
    "character_table",
    "class_polynomials",
    "mn_character",
    "char_oracle",
    "image_rank",
    "trace_D",
]
