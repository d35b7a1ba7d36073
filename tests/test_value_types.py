"""Value semantics of the package's five value types.

`BasisIndex`, `AlgebraElement`, `SymPoly`, `CharacterTable` and
`ClassPolyVector` are slotted classes with hand-written constructors,
comparisons and reprs.  Where a dataclass would generate them (the reprs of
`CharacterTable` and `ClassPolyVector`, the order and repr of `BasisIndex`),
they are checked against a dataclass with the same fields and options.
"""

import copy
import dataclasses
import pickle

import pytest

from mirhecke.algebra import AlgebraElement, gen_T
from mirhecke.characters import CharacterTable, ClassPolyVector, character_table, class_polynomials
from mirhecke.combinatorics import BasisIndex, standard_basis
from mirhecke.ring import ONE, V
from mirhecke.symfun import SymPoly, schur


@dataclasses.dataclass
class RefCharacterTable:
    n: int
    labels: list
    entries: dict
    variant: str = "oracle"


@dataclasses.dataclass
class RefClassPolyVector:
    index: BasisIndex
    coeffs: dict


@dataclasses.dataclass(frozen=True, order=True)
class RefBasisIndex:
    A: tuple
    B: tuple
    w: tuple


def samples():
    """{type name: (value, an equal value built apart, an unequal value)}."""
    table = character_table(2)
    idx, other = standard_basis(2)[3], standard_basis(2)[4]
    poly = class_polynomials(2, idx)
    return {
        "BasisIndex": (idx, BasisIndex((1,), (2,), (1, 2)), other),
        "AlgebraElement": (gen_T(2, 1), gen_T(2, 1), gen_T(2, 1).scale(V)),
        "SymPoly": (schur((2,), 2), schur((2,), 2), schur((1, 1), 2)),
        "CharacterTable": (
            table,
            CharacterTable(2, list(table.labels), dict(table.entries)),
            CharacterTable(2, table.labels, table.entries, "paper"),
        ),
        "ClassPolyVector": (
            poly,
            ClassPolyVector(BasisIndex((1,), (2,), (1, 2)), dict(poly.coeffs)),
            ClassPolyVector(other, poly.coeffs),
        ),
    }


SAMPLES = samples()
TYPES = sorted(SAMPLES)


@pytest.mark.parametrize("name", TYPES)
def test_equality(name):
    x, twin, other = SAMPLES[name]
    assert x == twin and not x != twin and twin is not x
    assert x != other and not x == other
    # another type never compares equal, even one holding the same fields
    assert x != (x,) and x != None  # noqa: E711


@pytest.mark.parametrize("name", TYPES)
def test_hashable_only_when_frozen(name):
    x = SAMPLES[name][0]
    if name == "BasisIndex":
        assert hash(x) == hash((x.A, x.B, x.w))
    else:
        # mutable like the dict it holds: eq without frozen leaves it unhashable
        with pytest.raises(TypeError):
            hash(x)


@pytest.mark.parametrize("name", TYPES)
def test_slots_without_instance_dict(name):
    x = SAMPLES[name][0]
    assert not hasattr(x, "__dict__")
    with pytest.raises(AttributeError):
        x.extra = 1


@pytest.mark.parametrize("name", TYPES)
def test_copy_and_pickle_round_trip(name):
    x = SAMPLES[name][0]
    for twin in [copy.copy(x), copy.deepcopy(x)] + [
        pickle.loads(pickle.dumps(x, protocol)) for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)
    ]:
        assert twin == x and type(twin) is type(x) and repr(twin) == repr(x)


@pytest.mark.parametrize("cls,arg", [(AlgebraElement, 2), (SymPoly, 2)])
def test_default_terms_are_a_fresh_dict(cls, arg):
    a, b = cls(arg), cls(arg)
    assert a.terms == {} and a.terms is not b.terms
    a.terms[()] = ONE
    assert b.terms == {} and cls(arg).terms == {}


@pytest.mark.parametrize("cls,arg,key", [(AlgebraElement, 1, BasisIndex((), (), (1,))), (SymPoly, 1, (1,))])
def test_terms_are_copied_without_zeros(cls, arg, key):
    terms = {key: ONE}
    x = cls(arg, terms)
    assert x.terms == terms and x.terms is not terms
    assert cls(arg, {key: ONE - ONE}).terms == {}


def test_character_table_matches_the_dataclass():
    t = SAMPLES["CharacterTable"][0]
    ref = RefCharacterTable(t.n, t.labels, t.entries, t.variant)
    assert repr(t) == repr(ref).replace("RefCharacterTable", "CharacterTable")
    assert repr(CharacterTable(1, [], {})) == "CharacterTable(n=1, labels=[], entries={}, variant='oracle')"
    # the fields stay assignable, as in the unfrozen dataclass
    t2 = CharacterTable(t.n, t.labels, t.entries)
    t2.variant = "paper"
    assert t2 == SAMPLES["CharacterTable"][2]


def test_class_poly_vector_matches_the_dataclass():
    f = SAMPLES["ClassPolyVector"][0]
    ref = RefClassPolyVector(f.index, f.coeffs)
    assert repr(f) == repr(ref).replace("RefClassPolyVector", "ClassPolyVector")


class TestBasisIndex:
    def test_immutable(self):
        idx = BasisIndex((1,), (2,), (1, 2))
        for name in ("A", "B", "w", "_hash", "n", "extra"):
            with pytest.raises(AttributeError):
                setattr(idx, name, ())
            with pytest.raises(AttributeError):
                delattr(idx, name)
        assert (idx.A, idx.B, idx.w) == ((1,), (2,), (1, 2))

    def test_order_and_repr_match_the_dataclass(self):
        basis = standard_basis(3)
        refs = {idx: RefBasisIndex(idx.A, idx.B, idx.w) for idx in basis}
        for x in basis[::3]:
            for y in basis[::2]:
                rx, ry = refs[x], refs[y]
                assert (x < y, x <= y, x > y, x >= y, x == y) == (rx < ry, rx <= ry, rx > ry, rx >= ry, rx == ry)
            assert repr(x) == repr(refs[x]).replace("RefBasisIndex", "BasisIndex")
        with pytest.raises(TypeError):
            basis[0] < (basis[0].A, basis[0].B, basis[0].w)

    def test_pickle_rebuilds_the_hash_and_the_guard(self):
        idx = BasisIndex((1, 3), (2, 3), (1, 2, 3))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            twin = pickle.loads(pickle.dumps(idx, protocol))
            assert twin == idx and hash(twin) == hash(idx) == hash((idx.A, idx.B, idx.w))
            with pytest.raises(AttributeError):
                twin.A = ()
        assert {copy.copy(idx): 1}[idx] == 1
