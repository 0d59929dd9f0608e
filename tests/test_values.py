"""The value types against the frozen dataclasses they replace.

Each reference below is the dataclass the class used to be, rebuilt here with
`dataclasses.make_dataclass`: same fields, same defaults, and the class's own
``__repr__`` and methods where it writes them.  The plain ``__slots__`` classes must agree
with it on equality, the exact hash, repr, defaults and keyword construction,
refuse assignment (all but the mutable `MultTable`), and survive pickle and
copy.
"""

import copy
import dataclasses
import pickle
import re
import types
from fractions import Fraction

import pytest

from kmjm.cli import RunConfig
from kmjm.gcm import GCM, TypeTag
from kmjm.lattice import Coweight, RootVec, Value, WeylWord, rootvec
from kmjm.pisystem import PiSystem
from kmjm.rank2 import IntersectionVerdict, InterleavingReport, Rank2Label
from kmjm.realize import NilpotencyResult
from kmjm.roots import MultTable
from kmjm.sl2 import RealizedTriple, SL2Triple
from kmjm.sweeps import SuiteReport, SweepConfig, SweepInstance

_NO = dataclasses.MISSING
A2 = GCM(((2, -1), (-1, 2)), (1, 1))
H3 = GCM(((2, -3), (-3, 2)), (1, 1))
SIGMA = PiSystem(A2, (RootVec((1, 0)),), GCM(((2,),), (1,)))

# class: (fields with their defaults, two different argument tuples)
CASES = {
    RootVec: ({"coeffs": _NO}, ((1, 0),), ((0, 1),)),
    Coweight: ({"values": _NO}, ((1, 2),), ((2, 1),)),
    WeylWord: ({"letters": _NO}, ((1, 2, 1),), ((2,),)),
    GCM: ({"entries": _NO, "symmetrizer": _NO}, (A2.entries, (1, 1)), (H3.entries, (1, 1))),
    TypeTag: ({"kind": _NO, "hyperbolic": False}, ("finite",), ("indefinite", True)),
    PiSystem: (
        {"gcm": _NO, "roots": _NO, "induced": _NO},
        (A2, (RootVec((1, 0)),), SIGMA.induced),
        (A2, (RootVec((0, 1)),), SIGMA.induced),
    ),
    MultTable: (
        {"gcm": _NO, "height": _NO, "mult": dict},
        (A2, 1),
        (A2, 2, {RootVec((1, 0)): 1, RootVec((1, 1)): 1}),
    ),
    RunConfig: (
        {"seed": 20260819, "cap": None, "fmt": "json", "height_default": None},
        (),
        (7, 100, "tsv", 0),
    ),
    Rank2Label: ({"family": _NO, "j": _NO}, ("LL", 0), ("SU", 2)),
    IntersectionVerdict: (
        {"kind": _NO, "roots": _NO, "swapped": False},
        ("Single", (RootVec((1, 0)),)),
        ("ExceptionalI", (RootVec((1, 3)), RootVec((2, 7))), True),
    ),
    InterleavingReport: (
        {"a": _NO, "b": _NO, "J": _NO, "case": _NO, "chains": _NO, "ok": _NO,
         "first_violation": None},
        (5, 1, 4, "b", ("gamma increasing",), True),
        (5, 2, 4, "a", ("eta increasing",), False, "eta_2 >= eta_3"),
    ),
    NilpotencyResult: ({"probe": _NO, "degree": _NO, "reason": None}, (0, 3), (1, None, "window")),
    SL2Triple: (
        {"sigma": _NO, "coeffs": _NO, "mu": _NO, "h_coords": _NO},
        (SIGMA, (Fraction(1),), (Fraction(1),), (Fraction(1), Fraction(0))),
        (SIGMA, (Fraction(2),), (Fraction(1),), (Fraction(1), Fraction(0))),
    ),
    RealizedTriple: ({"e": _NO, "h": _NO, "f": _NO}, ("e1", "h1", "f1"), ("e2", "h1", "f1")),
    SweepConfig: (
        {"seed": 20260819, "instances": 500, "cap": None},
        (),
        (7, 50, 100),
    ),
    SuiteReport: (
        {"suite": _NO, "seed": _NO, "cases": _NO, "failures": ()},
        ("symprop", 1, 10),
        ("regdomthm", 1, 500, ((("instance", 3),),)),
    ),
    SweepInstance: (
        {"index": _NO, "matrix": _NO, "word": _NO, "tau": _NO, "d": _NO},
        (0, A2.entries, (1, 2), (1, 1), 2),
        (1, A2.entries, (1, 2), (1, 1), 3),
    ),
}


def _reference(cls, defaults):
    specs = []
    for name, default in defaults.items():
        if default is _NO:
            specs.append((name, object))
        elif default is dict:
            specs.append((name, object, dataclasses.field(default_factory=dict)))
        else:
            specs.append((name, object, dataclasses.field(default=default)))
    # the class's own methods (its repr may call them), not the generated ones
    own = {
        k: v for k, v in vars(cls).items()
        if (k == "__repr__" or not k.startswith("__"))
        and not isinstance(v, types.MemberDescriptorType)
    }
    return dataclasses.make_dataclass(
        cls.__name__, specs, frozen=cls is not MultTable, namespace=own
    )


def test_every_value_type_is_covered():
    assert set(Value.__subclasses__()) == set(CASES) and len(CASES) == 17


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_value_type_matches_its_dataclass(cls):
    defaults, args1, args2 = CASES[cls]
    names = tuple(defaults)
    assert cls.__slots__ == names
    ref = _reference(cls, defaults)
    a1, a2, r1, r2 = cls(*args1), cls(*args2), ref(*args1), ref(*args2)

    # equality, only within the class
    assert a1 == cls(*args1) and not a1 != cls(*args1)
    assert (a1 == a2) is (r1 == r2) is False
    assert a1 != r1 and a1 != args1

    # defaults, and keyword construction
    for name in names:
        assert getattr(a1, name) == getattr(r1, name), name
    assert cls(**{n: getattr(a2, n) for n in names}) == a2

    assert repr(a1) == repr(r1) and repr(a2) == repr(r2)

    if cls is MultTable:
        with pytest.raises(TypeError):
            hash(a1)
        assert cls(*args1).mult is not a1.mult  # a fresh dict per instance
        a1.height = 5
        assert a1.height == 5
    else:
        assert hash(a1) == hash(r1) == hash(tuple(getattr(a1, n) for n in names))
        assert hash(a2) == hash(r2)
        for name in names:
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(a2, name, None)
            with pytest.raises(AttributeError, match="cannot delete field"):
                delattr(a2, name)
        assert cls(*args2) == a2

    for twin in (pickle.loads(pickle.dumps(a2)), copy.copy(a2), copy.deepcopy(a2)):
        assert type(twin) is cls and twin == a2 and repr(twin) == repr(a2)


def test_rootvec_keeps_its_argument():
    # RootVec takes an int tuple as it is; rootvec(), Coweight and WeylWord
    # take outside input, and only int entries: a bool, a float or a string
    # is refused by name
    assert RootVec((True, 0)).coeffs[0] is True
    v = rootvec([1, 0])
    assert v.coeffs == (1, 0) and type(v.coeffs) is tuple
    assert v == RootVec((1, 0)) and hash(v) == hash(RootVec((1, 0)))
    for bad in (True, 1.0, "1"):
        with pytest.raises(TypeError, match=re.escape(repr(bad))):
            rootvec([bad, 0])
    for bad in (True, 0.5, "1"):
        for cls in (Coweight, WeylWord):
            with pytest.raises(TypeError, match=re.escape(repr(bad))):
                cls([1, bad])
    assert Coweight([0, 2]).values == (0, 2) and WeylWord([1, 2]).letters == (1, 2)


def test_rank2_label_still_validates():
    with pytest.raises(ValueError, match="unknown family"):
        Rank2Label("XX", 0)
    with pytest.raises(ValueError, match="nonnegative"):
        Rank2Label(family="LL", j=-1)
