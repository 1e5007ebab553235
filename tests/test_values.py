"""The contract of the package's value types: construction by position and by
keyword with the documented defaults, type-strict equality, value hashes,
refused assignment, pickle and copy round trips, and the `Name(field=value)`
repr."""

import copy
import pickle

import pytest

from sp2n.branching import LinearWeight, RealElementVerdict
from sp2n.criteria import FundamentalTwistException, HasOne, TensorCase, Verdict
from sp2n.elements import GammaGraph, SemisimpleElement
from sp2n.harness import SuiteReport
from sp2n.tori import TorusElement, TorusShape
from sp2n.weights import EpsWeight, Weight, WeightSet

SHAPE = TorusShape(((1, -1), (2, 1)))

# (class, positional arguments, the same value by keyword with its fields in
# canonical form, its repr)
VALUES = [
    (Weight, ((1, 0),), {"coeffs": (1, 0)}, "Weight(coeffs=(1, 0))"),
    (EpsWeight, ((1, 0),), {"coords": (1, 0)}, "EpsWeight(coords=(1, 0))"),
    (WeightSet, (2, ((1, 0), (1, 1))), {"rank": 2, "orbits": ((1, 1), (1, 0))},
     "WeightSet(rank=2, orbits=((1, 1), (1, 0)))"),
    (LinearWeight, ((0, 2),), {"coeffs": (0, 2)}, "LinearWeight(coeffs=(0, 2))"),
    (RealElementVerdict, ("guaranteed-one", ("Thm-th6",)), {"status": "guaranteed-one", "citations": ("Thm-th6",)},
     "RealElementVerdict(status='guaranteed-one', citations=('Thm-th6',))"),
    (Verdict, ("yes", ("Thm-si1",), True), {"decision": "yes", "citations": ("Thm-si1",), "fallback_used": True},
     "Verdict(decision='yes', citations=('Thm-si1',), fallback_used=True)"),
    (HasOne, (("Lem-pr4",),), {"citations": ("Lem-pr4",)}, "HasOne(citations=('Lem-pr4',))"),
    (FundamentalTwistException, (3, ("Prop-p49",)), {"index": 3, "citations": ("Prop-p49",)},
     "FundamentalTwistException(index=3, citations=('Prop-p49',))"),
    (TensorCase, (Weight((1, 0)), 1, 2, ("Prop-p49",)),
     {"base": Weight((1, 0)), "twist_level": 1, "base_delta": 2, "citations": ("Prop-p49",)},
     "TensorCase(base=Weight(coeffs=(1, 0)), twist_level=1, base_delta=2, citations=('Prop-p49',))"),
    (SemisimpleElement, (((2, 5, -1), (1, 3, -1)),), {"blocks": ((2, 5, -1), (1, 3, -1))},
     "SemisimpleElement(blocks=((2, 5, -1), (1, 3, -1)))"),
    (GammaGraph, (2, frozenset({(0, 1)}), ()), {"vertices": 2, "edges": frozenset({(0, 1)}), "singular": ()},
     "GammaGraph(vertices=2, edges=frozenset({(0, 1)}), singular=())"),
    (TorusShape, (((1, -1), (2, 1)),), {"blocks": ((2, 1), (1, -1))}, "TorusShape(blocks=((2, 1), (1, -1)))"),
    (TorusElement, (SHAPE, (2, 1)), {"shape": SHAPE, "exponents": (2, 1)},
     "TorusElement(shape=TorusShape(blocks=((2, 1), (1, -1))), exponents=(2, 1))"),
    (SuiteReport, ("si", 3, 1, [{"input": "n=3"}], ["note"], 0.5),
     {"suite": "si", "max_n": 3, "cases": 1, "failures": [{"input": "n=3"}], "notes": ["note"], "wall_time": 0.5},
     "SuiteReport(suite='si', max_n=3, cases=1, failures=[{'input': 'n=3'}], notes=['note'], wall_time=0.5)"),
]
FROZEN = [row for row in VALUES if row[0] is not SuiteReport]


def _ids(rows):
    return [cls.__name__ for cls, *_ in rows]


@pytest.mark.parametrize("cls, args, kwargs, text", VALUES, ids=_ids(VALUES))
def test_positional_and_keyword_construction_agree(cls, args, kwargs, text):
    a, b = cls(*args), cls(**kwargs)
    assert type(a) is cls and a == b and not a != b
    assert repr(a) == repr(b) == text


@pytest.mark.parametrize("cls, args, kwargs, text", FROZEN, ids=_ids(FROZEN))
def test_equal_values_hash_alike(cls, args, kwargs, text):
    assert hash(cls(*args)) == hash(cls(**kwargs))
    # the hash of the field tuple, so sets of values keep their iteration order
    assert hash(cls(*args)) == hash(tuple(kwargs.values()))
    assert len({cls(*args), cls(**kwargs)}) == 1


def test_defaults():
    assert Verdict("no", ("Thm-si1",)).fallback_used is False
    assert HasOne().citations == ()
    assert FundamentalTwistException(1).citations == ()
    assert TensorCase(Weight((1, 0)), 0, 1).citations == ()
    report = SuiteReport("si", 3, 1)
    assert (report.failures, report.notes, report.wall_time) == ([], [], 0.0)


def test_suite_report_lists_are_fresh_per_instance():
    a, b = SuiteReport("si", 3, 1), SuiteReport("si", 3, 1)
    a.failures.append({"input": "n=3"})
    a.notes.append("note")
    assert (b.failures, b.notes) == ([], [])
    assert a.failures is not b.failures and a.notes is not b.notes


def test_equality_is_type_strict():
    w, e, lam = Weight((1,)), EpsWeight((1,)), LinearWeight((1,))
    assert w != e and e != lam and w != lam
    assert w != (1,) and e != (1,) and lam != (1,)
    assert Weight((1,)) == w and Weight((0,)) != w
    assert HasOne(("Lem-pr4",)) != Verdict("yes", ("Lem-pr4",))


@pytest.mark.parametrize("cls, args, kwargs, text", FROZEN, ids=_ids(FROZEN))
def test_frozen_values_refuse_assignment_and_deletion(cls, args, kwargs, text):
    value = cls(*args)
    for name in kwargs:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(**kwargs)


def test_suite_report_stays_mutable_and_unhashable():
    report = SuiteReport("si", 3, 1)
    report.wall_time = 1.5
    report.cases += 1
    assert (report.wall_time, report.cases) == (1.5, 2)
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize("cls, args, kwargs, text", VALUES, ids=_ids(VALUES))
def test_pickle_and_copy_round_trip(cls, args, kwargs, text):
    value = cls(*args)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and repr(twin) == text
