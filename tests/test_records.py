"""The record classes: equality and hashing by fields, frozen assignment,
fields left out of equality, and per-instance defaults."""

import pytest

from arrange.cli import JobSpec
from arrange.models import ArrangementModel, MonReport
from arrange.poset import AdmissibilityReport, Flat, IntersectionPoset, Member
from arrange.projective import ProjProduct
from arrange.spectral import FeasibilityResult, RunResult, WeightedCell
import arrange.stalks as stalks_mod
from arrange.stalks import PointwiseReport, Summand
from helpers import SpaceMap, run_child, space_map


# per frozen class: two records built apart with equal fields, and a third
# that differs from them in one field
FROZEN = [
    (Member("x", "H0", 1), Member("x", "H0", 1), Member("x", "H0", 2)),
    (Flat(3, 2, ("lin", 0b011), "F3"), Flat(3, 2, ("lin", 0b011), "F3"),
     Flat(3, 2, ("lin", 0b101), "F3")),
    (ProjProduct((1, 2)), ProjProduct([1, "2"]), ProjProduct((2, 1))),
    (space_map(1, 2), space_map(1, 2), space_map(1, 2, scale=2)),
    (WeightedCell(((0, ((1,),), 1),)),
     WeightedCell(((0, ((1,),), 1),)),
     WeightedCell(((0, ((1,),), 2),))),
    (Summand(4, 1, 2), Summand(4, 1, 2), Summand(4, 1, 3)),
]


# a poset compares by identity, so the models below share this one
POSET = IntersectionPoset.from_linear_forms([([1, 0], 0), ([0, 1], 0)], 1,
                                            "projective")


def mutable_records():
    return [
        JobSpec("run", {}), ArrangementModel("abstract", POSET, {0: (1,)}),
        MonReport([], [], []), AdmissibilityReport([]),
        RunResult(None, None, None, {}), FeasibilityResult({}),
        PointwiseReport()]


@pytest.mark.parametrize("a, b, other", FROZEN,
                         ids=[type(t[0]).__name__ for t in FROZEN])
def test_frozen_records_compare_and_hash_by_fields(a, b, other):
    assert a is not b and a == b and not a != b
    assert a != other and other != a
    assert a != tuple(getattr(a, n) for n in type(a).__slots__)
    if isinstance(a, SpaceMap):
        # the oracle's map: its generator images are cohomology classes,
        # which do not hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2


@pytest.mark.parametrize("record", [t[0] for t in FROZEN],
                         ids=[type(t[0]).__name__ for t in FROZEN])
def test_frozen_records_refuse_assignment(record):
    name = type(record).__slots__[0]
    before = getattr(record, name)
    with pytest.raises(AttributeError, match="frozen"):
        setattr(record, name, 0)
    with pytest.raises(AttributeError, match="frozen"):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 0
    assert getattr(record, name) == before


def test_frozen_assignment_raises_under_optimisation(tmp_path):
    # refused with raise, not assert, so it holds under python -O
    code = ("from arrange.poset import Flat\n"
            "f = Flat(1, 1, 'k', 'F1')\n"
            "try:\n"
            "    f.codim = 2\n"
            "except AttributeError as exc:\n"
            "    print('refused', f.codim, exc)\n")
    proc = run_child(tmp_path, "-O", "-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("refused 1 cannot assign to field 'codim'")


def test_mutable_records_are_unhashable_and_assignable():
    for record in mutable_records():
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
        name = type(record).__slots__[0]
        setattr(record, name, "changed")
        assert getattr(record, name) == "changed"


def test_mutable_records_compare_by_fields():
    assert mutable_records() == mutable_records()
    assert AdmissibilityReport([], "n") != AdmissibilityReport([])
    assert FeasibilityResult({}, splits=1) != FeasibilityResult({})


def test_derived_facts_are_read_not_stored():
    # a report passes when its list of failures is empty, and a model's c
    # is its poset's; neither is a field that could disagree
    for passed, failed in [
            (PointwiseReport(), PointwiseReport([{"flat": 1}])),
            (AdmissibilityReport([]), AdmissibilityReport([1])),
            (MonReport([1], [], []), MonReport([], [1], []))]:
        assert passed.ok and not failed.ok
        assert "ok" not in type(passed).__slots__
    model = ArrangementModel("abstract", POSET, {0: (1,)})
    assert model.c == POSET.codim_c == 1
    assert "c" not in ArrangementModel.__slots__


def test_defaults_are_fresh_per_instance():
    a, b = PointwiseReport(), PointwiseReport()
    assert a.mismatches == [] and a.mismatches is not b.mismatches
    a.mismatches.append(1)
    assert b.mismatches == []


def test_stalk_memo_lives_in_the_callers_dict():
    # the model keeps no memo: _stalk_table fills the dict it is given,
    # and the model compares and shows as before
    model = mutable_records()[1]
    memo = {}
    table = stalks_mod._stalk_table(model.poset, POSET.bottom, memo)
    assert table == {0: 1}
    assert list(memo.values()) == [{0: 1}]
    assert model == mutable_records()[1]
    assert repr(model) == repr(mutable_records()[1])
    assert "memo" not in " ".join(ArrangementModel.__slots__)


def test_repr_names_the_fields():
    assert repr(Summand(4, 1, 2)) == (
        "Summand(support=4, level=1, multiplicity=2)")
    assert repr(ProjProduct((1,))) == "ProjProduct(factor_dims=(1,))"
