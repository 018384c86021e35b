"""Every record type behaves as the frozen dataclass it replaced: repr text
(SpecError messages embed it), equality and hashing by value, refused
assignment and deletion, construction by position or keyword with its
defaults, its own docstring, no instance __dict__, and copy and pickle
round trips."""

import copy
import pickle
from fractions import Fraction

import pytest

from latrec import (Box, EquationSpec, EvolutionState, FieldRow, HeatParams, InitialData,
                    Mismatch, RandomWalkParams, Region, RunConfig, StencilEntry, VerifyReport)

HALF, THIRD = Fraction(1, 2), Fraction(1, 3)
ENTRY = "StencilEntry(offset=(1,), time_level=0, coeff=Fraction(1, 2))"
SPEC = (f"EquationSpec(spatial_dim=1, time_order=1, spatial_shift=(0,), stencil=({ENTRY},), "
        "implicit_corner=False, implicit_coeff=None)")
ROW = "FieldRow(dim=1, values={(0,): Fraction(1, 2), (2,): Fraction(-3, 2)})"
REGION = "Region(box=Box(lo=(0,), hi=(1,)), t_lo=0, t_hi=3)"
MISMATCH = ("Mismatch(point=(1,), time=2, closed_value=Fraction(1, 2), "
            "oracle_value=Fraction(1, 3))")


def spec():
    return EquationSpec(1, 1, (0,), (StencilEntry((1,), 0, HALF),))


def row():
    return FieldRow(1, {(0,): HALF, (2,): Fraction(-3, 2)})


def region():
    return Region(Box((0,), (1,)), 0, 3)


def mismatch():
    return Mismatch((1,), 2, HALF, THIRD)


# one record of each of the 12 types, built fresh by each call, with the
# repr the frozen dataclasses gave
RECORDS = [
    (lambda: Box((0,), (1,)), "Box(lo=(0,), hi=(1,))"),
    (lambda: StencilEntry((1,), 0, HALF), ENTRY),
    (spec, SPEC),
    (row, ROW),
    (lambda: InitialData((row(),)), f"InitialData(rows=({ROW},))"),
    (region, REGION),
    (lambda: EvolutionState((row(),), 0), f"EvolutionState(rows=({ROW},), time=0)"),
    (mismatch, MISMATCH),
    (lambda: VerifyReport(4, (mismatch(),), 2),
     f"VerifyReport(checked=4, mismatches=({MISMATCH},), max_time=2)"),
    (lambda: RandomWalkParams(Fraction(2, 7), Fraction(3, 7), Fraction(2, 7)),
     "RandomWalkParams(p=Fraction(2, 7), d=Fraction(3, 7), q=Fraction(2, 7))"),
    (lambda: HeatParams(Fraction(2, 7)), "HeatParams(r=Fraction(2, 7))"),
    (lambda: RunConfig(spec(), InitialData((row(),)), region(), "verify", "csv", None),
     f"RunConfig(spec={SPEC}, initial=InitialData(rows=({ROW},)), query={REGION}, "
     "engine='verify', out_format='csv', out_path=None)"),
]
IDS = [text.split("(")[0] for _, text in RECORDS]


@pytest.mark.parametrize("make, text", RECORDS, ids=IDS)
def test_records_keep_the_dataclass_behaviour(make, text):
    record = make()
    cls = type(record)
    assert repr(record) == text
    assert record == make() and record is not make()
    assert not record != make()
    others = [other() for other, _ in RECORDS if other is not make]
    assert all(record != other and other != record for other in others)
    fields = cls.__slots__
    assert record != tuple(getattr(record, n) for n in fields)
    # by keyword, in any order, or mixed with positions
    assert cls(**{n: getattr(record, n) for n in reversed(fields)}) == record
    assert cls(getattr(record, fields[0]), **{n: getattr(record, n) for n in fields[1:]}) == record
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert repr(record) == text
    assert cls.__dict__["__doc__"]
    assert not hasattr(record, "__dict__")


def test_records_hash_by_value_and_a_field_row_does_not():
    assert hash(Box((0,), (1,))) == hash(Box((0,), (1,)))
    assert len({Box((0,), (1,)), Box((0,), (1,)), Box((0,), (2,))}) == 2
    assert hash(spec()) == hash(spec())
    assert {spec(): 1}[spec()] == 1
    with pytest.raises(TypeError):
        hash(row())


def test_defaults_fill_missing_fields_and_wrong_arguments_raise():
    plain = spec()
    assert (plain.implicit_corner, plain.implicit_coeff) == (False, None)
    corner = EquationSpec(1, 1, (1,), (StencilEntry((0,), 0, HALF),), implicit_coeff=THIRD,
                          implicit_corner=True)
    assert corner.implicit_corner and corner.implicit_coeff == THIRD
    empty = FieldRow(2)
    assert empty == FieldRow(2, {}) == FieldRow(dim=2) and empty.values == {}
    assert FieldRow(1).values is not FieldRow(1).values
    for args, kwargs in [(((0,),), {}), (((0,), (1,), (2,)), {}), (((0,),), {"lo": (0,)}),
                         (((0,), (1,)), {"mid": (0,)}), ((), {"hi": (1,)})]:
        with pytest.raises(TypeError):
            Box(*args, **kwargs)


@pytest.mark.parametrize("make", [make for make, _ in RECORDS], ids=IDS)
def test_records_copy_and_pickle_to_equal_records(make):
    record = make()
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol)) for protocol in (2, 5)]
    for other in copies:
        assert type(other) is type(record) and other == record
        assert repr(other) == repr(record)
    assert copies[1] is not record


def test_internal_rows_copy_and_pickle_too():
    trusted = FieldRow._trusted(1, {(3,): THIRD})
    assert copy.deepcopy(trusted) == trusted == pickle.loads(pickle.dumps(trusted, 5))
