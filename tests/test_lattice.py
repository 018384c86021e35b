from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latrec import (Box, EquationSpec, FieldRow, SpecError, StencilEntry,
                    tridiagonal_spec)


def test_field_get_examples():
    delta = FieldRow.delta(1)
    assert delta.get((0,)) == 1
    assert delta.get((7,)) == 0
    f2 = FieldRow(2, {(1, -1): Fraction(2, 3)})
    assert f2.get((1, -1)) == Fraction(2, 3)


def test_field_get_dimension_mismatch():
    with pytest.raises(SpecError):
        FieldRow.delta(1).get((0, 0))


@given(st.integers(-20, 20), st.fractions())
def test_support_never_stores_zero(point, value):
    f = FieldRow(1, {(point,): value})
    assert all(v != 0 for v in f.values.values())


def test_support_box_examples():
    assert FieldRow(1, {(-2,): 1, (5,): 3}).support_box() == Box((-2,), (5,))
    assert FieldRow.zero(1).support_box() is None
    assert FieldRow(2, {(0, 0): 1, (2, -3): 1}).support_box() == Box((0, -3), (2, 0))


def test_box_points_last_axis_fastest():
    assert list(Box((0, 5), (1, 6)).points()) == [(0, 5), (0, 6), (1, 5), (1, 6)]
    assert list(Box((2,), (2,)).points()) == [(2,)]


def test_spec_validation():
    with pytest.raises(SpecError):
        EquationSpec(1, 1, (0,), ())
    with pytest.raises(SpecError):
        EquationSpec(1, 1, (0,), (StencilEntry((0,), 0, Fraction(0)),))
    with pytest.raises(SpecError):
        EquationSpec(1, 1, (0,), (StencilEntry((0,), 0, Fraction(1)),
                                  StencilEntry((0,), 0, Fraction(2))))
    with pytest.raises(SpecError):
        EquationSpec(1, 1, (0,), (StencilEntry((0,), 1, Fraction(1)),))
    with pytest.raises(SpecError):
        EquationSpec(2, 1, (0, 0), (StencilEntry((0,), 0, Fraction(1)),))
    with pytest.raises(SpecError):
        EquationSpec(2, 1, (0, 0), (StencilEntry((0, 0), 0, Fraction(1)),),
                     implicit_corner=True, implicit_coeff=Fraction(1))


def test_zero_coeff_entries_are_dropped():
    spec = tridiagonal_spec(Fraction(1), Fraction(0), Fraction(2))
    assert len(spec.stencil) == 2
