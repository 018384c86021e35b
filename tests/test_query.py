"""lattice.Query: the one record a solve or verify reads its query through,
built by Query.of from a Region or a list of (point, time) pairs, which
checks it once; and the two readers of the library's other inputs:
lattice._as_count for times, counts and indices, lattice._as_fraction for
coefficients, probabilities and field values."""

import ast
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from latrec import (Box, EquationSpec, FieldRow, HeatParams, InitialData, RandomWalkParams,
                    Region, SpecError, StencilEntry, auto_window, closed_rows, closed_value,
                    corner_kernel, eval_implicit, eval_nd, eval_tridiagonal,
                    expand_stencil_power, heat_profile, oracle_evolve, oracle_sweep_implicit,
                    random_walk_distribution, tridiagonal_spec, verify_closed_vs_oracle)
from latrec import cli
from latrec.closed_form import closed_getter
from latrec.config import RunConfig
from latrec.lattice import Packing, Query

SRC = Path(__file__).resolve().parent.parent / "src" / "latrec"
SPEC = tridiagonal_spec(Fraction(1, 2), Fraction(1, 3), Fraction(1, 4))
DELTA = InitialData((FieldRow.delta(1),))


@st.composite
def regions_as_pairs(draw):
    """A Region, the same cells as a shuffled pair list, and a packing that
    holds the region's box, up to 3 cells wider on each side of each axis."""
    dim = draw(st.integers(1, 3))
    lo = tuple(draw(st.integers(-4, 4)) for _ in range(dim))
    hi = tuple(l + draw(st.integers(0, 3)) for l in lo)
    t_lo = draw(st.integers(0, 5))
    region = Region(Box(lo, hi), t_lo, draw(st.integers(t_lo, 8)))
    pairs = [(p, t) for p in region.box.points() for t in range(t_lo, region.t_hi + 1)]
    packing = Packing(Box(tuple(l - draw(st.integers(0, 3)) for l in lo),
                          tuple(h + draw(st.integers(0, 3)) for h in hi)))
    return dim, region, draw(st.permutations(pairs)), packing


def view(query):
    return None if query is None else (list(query.groups()), query.box, query.t_max,
                                       query.checked)


@given(regions_as_pairs())
def test_a_region_and_its_cells_listed_give_one_query(case):
    dim, region, pairs, packing = case
    by_region, by_pairs = Query.of(region, dim), Query.of(pairs, dim)
    assert view(by_region) == view(by_pairs)
    asked, region_keys = by_region.asked_keys(packing)
    pair_asked, pair_keys = by_pairs.asked_keys(packing)
    assert asked == pair_asked
    # each block's keys in its box's point order
    assert region_keys == [[packing.key(p) for p in region.box.points()]]
    assert pair_keys == [[packing.key(box.lo)] for box, _ in by_pairs.blocks]
    # a region packs its keys once, into one dict that all its times share:
    # its box's keys, at each of its times
    assert len({id(cells) for cells in asked.values()}) == 1
    cells = {packing.key(p): 1 for p in region.box.points()}
    assert asked == dict.fromkeys(range(region.t_lo, region.t_hi + 1), cells)
    for t in range(region.t_hi + 2):
        # the --tmax rules: a region's range ends at t, listed pairs after t
        # are dropped, and a query with nothing left is None
        want = (view(Query.of(Region(region.box, region.t_lo, min(region.t_hi, t)), dim))
                if t >= region.t_lo else None)
        assert view(by_region.cut(t)) == view(by_pairs.cut(t)) == want
        kept = [(p, s) for p, s in pairs if s <= t]
        assert view(by_pairs.cut(t)) == (view(Query.of(kept, dim)) if kept else None)


# a Region or a Box reads its own corners and times, so a query whose
# Region cannot be built is given as the function that builds it
BAD_QUERIES = [
    ([((0, 0), 1)], "query point has length 2, expected spatial dimension 1"),
    (Region(Box((0, 0), (1, 1)), 0, 2),
     "query box corner has length 2, expected spatial dimension 1"),
    ([((Fraction(1, 2),), 1)], "query point (Fraction(1, 2),) is not a sequence of integers"),
    (lambda: Region(Box((0.5,), (1,)), 0, 2), "box corner (0.5,) is not a sequence of integers"),
    ([((0,), 1.5)], "query time 1.5 is not an integer"),
    (lambda: Region(Box((0,), (1,)), 0, 2.5), "query time 2.5 is not an integer"),
    ([((0,), -1), ((0,), 3)], "query time -1 must be >= 0"),
    ([((0,), -1)], "query time -1 must be >= 0"),
    ([], "the query has no points"),
    ([((0,),)], "query pair ((0,),) is not a (point, time) pair"),
    ([((0,), 1, 2)], "query pair ((0,), 1, 2) is not a (point, time) pair"),
    ([5], "query pair 5 is not a (point, time) pair"),
    (5, "query 5 is not a Region or (point, time) pairs"),
    (None, "query None is not a Region or (point, time) pairs"),
]


@pytest.mark.parametrize("query, text", BAD_QUERIES)
def test_a_bad_query_is_refused_by_every_reader(query, text, monkeypatch, capsys):
    make = query if callable(query) else lambda: query
    with pytest.raises(SpecError) as info:
        Query.of(make(), 1)
    assert str(info.value) == text
    for evaluator in ("auto", "tridiagonal", "nd"):
        with pytest.raises(SpecError, match=re.escape(text)):
            verify_closed_vs_oracle(SPEC, DELTA, make(), evaluator=evaluator)
    for engine in ("closed", "oracle", "verify"):
        def config():
            return RunConfig(SPEC, DELTA, make(), engine, "csv", None)
        with pytest.raises(SpecError, match=re.escape(text)):
            cli.run(config())
        monkeypatch.setattr(cli, "load_config", lambda path: config())
        for command in ("solve", "verify"):
            assert cli.main([command, "--config", "unused.json"]) == 2
            assert capsys.readouterr() == ("", f"error: {text}\n")


HALF = Fraction(1, 2)
ABC = (HALF, Fraction(1, 3), Fraction(1, 4))
WALK = RandomWalkParams(Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
WINDOW = Box((-4,), (4,))
CORNER = (StencilEntry((0,), 0, HALF), StencilEntry((1,), 0, HALF))


def corner_spec(coeff):
    return EquationSpec(1, 1, (1,), CORNER, True, coeff)
NOT_INTS = [
    (lambda: closed_value(SPEC, DELTA, (0.5,), 3), "point (0.5,) is not a sequence of integers"),
    (lambda: closed_value(SPEC, DELTA, (0,), 3.0), "time 3.0 is not an integer"),
    (lambda: closed_value(SPEC, DELTA, (0,), "3"), "time '3' is not an integer"),
    (lambda: eval_nd(SPEC, DELTA.rows[0], (0,), 2.0), "time 2.0 is not an integer"),
    (lambda: oracle_evolve(SPEC, DELTA, 2.5), "t_max 2.5 is not an integer"),
    (lambda: closed_rows(SPEC, DELTA, 2.5), "t_max 2.5 is not an integer"),
    (lambda: heat_profile(HeatParams(HALF), DELTA.rows[0], 2.5), "t_max 2.5 is not an integer"),
    (lambda: random_walk_distribution(WALK, 2.0), "step count 2.0 is not an integer"),
    (lambda: expand_stencil_power(SPEC, 2.0), "power 2.0 is not an integer"),
    (lambda: eval_tridiagonal(*ABC, DELTA.rows[0], 1, 2.0), "time 2.0 is not an integer"),
    (lambda: eval_tridiagonal(*ABC, DELTA.rows[0], "1", 2), "point '1' is not an integer"),
    (lambda: eval_implicit(*ABC, DELTA.rows[0], 1.0, 2), "point 1.0 is not an integer"),
    (lambda: eval_implicit(*ABC, DELTA.rows[0], 1, "2"), "time '2' is not an integer"),
    (lambda: corner_kernel(2.0, 3, *ABC), "kernel index 2.0 is not an integer"),
    (lambda: corner_kernel(2, 3.0, *ABC), "kernel index 3.0 is not an integer"),
    (lambda: corner_kernel("2", 3, *ABC), "kernel index '2' is not an integer"),
    (lambda: oracle_sweep_implicit(*ABC, DELTA.rows[0], WINDOW, 2.5),
     "j_max 2.5 is not an integer"),
    (lambda: oracle_sweep_implicit(*ABC, DELTA.rows[0], WINDOW, "3"),
     "j_max '3' is not an integer"),
    (lambda: auto_window(SPEC, DELTA, 2.5), "t_max 2.5 is not an integer"),
    (lambda: auto_window(SPEC, DELTA, "3"), "t_max '3' is not an integer"),
    (lambda: auto_window(SPEC, DELTA, None), "t_max None is not an integer"),
    (lambda: auto_window(SPEC, DELTA, -1), "t_max must be >= 0"),
    (lambda: FieldRow(1.0, {(0,): 1}), "field dim 1.0 is not an integer"),
    (lambda: FieldRow("1", {}), "field dim '1' is not an integer"),
    (lambda: FieldRow(None), "field dim None is not an integer"),
    (lambda: EquationSpec(1.0, 1, (0,), SPEC.stencil), "spatial_dim 1.0 is not an integer"),
    (lambda: EquationSpec("1", 1, (0,), SPEC.stencil), "spatial_dim '1' is not an integer"),
    (lambda: EquationSpec(None, 1, (0,), SPEC.stencil), "spatial_dim None is not an integer"),
    (lambda: EquationSpec(1, 1.0, (0,), SPEC.stencil), "time_order 1.0 is not an integer"),
    (lambda: EquationSpec(1, "1", (0,), SPEC.stencil), "time_order '1' is not an integer"),
    (lambda: EquationSpec(1, None, (0,), SPEC.stencil), "time_order None is not an integer"),
    (lambda: Region(WINDOW, "0", 3), "query time '0' is not an integer"),
    (lambda: Region(WINDOW, None, 3), "query time None is not an integer"),
    (lambda: Box((0,), ("3",)), "box corner ('3',) is not a sequence of integers"),
    (lambda: Box(0, 3), "box corner 0 is not a sequence of integers"),
    (lambda: oracle_sweep_implicit(*ABC, DELTA.rows[0], Box((0,), (2.5,)), 2),
     "box corner (2.5,) is not a sequence of integers"),
    (lambda: closed_getter(SPEC, DELTA, "tridiagonal")((0,), 2.0), "time 2.0 is not an integer"),
    (lambda: closed_getter(SPEC, DELTA, "tridiagonal")(("1",), 2), "point '1' is not an integer"),
    (lambda: closed_getter(SPEC, DELTA, "tridiagonal")((0,), -1), "time must be >= 0"),
]


@pytest.mark.parametrize("call, text", NOT_INTS)
def test_a_time_or_point_that_is_not_an_int_is_refused(call, text):
    with pytest.raises(SpecError) as info:
        call()
    assert str(info.value) == text


def test_an_int_like_time_or_point_is_read_as_an_int():
    assert closed_value(SPEC, DELTA, [True], 3) == closed_value(SPEC, DELTA, (1,), 3)
    assert random_walk_distribution(WALK, True) == random_walk_distribution(WALK, 1)
    psi = DELTA.rows[0]
    for evaluate in (eval_tridiagonal, eval_implicit):
        assert evaluate(*ABC, psi, True, True) == evaluate(*ABC, psi, 1, 1)
    assert corner_kernel(True, True, *ABC) == corner_kernel(1, 1, *ABC)
    assert (oracle_sweep_implicit(*ABC, psi, WINDOW, True)
            == oracle_sweep_implicit(*ABC, psi, WINDOW, 1))


PSI = DELTA.rows[0]
NOT_RATIONALS = [
    (lambda: eval_tridiagonal(0.5, Fraction(1, 4), Fraction(1, 4), PSI, 0, 1),
     "coefficient a 0.5 is not an integer or a fraction"),
    (lambda: eval_tridiagonal(HALF, "1/4", HALF, PSI, 0, 1),
     "coefficient b '1/4' is not an integer or a fraction"),
    (lambda: eval_implicit(HALF, HALF, 0.25, PSI, 2, 1),
     "coefficient c 0.25 is not an integer or a fraction"),
    (lambda: corner_kernel(2, 3, "1", HALF, HALF),
     "coefficient a '1' is not an integer or a fraction"),
    (lambda: corner_kernel(2, 3, 1, 1.0, 1),
     "coefficient b 1.0 is not an integer or a fraction"),
    (lambda: oracle_sweep_implicit(HALF, 0.5, HALF, PSI, WINDOW, 2),
     "coefficient b 0.5 is not an integer or a fraction"),
    # a zero row reads no coefficient, and is refused all the same
    (lambda: oracle_sweep_implicit(HALF, HALF, "1/3", FieldRow.zero(1), None, 2),
     "coefficient c '1/3' is not an integer or a fraction"),
    (lambda: StencilEntry((0,), 0, 0.1),
     "stencil coefficient 0.1 is not an integer or a fraction"),
    (lambda: StencilEntry((0,), 0, "1/3"),
     "stencil coefficient '1/3' is not an integer or a fraction"),
    (lambda: StencilEntry((0,), 0, None),
     "stencil coefficient None is not an integer or a fraction"),
    (lambda: tridiagonal_spec(0.1, HALF, HALF),
     "coefficient a 0.1 is not an integer or a fraction"),
    (lambda: tridiagonal_spec(HALF, "1/3", HALF),
     "coefficient b '1/3' is not an integer or a fraction"),
    (lambda: tridiagonal_spec(HALF, HALF, None),
     "coefficient c None is not an integer or a fraction"),
    (lambda: FieldRow(1, {(0,): 0.5}), "field value 0.5 is not an integer or a fraction"),
    (lambda: FieldRow(1, {(0,): "1/2"}), "field value '1/2' is not an integer or a fraction"),
    (lambda: FieldRow(1, {(0,): None}), "field value None is not an integer or a fraction"),
    (lambda: corner_spec(0.5), "implicit_coeff 0.5 is not an integer or a fraction"),
    (lambda: corner_spec("1/2"), "implicit_coeff '1/2' is not an integer or a fraction"),
    (lambda: corner_spec(None), "implicit_coeff None is not an integer or a fraction"),
    (lambda: RandomWalkParams(0.5, 0.25, 0.25),
     "probability p 0.5 is not an integer or a fraction"),
    (lambda: RandomWalkParams(HALF, "1/4", Fraction(1, 4)),
     "probability d '1/4' is not an integer or a fraction"),
    (lambda: RandomWalkParams(HALF, HALF, None),
     "probability q None is not an integer or a fraction"),
    (lambda: HeatParams(0.25), "transfer coefficient r 0.25 is not an integer or a fraction"),
    (lambda: HeatParams("1/4"), "transfer coefficient r '1/4' is not an integer or a fraction"),
    (lambda: HeatParams(None), "transfer coefficient r None is not an integer or a fraction"),
]


@pytest.mark.parametrize("call, text", NOT_RATIONALS)
def test_a_coefficient_that_is_not_an_int_or_a_fraction_is_refused(call, text):
    with pytest.raises(SpecError) as info:
        call()
    assert str(info.value) == text


def test_int_coefficients_equal_their_fractions():
    ints, fractions = (1, 2, 3), tuple(map(Fraction, (1, 2, 3)))
    mixed = (1, Fraction(2), True)
    assert eval_tridiagonal(*ints, PSI, 0, 1) == 2
    for evaluate in (eval_tridiagonal, eval_implicit):
        for i, j in ((0, 1), (2, 3), (-1, 4)):
            assert evaluate(*ints, PSI, i, j) == evaluate(*fractions, PSI, i, j)
            assert evaluate(*mixed, PSI, i, j) == evaluate(1, 2, 1, PSI, i, j)
    assert corner_kernel(2, 3, *ints) == corner_kernel(2, 3, *fractions)
    assert (oracle_sweep_implicit(*ints, PSI, WINDOW, 3)
            == oracle_sweep_implicit(*fractions, PSI, WINDOW, 3))
    # the constructors read ints and bools as their Fractions, True as 1
    one, two = Fraction(1), Fraction(2)
    built = [
        (StencilEntry((0,), 0, True), StencilEntry((0,), 0, one)),
        (StencilEntry((0,), 0, 2), StencilEntry((0,), 0, two)),
        (tridiagonal_spec(*mixed), tridiagonal_spec(one, two, one)),
        (FieldRow(True, {(0,): 2, (1,): True, (2,): 0}), FieldRow(1, {(0,): two, (1,): one})),
        (corner_spec(True), corner_spec(one)),
        (corner_spec(2), corner_spec(two)),
        (EquationSpec(True, True, (0,), SPEC.stencil), SPEC),
        (RandomWalkParams(0, True, False), RandomWalkParams(0 * one, one, 0 * one)),
        (HeatParams(True), HeatParams(one)),
        (HeatParams(2), HeatParams(two)),
    ]
    for given_ints, given_fractions in built:
        assert given_ints == given_fractions
        assert repr(given_ints) == repr(given_fractions)


def test_a_query_of_another_dimension_is_refused():
    query = Query.of([((0, 0), 1)], 2)
    assert Query.of(query, 2) is query
    with pytest.raises(SpecError, match="query point has length 2"):
        Query.of(query, 1)


def is_region_check(node):
    """An isinstance call whose class argument names Region."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance" and len(node.args) == 2):
        return False
    return any(isinstance(n, ast.Name) and n.id == "Region"
               or isinstance(n, ast.Attribute) and n.attr == "Region"
               for n in ast.walk(node.args[1]))


def test_only_query_of_reads_the_form_of_a_query():
    inside, outside = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_of = {id(n) for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) and cls.name == "Query"
                 for fn in cls.body if isinstance(fn, ast.FunctionDef) and fn.name == "of"
                 for n in ast.walk(fn)}
        for node in ast.walk(tree):
            if is_region_check(node):
                (inside if id(node) in in_of else outside).append(f"{path.name}:{node.lineno}")
    assert not outside
    assert len(inside) == 1


def test_config_imports_nothing_from_oracle():
    tree = ast.parse((SRC / "config.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert "oracle" not in (node.module or "").split(".")
            assert all(alias.name != "oracle" for alias in node.names)
        elif isinstance(node, ast.Import):
            assert all("oracle" not in alias.name.split(".") for alias in node.names)
