"""Run configuration documents.

A config document is JSON with an equation (inline stencil or preset), the
initial data, a query, and engine/output options:

    {
      "spatial_dim": 1, "time_order": 1, "spatial_shift": [0],
      "implicit_corner": false,
      "stencil": [{"offset": [-1], "time_level": 0, "coeff": "1/2"}, ...],
      "initial": {"rows": [[{"at": [0], "value": "1"}]]},
      "query": {"box": [[-6, 6]], "times": [0, 6]},
      "engine": "verify",
      "output": {"format": "csv", "path": null}
    }

Rationals appear everywhere in the exact text form ``num`` or ``num/den``.
``{"initial": {"builtin": "delta"}}`` is unit mass at the origin of row 0.
Presets replace the equation block: ``{"preset": "random-walk", "p": ...,
"d": ..., "q": ...}`` or ``{"preset": "heat", "r": ...}``.  Errors carry the
JSON path of the offending element.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .exactnum import ParseError, format_rational, parse_rational
from .lattice import (Box, EquationSpec, FieldRow, InitialData, Point, Query, Record,
                      Region, SpecError, StencilEntry, _set, query_packing)
from .models import HeatParams, RandomWalkParams, heat_spec, random_walk_spec

ENGINES = ("closed", "oracle", "verify")
FORMATS = ("csv", "json")
DEFAULT_QUERY_TMAX = 5
# bounds the k initial rows a "builtin" block builds; far above the orders
# the corpus and tests use (at most 3)
MAX_TIME_ORDER = 1000


class ConfigError(ValueError):
    """Schema or constraint violation, annotated with a JSON path."""

    def __init__(self, path: str, reason: str):
        self.path = path
        self.reason = reason
        super().__init__(f"{path}: {reason}")


class RunConfig(Record):
    """One parsed config document: the equation, its data, the query and the output."""
    __slots__ = ("spec", "initial", "query", "engine", "out_format", "out_path")

    def __init__(self, spec: EquationSpec, initial: InitialData,
                 query: Region | tuple[tuple[Point, int], ...], engine: str, out_format: str,
                 out_path: str | None):
        _set(self, "spec", spec)
        _set(self, "initial", initial)
        _set(self, "query", query)
        _set(self, "engine", engine)
        _set(self, "out_format", out_format)
        _set(self, "out_path", out_path)

    @property
    def query_points(self) -> list[tuple[Point, int]]:
        """The query as an explicit (point, time) list, region expanded,
        sorted lexicographically by point then time (lattice.Query.groups)."""
        return [(p, t) for p, times in Query.of(self.query, self.spec.spatial_dim).groups()
                for t in times]

    @property
    def t_max(self) -> int:
        return Query.of(self.query, self.spec.spatial_dim).t_max


def _rational(value, path: str) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError(path, f"expected rational text, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str):
        raise ConfigError(path, f"expected rational text, got {type(value).__name__}")
    try:
        return parse_rational(value)
    except ParseError as exc:
        raise ConfigError(path, str(exc)) from exc


def _int(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    return value


def _point(value, dim: int, path: str) -> Point:
    if not isinstance(value, list) or len(value) != dim:
        raise ConfigError(path, f"expected a list of {dim} integers")
    return tuple(_int(c, f"{path}[{i}]") for i, c in enumerate(value))


def _parse_preset(doc: dict) -> EquationSpec:
    name = doc["preset"]
    try:
        if name == "random-walk":
            params = RandomWalkParams(_rational(doc.get("p", "0"), "p"),
                                      _rational(doc.get("d", "0"), "d"),
                                      _rational(doc.get("q", "0"), "q"))
            return random_walk_spec(params)
        if name == "heat":
            if "r" not in doc:
                raise ConfigError("r", "heat preset needs r")
            return heat_spec(HeatParams(_rational(doc["r"], "r")))
    except SpecError as exc:
        raise ConfigError("preset", str(exc)) from exc
    raise ConfigError("preset", f"unknown preset {name!r}; "
                                f"expected 'random-walk' or 'heat'")


def _parse_equation(doc: dict) -> EquationSpec:
    if "preset" in doc:
        return _parse_preset(doc)
    for key in ("spatial_dim", "time_order", "spatial_shift", "stencil"):
        if key not in doc:
            raise ConfigError(key, "missing required field")
    dim = _int(doc["spatial_dim"], "spatial_dim")
    if dim < 1:
        raise ConfigError("spatial_dim", "must be >= 1")
    order = _int(doc["time_order"], "time_order")
    if order < 1:
        raise ConfigError("time_order", "must be >= 1")
    if order > MAX_TIME_ORDER:
        raise ConfigError("time_order", f"must be <= {MAX_TIME_ORDER}")
    shift = _point(doc["spatial_shift"], dim, "spatial_shift")
    raw = doc["stencil"]
    if not isinstance(raw, list):
        raise ConfigError("stencil", "expected a list of entries")
    entries = []
    for idx, entry in enumerate(raw):
        at = f"stencil[{idx}]"
        if not isinstance(entry, dict):
            raise ConfigError(at, "expected an object")
        for key in ("offset", "time_level", "coeff"):
            if key not in entry:
                raise ConfigError(f"{at}.{key}", "missing required field")
        entries.append(StencilEntry(
            _point(entry["offset"], dim, f"{at}.offset"),
            _int(entry["time_level"], f"{at}.time_level"),
            _rational(entry["coeff"], f"{at}.coeff")))
    implicit = doc.get("implicit_corner", False)
    if not isinstance(implicit, bool):
        raise ConfigError("implicit_corner", f"expected true or false, got {implicit!r}")
    implicit_coeff = None
    if "implicit_coeff" in doc:
        implicit_coeff = _rational(doc["implicit_coeff"], "implicit_coeff")
    try:
        return EquationSpec(dim, order, shift, tuple(entries),
                            implicit_corner=implicit, implicit_coeff=implicit_coeff)
    except SpecError as exc:
        raise ConfigError("stencil", str(exc)) from exc


def _parse_initial(doc: dict, spec: EquationSpec) -> InitialData:
    block = doc.get("initial", {"builtin": "delta"})
    if not isinstance(block, dict):
        raise ConfigError("initial", "expected an object")
    dim, k = spec.spatial_dim, spec.time_order
    if "builtin" in block:
        if block["builtin"] != "delta":
            raise ConfigError("initial.builtin", f"unknown builtin {block['builtin']!r}")
        rows = [FieldRow.delta(dim)] + [FieldRow.zero(dim) for _ in range(k - 1)]
        return InitialData(tuple(rows))
    if "rows" not in block:
        raise ConfigError("initial", "expected 'rows' or 'builtin'")
    raw_rows = block["rows"]
    if not isinstance(raw_rows, list) or len(raw_rows) != k:
        raise ConfigError("initial.rows", f"expected {k} rows (time_order)")
    rows = []
    for t, raw in enumerate(raw_rows):
        at = f"initial.rows[{t}]"
        if not isinstance(raw, list):
            raise ConfigError(at, "expected a list of point entries")
        values: dict[Point, Fraction] = {}
        for idx, item in enumerate(raw):
            here = f"{at}[{idx}]"
            if not isinstance(item, dict) or "at" not in item or "value" not in item:
                raise ConfigError(here, "expected {'at': [...], 'value': 'p/q'}")
            p = _point(item["at"], dim, f"{here}.at")
            if p in values:
                raise ConfigError(f"{here}.at", f"duplicate point {list(p)}")
            values[p] = _rational(item["value"], f"{here}.value")
        rows.append(FieldRow(dim, values))
    return InitialData(tuple(rows))


def _parse_box(value, dim: int, path: str) -> Box:
    if not isinstance(value, list) or len(value) != dim:
        raise ConfigError(path, f"expected {dim} per-axis [lo, hi] pairs")
    lo, hi = [], []
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"{path}[{i}]", "expected [lo, hi]")
        lo.append(_int(pair[0], f"{path}[{i}][0]"))
        hi.append(_int(pair[1], f"{path}[{i}][1]"))
        if lo[-1] > hi[-1]:
            raise ConfigError(f"{path}[{i}]", "lo exceeds hi")
    return Box(tuple(lo), tuple(hi))


def _default_region(spec: EquationSpec, initial: InitialData) -> Region:
    t_hi = DEFAULT_QUERY_TMAX
    if spec.implicit_corner:
        hull = initial.support_hull()
        if hull is None:
            box = Box((0,), (0,))
        else:
            box = Box((hull.lo[0] - t_hi - 1,), (hull.hi[0] + t_hi + 1,))
    else:
        box = query_packing(spec, initial, t_hi).box
    return Region(box, 0, t_hi)


def _parse_query(doc: dict, spec: EquationSpec, initial: InitialData):
    block = doc.get("query")
    if block is None:
        return _default_region(spec, initial)
    if not isinstance(block, dict):
        raise ConfigError("query", "expected an object")
    if "points" in block:
        raw = block["points"]
        if not isinstance(raw, list) or not raw:
            raise ConfigError("query.points", "expected a nonempty list")
        pts = []
        for idx, item in enumerate(raw):
            here = f"query.points[{idx}]"
            if not isinstance(item, dict) or "at" not in item or "t" not in item:
                raise ConfigError(here, "expected {'at': [...], 't': n}")
            t = _int(item["t"], f"{here}.t")
            if t < 0:
                raise ConfigError(f"{here}.t", "time must be >= 0")
            pts.append((_point(item["at"], spec.spatial_dim, f"{here}.at"), t))
        return tuple(pts)
    if "box" not in block or "times" not in block:
        raise ConfigError("query", "expected 'box' and 'times', or 'points'")
    box = _parse_box(block["box"], spec.spatial_dim, "query.box")
    times = block["times"]
    if not isinstance(times, list) or len(times) != 2:
        raise ConfigError("query.times", "expected [t_lo, t_hi]")
    t_lo = _int(times[0], "query.times[0]")
    t_hi = _int(times[1], "query.times[1]")
    try:
        return Region(box, t_lo, t_hi)
    except SpecError as exc:
        raise ConfigError("query.times", str(exc)) from exc


def parse_config(document: str | dict) -> RunConfig:
    """Validate a config document into a RunConfig; rationals parsed exactly."""
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except ValueError as exc:
            # a JSONDecodeError, or int()'s limit on the digits of an integer literal
            raise ConfigError("$", f"invalid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ConfigError("$", "invalid JSON: nested too deeply") from exc
    else:
        doc = document
    if not isinstance(doc, dict):
        raise ConfigError("$", "top-level value must be an object")

    spec = _parse_equation(doc)
    initial = _parse_initial(doc, spec)
    try:
        initial.check_matches(spec)
    except SpecError as exc:
        raise ConfigError("initial", str(exc)) from exc
    query = _parse_query(doc, spec, initial)

    engine = doc.get("engine", "verify")
    if engine not in ENGINES:
        raise ConfigError("engine", f"expected one of {ENGINES}, got {engine!r}")

    out = doc.get("output", {})
    if not isinstance(out, dict):
        raise ConfigError("output", "expected an object")
    out_format = out.get("format", "csv")
    if out_format not in FORMATS:
        raise ConfigError("output.format", f"expected one of {FORMATS}")
    out_path = out.get("path")
    if out_path is not None and not isinstance(out_path, str):
        raise ConfigError("output.path", "expected a string or null")

    return RunConfig(spec, initial, query, engine, out_format, out_path)


def load_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError("$", f"not UTF-8 text: {exc}") from exc
    return parse_config(text)


def spec_document(spec: EquationSpec) -> dict:
    """Canonical JSON-ready form of an equation spec (stencil sorted)."""
    doc = {
        "spatial_dim": spec.spatial_dim,
        "time_order": spec.time_order,
        "spatial_shift": list(spec.spatial_shift),
        "implicit_corner": spec.implicit_corner,
        "stencil": [
            {"offset": list(e.offset), "time_level": e.time_level,
             "coeff": format_rational(e.coeff)}
            for e in sorted(spec.stencil, key=lambda e: (e.time_level, e.offset))
        ],
    }
    if spec.implicit_coeff is not None:
        doc["implicit_coeff"] = format_rational(spec.implicit_coeff)
    return doc


def spec_hash(spec: EquationSpec) -> str:
    """Short stable identifier of the equation, for output headers.

    hashlib is imported on the first call, not with the module: it loads
    OpenSSL's libcrypto, and only the hash needs it."""
    import hashlib
    canonical = json.dumps(spec_document(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
