"""Command-line front end.

Subcommands:

* ``solve   --config FILE [--out PATH] [--format csv|json]``
* ``verify  --config FILE [--tmax N] [--evaluator NAME]``
* ``demo random-walk --p R --d R --q R --steps N``
* ``demo heat --r R --steps N``
* ``expand  --config FILE --power J``

Exit codes: 0 success / no mismatch, 1 verification found mismatches,
2 usage or config error.  Output is deterministic: rows sorted
lexicographically by point, then time, all values in exact rational text.
solve and the demos stream the engines' integer rows, keyed in the query's
one packing, text only their asked nonzero cells, and unpack each texted
key once; format_table writes each point's lines as one block.

Importing this module builds no parser.  ``main`` parses with one parser,
built by ``build_parser`` on the first call and kept for the rest of the
process, so an in-process caller (a test suite, a benchmark, a library
user) pays the ~1 ms build once.  Parsing leaves the parser as it was, so
every call writes what a freshly built parser would.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import cache
from itertools import repeat
from math import lcm
from operator import add

from .closed_form import EVALUATORS
from .combinatorics import expand_stencil_power
from .config import ConfigError, RunConfig, load_config, spec_hash
from .exactnum import ParseError, format_rational, parse_rational, rational_texts
from .lattice import EquationSpec, FieldRow, InitialData, Point, SpecError
from .models import HeatParams, RandomWalkParams, heat_spec, random_walk_spec
from .oracle import (Region, asked_keys, engine_rows, query_bounds, query_groups,
                     verify_closed_vs_oracle)


def format_table(dim: int, groups: Iterable[tuple[Point, tuple[int, ...], list[str]]],
                 header_hash: str, out_format: str) -> str:
    """Serialize (point, times, one value text per time) groups, which the
    caller supplies sorted by point, then time.  A point's CSV lines are one
    join of its prefix between the "t," stamps, built once per times tuple."""
    if out_format == "csv":
        lines = [f"# spec={header_hash}"]
        lines.append(",".join([f"e{i + 1}" for i in range(dim)] + ["t", "value"]))
        stamps: dict[tuple[int, ...], list[str]] = {}
        for p, times, texts in groups:
            if times not in stamps:
                stamps[times] = [f"{t}," for t in times]
            prefix = ",".join(map(str, p)) + ","
            lines.append(prefix + ("\n" + prefix).join(map(add, stamps[times], texts)))
        return "\n".join(lines) + "\n"
    payload = {
        "spec": header_hash,
        "rows": [{"at": list(p), "t": t, "value": text}
                 for p, times, texts in groups for t, text in zip(times, texts)],
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def _value_texts(spec: EquationSpec, initial: InitialData) -> Callable[[int, int], str]:
    """The text emitter for values of spec from the initial rows: both
    engines' denominators have only primes of the coefficient and initial
    denominators."""
    coeffs = [e.coeff for e in spec.stencil]
    if spec.implicit_corner:
        coeffs.append(spec.implicit_coeff)
    return rational_texts(lcm(*(v.denominator for v in coeffs),
                              *(v.denominator for row in initial.rows
                                for v in row.values.values())))


def parse_table_csv(text: str) -> list[tuple[Point, int, Fraction]]:
    """Inverse of the CSV table format (used by tests and downstream tools)."""
    rows = []
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    dim = len(header) - 2
    for ln in lines[1:]:
        cells = ln.split(",")
        point = tuple(int(c) for c in cells[:dim])
        rows.append((point, int(cells[dim]), parse_rational(cells[dim + 1])))
    return rows


def run(config: RunConfig) -> tuple[int, str]:
    """Execute a run; returns (exit status, emitted artifact text).

    solve streams the chosen engine's integer rows by engine_rows, keyed in
    the query's packing up to its right edge, texts only the asked keys
    (asked_keys) of a row's support and unpacks each texted key once; every
    other queried cell is "0", and a point with none shares one list."""
    if config.engine == "verify":
        return run_verify(config, "auto")
    spec, initial, query = config.spec, config.initial, config.query
    box, t_max = query_bounds(query)
    packing, rows = engine_rows(spec, initial, t_max, config.engine, box.hi[0])
    text = _value_texts(spec, initial)
    asked = asked_keys(query, packing)
    cells: dict[int, dict[int, str]] = {}
    for t, (den, nums) in enumerate(rows):
        if t in asked:
            for k in nums.keys() & asked[t].keys():
                cells.setdefault(k, {})[t] = text(nums[k], den)
    found = dict(zip(packing.points(cells), cells.values()))
    groups = list(query_groups(query))
    zeros = {n: ["0"] * n for n in {len(times) for _, times in groups}}
    table = [(p, times, [*map(texts.get, times, repeat("0"))]
              if (texts := found.get(p)) else zeros[len(times)]) for p, times in groups]
    return 0, format_table(spec.spatial_dim, table, spec_hash(spec), config.out_format)


def run_verify(config: RunConfig, evaluator: str,
               t_max: int | None = None) -> tuple[int, str]:
    """Verify the config's query, its times cut at t_max when given: a
    region's time range ends at t_max if that comes before its last time,
    listed points after t_max are dropped, and a query with no time <= t_max
    is a ConfigError."""
    query = config.query
    if t_max is not None:
        if isinstance(query, Region):
            query = (Region(query.box, query.t_lo, min(query.t_hi, t_max))
                     if t_max >= query.t_lo else [])
        else:
            query = [(p, t) for p, t in query if t <= t_max]
        if not query:
            raise ConfigError("--tmax", f"no query point has time <= {t_max}")
    report = verify_closed_vs_oracle(config.spec, config.initial, query,
                                     evaluator=evaluator)
    lines = [f"# spec={spec_hash(config.spec)}", report.summary()]
    for m in report.mismatches:
        lines.append(f"mismatch at {m.point} t={m.time}: "
                     f"closed={format_rational(m.closed_value)} "
                     f"oracle={format_rational(m.oracle_value)}")
    return (0 if report.ok else 1), "\n".join(lines) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _count_flag(text: str) -> int:
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _cmd_solve(args) -> int:
    config = load_config(args.config)
    if args.format:
        config = RunConfig(config.spec, config.initial, config.query, config.engine,
                           args.format, config.out_path)
    status, text = run(config)
    _emit(text, args.out if args.out else config.out_path)
    return status


def _cmd_verify(args) -> int:
    config = load_config(args.config)
    status, text = run_verify(config, args.evaluator, t_max=args.tmax)
    _emit(text, args.out)
    return status


def _demo_table(spec: EquationSpec, steps: int, engine: str, out_format: str) -> str:
    """The table of the engine's integer rows at times 0..steps of the 1D
    spec from a unit mass at 0, grouped by key: the keys are sorted once,
    as their points sort, and each is unpacked once."""
    initial = InitialData((FieldRow.delta(1),))
    packing, rows = engine_rows(spec, initial, steps, engine)
    text = _value_texts(spec, initial)
    cells: dict[int, dict[int, str]] = {}
    for j, (den, nums) in enumerate(rows):
        for k, n in nums.items():
            cells.setdefault(k, {})[j] = text(n, den)
    keys = sorted(cells)
    table = [(p, tuple(texts), list(texts.values()))
             for p, texts in zip(packing.points(keys), map(cells.get, keys))]
    return format_table(1, table, spec_hash(spec), out_format)


def _cmd_demo_random_walk(args) -> int:
    spec = random_walk_spec(RandomWalkParams(args.p, args.d, args.q))
    _emit(_demo_table(spec, args.steps, "closed", args.format), args.out)
    return 0


def _cmd_demo_heat(args) -> int:
    params = HeatParams(args.r)
    if not params.stable:
        sys.stderr.write(f"note: r={args.r} exceeds 1/2; the update is "
                         f"unstable (no maximum principle)\n")
    _emit(_demo_table(heat_spec(params), args.steps, "oracle", args.format), args.out)
    return 0


def _cmd_expand(args) -> int:
    config = load_config(args.config)
    spec = config.spec
    terms = expand_stencil_power(spec, args.power)
    dim = spec.spatial_dim
    if args.format == "csv":
        lines = [f"# spec={spec_hash(spec)} power={args.power}"]
        lines.append(",".join([f"a{i + 1}" for i in range(dim)] + ["b", "coeff"]))
        for key in sorted(terms):
            lines.append(",".join([str(e) for e in key] + [format_rational(terms[key])]))
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "spec": spec_hash(spec),
            "power": args.power,
            "terms": [{"spatial_exponents": list(key[:dim]), "time_exponent": key[dim],
                       "coeff": format_rational(terms[key])}
                      for key in sorted(terms)],
        }
        text = json.dumps(payload, sort_keys=True) + "\n"
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latrec",
        description="Exact evaluation of linear partial difference equations: "
                    "closed-form sums cross-checked against direct iteration.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="evaluate the engine chosen by the config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--format", choices=("csv", "json"), default=None)
    p_solve.set_defaults(func=_cmd_solve)

    p_verify = sub.add_parser("verify", help="compare closed form against the oracle")
    p_verify.add_argument("--config", required=True)
    p_verify.add_argument("--tmax", type=_count_flag, default=None)
    p_verify.add_argument("--evaluator", choices=("auto", *EVALUATORS), default="auto",
                          help="closed-form evaluator; 'tridiagonal-j-n' is the "
                               "known-inconsistent variant kept as a negative control")
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_demo = sub.add_parser("demo", help="built-in model presets")
    demo_sub = p_demo.add_subparsers(dest="preset", required=True)

    p_walk = demo_sub.add_parser("random-walk")
    p_walk.add_argument("--p", type=_rational_flag, required=True)
    p_walk.add_argument("--d", type=_rational_flag, required=True)
    p_walk.add_argument("--q", type=_rational_flag, required=True)
    p_walk.add_argument("--steps", type=_count_flag, default=5)
    p_walk.add_argument("--out", default=None)
    p_walk.add_argument("--format", choices=("csv", "json"), default="csv")
    p_walk.set_defaults(func=_cmd_demo_random_walk)

    p_heat = demo_sub.add_parser("heat")
    p_heat.add_argument("--r", type=_rational_flag, required=True)
    p_heat.add_argument("--steps", type=_count_flag, default=5)
    p_heat.add_argument("--out", default=None)
    p_heat.add_argument("--format", choices=("csv", "json"), default="csv")
    p_heat.set_defaults(func=_cmd_demo_heat)

    p_expand = sub.add_parser("expand",
                              help="dump the collected terms of the stencil "
                                   "symbol raised to a power")
    p_expand.add_argument("--config", required=True)
    p_expand.add_argument("--power", type=_count_flag, required=True)
    p_expand.add_argument("--out", default=None)
    p_expand.add_argument("--format", choices=("csv", "json"), default="csv")
    p_expand.set_defaults(func=_cmd_expand)

    return parser


# the one parser of the process, built on main's first call
_parser = cache(build_parser)


def main(argv=None) -> int:
    """Run the command line argv (sys.argv[1:] when None) and return its exit
    status; a usage error or --help raises SystemExit as argparse does.  The
    parser is built on the first call and reused by every later one."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, SpecError, ParseError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
