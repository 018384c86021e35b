"""Seeded inputs, jobs and exact checks for the benchmark workloads.

Every input the program sees is a config document (or a CLI flag) generated
here from the seed.  The seed draws the initial support (positions, and
values from a fixed pool of halves) and the query points; equations and
problem sizes (time horizons, boxes, query schedules) are constants of the
workload, so the cost of a run barely depends on the seed.

A job is one call into latrec: a CLI invocation through ``latrec.cli.main``
or one library query.  ``run`` is the timed call; ``check`` runs after the
timer stops, compares the output exactly, and returns how many exact values
the job produced or checked and how many bytes it wrote.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import latrec
from latrec import cli, closed_form, config, models, oracle

import spans
import speed

# Stencil coefficients are fixed per workload: which coefficient sits where
# changes the cost of the expansion by up to ~10%, far more than the seed-drawn
# initial data does.
THREE_POINT = ("1/2", "1/3", "1/4")
NINE_POINT = ("1/2", "1/3", "1/4", "1/3", "1/2", "1/3", "1/4", "1/3", "1/2")
FIVE_POINT = ("1/2", "1/3", "1/4", "1/5", "1/6")
TWO_ROW = ("1/2", "-1/3", "1/4", "1")
CORNER = ("1/2", "1/3", "1/4")
WALK = ("1/7", "2/7", "4/7")
HEAT_R = "2/7"
# initial values are drawn from here
VALUES = ("-3/2", "-1/2", "1/2", "3/2")

_SUMMARY = re.compile(r"^checked (\d+) points up to time \d+: (\d+) mismatches$",
                      re.MULTILINE)


class CheckFailed(Exception):
    """A job's output is not exactly what the workload requires."""


@dataclass
class Job:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], tuple[int, int]]


def _row(rng: random.Random, points) -> list[dict]:
    return [{"at": list(p), "value": rng.choice(VALUES)} for p in points]


def _stencil(offsets, coeffs, levels=None) -> list[dict]:
    levels = levels or [0] * len(offsets)
    return [{"offset": list(o), "time_level": lv, "coeff": c}
            for o, lv, c in zip(offsets, levels, coeffs)]


def _one_dim(rng: random.Random, t_max: int, support: int, lo: int, hi: int) -> dict:
    """1D three-point one-step equation with `support` random initial points."""
    points = sorted(rng.sample(range(lo, hi + 1), support))
    reach = t_max + max(-lo, hi)
    return {
        "spatial_dim": 1, "time_order": 1, "spatial_shift": [0],
        "stencil": _stencil([(-1,), (0,), (1,)], THREE_POINT),
        "initial": {"rows": [_row(rng, [(p,) for p in points])]},
        "query": {"box": [[-reach, reach]], "times": [0, t_max]},
        "engine": "verify",
    }


def dump(doc: dict) -> bytes:
    """Canonical bytes of a generated document."""
    return (json.dumps(doc, sort_keys=True, indent=1) + "\n").encode("utf-8")


def call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def _sum_by_time(rows) -> dict[int, Fraction]:
    sums: dict[int, Fraction] = {}
    for _, t, v in rows:
        sums[t] = sums.get(t, Fraction(0)) + v
    return sums


class Runner:
    """Runs rounds of jobs, times each call, and checks each output.

    Each call is timed by ``speed.Probe``, which scales it to reference
    speed; the check runs after the timer stops."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.probe = speed.Probe()

    def round(self):
        """One pass over the jobs: (latencies at reference speed, raw
        latencies, values, bytes written)."""
        latencies, raw, values, written = [], [], 0, 0
        for job in self.jobs:
            self.attempted += 1
            try:
                result, elapsed, scaled = self.probe.time(job.run)
                latencies.append(scaled)
                raw.append(elapsed)
                produced, nbytes = job.check(result)
            except (Exception, SystemExit) as exc:
                self.failed += 1
                print(f"FAIL {job.label}: {exc!r}", file=sys.stderr)
                if not isinstance(exc, CheckFailed):
                    traceback.print_exc(file=sys.stderr)
                continue
            values += produced
            written += nbytes
        return latencies, raw, values, written

    def rounds(self, seconds: float, tracer=None, after_round=None):
        """Rounds until `seconds` have passed (at least one); `after_round`
        is called with the elapsed share of `seconds` after each round."""
        done = []
        start = time.perf_counter()
        while not done or time.perf_counter() - start < seconds:
            if tracer is not None:
                tracer.reset()
            latencies, raw, values, written = self.round()
            entry = {"latencies": latencies, "wall": sum(latencies),
                     "raw_wall": sum(raw), "values": values, "bytes": written}
            if tracer is not None:
                entry["layers"] = tracer.layer_metrics(entry["raw_wall"])
                # spans are raw times; scale them like the round's latencies
                factor = entry["wall"] / entry["raw_wall"] if entry["raw_wall"] else 1.0
                for name in spans.TIMES:
                    entry["layers"][name] *= factor
                if done:
                    del done[-1]["outputs"]  # keep only the last round's values
                entry["outputs"] = tracer.outputs
            done.append(entry)
            if after_round is not None:
                after_round((time.perf_counter() - start) / seconds)
        return done


class Workload:
    """Generated documents on disk plus the jobs of one round."""

    name = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}/{seed}")
        self.documents: dict[str, dict] = {}
        self.flags: dict[str, list[str]] = {}
        self.generate()
        workdir.mkdir(parents=True, exist_ok=True)
        for key, doc in self.documents.items():
            self.path(key).write_bytes(dump(doc))

    def path(self, key: str) -> Path:
        return self.workdir / f"{key}.json"

    def config_paths(self) -> list[str]:
        return [str(self.path(k)) for k in sorted(self.documents)]

    def inputs_sha256(self) -> str:
        digest = hashlib.sha256()
        for key in sorted(self.documents):
            digest.update(key.encode() + b"\0" + dump(self.documents[key]))
        for key in sorted(self.flags):
            digest.update(key.encode() + b"\0" + " ".join(self.flags[key]).encode())
        return digest.hexdigest()

    def generate(self) -> None:
        raise NotImplementedError

    def sizes(self) -> dict:
        raise NotImplementedError

    def prepare(self) -> None:
        """Work that must not be timed: loading references and such."""

    def jobs(self) -> list[Job]:
        raise NotImplementedError


class VerifyRows(Workload):
    """``latrec verify`` on a deep 1D, a 2D 3x3 and a two-row equation, plus a
    small control verified with the pointwise three-point evaluator, once in
    its consistent form and once in the j-n form that must report
    mismatches."""

    name = "verify-rows"
    DEEP_T = 80
    NINE_T = 9
    TWO_ROW_T = 24
    CONTROL_T = 6

    def generate(self) -> None:
        rng = self.rng
        self.documents["deep1d"] = _one_dim(rng, self.DEEP_T, 4, -3, 3)
        nine_offsets = [(dx, dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
        second = rng.choice([o for o in nine_offsets if o != (0, 0)])
        t = self.NINE_T
        self.documents["ninepoint"] = {
            "spatial_dim": 2, "time_order": 1, "spatial_shift": [0, 0],
            "stencil": _stencil(nine_offsets, NINE_POINT),
            "initial": {"rows": [_row(rng, [(0, 0), second])]},
            "query": {"box": [[-t - 1, t + 1], [-t - 1, t + 1]], "times": [0, t]},
            "engine": "verify",
        }
        t = self.TWO_ROW_T
        self.documents["tworow"] = {
            "spatial_dim": 1, "time_order": 2, "spatial_shift": [1],
            "stencil": _stencil([(0,), (1,), (0,), (1,)], TWO_ROW,
                                levels=[0, 0, 1, 1]),
            "initial": {"rows": [_row(rng, [(0,), (rng.choice((1, 2)),)]),
                                 _row(rng, [(rng.choice((-1, 0, 1)),)])]},
            "query": {"box": [[-2, t + 3]], "times": [0, t]},
            "engine": "verify",
        }
        self.documents["control"] = _one_dim(rng, self.CONTROL_T, 1, 0, 0)

    def sizes(self) -> dict:
        return {"deep1d": {"t_max": self.DEEP_T, "support": 4},
                "ninepoint": {"t_max": self.NINE_T, "support": 2},
                "tworow": {"t_max": self.TWO_ROW_T},
                "control": {"t_max": self.CONTROL_T,
                            "evaluators": ["tridiagonal", "tridiagonal-j-n"]}}

    def jobs(self) -> list[Job]:
        jobs = []
        for key in ("deep1d", "ninepoint", "tworow"):
            argv = ["verify", "--config", str(self.path(key))]
            jobs.append(Job(key, lambda argv=argv: call_cli(argv),
                            lambda res: self._check(res, expect_ok=True)))
        # The control pair runs the pointwise three-point evaluator twice: the
        # consistent form must pass and the inconsistent j-n form must fail.
        for evaluator, ok in (("tridiagonal", True), ("tridiagonal-j-n", False)):
            argv = ["verify", "--config", str(self.path("control")),
                    "--evaluator", evaluator]
            jobs.append(Job(f"control {evaluator}", lambda argv=argv: call_cli(argv),
                            lambda res, ok=ok: self._check(res, expect_ok=ok)))
        return jobs

    @staticmethod
    def _check(result, expect_ok: bool) -> tuple[int, int]:
        status, text = result
        found = _SUMMARY.search(text)
        if found is None:
            raise CheckFailed(f"exit {status}, no verify summary in output")
        checked, mismatches = int(found.group(1)), int(found.group(2))
        if expect_ok and (status != 0 or mismatches != 0):
            raise CheckFailed(f"exit {status} with {mismatches} mismatches")
        if not expect_ok and (status != 1 or mismatches == 0):
            raise CheckFailed(f"negative control exited {status} with "
                              f"{mismatches} mismatches; expected exit 1")
        return checked, len(text)


class SolveOracle(Workload):
    """``latrec solve`` with the oracle engine over a wide 2D box and a long
    1D line, each written as CSV, and ``latrec demo heat``; no closed form
    runs."""

    name = "solve-oracle"
    HALF_WIDTH = 22
    GRID_T = 20
    LINE_T = 70
    HEAT_STEPS = 120

    def generate(self) -> None:
        rng = self.rng
        # The support's shape sets how fast it grows, and with it the cost
        # (up to 12% between shapes), so the seed only moves a fixed shape.
        dx, dy = rng.randint(-1, 1), rng.randint(-1, 1)
        corner = [(dx, dy), (dx + 1, dy), (dx, dy + 1)]
        w, t = self.HALF_WIDTH, self.GRID_T
        self.documents["grid"] = {
            "spatial_dim": 2, "time_order": 1, "spatial_shift": [0, 0],
            "stencil": _stencil([(0, 0), (-1, 0), (1, 0), (0, -1), (0, 1)],
                                FIVE_POINT),
            "initial": {"rows": [_row(rng, corner)]},
            "query": {"box": [[-w, w], [-w, w]], "times": [0, t]},
            "engine": "oracle",
        }
        line = _one_dim(rng, self.LINE_T, 3, -2, 2)
        line["engine"] = "oracle"
        self.documents["line"] = line
        self.flags["heat"] = ["demo", "heat", "--r", HEAT_R,
                              "--steps", str(self.HEAT_STEPS)]

    def sizes(self) -> dict:
        side = 2 * self.HALF_WIDTH + 1
        width = 2 * (self.LINE_T + 2) + 1
        return {"grid": {"box": [side, side], "t_max": self.GRID_T,
                         "csv_rows": side * side * (self.GRID_T + 1)},
                "line": {"box": [width], "t_max": self.LINE_T,
                         "csv_rows": width * (self.LINE_T + 1)},
                "heat": {"steps": self.HEAT_STEPS}}

    def prepare(self) -> None:
        self.expect = {}
        for key in ("grid", "line"):
            cfg = config.load_config(str(self.path(key)))
            s1 = sum(e.coeff for e in cfg.spec.stencil)
            mass = cfg.initial.rows[0].total()
            self.expect[key] = (len(cfg.query_points),
                                {t: s1 ** t * mass for t in range(cfg.t_max + 1)})
        # heat coefficients (r, 1-2r, r) sum to 1 and start from unit mass
        self.expect["heat"] = (None, {t: Fraction(1) for t in range(self.HEAT_STEPS + 1)})
        self.digests: dict[str, str] = {}

    def jobs(self) -> list[Job]:
        jobs = []
        for key in ("grid", "line"):
            out = self.workdir / f"{key}.csv"
            argv = ["solve", "--config", str(self.path(key)), "--out", str(out)]
            jobs.append(Job(key, lambda argv=argv: call_cli(argv),
                            lambda res, key=key, out=out: self._check(key, res, out)))
        heat_csv = self.workdir / "heat.csv"
        heat_argv = self.flags["heat"] + ["--out", str(heat_csv)]
        jobs.append(Job("heat", lambda: call_cli(heat_argv),
                        lambda res: self._check("heat", res, heat_csv)))
        return jobs

    def _check(self, key: str, result, csv_path: Path) -> tuple[int, int]:
        status, _ = result
        if status != 0:
            raise CheckFailed(f"exit {status}")
        data = csv_path.read_bytes()
        csv_path.unlink()  # the next round must write the file again
        digest = hashlib.sha256(data).hexdigest()
        rows = data.count(b"\n") - 2
        if key in self.digests:
            if digest != self.digests[key]:
                raise CheckFailed("output differs from the first round's")
            return rows, len(data)
        parsed = cli.parse_table_csv(data.decode("utf-8"))
        count, sums = self.expect[key]
        if count is not None and len(parsed) != count:
            raise CheckFailed(f"{len(parsed)} rows, expected {count}")
        got = _sum_by_time(parsed)
        for t, want in sums.items():
            if got.get(t, Fraction(0)) != want:
                raise CheckFailed(f"row t={t} sums to {got.get(t)}, "
                                  f"conservation requires {want}")
        self.digests[key] = digest
        return len(parsed), len(data)


class PointQueries(Workload):
    """Single-value library queries at large t, checked against oracle rows
    computed before timing; no stencil power is expanded."""

    name = "point-queries"
    LINE_TIMES = tuple(range(100, 200, 9))
    CORNER_TIMES = tuple(range(40, 88, 4))
    WALK_STEPS = (40, 48)

    def generate(self) -> None:
        rng = self.rng
        line = _one_dim(rng, 0, 2, -1, 1)
        # A query's cost depends on how far it sits from the initial support,
        # so the seed only moves points within a few cells of a fixed place.
        line["query"] = {"points": [{"at": [rng.randint(-3, 3)], "t": t}
                                    for t in self.LINE_TIMES]}
        line["engine"] = "closed"
        self.documents["line"] = line
        b, c, a = THREE_POINT
        self.documents["corner"] = {
            "spatial_dim": 1, "time_order": 1, "spatial_shift": [1],
            "implicit_corner": True, "implicit_coeff": a,
            "stencil": _stencil([(1,), (0,)], [b, c]),
            "initial": {"rows": [_row(rng, [(0,), (1,)])]},
            "query": {"points": [{"at": [t - rng.randint(0, 3)], "t": t}
                                 for t in self.CORNER_TIMES]},
            "engine": "closed",
        }
        p, d, q = WALK
        self.documents["walk"] = {
            "preset": "random-walk", "p": p, "d": d, "q": q,
            "initial": {"builtin": "delta"},
            "query": {"points": [{"at": [0], "t": j} for j in self.WALK_STEPS]},
            "engine": "closed",
        }

    def sizes(self) -> dict:
        return {"closed_value": list(self.LINE_TIMES),
                "eval_tridiagonal": list(self.LINE_TIMES),
                "eval_implicit": list(self.CORNER_TIMES),
                "random_walk_distribution": list(self.WALK_STEPS),
                "queries_per_round": 2 * len(self.LINE_TIMES)
                + len(self.CORNER_TIMES) + len(self.WALK_STEPS)}

    def prepare(self) -> None:
        line = config.load_config(str(self.path("line")))
        corner = config.load_config(str(self.path("corner")))
        walk = config.load_config(str(self.path("walk")))
        self.line, self.corner = line, corner
        self.walk_params = models.RandomWalkParams(*map(Fraction, WALK))

        line_rows = oracle.oracle_evolve(line.spec, line.initial, line.t_max)
        self.line_ref = {(p, t): line_rows[t].get(p) for p, t in line.query_points}
        del line_rows
        a, b, c = corner.spec.corner_coefficients()
        psi = corner.initial.rows[0]
        right = max(p[0] for p, _ in corner.query_points)
        window = oracle.sweep_window(psi, corner.t_max, right_edge=right)
        corner_rows = oracle.oracle_sweep_implicit(a, b, c, psi, window, corner.t_max)
        self.corner_ref = {(p, t): corner_rows[t].get(p) for p, t in corner.query_points}
        walk_rows = oracle.oracle_evolve(walk.spec, walk.initial, walk.t_max)
        self.walk_ref = {j: walk_rows[j].values for j in self.WALK_STEPS}

    def jobs(self) -> list[Job]:
        jobs = []
        spec, init = self.line.spec, self.line.initial
        a, b, c = closed_form.as_tridiagonal(spec)
        psi = init.rows[0]
        for p, t in self.line.query_points:
            want = self.line_ref[(p, t)]
            jobs.append(Job(f"closed_value t={t}",
                            lambda p=p, t=t: closed_form.closed_value(spec, init, p, t),
                            lambda v, want=want: _expect(v, want)))
            jobs.append(Job(f"eval_tridiagonal t={t}",
                            lambda p=p, t=t: closed_form.eval_tridiagonal(a, b, c, psi, p[0], t),
                            lambda v, want=want: _expect(v, want)))
        ca, cb, cc = self.corner.spec.corner_coefficients()
        cpsi = self.corner.initial.rows[0]
        for p, t in self.corner.query_points:
            want = self.corner_ref[(p, t)]
            jobs.append(Job(f"eval_implicit t={t}",
                            lambda p=p, t=t: closed_form.eval_implicit(ca, cb, cc, cpsi, p[0], t),
                            lambda v, want=want: _expect(v, want)))
        for j in self.WALK_STEPS:
            want = self.walk_ref[j]
            jobs.append(Job(f"random_walk_distribution j={j}",
                            lambda j=j: models.random_walk_distribution(self.walk_params, j),
                            lambda row, want=want: _expect(row.values, want)))
        return jobs


def _expect(got, want) -> tuple[int, int]:
    if got != want:
        raise CheckFailed("value differs from the oracle")
    return 1, 0


WORKLOADS = {w.name: w for w in (VerifyRows, SolveOracle, PointQueries)}


def output_bits(values) -> tuple[int, int]:
    """Largest numerator and denominator bit lengths among exact values."""
    num = den = 0
    for v in values:
        num = max(num, abs(v.numerator).bit_length())
        den = max(den, v.denominator.bit_length())
    return num, den


def flatten_values(result):
    """Every Fraction inside a result: a value, a FieldRow, or lists of them."""
    if isinstance(result, Fraction):
        yield result
    elif isinstance(result, latrec.FieldRow):
        yield from result.values.values()
    elif isinstance(result, (list, tuple)):
        for item in result:
            yield from flatten_values(item)

