"""Acceptance suite: one test per criterion, zero tolerance everywhere
(exact rational arithmetic), one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import json
import random
from fractions import Fraction
from operator import add
from pathlib import Path

from latrec import (Box, EquationSpec, FieldRow, HeatParams, InitialData,
                    RandomWalkParams, StencilEntry, eval_implicit, eval_nd,
                    expand_stencil_power, heat_profile, oracle_evolve,
                    oracle_sweep_implicit, random_walk_distribution,
                    tridiagonal_spec, verify_closed_vs_oracle)
from latrec.cli import main as cli_main
from latrec.cli import parse_table_csv
from latrec.closed_form import closed_getter
from latrec.combinatorics import compositions
from latrec.oracle import Region

from instance_gen import (field_row, grid_2d_instance, nd_instance,
                          ninepoint_instance, one_row_instance, rational,
                          tridiagonal_instance, two_row_instance,
                          verification_region)
from test_combinatorics import poly_power
from test_models import random_walk_params

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(number: int, name: str, failures: list, detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status} ({detail})")
    assert not failures, failures[:5]


def test_criterion_1_one_step_family_matches_oracle():
    rng = random.Random(810001)
    failures = []
    instances = 0
    points = 0

    def check(spec, max_points=7, t_cap=6):
        nonlocal instances, points
        dim = spec.spatial_dim
        initial = InitialData((field_row(rng, dim, max_points=max_points,
                                         coord_range=3 if dim == 1 else 2),))
        t_max = rng.randint(0, t_cap)
        region = verification_region(spec, initial, t_max)
        rep = verify_closed_vs_oracle(spec, initial, region)
        instances += 1
        points += rep.checked
        if not rep.ok:
            failures.append((spec, rep.mismatches[0]))

    for _ in range(50):
        check(tridiagonal_instance(rng))
    for _ in range(45):
        check(one_row_instance(rng))
    for _ in range(40):
        check(ninepoint_instance(rng), t_cap=5)
    for _ in range(40):
        check(grid_2d_instance(rng), t_cap=5)
    for _ in range(40):
        dim = rng.randint(1, 3)
        spec = nd_instance(rng, dim, max_entries=5 if dim == 3 else 7)
        check(spec, t_cap=4 if dim == 3 else 6)

    assert instances >= 200
    report(1, "one-step closed form == oracle", failures,
           f"{instances} instances, {points} points, exact")


def test_criterion_2_two_row_family_matches_oracle():
    rng = random.Random(810002)
    failures = []
    instances = 0
    points = 0
    for _ in range(110):
        spec = two_row_instance(rng, max_n=3, max_m=2)
        initial = InitialData((field_row(rng, 1, max_points=5),
                               field_row(rng, 1, max_points=5)))
        t_max = rng.randint(0, 5)
        region = verification_region(spec, initial, t_max)
        rep = verify_closed_vs_oracle(spec, initial, region)
        instances += 1
        points += rep.checked
        if not rep.ok:
            failures.append((spec, rep.mismatches[0]))
    assert instances >= 100
    report(2, "two-row closed form == oracle", failures,
           f"{instances} instances, {points} points, exact")


def test_criterion_3_implicit_family_matches_sweep():
    rng = random.Random(810003)
    failures = []
    instances = 0
    for _ in range(110):
        a, b, c = (rational(rng) for _ in range(3))
        psi = field_row(rng, 1, max_points=7)
        box = psi.support_box()
        j_max = 5
        window = Box((box.lo[0] - j_max - 1,), (box.hi[0] + j_max + 2,))
        rows = oracle_sweep_implicit(a, b, c, psi, window, j_max)
        for j in range(j_max + 1):
            for i in range(window.lo[0], window.hi[0] + 1):
                if eval_implicit(a, b, c, psi, i, j) != rows[j].get((i,)):
                    failures.append((a, b, c, i, j))
        # telescoping identity at time zero
        for i in range(box.lo[0] - 3, box.hi[0] + 4):
            if eval_implicit(a, b, c, psi, i, 0) != psi.get((i,)):
                failures.append(("t0", a, b, c, i))
        instances += 1
    assert instances >= 100
    report(3, "corner-implicit closed form == left-vanishing sweep", failures,
           f"{instances} instances, j <= 5, exact")


def test_criterion_4_inner_exponent_variant_is_exposed():
    failures = []
    abc = (Fraction(1), Fraction(2), Fraction(3))
    delta = FieldRow.delta(1)
    spec = tridiagonal_spec(*abc)
    initial = InitialData((delta,))
    region = Region(Box((0,), (0,)), 1, 1)

    # the j-n variant is the consistent sum with b c in place of b
    literal = Fraction(*closed_getter(spec, initial, "tridiagonal-j-n")((0,), 1))
    oracle_value = oracle_evolve(spec, initial, 1)[1].get((0,))
    if literal != 6:
        failures.append(f"variant value {literal} != 6")
    if oracle_value != 2:
        failures.append(f"oracle value {oracle_value} != 2")

    bad = verify_closed_vs_oracle(spec, initial, region, evaluator="tridiagonal-j-n")
    if bad.ok:
        failures.append("variant evaluator was not flagged")
    good = verify_closed_vs_oracle(spec, initial, region, evaluator="tridiagonal")
    if not good.ok:
        failures.append("corrected evaluator was flagged")
    report(4, "c-exponent negative control (6 vs 2 at one step)", failures,
           "variant fails, corrected passes")


def test_criterion_5_random_walk_conservation():
    rng = random.Random(810005)
    failures = []
    symmetric = RandomWalkParams(Fraction(1, 2), Fraction(0), Fraction(1, 2))
    row2 = random_walk_distribution(symmetric, 2)
    if row2.values != {(-2,): Fraction(1, 4), (0,): Fraction(1, 2),
                       (2,): Fraction(1, 4)}:
        failures.append(f"symmetric walk at step 2: {row2.sorted_items()}")

    triples = [symmetric] + [random_walk_params(rng) for _ in range(20)]
    for params in triples:
        for j in range(21):
            dist = random_walk_distribution(params, j)
            if dist.total() != 1:
                failures.append((params, j, "mass", dist.total()))
                break
            if any(v < 0 for v in dist.values.values()):
                failures.append((params, j, "negative"))
                break
    report(5, "random walk: exact conservation and nonnegativity", failures,
           f"{len(triples)} parameter triples, j <= 20")


def test_criterion_6_heat_conservation_and_maximum_principle():
    rng = random.Random(810006)
    failures = []
    for _ in range(20):
        params = HeatParams(Fraction(rng.randint(1, 30), rng.randint(1, 20)))
        psi = field_row(rng, 1)
        rows = heat_profile(params, psi, 20)
        if len({row.total() for row in rows}) != 1:
            failures.append((params, "conservation"))
    for _ in range(20):
        params = HeatParams(Fraction(rng.randint(1, 10), 20))  # 0 < r <= 1/2
        psi = FieldRow(1, {(rng.randint(-3, 3),):
                           Fraction(rng.randint(1, 9), rng.randint(1, 5))
                           for _ in range(rng.randint(1, 6))})
        rows = heat_profile(params, psi, 20)
        for t in range(20):
            cur = max(rows[t].values.values(), default=Fraction(0))
            nxt = max(rows[t + 1].values.values(), default=Fraction(0))
            if nxt > cur:
                failures.append((params, t, "maximum principle"))
                break
    report(6, "discrete heat: conservation and maximum principle", failures,
           "20 random r and profiles each, j <= 20")


def test_criterion_7_combinatorial_core():
    import math

    rng = random.Random(810007)
    failures = []
    for p in range(1, 7):
        for t in range(0, 9):
            if sum(1 for _ in compositions(p, t)) != math.comb(t + p - 1, p - 1):
                failures.append(("count", p, t))
    checked_specs = 0
    for _ in range(10):
        dim = rng.randint(1, 3)
        spec = nd_instance(rng, dim, max_entries=4)
        base = expand_stencil_power(spec, 1)
        total = sum(e.coeff for e in spec.stencil)
        for j in range(7):
            expanded = expand_stencil_power(spec, j)
            if expanded != poly_power(base, j, dim):
                failures.append(("product", spec, j))
            if sum(expanded.values()) != total ** j:
                failures.append(("all-ones", spec, j))
        checked_specs += 1
    report(7, "compositions, expansion == brute-force products", failures,
           f"counts for p<=6,t<=8; {checked_specs} random stencils, j <= 6")


def test_criterion_8_algebraic_properties():
    rng = random.Random(810008)
    failures = []

    def one_step_case():
        dim = rng.randint(1, 2)
        spec = nd_instance(rng, dim, max_entries=5)
        q = tuple(rng.randint(-4, 4) for _ in range(dim))
        t = rng.randint(0, 4)
        return spec, q, t

    for _ in range(55):  # linearity
        spec, q, t = one_step_case()
        dim = spec.spatial_dim
        psi1, psi2 = field_row(rng, dim), field_row(rng, dim)
        alpha, beta = rational(rng), rational(rng)
        combo = FieldRow(dim, {p: alpha * psi1.get(p) + beta * psi2.get(p)
                               for p in psi1.values.keys() | psi2.values.keys()})
        if eval_nd(spec, combo, q, t) != (alpha * eval_nd(spec, psi1, q, t)
                                          + beta * eval_nd(spec, psi2, q, t)):
            failures.append(("linearity", spec, q, t))

    for _ in range(55):  # translation equivariance
        spec, q, t = one_step_case()
        dim = spec.spatial_dim
        psi = field_row(rng, dim)
        d = tuple(rng.randint(-3, 3) for _ in range(dim))
        shifted = FieldRow(dim, {tuple(map(add, p, d)): v for p, v in psi.values.items()})
        moved = eval_nd(spec, shifted, q, t)
        ref = eval_nd(spec, psi, tuple(a - b for a, b in zip(q, d)), t)
        if moved != ref:
            failures.append(("translation", spec, q, t, d))

    for _ in range(55):  # coefficient scaling multiplies time-t values by lambda^t
        spec, q, t = one_step_case()
        psi = field_row(rng, spec.spatial_dim)
        lam = rational(rng, nonzero=True)
        scaled = EquationSpec(
            spec.spatial_dim, 1, spec.spatial_shift,
            tuple(StencilEntry(e.offset, e.time_level, lam * e.coeff)
                  for e in spec.stencil))
        if eval_nd(scaled, psi, q, t) != lam ** t * eval_nd(spec, psi, q, t):
            failures.append(("scaling", spec, q, t))

    report(8, "linearity, translation, coefficient scaling", failures,
           "55 random instances each, exact")


def test_criterion_9_cli_round_trip(capsys, tmp_path):
    failures = []
    configs = sorted(CONFIG_DIR.glob("*.json"))
    if len(configs) < 10:
        failures.append(f"only {len(configs)} bundled configs")

    for config in configs:
        status = cli_main(["verify", "--config", str(config)])
        out = capsys.readouterr().out
        if status != 0 or "0 mismatches" not in out:
            failures.append((config.name, "verify", status))
        reruns = []
        for _ in range(2):
            cli_main(["verify", "--config", str(config)])
            reruns.append(capsys.readouterr().out)
        if reruns[0] != reruns[1]:
            failures.append((config.name, "verify output not deterministic"))

        # value-table round trip through the CSV boundary
        doc = json.loads(config.read_text())
        doc["engine"] = "closed"
        doc.pop("output", None)
        solve_path = tmp_path / config.name
        solve_path.write_text(json.dumps(doc))
        emitted = []
        for _ in range(2):
            status = cli_main(["solve", "--config", str(solve_path)])
            emitted.append(capsys.readouterr().out)
            if status != 0:
                failures.append((config.name, "solve", status))
        if emitted[0] != emitted[1]:
            failures.append((config.name, "solve output not byte-identical"))
        rows = parse_table_csv(emitted[0])
        if not rows:
            failures.append((config.name, "empty table"))
        from latrec import load_config
        cfg = load_config(str(solve_path))
        getter = _closed_getter(cfg)
        for p, t, v in rows:
            if getter(p, t) != v:
                failures.append((config.name, "reparse", p, t))
                break
    report(9, "CLI verify corpus and CSV round trip", failures,
           f"{len(configs)} configs, byte-identical reruns")


def _closed_getter(cfg):
    from latrec import closed_value
    return lambda p, t: closed_value(cfg.spec, cfg.initial, p, t)
