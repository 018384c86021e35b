"""Byte-identity guard for the CLI.

Every config under ``configs/`` goes through ``verify`` (evaluators
``auto``, ``nd`` and the ``tridiagonal-j-n`` negative control, and
``auto`` cut at ``--tmax 3``), ``solve`` with the closed and the oracle
engine (CSV and JSON) and ``expand`` (powers 0, 3 and 7); ``demo heat``
runs at r = 1/4, 2/7, 1/2 and 2 for 0, 1, 9 and 40 steps and ``demo
random-walk`` with three parameter sets, each in CSV and JSON, and in CSV
``demo heat`` at r = 2/7 and 1/4 for 120 steps and ``demo random-walk`` in
sevenths for 80 steps.  The
test-local ``LOCAL_CONFIGS`` go through ``verify`` (``auto`` and ``nd``) and
``solve`` with both engines in CSV and JSON; the corner-implicit
``CORNER_CONFIGS`` go through ``verify`` (``auto`` and ``implicit``, each
also cut at ``--tmax 3``) and ``solve`` with both engines in CSV and
JSON.  Each call's
exit code and the sha256 of its stdout must equal the recorded digests.  A
change that alters any emitted byte or exit code fails here.
Run this file as a script to print the digests of the current tree.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from latrec.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _entries(offsets, coeffs, levels=None):
    levels = levels or [0] * len(offsets)
    return [{"offset": o, "time_level": lv, "coeff": c}
            for o, lv, c in zip(offsets, levels, coeffs)]


LOCAL_CONFIGS = {
    # the support grows out of the box on every side within two steps
    "box_cuts_support.json": {
        "spatial_dim": 2, "time_order": 1, "spatial_shift": [0, 0],
        "stencil": _entries([[0, 0], [-1, 0], [1, 0], [0, -1], [0, 1]],
                            ["1/2", "-1/3", "1/4", "2/5", "1/6"]),
        "initial": {"rows": [[{"at": [0, 0], "value": "1"},
                              {"at": [2, 1], "value": "-3/4"}]]},
        "query": {"box": [[-1, 1], [0, 2]], "times": [0, 5]},
    },
    # two rows, so the engines' denominators differ; the region starts at t = 3
    "late_times.json": {
        "spatial_dim": 1, "time_order": 2, "spatial_shift": [1],
        "stencil": _entries([[0], [1], [0], [1]], ["1/2", "-1/3", "1/4", "1"],
                            [0, 0, 1, 1]),
        "initial": {"rows": [[{"at": [0], "value": "1"}, {"at": [2], "value": "-1/2"}],
                             [{"at": [1], "value": "3/2"}]]},
        "query": {"box": [[-4, 6]], "times": [3, 8]},
    },
    # listed out of order, (2, t=3) twice, one point far outside the support
    "repeated_points.json": {
        "spatial_dim": 1, "time_order": 1, "spatial_shift": [0],
        "stencil": _entries([[-1], [0], [1]], ["1/2", "1/3", "1/4"]),
        "initial": {"rows": [[{"at": [0], "value": "1"}, {"at": [3], "value": "-2/3"}]]},
        "query": {"points": [{"at": [2], "t": 3}, {"at": [0], "t": 1},
                            {"at": [2], "t": 3}, {"at": [-9], "t": 2},
                            {"at": [1], "t": 0}, {"at": [0], "t": 4}]},
    },
    # a 25x25 box around a support that reaches only two cells from the origin
    "wide_box.json": {
        "spatial_dim": 2, "time_order": 1, "spatial_shift": [0, 0],
        "stencil": _entries([[0, 0], [-1, 0], [0, 1]], ["1/3", "1/4", "-2/5"]),
        "initial": {"rows": [[{"at": [0, 0], "value": "3/2"},
                              {"at": [1, -1], "value": "-1"}]]},
        "query": {"box": [[-12, 12], [-12, 12]], "times": [0, 2]},
    },
    # the support drifts right, so (0) and (1) fall behind it; (1) repeats at
    # two times, (0, t=5) is listed twice
    "drift_repeats.json": {
        "spatial_dim": 1, "time_order": 1, "spatial_shift": [0],
        "stencil": _entries([[-1], [-2]], ["1/2", "-1/3"]),
        "initial": {"rows": [[{"at": [0], "value": "1"}, {"at": [1], "value": "2/3"}]]},
        "query": {"points": [{"at": [1], "t": 4}, {"at": [0], "t": 5},
                            {"at": [3], "t": 2}, {"at": [1], "t": 1},
                            {"at": [0], "t": 0}, {"at": [0], "t": 5},
                            {"at": [1], "t": 4}, {"at": [9], "t": 6},
                            {"at": [1], "t": 0}]},
    },
    # a 2D region from t = 3 whose box holds only part of the support
    "late_box_2d.json": {
        "spatial_dim": 2, "time_order": 1, "spatial_shift": [0, 0],
        "stencil": _entries([[0, 0], [1, 0], [0, -1], [1, 1]],
                            ["1/2", "2/3", "-1/4", "1/5"]),
        "initial": {"rows": [[{"at": [0, 0], "value": "1"},
                              {"at": [-1, 2], "value": "-5/3"}]]},
        "query": {"box": [[-4, 1], [-1, 4]], "times": [3, 6]},
    },
    # The next three aim at a packing of points into one int per query.  A
    # nine-point stencil from (0, 0) and (1, 1) fills [-3, 4] x [-3, 4] by
    # t = 3.  Each point listed here outside that square, below or above it on
    # either axis, lands on a nonzero cell if it is packed as if it were inside.
    "outside_points_2d.json": {
        "spatial_dim": 2, "time_order": 1, "spatial_shift": [0, 0],
        "stencil": _entries([[dx, dy] for dx in (-1, 0, 1) for dy in (-1, 0, 1)],
                            ["1/2", "-1/3", "1/4", "1/5", "1/6", "-2/7", "1/8", "1/9",
                             "3/10"]),
        "initial": {"rows": [[{"at": [0, 0], "value": "1"},
                              {"at": [1, 1], "value": "-3/2"}]]},
        "query": {"points": [{"at": [0, 5], "t": 3}, {"at": [2, -4], "t": 3},
                            {"at": [5, 0], "t": 2}, {"at": [-4, 1], "t": 3},
                            {"at": [1, 2], "t": 3}, {"at": [0, 5], "t": 1},
                            {"at": [1, 9], "t": 3}, {"at": [0, 0], "t": 0},
                            {"at": [1, 2], "t": 3}, {"at": [4, 4], "t": 3},
                            {"at": [-3, 12], "t": 3}, {"at": [9, -3], "t": 3}]},
    },
    # the same equation asked only at y = 6..9, above every cell it reaches
    "disjoint_box_2d.json": {
        "spatial_dim": 2, "time_order": 1, "spatial_shift": [0, 0],
        "stencil": _entries([[dx, dy] for dx in (-1, 0, 1) for dy in (-1, 0, 1)],
                            ["1/2", "-1/3", "1/4", "1/5", "1/6", "-2/7", "1/8", "1/9",
                             "3/10"]),
        "initial": {"rows": [[{"at": [0, 0], "value": "1"},
                              {"at": [1, 1], "value": "-3/2"}]]},
        "query": {"box": [[-1, 2], [6, 9]], "times": [0, 3]},
    },
    # time order 3 in 2D, one entry per level and two at the newest
    "three_rows_2d.json": {
        "spatial_dim": 2, "time_order": 3, "spatial_shift": [0, 0],
        "stencil": _entries([[0, 0], [1, 0], [0, -1], [-1, 1]],
                            ["1/2", "-1/3", "1/4", "1/5"], [2, 1, 0, 2]),
        "initial": {"rows": [[{"at": [0, 0], "value": "1"}],
                             [{"at": [1, 0], "value": "-1/2"}, {"at": [0, 1], "value": "2/3"}],
                             [{"at": [-1, -1], "value": "3/4"}]]},
        "query": {"box": [[-3, 2], [-2, 3]], "times": [2, 6]},
    },
}

# corner-implicit documents, U[i+1, j+1] = a U[i, j+1] + b U[i+1, j] + c U[i, j]
# with a the implicit_coeff, b the coeff at offset 1 and c at offset 0
CORNER_CONFIGS = {
    # listed out of order, (1, t=3) twice, points left of the support and
    # points right of the support's right end + t
    "corner_points.json": {
        "spatial_dim": 1, "time_order": 1, "spatial_shift": [1],
        "implicit_corner": True, "implicit_coeff": "1/2",
        "stencil": _entries([[1], [0]], ["-2/3", "1/5"]),
        "initial": {"rows": [[{"at": [0], "value": "1"}, {"at": [2], "value": "-1/3"},
                              {"at": [3], "value": "3/4"}]]},
        "query": {"points": [{"at": [1], "t": 3}, {"at": [-5], "t": 2},
                            {"at": [12], "t": 4}, {"at": [1], "t": 3},
                            {"at": [0], "t": 0}, {"at": [-1], "t": 6},
                            {"at": [2], "t": 5}, {"at": [20], "t": 6},
                            {"at": [9], "t": 1}, {"at": [4], "t": 0}]},
    },
    # b = 0: no stencil entry at offset 1
    "corner_b_zero.json": {
        "spatial_dim": 1, "time_order": 1, "spatial_shift": [1],
        "implicit_corner": True, "implicit_coeff": "-1/3",
        "stencil": _entries([[0]], ["2/5"]),
        "initial": {"rows": [[{"at": [0], "value": "1"}, {"at": [1], "value": "-1/2"},
                              {"at": [4], "value": "1/3"}]]},
        "query": {"box": [[-3, 10]], "times": [0, 6]},
    },
}


def calls(scratch: Path):
    for path in sorted(CONFIG_DIR.glob("*.json")):
        config = ["--config", str(path)]
        for evaluator in ("auto", "nd", "tridiagonal-j-n"):
            yield f"verify {evaluator} {path.name}", ["verify", *config, "--evaluator", evaluator]
        yield f"verify tmax3 {path.name}", ["verify", *config, "--tmax", "3"]
        # every config runs the verify engine, so solve reads a copy per engine
        for engine in ("closed", "oracle"):
            copy = scratch / f"{engine}_{path.name}"
            copy.write_text(json.dumps(dict(json.loads(path.read_text()), engine=engine)))
            # the closed engine's names predate the oracle's
            label = "solve" if engine == "closed" else "solve oracle"
            for out_format in ("csv", "json"):
                yield (f"{label} {out_format} {path.name}",
                       ["solve", "--config", str(copy), "--format", out_format])
        for power in (0, 3, 7):
            yield f"expand {power} {path.name}", ["expand", *config, "--power", str(power)]
    for name, doc in LOCAL_CONFIGS.items():
        for engine in ("verify", "closed", "oracle"):
            path = scratch / f"{engine}_{name}"
            path.write_text(json.dumps(dict(doc, engine=engine)))
            if engine == "verify":
                for evaluator in ("auto", "nd"):
                    yield (f"verify {evaluator} {name}",
                           ["verify", "--config", str(path), "--evaluator", evaluator])
                continue
            for out_format in ("csv", "json"):
                yield (f"solve {engine} {out_format} {name}",
                       ["solve", "--config", str(path), "--format", out_format])
    for name, doc in CORNER_CONFIGS.items():
        for engine in ("verify", "closed", "oracle"):
            path = scratch / f"{engine}_{name}"
            path.write_text(json.dumps(dict(doc, engine=engine)))
            if engine == "verify":
                for evaluator in ("auto", "implicit"):
                    argv = ["verify", "--config", str(path), "--evaluator", evaluator]
                    yield f"verify {evaluator} {name}", argv
                    yield f"verify {evaluator} tmax3 {name}", [*argv, "--tmax", "3"]
                continue
            for out_format in ("csv", "json"):
                yield (f"solve {engine} {out_format} {name}",
                       ["solve", "--config", str(path), "--format", out_format])
    for out_format in ("csv", "json"):
        for r in ("1/4", "2/7", "1/2", "2"):
            for steps in ("0", "1", "9", "40"):
                yield (f"heat {out_format} r={r} steps={steps}",
                       ["demo", "heat", "--r", r, "--steps", steps, "--format", out_format])
        for p, d, q, steps in (("1/2", "0", "1/2", "12"), ("1/3", "1/6", "1/2", "9"),
                               ("2/7", "3/7", "2/7", "15")):
            yield (f"random-walk {out_format} p={p} d={d} q={q}",
                   ["demo", "random-walk", "--p", p, "--d", d, "--q", q,
                    "--steps", steps, "--format", out_format])
    # deep rows over a prime-power denominator, where a value's numerator
    # shares up to the fifth power of the prime
    for r in ("2/7", "1/4"):
        yield f"heat csv r={r} steps=120", ["demo", "heat", "--r", r, "--steps", "120"]
    yield ("random-walk csv p=1/7 d=2/7 q=4/7 steps=80",
           ["demo", "random-walk", "--p", "1/7", "--d", "2/7", "--q", "4/7", "--steps", "80"])


def digests():
    out = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name, argv in calls(Path(scratch)):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                status = main(argv)
            out[name] = (status, hashlib.sha256(stdout.getvalue().encode()).hexdigest())
    return out


GOLDEN = {
    'verify auto corner_implicit.json': (0, '13734a612b19f53ebfe5dd48b228e899b3da35371346516b641bb4d5cbd3ff94'),
    'verify nd corner_implicit.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tridiagonal-j-n corner_implicit.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tmax3 corner_implicit.json': (0, '87aeb19dcbcd6969621b5ba66eb0eb512930f9e101e81155b1be159868ad7293'),
    'solve csv corner_implicit.json': (0, '3ad2e910714dd4d2ca2af6f5bcf8bc3053e0157ae8d84ddbe710af308e095a48'),
    'solve json corner_implicit.json': (0, 'eed9e0c32e16eb667a3f3d8e34f8771698c92fb3db1b054154a94ee5ac57feff'),
    'solve oracle csv corner_implicit.json': (0, '3ad2e910714dd4d2ca2af6f5bcf8bc3053e0157ae8d84ddbe710af308e095a48'),
    'solve oracle json corner_implicit.json': (0, 'eed9e0c32e16eb667a3f3d8e34f8771698c92fb3db1b054154a94ee5ac57feff'),
    'expand 0 corner_implicit.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'expand 3 corner_implicit.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'expand 7 corner_implicit.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify auto grid2d_drift.json': (0, '932584a56ea2e0430260418a2c9ae550f54f90debff48c02af6db7c02818b383'),
    'verify nd grid2d_drift.json': (0, '932584a56ea2e0430260418a2c9ae550f54f90debff48c02af6db7c02818b383'),
    'verify tridiagonal-j-n grid2d_drift.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tmax3 grid2d_drift.json': (0, '829b0cbf7b8dc5df3d7957129463a015448b96038d47a9ee331e308c9fc35526'),
    'solve csv grid2d_drift.json': (0, '58890f6dd03b469cf58e424f2725d92fae591e5e3643fbeb43c3108f84abb069'),
    'solve json grid2d_drift.json': (0, 'f7267a538f192ffa44d9bbe54cd4fdc624e8cbe3dc2e67d6a9504160ad9a4c80'),
    'solve oracle csv grid2d_drift.json': (0, '58890f6dd03b469cf58e424f2725d92fae591e5e3643fbeb43c3108f84abb069'),
    'solve oracle json grid2d_drift.json': (0, 'f7267a538f192ffa44d9bbe54cd4fdc624e8cbe3dc2e67d6a9504160ad9a4c80'),
    'expand 0 grid2d_drift.json': (0, 'cf8f6d9f0df8c55ff8ff936c8284e99a38b3443c4fc4a01b3e815a87458d9121'),
    'expand 3 grid2d_drift.json': (0, '63b3c8e6af45318f0f34a64f72ad4527e9bbf68fc47bb220d2ab181c797695f7'),
    'expand 7 grid2d_drift.json': (0, '51668a82c4fe256ce9d7602ce8f19a6818c8cb5b816a68698577530e482df1e5'),
    'verify auto heat_quarter.json': (0, '776409f0de9b308354ad30e5fe061198c2741dfc2f92d80124d4420565e37770'),
    'verify nd heat_quarter.json': (0, '776409f0de9b308354ad30e5fe061198c2741dfc2f92d80124d4420565e37770'),
    'verify tridiagonal-j-n heat_quarter.json': (1, '1c265731fb93ea3130361ab0e3b785d019863992b66562f612347591a9b25362'),
    'verify tmax3 heat_quarter.json': (0, '8f60b2498a73120ce778d784cdc504490af0d01cdda305fb780cd22ef3789c67'),
    'solve csv heat_quarter.json': (0, '4fba4e3907138ed6d781d9b3d8d2327cd847aba6842b2c113ff37f8db2ae1620'),
    'solve json heat_quarter.json': (0, '33dd1b98ceba8cfff7e6330fecefce34a3e74ef3674bdc764b11889aa6b49b03'),
    'solve oracle csv heat_quarter.json': (0, '4fba4e3907138ed6d781d9b3d8d2327cd847aba6842b2c113ff37f8db2ae1620'),
    'solve oracle json heat_quarter.json': (0, '33dd1b98ceba8cfff7e6330fecefce34a3e74ef3674bdc764b11889aa6b49b03'),
    'expand 0 heat_quarter.json': (0, '4cafc1c755c24cc8f6552247dc7c0ba076944c9f41b4a8edf600d4659601d98f'),
    'expand 3 heat_quarter.json': (0, '664d6bc964a64130d13ba9af16f32dd080d03d4f8c11ebbe3146db49e967e9fd'),
    'expand 7 heat_quarter.json': (0, '94261841f70f3217f861d4225fe51739053a95efcd0caffbd33c0793144b2ed8'),
    'verify auto identity.json': (0, '9784575efd4ca49e1838debe45d14816fc19156a319c575302917328767ddc89'),
    'verify nd identity.json': (0, '9784575efd4ca49e1838debe45d14816fc19156a319c575302917328767ddc89'),
    'verify tridiagonal-j-n identity.json': (1, '484e2cf44ba026da1e2061ffce19bc9744b223d144419909226d4725017c1f34'),
    'verify tmax3 identity.json': (0, 'e63a1b408c9b849ffad813b23f8072e01509b4c07bbec9a005c8cdf6b9164ce8'),
    'solve csv identity.json': (0, '0990874e2cdbd816609d815dcd4c4e20049e269be6e952888eeb208ac00f231c'),
    'solve json identity.json': (0, '44321e44820efa175680baa286c0693a24024ae47c9611aaa8c165839799a464'),
    'solve oracle csv identity.json': (0, '0990874e2cdbd816609d815dcd4c4e20049e269be6e952888eeb208ac00f231c'),
    'solve oracle json identity.json': (0, '44321e44820efa175680baa286c0693a24024ae47c9611aaa8c165839799a464'),
    'expand 0 identity.json': (0, 'c0d1c694d4ace40c0875d573d8b9d577bfebcc16f2768530ba3b81d5cb897d66'),
    'expand 3 identity.json': (0, '380c687cdfb9fc876499263ccc7fb021e50887f0f09e06b7531bf4c2615c7ead'),
    'expand 7 identity.json': (0, '54171596e36f104b2b7a4adb71166a409a67ca0de093762504f73c91ddf4b160'),
    'verify auto lattice3d_diffusion.json': (0, 'c3b108abe863ebd9fafdfa98ebf93f543d6903fa257c89d07545f5dbe1ade5ba'),
    'verify nd lattice3d_diffusion.json': (0, 'c3b108abe863ebd9fafdfa98ebf93f543d6903fa257c89d07545f5dbe1ade5ba'),
    'verify tridiagonal-j-n lattice3d_diffusion.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tmax3 lattice3d_diffusion.json': (0, 'c3b108abe863ebd9fafdfa98ebf93f543d6903fa257c89d07545f5dbe1ade5ba'),
    'solve csv lattice3d_diffusion.json': (0, '75a68a08c36c43e176d7ed67c2a0e0a9500b449308ee01e8ea0afac3c4257b0b'),
    'solve json lattice3d_diffusion.json': (0, 'f43c07ba3f940406c0c1de6916f54b921022de88d0e52a3aa9efa6b5035658cc'),
    'solve oracle csv lattice3d_diffusion.json': (0, '75a68a08c36c43e176d7ed67c2a0e0a9500b449308ee01e8ea0afac3c4257b0b'),
    'solve oracle json lattice3d_diffusion.json': (0, 'f43c07ba3f940406c0c1de6916f54b921022de88d0e52a3aa9efa6b5035658cc'),
    'expand 0 lattice3d_diffusion.json': (0, '12b1bdfc1cf634c8588d5dd48dadd289d43e116abe4ea5d79ab33eca8db45602'),
    'expand 3 lattice3d_diffusion.json': (0, '1eba38db5ff3ef08f86ff516789d9c2847b03de7594f7fb1803af0bdffd786bf'),
    'expand 7 lattice3d_diffusion.json': (0, '11d7deacf3e0a2e3368a3de05ac0785aed2585ea2ca0090b4af81df6d45a1900'),
    'verify auto ninepoint_uniform.json': (0, 'cc29738eff15dbf72b15793a7005e25a949d3dfe1c8cf0e30564956dd570ebab'),
    'verify nd ninepoint_uniform.json': (0, 'cc29738eff15dbf72b15793a7005e25a949d3dfe1c8cf0e30564956dd570ebab'),
    'verify tridiagonal-j-n ninepoint_uniform.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tmax3 ninepoint_uniform.json': (0, '5888a8218b27f5e20731aa506286347eeecb4ef2157548154b0517597343b4e8'),
    'solve csv ninepoint_uniform.json': (0, 'd6f7d1896482a92af6aba9a02534ac0d77f5acd407d2f5edb0bfda1e4b08bf3a'),
    'solve json ninepoint_uniform.json': (0, '2a4e0338208cab57ebc3b54134955bd7b4268990aa50bdffe3a68a7bbe328fb6'),
    'solve oracle csv ninepoint_uniform.json': (0, 'd6f7d1896482a92af6aba9a02534ac0d77f5acd407d2f5edb0bfda1e4b08bf3a'),
    'solve oracle json ninepoint_uniform.json': (0, '2a4e0338208cab57ebc3b54134955bd7b4268990aa50bdffe3a68a7bbe328fb6'),
    'expand 0 ninepoint_uniform.json': (0, '1e6e9dee8a978c3c86e0c93ef868e704fe4bcef61c54bf1502d15029c791b63e'),
    'expand 3 ninepoint_uniform.json': (0, '9acdd40368852f6ae35bee1cf6e27124a26b86ba9f80143006bd0728f1ae4469'),
    'expand 7 ninepoint_uniform.json': (0, '991b80f5127eb941dc7fb351d1b0ed557c75d5e65d8f6ef61a9839ee2935e0ac'),
    'verify auto one_row_shift.json': (0, 'fb7a3225c8ce19de9b5186bf2bd9ad7fc092e618f05c2cf2d88a13bbaf453288'),
    'verify nd one_row_shift.json': (0, 'fb7a3225c8ce19de9b5186bf2bd9ad7fc092e618f05c2cf2d88a13bbaf453288'),
    'verify tridiagonal-j-n one_row_shift.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tmax3 one_row_shift.json': (0, '8b498c27e25643ffd29b757e03d7e49148c850b6e76e44a7fa38a0bf2bef1f18'),
    'solve csv one_row_shift.json': (0, '21f0eb78fafc6823a1635dd94c4708809faf2034d1cbc40f4827d27e9393b02b'),
    'solve json one_row_shift.json': (0, '38cef88b93146a7c808d6e4f2d6a45ed19bb32b368e7f8fd36c3012256db4d57'),
    'solve oracle csv one_row_shift.json': (0, '21f0eb78fafc6823a1635dd94c4708809faf2034d1cbc40f4827d27e9393b02b'),
    'solve oracle json one_row_shift.json': (0, '38cef88b93146a7c808d6e4f2d6a45ed19bb32b368e7f8fd36c3012256db4d57'),
    'expand 0 one_row_shift.json': (0, '3a21cb51b98e59a5498041353ed6d504820a229baf1934512f0740f944e8ed39'),
    'expand 3 one_row_shift.json': (0, '24640907aa7ed2884b45aa28a034e6885580665554c3102e79af77e8e015402d'),
    'expand 7 one_row_shift.json': (0, '4f8f2e1ad3d11f95e77eb68aeacaf8ff44dcd2f050dc27c306f8821ed30d838a'),
    'verify auto one_row_wide.json': (0, '267a46fc275f27735aab7b66aa118a79a91b88473c4f83bfcfd18f4736077f09'),
    'verify nd one_row_wide.json': (0, '267a46fc275f27735aab7b66aa118a79a91b88473c4f83bfcfd18f4736077f09'),
    'verify tridiagonal-j-n one_row_wide.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tmax3 one_row_wide.json': (0, '156d821513daa9e33d6c30ecea6cd43231e17fa40b7fa5e543370b1c20eda783'),
    'solve csv one_row_wide.json': (0, '7d86d28c66e1f8ae3f74855608474f35532c6240ce56c4435993ab0f164f5886'),
    'solve json one_row_wide.json': (0, '2e9c105a910778e700d63602aa6f0d0328cc01c227cfdc2315447b29738fa32f'),
    'solve oracle csv one_row_wide.json': (0, '7d86d28c66e1f8ae3f74855608474f35532c6240ce56c4435993ab0f164f5886'),
    'solve oracle json one_row_wide.json': (0, '2e9c105a910778e700d63602aa6f0d0328cc01c227cfdc2315447b29738fa32f'),
    'expand 0 one_row_wide.json': (0, '4b80079939bae04dc8b876d91e626d8a57313ac3affe09f047d5da340e48746d'),
    'expand 3 one_row_wide.json': (0, '091d217333bc576577c234906d9cee2e8137000d791c7988a21d2748e1b0a149'),
    'expand 7 one_row_wide.json': (0, '341e795839a49587213a730e15ec08c38660a2e4695f3259a0a5a9467ecc5131'),
    'verify auto random_walk_symmetric.json': (0, 'c35d68e8720e20b38ca4ed368a73f209fef897e7c32e2521005c23319781aef6'),
    'verify nd random_walk_symmetric.json': (0, 'c35d68e8720e20b38ca4ed368a73f209fef897e7c32e2521005c23319781aef6'),
    'verify tridiagonal-j-n random_walk_symmetric.json': (0, 'c35d68e8720e20b38ca4ed368a73f209fef897e7c32e2521005c23319781aef6'),
    'verify tmax3 random_walk_symmetric.json': (0, '2be8cbb8f91e0f1509c685a46a639e948623047af9140c139a637f8ed43063a1'),
    'solve csv random_walk_symmetric.json': (0, 'b9f5a5b5bb6e50428d62308a35134bc267b5861671c9b557661af93482e9f403'),
    'solve json random_walk_symmetric.json': (0, '7920924ee72d13edbca097457fc36e2d878ac5ae6bad2dec008a73c3152cad0a'),
    'solve oracle csv random_walk_symmetric.json': (0, 'b9f5a5b5bb6e50428d62308a35134bc267b5861671c9b557661af93482e9f403'),
    'solve oracle json random_walk_symmetric.json': (0, '7920924ee72d13edbca097457fc36e2d878ac5ae6bad2dec008a73c3152cad0a'),
    'expand 0 random_walk_symmetric.json': (0, 'ea163d152569afb98e0433634d3949ab55fb27509a615f3b80e56e1767e61f94'),
    'expand 3 random_walk_symmetric.json': (0, '5944b1a1407b9d41a0d09e2fc5af22041badb249485a99d0cc49eff6ef238817'),
    'expand 7 random_walk_symmetric.json': (0, '4e1ba292ecd27a1667454e12ea5cda231d9c1334a68cb5cd596daa6d97558fad'),
    'verify auto tridiagonal_mixed.json': (0, '18e445eefec6d6c1728fdac81c9ff4e456911474c64d84a1bd3d5f88b2bc4a3f'),
    'verify nd tridiagonal_mixed.json': (0, '18e445eefec6d6c1728fdac81c9ff4e456911474c64d84a1bd3d5f88b2bc4a3f'),
    'verify tridiagonal-j-n tridiagonal_mixed.json': (1, '9b543502ac8a4cd77dff809a2a6fa0a452f63b056e378eeed09b92ab1e12115e'),
    'verify tmax3 tridiagonal_mixed.json': (0, 'f7174d62d0d9e445183f4b70a88b72b706b2fec60deda3dadeb930a56482e48d'),
    'solve csv tridiagonal_mixed.json': (0, '9f1dcb214eab9e08e02b2944fe2f902de53b6bc050d4a6fca18d7699d2868453'),
    'solve json tridiagonal_mixed.json': (0, '58a96c624e2334111fe699122037f865309832d5a3b632a9ee2edc6b26febd98'),
    'solve oracle csv tridiagonal_mixed.json': (0, '9f1dcb214eab9e08e02b2944fe2f902de53b6bc050d4a6fca18d7699d2868453'),
    'solve oracle json tridiagonal_mixed.json': (0, '58a96c624e2334111fe699122037f865309832d5a3b632a9ee2edc6b26febd98'),
    'expand 0 tridiagonal_mixed.json': (0, '713e485587753c04041f400c350f776835970ef0a5f2efb8af565d78c83aed88'),
    'expand 3 tridiagonal_mixed.json': (0, 'f1e12956bd97965a20907b9a3f36bbda85360524e52ed0259821affa49885470'),
    'expand 7 tridiagonal_mixed.json': (0, 'a1e95b1d00268c9c213334ebc9b6ced6413f41c289afc32f85d125a6bf2ee5c5'),
    'verify auto two_row_fibonacci.json': (0, 'aa556df42048b344c39ee957374cd067ef87865b2cd3a25def884b2576c1454f'),
    'verify nd two_row_fibonacci.json': (0, 'aa556df42048b344c39ee957374cd067ef87865b2cd3a25def884b2576c1454f'),
    'verify tridiagonal-j-n two_row_fibonacci.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tmax3 two_row_fibonacci.json': (0, '993a0b0e3e7351861be21d0bfee9c7eab9810e6071d00161ec06b601863be3b2'),
    'solve csv two_row_fibonacci.json': (0, 'b5457fb1c7d5b648e8d15380f247b0527a446a7896b72530384332964574179d'),
    'solve json two_row_fibonacci.json': (0, 'bfc9494dee24d56466010678dbe108590182d98bfc01a952841a028653b7faae'),
    'solve oracle csv two_row_fibonacci.json': (0, 'b5457fb1c7d5b648e8d15380f247b0527a446a7896b72530384332964574179d'),
    'solve oracle json two_row_fibonacci.json': (0, 'bfc9494dee24d56466010678dbe108590182d98bfc01a952841a028653b7faae'),
    'expand 0 two_row_fibonacci.json': (0, '6b2f4ebc6ac2aee961def7f0fb3361c714ccd8ad548e758b9ac09d3bd75291de'),
    'expand 3 two_row_fibonacci.json': (0, '99f10cbae6137e5b74336de01d21736114b6514a9e256ed5ca1457f1ac2e250b'),
    'expand 7 two_row_fibonacci.json': (0, '190a822b144462cd6c2a1777f0ba8ee8d42f86c1656416229009fb0225fe2e13'),
    'verify auto two_row_mixed.json': (0, '9f671c9b86d2a7a633a72014264ea4fbcec71764e2b741d6bc4bad1d8c6b1321'),
    'verify nd two_row_mixed.json': (0, '9f671c9b86d2a7a633a72014264ea4fbcec71764e2b741d6bc4bad1d8c6b1321'),
    'verify tridiagonal-j-n two_row_mixed.json': (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'verify tmax3 two_row_mixed.json': (0, '484e83e6dd00b8e3666cc84373f96e930df78dc1ccfac8365c30c170efd17baa'),
    'solve csv two_row_mixed.json': (0, 'd89ef3e3989554c15a9ef591cabedbfebcc1458a241427400cd6af297b2ae9a6'),
    'solve json two_row_mixed.json': (0, 'ac20c7154cab9c1cd09df058398de1a711e981b43a12e5d2b3c3430df6780846'),
    'solve oracle csv two_row_mixed.json': (0, 'd89ef3e3989554c15a9ef591cabedbfebcc1458a241427400cd6af297b2ae9a6'),
    'solve oracle json two_row_mixed.json': (0, 'ac20c7154cab9c1cd09df058398de1a711e981b43a12e5d2b3c3430df6780846'),
    'expand 0 two_row_mixed.json': (0, '0b3c995fb37a209dfb8aa43c8a626afff53847a927ae190b15a90c0d9bf5f458'),
    'expand 3 two_row_mixed.json': (0, '5a8e493fd080aea67905b395a05c201e8d5343c2a19ad4ee00e6ed60b97bea91'),
    'expand 7 two_row_mixed.json': (0, '1309f3a692d6ff7f37021250bf382480b75696cef772ef40321af91eda57f55e'),
    'verify auto box_cuts_support.json': (0, '54e2b74d383cf07a37dfa09424969908940b29d317f75c13e00d5aae7d36b52d'),
    'verify nd box_cuts_support.json': (0, '54e2b74d383cf07a37dfa09424969908940b29d317f75c13e00d5aae7d36b52d'),
    'solve closed csv box_cuts_support.json': (0, 'dceec5086a5147af9baf7b7caebf42d900e036bbe075e9468ee0dd30b4bf891f'),
    'solve closed json box_cuts_support.json': (0, 'cc6cf0968625ac8806c837a62ab9710ea47b665c8d840d0a7e0c863a423f6578'),
    'solve oracle csv box_cuts_support.json': (0, 'dceec5086a5147af9baf7b7caebf42d900e036bbe075e9468ee0dd30b4bf891f'),
    'solve oracle json box_cuts_support.json': (0, 'cc6cf0968625ac8806c837a62ab9710ea47b665c8d840d0a7e0c863a423f6578'),
    'verify auto late_times.json': (0, '7bb358caa295bc79c32167d6c4cbd584963959b6814afe647c3bb2a37459fbf8'),
    'verify nd late_times.json': (0, '7bb358caa295bc79c32167d6c4cbd584963959b6814afe647c3bb2a37459fbf8'),
    'solve closed csv late_times.json': (0, 'dacb92f090d784c756e98789bcaa81570b893b32575a0a6b17dda8afe09f7d75'),
    'solve closed json late_times.json': (0, '8fc16d675e5c663685210e2ad9b1a0053d901b8a7e9b9267b20229ab4f533321'),
    'solve oracle csv late_times.json': (0, 'dacb92f090d784c756e98789bcaa81570b893b32575a0a6b17dda8afe09f7d75'),
    'solve oracle json late_times.json': (0, '8fc16d675e5c663685210e2ad9b1a0053d901b8a7e9b9267b20229ab4f533321'),
    'verify auto repeated_points.json': (0, 'e42bc0f5e1262bfa38f3eda1fe6dbf74bc49f98a6f3d239073df6a69a04952e1'),
    'verify nd repeated_points.json': (0, 'e42bc0f5e1262bfa38f3eda1fe6dbf74bc49f98a6f3d239073df6a69a04952e1'),
    'solve closed csv repeated_points.json': (0, '2652bca277f6ffa1773733b5a75f5ee4771e8c2ccf711c09d345907b6bba4510'),
    'solve closed json repeated_points.json': (0, 'b10bc77dcd3237e7be9179e9d463d6e4fe56a53d8f762ee70a8e347daaf52424'),
    'solve oracle csv repeated_points.json': (0, '2652bca277f6ffa1773733b5a75f5ee4771e8c2ccf711c09d345907b6bba4510'),
    'solve oracle json repeated_points.json': (0, 'b10bc77dcd3237e7be9179e9d463d6e4fe56a53d8f762ee70a8e347daaf52424'),
    'verify auto wide_box.json': (0, '3f219e38a9d2878b8231e00432bd1a002a36c3d8da351c02429e78eee435b8f0'),
    'verify nd wide_box.json': (0, '3f219e38a9d2878b8231e00432bd1a002a36c3d8da351c02429e78eee435b8f0'),
    'solve closed csv wide_box.json': (0, 'c87e717025d2dff76b31068a2603d59ddcf1b84def20da6f1343f6eab47f6518'),
    'solve closed json wide_box.json': (0, '0f2d37465d9e56b9f8b676ecb7a4d774e1cb94b08a960101854f2c6616293808'),
    'solve oracle csv wide_box.json': (0, 'c87e717025d2dff76b31068a2603d59ddcf1b84def20da6f1343f6eab47f6518'),
    'solve oracle json wide_box.json': (0, '0f2d37465d9e56b9f8b676ecb7a4d774e1cb94b08a960101854f2c6616293808'),
    'verify auto drift_repeats.json': (0, '9dad6de09d9cd2390dabcb4f42b247dbba2b24cced28d17ba877363c86e230d7'),
    'verify nd drift_repeats.json': (0, '9dad6de09d9cd2390dabcb4f42b247dbba2b24cced28d17ba877363c86e230d7'),
    'solve closed csv drift_repeats.json': (0, 'c20f46ad31bf516e473999c1bad2f9b79115c266c5a948c0472620d2efdf8d2c'),
    'solve closed json drift_repeats.json': (0, '2d12855e4201484d070e6f406aa2a72ccf92154fa3128deae56e419e84daef1b'),
    'solve oracle csv drift_repeats.json': (0, 'c20f46ad31bf516e473999c1bad2f9b79115c266c5a948c0472620d2efdf8d2c'),
    'solve oracle json drift_repeats.json': (0, '2d12855e4201484d070e6f406aa2a72ccf92154fa3128deae56e419e84daef1b'),
    'verify auto late_box_2d.json': (0, '00b47c683e86ba2a8f91ec84a90c394ab7ac18c139248a567651f93fce203ea4'),
    'verify nd late_box_2d.json': (0, '00b47c683e86ba2a8f91ec84a90c394ab7ac18c139248a567651f93fce203ea4'),
    'solve closed csv late_box_2d.json': (0, '0af805f6c06e9288730f3643610548a90d6ad04a070a1475be0b902abbc050eb'),
    'solve closed json late_box_2d.json': (0, 'dc7c8a9cde447da203d879138b5c0642e5d00359f76d96f2af02a1bdf34788ff'),
    'solve oracle csv late_box_2d.json': (0, '0af805f6c06e9288730f3643610548a90d6ad04a070a1475be0b902abbc050eb'),
    'solve oracle json late_box_2d.json': (0, 'dc7c8a9cde447da203d879138b5c0642e5d00359f76d96f2af02a1bdf34788ff'),
    'verify auto outside_points_2d.json': (0, '76327d6a21d000547b81247e418f39cd41ea244ba10c29535721a60aaea19f06'),
    'verify nd outside_points_2d.json': (0, '76327d6a21d000547b81247e418f39cd41ea244ba10c29535721a60aaea19f06'),
    'solve closed csv outside_points_2d.json': (0, '296d6122b948c15ee18a42f9b1154fe27525aedf4eab1b9762fd147106004e20'),
    'solve closed json outside_points_2d.json': (0, '79b5e90df5c2b5f074710a5176743f3473d457adcfdd76d7990be99843b6621d'),
    'solve oracle csv outside_points_2d.json': (0, '296d6122b948c15ee18a42f9b1154fe27525aedf4eab1b9762fd147106004e20'),
    'solve oracle json outside_points_2d.json': (0, '79b5e90df5c2b5f074710a5176743f3473d457adcfdd76d7990be99843b6621d'),
    'verify auto disjoint_box_2d.json': (0, 'aa37daa841f20c709ab54d832b4c63f975d2c8a60043c28a30c3061d3e178a0a'),
    'verify nd disjoint_box_2d.json': (0, 'aa37daa841f20c709ab54d832b4c63f975d2c8a60043c28a30c3061d3e178a0a'),
    'solve closed csv disjoint_box_2d.json': (0, 'c72920beda71ed33842e3405feb9e03fc0fb0286375bddbb224109ae58e0f89c'),
    'solve closed json disjoint_box_2d.json': (0, '07ec90ab51c1233ab565ea770c8ce7b827e5c9d048fc47da8b5b5f4be434641a'),
    'solve oracle csv disjoint_box_2d.json': (0, 'c72920beda71ed33842e3405feb9e03fc0fb0286375bddbb224109ae58e0f89c'),
    'solve oracle json disjoint_box_2d.json': (0, '07ec90ab51c1233ab565ea770c8ce7b827e5c9d048fc47da8b5b5f4be434641a'),
    'verify auto three_rows_2d.json': (0, 'a0deaa2760f899476b7cd8e11dc83bd36285fa91107e5f1acc9b65872a15b371'),
    'verify nd three_rows_2d.json': (0, 'a0deaa2760f899476b7cd8e11dc83bd36285fa91107e5f1acc9b65872a15b371'),
    'solve closed csv three_rows_2d.json': (0, '764f25f2d3257aac4ba4f321aa5e8cd59230228e638bd2bb510d50be8bd0fabb'),
    'solve closed json three_rows_2d.json': (0, '215e57a3cd808ffbddfe903a3488002a2e0662e3076309ad8d1452eb810f6926'),
    'solve oracle csv three_rows_2d.json': (0, '764f25f2d3257aac4ba4f321aa5e8cd59230228e638bd2bb510d50be8bd0fabb'),
    'solve oracle json three_rows_2d.json': (0, '215e57a3cd808ffbddfe903a3488002a2e0662e3076309ad8d1452eb810f6926'),
    'verify auto corner_points.json': (0, '6e780d2881b945c08b870af36c42cc71e8bf2cef9ae02e1366d8c1f5977084b7'),
    'verify auto tmax3 corner_points.json': (0, 'e0d581094484c9a7087ba286ba846b77279f9c63dc3da0c4a94f56ba479c918b'),
    'verify implicit corner_points.json': (0, '6e780d2881b945c08b870af36c42cc71e8bf2cef9ae02e1366d8c1f5977084b7'),
    'verify implicit tmax3 corner_points.json': (0, 'e0d581094484c9a7087ba286ba846b77279f9c63dc3da0c4a94f56ba479c918b'),
    'solve closed csv corner_points.json': (0, '5def041854e608bc79d4a88f0253ae4f6137b545135082c46f85f3a19604e801'),
    'solve closed json corner_points.json': (0, '7f3221f1ba982fe92375e2f4dd08699b0d818b4efb6e757c5acde41cc31e21d9'),
    'solve oracle csv corner_points.json': (0, '5def041854e608bc79d4a88f0253ae4f6137b545135082c46f85f3a19604e801'),
    'solve oracle json corner_points.json': (0, '7f3221f1ba982fe92375e2f4dd08699b0d818b4efb6e757c5acde41cc31e21d9'),
    'verify auto corner_b_zero.json': (0, '602da5f715ca21ad5e8b2c6de42e3295a12f27cd88683b653cf8ef7456ca876e'),
    'verify auto tmax3 corner_b_zero.json': (0, 'a2f4b45113c5d0ff32cc4540da598922e3372e1e44c968a725ca17cce6691c1a'),
    'verify implicit corner_b_zero.json': (0, '602da5f715ca21ad5e8b2c6de42e3295a12f27cd88683b653cf8ef7456ca876e'),
    'verify implicit tmax3 corner_b_zero.json': (0, 'a2f4b45113c5d0ff32cc4540da598922e3372e1e44c968a725ca17cce6691c1a'),
    'solve closed csv corner_b_zero.json': (0, '7f1d407b6ee55141face3f69b438de3ca5fca71490c5f4b672fd0efdc466d3af'),
    'solve closed json corner_b_zero.json': (0, 'fa1d0810525b88a9108ed22ad61cb878cad04f102e2313f0affca49c130a7acc'),
    'solve oracle csv corner_b_zero.json': (0, '7f1d407b6ee55141face3f69b438de3ca5fca71490c5f4b672fd0efdc466d3af'),
    'solve oracle json corner_b_zero.json': (0, 'fa1d0810525b88a9108ed22ad61cb878cad04f102e2313f0affca49c130a7acc'),
    'heat csv r=1/4 steps=0': (0, '0547aeea053a7488ff9e5cc5a5d811a6c6e68f7329563b9845ad2a1d86a37951'),
    'heat csv r=1/4 steps=1': (0, '30b5bac98d3efeda04959a72cd6e6a083d2b1c8c073f1750570073a7b06b45a8'),
    'heat csv r=1/4 steps=9': (0, 'ce4690e2e62befc8a7effe9bd0030b910af83dbc2d1f13f577ad62a48162165b'),
    'heat csv r=1/4 steps=40': (0, 'fbecebbd02fdc94f599d6a18be60c5515d6a4ad19a6eb9cabb53231c12a624f2'),
    'heat csv r=2/7 steps=0': (0, '1725f95aa8166af9824315b64607f0f7055cf73c4a03de31453b72aaa3cd3405'),
    'heat csv r=2/7 steps=1': (0, 'e6c48b50b74f244862d74837894300cc6aeb68453b24513c10cac07b621b76dc'),
    'heat csv r=2/7 steps=9': (0, '3c5da513d6de7d1591beb80fcbbbb4746e07b6783e1c5d010bf5c6fe5114f86b'),
    'heat csv r=2/7 steps=40': (0, '0d96f132cc6cf42e34c7d30efd5091798842bfc4977c683a435cda967fd95d40'),
    'heat csv r=1/2 steps=0': (0, 'e84bc9e2629dd201c5e1194708a48067c090e72119608cc61e73d6adacdb8295'),
    'heat csv r=1/2 steps=1': (0, 'b6ae99de31de9134b0ba79b82a7991b03f37d0557cc202dee049ce234cd2e8f8'),
    'heat csv r=1/2 steps=9': (0, 'ac8ef39a580955b0513dd692a419a61cc2482dd118d35309d7bc9fa543aa2661'),
    'heat csv r=1/2 steps=40': (0, '21acb13bd320f944206aa055cd0bd73f1a24d98d417866cb1d4773fe964f7960'),
    'heat csv r=2 steps=0': (0, 'f9638c3a2646407bf30662d4040c2c00181bc7bd91ad1caa2656f91f28b2fe78'),
    'heat csv r=2 steps=1': (0, '69840fa91a25e2c9603ab0bb6e312692469ca34675e50224bc031af2b4907afa'),
    'heat csv r=2 steps=9': (0, 'fd422453fe3a5f67330847c4f9922ddbebc5218a66ca3f27101066cd37a695b6'),
    'heat csv r=2 steps=40': (0, '81b3ce3437649e00201ade9cc1d4a90f2ea05e9b1e18b30f1f83063e4aaacded'),
    'random-walk csv p=1/2 d=0 q=1/2': (0, '6fccaf195ef44c88e6e2354c5becc1bab8133ea526095be4b8fd81d23c01b8de'),
    'random-walk csv p=1/3 d=1/6 q=1/2': (0, 'e746155eb28fa6ce7d78f0e251fba518ea28483e34396ab25ca79251478e0f1b'),
    'random-walk csv p=2/7 d=3/7 q=2/7': (0, 'aecb4c087d97143b213f70c4f5b1ac69c56af9a969fa16fa34f3445bc183ccbe'),
    'heat json r=1/4 steps=0': (0, 'f0dc0e246f9005bd955f4c0b408409ab33e934ff9fd47578fd2d31b3cdd5818c'),
    'heat json r=1/4 steps=1': (0, 'a6a1be6d53ece759557d05fe0516ed31aa4f500a35d61a458000263040870efa'),
    'heat json r=1/4 steps=9': (0, '7710926d5cdd2d359519e3206deb61687af69682926cd604b50469a578a8be51'),
    'heat json r=1/4 steps=40': (0, 'bb761f9b341e4e49b152d8759ec8a2881354ce3e5d3450c863a6f0e78a0f6d04'),
    'heat json r=2/7 steps=0': (0, '1fb7859692bc1ae78b15b9bbfe80897a6d43e6a720305281eb381ed23227281d'),
    'heat json r=2/7 steps=1': (0, 'e7ec76156f4392aafc5e31f6c4cd15f2d17dc394ad5498db49e1058feba76548'),
    'heat json r=2/7 steps=9': (0, 'b2efd704a1033cf1c48bee328eec794fa84f899c1a0bebb26f8c9ca8cb814c53'),
    'heat json r=2/7 steps=40': (0, '0ddc27db0a63e26fedd4c22b4c12698a15ac9cfe2d78fc3eb9d85d16d734e96e'),
    'heat json r=1/2 steps=0': (0, 'b503330f7f88a08b82510d2da7c5b0547b0198266863ececb83f71ef3af42a1a'),
    'heat json r=1/2 steps=1': (0, 'd75ad0e099e514cf15b8e942e8dc55e5aeb02275b6476cd989a8b1e1a8a6b3ae'),
    'heat json r=1/2 steps=9': (0, '1d6598d611fc3c759ffb0bd8d1b1c7c04fba946c1d174a055723af167cf1e9a0'),
    'heat json r=1/2 steps=40': (0, '572e51a239c1e9c8e172ab4803f1b183df3596d8e3e84d1339863d244c6cd8e9'),
    'heat json r=2 steps=0': (0, '581a5586875b768039b2a4187fbba126a5b838bcbd40203611c6a0f5d8f933b3'),
    'heat json r=2 steps=1': (0, 'eef2382fe8d88fef97bc820f8ad9feeaa33aaa0c4c57845c5cde87269cc965ba'),
    'heat json r=2 steps=9': (0, 'f505a3a18b908dd5602ef24c2566591aac9d6f18a29dd7c5db5d61c0f7c296cb'),
    'heat json r=2 steps=40': (0, '77bb58e790501a2819e42739a5a26e02cda26ff680ecd37ce9d3a10787a2bbc1'),
    'random-walk json p=1/2 d=0 q=1/2': (0, '30f9a472fcd79d05218fe00332fdec02eefb67c98ec083c30afad2ed219278a1'),
    'random-walk json p=1/3 d=1/6 q=1/2': (0, 'f6c4f0912d3cb51da16d329869a3f7ba60e62c3576b055587838548bcf56b39e'),
    'random-walk json p=2/7 d=3/7 q=2/7': (0, '5e3580f9ae9eb2cc62bcbc1ff19e1245336adb725c2a86f6a1ceb056999b3b34'),
    'heat csv r=2/7 steps=120': (0, '3b58a0ea958ab8168fc7590f58189cb1f02433c5c243b4200cf5159bb172e2d1'),
    'heat csv r=1/4 steps=120': (0, '9ebe93539c9ddc258cd135b0e6fdba5011545b1734b50de25c2cbab47812b627'),
    'random-walk csv p=1/7 d=2/7 q=4/7 steps=80': (0, '0d73c094b702e41b933b9d7f3435804312e269149212f6b04112e9b7593da690'),
}


def test_cli_output_matches_recorded_digests():
    got = digests()
    assert sorted(got) == sorted(GOLDEN)
    changed = [name for name in GOLDEN if got[name] != GOLDEN[name]]
    assert not changed, changed


if __name__ == "__main__":
    for name, (status, digest) in digests().items():
        print(f"    {name!r}: ({status}, {digest!r}),")
    sys.exit(0)
