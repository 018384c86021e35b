"""The per-cell table writer that solve and the demos used before they wrote
point by point, kept as a witness for the byte-identity tests: one
(point, time, text) tuple per queried cell, sorted, then one CSV line or
JSON row per tuple."""

import json

from latrec.cli import _value_texts
from latrec.closed_form import eval_implicit
from latrec.config import spec_hash
from latrec.oracle import (Region, engine_rows, oracle_sweep_implicit, query_bounds,
                           sweep_window)


def reference_format_table(dim, rows, header_hash, out_format):
    """Serialize (point, time, value text) rows, sorted by point, then time."""
    if out_format == "csv":
        lines = [f"# spec={header_hash}"]
        lines.append(",".join([f"e{i + 1}" for i in range(dim)] + ["t", "value"]))
        point = prefix = None
        for p, t, text in rows:
            if p != point:
                point, prefix = p, "".join(f"{c}," for c in p)
            lines.append(f"{prefix}{t},{text}")
        return "\n".join(lines) + "\n"
    payload = {
        "spec": header_hash,
        "rows": [{"at": list(p), "t": t, "value": text} for p, t, text in rows],
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def reference_query_points(query):
    """Every asked (point, time), duplicates included, sorted."""
    if isinstance(query, Region):
        return [(p, t) for p in query.box.points()
                for t in range(query.t_lo, query.t_hi + 1)]
    return sorted((tuple(p), t) for p, t in query)


def reference_solve(config):
    """solve's bytes: every asked cell looked up in the engine's rows, "0"
    off their support.  The corner-implicit form's cells are read pointwise
    instead, from eval_implicit or the public sweep, apart from the rows
    solve reads."""
    spec, initial = config.spec, config.initial
    box, t_max = query_bounds(config.query)
    text = _value_texts(spec, initial)
    points = reference_query_points(config.query)
    if spec.implicit_corner:
        a, b, c = spec.corner_coefficients()
        psi = initial.rows[0]
        if config.engine == "closed":
            values = [eval_implicit(a, b, c, psi, p[0], t) for p, t in points]
        else:
            window = sweep_window(psi, t_max, box.hi[0]) if psi.values else None
            swept = oracle_sweep_implicit(a, b, c, psi, window, t_max)
            values = [swept[t].get(p) for p, t in points]
        table = [(p, t, text(*v.as_integer_ratio())) for (p, t), v in zip(points, values)]
    else:
        rows = list(engine_rows(spec, initial, t_max, config.engine))
        table = [(p, t, text(n, rows[t][0]) if (n := rows[t][1].get(p)) else "0")
                 for p, t in points]
    return reference_format_table(spec.spatial_dim, table, spec_hash(spec),
                                  config.out_format)


def reference_demo(spec, initial, rows, out_format):
    """A demo's bytes: every nonzero cell of the integer rows at times 0, 1, ..."""
    text = _value_texts(spec, initial)
    table = sorted((p, j, text(n, den)) for j, (den, nums) in enumerate(rows)
                   for p, n in nums.items())
    return reference_format_table(1, table, spec_hash(spec), out_format)
