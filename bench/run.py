#!/usr/bin/env python3
"""latrec benchmark: time to a verified exact answer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a latrec checkout; the package is imported from
``src/`` there.  Inputs are generated from the seed into ``.bench_work/``
(removed again on exit).  Rounds of the workload's jobs repeat until
``--seconds`` have been measured; every job's output is checked exactly
after its timer stops.  Every time is scaled to reference speed (see
``speed.py``), and time metrics are medians over the run.  With ``--trace 0``
the end-to-end metrics are reported; with ``--trace 1`` half the time runs
untraced and half with spans around latrec's public functions, and the
per-layer metrics are reported.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, the seed and a hash of the generated inputs.  The
exit code is 0 only when every job passed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 25

# Runs in a fresh interpreter: import latrec, parse the workload's configs and
# size their windows, stopping where the first engine call would start.  Then,
# outside the timer, a burst of reference units gives the child's own speed.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from latrec import config, oracle
for path in sys.argv[3:]:
    cfg = config.load_config(path)
    if cfg.spec.implicit_corner:
        right = max(p[0] for p, _ in cfg.query_points)
        oracle.sweep_window(cfg.initial.rows[0], cfg.t_max, right_edge=right)
    else:
        box = cfg.query.box if isinstance(cfg.query, oracle.Region) else None
        oracle.auto_window(cfg.spec, cfg.initial, cfg.t_max, extra=box)
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import speed
print(speed.at_reference_speed(elapsed, speed.burst(20)))
"""

# metric units; every other metric is a time in seconds
UNITS = {"values_per_s": "1/s", "peak_rss_mib": "MiB", "cli.bytes_out": "bytes",
         "exactnum.max_num_bits": "bits", "exactnum.max_den_bits": "bits",
         "bench.trace_overhead": "ratio", "bench.failure_rate": "ratio",
         "combinatorics.terms_per_composition": "ratio", "closed_form.point_calls": "count",
         **{name: "count" for name in spans.COUNTED}}


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between order
    statistics, the inclusive definition (numpy's default)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


def setup_sample(src: Path, paths: list[str]) -> float:
    """One setup_s sample from a fresh interpreter, at reference speed."""
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CHILD, str(src), str(HERE), *paths],
                          capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip())


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout's git repository, read from .git, if there is one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: Path) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "git_commit": git_commit(root)}


def end_to_end(rounds, setup) -> dict[str, float]:
    """Medians over the whole run; every time is at reference speed."""
    wall = median([r["wall"] for r in rounds])
    latencies = [x for r in rounds for x in r["latencies"]]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": wall,
        "values_per_s": median([r["values"] for r in rounds]) / wall,
        "query_s_p50": percentile(latencies, 50),
        "query_s_p90": percentile(latencies, 90),
        "setup_s": median(setup),
        "peak_rss_mib": rss_kib / 1024,
    }


def per_layer(runner, untraced, traced, bits: tuple[int, int]) -> dict[str, float]:
    out = {name: median([r["layers"][name] for r in traced])
           for name in traced[0]["layers"]}
    out["cli.bytes_out"] = traced[-1]["bytes"]
    out["exactnum.max_num_bits"], out["exactnum.max_den_bits"] = bits
    out["bench.trace_overhead"] = (median([r["wall"] for r in traced])
                                   / median([r["wall"] for r in untraced]))
    out["bench.failure_rate"] = runner.failed / runner.attempted
    return out


def unit_of(name: str) -> str:
    return UNITS.get(name, "s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "latrec" / "__init__.py").is_file():
        print(f"error: no latrec sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # noqa: E402  (needs latrec on the path)
    import latrec  # noqa: E402
    if Path(latrec.__file__).resolve().parent != (src / "latrec").resolve():
        print(f"error: latrec imported from {latrec.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        runner = workloads.Runner(workload.jobs())
        if args.trace:
            untraced = runner.rounds(args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = runner.rounds(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            bits = workloads.output_bits(workloads.flatten_values(traced[-1]["outputs"]))
            metrics = per_layer(runner, untraced, traced, bits)
            rounds = traced
        else:
            paths = workload.config_paths()
            setup_sample(src, paths)  # warm-up: bytecode and file cache
            setup: list[float] = []

            def sample_setup(progress: float) -> None:
                # Spread the samples over the run like the rounds, so that one
                # slow phase of the host does not decide their median.
                while len(setup) < math.ceil(SETUP_REPEATS * min(progress, 1.0)):
                    setup.append(setup_sample(src, paths))

            rounds = runner.rounds(args.seconds, after_round=sample_setup)
            sample_setup(1.0)
            metrics = end_to_end(rounds, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "inputs_sha256": workload.inputs_sha256(), "sizes": workload.sizes(),
            "rounds": len(rounds),
            "query_samples": sum(len(r["latencies"]) for r in rounds),
            "raw_wall_s": median([r["raw_wall"] for r in rounds]),
            "env": environment(root)}
    for name, value in metrics.items():
        print(f"{name} {value} {unit_of(name)}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
