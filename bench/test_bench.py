"""Tests of the benchmark's own arithmetic and input generation.

    python3 -m pytest bench/test_bench.py     (or: python3 bench/test_bench.py)
"""

import signal
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import latrec  # noqa: E402
from latrec import closed_form  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _generate(name: str, seed: int, where: Path):
    workload = workloads.WORKLOADS[name](seed, where)
    return workload, {p.name: p.read_bytes() for p in sorted(where.iterdir())}


class GeneratorTest(unittest.TestCase):
    def test_same_seed_gives_byte_identical_inputs(self):
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                first, files1 = _generate(name, 7, Path(tmp) / "a")
                second, files2 = _generate(name, 7, Path(tmp) / "b")
                other, files3 = _generate(name, 8, Path(tmp) / "c")
            self.assertTrue(files1, name)
            self.assertEqual(files1, files2, name)
            self.assertEqual(first.inputs_sha256(), second.inputs_sha256(), name)
            self.assertNotEqual(first.inputs_sha256(), other.inputs_sha256(), name)

    def test_generated_configs_parse(self):
        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as tmp:
                workload, _ = _generate(name, 3, Path(tmp))
                for path in workload.config_paths():
                    latrec.load_config(path)


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_order_statistics(self):
        self.assertEqual(run.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(run.percentile(range(1, 12), 90), 10)
        self.assertAlmostEqual(run.percentile([0, 10], 90), 9.0)
        self.assertEqual(run.percentile([5], 90), 5)
        self.assertEqual(run.median([3, 1, 2]), 2)

    def test_no_values_is_an_error(self):
        with self.assertRaises(ValueError):
            run.percentile([], 50)


class SelfTimeTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        s = [spans.Span("root", -1, 0.0, 10.0),
             spans.Span("child", 0, 1.0, 5.0),
             spans.Span("grandchild", 1, 2.0, 3.0),
             spans.Span("child", 0, 6.0, 7.5),
             spans.Span("root", -1, 20.0, 21.0)]
        self.assertEqual(spans.self_times(s), [4.5, 3.0, 1.0, 1.5, 1.0])

    def test_traced_call_splits_time_by_layer_and_restores(self):
        original = closed_form.expand_stencil_power
        spec = closed_form.tridiagonal_spec(1, 2, 3)
        initial = latrec.InitialData((latrec.FieldRow.delta(1),))
        tracer = spans.Tracer()
        tracer.install()
        try:
            self.assertIsNot(closed_form.expand_stencil_power, original)
            rows = closed_form.closed_rows(spec, initial, 4)
        finally:
            tracer.uninstall()
        self.assertIs(closed_form.expand_stencil_power, original)
        names = [s.name for s in tracer.spans]
        self.assertEqual(names[0], "closed_form.closed_rows")
        self.assertEqual(names[1:], ["combinatorics.expand_stencil_power"] * 5)
        self.assertTrue(all(s.parent == 0 for s in tracer.spans[1:]))
        wall = tracer.spans[0].duration + 0.5
        m = tracer.layer_metrics(wall)
        self.assertEqual(m["combinatorics.expand_calls"], 5)
        self.assertEqual(m["combinatorics.compositions"], 1 + 3 + 6 + 10 + 15)
        self.assertEqual(m["combinatorics.terms"], 1 + 3 + 5 + 7 + 9)
        self.assertEqual(m["closed_form.row_support"], sum(len(r.values) for r in rows))
        self.assertAlmostEqual(m["closed_form.rows_s"] + m["combinatorics.expand_s"],
                               tracer.spans[0].duration)
        self.assertAlmostEqual(m["bench.unattributed_s"], 0.5)


def _busy(seconds: float) -> str:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


class SpeedTest(unittest.TestCase):
    def test_scales_raw_time_by_mean_host_speed(self):
        ref = speed.REF_UNIT_S
        # half the time at reference speed, half at half of it: 3/4 of the work
        self.assertAlmostEqual(speed.at_reference_speed(2.0, [ref, 2 * ref]), 1.5)
        self.assertAlmostEqual(speed.at_reference_speed(1.0, [ref / 2]), 2.0)
        with self.assertRaises(ValueError):
            speed.at_reference_speed(1.0, [])

    def test_probe_runs_units_during_the_call_and_disarms(self):
        handler = signal.getsignal(signal.SIGALRM)
        probe = speed.Probe()
        result, raw, scaled = probe.time(lambda: _busy(5 * speed.INTERVAL))
        self.assertEqual(result, "done")
        self.assertGreaterEqual(raw, 5 * speed.INTERVAL)
        self.assertGreater(scaled, 0)
        self.assertGreaterEqual(len(probe.units), 4)  # before, inside, after
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), handler)

    def test_probe_disarms_when_the_call_raises(self):
        handler = signal.getsignal(signal.SIGALRM)
        with self.assertRaises(ZeroDivisionError):
            speed.Probe().time(lambda: 1 / 0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        self.assertIs(signal.getsignal(signal.SIGALRM), handler)


if __name__ == "__main__":
    unittest.main()
