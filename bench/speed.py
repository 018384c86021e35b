"""Host speed reference, by which every time the benchmark reports is scaled.

The benchmark runs on hosts shared with other tenants.  Their load switches
the speed of the same pure-Python code between a fast and a slow state, up to
a factor of two apart, in phases that last from tens of milliseconds to whole
runs, so a clock alone measures the host more than the program.  The
benchmark therefore times a fixed piece of code of its own,
``reference_unit`` (exact ``Fraction`` arithmetic and dict updates, the kind
of work latrec does), right before and after each latrec call and, from a
``SIGALRM`` timer, every ``INTERVAL`` seconds during it.  The call's time,
less the time spent in those units, is scaled by the host's mean speed over
the units (``at_reference_speed``).  A reported time is therefore in seconds
at reference speed: the seconds the call would take on a host where one
reference unit takes ``REF_UNIT_S``.  A change to latrec moves it one for
one, while a slow phase of the host slows the call and the units inside it
alike and cancels out.

``reference_unit`` and ``REF_UNIT_S`` must never change: that would rescale
every time metric.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction
from typing import Any, Callable

# Time of one reference unit on an uncontended 2-vCPU Xeon VM (Python 3.11.7).
REF_UNIT_S = 0.0007
# seconds between reference units during a call
INTERVAL = 0.02


def reference_unit() -> dict:
    """Fixed work, under a millisecond on the host above."""
    acc: dict = {}
    for chain in range(5):
        x = Fraction(chain + 1, 3)
        for i in range(1, 25):
            x = x * Fraction(2, 3) + Fraction(i, 7)
            key = (i % 5, i % 3)
            acc[key] = acc.get(key, 0) + x
    return acc


def timed_unit() -> float:
    """Raw time of one reference unit."""
    start = time.perf_counter()
    reference_unit()
    return time.perf_counter() - start


def burst(units: int) -> list[float]:
    """Raw times of `units` reference units run back to back."""
    return [timed_unit() for _ in range(units)]


def at_reference_speed(seconds: float, unit_times: list[float]) -> float:
    """`seconds` of raw time, during which reference units spread evenly
    over it took `unit_times`, as seconds at reference speed.

    The work done is proportional to the time integral of the host's speed,
    1/unit time, so the raw time is scaled by the mean speed."""
    if not unit_times:
        raise ValueError("no reference units to scale by")
    return seconds * REF_UNIT_S * sum(1.0 / t for t in unit_times) / len(unit_times)


class Probe:
    """Times calls and scales them to reference speed; see the module doc.

    The timer is armed only while a call runs; the units it fires run in
    the main thread between bytecodes, and their time is taken out of the
    call's time."""

    def __init__(self):
        self.units: list[float] = []  # unit times of the last call
        self._spent = 0.0
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            unit = timed_unit()
            self.units.append(unit)
            self._spent += unit
        finally:
            self._busy = False

    def time(self, fn: Callable[[], Any]) -> tuple[Any, float, float]:
        """Call `fn`: (its result, raw seconds, seconds at reference speed).
        The raw seconds include the units run inside the call; the scaled
        seconds leave them out."""
        self.units = [timed_unit()]
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        try:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
            start = time.perf_counter()
            try:
                result = fn()
            finally:
                elapsed = time.perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
        finally:
            signal.signal(signal.SIGALRM, previous)
        self.units.append(timed_unit())
        return result, elapsed, at_reference_speed(elapsed - self._spent, self.units)
