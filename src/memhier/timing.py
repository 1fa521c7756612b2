"""Cycle calibration and the minimum-of-trials stability discipline.

A "cycle" is the measured duration of one dependent register add in the real
backend's C kernel.  All probe results are expressed in cycles per access, so
they compare across clock speeds and the simulator (1 simulated cycle per
cycle) shares the probe code unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .backend import _kernels
from .errors import BudgetExceededError, TimerTooCoarseError
from .refstring import MachineEnv, ReferenceString

#: Margin, in cycles, of "above the L1 baseline", of knockout equality and of
#: a rise that persists.  Single-miss deltas are sub-cycle once amortized over
#: a whole traversal, so the probes compare unrounded values against it.
STEP_TOL = 0.25

#: (abs_tol, rel_tol) of a rise that leaves a cache plateau ...
RISE = (1.0, 0.15)
#: ... and of a jump in a TLB curve.
JUMP = (0.5, 0.10)

DEFAULT_WINDOW = 25
DEFAULT_RUN_CAP = 1000


@dataclass
class CycleCalibration:
    seconds_per_cycle: float
    timer_resolution: float
    #: Baseline amortization: a timed run covers at least this many loads
    #: (and never fewer than two traversals of the string).
    loads_per_run: int


@dataclass
class Measurement:
    min_cycles_per_access: float
    runs_taken: int


IDENTITY_CALIBRATION = CycleCalibration(seconds_per_cycle=1.0,
                                        timer_resolution=0.0,
                                        loads_per_run=0)


def is_step(before: float, after: float, abs_tol: float,
            rel_tol: float = 0.0) -> bool:
    """The one "is this a step?" test of every probe decision: ``after``
    exceeds ``before`` by more than max(abs_tol, rel_tol * before) cycles.
    A rise of exactly the margin is not a step."""
    return after > before + max(abs_tol, rel_tol * before)


def timer_resolution() -> float:
    """Smallest positive delta observable from the monotonic timer."""
    best = float("inf")
    for _ in range(64):
        t0 = time.perf_counter()
        t1 = time.perf_counter()
        while t1 == t0:
            t1 = time.perf_counter()
        best = min(best, t1 - t0)
    return best


def calibrate(env: MachineEnv, backend) -> CycleCalibration:
    """Measure seconds-per-cycle for a real backend; identity for simulators."""
    if getattr(backend, "deterministic", False):
        return IDENTITY_CALIBRATION
    res = timer_resolution()
    if res > 1e-3:
        raise TimerTooCoarseError(
            "monotonic timer resolution %.3g s is coarser than 1 ms" % res)
    add_chain = _kernels().add_chain
    n = 1 << 22
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        add_chain(n)
        t1 = time.perf_counter()
        best = min(best, (t1 - t0) / n)
    # Each iteration is one register add that depends on the previous one,
    # so it takes one add's latency: one cycle.
    seconds_per_cycle = best
    # Size a timed run to last at least 1000x the timer resolution, assuming
    # a few cycles per load; run_once re-rounds per string.
    loads = max(1024, int(1000.0 * res / (3.0 * seconds_per_cycle)) + 1)
    return CycleCalibration(seconds_per_cycle=seconds_per_cycle,
                            timer_resolution=res, loads_per_run=loads)


def run_once(rs: ReferenceString, cal: CycleCalibration, backend) -> float:
    """One warm-up traversal plus one timed run; cycles per access."""
    n = rs.chain_length
    loads = max(cal.loads_per_run, 2 * n)
    loads = ((loads + n - 1) // n) * n  # whole traversals only
    elapsed, done = backend.run(rs, loads)
    return elapsed / done / cal.seconds_per_cycle


def measure_stable(rs_factory: Callable[[], ReferenceString],
                   cal: CycleCalibration, backend,
                   window: int = DEFAULT_WINDOW,
                   run_cap: int = DEFAULT_RUN_CAP) -> Measurement:
    """Re-measure fresh strings until the minimum is unchanged for ``window``
    consecutive runs.

    Each run rebuilds the string from the factory.  The rebuilt string, and
    on the simulator its page mapping, differ only when the factory varies
    the seed, as the cache and TLB probes' factories do; gap strings are
    built with one fixed seed, so their repeated runs only filter noise on a
    noisy backend.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    best = float("inf")
    since_min = 0
    runs = 0
    while since_min < window:
        rs = rs_factory()
        t = run_once(rs, cal, backend)
        runs += 1
        if t < best:
            best = t
            since_min = 0
        else:
            since_min += 1
        if runs > run_cap:
            raise BudgetExceededError(
                "minimum did not stabilize within %d runs" % run_cap)
    return Measurement(min_cycles_per_access=best, runs_taken=runs)
