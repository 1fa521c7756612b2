"""The step predicate and the minimum-of-trials stability discipline.

Every measurement is a backend run in cycles per access (see ``backend``):
the real backend converts its timings with the cycle it measured when it was
constructed, the simulator counts cycles natively, so the probes share this
code unchanged and never see seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import BudgetExceededError
from .refstring import ReferenceString

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
class Measurement:
    min_cycles_per_access: float
    runs_taken: int


def is_step(before: float, after: float, abs_tol: float,
            rel_tol: float = 0.0) -> bool:
    """The one "is this a step?" test of every probe decision: ``after``
    exceeds ``before`` by more than max(abs_tol, rel_tol * before) cycles.
    A rise of exactly the margin is not a step."""
    return after > before + max(abs_tol, rel_tol * before)


def run_once(rs: ReferenceString, backend) -> float:
    """One warm-up traversal plus a timed run of at least two traversals;
    cycles per access."""
    return backend.run(rs, 2 * rs.chain_length)


def measure_stable(rs_factory: Callable[[], ReferenceString],
                   backend, window: int = DEFAULT_WINDOW) -> Measurement:
    """Re-measure fresh strings until the minimum is unchanged for ``window``
    consecutive runs.

    Each run rebuilds the string from the factory.  The rebuilt string, and
    on the simulator its page mapping, differ only when the factory varies
    the seed, as the cache and TLB probes' factories do; gap strings are
    built with one fixed seed.  A backend whose runs repeat exactly says so
    with a true ``exact`` attribute (the simulator does).  On such a backend
    a string equal to the one just measured cannot move the minimum, so the
    measurement stops there: a gap string takes one run, a seed-varying
    factory the full window.  Other backends, real memory included, repeat
    every string for the full window to filter noise.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    exact = getattr(backend, "exact", False)
    best = float("inf")
    since_min = 0
    runs = 0
    last = None
    while since_min < window:
        rs = rs_factory()
        if exact and rs == last:
            break
        last = rs
        t = run_once(rs, backend)
        runs += 1
        if t < best:
            best = t
            since_min = 0
        else:
            since_min += 1
        if runs > DEFAULT_RUN_CAP:
            raise BudgetExceededError(
                "minimum did not stabilize within %d runs" % DEFAULT_RUN_CAP)
    return Measurement(min_cycles_per_access=best, runs_taken=runs)
