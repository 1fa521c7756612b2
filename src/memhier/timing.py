"""The step predicate and the minimum-of-trials stability discipline: the
one re-measure-until-stable loop, ``run_sweep``, with its knockout-revival
pass, and ``measure_stable``, its one-string case.  ``run_sweep`` also draws
every string seed the probes use, and ``sample_schedule`` gives the points
of both response curves it sweeps, C(k) and T(1,k).

Every measurement is a backend run in cycles per access (see ``backend``):
the real backend converts its timings with the cycle it measured when it was
constructed, the simulator counts cycles natively, so the probes share this
code unchanged and never see seconds.  A probe's wall time is measured only
by the CLI, around the probe call.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, List, NamedTuple

from .errors import BudgetExceededError, InvalidGeometryError
from .refstring import MAX_FOOTPRINT, ReferenceString

#: Margin, in cycles, of "above the L1 baseline", of knockout equality and of
#: a rise that persists.  Single-miss deltas are sub-cycle once amortized over
#: a whole traversal, so the probes compare unrounded values against it.
STEP_TOL = 0.25

#: (abs_tol, rel_tol) of a rise that leaves a plateau of C(k) or T(1,k) ...
RISE = (1.0, 0.15)
#: ... and of a jump between the T(n,k) pair that confirms a TLB suspect.
JUMP = (0.5, 0.10)

DEFAULT_WINDOW = 25
DEFAULT_RUN_CAP = 1000


class Measurement(NamedTuple):
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


class SamplePoint:
    __slots__ = ("footprint", "min_cycles", "runs_since_min", "knocked_out")

    def __init__(self, footprint: int, min_cycles: float = math.inf,
                 runs_since_min: int = 0, knocked_out: bool = False):
        self.footprint = footprint
        self.min_cycles = min_cycles
        self.runs_since_min = runs_since_min
        self.knocked_out = knocked_out

    @property
    def measured(self) -> bool:
        return self.min_cycles < math.inf


class ResponseCurve:
    __slots__ = ("points", "total_string_runs", "revivals")

    def __init__(self, points: List[SamplePoint], total_string_runs: int = 0,
                 revivals: int = 0):
        self.points = points
        self.total_string_runs = total_string_runs
        self.revivals = revivals

    def footprints(self) -> List[int]:
        return [p.footprint for p in self.points]

    def values(self) -> List[float]:
        """Per-point values, where a knocked-out or unmeasured point takes
        the value of the nearest measured point below it that is not
        knocked out; with none below, a knocked-out point keeps its own
        and an unmeasured one reads NaN (the form the analysis consumes)."""
        out: List[float] = []
        last = math.nan
        for p in self.points:
            if p.knocked_out and not math.isnan(last):
                out.append(last)
            elif p.measured:
                out.append(p.min_cycles)
                last = p.min_cycles
            else:
                out.append(last)
        return out


def sample_schedule(lb: int, ub: int, unit: int, label: str) -> List[int]:
    """The footprints a curve samples from LB, above 0 and rounded up to a
    whole ``unit`` of bytes, to UB, a whole unit: p, 1.25p, 1.5p and 1.75p
    units for each power of two p, within the range, plus its ends.  UB
    above ``MAX_FOOTPRINT``, or fewer than the 3 points ``analysis.plateaus``
    can read, is an error, its message starting with ``label``."""
    if ub > MAX_FOOTPRINT:
        raise InvalidGeometryError("%sUB must be at most %d"
                                   % (label, MAX_FOOTPRINT))
    lo, hi = -(-lb // unit), ub // unit
    pts = {lo, hi}
    p = 1 << (lo.bit_length() - 1)
    while p < hi:
        for m in (4, 5, 6, 7):
            v = p * m // 4
            if lo <= v <= hi and v * 4 == p * m:
                pts.add(v)
        p *= 2
    if len(pts) < 3:
        raise InvalidGeometryError(
            "%sLB %d to UB %d holds %d sample points; analysis needs at "
            "least 3" % (label, lb, ub, len(pts)))
    return [v * unit for v in sorted(pts)]


def run_sweep(footprints: List[int],
              build: Callable[[int, int], ReferenceString], backend,
              window: int = DEFAULT_WINDOW, knockout: bool = True,
              seed: int = 0) -> ResponseCurve:
    """Re-measure every point of ``footprints``, ascending, one run per
    active point per pass, until each point's minimum is unchanged for
    ``window`` consecutive runs of it.

    ``build(footprint, s)`` builds the string of each run, where ``s`` is
    the sweep's next string seed: ``seed + 1``, ``seed + 2``, ... in run
    order, one per call.  This is the one place the probes draw string
    seeds.  Cache and TLB strings vary with it; gap strings ignore it.  A
    backend declares ``run`` and may declare ``least(kind)``, the fewest
    cycles per access that any string of ``kind`` can read on it.  A point
    whose minimum reaches the least of the kind it just ran cannot fall
    further, so it is stable at once, and stays stable when a neighbor
    revives it.  On the simulator a gap string and a cache string that
    proves its kind seed-free, each priced in closed form, read their
    kind's least, so each takes one run, as does a point at the first
    level's latency or a T(1,k) point that reads only the misses every
    string of its kind takes: in each TLB smaller than its pages, and in
    each cache level, from the first down, whose every set it overflows.
    Other backends, real memory included, declare no least and repeat every
    string for the full window to filter noise.

    With ``knockout``, after every pass each point above the bottom one whose
    value agrees with every neighbor it has (the top point has one, below
    it) is knocked out of the range; a point that later reaches a new
    minimum revives any knocked-out immediate neighbor.  The bottom point is
    never knocked out: its strings are the cheapest, and its new minima
    start the revival cascade.  Without it every point is measured until
    stable on its own, as in the tests' exhaustive reference sweep.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    least = getattr(backend, "least", lambda kind: -math.inf)
    points = [SamplePoint(fp) for fp in sorted(footprints)]
    curve = ResponseCurve(points=points)
    cap = DEFAULT_RUN_CAP * len(points)
    seeds = itertools.count(seed + 1)
    settled = set()  # indices of points whose minimum no run can move
    while any(not p.knocked_out and p.runs_since_min < window
              for p in points):
        for idx, p in enumerate(points):
            if p.knocked_out or p.runs_since_min >= window:
                continue
            rs = build(p.footprint, next(seeds))
            t = run_once(rs, backend)
            curve.total_string_runs += 1
            if t <= least(rs.kind):
                settled.add(idx)
            if t < p.min_cycles:
                p.min_cycles = t
                p.runs_since_min = window if idx in settled else 0
                for j in (idx - 1, idx + 1):
                    if 0 <= j < len(points) and points[j].knocked_out:
                        q = points[j]
                        q.knocked_out = False
                        q.runs_since_min = window if j in settled else 0
                        curve.revivals += 1
            else:
                p.runs_since_min += 1
        if knockout:
            # The bottom point stays active; the top one has one neighbor.
            for idx in range(1, len(points)):
                p = points[idx]
                neighbors = points[idx - 1:idx + 2:2]
                # Equal: neither point is a step above the other.
                if (not p.knocked_out and p.measured
                        and all(q.measured for q in neighbors)
                        and all(not is_step(min(p.min_cycles, q.min_cycles),
                                            max(p.min_cycles, q.min_cycles),
                                            STEP_TOL)
                                for q in neighbors)):
                    p.knocked_out = True
                    # Treated as stable unless a neighbor revives it.
                    p.runs_since_min = window
        if curve.total_string_runs > cap:
            raise BudgetExceededError(
                "minimum did not stabilize within %d string runs" % cap)
    return curve


def measure_stable(rs_factory: Callable[[], ReferenceString],
                   backend, window: int = DEFAULT_WINDOW) -> Measurement:
    """Re-measure fresh strings from ``rs_factory`` until the minimum is
    unchanged for ``window`` consecutive runs: a one-point ``run_sweep``.
    The L1 probe measures its gap strings with it."""
    curve = run_sweep([0], lambda _fp, _seed: rs_factory(), backend, window)
    return Measurement(min_cycles_per_access=curve.points[0].min_cycles,
                       runs_taken=curve.total_string_runs)
