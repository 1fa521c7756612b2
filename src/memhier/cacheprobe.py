"""Multi-level cache response sweep with the knockout-revival optimization.

The sweep repeatedly measures every still-active sample footprint, ascending,
until each point's minimum has been stable for a full window.  After every
pass, each point above the bottom one whose value agrees with every neighbor
it has (the top point has one, below it) is knocked out of the range; a point
that later reaches a new minimum revives any knocked-out immediate neighbor.
The bottom point is never knocked out: its strings are the cheapest, and its
new minima start the revival cascade.  Sweeping ascending each pass
distributes outside interference across sizes instead of concentrating it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, List

from .errors import (BudgetExceededError, CurveFormatError,
                     InvalidGeometryError)
from .refstring import MAX_FOOTPRINT, MachineEnv, build_cache_string
from .timing import (DEFAULT_RUN_CAP, DEFAULT_WINDOW, STEP_TOL, is_step,
                     run_once)

DEFAULT_LB = 1024
DEFAULT_UB = 32 * 1024 * 1024


@dataclass
class SamplePoint:
    footprint: int
    min_cycles: float = math.inf
    runs_since_min: int = 0
    knocked_out: bool = False

    @property
    def measured(self) -> bool:
        return self.min_cycles < math.inf


@dataclass
class ResponseCurve:
    points: List[SamplePoint]
    total_string_runs: int = 0
    revivals: int = 0
    cost: float = 0.0

    def footprints(self) -> List[int]:
        return [p.footprint for p in self.points]

    def values(self) -> List[float]:
        """Per-point values, where a knocked-out point takes the value of
        the nearest point below it that is not knocked out (the form the
        analysis consumes)."""
        out: List[float] = []
        last = math.nan
        for p in self.points:
            if p.knocked_out and not math.isinf(p.min_cycles) and out:
                out.append(last)
            elif p.measured:
                out.append(p.min_cycles)
                last = p.min_cycles
            else:
                out.append(last)
        return out


def sample_points(lb: int = DEFAULT_LB, ub: int = DEFAULT_UB) -> List[int]:
    """The Range(LB, UB) schedule: 1-4KB uniformly, then the octave
    schedule from 4KB to UB."""
    if lb <= 0 or lb > 4096 or ub < 4096 or lb >= ub:
        raise InvalidGeometryError("need 0 < LB <= 4KB <= UB and LB < UB")
    if ub % 1024 or ub > MAX_FOOTPRINT:
        raise InvalidGeometryError(
            "UB must be a multiple of 1KB and at most %d" % MAX_FOOTPRINT)
    pts = {kb * 1024 for kb in (1, 2, 3, 4) if lb <= kb * 1024 <= ub}
    if ub > 4096:
        pts.update(octave_points(4096, ub))
    return sorted(pts)


def octave_points(lb: int, ub: int) -> List[int]:
    """Each power of two with three uniformly spaced points in between (p,
    1.25p, 1.5p, 1.75p), plus LB and UB themselves; used for the page-count
    schedule of the TLB test and the cache schedule above 4KB."""
    if lb <= 0 or lb >= ub:
        raise InvalidGeometryError("need 0 < LB < UB")
    pts = set()
    p = 1 << (lb.bit_length() - 1)
    if p < lb:
        p <<= 1
    while p < ub:
        for m in (4, 5, 6, 7):
            v = p * m // 4
            if lb <= v <= ub and v * 4 == p * m:
                pts.add(v)
        p *= 2
    pts.add(ub)
    if lb not in pts:
        pts.add(lb)
    return sorted(pts)


def run_sweep(footprints: List[int],
              string_factory: Callable[[int], object], backend,
              window: int = DEFAULT_WINDOW,
              knockout: bool = True) -> ResponseCurve:
    """Stability-disciplined sweep over ``footprints``.

    ``string_factory(footprint)`` must return a freshly seeded reference
    string on every call.  With ``knockout`` disabled this degenerates to the
    exhaustive discipline (every point measured until stable on its own).
    """
    points = [SamplePoint(fp) for fp in sorted(footprints)]
    curve = ResponseCurve(points=points)
    cap = DEFAULT_RUN_CAP * len(points)
    started = time.perf_counter()
    while True:
        active = [p for p in points
                  if not p.knocked_out and p.runs_since_min < window]
        if not active:
            break
        for idx, p in enumerate(points):
            if p.knocked_out or p.runs_since_min >= window:
                continue
            rs = string_factory(p.footprint)
            t = run_once(rs, backend)
            curve.total_string_runs += 1
            if t < p.min_cycles:
                p.min_cycles = t
                p.runs_since_min = 0
                for j in (idx - 1, idx + 1):
                    if 0 <= j < len(points) and points[j].knocked_out:
                        points[j].knocked_out = False
                        points[j].runs_since_min = 0
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
                "cache sweep exceeded %d total string runs" % cap)
    curve.cost = time.perf_counter() - started
    return curve


def run_cache_sweep(points: List[int], env: MachineEnv, backend,
                    window: int = DEFAULT_WINDOW, seed: int = 0,
                    knockout: bool = True) -> ResponseCurve:
    """Sweep C(k) over the given footprints and return the response curve."""
    counter = [seed]

    def factory(footprint: int):
        counter[0] += 1
        return build_cache_string(footprint, env, counter[0])

    return run_sweep(points, factory, backend, window=window,
                     knockout=knockout)


# ---------------------------------------------------------------------------
# CSV curve export: footprint_bytes,cycles_per_access,knocked_out(0|1)
# ---------------------------------------------------------------------------

CSV_HEADER = "footprint_bytes,cycles_per_access,knocked_out"


def curve_to_csv(curve: ResponseCurve) -> str:
    lines = [CSV_HEADER]
    for p in curve.points:
        value = p.min_cycles if p.measured else float("nan")
        lines.append("%d,%.6f,%d" % (p.footprint, value, int(p.knocked_out)))
    return "\n".join(lines) + "\n"


def curve_from_csv(text: str) -> ResponseCurve:
    points: List[SamplePoint] = []
    footprints = set()
    rows = [(lineno, raw) for lineno, raw in enumerate(text.splitlines(), 1)
            if raw.strip()]
    # Only the first non-blank line may be the header.
    if rows and rows[0][1].strip() == CSV_HEADER:
        del rows[0]
    for lineno, raw in rows:
        line = raw.strip()
        try:
            fp_s, val_s, ko_s = line.split(",")
            knocked_out = int(ko_s)
            p = SamplePoint(footprint=int(fp_s), min_cycles=float(val_s),
                            knocked_out=bool(knocked_out))
            # A footprint is positive and appears once.  NaN marks an
            # unmeasured point; a measured one is a finite, non-negative
            # number of cycles.
            if (p.footprint <= 0 or p.footprint in footprints
                    or knocked_out not in (0, 1)
                    or p.min_cycles < 0 or math.isinf(p.min_cycles)):
                raise ValueError(line)
        except ValueError:
            raise CurveFormatError("bad curve row at line %d: %r"
                                   % (lineno, raw))
        footprints.add(p.footprint)
        if math.isnan(p.min_cycles):
            p.min_cycles = math.inf
        points.append(p)
    points.sort(key=lambda p: p.footprint)
    return ResponseCurve(points=points)


def load_curve(path: str) -> ResponseCurve:
    """Read a CSV response curve saved by ``curve_to_csv``."""
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise CurveFormatError("%s is not UTF-8 text: %s"
                                   % (path, exc)) from exc
    return curve_from_csv(text)
