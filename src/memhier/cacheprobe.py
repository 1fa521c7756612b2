"""Multi-level cache response sweep: the sample schedule, the C(k) sweep and
its CSV form.

The sweep itself, with its knockout-revival pass and its string seeds, is
``timing.run_sweep``.
"""

from __future__ import annotations

import math
from typing import List

from .errors import CurveFormatError, InvalidGeometryError
from .refstring import MAX_FOOTPRINT, MachineEnv, build_cache_string
from .timing import DEFAULT_WINDOW, ResponseCurve, SamplePoint, run_sweep

DEFAULT_LB = 1024
DEFAULT_UB = 32 * 1024 * 1024


def sample_points(lb: int = DEFAULT_LB, ub: int = DEFAULT_UB) -> List[int]:
    """The Range(LB, UB) schedule: 1-4KB uniformly, then the octave
    schedule from 4KB to UB.  A range of fewer than 3 points, too few for
    ``analysis.detect_transitions``, is an error before any string runs."""
    if lb <= 0 or lb > 4096 or ub < 4096 or lb >= ub:
        raise InvalidGeometryError("need 0 < LB <= 4KB <= UB and LB < UB")
    if ub % 1024 or ub > MAX_FOOTPRINT:
        raise InvalidGeometryError(
            "UB must be a multiple of 1KB and at most %d" % MAX_FOOTPRINT)
    pts = {kb * 1024 for kb in (1, 2, 3, 4) if lb <= kb * 1024 <= ub}
    if ub > 4096:
        pts.update(octave_points(4096, ub))
    if len(pts) < 3:
        raise InvalidGeometryError(
            "LB %d to UB %d holds %d sample points; analysis needs at least 3"
            % (lb, ub, len(pts)))
    return sorted(pts)


def octave_points(lb: int, ub: int) -> List[int]:
    """Each power of two with three uniformly spaced points in between (p,
    1.25p, 1.5p, 1.75p) from the power at or below LB, that lie within LB
    and UB, plus LB and UB themselves; used for the page-count schedule of
    the TLB test and the cache schedule above 4KB."""
    if lb <= 0 or lb >= ub:
        raise InvalidGeometryError("need 0 < LB < UB")
    pts = {lb, ub}
    p = 1 << (lb.bit_length() - 1)
    while p < ub:
        for m in (4, 5, 6, 7):
            v = p * m // 4
            if lb <= v <= ub and v * 4 == p * m:
                pts.add(v)
        p *= 2
    return sorted(pts)


def run_cache_sweep(lb: int, ub: int, env: MachineEnv, backend,
                    window: int = DEFAULT_WINDOW,
                    seed: int = 0) -> ResponseCurve:
    """Sweep C(k) over ``sample_points(lb, ub)``; ``run_sweep`` draws the
    string seeds ``seed + 1``, ``seed + 2``, ..."""
    return run_sweep(sample_points(lb, ub),
                     lambda fp, s: build_cache_string(fp, env, s),
                     backend, window=window, seed=seed)


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
