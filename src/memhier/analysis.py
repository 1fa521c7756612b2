"""Turn noisy response curves into hierarchy levels, and own the report
format: ``assemble_report`` builds the JSON report from what the probes
measured, and is the one place that spells its keys.

``plateaus``, the one detector of both C(k) and T(1,k), splits a curve into
maximal runs of statistically equal latency.  Each boundary is the last
footprint still at the plateau value: the effective capacity, the usable
memory before the latency begins to rise.  A rise must exceed ``RISE``'s
margin and persist: a spike that drops back to the plateau is noise.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from .errors import DegenerateCurveError
from .refstring import MachineEnv
from .timing import RISE, STEP_TOL, ResponseCurve, is_step

# For annotations only: tlbprobe imports ``plateaus`` from here, and a
# command that runs no L1 probe does not load l1probe.
if TYPE_CHECKING:
    from .l1probe import L1Report
    from .tlbprobe import TlbSuspect

#: Deeper detections than this are flagged for human review.
MAX_LEVELS = 4


def plateaus(curve: ResponseCurve) -> List[Tuple[int, float]]:
    """[(last footprint, unrounded median latency), ...] of each plateau,
    the last one included.  Unmeasured points are absent from every one."""
    points = [(p.footprint, v) for p, v in zip(curve.points, curve.values())
              if p.measured]
    if len(points) < 3:
        raise DegenerateCurveError("need at least 3 measured points")
    values = [v for _, v in points]
    out: List[Tuple[int, float]] = []
    plateau = [values[0]]
    for i in range(1, len(points)):
        med = _median(plateau)
        if is_step(med, values[i], *RISE) and _persists(values, i, med):
            out.append((points[i - 1][0], med))
            plateau = []
        plateau.append(values[i])
    out.append((points[-1][0], _median(plateau)))
    return out


def detect_transitions(curve: ResponseCurve) -> List[Tuple[int, int]]:
    """[(capacity, latency), ...]: each plateau but the last (backing
    memory, or the last level when the range never leaves it), its median
    rounded to whole cycles."""
    return [(end, round(med)) for end, med in plateaus(curve)[:-1]]


def _median(values: List[float]) -> float:
    """The median of the non-empty ``values``, as ``statistics.median``
    gives it, without that module's import cost."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _persists(values: List[float], start: int, median: float) -> bool:
    """True if no later value returns to within tolerance of the plateau."""
    return all(is_step(median, v, STEP_TOL) for v in values[start:])


def level_dicts(curve: ResponseCurve) -> List[dict]:
    """The levels of ``curve``, numbered from 1: one ``level``,
    ``effective_capacity``, ``latency`` dict per transition."""
    return [{"level": i + 1, "effective_capacity": cap, "latency": lat}
            for i, (cap, lat) in enumerate(detect_transitions(curve))]


def _sweep_counts(curve: ResponseCurve, other_runs: int = 0) -> dict:
    """A sweeping probe's ``probes`` entry: the string runs of its sweep and
    ``other_runs``, the sweep's points knocked out at its end, and its
    revivals."""
    return {"string_runs": curve.total_string_runs + other_runs,
            "knocked_out": sum(p.knocked_out for p in curve.points),
            "revivals": curve.revivals}


def assemble_report(env: MachineEnv,
                    l1: Optional[L1Report],
                    cache_curve: Optional[ResponseCurve],
                    tlb: Optional[Tuple[List[TlbSuspect], ResponseCurve]],
                    costs: Optional[dict] = None,
                    parameters: Optional[dict] = None) -> dict:
    """The JSON report of the probes that ran.

    ``l1`` is the L1 probe's report, ``cache_curve`` the cache sweep's curve
    and ``tlb`` what ``run_tlb_probe`` returns; each is None if its probe
    did not run.  ``costs`` and ``parameters`` are copied as given.
    """
    warnings: List[str] = []
    cache_levels: List[dict] = []
    probes: dict = {}
    if l1 is not None:
        probes["l1"] = {"string_runs": l1.string_runs}
    if cache_curve is not None:
        cache_levels = level_dicts(cache_curve)
        if len(cache_levels) > MAX_LEVELS:
            warnings.append("more than %d cache levels detected; review the "
                            "raw curve" % MAX_LEVELS)
            cache_levels = cache_levels[:MAX_LEVELS]
        if l1 is not None and cache_levels:
            first = cache_levels[0]["effective_capacity"]
            if first != l1.capacity:
                warnings.append(
                    "L1 probe capacity %d disagrees with first cache level %d"
                    % (l1.capacity, first))
        probes["cache"] = _sweep_counts(cache_curve)
    suspects: List[TlbSuspect] = []
    if tlb is not None:
        suspects, tlb_curve = tlb
        probes["tlb"] = _sweep_counts(
            tlb_curve, sum(s.string_runs for s in suspects))
    confirmed = [s for s in suspects if s.confirmed]
    return {
        "machine": {"pagesize": env.pagesize,
                    "word": env.word,
                    "l1_linesize": env.l1_linesize},
        "l1": None if l1 is None else {
            "capacity": l1.capacity,
            "linesize": l1.linesize,
            "associativity": l1.associativity,
            "latency": l1.latency,
            "flags": ["direct-mapped"] if l1.associativity == 1 else [],
        },
        "cache_levels": cache_levels,
        "tlb_levels": [{"level": i + 1,
                        "capacity": s.boundary,
                        "entries": s.boundary // env.pagesize,
                        "latency": s.latency}
                       for i, s in enumerate(confirmed)],
        "tlb_suspects": [{"footprint": s.footprint,
                          "boundary": s.boundary,
                          "confirming_n": s.confirming_n,
                          "confirmed": s.confirmed,
                          "measured": [{"n": n, "before": before,
                                        "after": after}
                                       for n, before, after in s.measured],
                          "string_runs": s.string_runs}
                         for s in suspects],
        "costs": costs or {},
        "probes": probes,
        "parameters": parameters or {},
        "warnings": warnings,
    }
