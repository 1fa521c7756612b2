"""Turn noisy response curves into hierarchy levels, and own the report
format: ``assemble_report`` builds the JSON report from what the probes
measured, and is the one place that spells its keys.

A plateau is a maximal run of points with statistically equal latency; each
level boundary is placed at the last footprint still at the plateau value,
which is exactly the effective-capacity convention (usable memory before the
latency begins to rise).  Rises must be persistent: a spike that later drops
back to the plateau is treated as noise and absorbed.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .errors import DegenerateCurveError
from .l1probe import L1Report
from .refstring import MachineEnv
from .timing import RISE, STEP_TOL, ResponseCurve, is_step
from .tlbprobe import TlbSuspect

#: Deeper detections than this are flagged for human review.
MAX_LEVELS = 4


def detect_transitions(curve: ResponseCurve) -> List[Tuple[int, int]]:
    """Segment the curve into plateaus; return [(capacity, latency), ...].

    Each transition is the last footprint before a persistent rise, paired
    with the plateau's median latency rounded to whole cycles.  The final
    plateau (backing memory, or the last level when the range never leaves
    it) produces no transition.
    """
    measured = [p for p in curve.points if p.measured]
    if len(measured) < 3:
        raise DegenerateCurveError("need at least 3 measured points")
    values = curve.values()
    fps = curve.footprints()
    transitions: List[Tuple[int, int]] = []
    plateau = [values[0]]
    plateau_end = fps[0]
    for i in range(1, len(values)):
        v = values[i]
        med = _median(plateau)
        if is_step(med, v, *RISE) and _persists(values, i, med):
            transitions.append((plateau_end, round(med)))
            plateau = [v]
        else:
            plateau.append(v)
        plateau_end = fps[i]
    return transitions


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
                    tlb: Optional[Tuple[List[int], List[TlbSuspect],
                                        ResponseCurve]],
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
    entries, suspects = [], []
    if tlb is not None:
        entries, suspects, tlb_curve = tlb
        probes["tlb"] = _sweep_counts(
            tlb_curve, sum(s.string_runs for s in suspects))
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
                        "capacity": n * env.pagesize,
                        "entries": n}
                       for i, n in enumerate(entries)],
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
