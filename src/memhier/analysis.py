"""Turn noisy response curves into hierarchy levels.

A plateau is a maximal run of points with statistically equal latency; each
level boundary is placed at the last footprint still at the plateau value,
which is exactly the effective-capacity convention (usable memory before the
latency begins to rise).  Rises must be persistent: a spike that later drops
back to the plateau is treated as noise and absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .errors import DegenerateCurveError
from .l1probe import L1Report
from .refstring import MachineEnv
from .timing import RISE, STEP_TOL, ResponseCurve, is_step
from .tlbprobe import TlbLevelResult, TlbSuspect

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


@dataclass
class LevelReport:
    index: int
    effective_capacity: int
    latency: int

    def to_json_dict(self) -> dict:
        return {"level": self.index,
                "effective_capacity": self.effective_capacity,
                "latency": self.latency}


@dataclass
class HierarchyReport:
    machine: MachineEnv
    l1: Optional[L1Report]
    cache_levels: List[LevelReport]
    tlb_levels: List[TlbLevelResult]
    costs: dict
    parameters: dict
    warnings: List[str] = field(default_factory=list)
    tlb_suspects: List[TlbSuspect] = field(default_factory=list)
    #: probe name -> {"string_runs": n, ...}, for each probe that ran; the
    #: sweeping probes (cache, tlb) add "knocked_out" and "revivals".
    probes: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "machine": {"pagesize": self.machine.pagesize,
                        "word": self.machine.word,
                        "l1_linesize": self.machine.l1_linesize},
            "l1": None if self.l1 is None else {
                "capacity": self.l1.capacity,
                "linesize": self.l1.linesize,
                "associativity": self.l1.associativity,
                "latency": self.l1.latency,
                "flags": self.l1.flags,
            },
            "cache_levels": [lv.to_json_dict() for lv in self.cache_levels],
            "tlb_levels": [{"level": lv.level,
                            "capacity": lv.capacity,
                            "entries": lv.entries}
                           for lv in self.tlb_levels],
            "tlb_suspects": [s.to_json_dict() for s in self.tlb_suspects],
            "costs": self.costs,
            "probes": self.probes,
            "parameters": self.parameters,
            "warnings": self.warnings,
        }


def levels_from_curve(curve: ResponseCurve) -> List[LevelReport]:
    transitions = detect_transitions(curve)
    levels = [LevelReport(index=i + 1, effective_capacity=cap, latency=lat)
              for i, (cap, lat) in enumerate(transitions)]
    return levels


def assemble_report(env: MachineEnv,
                    l1: Optional[L1Report],
                    cache_curve: Optional[ResponseCurve],
                    tlb_levels: Optional[List[TlbLevelResult]],
                    costs: Optional[dict] = None,
                    parameters: Optional[dict] = None,
                    tlb_suspects: Optional[List[TlbSuspect]] = None,
                    probes: Optional[dict] = None) -> HierarchyReport:
    warnings: List[str] = []
    cache_levels: List[LevelReport] = []
    if cache_curve is not None:
        cache_levels = levels_from_curve(cache_curve)
        if len(cache_levels) > MAX_LEVELS:
            warnings.append("more than %d cache levels detected; review the "
                            "raw curve" % MAX_LEVELS)
            cache_levels = cache_levels[:MAX_LEVELS]
    if l1 is not None and cache_levels:
        if cache_levels[0].effective_capacity != l1.capacity:
            warnings.append(
                "L1 probe capacity %d disagrees with first cache level %d"
                % (l1.capacity, cache_levels[0].effective_capacity))
    return HierarchyReport(machine=env, l1=l1, cache_levels=cache_levels,
                           tlb_levels=tlb_levels or [], costs=costs or {},
                           parameters=parameters or {}, warnings=warnings,
                           tlb_suspects=tlb_suspects or [],
                           probes=probes or {})
