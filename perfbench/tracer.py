"""Spans and exact counts recorded around memhier's public functions.

The recording half runs inside a memhier process (see ``launch.py``); the
derivation half runs in ``run.py`` and turns recorded spans into
per-module metrics.  memhier's own source is never edited: the wrappers are
installed by rebinding module attributes at start-up.

A span is ``(name, start, end, parent, attrs)``, a list once read back from
JSON: ``name`` is ``<module>.<function>``, ``start``/``end`` are
``time.perf_counter`` values, ``parent`` is the index of the enclosing span
(-1 at the root), and ``attrs`` is a dict of counts read from the call's
arguments and result, or None.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from typing import Callable, Dict, List, Optional

RUN = "simoracle.SimulatedBackend.run"


class Counts:
    """Exact, deterministic work counts of one memhier process.

    Identical inputs must give identical counts; the benchmark fails if two
    runs with one seed disagree.
    """

    def __init__(self):
        self.string_runs = 0
        #: Loads requested plus the untimed warm-up traversal, per run.
        self.accesses = 0
        self.cache_runs = 0
        self.cache_footprints = set()

    def record(self, rs, loads: int) -> None:
        self.string_runs += 1
        self.accesses += loads + rs.chain_length
        if type(rs.kind).__name__ == "CacheKind":
            self.cache_runs += 1
            self.cache_footprints.add(rs.footprint)

    def to_json(self) -> dict:
        # Every sample point of the cache sweep is measured at least once, so
        # the distinct cache-string footprints are the sweep's points.
        return {"string_runs": self.string_runs, "accesses": self.accesses,
                "cache_runs": self.cache_runs,
                "cache_points": len(self.cache_footprints)}


def install_counting(counts: Counts) -> None:
    """Count every simulator run.  This is the only wrapper of untraced runs:
    one call per string run, against milliseconds of simulation each."""
    from memhier.simoracle import SimulatedBackend

    run = SimulatedBackend.run

    def counted_run(self, rs, loads):
        counts.record(rs, loads)
        return run(self, rs, loads)

    SimulatedBackend.run = counted_run


def _sweep_attrs(args, kwargs, curve):
    return {"points": len(curve.points),
            "knocked_out": sum(p.knocked_out for p in curve.points),
            "runs": curve.total_string_runs}


#: Per-function counts kept on the span, read from (args, kwargs, result).
ATTRS: Dict[str, Callable] = {
    RUN: lambda a, kw, r: {"accesses": a[2] + a[1].chain_length},
    "refstring.build_gap_string": lambda a, kw, r: {"slots": r.chain_length},
    "refstring.build_cache_string": lambda a, kw, r: {"slots": r.chain_length},
    "refstring.build_tlb_string": lambda a, kw, r: {"slots": r.chain_length},
    "timing.measure_stable": lambda a, kw, r: {"runs": r.runs_taken},
    "cacheprobe.run_cache_sweep": _sweep_attrs,
    "tlbprobe.find_suspects": lambda a, kw, r: {"suspects": len(r)},
    "tlbprobe.confirm_suspect": lambda a, kw, r: {"confirmed": int(r.confirmed)},
}


class Recorder:
    """Keeps spans in memory; nothing is written until the process ends."""

    def __init__(self, clock=time.perf_counter):
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        self._clock = clock

    def wrap(self, name: str, fn: Callable,
             attrs: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self._clock

        # A span is stored as a tuple once it ends: tuples (and dicts) of
        # plain numbers drop out of the cyclic garbage collector's sight,
        # lists never do, and tens of thousands of live lists slow the
        # program's own allocations.
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, clock(), parent, None)
                raise
            finally:
                stack.pop()
            end = clock()
            spans[index] = (name, start, end, parent,
                            None if attrs is None else attrs(args, kwargs,
                                                             result))
            return result

        return traced


def install_tracing(recorder: Recorder) -> None:
    """Wrap every public function defined in a memhier module, under every
    name it is bound to (``from .timing import measure_stable`` in
    ``l1probe`` makes ``l1probe.measure_stable`` a second binding), plus
    ``SimulatedBackend.run``."""
    import memhier
    from memhier.simoracle import SimulatedBackend

    modules = [importlib.import_module("memhier." + info.name)
               for info in pkgutil.iter_modules(memhier.__path__)]
    traced = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                name = "%s.%s" % (short, attr)
                traced[obj] = recorder.wrap(name, obj, ATTRS.get(name))
    for mod in modules + [memhier]:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in traced:
                setattr(mod, attr, traced[obj])
    SimulatedBackend.run = recorder.wrap(RUN, SimulatedBackend.run, ATTRS[RUN])


# ---------------------------------------------------------------------------
# Derivation: spans -> per-module metrics.
# ---------------------------------------------------------------------------

def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one process nest strictly (one thread), so the children of a
    span cover disjoint parts of its interval.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _within(spans: List[list], ancestor: str) -> List[bool]:
    """For each span, whether some enclosing span is named ``ancestor``."""
    inside: List[bool] = []
    for s in spans:
        p = s[3]
        inside.append(p >= 0 and (spans[p][0] == ancestor or inside[p]))
    return inside


def layer_metrics(spans: List[list], window: int) -> Dict[str, float]:
    """Per-module metrics of one traced process, or of several processes'
    spans concatenated (parents re-indexed)."""
    def total(name):
        return sum(s[2] - s[1] for s in spans if s[0] == name)

    def attr_sum(name, key):
        return sum((s[4] or {}).get(key, 0) for s in spans if s[0] == name)

    def count(name, within=None):
        flags = _within(spans, within) if within else [True] * len(spans)
        return sum(1 for s, f in zip(spans, flags) if s[0] == name and f)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m: Dict[str, float] = {}
    runs = count(RUN)
    m["simoracle.run_s"] = total(RUN)
    m["simoracle.accesses"] = attr_sum(RUN, "accesses")
    m["simoracle.ns_per_access"] = ratio(m["simoracle.run_s"],
                                         m["simoracle.accesses"], 1e9)
    m["simoracle.us_per_run"] = ratio(m["simoracle.run_s"], runs, 1e6)

    builds = ["refstring.build_%s_string" % k for k in ("gap", "cache", "tlb")]
    m["refstring.build_s"] = sum(total(b) for b in builds)
    m["refstring.slots"] = sum(attr_sum(b, "slots") for b in builds)
    m["refstring.ns_per_slot"] = ratio(m["refstring.build_s"],
                                       m["refstring.slots"], 1e9)

    measure = "timing.measure_stable"
    m["timing.measure_s"] = total(measure)
    m["timing.measurements"] = count(measure)
    m["timing.runs_per_measure"] = ratio(attr_sum(measure, "runs"),
                                         m["timing.measurements"])

    sweep = "cacheprobe.run_cache_sweep"
    points = attr_sum(sweep, "points")
    sweep_runs = attr_sum(sweep, "runs")
    m["cacheprobe.sweep_s"] = total(sweep)
    m["cacheprobe.points"] = points
    m["cacheprobe.knocked_out"] = attr_sum(sweep, "knocked_out")
    m["cacheprobe.knockout_ratio"] = knockout_ratio(points, sweep_runs, window)

    m["l1probe.probe_s"] = total("l1probe.run_l1_probe")
    for step, fn in (("baseline", "baseline"), ("capacity", "find_capacity"),
                     ("assoc", "find_associativity"),
                     ("linesize", "find_linesize")):
        m["l1probe.%s_s" % step] = total("l1probe." + fn)
    m["l1probe.linesize_measurements"] = count(measure,
                                               within="l1probe.find_linesize")

    m["tlbprobe.sweep_s"] = total("tlbprobe.run_tlb_sweep")
    m["tlbprobe.sweep_runs"] = count(RUN, within="tlbprobe.run_tlb_sweep")
    m["tlbprobe.confirm_s"] = total("tlbprobe.confirm_suspect")
    m["tlbprobe.confirm_runs"] = count(RUN, within="tlbprobe.confirm_suspect")
    m["tlbprobe.suspects"] = attr_sum("tlbprobe.find_suspects", "suspects")
    m["tlbprobe.confirmed"] = attr_sum("tlbprobe.confirm_suspect", "confirmed")

    m["analysis.s"] = total("analysis.assemble_report")

    selfs = self_times(spans)
    for module in MODULES:
        m["%s.self_s" % module] = sum(
            t for s, t in zip(spans, selfs)
            if s[0].split(".", 1)[0] == module)
    m["trace.spans"] = len(spans)
    return m


#: Modules whose self time is reported; ``cli`` holds the root span.
MODULES = ("cli", "simoracle", "refstring", "timing", "cacheprobe", "l1probe",
           "tlbprobe", "analysis")


def knockout_ratio(points: int, sweep_runs: int, window: int) -> float:
    """Runs an exhaustive sweep needs at least (each point measured until
    ``window`` runs pass without a new minimum) over the runs the
    knockout-revival sweep took; 0 when there was no sweep."""
    return points * (window + 1) / sweep_runs if sweep_runs else 0.0


def concat(span_lists: List[List[list]]) -> List[list]:
    """Spans of several processes as one list, parent indices shifted."""
    out: List[list] = []
    for spans in span_lists:
        base = len(out)
        out.extend([s[0], s[1], s[2], s[3] + base if s[3] >= 0 else -1, s[4]]
                   for s in spans)
    return out
