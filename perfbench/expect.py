"""Expected memhier reports, derived from simulator config text alone.

The benchmark checks every report against these values.  Nothing here
imports memhier: the expectation comes from the hierarchy the config
describes, so a probe that drifts from the truth is caught even when its
output is self-consistent.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: Default sweep ceilings of the CLI (bytes): the multi-level cache sweep,
#: and the TLB sweep, whose range ``simulate`` never narrows.
CACHE_SWEEP_UB = 32 * 1024 * 1024
TLB_SWEEP_UB = 8 * 1024 * 1024

#: Cache-level latencies are rounded plateau medians; criterion 2 of the
#: test suite allows them one cycle of slack, and so does the benchmark.
LATENCY_SLACK = 1


@dataclass
class Hierarchy:
    pagesize: int = 4096
    #: (capacity, associativity, linesize, latency), smallest level first.
    caches: List[Tuple[int, int, int, int]] = field(default_factory=list)
    #: (entries, miss penalty), smallest level first.
    tlbs: List[Tuple[int, int]] = field(default_factory=list)
    memory: int = 100


def parse(text: str) -> Hierarchy:
    """Read the directives of a simulator config; '#' starts a comment."""
    h = Hierarchy()
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if not words:
            continue
        key, nums = words[0], words[1:]
        if key == "pagesize":
            h.pagesize = int(nums[0])
        elif key == "cache":
            cap, assoc, line, lat = (int(v) for v in nums)
            h.caches.append((cap, assoc, line, lat))
        elif key == "tlb":
            entries, penalty = (int(v) for v in nums)
            h.tlbs.append((entries, penalty))
        elif key == "memory":
            h.memory = int(nums[0])
        elif key != "mapping":
            raise ValueError("unknown directive %r" % raw)
    return h


def with_mapping_seed(text: str, seed: int) -> str:
    """The config text with its ``mapping random`` seed replaced."""
    out, n = re.subn(r"(?m)^mapping\s+random\s+\d+", "mapping random %d" % seed,
                     text)
    if n != 1:
        raise ValueError("config needs exactly one 'mapping random' line")
    return out


@dataclass
class Expected:
    """The parameters one memhier command must report; None = not probed."""

    l1: Optional[dict] = None
    #: (effective capacity, latency) per cache level inside the sweep.
    cache_levels: Optional[List[Tuple[int, int]]] = None
    tlb_entries: Optional[List[int]] = None


def expected_report(h: Hierarchy, command: str,
                    ub: Optional[int] = None) -> Expected:
    """What ``memhier <command>`` must report on hierarchy ``h``.

    ``ub`` is the ``--ub`` given to the command.  A cache or TLB level is
    visible only if the sweep reaches past its capacity.
    """
    exp = Expected()
    if command in ("l1", "all", "simulate"):
        cap, assoc, line, lat = h.caches[0]
        exp.l1 = {"capacity": cap, "associativity": assoc, "linesize": line,
                  "latency": lat}
    if command in ("cache", "all", "simulate"):
        top = ub or CACHE_SWEEP_UB
        exp.cache_levels = [(cap, lat) for cap, _, _, lat in h.caches
                            if cap < top]
    if command in ("tlb", "all", "simulate"):
        top = ub if (command == "tlb" and ub) else TLB_SWEEP_UB
        exp.tlb_entries = [e for e, _ in h.tlbs if e * h.pagesize < top]
    return exp


def wrong_params(report: dict, exp: Expected) -> List[str]:
    """Names of the reported parameters that differ from ``exp``.

    A missing level counts each of its parameters; an extra level counts
    once.
    """
    wrong: List[str] = []
    if exp.l1 is not None:
        got = report.get("l1") or {}
        wrong += ["l1.%s" % k for k, v in exp.l1.items() if got.get(k) != v]
    if exp.cache_levels is not None:
        got = report.get("cache_levels") or []
        for i, (cap, lat) in enumerate(exp.cache_levels):
            lv = got[i] if i < len(got) else {}
            if lv.get("effective_capacity") != cap:
                wrong.append("cache%d.capacity" % (i + 1))
            if (not isinstance(lv.get("latency"), int)
                    or abs(lv["latency"] - lat) > LATENCY_SLACK):
                wrong.append("cache%d.latency" % (i + 1))
        wrong += ["cache%d.extra" % (i + 1)
                  for i in range(len(exp.cache_levels), len(got))]
    if exp.tlb_entries is not None:
        got = report.get("tlb_levels") or []
        for i, entries in enumerate(exp.tlb_entries):
            if i >= len(got) or got[i].get("entries") != entries:
                wrong.append("tlb%d.entries" % (i + 1))
        wrong += ["tlb%d.extra" % (i + 1)
                  for i in range(len(exp.tlb_entries), len(got))]
    return wrong
