"""Three-loop L1 probe: capacity at maximum associativity, associativity by
halving, line size by offset sweep; latency comes from the all-hit baseline.

Works on L1 only because L1 data caches are core-private and virtually
mapped; the multi-level sweep handles everything above it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List

from .cacheprobe import octave_points
from .errors import ProbeError
from .refstring import MachineEnv, build_gap_string
from .timing import DEFAULT_WINDOW, STEP_TOL, is_step, measure_stable

DEFAULT_LB = 1024
DEFAULT_UB = 4 * 1024 * 1024
DEFAULT_MAX_ASSOC = 16


@dataclass
class L1Params:
    lb: int = DEFAULT_LB
    ub: int = DEFAULT_UB
    max_assoc: int = DEFAULT_MAX_ASSOC

    def __post_init__(self):
        if self.lb >= self.ub:
            raise ProbeError("L1 probe needs LB < UB")
        if self.max_assoc < 1 or self.max_assoc & (self.max_assoc - 1):
            raise ProbeError("MaxAssoc must be a power of two")


@dataclass
class L1Report:
    capacity: int
    associativity: int
    linesize: int
    latency: int
    cost: float
    flags: List[str] = field(default_factory=list)


def _measure_gap(n: int, k: int, o: int, env: MachineEnv, backend,
                 window: int) -> float:
    rs_factory = lambda: build_gap_string(n, k, o, env)
    return measure_stable(rs_factory, backend,
                          window=window).min_cycles_per_access


def baseline(params: L1Params, env: MachineEnv, backend,
             window: int = DEFAULT_WINDOW) -> float:
    """Stable time of G(2, LB/2, 0): the all-hit L1 reference in cycles."""
    return _measure_gap(2, params.lb // 2, 0, env, backend, window)


def find_capacity(params: L1Params, base: float, env: MachineEnv, backend,
                  window: int = DEFAULT_WINDOW) -> int:
    """First gap k whose G(MaxAssoc+1, k, 0) leaves the baseline gives the
    capacity as k * MaxAssoc."""
    ma = params.max_assoc
    for k in octave_points(max(params.lb // ma, env.word), params.ub // ma):
        t = _measure_gap(ma + 1, k, 0, env, backend, window)
        if is_step(base, t, STEP_TOL):
            return k * ma
    raise ProbeError("no gap produced misses: capacity above UB=%d" % params.ub)


def find_associativity(params: L1Params, l1_size: int, base: float,
                       env: MachineEnv, backend,
                       window: int = DEFAULT_WINDOW):
    """Shrink n from MaxAssoc: the first n whose G(n+1, size/n, 0) returns to
    baseline gives associativity n*2.  Returns (ways, flags)."""
    n = params.max_assoc
    while n >= 1:
        t = _measure_gap(n + 1, l1_size // n, 0, env, backend, window)
        if not is_step(base, t, STEP_TOL):
            if n == params.max_assoc:
                # True associativity exceeds what halving can resolve;
                # report the cap with a marker.
                return params.max_assoc, ["associativity-exceeds-max"]
            return n * 2, []
        n //= 2
    return 1, ["direct-mapped"]


def find_linesize(params: L1Params, l1_size: int, l1_assoc: int, base: float,
                  env: MachineEnv, backend,
                  window: int = DEFAULT_WINDOW) -> int:
    """First offset o that moves the final reference into the next set,
    dropping G(assoc+1, size/assoc, o) back to baseline."""
    gap = l1_size // l1_assoc
    for o in range(env.word, env.pagesize, env.word):
        t = _measure_gap(l1_assoc + 1, gap, o, env, backend, window)
        if not is_step(base, t, STEP_TOL):
            return o
    raise ProbeError("no offset restored the baseline: linesize not found")


def run_l1_probe(params: L1Params, env: MachineEnv, backend,
                 window: int = DEFAULT_WINDOW) -> L1Report:
    started = time.perf_counter()
    base = baseline(params, env, backend, window)
    capacity = find_capacity(params, base, env, backend, window)
    assoc, flags = find_associativity(params, capacity, base, env, backend,
                                      window)
    linesize = find_linesize(params, capacity, assoc, base, env, backend,
                             window)
    return L1Report(capacity=capacity, associativity=assoc, linesize=linesize,
                    latency=max(1, round(base)), cost=time.perf_counter() - started,
                    flags=flags)
