"""TLB probe: T(1,k) sweep over page counts, suspect-point detection, and
on-demand confirmation with the higher line-count strings T(2..4, k).

A rise in T(1,k) can come from a cache boundary instead of a TLB boundary;
only rises that T(2,k), T(3,k) and T(4,k) all reproduce at the same footprint
are reported, because a cache-edge artifact moves to a smaller footprint when
the lines-per-page count grows.  Confirmation measures n = 2, 3, 4 in that
order and stops at the first n that does not reproduce the rise, since that
n alone rejects the suspect.  For each n, T(n, boundary) and T(n, footprint)
are one two-point ``run_sweep``, so both minima come from the same span of
runs and a slow drift in the machine's speed moves both alike.  Every string
seed is drawn by ``run_sweep``, from the seed each sweep is given.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from .cacheprobe import octave_points
from .errors import InvalidGeometryError
from .refstring import MAX_FOOTPRINT, MachineEnv, build_tlb_string
from .timing import DEFAULT_WINDOW, JUMP, ResponseCurve, is_step, run_sweep

DEFAULT_LB_PAGES = 4
DEFAULT_UB = 8 * 1024 * 1024


@dataclass
class TlbSuspect:
    footprint: int  # bytes; the sample where the jump lands
    boundary: int   # bytes; the last sample before the rise
    confirmed: bool = False
    confirming_n: List[int] = field(default_factory=list)
    #: (n, T(n, boundary), T(n, footprint)) in cycles per access, for each
    #: n that confirmation measured: 2, 3, 4 in order, up to and including
    #: the first n that did not reproduce the rise.
    measured: List[Tuple[int, float, float]] = field(default_factory=list)
    #: String runs its confirmation took.
    string_runs: int = 0


def run_tlb_sweep(lb: int, ub: int, env: MachineEnv, backend,
                  window: int = DEFAULT_WINDOW,
                  seed: int = 0) -> ResponseCurve:
    """Stability-disciplined sweep of T(1,k) over the page-count schedule."""
    if lb % env.pagesize or ub % env.pagesize:
        raise InvalidGeometryError("TLB bounds must be multiples of pagesize")
    if lb < 2 * env.pagesize:
        raise InvalidGeometryError("TLB LB must be at least 2 pages (%d bytes): "
                                   "a T(1,k) string needs 2 slots"
                                   % (2 * env.pagesize))
    if ub > MAX_FOOTPRINT:
        raise InvalidGeometryError("TLB UB must be at most %d" % MAX_FOOTPRINT)
    pages = octave_points(lb // env.pagesize, ub // env.pagesize)
    footprints = [p * env.pagesize for p in pages]
    return run_sweep(footprints, lambda fp, s: build_tlb_string(1, fp, env, s),
                     backend, window=window, seed=seed)


def find_suspects(curve: ResponseCurve) -> List[TlbSuspect]:
    values = curve.values()
    fps = curve.footprints()
    out = []
    for i in range(1, len(values)):
        if is_step(values[i - 1], values[i], *JUMP):
            out.append(TlbSuspect(footprint=fps[i], boundary=fps[i - 1]))
    return out


def confirm_suspect(suspect: TlbSuspect, env: MachineEnv, backend,
                    window: int = DEFAULT_WINDOW, seed: int = 0) -> TlbSuspect:
    """Measure T(n, boundary) and T(n, footprint) for n = 2, 3, 4 in that
    order, stopping after the first n that does not reproduce the jump; the
    suspect is confirmed only if every n reproduces it.

    Each n is one ``run_sweep([boundary, footprint])`` with knockout, so the
    two strings alternate while both are active.  A footprint within
    ``STEP_TOL`` of its boundary, which can never be a jump, is knocked out
    instead of running its own window; it still reports its own minimum.
    The string seeds run on from ``seed + 1`` across the sweeps: each n's
    sweep starts at the seed after the last one of the n before it.
    """
    for n in (2, 3, 4):
        curve = run_sweep(
            [suspect.boundary, suspect.footprint],
            lambda fp, s: build_tlb_string(n, fp, env, s),
            backend, window=window, seed=seed + suspect.string_runs)
        suspect.string_runs += curve.total_string_runs
        before, after = (p.min_cycles for p in curve.points)
        suspect.measured.append((n, before, after))
        if not is_step(before, after, *JUMP):
            break
        suspect.confirming_n.append(n)
    suspect.confirmed = suspect.confirming_n == [2, 3, 4]
    return suspect


def run_tlb_probe(env: MachineEnv, backend, lb: int = 0, ub: int = DEFAULT_UB,
                  window: int = DEFAULT_WINDOW, seed: int = 0
                  ) -> Tuple[List[int], List[TlbSuspect], ResponseCurve]:
    """Full TLB test: sweep, suspects, confirmation.

    The sweep's string seeds start at ``seed + 1``, suspect i's at
    ``seed + 7919 * i + 1``.  Returns (the entry count of each confirmed
    suspect's boundary, smallest first; every suspect; the T(1,k) curve).
    """
    lb = lb or DEFAULT_LB_PAGES * env.pagesize
    curve = run_tlb_sweep(lb, ub, env, backend, window=window, seed=seed)
    suspects = [confirm_suspect(s, env, backend, window=window,
                                seed=seed + 7919 * i)
                for i, s in enumerate(find_suspects(curve))]
    entries = [s.boundary // env.pagesize for s in suspects if s.confirmed]
    return entries, suspects, curve
