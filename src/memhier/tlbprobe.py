"""TLB probe: T(1,k) sweep over page counts, suspect-point detection, and
on-demand confirmation with the higher line-count strings T(2..4, k).

The suspects are the T(1,k) curve's transitions by ``analysis.plateaus``,
each with the rise between its two plateaus: the level's miss penalty.
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

from typing import List, Optional, Tuple

from .analysis import plateaus
from .errors import InvalidGeometryError
from .refstring import MachineEnv, build_tlb_string
from .timing import (DEFAULT_WINDOW, JUMP, ResponseCurve, is_step, run_sweep,
                     sample_schedule)

DEFAULT_LB_PAGES = 4
DEFAULT_UB = 8 * 1024 * 1024


class TlbSuspect:
    """A rise of the T(1,k) curve, and what its confirmation measured."""

    __slots__ = ("footprint", "boundary", "confirmed", "confirming_n",
                 "measured", "string_runs", "latency")

    def __init__(self, footprint: int, boundary: int, confirmed: bool = False,
                 confirming_n: Optional[List[int]] = None,
                 measured: Optional[List[Tuple[int, float, float]]] = None,
                 string_runs: int = 0, latency: int = 0):
        self.footprint = footprint  # bytes; the sample where the rise lands
        self.boundary = boundary    # bytes; the last sample before the rise
        self.confirmed = confirmed
        self.confirming_n = [] if confirming_n is None else confirming_n
        #: (n, T(n, boundary), T(n, footprint)) in cycles per access, for
        #: each n that confirmation measured: 2, 3, 4 in order, up to and
        #: including the first n that did not reproduce the rise.
        self.measured = [] if measured is None else measured
        #: String runs its confirmation took.
        self.string_runs = string_runs
        #: Rise in cycles per access from the T(1,k) plateau it ends to the
        #: next.
        self.latency = latency


def run_tlb_sweep(lb: int, ub: int, env: MachineEnv, backend,
                  window: int = DEFAULT_WINDOW,
                  seed: int = 0) -> ResponseCurve:
    """Stability-disciplined sweep of T(1,k) over ``timing.sample_schedule``
    in pages."""
    if lb % env.pagesize or ub % env.pagesize:
        raise InvalidGeometryError("TLB bounds must be multiples of pagesize")
    if lb < 2 * env.pagesize:
        raise InvalidGeometryError("TLB LB must be at least 2 pages (%d bytes): "
                                   "a T(1,k) string needs 2 slots"
                                   % (2 * env.pagesize))
    if lb >= ub:
        raise InvalidGeometryError("TLB LB (%d bytes) must be below TLB UB "
                                   "(%d bytes)" % (lb, ub))
    return run_sweep(sample_schedule(lb, ub, env.pagesize, "TLB "),
                     lambda fp, s: build_tlb_string(1, fp, env, s),
                     backend, window=window, seed=seed)


def find_suspects(curve: ResponseCurve) -> List[TlbSuspect]:
    """One suspect per transition of ``analysis.plateaus``: its
    ``boundary`` is a plateau's last footprint, its ``footprint`` the next
    sample, and its ``latency`` the rise to the next plateau's median."""
    steps = plateaus(curve)
    fps = curve.footprints()
    return [TlbSuspect(footprint=fps[fps.index(end) + 1], boundary=end,
                       latency=round(after - before))
            for (end, before), (_, after) in zip(steps, steps[1:])]


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
                  ) -> Tuple[List[TlbSuspect], ResponseCurve]:
    """Full TLB test: sweep, suspects, confirmation.

    The sweep's string seeds start at ``seed + 1``, suspect i's at
    ``seed + 7919 * i + 1``.  Returns (every suspect, smallest boundary
    first, each confirmed or not; the T(1,k) curve).
    """
    lb = lb or DEFAULT_LB_PAGES * env.pagesize
    curve = run_tlb_sweep(lb, ub, env, backend, window=window, seed=seed)
    suspects = [confirm_suspect(s, env, backend, window=window,
                                seed=seed + 7919 * i)
                for i, s in enumerate(find_suspects(curve))]
    return suspects, curve
