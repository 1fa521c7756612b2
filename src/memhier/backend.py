"""Measurement backends: real process memory or the simulated hierarchy.

Every probe runs against the same contract::

    backend.run(rs, loads) -> cycles per access

One untimed warm-up traversal precedes the timed loads.  Turning time into
cycles is the only machine-dependent step, and it lives here: the real
backend measures seconds per cycle once, when it is constructed, and divides
every timed run by it; the simulator counts cycles natively.  A "cycle" is
the duration of one dependent register add in the C kernel ``add_chain``.

The real backend links the chain in an anonymous ``mmap`` region and chases
it with C kernels, compiled once per process by the system C compiler ``cc``
and loaded with ctypes; interpreted chasing cannot resolve cache-level latency
differences, and linking slot by slot in Python took most of a run.  Its
modules are imported lazily: simulator runs never load them.
"""

from __future__ import annotations

import functools
import os
import time

from .errors import AllocationFailureError, MemhierError, TimerTooCoarseError
from .refstring import MAX_FOOTPRINT, ReferenceString

#: If set, the probe process is pinned to this hardware thread.
PIN_CPU_ENV = "MEMHIER_PIN_CPU"

_KERNEL_SOURCE = r"""
#include <stdint.h>

/* Link the circular chain whose slots lie at byte offsets off[0..n-1]:
 * each slot holds the index of the next. */
void link(int64_t *slots, const int64_t *off, int64_t n)
{
    for (int64_t i = 0; i + 1 < n; i++)
        slots[off[i] / 8] = off[i + 1] / 8;
    slots[off[n - 1] / 8] = off[0] / 8;
}

int64_t chase(const int64_t *slots, int64_t i, int64_t loads)
{
    while (loads-- > 0)
        i = slots[i];
    return i;
}

int64_t add_chain(int64_t n)
{
    int64_t acc = 1;
    for (int64_t i = 0; i < n; i++) {
        acc += i;
        __asm__ volatile("" : "+r"(acc));  /* no closed form: one add */
    }
    return acc;
}
"""


@functools.cache
def _kernels():
    """The library of ``link``, ``chase`` and ``add_chain``, built once per
    process."""
    import ctypes
    import subprocess
    import tempfile

    # The loaded library stays mapped after its directory is removed.
    with tempfile.TemporaryDirectory(prefix="memhier-") as tmp:
        source = os.path.join(tmp, "kernels.c")
        path = os.path.join(tmp, "kernels.so")
        with open(source, "w") as fh:
            fh.write(_KERNEL_SOURCE)
        try:
            subprocess.run(["cc", "-O2", "-shared", "-fPIC", "-o", path,
                            source], check=True, capture_output=True)
            lib = ctypes.CDLL(path)
        except (OSError, subprocess.CalledProcessError) as exc:
            raise MemhierError("the real-memory backend needs a working C "
                               "compiler 'cc' on PATH: %s" % exc) from exc
    i64 = ctypes.c_int64
    lib.link.argtypes = (ctypes.POINTER(i64), ctypes.c_void_p, i64)
    lib.link.restype = None
    lib.chase.argtypes = (ctypes.POINTER(i64), i64, i64)
    lib.add_chain.argtypes = (i64,)
    lib.chase.restype = lib.add_chain.restype = i64
    return lib


def link_chain(slots, rs: ReferenceString) -> None:
    """Write the chain of ``rs`` into ``slots``, a ctypes array of 8-byte
    slots over its region, with one ``link`` call: each chain slot holds the
    index of the next.  The kernel does not check bounds, so this does: a
    chain that does not fit ``slots`` raises MemhierError."""
    from array import array

    if not rs.chain:  # the kernel links the last slot to the first
        raise MemhierError("empty chain")
    if min(rs.chain) < 0 or max(rs.chain) // 8 >= len(slots):
        raise MemhierError("chain offsets outside the %d byte region"
                           % (8 * len(slots)))
    offsets = array("q", rs.chain)
    _kernels().link(slots, offsets.buffer_info()[0], len(offsets))


def acquire_region(footprint: int):
    """Map an anonymous, page-aligned, zero-filled region of at least
    ``footprint`` bytes, a whole number of 8-byte slots long."""
    if footprint <= 0:
        raise AllocationFailureError("footprint must be positive")
    if footprint > MAX_FOOTPRINT:
        raise AllocationFailureError(
            "footprint %d exceeds the %d byte cap" % (footprint, MAX_FOOTPRINT))
    import mmap

    try:
        return mmap.mmap(-1, (footprint + 7) // 8 * 8)
    except OSError as exc:
        raise AllocationFailureError(str(exc)) from exc


def maybe_pin_cpu() -> None:
    """Pin this process to the CPU named by ``MEMHIER_PIN_CPU``, if set."""
    cpu = os.environ.get(PIN_CPU_ENV)
    if not cpu:
        return
    try:
        os.sched_setaffinity(0, {int(cpu)})
    except (AttributeError, ValueError, OSError) as exc:
        raise MemhierError("%s=%r: cannot pin to that CPU (%s)"
                           % (PIN_CPU_ENV, cpu, exc)) from exc


def timer_resolution() -> float:
    """Smallest positive delta observable from the monotonic timer."""
    best = float("inf")
    for _ in range(64):
        t0 = time.perf_counter()
        t1 = time.perf_counter()
        while t1 == t0:
            t1 = time.perf_counter()
        best = min(best, t1 - t0)
    return best


class RealMemoryBackend:
    """Times dependent loads through an actual in-memory pointer chain."""

    def __init__(self):
        kernels = _kernels()
        self._chase = kernels.chase
        maybe_pin_cpu()
        self.timer_resolution = timer_resolution()
        if self.timer_resolution > 1e-3:
            raise TimerTooCoarseError(
                "monotonic timer resolution %.3g s is coarser than 1 ms"
                % self.timer_resolution)
        n = 1 << 22
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            kernels.add_chain(n)
            t1 = time.perf_counter()
            best = min(best, (t1 - t0) / n)
        # Each iteration is one register add that depends on the previous
        # one, so it takes one add's latency: one cycle.
        self.seconds_per_cycle = best
        # A timed run covers at least this many loads, enough to last 1000x
        # the timer resolution at a few cycles per load; run re-rounds it to
        # whole traversals of each string.
        self.loads_per_run = max(
            1024, int(1000.0 * self.timer_resolution
                      / (3.0 * self.seconds_per_cycle)) + 1)

    def run(self, rs: ReferenceString, loads: int) -> float:
        """At least ``loads`` dependent loads of the chain, raised to
        ``loads_per_run`` and to whole traversals; cycles per access."""
        import ctypes

        n = rs.chain_length
        loads = -(-max(loads, self.loads_per_run) // n) * n
        word = 8
        region = acquire_region(rs.footprint)
        slots = (ctypes.c_int64 * (len(region) // word)).from_buffer(region)
        try:
            link_chain(slots, rs)
            entry = rs.chain[0] // word
            self._chase(slots, entry, n)  # warm-up, untimed
            t0 = time.perf_counter()
            self._chase(slots, entry, loads)
            t1 = time.perf_counter()
        finally:
            del slots  # the region cannot close while the array exports it
            region.close()
        return (t1 - t0) / loads / self.seconds_per_cycle
