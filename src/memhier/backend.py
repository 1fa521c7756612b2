"""Measurement backends: real process memory or the simulated hierarchy.

Every probe runs against the same contract::

    backend.run(rs, loads) -> (elapsed, loads_done)

where ``elapsed`` is seconds for the real backend and simulated cycles for
the simulator (whose calibration is the identity).  One untimed warm-up
traversal precedes the timed region in both cases.

The real backend links the chain in an anonymous ``mmap`` region and chases
it with a C kernel, compiled once per process by the system C compiler ``cc``
and loaded with ctypes; interpreted chasing cannot resolve cache-level latency
differences.  Its modules are imported lazily: simulator runs never load them.
"""

from __future__ import annotations

import functools
import os
import random
import time

from .errors import AllocationFailureError, MemhierError
from .refstring import MAX_FOOTPRINT, ReferenceString

#: If set, the probe process is pinned to this hardware thread.
PIN_CPU_ENV = "MEMHIER_PIN_CPU"

_KERNEL_SOURCE = r"""
#include <stdint.h>

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
    """The library of ``chase`` and ``add_chain``, built once per process."""
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
    lib.chase.argtypes = (ctypes.POINTER(i64), i64, i64)
    lib.add_chain.argtypes = (i64,)
    lib.chase.restype = lib.add_chain.restype = i64
    return lib


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


class RealMemoryBackend:
    """Times dependent loads through an actual in-memory pointer chain."""

    deterministic = False

    def __init__(self):
        self._chase = _kernels().chase
        maybe_pin_cpu()

    def run(self, rs: ReferenceString, loads: int):
        import ctypes

        word = 8
        region = acquire_region(rs.footprint)
        slots = (ctypes.c_int64 * (len(region) // word)).from_buffer(region)
        try:
            idx = [off // word for off in rs.chain]
            for here, there in zip(idx, idx[1:] + idx[:1]):
                slots[here] = there
            entry = rs.entry // word
            self._chase(slots, entry, rs.chain_length)  # warm-up, untimed
            t0 = time.perf_counter()
            self._chase(slots, entry, loads)
            t1 = time.perf_counter()
        finally:
            del slots  # the region cannot close while the array exports it
            region.close()
        return t1 - t0, loads


class JitterBackend:
    """Wraps a backend and adds non-negative per-access noise to each run.

    Used to exercise the minimum-filtering stability discipline; the noise is
    additive and positive, so minima still converge to the noise-free value.
    """

    def __init__(self, inner, seed: int = 0, zero_prob: float = 0.4,
                 scale: float = 1.0):
        self.inner = inner
        self.deterministic = False
        self._rng = random.Random(seed)
        self.zero_prob = zero_prob
        self.scale = scale

    def run(self, rs: ReferenceString, loads: int):
        elapsed, done = self.inner.run(rs, loads)
        if self._rng.random() >= self.zero_prob:
            elapsed += self._rng.expovariate(1.0 / self.scale) * done
        return elapsed, done
