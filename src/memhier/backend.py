"""Measurement backends: real process memory or the simulated hierarchy.

Every probe runs against the same contract::

    backend.run(rs, loads) -> (elapsed, loads_done)

where ``elapsed`` is seconds for the real backend and simulated cycles for
the simulator (whose calibration is the identity).  One untimed warm-up
traversal precedes the timed region in both cases.

The real backend chases an index chain compiled to native code with numba;
interpreted chasing cannot resolve cache-level latency differences.
"""

from __future__ import annotations

import os
import random
import time
from typing import Optional

from .errors import AllocationFailureError, MemhierError
from .refstring import ReferenceString

#: Largest region the real backend will allocate (bytes).
DEFAULT_REGION_CAP = 64 * 1024 * 1024

#: If set, the probe process is pinned to this hardware thread (best effort).
PIN_CPU_ENV = "MEMHIER_PIN_CPU"


def acquire_region(footprint: int, cap: int = DEFAULT_REGION_CAP):
    """Allocate a page-aligned region of at least ``footprint`` bytes,
    returned as an int64 numpy array of footprint/8 slots."""
    if footprint <= 0:
        raise AllocationFailureError("footprint must be positive")
    if footprint > cap:
        raise AllocationFailureError(
            "footprint %d exceeds the %d byte cap" % (footprint, cap))
    import numpy as np

    try:
        # numpy routes large allocations through mmap, which is page-aligned.
        return np.zeros((footprint + 7) // 8, dtype=np.int64)
    except MemoryError as exc:
        raise AllocationFailureError(str(exc)) from exc


def maybe_pin_cpu() -> None:
    cpu = os.environ.get(PIN_CPU_ENV)
    if not cpu:
        return
    try:
        os.sched_setaffinity(0, {int(cpu)})
    except (AttributeError, ValueError, OSError):
        pass  # best effort only


class RealMemoryBackend:
    """Times dependent loads through an actual in-memory pointer chain."""

    deterministic = False

    def __init__(self, region_cap: int = DEFAULT_REGION_CAP):
        self.region_cap = region_cap
        self._kernels = _load_kernels()
        maybe_pin_cpu()

    def run(self, rs: ReferenceString, loads: int):
        import numpy as np

        word = 8
        arr = acquire_region(rs.footprint, self.region_cap)
        chain = rs.chain
        idx = np.fromiter((off // word for off in chain), dtype=np.int64,
                          count=len(chain))
        arr[idx[:-1]] = idx[1:]
        arr[idx[-1]] = idx[0]
        chase = self._kernels.chase
        entry = rs.entry // word
        chase(arr, entry, rs.chain_length)  # warm-up traversal, untimed
        t0 = time.perf_counter()
        final = chase(arr, entry, loads)
        t1 = time.perf_counter()
        if final < 0:  # consume the loaded value; never taken
            raise MemhierError("chase kernel returned an invalid slot")
        return t1 - t0, loads


class _Kernels:
    def __init__(self, chase, add_chain):
        self.chase = chase
        self.add_chain = add_chain


_KERNELS: Optional[_Kernels] = None


def _load_kernels() -> _Kernels:
    global _KERNELS
    if _KERNELS is not None:
        return _KERNELS
    try:
        import numba
        import numpy as np
    except ImportError as exc:
        raise MemhierError(
            "the real-memory backend needs numba (pip install memhier[real])"
        ) from exc

    @numba.njit(cache=True)
    def chase(arr, start, loads):
        i = start
        for _ in range(loads):
            i = arr[i]
        return i

    @numba.njit(cache=True)
    def add_chain(n):
        # Serial xor-add chain: not reducible to a closed form, so the loop
        # body stays one dependent integer op pair per iteration.
        acc = np.int64(1)
        for i in range(n):
            acc = (acc ^ i) + 1
        return acc

    # Trigger compilation outside any timed region.
    warm = np.zeros(2, dtype=np.int64)
    warm[0], warm[1] = 1, 0
    chase(warm, 0, 4)
    add_chain(16)
    _KERNELS = _Kernels(chase, add_chain)
    return _KERNELS


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
