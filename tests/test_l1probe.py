import pytest

from memhier import CacheLevel, SimConfig, SimulatedBackend
from memhier.l1probe import (L1Params, baseline, find_associativity,
                             find_capacity, find_linesize, run_l1_probe)

KB = 1024

WINDOW = 3


def backend(cap=32 * KB, assoc=8, linesize=64, latency=3):
    cfg = SimConfig(cache_levels=[CacheLevel(cap, assoc, linesize, latency),
                                  CacheLevel(4096 * KB, 16, 64, 15)],
                    memory_latency=100)
    return SimulatedBackend(cfg)


class TestL1Loops:
    def test_baseline_is_l1_latency(self, env):
        assert baseline(L1Params(), env, backend(latency=3), WINDOW) == 3.0
        assert baseline(L1Params(), env, backend(latency=4), WINDOW) == 4.0

    def test_capacity_first_trigger(self, env):
        base = 3.0
        cap = find_capacity(L1Params(), base, env, backend(), WINDOW)
        assert cap == 32 * KB  # first trigger at k = 2KB with MaxAssoc 16

    def test_capacity_pentium4_geometry(self, env):
        be = backend(cap=8 * KB, assoc=4, latency=4)
        cap = find_capacity(L1Params(), 4.0, env, be, WINDOW)
        assert cap == 8 * KB

    def test_associativity_detected_at_half(self, env):
        # 32KB/8-way: G(5, 8KB, 0) is the first all-hit string, at n = 4.
        ways, flags = find_associativity(L1Params(), 32 * KB, 3.0, env,
                                         backend(), WINDOW)
        assert (ways, flags) == (8, [])

    def test_direct_mapped_flagged(self, env):
        be = backend(cap=16 * KB, assoc=1)
        ways, flags = find_associativity(L1Params(), 16 * KB, 3.0, env,
                                         be, WINDOW)
        assert ways == 1
        assert flags == ["direct-mapped"]

    def test_linesize_sweep(self, env):
        assert find_linesize(L1Params(), 32 * KB, 8, 3.0, env,
                             backend(linesize=64), WINDOW) == 64
        assert find_linesize(L1Params(), 32 * KB, 8, 3.0, env,
                             backend(linesize=32), WINDOW) == 32


class TestFullProbe:
    @pytest.mark.parametrize("cap,assoc,ls,lat", [
        (32 * KB, 8, 64, 3),   # Core-i3-like geometry
        (8 * KB, 4, 64, 4),    # Pentium-4-like geometry
        (32 * KB, 8, 32, 4),
        (64 * KB, 2, 128, 3),
    ])
    def test_exact_recovery(self, env, cap, assoc, ls, lat):
        rep = run_l1_probe(L1Params(), env,
                           backend(cap, assoc, ls, lat), window=WINDOW)
        assert (rep.capacity, rep.associativity, rep.linesize, rep.latency) \
            == (cap, assoc, ls, lat)
        assert rep.flags == []
        assert rep.cost > 0

    def test_max_assoc_cache(self, env):
        rep = run_l1_probe(L1Params(), env, backend(16 * KB, 16, 64, 2),
                           window=WINDOW)
        assert (rep.capacity, rep.associativity, rep.linesize) == (16 * KB, 16, 64)
