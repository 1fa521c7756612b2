import pytest

from conftest import CountingBackend, Inexact, PartialOverflow
from memhier import CacheLevel, ProbeError, SimConfig, SimulatedBackend
from memhier import l1probe
from memhier.l1probe import (GapTimer, L1Params, baseline, check_geometry,
                             find_associativity, find_capacity, find_linesize,
                             find_stride, run_l1_probe)
from memhier.timing import STEP_TOL, is_step

KB = 1024

WINDOW = 3

#: Acceptance criterion 1's L1s (capacity, ways, line size) and their
#: MaxAssoc: every power-of-two grid point, two spot checks, way counts that
#: are not powers of two, a direct-mapped L1, and 20 ways under MaxAssoc 32.
CRITERION_1 = [((cap * KB, assoc, ls), 16)
               for cap in (8, 16, 32, 64)
               for assoc in (2, 4, 8)
               for ls in (32, 64, 128)] + [
    ((16 * KB, 16, 64), 16), ((32 * KB, 16, 64), 16),
    ((24 * KB, 6, 64), 16), ((48 * KB, 12, 64), 16), ((36 * KB, 9, 64), 16),
    ((96 * KB, 12, 128), 16), ((30 * KB, 15, 64), 16), ((16 * KB, 1, 64), 16),
    ((80 * KB, 20, 64), 32)]


def backend(cap=32 * KB, assoc=8, linesize=64, latency=3):
    cfg = SimConfig(cache_levels=[CacheLevel(cap, assoc, linesize, latency),
                                  CacheLevel(4096 * KB, 16, 64, 15)],
                    memory_latency=100)
    return SimulatedBackend(cfg)


def timer(env, be=None):
    return GapTimer(env, be or backend(), WINDOW)


class TestL1Loops:
    def test_baseline_is_l1_latency(self, env):
        assert baseline(L1Params(), timer(env, backend(latency=3))) == 3.0
        assert baseline(L1Params(), timer(env, backend(latency=4))) == 4.0

    def test_capacity_first_trigger(self, env):
        # 32KB/8-way with MaxAssoc 16: G(17, 1KB, 0) spans 17KB and hits;
        # G(17, 2KB, 0) puts 9 lines in a set of 8.
        assert find_stride(L1Params(), 3.0, timer(env)) == 2 * KB
        assert find_capacity(L1Params(), 3.0, timer(env)) == (32 * KB, 2 * KB)

    @pytest.mark.parametrize("geometry,max_assoc", CRITERION_1)
    def test_stride_bisection_matches_scan(self, env, geometry, max_assoc):
        # Every power-of-two stride from max(LB/MaxAssoc, word), rounded
        # down, while stride * MaxAssoc is within UB: the misses form one
        # run up to UB, and the bisection lands on its first stride.
        params = L1Params(max_assoc=max_assoc)
        t = timer(env, backend(*geometry))
        base = baseline(params, t)
        first = max(params.lb // max_assoc, env.word)
        strides = [1 << e for e in range(first.bit_length() - 1, 32)
                   if (1 << e) * max_assoc <= params.ub]
        missed = [t.misses(base, max_assoc + 1, k) for k in strides]
        assert missed == sorted(missed) and missed[-1]
        assert find_stride(params, base, t) == strides[missed.index(True)]

    def test_stride_at_the_bottom_of_its_range(self, env):
        # LB/MaxAssoc = 2 KB, and G(17, 2KB, 0) already misses on 32K/8.
        assert find_stride(L1Params(lb=32 * KB), 3.0, timer(env)) == 2 * KB

    def test_stride_above_ub_is_an_error(self, env):
        with pytest.raises(ProbeError, match="capacity above UB"):
            find_stride(L1Params(ub=16 * KB), 3.0, timer(env))

    def test_capacity_pentium4_geometry(self, env):
        be = backend(cap=8 * KB, assoc=4, latency=4)
        assert find_capacity(L1Params(), 4.0, timer(env, be)) == (8 * KB, 512)

    @pytest.mark.parametrize("cap,assoc,stride", [
        (48 * KB, 12, 4 * KB),
        (24 * KB, 6, 2 * KB),
        (36 * KB, 9, 4 * KB),
    ])
    def test_capacity_any_way_count(self, env, cap, assoc, stride):
        be = backend(cap=cap, assoc=assoc, latency=4)
        assert find_capacity(L1Params(), 4.0, timer(env, be)) == (cap, stride)

    def test_associativity_is_capacity_over_way_size(self, env):
        # 32KB/8-way at a 2KB stride: G(9, 4KB, 0) misses, G(5, 8KB, 0)
        # hits, so the way size is 4KB.
        assert find_associativity(32 * KB, 2 * KB, 3.0, timer(env)) == 8

    def test_associativity_not_a_power_of_two(self, env):
        be = backend(cap=48 * KB, assoc=12)
        assert find_associativity(48 * KB, 4 * KB, 3.0, timer(env, be)) == 12

    def test_direct_mapped(self, env):
        # The report flags it: see test_analysis.py.
        be = backend(cap=16 * KB, assoc=1)
        assert find_associativity(16 * KB, KB, 3.0, timer(env, be)) == 1

    def test_linesize_sweep(self, env):
        assert find_linesize(32 * KB, 8, 3.0,
                             timer(env, backend(linesize=64))) == 64
        assert find_linesize(32 * KB, 8, 3.0,
                             timer(env, backend(linesize=32))) == 32

    def test_linesize_doubles_the_offset(self, env):
        # For a 64 B line the offsets 8, 16 and 32 miss and 64 hits.
        be = CountingBackend(backend(linesize=64))
        assert find_linesize(32 * KB, 8, 3.0, timer(env, be)) == 64
        assert [kind.o for kind in be.kinds] == [8, 16, 32, 64]

    def test_timer_counts_string_runs(self, env):
        be = CountingBackend(backend())
        t = GapTimer(env, be, WINDOW)
        t.cycles(2, 512)
        t.cycles(17, 2 * KB)
        assert t.string_runs == be.runs == 2


class TestParams:
    def test_any_positive_max_assoc(self):
        assert L1Params(max_assoc=12).max_assoc == 12

    @pytest.mark.parametrize("ma", [0, -4])
    def test_nonpositive_max_assoc_rejected(self, ma):
        with pytest.raises(ProbeError):
            L1Params(max_assoc=ma)


class TestFullProbe:
    @pytest.mark.parametrize("cap,assoc,ls,lat", [
        (32 * KB, 8, 64, 3),   # Core-i3-like geometry
        (8 * KB, 4, 64, 4),    # Pentium-4-like geometry
        (32 * KB, 8, 32, 4),
        (64 * KB, 2, 128, 3),
        (48 * KB, 12, 64, 5),
        (24 * KB, 6, 64, 4),
    ])
    def test_exact_recovery(self, env, cap, assoc, ls, lat):
        rep = run_l1_probe(L1Params(), env,
                           backend(cap, assoc, ls, lat), window=WINDOW)
        assert (rep.capacity, rep.associativity, rep.linesize, rep.latency) \
            == (cap, assoc, ls, lat)

    def test_max_assoc_cache(self, env):
        rep = run_l1_probe(L1Params(), env, backend(16 * KB, 16, 64, 2),
                           window=WINDOW)
        assert (rep.capacity, rep.associativity, rep.linesize) == (16 * KB, 16, 64)

    def test_max_assoc_not_a_power_of_two(self, env):
        rep = run_l1_probe(L1Params(max_assoc=12), env,
                           backend(48 * KB, 12, 64, 5), window=WINDOW)
        assert (rep.capacity, rep.associativity, rep.linesize) == (48 * KB, 12, 64)

    def test_32k8_string_runs(self, env):
        # Baseline 1, stride bisection over 64 B to 256 KB 4, capacity
        # bisection 4, way-size bisection 2, line offsets 8 B to 64 B 4: one
        # run each on the simulator, where each gap string settles at once.
        be = CountingBackend(backend())
        rep = run_l1_probe(L1Params(), env, be, window=WINDOW)
        assert (rep.capacity, rep.associativity, rep.linesize) == (32 * KB, 8, 64)
        assert be.runs == 15
        assert rep.string_runs == be.runs


class TestCheckGeometry:
    def test_true_geometry_passes(self, env):
        check_geometry(32 * KB, 8, 64, 3.0, timer(env))
        check_geometry(48 * KB, 12, 64, 3.0,
                       timer(env, backend(48 * KB, 12, 64, 3)))
        check_geometry(16 * KB, 1, 64, 3.0,
                       timer(env, backend(16 * KB, 1, 64, 3)))

    @pytest.mark.parametrize("cap,assoc,ls", [
        (30 * KB, 15, 8),      # G(16, 2K, 0) fits: 8 lines in each set
        (44 * KB, 11, 32),     # G(12, 4K, 0) fits the 12 ways
        (32 * KB, 8, 56),      # not a power of two
        (32 * KB, 8, 8 * KB),  # larger than the way
        (64 * KB, 16, 64),     # G(16, 4K, 0) already misses
        (32 * KB, 16, 64),     # G(17, 2K, 0) misses in one of two sets
        (32 * KB, 8, 128),     # G(9, 4K, 64) hits: twice the line size
        (32 * KB, 8, 8),       # G(9, 4K, L) misses below the line size
        (32 * KB, 8, 16),
        (32 * KB, 8, 32),
    ])
    def test_contradicted_geometry_is_an_error(self, env, cap, assoc, ls):
        # The true L1 is 32K/8/64 (48K/12/64 for the 11-way claim).
        be = backend(48 * KB, 12, 64, 3) if assoc == 11 else backend()
        with pytest.raises(ProbeError, match="inconsistent L1 result"):
            check_geometry(cap, assoc, ls, 3.0, timer(env, be))

    @pytest.mark.parametrize("geometry, max_assoc", CRITERION_1)
    def test_true_geometry_passes_where_overflow_misses_in_part(
            self, env, geometry, max_assoc):
        # A set overflowed by a few lines misses on only part of its
        # accesses, so G(2*ways+2, W, 0) reads a step above
        # G(ways+1, W, 0): a check that required every access of the latter
        # to miss would refuse the true geometry.
        cap, assoc, ls = geometry
        be = PartialOverflow(backend(cap, assoc, ls))
        way = cap // assoc
        t = timer(env, be)
        assert is_step(t.cycles(assoc + 1, way), t.cycles(2 * assoc + 2, way),
                       STEP_TOL)
        check_geometry(cap, assoc, ls, 3.0, t)
        rep = run_l1_probe(L1Params(max_assoc=max_assoc), env, be,
                           window=WINDOW)
        assert (rep.capacity, rep.associativity, rep.linesize) == geometry

    def test_one_way_too_few_is_an_error_where_an_exact_fit_reads_high(
            self, env):
        # On a 48K/12 L1 whose exactly full set reads 0.4 above the
        # baseline, a miss at STEP_TOL, a search can end on 44K/11.  Its
        # G(12, 4K, 0) is no miss against the margin G(24, 4K, 0) sets.
        t = timer(env, PartialOverflow(backend(48 * KB, 12, 64, 3), fit=0.4))
        assert is_step(3.0, t.cycles(12, 4 * KB), STEP_TOL)
        with pytest.raises(ProbeError, match="inconsistent L1 result"):
            check_geometry(44 * KB, 11, 64, 3.0, t)
        check_geometry(48 * KB, 12, 64, 3.0, t)

    def test_checked_only_where_runs_are_not_exact(self, env, monkeypatch):
        # The true geometry passes the check on a backend with no least,
        # where no gap string settles on its first run.
        rep = run_l1_probe(L1Params(), env, Inexact(backend()),
                           window=WINDOW)
        assert (rep.capacity, rep.associativity, rep.linesize) \
            == (32 * KB, 8, 64)
        # A line size no cache has: reported as found where every gap string
        # settled on its first run, as on the simulator, an error elsewhere.
        monkeypatch.setattr(l1probe, "find_linesize", lambda *a: 56)
        assert run_l1_probe(L1Params(), env, backend(),
                            window=WINDOW).linesize == 56
        with pytest.raises(ProbeError, match="inconsistent L1 result"):
            run_l1_probe(L1Params(), env, Inexact(backend()),
                         window=WINDOW)
