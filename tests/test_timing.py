import shutil

import pytest

from conftest import CountingBackend, Inexact, JitterBackend
from memhier import (BudgetExceededError, CacheLevel, RealMemoryBackend,
                     SimConfig, SimulatedBackend, TlbLevel,
                     build_cache_string, build_gap_string, build_tlb_string,
                     measure_stable, run_once, simulate)
from memhier.refstring import CacheKind
from memhier.timing import (DEFAULT_RUN_CAP, JUMP, RISE, STEP_TOL, is_step,
                            run_sweep)

KB = 1024


def sim_backend(l1_latency=3):
    cfg = SimConfig(cache_levels=[CacheLevel(32 * KB, 8, 64, l1_latency),
                                  CacheLevel(4096 * KB, 16, 64, 15)],
                    memory_latency=100)
    return SimulatedBackend(cfg)


class EverImproving:
    """A backend whose every run sets a new minimum."""

    def __init__(self):
        self.runs = 0

    def run(self, rs, loads):
        self.runs += 1
        return 1e9 - self.runs


class TestCalibration:
    def test_simulator_calibration_is_identity(self, env):
        # The simulator counts cycles natively: a run returns the simulated
        # cycles per access exactly, with no conversion.
        hierarchies = [
            sim_backend().config,
            SimConfig(cache_levels=[CacheLevel(4 * KB, 1, 32, 2)],
                      tlb_levels=[TlbLevel(8, 20), TlbLevel(64, 50)],
                      memory_latency=70, mapping_seed=5),
            SimConfig(cache_levels=[CacheLevel(8 * KB, 2, 64, 1),
                                    CacheLevel(64 * KB, 4, 128, 9),
                                    CacheLevel(512 * KB, 8, 64, 23)],
                      tlb_levels=[TlbLevel(16, 7)], memory_latency=101),
        ]
        strings = [build_gap_string(9, 4 * KB, 64, env),
                   build_gap_string(17, 2 * KB, 0, env),
                   build_cache_string(24 * KB, env, seed=3),
                   build_cache_string(160 * KB, env, seed=4),
                   build_tlb_string(1, 96 * 4096, env, seed=5),
                   build_tlb_string(3, 40 * 4096, env, seed=6)]
        for cfg in hierarchies:
            be = SimulatedBackend(cfg)
            for rs in strings:
                assert be.run(rs, 2 * rs.chain_length) == simulate(cfg, rs, 2)
                assert run_once(rs, be) == simulate(cfg, rs, 2)

    def test_real_calibration_sanity(self, env):
        if shutil.which("cc") is None:
            pytest.skip("the real backend needs a C compiler 'cc'")
        be = RealMemoryBackend()
        assert 0 < be.seconds_per_cycle < 1e-6
        assert be.timer_resolution <= 1e-3
        assert be.loads_per_run >= 2

    def test_real_calibration_near_clock(self, env):
        if shutil.which("cc") is None:
            pytest.skip("the real backend needs a C compiler 'cc'")
        nominal = host_ghz()
        if nominal is None:
            pytest.skip("neither cpufreq nor /proc/cpuinfo gives a clock")
        be = RealMemoryBackend()
        # Loose on purpose: this catches unit mistakes, not turbo or the
        # exact cost of one add.
        assert 0.4 * nominal < 1e-9 / be.seconds_per_cycle < 2.0 * nominal


def host_ghz():
    """The host's clock in GHz: cpufreq's maximum, else /proc/cpuinfo's
    ``cpu MHz``; None when neither is readable."""
    try:
        with open("/sys/devices/system/cpu/cpu0/cpufreq/"
                  "cpuinfo_max_freq") as fh:
            return int(fh.read()) / 1e6
    except (OSError, ValueError):
        pass
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("cpu MHz"):
                    return float(line.split(":", 1)[1]) / 1e3
    except (OSError, ValueError):
        pass
    return None


class TestIsStep:
    def test_exact_margin_is_not_a_step(self):
        assert not is_step(3.0, 3.0 + STEP_TOL, STEP_TOL)
        assert is_step(3.0, 3.0 + STEP_TOL + 1e-9, STEP_TOL)
        assert not is_step(3.0, 4.0, *RISE)
        assert is_step(3.0, 4.0 + 1e-9, *RISE)
        assert not is_step(3.0, 3.5, *JUMP)
        assert is_step(3.0, 3.5 + 1e-9, *JUMP)

    def test_rel_tol_sets_margin_above_crossover(self):
        # RISE crosses over at 1.0 / 0.15 cycles, JUMP at 0.5 / 0.10.
        assert not is_step(20.0, 23.0, *RISE)
        assert is_step(20.0, 23.0 + 1e-9, *RISE)
        assert not is_step(10.0, 11.0, *JUMP)
        assert is_step(10.0, 11.0 + 1e-9, *JUMP)


class TestRunOnce:
    def test_minimal_gap_is_l1_latency(self, env):
        rs = build_gap_string(2, 512, 0, env)
        assert run_once(rs, sim_backend()) == 3.0

    def test_cache_string_at_capacity(self, env):
        rs = build_cache_string(32 * KB, env, seed=3)
        assert run_once(rs, sim_backend()) == 3.0

    def test_overflowing_gap_exceeds_baseline(self, env):
        rs = build_gap_string(33, 1024, 0, env)
        t = run_once(rs, sim_backend())
        # Set 0 cycles 9 lines through 8 ways, so all 9 of its accesses miss.
        assert t == pytest.approx((24 * 3 + 9 * 15) / 33)

    def test_reproducible_on_simulator(self, env):
        rs = build_cache_string(48 * KB, env, seed=3)
        be = sim_backend()
        assert run_once(rs, be) == run_once(rs, be)

    def test_never_below_smallest_latency(self, env):
        be = sim_backend()
        for seed in range(5):
            rs = build_cache_string(16 * KB, env, seed=seed)
            assert run_once(rs, be) >= 3.0


class TestMeasureStable:
    def factory(self, env, seed_box):
        def build():
            seed_box[0] += 1
            return build_cache_string(16 * KB, env, seed_box[0])
        return build

    def test_deterministic_backend_stops_after_window_plus_one(self, env):
        # 16 KB cache strings fit the L1 and read its latency, the
        # simulator's floor; without the floor each seed-varying string
        # runs its full window.
        for window in (1, 5, 25):
            m = measure_stable(self.factory(env, [0]), Inexact(sim_backend()),
                               window=window)
            assert m.runs_taken == window + 1
            assert m.min_cycles_per_access == 3.0

    def test_string_at_the_floor_takes_one_run(self, env):
        be = sim_backend()
        assert be.least(CacheKind(16 * KB, 64, 4096)) == 3
        for window in (1, 5, 25):
            m = measure_stable(self.factory(env, [0]), be, window=window)
            assert m.runs_taken == 1
            assert m.min_cycles_per_access == 3.0

    def test_exact_backend_measures_repeated_string_once(self, env):
        # Gap strings have one fixed seed, so the factory repeats the string
        # it just measured; on the simulator its run reads its kind's least.
        def gap():
            return build_gap_string(33, 1024, 0, env)

        be = sim_backend()
        once = measure_stable(gap, be, window=25)
        full = measure_stable(gap, Inexact(be), window=25)
        assert once.runs_taken == 1
        assert full.runs_taken == 26
        assert once.min_cycles_per_access == full.min_cycles_per_access
        assert once.min_cycles_per_access == pytest.approx((24 * 3 + 9 * 15)
                                                           / 33)

    def test_noisy_backend_repeats_a_fixed_string(self, env):
        noisy = JitterBackend(sim_backend(), seed=5)
        for window in (1, 5, 25):
            m = measure_stable(lambda: build_gap_string(9, 4 * KB, 0, env),
                               noisy, window=window)
            assert m.runs_taken >= window + 1
            assert m.min_cycles_per_access >= 3.0

    def test_budget_exceeded(self, env):
        be = EverImproving()
        with pytest.raises(BudgetExceededError):
            measure_stable(self.factory(env, [0]), be, window=5)
        assert be.runs == DEFAULT_RUN_CAP + 1

    def test_minimum_filters_positive_jitter(self, env):
        noisy = JitterBackend(sim_backend(), seed=123, zero_prob=0.4, scale=2.0)
        m = measure_stable(self.factory(env, [0]), noisy, window=25)
        assert m.runs_taken <= 500
        assert m.min_cycles_per_access == pytest.approx(3.0, abs=0.25)

    def test_jitter_never_lowers_minimum(self, env):
        clean = measure_stable(self.factory(env, [0]), sim_backend(),
                               window=10)
        noisy_be = JitterBackend(sim_backend(), seed=7)
        noisy = measure_stable(self.factory(env, [100]), noisy_be, window=10)
        assert noisy.runs_taken <= 500
        assert noisy.min_cycles_per_access >= clean.min_cycles_per_access


class TestRunSweep:
    @pytest.mark.parametrize("seed", [0, 40])
    def test_build_takes_seed_plus_one_onward_in_run_order(self, env, seed):
        built, ran = [], []
        sim = sim_backend()

        def build(fp, s):
            built.append(s)
            return build_cache_string(fp, env, s)

        class Recording:
            def run(self, rs, loads):
                ran.append(rs.seed)
                return sim.run(rs, loads)

        curve = run_sweep([4 * KB, 64 * KB, 1024 * KB], build, Recording(),
                          window=3, seed=seed)
        assert ran == built == list(range(seed + 1, seed + 1
                                          + curve.total_string_runs))

    def test_exact_backend_measures_each_repeated_string_once(self, env):
        # Each point's gap string repeats, so on the simulator one run per
        # point is the whole sweep.  G(9, 4K, 0) and G(17, 4K, 0) overflow
        # the one set they use and read memory's latency, so the top point
        # is knocked out against its neighbor.
        be = SimulatedBackend(SimConfig(
            cache_levels=[CacheLevel(32 * KB, 8, 64, 3)], memory_latency=100))

        def sweep(be):
            return run_sweep([2, 9, 17],
                             lambda n, _: build_gap_string(n, 4 * KB, 0, env),
                             be, window=5)

        once = sweep(be)
        assert once.total_string_runs == 3
        assert once.values() == [3.0, 100.0, 100.0]
        # Without the backend's least, the bottom two points each run their
        # full window and the knocked-out top point stops.
        full = sweep(Inexact(be))
        assert full.total_string_runs == 3 + 2 * 5
        assert full.values() == once.values()

    def test_gap_point_on_an_exact_backend_takes_one_run(self, env):
        # G(9, 4K, 0) overflows its one set and reads the L2's 15 cycles,
        # above the floor.  Its run records that read as the kind's least,
        # so the point is stable after one run.
        def build(n, _seed):
            return build_gap_string(n, 4 * KB, 0, env)

        be = CountingBackend(sim_backend())
        once = run_sweep([9], build, be, window=25)
        assert once.values() == [15.0]
        assert once.total_string_runs == be.runs == 1
        # Without the backend's least, the point runs its full window.
        full = run_sweep([9], build, Inexact(sim_backend()), window=25)
        assert full.total_string_runs == 26

    def test_points_at_the_floor_take_one_run(self, env):
        # Seed-varying cache strings: the two that fit the L1 read the
        # floor after one run.  The 66 KB point above it ends in a part
        # page, so its kind is not seed-free, and it runs its window.
        def sweep(be):
            return run_sweep([8 * KB, 16 * KB, 66 * KB],
                             lambda fp, s: build_cache_string(fp, env, s),
                             be, window=5)

        at_floor = sweep(sim_backend())
        assert at_floor.values()[:2] == [3.0, 3.0]
        assert at_floor.values()[2] > 3.0
        assert at_floor.total_string_runs == 3 + 5
        # Without the floor every point runs its window: the 16 KB point
        # is a step below its upper neighbor, so it is not knocked out.
        full = sweep(Inexact(sim_backend()))
        assert full.total_string_runs == 3 + 3 * 5
        assert full.values() == at_floor.values()

    def test_revived_point_at_the_floor_does_not_run_again(self):
        # Footprints 1, 2, 3 on a backend where every kind's least is 3.
        # The bottom point reads 3.2 on its first run and 3 after that; the
        # others always read 3.  The first pass knocks out 2 and 3; the
        # bottom point's new minimum revives 2, which is already at its
        # least, so it stays stable: only the bottom point runs a second
        # time, and the pass's knockout takes 2 out again.
        class Floored:
            def __init__(self):
                self.runs = []

            def least(self, kind):
                return 3.0

            def run(self, rs, loads):
                self.runs.append(rs.footprint)
                first = rs.footprint == 1 and len(self.runs) == 1
                return 3.2 if first else 3.0

        class Stub:
            chain_length = 2
            kind = None

            def __init__(self, fp):
                self.footprint = fp

        be = Floored()
        curve = run_sweep([1, 2, 3], lambda fp, _: Stub(fp), be, window=25)
        assert be.runs == [1, 2, 3, 1]
        assert curve.revivals == 1
        assert curve.values() == [3.0, 3.0, 3.0]

    @pytest.mark.parametrize("seed_free, runs", [
        ({2, 3}, [1, 2, 3, 1, 1, 1, 1]),
        (set(), [1, 2, 3, 1, 2, 1, 1, 1]),
    ], ids=["seed-free", "seed-varying"])
    def test_seed_free_point_takes_one_run(self, seed_free, runs):
        # Footprints 1, 2, 3, whose strings are of kinds 1, 2, 3.  The
        # bottom point reads 5.2 on its first run and 5 after that; the
        # others always read 5.  The first pass knocks out 2 and 3; the
        # bottom point's new minimum revives 2.  Where kinds 2 and 3 are
        # seed-free, their least is the 5 they read, so each is stable after
        # its first run and 2 does not run after its revival: only the
        # bottom point runs again.  Otherwise 2 runs once more before the
        # pass's knockout takes it out again.
        class SeedFree:
            def __init__(self):
                self.runs = []

            def least(self, kind):
                return 5.0 if kind in seed_free else 0.0

            def run(self, rs, loads):
                self.runs.append(rs.footprint)
                first = rs.footprint == 1 and len(self.runs) == 1
                return 5.2 if first else 5.0

        class Stub:
            chain_length = 2

            def __init__(self, fp):
                self.footprint = self.kind = fp

        be = SeedFree()
        curve = run_sweep([1, 2, 3], lambda fp, _: Stub(fp), be, window=3)
        assert be.runs == runs
        assert curve.revivals == 1
        assert curve.values() == [5.0, 5.0, 5.0]

    def test_window_below_one_is_rejected(self, env):
        with pytest.raises(ValueError):
            run_sweep([KB], lambda fp, _: build_cache_string(fp, env, 1),
                      sim_backend(), window=0)

    def test_budget_exceeded(self, env):
        # Every run is a new minimum and neighbors differ by a whole cycle,
        # so no point is stable or knocked out: the sweep stops at the end
        # of the first pass past its budget of DEFAULT_RUN_CAP per point.
        be = EverImproving()
        with pytest.raises(BudgetExceededError) as exc:
            run_sweep([KB, 2 * KB, 4 * KB],
                      lambda fp, s: build_cache_string(fp, env, s),
                      be, window=5)
        assert be.runs == 3 * DEFAULT_RUN_CAP + 3
        assert "cache" not in str(exc.value)
