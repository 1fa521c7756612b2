import shutil

import pytest

from memhier import (BudgetExceededError, CacheLevel, JitterBackend,
                     MachineEnv, RealMemoryBackend, SimConfig,
                     SimulatedBackend, build_cache_string, build_gap_string,
                     calibrate, measure_stable, run_once)
from memhier.timing import (IDENTITY_CALIBRATION, JUMP, RISE, STEP_TOL,
                            is_step)

KB = 1024


def sim_backend(l1_latency=3):
    cfg = SimConfig(cache_levels=[CacheLevel(32 * KB, 8, 64, l1_latency),
                                  CacheLevel(4096 * KB, 16, 64, 15)],
                    memory_latency=100)
    return SimulatedBackend(cfg)


class TestCalibration:
    def test_simulator_calibration_is_identity(self, env):
        cal = calibrate(env, sim_backend())
        assert cal.seconds_per_cycle == 1.0
        assert cal.loads_per_run == 0

    def test_real_calibration_sanity(self, env):
        if shutil.which("cc") is None:
            pytest.skip("the real backend needs a C compiler 'cc'")
        cal = calibrate(env, RealMemoryBackend())
        assert 0 < cal.seconds_per_cycle < 1e-6
        assert cal.timer_resolution <= 1e-3
        assert cal.loads_per_run >= 2

    def test_real_calibration_near_clock(self, env):
        if shutil.which("cc") is None:
            pytest.skip("the real backend needs a C compiler 'cc'")
        nominal = host_ghz()
        if nominal is None:
            pytest.skip("neither cpufreq nor /proc/cpuinfo gives a clock")
        cal = calibrate(env, RealMemoryBackend())
        # Loose on purpose: this catches unit mistakes, not turbo or the
        # exact cost of one add.
        assert 0.4 * nominal < 1e-9 / cal.seconds_per_cycle < 2.0 * nominal


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
        assert run_once(rs, IDENTITY_CALIBRATION, sim_backend()) == 3.0

    def test_cache_string_at_capacity(self, env):
        rs = build_cache_string(32 * KB, env, seed=3)
        assert run_once(rs, IDENTITY_CALIBRATION, sim_backend()) == 3.0

    def test_overflowing_gap_exceeds_baseline(self, env):
        rs = build_gap_string(33, 1024, 0, env)
        t = run_once(rs, IDENTITY_CALIBRATION, sim_backend())
        # Set 0 cycles 9 lines through 8 ways, so all 9 of its accesses miss.
        assert t == pytest.approx((24 * 3 + 9 * 15) / 33)

    def test_reproducible_on_simulator(self, env):
        rs = build_cache_string(48 * KB, env, seed=3)
        be = sim_backend()
        assert run_once(rs, IDENTITY_CALIBRATION, be) == \
            run_once(rs, IDENTITY_CALIBRATION, be)

    def test_never_below_smallest_latency(self, env):
        be = sim_backend()
        for seed in range(5):
            rs = build_cache_string(16 * KB, env, seed=seed)
            assert run_once(rs, IDENTITY_CALIBRATION, be) >= 3.0


class TestMeasureStable:
    def factory(self, env, seed_box):
        def build():
            seed_box[0] += 1
            return build_cache_string(16 * KB, env, seed_box[0])
        return build

    def test_deterministic_backend_stops_after_window_plus_one(self, env):
        for window in (1, 5, 25):
            m = measure_stable(self.factory(env, [0]), IDENTITY_CALIBRATION,
                               sim_backend(), window=window)
            assert m.runs_taken == window + 1
            assert m.min_cycles_per_access == 3.0

    def test_budget_exceeded(self, env):
        class EverImproving:
            deterministic = False

            def __init__(self):
                self.t = 1e9

            def run(self, rs, loads):
                self.t -= 1
                return self.t * loads, loads

        with pytest.raises(BudgetExceededError):
            measure_stable(self.factory(env, [0]), IDENTITY_CALIBRATION,
                           EverImproving(), window=5, run_cap=50)

    def test_minimum_filters_positive_jitter(self, env):
        noisy = JitterBackend(sim_backend(), seed=123, zero_prob=0.4, scale=2.0)
        m = measure_stable(self.factory(env, [0]), IDENTITY_CALIBRATION,
                           noisy, window=25, run_cap=500)
        assert m.min_cycles_per_access == pytest.approx(3.0, abs=0.25)

    def test_jitter_never_lowers_minimum(self, env):
        clean = measure_stable(self.factory(env, [0]), IDENTITY_CALIBRATION,
                               sim_backend(), window=10)
        noisy_be = JitterBackend(sim_backend(), seed=7)
        noisy = measure_stable(self.factory(env, [100]), IDENTITY_CALIBRATION,
                               noisy_be, window=10, run_cap=500)
        assert noisy.min_cycles_per_access >= clean.min_cycles_per_access
