import math

import pytest

from memhier import (CacheLevel, InvalidGeometryError, SimConfig,
                     SimulatedBackend, build_cache_string, curve_from_csv,
                     curve_to_csv)
from memhier.cacheprobe import octave_points, run_cache_sweep, sample_points
from memhier.timing import ResponseCurve, SamplePoint, run_sweep
from memhier.refstring import MAX_FOOTPRINT

from conftest import Inexact, NoRunBackend

KB = 1024
MB = 1024 * 1024


class TestSamplePoints:
    def test_1k_to_32k(self):
        assert [p // KB for p in sample_points(KB, 32 * KB)] == \
            [1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32]
        assert [p // KB for p in sample_points(3 * KB, 20 * KB)] == \
            [3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20]

    def test_sub_4k_only(self):
        assert [p // KB for p in sample_points(KB, 4 * KB)] == [1, 2, 3, 4]

    def test_default_range_has_56_points(self):
        assert len(sample_points(KB, 32 * MB)) == 56

    def test_invalid_range(self):
        with pytest.raises(InvalidGeometryError):
            sample_points(8 * KB, 4 * KB)

    def test_fewer_than_three_points_rejected(self):
        for lb, ub in ((3 * KB, 4 * KB), (4 * KB, 5 * KB)):
            with pytest.raises(InvalidGeometryError, match="holds 2 sample"):
                sample_points(lb, ub)
        assert sample_points(2 * KB, 4 * KB) == [2 * KB, 3 * KB, 4 * KB]

    @pytest.mark.parametrize("ub", [5000000, MAX_FOOTPRINT + KB],
                             ids=["not-1KB-multiple", "over-allocation-limit"])
    def test_bad_ub_rejected_before_any_run(self, env, ub):
        with pytest.raises(InvalidGeometryError):
            run_cache_sweep(sample_points(KB, ub), env, NoRunBackend())

    def test_ub_at_allocation_limit(self):
        assert sample_points(KB, MAX_FOOTPRINT)[-1] == MAX_FOOTPRINT

    def test_octave_points_from_four(self):
        assert octave_points(4, 64) == [4, 5, 6, 7, 8, 10, 12, 14, 16,
                                        20, 24, 28, 32, 40, 48, 56, 64]


def flat_backend(latency=5):
    cfg = SimConfig(cache_levels=[CacheLevel(64 * MB, 16, 64, latency)],
                    memory_latency=latency + 50)
    return SimulatedBackend(cfg)


def stepped_backend():
    cfg = SimConfig(cache_levels=[CacheLevel(32 * KB, 8, 64, 3),
                                  CacheLevel(512 * KB, 8, 64, 15)],
                    memory_latency=100)
    return SimulatedBackend(cfg)


class TestSweep:
    def test_flat_hierarchy_knocks_out_all_but_bottom(self, env):
        # The first pass measures every point once and knocks out all but
        # the bottom one, the top point included; only the bottom point then
        # runs its stability window.  Every point reads the simulator's
        # floor, so the backend runs without it.
        pts = sample_points(KB, 64 * KB)
        curve = run_cache_sweep(pts, env, Inexact(flat_backend()), window=3,
                                seed=1)
        assert not curve.points[0].knocked_out
        assert all(p.knocked_out for p in curve.points[1:])
        assert curve.total_string_runs == len(pts) + 3
        assert curve.revivals == 0
        assert all(v == 5.0 for v in curve.values())

    def test_flat_hierarchy_at_the_floor_runs_each_point_once(self, env):
        # The bottom point reads the floor on its first run, so it is stable
        # at once and the first pass is the whole sweep.
        pts = sample_points(KB, 64 * KB)
        curve = run_cache_sweep(pts, env, flat_backend(), window=3, seed=1)
        assert not curve.points[0].knocked_out
        assert all(p.knocked_out for p in curve.points[1:])
        assert curve.total_string_runs == len(pts)
        assert all(v == 5.0 for v in curve.values())

    def test_stepped_curve_values(self, env):
        pts = sample_points(KB, MB)
        curve = run_cache_sweep(pts, env, stepped_backend(), window=3, seed=1)
        for p, v in zip(curve.points, curve.values()):
            if p.footprint <= 32 * KB:
                assert v == 3.0
            elif p.footprint > 640 * KB:
                assert v == 100.0

    def test_knockout_reduces_runs(self, env):
        # Without its floor and seed-free kinds the simulator runs every
        # active point its full window.
        pts = sample_points(KB, MB)
        with_ko = run_cache_sweep(pts, env, Inexact(stepped_backend()),
                                  window=5, seed=1)
        without = run_cache_sweep(pts, env, Inexact(stepped_backend()),
                                  window=5, seed=1, knockout=False)
        assert with_ko.total_string_runs < without.total_string_runs

    def test_curve_nondecreasing_on_simulator(self, env):
        pts = sample_points(KB, MB)
        curve = run_cache_sweep(pts, env, stepped_backend(), window=3, seed=2)
        vals = curve.values()
        assert all(b >= a - 0.25 for a, b in zip(vals, vals[1:]))

    def test_all_points_stable_or_knocked_out(self, env):
        pts = sample_points(KB, 128 * KB)
        curve = run_cache_sweep(pts, env, stepped_backend(), window=4, seed=3)
        for p in curve.points:
            assert p.knocked_out or p.runs_since_min >= 4


class TestRevival:
    def test_early_noise_everywhere_is_healed_by_revival(self, env):
        # Every point reads 1 cycle high during the first pass, so every
        # point above the bottom one, the top included, is knocked out at
        # the wrong value.  Only the bottom point is measured again: its new
        # minimum in the second pass revives its neighbor, and the revivals
        # cascade upwards until the entire curve has converged.
        inner = flat_backend(latency=5)
        npts = len(sample_points(KB, 16 * KB))

        class EarlyNoise:
            def __init__(self):
                self.runs = 0

            def run(self, rs, loads):
                cycles = inner.run(rs, loads)
                self.runs += 1
                if self.runs <= npts:
                    return cycles + 1.0
                return cycles

        pts = sample_points(KB, 16 * KB)
        curve = run_sweep(
            pts,
            lambda fp, s: build_cache_string(fp, env, s),
            EarlyNoise(), window=6)
        assert all(v == 5.0 for v in curve.values())
        assert all(p.min_cycles == 5.0 for p in curve.points)

    def test_top_point_revived_by_its_neighbor(self, env):
        # In the first pass the top two points read 1 cycle high: the top
        # point matches its neighbor and is knocked out at 6, and the
        # neighbor, a step above the point below it, stays active.  Its
        # minimum of 5 in the second pass must revive the top point.
        inner = flat_backend(latency=5)
        pts = sample_points(KB, 16 * KB)
        top_two = set(pts[-2:])

        class EarlyNoiseAtTop:
            def __init__(self):
                self.runs = 0

            def run(self, rs, loads):
                self.runs += 1
                cycles = inner.run(rs, loads)
                if self.runs <= len(pts) and rs.footprint in top_two:
                    return cycles + 1.0
                return cycles

        backend = EarlyNoiseAtTop()
        curve = run_sweep(pts, lambda fp, s: build_cache_string(fp, env, s),
                          backend, window=3)
        assert curve.revivals == 1
        assert curve.points[-1].min_cycles == 5.0
        assert all(v == 5.0 for v in curve.values())


class TestCurveCsv:
    def test_roundtrip(self):
        curve = ResponseCurve(points=[
            SamplePoint(footprint=KB, min_cycles=3.0),
            SamplePoint(footprint=2 * KB, min_cycles=3.0, knocked_out=True),
            SamplePoint(footprint=4 * KB, min_cycles=15.5),
        ])
        text = curve_to_csv(curve)
        assert text.splitlines()[0] == "footprint_bytes,cycles_per_access,knocked_out"
        back = curve_from_csv(text)
        assert [p.footprint for p in back.points] == [KB, 2 * KB, 4 * KB]
        assert back.points[1].knocked_out
        assert back.points[2].min_cycles == pytest.approx(15.5)

    def test_unmeasured_point_roundtrips_as_nan(self):
        curve = ResponseCurve(points=[SamplePoint(footprint=KB)])
        back = curve_from_csv(curve_to_csv(curve))
        assert math.isinf(back.points[0].min_cycles)
