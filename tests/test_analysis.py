import os
import statistics
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memhier
from memhier import (CacheLevel, DegenerateCurveError, MachineEnv, SimConfig,
                     SimulatedBackend)
from memhier.analysis import (_median, assemble_report, detect_transitions,
                              level_dicts)
from memhier.cacheprobe import (ResponseCurve, SamplePoint, run_cache_sweep,
                                sample_points)
from memhier.l1probe import L1Report
from memhier.tlbprobe import TlbSuspect, find_suspects

KB = 1024
MB = 1024 * 1024


def curve_of(pairs):
    return ResponseCurve(points=[SamplePoint(footprint=f, min_cycles=v)
                                 for f, v in pairs])


def staircase(levels, footprints):
    # levels: [(capacity, latency), ...] ending with (None, memory_latency)
    pairs = []
    for f in footprints:
        for cap, lat in levels:
            if cap is None or f <= cap:
                pairs.append((f, float(lat)))
                break
    return curve_of(pairs)


class TestDetectTransitions:
    def test_flat_curve_has_none(self):
        c = curve_of([(KB, 3.0), (2 * KB, 3.0), (4 * KB, 3.0), (8 * KB, 3.0)])
        assert detect_transitions(c) == []

    def test_two_level_staircase_exact(self):
        fps = sample_points(KB, 4 * MB)
        c = staircase([(32 * KB, 3), (512 * KB, 15), (None, 100)], fps)
        assert detect_transitions(c) == [(32 * KB, 3), (512 * KB, 15)]

    def test_needs_three_measured_points(self):
        with pytest.raises(DegenerateCurveError):
            detect_transitions(curve_of([(KB, 3.0), (2 * KB, 3.0)]))
        with pytest.raises(DegenerateCurveError):
            detect_transitions(ResponseCurve(points=[
                SamplePoint(footprint=KB, min_cycles=3.0),
                SamplePoint(footprint=2 * KB),
                SamplePoint(footprint=4 * KB)]))

    def test_transient_spike_is_absorbed(self):
        # A one-point spike that returns to the plateau is noise, not a level.
        c = curve_of([(KB, 3.0), (2 * KB, 3.0), (4 * KB, 9.0), (8 * KB, 3.1),
                      (16 * KB, 3.0), (32 * KB, 3.0)])
        assert detect_transitions(c) == []

    def test_sub_threshold_drift_ignored(self):
        c = curve_of([(KB, 3.0), (2 * KB, 3.2), (4 * KB, 3.4), (8 * KB, 3.6)])
        assert detect_transitions(c) == []

    def test_rise_of_exactly_the_margin_is_no_transition(self):
        c = curve_of([(KB, 3.0), (2 * KB, 3.0), (3 * KB, 3.0), (4 * KB, 4.0),
                      (5 * KB, 4.0), (6 * KB, 4.0)])
        assert detect_transitions(c) == []

    def test_latency_rounds_to_whole_cycles(self):
        c = curve_of([(KB, 3.4), (2 * KB, 3.1), (4 * KB, 3.3),
                      (8 * KB, 40.0), (16 * KB, 40.0), (32 * KB, 40.0)])
        assert detect_transitions(c) == [(4 * KB, 3)]

    def test_idempotent(self):
        fps = sample_points(KB, MB)
        c = staircase([(32 * KB, 3), (None, 90)], fps)
        assert detect_transitions(c) == detect_transitions(c)

    def test_transition_footprints_scale_with_geometry(self):
        # The same staircase shape at doubled capacities must move both
        # transitions, not just rescale latencies.
        fps = sample_points(KB, 8 * MB)
        a = staircase([(32 * KB, 3), (512 * KB, 15), (None, 100)], fps)
        b = staircase([(64 * KB, 3), (MB, 15), (None, 100)], fps)
        assert [c for c, _ in detect_transitions(b)] == \
            [2 * c for c, _ in detect_transitions(a)]

    def test_knocked_out_points_inherit_plateau(self, env):
        cfg = SimConfig(cache_levels=[CacheLevel(32 * KB, 8, 64, 3),
                                      CacheLevel(512 * KB, 8, 64, 15)],
                        memory_latency=100)
        curve = run_cache_sweep(sample_points(KB, 2 * MB), env,
                                SimulatedBackend(cfg), window=3, seed=4)
        assert detect_transitions(curve) == [(32 * KB, 3), (512 * KB, 15)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False)
                | st.integers(-10**6, 10**6), min_size=1, max_size=40))
def test_median_is_statistics_median(values):
    assert _median(values) == statistics.median(values)


def test_cli_does_not_import_statistics():
    code = "import sys, memhier.cli; print('statistics' in sys.modules)"
    src = os.path.dirname(os.path.dirname(memhier.__file__))
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "False"


class TestAssembleReport:
    def l1(self, associativity=8, string_runs=0):
        return L1Report(capacity=32 * KB, associativity=associativity,
                        linesize=64, latency=3, string_runs=string_runs)

    def tlb(self):
        """A T(1,k) curve of 3 runs, 1 point knocked out and 1 revival, and
        one suspect whose confirmation ran 28 strings."""
        curve = ResponseCurve(points=[
            SamplePoint(64 * 4096, 3.0), SamplePoint(72 * 4096, 3.0, 0, True),
            SamplePoint(80 * 4096, 15.0)], total_string_runs=3, revivals=1)
        suspect = TlbSuspect(80 * 4096, 64 * 4096, True, [2, 3, 4],
                             [(2, 3.0, 15.5), (3, 3.0, 12.75),
                              (4, 3.0, 11.25)], 28)
        return [64], [suspect], curve

    def test_json_shape(self, env):
        fps = sample_points(KB, MB)
        curve = staircase([(32 * KB, 3), (None, 90)], fps)
        d = assemble_report(env, self.l1(), curve, self.tlb(),
                            costs={"l1_seconds": 0.1},
                            parameters={"window": 25})
        # Ordered key lists pin the order the report prints in.
        assert list(d) == ["machine", "l1", "cache_levels", "tlb_levels",
                           "tlb_suspects", "costs", "probes", "parameters",
                           "warnings"]
        assert list(d["machine"]) == ["pagesize", "word", "l1_linesize"]
        assert list(d["l1"]) == ["capacity", "linesize", "associativity",
                                 "latency", "flags"]
        assert [list(lv) for lv in d["cache_levels"]] == \
            [["level", "effective_capacity", "latency"]]
        assert [list(lv) for lv in d["tlb_levels"]] == \
            [["level", "capacity", "entries"]]
        assert [list(s) for s in d["tlb_suspects"]] == \
            [["footprint", "boundary", "confirming_n", "confirmed",
              "measured", "string_runs"]]
        assert [list(m) for m in d["tlb_suspects"][0]["measured"]] == \
            [["n", "before", "after"]] * 3
        assert list(d["probes"]) == ["l1", "cache", "tlb"]
        assert [list(p) for p in d["probes"].values()] == \
            [["string_runs"]] + [["string_runs", "knocked_out", "revivals"]] * 2
        assert d["tlb_suspects"] == [
            {"footprint": 80 * 4096, "boundary": 64 * 4096,
             "confirming_n": [2, 3, 4], "confirmed": True,
             "measured": [{"n": 2, "before": 3.0, "after": 15.5},
                          {"n": 3, "before": 3.0, "after": 12.75},
                          {"n": 4, "before": 3.0, "after": 11.25}],
             "string_runs": 28}]
        assert d["machine"] == {"pagesize": env.pagesize, "word": env.word,
                                "l1_linesize": env.l1_linesize}
        assert d["l1"] == {"capacity": 32 * KB, "linesize": 64,
                           "associativity": 8, "latency": 3, "flags": []}
        assert d["cache_levels"] == [
            {"level": 1, "effective_capacity": 32 * KB, "latency": 3}]
        assert d["tlb_levels"] == [
            {"level": 1, "capacity": 64 * 4096, "entries": 64}]
        assert d["costs"] == {"l1_seconds": 0.1}
        assert d["parameters"] == {"window": 25}
        assert d["warnings"] == []

    def test_probes_are_derived_from_the_results(self, env):
        curve = ResponseCurve(points=[
            SamplePoint(KB, 3.0), SamplePoint(2 * KB, 3.0, 0, True),
            SamplePoint(4 * KB, 3.0, 0, True), SamplePoint(8 * KB, 3.0)],
            total_string_runs=11, revivals=2)
        d = assemble_report(env, self.l1(string_runs=21), curve, self.tlb())
        # TLB string runs are the T(1,k) sweep's 3 plus confirmation's 28;
        # knocked_out and revivals are the sweep's alone.
        assert d["probes"] == {
            "l1": {"string_runs": 21},
            "cache": {"string_runs": 11, "knocked_out": 2, "revivals": 2},
            "tlb": {"string_runs": 3 + 28, "knocked_out": 1, "revivals": 1}}

    def test_tlb_levels_number_entry_counts(self):
        env = MachineEnv(pagesize=16 * KB)
        _, suspects, curve = self.tlb()
        d = assemble_report(env, None, None, ([16, 256], suspects, curve))
        assert d["tlb_levels"] == [
            {"level": 1, "capacity": 16 * 16 * KB, "entries": 16},
            {"level": 2, "capacity": 256 * 16 * KB, "entries": 256}]

    def test_direct_mapped_flagged(self, env):
        d = assemble_report(env, self.l1(associativity=1), None, None)
        assert d["l1"]["flags"] == ["direct-mapped"]
        assert assemble_report(env, self.l1(), None, None)["l1"]["flags"] \
            == []

    def test_l1_cache_level_disagreement_warns(self, env):
        fps = sample_points(KB, MB)
        curve = staircase([(16 * KB, 3), (None, 90)], fps)
        d = assemble_report(env, self.l1(), curve, None)
        assert any("disagrees" in w for w in d["warnings"])

    def test_excess_levels_capped_and_flagged(self, env):
        fps = sample_points(KB, 8 * MB)
        curve = staircase([(4 * KB, 3), (16 * KB, 8), (64 * KB, 16),
                           (256 * KB, 32), (MB, 64), (None, 200)], fps)
        d = assemble_report(env, None, curve, None)
        assert len(d["cache_levels"]) == 4
        assert any("review" in w for w in d["warnings"])

    def test_report_without_optional_parts(self, env):
        d = assemble_report(env, None, None, None)
        assert d["cache_levels"] == []
        assert d["tlb_levels"] == []
        assert d["tlb_suspects"] == []
        assert d["l1"] is None
        assert d["probes"] == {}
        assert d["costs"] == {} and d["parameters"] == {}


class TestLevelDicts:
    def test_indices_start_at_one(self):
        fps = sample_points(KB, 4 * MB)
        curve = staircase([(32 * KB, 3), (512 * KB, 15), (None, 100)], fps)
        assert level_dicts(curve) == [
            {"level": 1, "effective_capacity": 32 * KB, "latency": 3},
            {"level": 2, "effective_capacity": 512 * KB, "latency": 15}]


class TestFindSuspects:
    def test_jump_of_exactly_the_margin_is_no_suspect(self):
        c = curve_of([(KB, 3.0), (2 * KB, 3.0), (3 * KB, 3.5), (4 * KB, 3.5)])
        assert find_suspects(c) == []
