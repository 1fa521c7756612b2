"""Tests of the benchmark's own arithmetic: expected-report derivation, span
self times and per-module metrics.

    python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

import pytest

import expect
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

README_CFG = """\
pagesize 4096
cache 32768 8 64 3      # L1
cache 524288 8 64 15
tlb 64 30
memory 100
mapping random 7
"""


def read_config(name):
    with open(os.path.join(HERE, "configs", name)) as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# Expected values
# ---------------------------------------------------------------------------

def test_parse_reads_every_directive():
    h = expect.parse(README_CFG)
    assert h.pagesize == 4096
    assert h.caches == [(32768, 8, 64, 3), (524288, 8, 64, 15)]
    assert h.tlbs == [(64, 30)]
    assert h.memory == 100


def test_parse_rejects_unknown_directive():
    with pytest.raises(ValueError):
        expect.parse("cache 32768 8 64 3\nprefetch on\n")


def test_mapping_seed_is_replaced_once():
    out = expect.with_mapping_seed(README_CFG, 42)
    assert "mapping random 42" in out and "mapping random 7" not in out
    with pytest.raises(ValueError):
        expect.with_mapping_seed("cache 32768 8 64 3\n", 1)


def test_simulate_expectation_clips_levels_to_the_sweep():
    h = expect.parse(README_CFG)
    exp = expect.expected_report(h, "simulate", ub=4 * 1024 * 1024)
    assert exp.l1 == {"capacity": 32768, "associativity": 8, "linesize": 64,
                      "latency": 3}
    assert exp.cache_levels == [(32768, 3), (524288, 15)]
    assert exp.tlb_entries == [64]
    # A sweep that stops at the L2 capacity cannot see the L2 edge.
    clipped = expect.expected_report(h, "simulate", ub=524288)
    assert clipped.cache_levels == [(32768, 3)]


def test_command_selects_the_probed_parts():
    h = expect.parse(read_config("tlb-heavy.cfg"))
    tlb = expect.expected_report(h, "tlb")
    assert tlb.l1 is None and tlb.cache_levels is None
    assert tlb.tlb_entries == [64, 1024]
    # A narrowed TLB sweep hides the 1024-entry level (4 MiB).
    assert expect.expected_report(h, "tlb", ub=4 * 1024 * 1024
                                  ).tlb_entries == [64]
    l1 = expect.expected_report(expect.parse(read_config("l1-128k8.cfg")), "l1")
    assert l1.l1 == {"capacity": 131072, "associativity": 8, "linesize": 64,
                     "latency": 5}
    assert l1.cache_levels is None and l1.tlb_entries is None


def test_every_checked_in_config_keeps_way_size_within_a_page():
    for name in os.listdir(os.path.join(HERE, "configs")):
        h = expect.parse(read_config(name))
        cap, assoc, _, _ = h.caches[0]
        assert cap // assoc <= h.pagesize, name


def _report(l1=None, caches=(), tlbs=()):
    return {"l1": l1,
            "cache_levels": [{"level": i + 1, "effective_capacity": c,
                              "latency": lat}
                             for i, (c, lat) in enumerate(caches)],
            "tlb_levels": [{"level": i + 1, "entries": e}
                           for i, e in enumerate(tlbs)]}


def test_correct_report_has_no_wrong_params():
    h = expect.parse(README_CFG)
    exp = expect.expected_report(h, "simulate", ub=4 * 1024 * 1024)
    l1 = dict(exp.l1, cost=0.1, flags=[])
    # Cache latencies may be off by one cycle.
    rep = _report(l1, [(32768, 4), (524288, 14)], [64])
    assert expect.wrong_params(rep, exp) == []


def test_wrong_params_counts_each_difference():
    h = expect.parse(README_CFG)
    exp = expect.expected_report(h, "simulate", ub=4 * 1024 * 1024)
    l1 = dict(exp.l1, associativity=16, linesize=128)
    rep = _report(l1, [(32768, 5)], [64, 1024])
    assert expect.wrong_params(rep, exp) == [
        "l1.associativity", "l1.linesize", "cache1.latency",
        "cache2.capacity", "cache2.latency", "tlb2.extra"]


def test_missing_report_parts_are_all_wrong():
    exp = expect.expected_report(expect.parse(README_CFG), "simulate",
                                 ub=4 * 1024 * 1024)
    assert len(expect.wrong_params({}, exp)) == 4 + 2 * 2 + 1


# ---------------------------------------------------------------------------
# Spans and self times
# ---------------------------------------------------------------------------

def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_direct_children_only():
    spans = [span("cli.main", 0.0, 10.0),
             span("l1probe.run_l1_probe", 1.0, 9.0, 0),
             span("timing.measure_stable", 2.0, 6.0, 1),
             span(tracer.RUN, 3.0, 5.0, 2),
             span("refstring.build_gap_string", 6.5, 7.0, 1)]
    assert tracer.self_times(spans) == pytest.approx([2.0, 3.5, 2.0, 2.0, 0.5])
    # Self times partition the root span.
    assert sum(tracer.self_times(spans)) == pytest.approx(10.0)


def test_recorder_nests_spans_and_keeps_attrs():
    ticks = iter(range(100))
    rec = tracer.Recorder(clock=lambda: float(next(ticks)))
    inner = rec.wrap("m.inner", lambda x: x * 2,
                     attrs=lambda a, kw, r: {"out": r})
    outer = rec.wrap("m.outer", lambda: inner(3) + inner(4))
    assert outer() == 14
    assert rec.spans == [("m.outer", 0.0, 5.0, -1, None),
                         ("m.inner", 1.0, 2.0, 0, {"out": 6}),
                         ("m.inner", 3.0, 4.0, 0, {"out": 8})]


def test_recorder_closes_span_on_exception():
    rec = tracer.Recorder()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        rec.wrap("m.boom", boom)()
    (name, start, end, parent, attrs), = rec.spans
    assert end >= start and parent == -1 and attrs is None
    # The stack unwound: the next span is a root again.
    rec.wrap("m.ok", lambda: None)()
    assert rec.spans[1][3] == -1


def test_concat_shifts_parents():
    a = [span("cli.main", 0, 1), span("x.f", 0, 1, 0)]
    b = [span("cli.main", 2, 3), span("x.f", 2, 3, 0)]
    assert [s[3] for s in tracer.concat([a, b])] == [-1, 0, -1, 2]


def test_layer_metrics_arithmetic():
    run = lambda s, e, p, n: span(tracer.RUN, s, e, p, {"accesses": n})
    spans = [
        span("cli.main", 0.0, 20.0),
        span("cacheprobe.run_cache_sweep", 1.0, 9.0, 0,
             {"points": 4, "knocked_out": 1, "runs": 13}),
        run(2.0, 4.0, 1, 1000),
        run(4.0, 5.0, 1, 1000),
        span("tlbprobe.run_tlb_sweep", 10.0, 12.0, 0),
        run(10.5, 11.5, 4, 500),
        span("tlbprobe.confirm_suspect", 12.0, 18.0, 0, {"confirmed": 1}),
        span("timing.measure_stable", 12.0, 18.0, 6, {"runs": 2}),
        span("refstring.build_tlb_string", 12.0, 13.0, 7, {"slots": 64}),
        run(13.0, 18.0, 7, 2500),
    ]
    m = tracer.layer_metrics(spans, window=25)
    assert m["simoracle.run_s"] == pytest.approx(9.0)
    assert m["simoracle.accesses"] == 5000
    assert m["simoracle.ns_per_access"] == pytest.approx(9.0 / 5000 * 1e9)
    assert m["simoracle.us_per_run"] == pytest.approx(9.0 / 4 * 1e6)
    assert m["refstring.slots"] == 64
    assert m["refstring.ns_per_slot"] == pytest.approx(1e9 / 64)
    assert m["timing.measurements"] == 1
    assert m["timing.runs_per_measure"] == 2
    assert m["cacheprobe.sweep_s"] == pytest.approx(8.0)
    assert m["cacheprobe.knockout_ratio"] == pytest.approx(4 * 26 / 13)
    assert m["tlbprobe.sweep_runs"] == 1
    assert m["tlbprobe.confirm_runs"] == 1
    assert m["tlbprobe.confirm_s"] == pytest.approx(6.0)
    assert m["tlbprobe.confirmed"] == 1
    assert m["cli.self_s"] == pytest.approx(20.0 - 8.0 - 2.0 - 6.0)
    assert m["cacheprobe.self_s"] == pytest.approx(8.0 - 3.0)
    assert m["timing.self_s"] == pytest.approx(0.0)
    assert sum(m["%s.self_s" % mod] for mod in tracer.MODULES) == \
        pytest.approx(20.0)


def test_knockout_ratio_without_a_sweep_is_zero():
    assert tracer.knockout_ratio(0, 0, 25) == 0.0
    assert tracer.knockout_ratio(10, 52, 25) == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# The launcher against the real program
# ---------------------------------------------------------------------------

def test_traced_launch_counts_match_spans(tmp_path):
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(README_CFG)
    record = tmp_path / "record.json"
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "launch.py"), "trace", str(record),
         "cache", "--backend", "sim:%s" % cfg, "--lb", "1024", "--ub", "8192",
         "--window", "2"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    data = json.loads(record.read_text())
    spans, counts = data["spans"], data["counts"]
    assert data["exit"] == 0
    assert spans[0][0] == "cli.main" and spans[0][3] == -1
    m = tracer.layer_metrics(spans, window=2)
    assert counts["string_runs"] == sum(s[0] == tracer.RUN for s in spans)
    assert counts["accesses"] == m["simoracle.accesses"]
    assert m["cacheprobe.points"] == counts["cache_points"] == 8
    assert m["cacheprobe.knockout_ratio"] == pytest.approx(
        tracer.knockout_ratio(counts["cache_points"], counts["cache_runs"], 2))
    # Names rebound by importing modules are traced too.
    names = {s[0] for s in spans}
    assert {"timing.run_once", "refstring.build_cache_string",
            "simoracle.load_config"} <= names
