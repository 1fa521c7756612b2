"""The names the benchmark's tracer reads from memhier.

``perfbench/tracer.py`` wraps memhier's public functions by name and derives
its per-layer metrics from the spans of those names.  A function renamed or
moved out of its module leaves those metrics at 0 without any error, so this
test runs one traced ``memhier simulate`` and checks that every name is
recorded and every metric is non-zero.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import tracer  # noqa: E402

README_CFG = """\
pagesize 4096
cache 32768 8 64 3
cache 524288 8 64 15
tlb 64 30
memory 100
mapping random 7
"""

#: Every span name ``tracer.layer_metrics`` reads.
READ_SPANS = {
    tracer.RUN,
    "timing.measure_stable",
    "cacheprobe.run_cache_sweep",
    "l1probe.run_l1_probe", "l1probe.baseline", "l1probe.find_capacity",
    "l1probe.find_associativity", "l1probe.find_linesize",
    "tlbprobe.run_tlb_sweep", "tlbprobe.find_suspects",
    "tlbprobe.confirm_suspect",
    "analysis.assemble_report",
    "refstring.build_gap_string", "refstring.build_cache_string",
    "refstring.build_tlb_string",
}


def test_traced_simulate_feeds_every_layer_metric(tmp_path):
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(README_CFG)
    record = tmp_path / "record.json"
    out = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "launch.py"), "trace",
         str(record), "simulate", str(cfg), "--ub", "65536", "--window", "2"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    spans = json.loads(record.read_text())["spans"]
    assert READ_SPANS - {s[0] for s in spans} == set()
    metrics = tracer.layer_metrics(spans, window=2)
    assert [name for name, value in metrics.items() if value == 0] == []
