"""The benchmark's report check, in tier-1.

``perfbench/run.py`` checks each report of its workloads against the
hierarchy its config describes (``perfbench/expect.py``).  This test runs
the same commands in-process at a short window, on the same checked-in
configs with the mapping seed replaced as the benchmark replaces it, so that
a wrong verdict fails here before it fails a benchmark run.  It reads
``perfbench/`` and changes nothing there.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import expect  # noqa: E402
from run import WORKLOADS  # noqa: E402

from memhier.cli import main  # noqa: E402

WINDOW = 3
SEED = 1

OPS = [op for name in sorted(WORKLOADS) for op in WORKLOADS[name]]


@pytest.mark.parametrize("op", OPS, ids=["%s-%s" % (op.command, op.config)
                                         for op in OPS])
def test_report_matches_config(capsys, tmp_path, op):
    with open(os.path.join(PERFBENCH, "configs", op.config)) as fh:
        text = expect.with_mapping_seed(fh.read(), SEED)
    path = tmp_path / op.config
    path.write_text(text)
    target = ([str(path)] if op.command == "simulate"
              else ["--backend", "sim:%s" % path])
    rc = main([op.command] + target
              + ["--window", str(WINDOW), "--seed", str(SEED)]
              + list(op.extra))
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    report = json.loads(captured.out)
    ub = (int(op.extra[op.extra.index("--ub") + 1]) if "--ub" in op.extra
          else None)
    assert expect.wrong_params(
        report, expect.expected_report(expect.parse(text), op.command,
                                       ub)) == []
