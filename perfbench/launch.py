"""Run one memhier CLI invocation with the benchmark's counters installed.

    python3 perfbench/launch.py count|trace <record.json> <memhier args...>

``count`` wraps only ``SimulatedBackend.run`` with an exact counter;
``trace`` also records a span around every public memhier function.  The
record (exit code, counts, and in ``trace`` mode the spans) is written to
``<record.json>`` after memhier's ``main`` returns, outside the work being
measured.  The exit code is memhier's.
"""

import json
import os
import sys

import tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv):
    mode, record_path, args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from memhier import cli

    counts = tracer.Counts()
    tracer.install_counting(counts)
    recorder = None
    if mode == "trace":
        recorder = tracer.Recorder()
        tracer.install_tracing(recorder)
    elif mode != "count":
        raise SystemExit("launch.py: mode must be 'count' or 'trace'")
    code = None
    try:
        code = cli.main(args)
    finally:
        record = {"exit": code, "counts": counts.to_json()}
        if recorder is not None:
            record["spans"] = recorder.spans
        with open(record_path, "w") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
