"""memhier benchmark: closed-loop sequences of ``memhier`` CLI invocations on
the simulator backend, checked against the hierarchy each config describes.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  One invocation runs at a time, as a
child process; each workload is a fixed list of invocations (a pass).

* ``--trace 0`` repeats whole passes until ``--seconds`` of them have been
  measured (at least one) and reports the end-to-end metrics: medians over
  passes of wall and CPU time, the median set-up time, peak RSS and the exact
  string-run count.
* ``--trace 1`` makes one untraced pass and one traced pass and reports the
  per-module metrics of the traced pass and the tracing overhead.

Every run first makes one untimed warm-up invocation, which fills the
bytecode cache.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record of the run, host included, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import expect
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
LAUNCH = os.path.join(HERE, "launch.py")

#: The CLI's default stability window, passed explicitly so that the
#: knockout ratio's base is fixed by the benchmark.
WINDOW = 25

#: A run must end within 180 s; no invocation may start past this budget.
TIME_BUDGET = 170.0

#: Set-up samples per run, besides those of the workload's own invocations.
SETUP_SAMPLES = 5


@dataclass(frozen=True)
class Op:
    command: str
    config: str
    extra: tuple = ()


#: Why each workload was chosen: see NOTES.md.
WORKLOADS: Dict[str, List[Op]] = {
    "readme-sim": [Op("simulate", "readme-sim.cfg", ("--ub", "4194304"))],
    "l1-grid": [Op("l1", "l1-%s.cfg" % g) for g in
                ("32k8", "48k12", "24k6", "16k4", "64k16", "128k8")],
    "tlb-heavy": [Op("tlb", "tlb-heavy.cfg")],
}


class BenchError(Exception):
    """The run cannot produce a result."""


@dataclass
class Invocation:
    op: Op
    wall: float
    cpu: float
    rss_kb: int
    exit: int
    stderr: str
    report: Optional[dict]
    record: dict
    wrong: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.exit != 0 or bool(self.wrong)

    @property
    def contract_exit(self) -> bool:
        """Exit 0, or exit 1 with a one-line ``memhier:`` error (no
        traceback)."""
        return self.exit == 0 or (self.exit == 1
                                  and self.stderr.startswith("memhier: "))

    @property
    def setup(self) -> Optional[float]:
        """Wall time outside the probes: interpreter start, imports, config
        parse, calibration, report assembly and exit."""
        if self.report is None:
            return None
        return self.wall - self.report["costs"]["total"]


class Runner:
    def __init__(self, workdir: str, seed: int, started: float):
        self.workdir = workdir
        self.seed = seed
        self.started = started
        self.n = 0
        self.configs: Dict[str, str] = {}

    def config_path(self, name: str) -> str:
        """The checked-in config with the workload seed as mapping seed."""
        if name not in self.configs:
            with open(os.path.join(HERE, "configs", name)) as fh:
                text = expect.with_mapping_seed(fh.read(), self.seed)
            path = os.path.join(self.workdir, name)
            with open(path, "w") as fh:
                fh.write(text)
            self.configs[name] = text
        return os.path.join(self.workdir, name)

    def argv(self, op: Op) -> List[str]:
        path = self.config_path(op.config)
        target = [path] if op.command == "simulate" else ["--backend",
                                                          "sim:" + path]
        return ([op.command] + target
                + ["--window", str(WINDOW), "--seed", str(self.seed)]
                + list(op.extra))

    def invoke(self, op: Op, mode: str = "count") -> Invocation:
        self.n += 1
        stem = os.path.join(self.workdir, "%03d-%s" % (self.n, op.command))
        remaining = TIME_BUDGET - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise BenchError("time budget of %.0f s spent" % TIME_BUDGET)
        with open(stem + ".out", "wb") as out, open(stem + ".err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, LAUNCH, mode, stem + ".record.json"]
                + self.argv(op), stdout=out, stderr=err, cwd=ROOT)
            status, usage = _wait(proc, remaining)
            wall = time.perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
        with open(stem + ".err") as fh:
            stderr = fh.read()
        report = None
        if code == 0:
            with open(stem + ".out") as fh:
                report = json.load(fh)
        try:
            with open(stem + ".record.json") as fh:
                record = json.load(fh)
        except FileNotFoundError:
            record = {"exit": None, "counts": None}
        inv = Invocation(op=op, wall=wall, cpu=usage.ru_utime + usage.ru_stime,
                         rss_kb=usage.ru_maxrss, exit=code, stderr=stderr,
                         report=report, record=record)
        if report is not None:
            h = expect.parse(self.configs[op.config])
            ub = int(op.extra[op.extra.index("--ub") + 1]) \
                if "--ub" in op.extra else None
            inv.wrong = expect.wrong_params(
                report, expect.expected_report(h, op.command, ub))
        return inv

    def run_pass(self, ops: List[Op], mode: str = "count") -> List[Invocation]:
        return [self.invoke(op, mode) for op in ops]


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its resource usage; kill it after ``timeout`` s."""
    def on_alarm(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        proc.kill()
        proc.wait()
        raise BenchError("invocation exceeded the time budget")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, usage


def setup_op(ops: List[Op]) -> Op:
    """A short invocation that pays full set-up: a four-point cache sweep
    below one page, on the workload's first config."""
    return Op("cache", ops[0].config,
              ("--lb", "1024", "--ub", "4096", "--window", "1"))


def pass_counts(invs: List[Invocation]) -> List[Optional[dict]]:
    return [inv.record.get("counts") for inv in invs]


def sweep_ratio(counts: List[Optional[dict]]) -> float:
    """Knockout ratio of the pass's cache sweeps, from the exact counts."""
    points = sum(c["cache_points"] for c in counts if c)
    runs = sum(c["cache_runs"] for c in counts if c)
    return tracer.knockout_ratio(points, runs, WINDOW)


def code_digest() -> str:
    """Digest of the program and the benchmark, which the exact counts of a
    seed are a function of."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"),
                             recursive=True)
                   + glob.glob(os.path.join(HERE, "**", "*.py"), recursive=True)
                   + glob.glob(os.path.join(HERE, "configs", "*.cfg")))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def check_stored_counts(key: str, counts: list) -> Optional[str]:
    """Compare with the counts an earlier run of the same code and seed
    stored, or store them.  Returns a mismatch message, or None."""
    path = os.path.join(OUT, "counts.json")
    try:
        with open(path) as fh:
            store = json.load(fh)
    except FileNotFoundError:
        store = {}
    if key in store:
        if store[key] != counts:
            return "exact counts differ from an earlier run of %s" % key
        return None
    store[key] = counts
    tmp = path + ".%d.tmp" % os.getpid()
    with open(tmp, "w") as fh:
        json.dump(store, fh)
    os.replace(tmp, path)
    return None


def host_info() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    l1d = None
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            def read(name):
                with open(os.path.join(index, name)) as fh:
                    return fh.read().strip()
            if read("level") == "1" and read("type") == "Data":
                l1d = "%s/%s-way/%sB" % (read("size"),
                                         read("ways_of_associativity"),
                                         read("coherency_line_size"))
                break
        except OSError:
            continue
    return {"cpu_model": model, "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "l1d_sysfs": l1d,
            "numba": importlib.util.find_spec("numba") is not None}


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    ops = WORKLOADS[workload]
    workdir = os.path.join(OUT, "%s-seed%d-trace%d" % (workload, seed, trace))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(workdir, seed, started)

    runner.invoke(setup_op(ops))  # warm-up: fills the bytecode cache
    setups: List[Invocation] = []
    problems: List[str] = []
    values: Dict[str, float] = {}

    if not trace:
        setups = [runner.invoke(setup_op(ops)) for _ in range(SETUP_SAMPLES)]
        passes: List[List[Invocation]] = []
        measured = 0.0
        while not passes or measured < seconds:
            t0 = time.perf_counter()
            passes.append(runner.run_pass(ops))
            measured += time.perf_counter() - t0
            elapsed = time.perf_counter() - started
            if elapsed + measured / len(passes) > TIME_BUDGET - 10:
                break
        timed = [inv for p in passes for inv in p]
        values["wall_s"] = statistics.median(
            sum(inv.wall for inv in p) for p in passes)
        values["cpu_s"] = statistics.median(
            sum(inv.cpu for inv in p) for p in passes)
        values["setup_s"] = statistics.median(
            inv.setup for inv in setups + timed if inv.setup is not None)
        values["peak_rss_mb"] = max(inv.rss_kb for inv in timed) / 1024.0
        counts = [pass_counts(p) for p in passes]
    else:
        plain = runner.run_pass(ops)
        traced = runner.run_pass(ops, mode="trace")
        passes = [plain, traced]
        timed = plain + traced
        spans = tracer.concat([inv.record.get("spans") or [] for inv in traced])
        values.update(tracer.layer_metrics(spans, WINDOW))
        values["trace.overhead_s"] = (sum(inv.wall for inv in traced)
                                      - sum(inv.wall for inv in plain))
        counts = [pass_counts(plain), pass_counts(traced)]
        if values["cacheprobe.knockout_ratio"] != sweep_ratio(counts[1]):
            problems.append("traced knockout ratio disagrees with the counts")

    # Exact counts: every pass of one seed must do identical work, and so
    # must the repeated set-up invocations.
    setup_counts = pass_counts(setups)
    if any(c != setup_counts[0] for c in setup_counts[1:]):
        problems.append("exact counts differ between set-up invocations")
    if any(c is None for p in counts for c in p):
        problems.append("an invocation left no counts")
    elif any(p != counts[0] for p in counts[1:]):
        problems.append("exact counts differ between passes of one seed")
    else:
        stale = check_stored_counts(
            "%s:%s:%d" % (code_digest(), workload, seed), counts[0])
        if stale:
            problems.append(stale)
    if all(counts[0]):
        values["string_runs"] = sum(c["string_runs"] for c in counts[0])

    checked = setups + timed
    for inv in checked:
        if inv.wrong:
            problems.append("%s %s: wrong %s" % (inv.op.command, inv.op.config,
                                                 ", ".join(inv.wrong)))
        if not inv.contract_exit:
            problems.append("%s %s: exit %d: %s" % (
                inv.op.command, inv.op.config, inv.exit,
                (inv.stderr.strip().splitlines() or [""])[-1]))
    for inv in setups:
        if inv.failed:
            problems.append("set-up invocation failed: %s" % inv.stderr.strip())

    return {"workload": workload, "seed": seed, "trace": int(trace),
            "host": host_info(), "passes": len(passes),
            "attempted": len(timed), "failed": sum(inv.failed for inv in timed),
            "params_wrong": sum(len(inv.wrong) for inv in checked),
            "problems": problems, "values": values,
            "invocations": [{"op": "%s %s" % (inv.op.command, inv.op.config),
                             "wall_s": inv.wall, "cpu_s": inv.cpu,
                             "rss_kb": inv.rss_kb, "exit": inv.exit,
                             "wrong": inv.wrong,
                             "counts": inv.record.get("counts")}
                            for inv in checked]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "memhier", "cli.py")):
        print("run.py: no memhier source under %s/src; run from the root of "
              "a source checkout" % ROOT, file=sys.stderr)
        return 2
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]

    try:
        os.makedirs(OUT, exist_ok=True)
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    except BenchError as exc:
        print("run.py: %s" % exc, file=sys.stderr)
        return 1
    missing = sorted(set(declared) - set(result["values"]))
    if missing:
        print("run.py: metrics not measured: %s" % ", ".join(missing),
              file=sys.stderr)
        return 1
    metrics = {name: {"value": result["values"][name], "unit": unit}
               for name, unit in declared.items()}
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (
        args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)

    host = result["host"]
    print("host: %s, nproc %d, Python %s, L1d %s, numba %s" % (
        host["cpu_model"], host["nproc"], host["python"], host["l1d_sysfs"],
        "yes" if host["numba"] else "no"))
    print("%s seed %d: %d passes, %d/%d ops failed (failed_frac %.4f), "
          "%d parameters wrong" % (
              args.workload, args.seed, result["passes"], result["failed"],
              result["attempted"], result["failed"] / result["attempted"],
              result["params_wrong"]))
    for name, m in metrics.items():
        print("  %-32s %14.6g %s" % (name, m["value"], m["unit"]))
    for problem in result["problems"]:
        print("problem: %s" % problem)
    print("record: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({"correct": not result["problems"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
