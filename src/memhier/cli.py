"""Command-line entry point.

Subcommands::

    memhier l1        [options]            L1 capacity/associativity/linesize
    memhier cache     [options]            multi-level cache response + levels
    memhier tlb       [options]            TLB levels
    memhier all       [options]            full characterization
    memhier analyze   <curve.csv>          re-analyze a saved response curve
    memhier simulate  <config>             full characterization of a
                                           simulated hierarchy config file

Exit codes: 0 success, 1 probe error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Tuple

from . import analysis
from .errors import MemhierError
from .refstring import MachineEnv
from .timing import DEFAULT_WINDOW, ResponseCurve

# The probes, the backends and the curve format are imported where a command
# runs them, so that a command loads only what it uses.


def _int_at_least(text: str, low: int, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError("%r is not a %s integer"
                                         % (text, what))
    return value


def _positive_int(text: str) -> int:
    """The ``--window``, ``--lb``, ``--ub`` and ``--max-assoc`` type: an
    integer of at least 1."""
    return _int_at_least(text, 1, "positive")


def _non_negative_int(text: str) -> int:
    """The ``--seed`` type: an integer of at least 0."""
    return _int_at_least(text, 0, "non-negative")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="memhier",
                                     description="Empirical memory-hierarchy "
                                                 "characterization")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, l1: bool, curve: bool):
        """The options every probing command takes, with ``--max-assoc``
        where it runs the L1 probe and ``--format`` where it sweeps the
        caches; elsewhere either is a usage error."""
        p.add_argument("--lb", type=_positive_int, default=None,
                       help="lower bound of the sweep in bytes")
        p.add_argument("--ub", type=_positive_int, default=None,
                       help="upper bound of the sweep in bytes")
        if l1:
            # None stands for the L1 probe's default, read where the probe
            # is loaded.
            p.add_argument("--max-assoc", type=_positive_int, default=None)
        else:
            p.set_defaults(max_assoc=None)
        p.add_argument("--window", type=_positive_int, default=DEFAULT_WINDOW,
                       help="stability window (runs without a new minimum)")
        p.add_argument("--seed", type=_non_negative_int, default=0)
        if curve:
            p.add_argument("--format", choices=("json", "csv"),
                           default="json")
        else:
            p.set_defaults(format="json")
        p.add_argument("--out", default=None, help="write output to this path")

    for name, l1, curve in (("l1", True, False), ("cache", False, True),
                            ("tlb", False, False), ("all", True, True)):
        p = sub.add_parser(name)
        p.add_argument("--backend", default="real",
                       help="'real' or 'sim:<config-file>' (default: real)")
        add_common(p, l1, curve)

    p = sub.add_parser("analyze")
    p.add_argument("curve", help="CSV response curve to analyze")
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate")
    p.add_argument("config", help="simulator hierarchy config file")
    add_common(p, l1=True, curve=True)
    return parser


def _make_backend(spec: str) -> Tuple[object, MachineEnv]:
    """The backend ``spec`` names and the machine the probes build for."""
    if spec == "real":
        from .backend import RealMemoryBackend

        return RealMemoryBackend(), MachineEnv.host()
    if spec.startswith("sim:"):
        from .simoracle import SimulatedBackend, load_config

        config = load_config(spec[4:])
        return SimulatedBackend(config), MachineEnv(pagesize=config.pagesize)
    raise MemhierError("unknown backend %r (use 'real' or 'sim:<file>')" % spec)


def _check_out(path: str) -> None:
    """Raise MemhierError unless the directory of ``path`` exists and
    ``path`` is not a directory itself, so that no probe runs for a report
    that cannot be written."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise MemhierError("cannot write %s: no directory %s"
                           % (path, directory))
    if os.path.isdir(path):
        raise MemhierError("cannot write %s: it is a directory" % path)


def _emit(args, text: str) -> None:
    """Write ``text``, ending in one newline, to ``--out`` or stdout."""
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _bound(value: Optional[int], default: int) -> int:
    """A sweep bound or way count given on the command line, else the
    probe's default."""
    return default if value is None else value


def _run_probes(args, which: str) -> Tuple[dict, Optional[ResponseCurve]]:
    """Run the probes of ``which``; return the JSON report and the cache
    curve, if the cache was swept.  ``costs`` holds the wall time of each
    probe call, timed here and nowhere else, and their ``total``."""
    backend, env = _make_backend(args.backend)
    max_assoc = args.max_assoc
    # Loaded, and every range checked (``all`` sweeps the TLBs over their
    # defaults), before the clock starts: ``costs`` times probe work alone.
    if which in ("l1", "all"):
        from . import l1probe

        max_assoc = _bound(max_assoc, l1probe.DEFAULT_MAX_ASSOC)
        params = l1probe.L1Params(lb=_bound(args.lb, l1probe.DEFAULT_LB),
                                  ub=_bound(args.ub, l1probe.DEFAULT_UB),
                                  max_assoc=max_assoc)
    if which in ("cache", "all"):
        from . import cacheprobe

        cache_range = (_bound(args.lb, cacheprobe.DEFAULT_LB),
                       _bound(args.ub, cacheprobe.DEFAULT_UB))
        cacheprobe.sample_points(*cache_range)
    if which in ("tlb", "all"):
        from . import tlbprobe
    started = time.perf_counter()
    costs: dict = {}
    l1_report = cache_curve = tlb = None

    def timed(name, probe, *probe_args, **kwargs):
        t0 = time.perf_counter()
        result = probe(*probe_args, **kwargs)
        costs[name] = time.perf_counter() - t0
        return result

    if which in ("l1", "all"):
        l1_report = timed("l1", l1probe.run_l1_probe, params, env, backend,
                          window=args.window)
        env.l1_linesize = l1_report.linesize

    if which in ("cache", "all"):
        cache_curve = timed("cache", cacheprobe.run_cache_sweep,
                            *cache_range, env, backend, window=args.window,
                            seed=args.seed)

    if which in ("tlb", "all"):
        tlb = timed("tlb", tlbprobe.run_tlb_probe, env, backend,
                    lb=_bound(args.lb, 0) if which == "tlb" else 0,
                    ub=(_bound(args.ub, tlbprobe.DEFAULT_UB) if which == "tlb"
                        else tlbprobe.DEFAULT_UB),
                    window=args.window, seed=args.seed)

    costs["total"] = time.perf_counter() - started
    report = analysis.assemble_report(
        env, l1_report, cache_curve, tlb, costs=costs,
        parameters={"window": args.window, "seed": args.seed,
                    "backend": args.backend, "max_assoc": max_assoc,
                    "lb": args.lb, "ub": args.ub})
    return report, cache_curve


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.out:
            _check_out(args.out)
        if args.command == "analyze":
            from .cacheprobe import load_curve

            curve = load_curve(args.curve)
            payload = {"levels": analysis.level_dicts(curve)}
            _emit(args, json.dumps(payload, indent=2))
            return 0

        if args.command == "simulate":
            args.backend = "sim:" + args.config
            report, curve = _run_probes(args, "all")
        else:
            report, curve = _run_probes(args, args.command)

        if args.format == "csv" and curve is not None:
            from .cacheprobe import curve_to_csv

            _emit(args, curve_to_csv(curve))
        else:
            _emit(args, json.dumps(report, indent=2))
        return 0
    except MemhierError as exc:
        print("memhier: %s" % exc, file=sys.stderr)
        return 1
    except OSError as exc:
        print("memhier: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
