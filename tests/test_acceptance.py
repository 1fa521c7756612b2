"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line so the suite output doubles as an
acceptance report.  Criterion 7 exercises the real hardware backend and is
environment dependent, so it is marked xfail(strict=False): a pass is
reported, a failure does not gate the suite.
"""

import functools
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

import memhier
from conftest import JitterBackend
from memhier import (CacheLevel, SimConfig, SimulatedBackend, TlbLevel,
                     build_cache_string, measure_stable, timing, tlbprobe)
from memhier.analysis import assemble_report, detect_transitions
from memhier.cacheprobe import run_cache_sweep, sample_points
from memhier.l1probe import L1Params, run_l1_probe
from memhier.tlbprobe import run_tlb_probe

KB = 1024
MB = 1024 * 1024
PAGE = 4096


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print("ACCEPTANCE CRITERION %d (%s): FAIL" % (number, title))
        raise
    print("ACCEPTANCE CRITERION %d (%s): PASS" % (number, title))


def test_criterion_1_l1_oracle_equivalence(env):
    configs = [(cap * KB, assoc, ls)
               for cap in (8, 16, 32, 64)
               for assoc in (2, 4, 8)
               for ls in (32, 64, 128)]
    spot_checks = [(16 * KB, 16, 64), (32 * KB, 16, 64)]
    # Way counts that are not powers of two, and a direct-mapped L1.
    odd_ways = [(24 * KB, 6, 64), (48 * KB, 12, 64), (36 * KB, 9, 64),
                (96 * KB, 12, 128), (30 * KB, 15, 64), (16 * KB, 1, 64)]
    max_assoc = {(80 * KB, 20, 64): 32}
    with criterion(1, "L1 oracle equivalence"):
        for cap, assoc, ls in configs + spot_checks + odd_ways + \
                list(max_assoc):
            cfg = SimConfig(cache_levels=[CacheLevel(cap, assoc, ls, 3),
                                          CacheLevel(8 * MB, 16, 64, 15)],
                            memory_latency=100)
            params = L1Params(max_assoc=max_assoc.get((cap, assoc, ls), 16))
            started = time.perf_counter()
            rep = run_l1_probe(params, env, SimulatedBackend(cfg), window=5)
            elapsed = time.perf_counter() - started
            got = (rep.capacity, rep.associativity, rep.linesize)
            assert got == (cap, assoc, ls), "config %r -> %r" % (
                (cap, assoc, ls), got)
            flags = assemble_report(env, rep, None, None)["l1"]["flags"]
            assert flags == (["direct-mapped"] if assoc == 1 else [])
            assert elapsed < 5.0, "config %r took %.1fs" % ((cap, assoc, ls),
                                                            elapsed)


def random_hierarchy(rng):
    nlevels = rng.choice((2, 3))
    caps = [rng.choice((16, 32)) * KB]
    lats = [rng.randint(2, 4)]
    for _ in range(nlevels - 1):
        caps.append(caps[-1] * 2 ** rng.randint(2, 4))
        lats.append(lats[-1] + rng.randint(5, 15))
    caps = [min(c, 2 * MB) for c in caps]
    mem = lats[-1] + rng.randint(40, 100)
    cfg = SimConfig(cache_levels=[CacheLevel(c, 8, 64, l)
                                  for c, l in zip(caps, lats)],
                    memory_latency=mem)
    cfg.validate()
    return cfg, list(zip(caps, lats))


def test_criterion_2_multilevel_oracle_equivalence(env):
    with criterion(2, "multi-level oracle equivalence"):
        for seed in range(25):
            rng = random.Random(1000 + seed)
            cfg, expected = random_hierarchy(rng)
            ub = 2 * cfg.cache_levels[-1].capacity
            curve = run_cache_sweep(sample_points(KB, ub), env,
                                    SimulatedBackend(cfg), window=3, seed=seed)
            got = detect_transitions(curve)
            assert len(got) == len(expected), "seed %d: %r vs %r" % (
                seed, got, expected)
            for (gcap, glat), (cap, lat) in zip(got, expected):
                assert gcap == cap, "seed %d: %r vs %r" % (seed, got, expected)
                assert abs(glat - lat) <= 1, "seed %d: %r vs %r" % (
                    seed, got, expected)


TLB_GRID = [g for g in
            [4 * 2 ** j for j in range(10)] + [5 * 2 ** j for j in range(10)] +
            [6 * 2 ** j for j in range(10)] + [7 * 2 ** j for j in range(10)]
            if 16 <= g <= 2048]


def random_tlb_hierarchy(seed):
    """A randomized 1-2 level TLB config with a benign cache, and its
    entry counts."""
    rng = random.Random(2000 + seed)
    entries = [rng.choice([g for g in TLB_GRID if g <= 512])]
    penalties = [rng.randint(20, 40)]
    if rng.random() < 0.5:
        entries.append(entries[0] * rng.choice((4, 8, 16)))
        penalties.append(penalties[0] + rng.randint(60, 120))
    cfg = SimConfig(cache_levels=[CacheLevel(16 * MB, 16, 64, 3)],
                    tlb_levels=[TlbLevel(e, p)
                                for e, p in zip(entries, penalties)],
                    memory_latency=250)
    return cfg, entries


def test_criterion_3_tlb_oracle_and_false_positive_rejection(env):
    with criterion(3, "TLB oracle equivalence and false-positive rejection"):
        for seed in range(25):
            cfg, entries = random_tlb_hierarchy(seed)
            levels, _, _ = run_tlb_probe(
                env, SimulatedBackend(cfg),
                ub=4 * entries[-1] * PAGE, window=3, seed=seed)
            assert levels == entries, "seed %d: %r vs %r" % (seed, levels,
                                                             entries)
        # Adversarial: a cache whose line capacity runs out at a footprint on
        # the sweep schedule produces a T(1,k) rise that looks like a TLB
        # boundary; confirmation via n = 2, 3, 4 must reject it.
        for pages in (64, 96, 128, 192, 256, 320, 384, 512, 768, 1024):
            cfg = SimConfig(cache_levels=[CacheLevel(pages * 64, 16, 64, 3)],
                            tlb_levels=[TlbLevel(4096, 30)],
                            memory_latency=250)
            levels, suspects, _ = run_tlb_probe(
                env, SimulatedBackend(cfg), ub=8 * MB, window=3,
                seed=pages)
            assert levels == [], "cache edge at %d pages reported as TLB %r" \
                % (pages, levels)
            assert suspects and not any(s.confirmed for s in suspects)


def _three_plateau_backend(seed):
    cfg = SimConfig(cache_levels=[CacheLevel(16 * KB, 8, 64, 3),
                                  CacheLevel(128 * KB, 8, 64, 12)],
                    memory_latency=60)
    return JitterBackend(SimulatedBackend(cfg), seed=seed, zero_prob=0.4,
                         scale=1.0)


def test_criterion_4_knockout_revival_efficiency(env):
    with criterion(4, "knockout-revival efficiency"):
        points = sample_points(KB, 512 * KB)
        with_ko = run_cache_sweep(points, env,
                                  _three_plateau_backend(seed=42),
                                  window=15, seed=0)
        exhaustive = run_cache_sweep(points, env,
                                     _three_plateau_backend(seed=42),
                                     window=15, seed=0, knockout=False)
        ratio = exhaustive.total_string_runs / with_ko.total_string_runs
        assert ratio >= 3.0, "only %.2fx fewer runs (%d vs %d)" % (
            ratio, exhaustive.total_string_runs, with_ko.total_string_runs)
        assert detect_transitions(with_ko) == detect_transitions(exhaustive) \
            == [(16 * KB, 3), (128 * KB, 12)]


def test_criterion_4_knockout_matches_exhaustive(env, monkeypatch):
    def both_sweeps(make_backend, points, seed):
        return [detect_transitions(run_cache_sweep(
                    points, env, make_backend(), window=5, seed=seed,
                    knockout=knockout))
                for knockout in (True, False)]

    with criterion(4, "knockout matches the exhaustive sweep under jitter"):
        for seed in range(20):
            with_ko, exhaustive = both_sweeps(
                lambda: _three_plateau_backend(seed),
                sample_points(KB, 512 * KB), seed)
            assert with_ko == exhaustive, \
                "three-plateau seed %d: %r vs %r" % (seed, with_ko, exhaustive)
        for seed in range(25):
            cfg, _ = random_hierarchy(random.Random(1000 + seed))
            with_ko, exhaustive = both_sweeps(
                lambda: JitterBackend(SimulatedBackend(cfg), seed=seed),
                sample_points(KB, 2 * cfg.cache_levels[-1].capacity), seed)
            assert with_ko == exhaustive, \
                "random hierarchy seed %d: %r vs %r" % (seed, with_ko,
                                                        exhaustive)
        # The T(1,k) sweep of criterion 3's first configs.
        for seed in range(10):
            cfg, entries = random_tlb_hierarchy(seed)
            got = []
            for knockout in (True, False):
                monkeypatch.setattr(tlbprobe, "run_sweep", functools.partial(
                    timing.run_sweep, knockout=knockout))
                levels, _, _ = run_tlb_probe(
                    env, SimulatedBackend(cfg), ub=4 * entries[-1] * PAGE,
                    window=3, seed=seed)
                got.append(levels)
            assert got == [entries, entries], "TLB seed %d: %r" % (seed, got)


def test_criterion_5_timing_engine_convergence(env):
    cfg = SimConfig(cache_levels=[CacheLevel(32 * KB, 8, 64, 3)],
                    memory_latency=100)
    with criterion(5, "timing engine converges under jitter"):
        for seed in range(10):
            noisy = JitterBackend(SimulatedBackend(cfg), seed=seed,
                                  zero_prob=0.4, scale=2.0)
            counter = [seed * 100]

            def factory():
                counter[0] += 1
                return build_cache_string(16 * KB, env, counter[0])

            m = measure_stable(factory, noisy, window=25)
            assert m.runs_taken <= 200
            assert abs(m.min_cycles_per_access - 3.0) <= 0.25, \
                "seed %d converged to %.3f" % (seed, m.min_cycles_per_access)


def test_criterion_6_curve_invariants(env):
    with criterion(6, "curve invariants"):
        for seed, (c1, c2) in enumerate([(16 * KB, 256 * KB),
                                         (32 * KB, 512 * KB),
                                         (64 * KB, MB)]):
            cfg = SimConfig(cache_levels=[CacheLevel(c1, 8, 64, 3),
                                          CacheLevel(c2, 8, 64, 14)],
                            memory_latency=90)
            curve = run_cache_sweep(sample_points(KB, 2 * c2), env,
                                    SimulatedBackend(cfg), window=3, seed=seed)
            vals = curve.values()
            assert all(b >= a - 0.25 for a, b in zip(vals, vals[1:])), \
                "curve not non-decreasing for %r" % ((c1, c2),)
            first = detect_transitions(curve)
            assert detect_transitions(curve) == first  # idempotent
            # Conservative: never reports more than is configured, and the
            # simulator is unshared so equality must hold.
            assert [cap for cap, _ in first] == [c1, c2]
            for (cap, _), configured in zip(first, (c1, c2)):
                assert cap <= configured


def _sysfs_l1d():
    base = "/sys/devices/system/cpu/cpu0/cache"
    if not os.path.isdir(base):
        return None
    for entry in sorted(os.listdir(base)):
        d = os.path.join(base, entry)
        try:
            with open(os.path.join(d, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(d, "type")) as fh:
                kind = fh.read().strip()
            if level != "1" or kind not in ("Data", "Unified"):
                continue
            with open(os.path.join(d, "size")) as fh:
                size = fh.read().strip()
            with open(os.path.join(d, "coherency_line_size")) as fh:
                linesize = int(fh.read().strip())
        except OSError:
            continue
        assert size.endswith("K")
        return int(size[:-1]) * KB, linesize
    return None


@pytest.mark.xfail(strict=False,
                   reason="depends on host hardware and scheduling noise")
def test_criterion_7_real_hardware_smoke(tmp_path):
    if shutil.which("cc") is None:
        pytest.skip("the real backend needs a C compiler 'cc'")
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("x86-64 only")
    expected = _sysfs_l1d()
    if expected is None:
        pytest.skip("no sysfs cache topology")
    src = os.path.dirname(os.path.dirname(memhier.__file__))

    with criterion(7, "real hardware matches OS-reported L1"):
        out = tmp_path / "report.json"
        started = time.perf_counter()
        # A child process, so that the bound holds while the run is going:
        # it is killed at 120 s, and TimeoutExpired fails the criterion.
        done = subprocess.run(
            [sys.executable, "-m", "memhier.cli", "all", "--out", str(out)],
            capture_output=True, text=True, timeout=120.0,
            env=dict(os.environ, PYTHONPATH=src))
        elapsed = time.perf_counter() - started
        assert done.returncode == 0, done.stderr
        report = json.loads(out.read_text())
        assert (report["l1"]["capacity"], report["l1"]["linesize"]) == expected
        assert elapsed < 120.0, "full run took %.0fs" % elapsed
