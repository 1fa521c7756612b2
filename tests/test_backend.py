import ctypes
import dataclasses
import mmap
import os
import shutil
import subprocess
import sys

import pytest

import memhier
from memhier import (AllocationFailureError, MemhierError, RealMemoryBackend,
                     acquire_region, backend, build_cache_string,
                     build_gap_string, build_tlb_string, run_once)
from memhier.backend import PIN_CPU_ENV, link_chain, maybe_pin_cpu
from memhier.cli import main

KB = 1024
MB = 1024 * 1024


def needs_cc():
    if shutil.which("cc") is None:
        pytest.skip("the real backend needs a C compiler 'cc'")


class TestAcquireRegion:
    def test_one_page(self):
        region = acquire_region(4 * KB)
        assert len(region) >= 4 * KB

    def test_within_cap(self):
        region = acquire_region(32 * MB)
        assert len(region) >= 32 * MB

    def test_over_cap_rejected(self):
        with pytest.raises(AllocationFailureError):
            acquire_region(128 * MB)

    def test_nonpositive_rejected(self):
        with pytest.raises(AllocationFailureError):
            acquire_region(0)

    @pytest.mark.parametrize("size", [4 * KB, 64 * KB, 1 * MB, 32 * MB])
    def test_page_aligned(self, size):
        region = acquire_region(size)
        view = (ctypes.c_char * len(region)).from_buffer(region)
        try:
            assert ctypes.addressof(view) % mmap.PAGESIZE == 0
        finally:
            del view
            region.close()


def _slots(region):
    return (ctypes.c_int64 * (len(region) // 8)).from_buffer(region)


class TestLinkChain:
    @pytest.mark.parametrize("make", [
        lambda env: build_gap_string(17, 2 * KB, 0, env),
        lambda env: build_gap_string(13, 4 * KB, 64, env),
        lambda env: build_cache_string(3 * KB, env, 1),
        lambda env: build_cache_string(256 * KB, env, 2),
        lambda env: build_tlb_string(1, 64 * 4096, env, 3),
        lambda env: build_tlb_string(4, 64 * 4096, env, 4),
    ])
    def test_same_slots_as_python_loop(self, env, make):
        needs_cc()
        rs = make(env)
        linked, expected = (acquire_region(rs.footprint) for _ in range(2))
        slots = _slots(expected)
        idx = [off // 8 for off in rs.chain]
        for here, there in zip(idx, idx[1:] + idx[:1]):
            slots[here] = there
        del slots
        slots = _slots(linked)
        link_chain(slots, rs)
        del slots
        try:
            assert linked[:] == expected[:]
        finally:
            linked.close()
            expected.close()


    @pytest.mark.parametrize("chain", [
        [0, 2 * KB, 4 * KB],    # the last slot is past the region
        [0, -8],
        [],
    ])
    def test_chain_outside_region_raises(self, env, chain):
        rs = dataclasses.replace(build_gap_string(2, 2 * KB, 0, env),
                                 chain=chain)
        region = acquire_region(4 * KB)
        slots = _slots(region)
        try:
            with pytest.raises(MemhierError):
                link_chain(slots, rs)
            assert not any(region[:])
        finally:
            del slots
            region.close()


class TestRealBackend:
    def test_chase_produces_plausible_latency(self, env):
        needs_cc()
        be = RealMemoryBackend()
        rs = build_gap_string(2, 512, 0, env)
        t = run_once(rs, be)
        # An L1-resident dependent load is a handful of cycles on anything
        # this code runs on; the bound only guards against unit mistakes.
        assert 0.5 < t < 200.0

    def test_loads_raised_to_whole_traversals(self, env):
        needs_cc()
        be = RealMemoryBackend()
        chased = []
        be._chase = lambda slots, entry, loads: chased.append(loads) or entry
        rs = build_gap_string(3, 512, 0, env)
        for asked in (6, be.loads_per_run, 3 * be.loads_per_run + 1):
            chased.clear()
            be.run(rs, asked)
            warm_up, timed = chased
            least = max(asked, be.loads_per_run)
            assert warm_up == 3
            assert timed % 3 == 0 and least <= timed < least + 3

    def test_small_string_is_faster_than_large(self, env):
        needs_cc()
        be = RealMemoryBackend()

        def best(footprint):
            return min(run_once(build_cache_string(footprint, env, seed), be)
                       for seed in range(3))

        # 16 KB fits any L1; 8 MB leaves L1 and L2 on anything this runs on.
        assert 3 * best(16 * KB) < best(8 * MB)

    def test_missing_compiler(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PATH", str(tmp_path))
        backend._kernels.cache_clear()
        try:
            with pytest.raises(MemhierError, match="'cc'"):
                RealMemoryBackend()
            assert main(["l1"]) == 1
        finally:
            backend._kernels.cache_clear()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("memhier: ")


class TestPinCpu:
    def test_unparsable(self, monkeypatch):
        monkeypatch.setenv(PIN_CPU_ENV, "abc")
        with pytest.raises(MemhierError, match="MEMHIER_PIN_CPU='abc'"):
            maybe_pin_cpu()

    def test_cpu_outside_affinity(self, monkeypatch):
        original = os.sched_getaffinity(0)
        monkeypatch.setenv(PIN_CPU_ENV, str(max(original) + 1))
        try:
            with pytest.raises(MemhierError, match=PIN_CPU_ENV):
                maybe_pin_cpu()
        finally:
            os.sched_setaffinity(0, original)

    def test_valid_cpu(self, monkeypatch):
        original = os.sched_getaffinity(0)
        cpu = min(original)
        monkeypatch.setenv(PIN_CPU_ENV, str(cpu))
        try:
            maybe_pin_cpu()
            assert os.sched_getaffinity(0) == {cpu}
        finally:
            os.sched_setaffinity(0, original)


def test_simulator_path_imports_no_native_modules():
    src = os.path.dirname(os.path.dirname(memhier.__file__))
    code = ("import memhier.cli, sys; "
            "print(' '.join(m for m in ('ctypes', 'mmap', 'subprocess', "
            "'numpy') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.split() == []
