import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import verify_cycle
from memhier import (InvalidGeometryError, MachineEnv, build_cache_string,
                     build_gap_string, build_tlb_string)
from memhier.refstring import _shuffle

KB = 1024


class TestGapString:
    def test_fig4_geometry(self, env):
        rs = build_gap_string(33, 1024, 0, env)
        assert rs.chain == [i * 1024 for i in range(32, -1, -1)]
        assert rs.chain_length == 33
        assert verify_cycle(rs, env.pagesize)

    def test_minimal_string(self, env):
        rs = build_gap_string(2, 512, 0, env)
        assert rs.chain == [512, 0]

    def test_fig5_geometry(self, env):
        rs = build_gap_string(5, 8192, 0, env)
        assert rs.chain == [32768, 24576, 16384, 8192, 0]

    def test_offset_moves_last_slot(self, env):
        rs = build_gap_string(9, 4096, 64, env)
        assert rs.chain[0] == 8 * 4096 + 64
        assert rs.chain[1:] == [i * 4096 for i in range(7, -1, -1)]
        assert verify_cycle(rs, env.pagesize)

    def test_deterministic(self, env):
        assert build_gap_string(9, 2048, 8, env).chain == \
            build_gap_string(9, 2048, 8, env).chain

    @pytest.mark.parametrize("n,k,o", [(1, 1024, 0), (4, 4, 0), (4, 1024, 4096)])
    def test_invalid_geometry(self, env, n, k, o):
        with pytest.raises(InvalidGeometryError):
            build_gap_string(n, k, o, env)

    def test_allocation_limit(self, env):
        with pytest.raises(InvalidGeometryError):
            build_gap_string(17, 16 * 1024 * 1024, 0, env)


class TestCacheString:
    def test_two_pages(self, env):
        rs = build_cache_string(2 * 4096, env, seed=7)
        assert rs.chain_length == 128
        pages = {off // 4096 for off in rs.chain}
        assert pages == {0, 1}
        assert verify_cycle(rs, env.pagesize)

    def test_page_contiguous_chain(self, env):
        rs = build_cache_string(8 * 4096, env, seed=3)
        seen = []
        for off in rs.chain:
            p = off // 4096
            if not seen or seen[-1] != p:
                assert p not in seen
                seen.append(p)
        assert len(seen) == 8

    def test_seed_determinism(self, env):
        a = build_cache_string(32 * KB, env, seed=11)
        b = build_cache_string(32 * KB, env, seed=11)
        c = build_cache_string(32 * KB, env, seed=12)
        assert a.chain == b.chain
        assert a.chain != c.chain

    def test_sub_page_footprint(self, env):
        rs = build_cache_string(2 * KB, env, seed=1)
        assert rs.chain_length == 2 * KB // 64
        assert max(rs.chain) < 2 * KB
        assert verify_cycle(rs, env.pagesize)

    def test_partial_tail_page(self, env):
        rs = build_cache_string(5 * KB, env, seed=1)
        assert rs.chain_length == 4096 // 64 + KB // 64
        assert verify_cycle(rs, env.pagesize)

    def test_rejects_tiny_footprint(self, env):
        with pytest.raises(InvalidGeometryError):
            build_cache_string(8, env, seed=0)

    def test_rejects_negative_seed(self, env):
        # random.Random(-2) is random.Random(2): the seed would alias.
        with pytest.raises(InvalidGeometryError):
            build_cache_string(64 * KB, env, seed=-2)


class TestTlbString:
    def test_one_slot_per_page(self, env):
        rs = build_tlb_string(1, 16 * 4096, env, seed=5)
        assert rs.chain_length == 16
        assert {off // 4096 for off in rs.chain} == set(range(16))
        assert verify_cycle(rs, env.pagesize)

    def test_pages_equal_chain_length(self, env):
        # n = 1 maximizes page footprint per slot.
        for pages in (4, 32, 100):
            rs = build_tlb_string(1, pages * 4096, env, seed=1)
            assert rs.chain_length == pages
            assert len({off // 4096 for off in rs.chain}) == pages

    def test_n_slots_per_page(self, env):
        rs = build_tlb_string(3, 8 * 4096, env, seed=2)
        counts = {}
        for off in rs.chain:
            counts[off // 4096] = counts.get(off // 4096, 0) + 1
        assert all(c == 3 for c in counts.values())
        assert verify_cycle(rs, env.pagesize)

    def test_invalid_geometry(self, env):
        with pytest.raises(InvalidGeometryError):
            build_tlb_string(0, 4 * 4096, env, seed=0)
        with pytest.raises(InvalidGeometryError):
            build_tlb_string(1, 4096 + 512, env, seed=0)
        with pytest.raises(InvalidGeometryError):
            build_tlb_string(65, 4 * 4096, env, seed=0)

    def test_rejects_negative_seed(self, env):
        with pytest.raises(InvalidGeometryError):
            build_tlb_string(2, 16 * 4096, env, seed=-3)


@pytest.mark.parametrize("length", [*range(71), 5120])
def test_shuffle_matches_stdlib(length):
    """``_shuffle`` gives ``random.Random.shuffle``'s permutation and leaves
    the generator where it would, so every cache and TLB string is the one
    the stdlib shuffle makes."""
    for seed in range(50):
        want, got = list(range(length)), list(range(length))
        stdlib, inlined = random.Random(seed), random.Random(seed)
        stdlib.shuffle(want)
        _shuffle(inlined, got)
        assert got == want
        assert inlined.getstate() == stdlib.getstate()


class TestVerifyCycle:
    def test_broken_cycle_detected(self, env):
        rs = build_gap_string(33, 1024, 0, env)
        rs.chain[10] = rs.chain[0]  # short-circuit back to the entry
        assert not verify_cycle(rs, env.pagesize)

    def test_wrong_gap_placement_detected(self, env):
        rs = build_gap_string(9, 1024, 0, env)
        rs.chain[3] += 64
        assert not verify_cycle(rs, env.pagesize)

    def test_out_of_range_slot_detected(self, env):
        rs = build_cache_string(4 * KB, env, seed=1)
        rs.chain[0] = rs.footprint + 64
        assert not verify_cycle(rs, env.pagesize)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 32), kexp=st.integers(3, 13), o=st.integers(0, 63))
def test_gap_strings_always_cycle(n, kexp, o):
    env = MachineEnv(pagesize=4096)
    rs = build_gap_string(n, 1 << kexp, o * env.word, env)
    assert verify_cycle(rs, env.pagesize)
    assert rs.chain[0] == max(rs.chain)
    assert rs.chain == sorted(rs.chain, reverse=True)


@settings(max_examples=40, deadline=None)
@given(kb=st.integers(1, 256), seed=st.integers(0, 2**63))
def test_cache_strings_always_cycle(kb, seed):
    env = MachineEnv(pagesize=4096)
    rs = build_cache_string(kb * KB, env, seed)
    assert verify_cycle(rs, env.pagesize)
    if kb * KB >= env.pagesize:
        full_pages = kb * KB // env.pagesize
        assert len({off // 4096 for off in rs.chain}) == \
            full_pages + (1 if kb * KB % 4096 else 0)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), pages=st.integers(2, 64), seed=st.integers(0, 2**63))
def test_tlb_strings_always_cycle(n, pages, seed):
    env = MachineEnv(pagesize=4096)
    rs = build_tlb_string(n, pages * 4096, env, seed)
    assert verify_cycle(rs, env.pagesize)
    assert rs.chain_length == n * pages
