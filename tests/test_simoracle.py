from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memhier import (CacheLevel, ConfigError, MachineEnv, SimConfig,
                     SimulatedBackend, TlbLevel, build_cache_string,
                     build_gap_string, build_tlb_string, parse_config,
                     simulate)
from memhier import simoracle
from memhier.refstring import CacheKind, ReferenceString
from memhier.simoracle import format_config

from conftest import naive_cycles, naive_single_level_cycles

KB = 1024


def two_level():
    return SimConfig(cache_levels=[CacheLevel(32 * KB, 8, 64, 3),
                                   CacheLevel(4096 * KB, 16, 64, 15)],
                     memory_latency=100)


class TestCacheModel:
    def test_gap_overflow_hits_next_level(self, env):
        # G(33,1KB,0) on 32KB/8-way/64B: sets 0,16,32,48 each take 8 lines
        # and set 0 takes a 9th.  Under LRU a set accessed cyclically with
        # one line over capacity misses on every one of its 9 accesses.
        rs = build_gap_string(33, 1024, 0, env)
        expected = (24 * 3 + 9 * 15) / 33
        assert simulate(two_level(), rs, 2) == pytest.approx(expected)

    def test_gap_within_associativity_all_hits(self, env):
        rs = build_gap_string(5, 8192, 0, env)
        assert simulate(two_level(), rs, 2) == 3.0

    def test_minimal_gap_all_hits(self, env):
        rs = build_gap_string(2, 512, 0, env)
        assert simulate(two_level(), rs, 2) == 3.0

    def test_cache_string_at_capacity_all_hits(self, env):
        rs = build_cache_string(32 * KB, env, seed=9)
        assert simulate(two_level(), rs, 2) == 3.0

    def test_cache_string_over_capacity(self, env):
        rs = build_cache_string(64 * KB, env, seed=9)
        assert simulate(two_level(), rs, 2) > 3.0

    def test_all_misses_cost_memory_latency(self, env):
        cfg = SimConfig(cache_levels=[CacheLevel(16 * KB, 4, 64, 2)],
                        memory_latency=50)
        rs = build_cache_string(64 * KB, env, seed=1)
        assert simulate(cfg, rs, 2) == 50.0

    def test_determinism(self, env):
        rs = build_cache_string(48 * KB, env, seed=4)
        cfg = two_level()
        assert simulate(cfg, rs, 2) == simulate(cfg, rs, 2)

    def test_matches_independent_counter(self, env):
        # Dual-implementation check against the brute-force stack-distance
        # counter, over strings small enough for the O(n^2) scan.
        cfg = SimConfig(cache_levels=[CacheLevel(4 * KB, 2, 64, 3)],
                        memory_latency=40)
        for seed in (1, 2, 3):
            rs = build_cache_string(6 * KB, env, seed=seed)
            want = naive_single_level_cycles(rs, 4 * KB, 2, 64, 3, 40)
            assert simulate(cfg, rs, 2) == pytest.approx(want)
        gap = build_gap_string(9, 512, 0, env)
        want = naive_single_level_cycles(gap, 4 * KB, 2, 64, 3, 40)
        assert simulate(cfg, gap, 2) == pytest.approx(want)


class TestTlbModel:
    def tlb_config(self, entries, penalty=30):
        return SimConfig(cache_levels=[CacheLevel(16 * 1024 * KB, 16, 64, 3)],
                         tlb_levels=[TlbLevel(entries, penalty)],
                         memory_latency=200)

    def test_fits_in_tlb_no_penalty(self, env):
        rs = build_tlb_string(2, 64 * 4096, env, seed=1)
        assert simulate(self.tlb_config(64), rs, 2) == 3.0
        assert simulate(self.tlb_config(128), rs, 2) == 3.0

    def test_over_tlb_pays_penalty(self, env):
        rs = build_tlb_string(1, 128 * 4096, env, seed=1)
        # 128 pages cycled through a 64-entry LRU TLB miss on every access.
        assert simulate(self.tlb_config(64), rs, 2) == 33.0
        assert simulate(self.tlb_config(128), rs, 2) == 3.0

    def test_full_miss_costs_sum_of_penalties(self, env):
        cfg = SimConfig(cache_levels=[CacheLevel(16 * 1024 * KB, 16, 64, 3)],
                        tlb_levels=[TlbLevel(16, 10), TlbLevel(64, 100)],
                        memory_latency=200)
        rs = build_tlb_string(1, 128 * 4096, env, seed=1)
        assert simulate(cfg, rs, 2) == 3.0 + 10 + 100
        rs_mid = build_tlb_string(1, 32 * 4096, env, seed=1)
        assert simulate(cfg, rs_mid, 2) == 3.0 + 10


class TestMapping:
    def test_random_mapping_preserves_page_offsets(self, env):
        # Distances within a page hold in both address spaces: a string that
        # stays inside one page is mapping-invariant.
        cfg = SimConfig(cache_levels=[CacheLevel(4 * KB, 2, 64, 3)],
                        memory_latency=40)
        rnd = SimConfig(cache_levels=[CacheLevel(4 * KB, 2, 64, 3)],
                        memory_latency=40, mapping_seed=99)
        rs = build_gap_string(9, 256, 0, env)
        assert simulate(cfg, rs, 2) == simulate(rnd, rs, 2)

    def test_random_mapping_deterministic(self, env):
        rnd = SimConfig(cache_levels=[CacheLevel(32 * KB, 8, 64, 3)],
                        memory_latency=40, mapping_seed=5)
        rs = build_cache_string(64 * KB, env, seed=17)
        assert simulate(rnd, rs, 2) == simulate(rnd, rs, 2)


class TestConfigValidation:
    def test_capacity_divisibility(self):
        with pytest.raises(ConfigError):
            SimConfig(cache_levels=[CacheLevel(1000, 3, 64, 3)]).validate()

    def test_levels_must_grow(self):
        with pytest.raises(ConfigError):
            SimConfig(cache_levels=[CacheLevel(32 * KB, 8, 64, 3),
                                    CacheLevel(16 * KB, 8, 64, 15)]).validate()

    def test_memory_slower_than_last_level(self):
        with pytest.raises(ConfigError):
            SimConfig(cache_levels=[CacheLevel(32 * KB, 8, 64, 3)],
                      memory_latency=2).validate()

    @pytest.mark.parametrize("memory", [-5, 0])
    def test_memory_latency_positive_without_caches(self, memory):
        # With no cache level, memory's latency is every access's base.
        with pytest.raises(ConfigError):
            SimConfig(cache_levels=[], tlb_levels=[TlbLevel(64, 30)],
                      memory_latency=memory).validate()
        with pytest.raises(ConfigError):
            parse_config("pagesize 4096\ntlb 64 30\nmemory %d\n" % memory)

    def test_parse_roundtrip(self):
        cfg = SimConfig(cache_levels=[CacheLevel(32 * KB, 8, 64, 3),
                                      CacheLevel(256 * KB, 8, 64, 13)],
                        tlb_levels=[TlbLevel(64, 30)],
                        memory_latency=120, pagesize=4096, mapping_seed=3)
        assert parse_config(format_config(cfg)) == cfg

    def test_parse_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_config("cache 32768 eight 64 3\n")
        with pytest.raises(ConfigError):
            parse_config("flux_capacitor 1\n")
        with pytest.raises(ConfigError):
            parse_config("mapping identity whatever\n")

    def test_parse_comments_and_blanks(self):
        cfg = parse_config("# a hierarchy\npagesize 4096\n\n"
                           "cache 32768 8 64 3  # L1\nmemory 90\n")
        assert cfg.cache_levels == [CacheLevel(32768, 8, 64, 3)]
        assert cfg.memory_latency == 90


#: Config-like text: known directives, numbers and junk, one line at a time.
_config_words = st.one_of(
    st.sampled_from(["pagesize", "cache", "tlb", "memory", "mapping",
                     "identity", "random", "#", "\t"]),
    st.integers(-2**70, 2**70).map(str),
    st.text(max_size=4))
_config_text = st.lists(st.lists(_config_words, max_size=6).map(" ".join),
                        max_size=8).map("\n".join)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(_config_text, st.text()))
def test_parse_config_raises_only_config_error(text):
    try:
        parse_config(text)
    except ConfigError:
        pass


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32), kb=st.integers(4, 64))
def test_backend_reproducible(seed, kb):
    env = MachineEnv(pagesize=4096)
    rs = build_cache_string(kb * KB, env, seed)
    be = SimulatedBackend(two_level())
    assert be.run(rs, 2 * rs.chain_length) == be.run(rs, 2 * rs.chain_length)


@st.composite
def hierarchies(draw):
    """0-3 cache levels (any way count, set count and line size), 0-2 TLB
    levels, identity or random mapping."""
    levels = []
    capacity = latency = 0
    for _ in range(draw(st.integers(0, 3))):
        ways = draw(st.integers(1, 12) | st.integers(1, 2))
        linesize = draw(st.sampled_from([32, 64, 128]))
        min_sets = capacity // (ways * linesize) + 1
        nsets = draw(st.integers(min_sets, min_sets + 8))
        capacity = nsets * ways * linesize
        latency += draw(st.integers(1, 10))
        levels.append(CacheLevel(capacity, ways, linesize, latency))
    tlbs = []
    entries = 0
    for _ in range(draw(st.integers(0, 2))):
        entries += draw(st.integers(1, 16))
        tlbs.append(TlbLevel(entries, draw(st.integers(0, 40))))
    return SimConfig(cache_levels=levels, tlb_levels=tlbs,
                     memory_latency=latency + draw(st.integers(1, 60)),
                     mapping_seed=draw(st.none() | st.integers(0, 2**16)))


@st.composite
def strings(draw):
    env = MachineEnv(pagesize=4096)
    kind = draw(st.sampled_from(["gap", "cache", "tlb", "runs"]))
    if kind == "gap":
        return build_gap_string(draw(st.integers(2, 24)),
                                draw(st.sampled_from([32, 64, 128, 192, 256,
                                                      512, 768, 1024, 4096])),
                                draw(st.sampled_from([0, 32, 64, 128])), env)
    if kind == "runs":
        # 32-byte slots grouped by 128-byte block, so that each line size
        # sees runs of its own; the chain starts inside a group, whose run
        # then wraps around.
        footprint = draw(st.sampled_from([4096, 8192]))
        chain = []
        for block in draw(st.lists(st.integers(0, footprint // 128 - 1),
                                   min_size=2, max_size=12, unique=True)):
            slots = draw(st.permutations(range(4)))[:draw(st.integers(1, 4))]
            chain.extend(block * 128 + slot * 32 for slot in slots)
        start = draw(st.integers(0, len(chain) - 1))
        chain = chain[start:] + chain[:start]
        return ReferenceString(footprint, chain[0], CacheKind(footprint),
                               len(chain), draw(st.integers(0, 2**16)), chain)
    seed = draw(st.integers(0, 2**32))
    if kind == "cache":
        return build_cache_string(draw(st.integers(1, 16)) * KB, env, seed)
    return build_tlb_string(draw(st.integers(1, 4)),
                            draw(st.integers(2, 24)) * 4096, env, seed)


@settings(max_examples=150, deadline=None)
@given(cfg=hierarchies(), rs=strings(), traversals=st.integers(1, 4))
def test_matches_naive_hierarchy(cfg, rs, traversals):
    assert simulate(cfg, rs, traversals) == naive_cycles(rs, cfg, traversals)


#: The closed form declining for both families: the TLBs and the caches
#: take the LRU loop.
NO_CLOSED_FORM = {"_steady_cost": lambda *args: None}


@settings(max_examples=150, deadline=None)
@given(cfg=hierarchies(), rs=strings(), traversals=st.integers(1, 4))
def test_loop_matches_naive_hierarchy(cfg, rs, traversals):
    """The LRU loop on its own, for both families, which prices what the
    closed forms decline."""
    with mock.patch.multiple(simoracle, **NO_CLOSED_FORM):
        assert simulate(cfg, rs, traversals) == \
            naive_cycles(rs, cfg, traversals)


#: Runs whose first timed traversals change the LRU state.
LATE_FIXED_POINTS = [
    # The state after the first timed traversal differs from the state after
    # the warm-up; the one after the second equals the one after the first.
    (SimConfig(cache_levels=[CacheLevel(4 * KB, 1, 64, 3),
                             CacheLevel(8 * KB, 4, 64, 10)],
               memory_latency=50),
     build_cache_string(7 * KB, MachineEnv(pagesize=4096), 379)),
    # The first timed traversal also costs more than every later one.
    (SimConfig(cache_levels=[CacheLevel(384, 2, 64, 3),
                             CacheLevel(768, 6, 64, 10),
                             CacheLevel(3 * KB, 2, 64, 12)],
               tlb_levels=[TlbLevel(22, 27)], memory_latency=56,
               mapping_seed=715),
     build_gap_string(7, 256, 0, MachineEnv(pagesize=4096))),
    # Only the second TLB level's state changes in the first timed
    # traversal, which costs more than every later one.
    (SimConfig(cache_levels=[CacheLevel(12 * KB, 12, 32, 9),
                             CacheLevel(48 * KB, 16, 128, 19)],
               tlb_levels=[TlbLevel(13, 19), TlbLevel(14, 34)],
               memory_latency=73, mapping_seed=801),
     build_tlb_string(4, 15 * 4096, MachineEnv(pagesize=4096), 727296)),
]


@pytest.mark.parametrize("cfg, rs", LATE_FIXED_POINTS)
def test_late_fixed_point(cfg, rs):
    for traversals in (1, 2, 3, 4):
        assert simulate(cfg, rs, traversals) == \
            naive_cycles(rs, cfg, traversals)


ENV = MachineEnv(pagesize=4096)

#: The README hierarchy, and one with two TLB levels and a 16-way L2.
README_LIKE = SimConfig(cache_levels=[CacheLevel(32 * KB, 8, 64, 3),
                                      CacheLevel(512 * KB, 8, 64, 15)],
                        tlb_levels=[TlbLevel(64, 30)], memory_latency=100,
                        mapping_seed=1)
TWO_TLBS = SimConfig(cache_levels=[CacheLevel(32 * KB, 8, 64, 3),
                                   CacheLevel(1024 * KB, 16, 64, 14)],
                     tlb_levels=[TlbLevel(64, 8), TlbLevel(1024, 30)],
                     memory_latency=100)


@pytest.fixture
def loop_traversals(monkeypatch):
    """Records the family, "tlb" or "cache", of every traversal the LRU
    loop simulates: none means the closed form priced the run.  The family
    is read from the level list the traversal receives, which is one of the
    two lists the level builder returned for that run."""
    calls = []
    built = []
    levels, traverse = simoracle._levels, simoracle._traverse

    def recorded_levels(config):
        built[:] = levels(config)
        return tuple(built)

    def counted(addrs, lvls):
        tlbs, caches = built
        assert lvls is tlbs or lvls is caches
        calls.append("tlb" if lvls is tlbs else "cache")
        return traverse(addrs, lvls)

    monkeypatch.setattr(simoracle, "_levels", recorded_levels)
    monkeypatch.setattr(simoracle, "_traverse", counted)
    return calls


@pytest.mark.parametrize("cfg", [README_LIKE, TWO_TLBS, two_level()])
@pytest.mark.parametrize("rs", [
    build_cache_string(4 * KB, ENV, 3),
    build_cache_string(34 * KB, ENV, 4),      # a part page: mixed L1 sets
    build_cache_string(48 * KB, ENV, 5),
    build_cache_string(600 * KB, ENV, 6),
    build_tlb_string(1, 40 * 4096, ENV, 7),
    build_tlb_string(1, 700 * 4096, ENV, 8),
    build_gap_string(2, 512, 0, ENV),
    build_gap_string(9, 4 * KB, 0, ENV),
    build_gap_string(17, 2 * KB, 64, ENV),
    build_gap_string(33, 1024, 0, ENV),
], ids=repr)
def test_closed_form_taken(cfg, rs, loop_traversals):
    """Cache strings, T(1,k) and gap strings with k >= linesize are priced
    without LRU bookkeeping, at the loop's exact totals."""
    closed = [simulate(cfg, rs, t) for t in (1, 2, 5)]
    assert not loop_traversals
    with mock.patch.multiple(simoracle, **NO_CLOSED_FORM):
        assert [simulate(cfg, rs, t) for t in (1, 2, 5)] == closed
    assert set(loop_traversals) == {"tlb", "cache"}


#: Strings the closed form must hand back to the loop, and the family
#: whose loop prices them; the other family keeps its closed form.
DECLINED = [
    # T(n >= 2, k) shuffles its accesses, so a page's accesses form several
    # runs.
    pytest.param(TWO_TLBS, build_tlb_string(3, 40 * 4096, ENV, 9), "tlb",
                 id="T(3,k)"),
    # The mirror case: one page, so the TLBs take the closed form.
    pytest.param(*LATE_FIXED_POINTS[1], "cache", id="late-gap"),
    pytest.param(*LATE_FIXED_POINTS[2], "tlb", id="late-T(4,k)"),
    # L1 (64-byte lines) passes the slots at 0 and 256 on in every
    # traversal, and the one at 576 only in the warm-up.  In the L2's
    # 32-byte lines, 256 and 576 share a one-way set: the steady stream
    # leaves 256 alone there, but the warm-up evicted it with 576.
    pytest.param(SimConfig(cache_levels=[CacheLevel(256, 1, 64, 4),
                                         CacheLevel(320, 1, 32, 12)],
                           memory_latency=35),
                 build_gap_string(3, 256, 64, ENV), "cache",
                 id="steady-fits-warm-up-overflowed"),
    # 1664 and 1696 share a 64-byte L2 line.  1696 misses L1 in every
    # traversal, 1664 only in the warm-up, where it reached the L2 first:
    # the L2 then hit on 1696, and the L3 never saw it.
    pytest.param(SimConfig(cache_levels=[CacheLevel(64, 1, 32, 2),
                                         CacheLevel(192, 1, 64, 5),
                                         CacheLevel(352, 1, 32, 15)],
                           memory_latency=62),
                 ReferenceString(4096, 3816, CacheKind(4096), 3, 0,
                                 [3816, 1664, 1696]), "cache",
                 id="steady-miss-warm-up-hit"),
    # The L2 line of the chain's first slot comes back at its end, in the
    # warm-up only; so after the warm-up it is the most recent line of its
    # one-way set, and the first timed access to it hits where every later
    # one misses.
    pytest.param(SimConfig(cache_levels=[CacheLevel(192, 3, 32, 10),
                                         CacheLevel(512, 1, 128, 11)],
                           memory_latency=69, mapping_seed=56432),
                 ReferenceString(8192, 5096, CacheKind(8192), 6, 0,
                                 [5096, 5032, 6312, 5600, 5544, 5064]),
                 "cache", id="split-first-run"),
]


@pytest.mark.parametrize("cfg, rs, family", DECLINED)
def test_closed_form_declines(cfg, rs, family, loop_traversals):
    for traversals in (1, 2, 3, 4):
        assert simulate(cfg, rs, traversals) == \
            naive_cycles(rs, cfg, traversals)
    assert set(loop_traversals) == {family}


def test_late_state_change_at_steady_cost(loop_traversals):
    """The first late fixed point changes only the LRU order: its first
    timed traversal costs what every later one does, so the closed form
    prices it."""
    cfg, rs = LATE_FIXED_POINTS[0]
    for traversals in (1, 2, 3, 4):
        assert simulate(cfg, rs, traversals) == \
            naive_cycles(rs, cfg, traversals)
    assert not loop_traversals


@pytest.mark.parametrize("cfg", [TWO_TLBS, README_LIKE],
                         ids=["TWO_TLBS", "README_LIKE"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_shuffled_tlb_string_caches_in_closed_form(cfg, n, loop_traversals):
    """A shuffled T(n>=2,k) splits each page's accesses into several runs,
    so its TLBs take the loop; each of its lines occurs once per chain, so
    its caches take the closed form."""
    for pages in (24, 80):
        rs = build_tlb_string(n, pages * 4096, ENV, 100 * n + pages)
        for traversals in (1, 2, 3, 4):
            assert simulate(cfg, rs, traversals) == \
                naive_cycles(rs, cfg, traversals)
    assert "tlb" in loop_traversals
    assert "cache" not in loop_traversals
