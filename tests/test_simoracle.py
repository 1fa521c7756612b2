from array import array
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from memhier import (CacheLevel, ConfigError, InvalidGeometryError,
                     MachineEnv, SimConfig, SimulatedBackend, TlbLevel,
                     build_cache_string, build_gap_string, build_tlb_string,
                     parse_config, run_once, simulate)
from memhier import simoracle
from memhier.refstring import CacheKind, GapKind, ReferenceString
from memhier.timing import run_sweep

from conftest import _lru_hit, naive_cycles, naive_single_level_cycles

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

    def test_parse_reads_every_directive(self):
        text = ("pagesize 4096\n"
                "cache 32768 8 64 3   # L1\n"
                "cache 262144 8 64 13\n"
                "tlb 64 30\n"
                "memory 120\n"
                "mapping random 3\n")
        assert parse_config(text) == SimConfig(
            cache_levels=[CacheLevel(32 * KB, 8, 64, 3),
                          CacheLevel(256 * KB, 8, 64, 13)],
            tlb_levels=[TlbLevel(64, 30)],
            memory_latency=120, pagesize=4096, mapping_seed=3)

    @pytest.mark.parametrize("pagesize", [8, 32])
    def test_page_smaller_than_a_line_rejected(self, pagesize):
        # The message names the page size and the level's line.
        text = ("pagesize %d\ncache 1024 2 16 2\ncache 32768 8 64 3\n"
                % pagesize)
        with pytest.raises(ConfigError, match="pagesize %d is smaller than "
                           "cache level %d's (16|64)-byte line"
                           % (pagesize, 1 if pagesize < 16 else 2)):
            parse_config(text)
        assert parse_config(text.replace("pagesize %d" % pagesize,
                                         "pagesize 64")).pagesize == 64

    def test_negative_mapping_seed_rejected(self):
        # random.Random(-s) is random.Random(s): (-1 << 32) ^ 0 and
        # (1 << 32) ^ 0 would seed the same page permutation.
        with pytest.raises(ConfigError):
            parse_config("cache 32768 8 64 3\nmapping random -1\n")
        with pytest.raises(ConfigError):
            SimConfig(cache_levels=[CacheLevel(32 * KB, 8, 64, 3)],
                      mapping_seed=-1).validate()
        assert parse_config("cache 32768 8 64 3\nmapping random 0\n"
                            ).mapping_seed == 0

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
    """0-3 cache levels (any way count, set count and line size), 0-3 TLB
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
    for _ in range(draw(st.integers(0, 3))):
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
        return ReferenceString(footprint, CacheKind(footprint, 32, 4096),
                               draw(st.integers(0, 2**16)), chain)
    seed = draw(st.integers(0, 2**32))
    if kind == "cache":
        return build_cache_string(draw(st.integers(1, 16)) * KB, env, seed)
    return build_tlb_string(draw(st.integers(1, 4)),
                            draw(st.integers(2, 24)) * 4096, env, seed)


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
    # Found by search over page sequences: the fourth TLB level misses 8
    # pages in the warm-up, then 1, 7 and 8 in timed traversals 1 to 3,
    # and 8 in every later one.  Its input, the third level's misses,
    # repeats from traversal 2.
    (SimConfig(cache_levels=[CacheLevel(1 * KB, 2, 64, 3)],
               tlb_levels=[TlbLevel(3, 5), TlbLevel(4, 11), TlbLevel(5, 17),
                           TlbLevel(7, 29)],
               memory_latency=40, mapping_seed=5),
     ReferenceString(10 * 4096, CacheKind(10 * 4096, 64, 4096), 0,
                     [page * 4096 + 64 * i for i, page in enumerate(
                         [1, 3, 4, 9, 0, 6, 3, 8, 8, 7, 4])])),
    # The chain is 192, 32, 0.  The closed form prices the L1, where lines 6
    # and 1 overflow one set and line 0 fits another: 0 reaches the L2 in
    # the warm-up only.  Lines 6 and 0 share a one-way L2 set, so the L2
    # misses 192 in timed traversal 1 and nothing in traversal 2.
    (SimConfig(cache_levels=[CacheLevel(160, 1, 32, 1),
                             CacheLevel(192, 1, 32, 2)],
               memory_latency=3),
     build_gap_string(3, 32, 128, MachineEnv(pagesize=4096))),
]

#: The fourth late fixed point's TLBs alone.
TLB_ONLY = replace(LATE_FIXED_POINTS[3][0], cache_levels=[])


@settings(max_examples=150, deadline=None)
@given(cfg=hierarchies(), rs=strings(), traversals=st.integers(1, 6))
@example(cfg=TLB_ONLY, rs=LATE_FIXED_POINTS[3][1], traversals=6)
def test_matches_naive_hierarchy(cfg, rs, traversals):
    assert simulate(cfg, rs, traversals) == naive_cycles(rs, cfg, traversals)


def closed_form_stopping_at(stop, steady=simoracle._steady_cost):
    """``_steady_cost`` handing the caches over to the LRU engine at their
    level ``stop`` at the latest."""
    def stopped(addrs, levels):
        total, i, addrs, reach = steady(addrs, levels[:stop])
        if reach is None:  # a level never misses, so none below does
            i = len(levels)
        return total, i, addrs, reach
    return stopped


#: The closed form stopping at once: the caches take the LRU engine from
#: their first level.
NO_CLOSED_FORM = {"_steady_cost": closed_form_stopping_at(0)}


@settings(max_examples=150, deadline=None)
@given(cfg=hierarchies(), rs=strings(), traversals=st.integers(1, 6))
@example(cfg=TLB_ONLY, rs=LATE_FIXED_POINTS[3][1], traversals=6)
def test_loop_matches_naive_hierarchy(cfg, rs, traversals):
    """The LRU engine on its own for the caches, which prices what the
    closed form declines."""
    with mock.patch.multiple(simoracle, **NO_CLOSED_FORM):
        assert simulate(cfg, rs, traversals) == \
            naive_cycles(rs, cfg, traversals)


@settings(max_examples=150, deadline=None)
@given(cfg=hierarchies(), rs=strings(), traversals=st.integers(1, 6))
@example(cfg=TLB_ONLY, rs=LATE_FIXED_POINTS[3][1], traversals=6)
def test_hand_over_at_every_level_matches_naive_hierarchy(cfg, rs,
                                                          traversals):
    """The closed form handing the caches over to the LRU engine at each of
    their levels in turn, with the streams that reach that level."""
    want = naive_cycles(rs, cfg, traversals)
    for stop in range(len(cfg.cache_levels) + 1):
        with mock.patch.object(simoracle, "_steady_cost",
                               closed_form_stopping_at(stop)):
            assert simulate(cfg, rs, traversals) == want, stop


@pytest.mark.parametrize("cfg, rs", LATE_FIXED_POINTS)
def test_late_fixed_point(cfg, rs):
    for traversals in range(1, 7):
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
def built_levels(monkeypatch):
    """The cache levels of the latest run, as the level builder returned
    them."""
    built = []
    levels = simoracle._levels

    def recorded_levels(config):
        built[:] = levels(config)
        return list(built)

    monkeypatch.setattr(simoracle, "_levels", recorded_levels)
    return built


@pytest.fixture
def tlb_pricing(monkeypatch):
    """A list that is not empty while ``_tlb_cost`` runs: the levels that
    the LRU engine runs then are TLB levels, and cache levels otherwise."""
    running = []
    tlb_cost = simoracle._tlb_cost

    def marked(chain, config, traversals):
        running.append(None)
        try:
            return tlb_cost(chain, config, traversals)
        finally:
            running.pop()

    monkeypatch.setattr(simoracle, "_tlb_cost", marked)
    return running


@pytest.fixture
def level_runs(monkeypatch, tlb_pricing):
    """Every level the LRU engine runs, in order, as whether it is a TLB
    level, the level, and the number of timed traversals it runs."""
    runs = []
    misses = simoracle._lru_misses

    def recorded(streams, lvl):
        runs.append((bool(tlb_pricing), lvl, len(streams) - 1))
        return misses(streams, lvl)

    monkeypatch.setattr(simoracle, "_lru_misses", recorded)
    return runs


def cache_runs(runs):
    """The cache levels among ``level_runs``' records."""
    return [lvl for tlb, lvl, _ in runs if not tlb]


@pytest.fixture
def loop_traversals(monkeypatch, built_levels, tlb_pricing):
    """Records the index among the cache levels of the first level of every
    level list the LRU engine receives for the caches, and of every cache
    level it runs: none means the closed form priced the run.  Every level
    received must be a cache level of the run."""
    calls = []
    cost, misses = simoracle._lru_cost, simoracle._lru_misses

    def first(lvls):
        assert all(lvl in built_levels for lvl in lvls)
        return built_levels.index(lvls[0])

    def counted_cost(streams, lvls, traversals):
        if lvls and not tlb_pricing:
            calls.append(first(lvls))
        return cost(streams, lvls, traversals)

    def counted_misses(streams, lvl):
        if not tlb_pricing:
            calls.append(first([lvl]))
        return misses(streams, lvl)

    monkeypatch.setattr(simoracle, "_lru_cost", counted_cost)
    monkeypatch.setattr(simoracle, "_lru_misses", counted_misses)
    return calls


def handed_over(calls):
    """The index of the first cache level in ``loop_traversals``' records,
    the first that the LRU engine took and where the closed form stopped;
    None if the engine took none."""
    return min(calls, default=None)


@pytest.fixture
def tlb_builds(monkeypatch, tlb_pricing):
    """The entry count of every TLB level the LRU engine runs, in order."""
    built = []
    misses = simoracle._lru_misses

    def recorded(streams, lvl):
        if tlb_pricing:
            built.append(lvl.assoc)
        return misses(streams, lvl)

    monkeypatch.setattr(simoracle, "_lru_misses", recorded)
    return built


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
def test_closed_form_taken(cfg, rs, level_runs, loop_traversals,
                           tlb_builds):
    """Cache strings, T(1,k) and gap strings with k >= linesize are priced
    without LRU bookkeeping in the caches, at the engine's exact totals.
    The closed form prices the first cache level.  Where some L1 sets fit
    and others overflow, as for the part page and G(33, 1K, 0), the L2's
    stream has warm-up-only accesses: the engine takes the L2, which holds
    the whole string, and runs no level.  Each page's accesses form one run, so
    each TLB with fewer entries than the string has pages misses once on
    every page in every traversal, and only those TLBs are built."""
    pages = len({addr // 4096 for addr in rs.chain})
    missed = [tl for tl in cfg.tlb_levels if tl.entries < pages]
    closed = []
    for traversals in (1, 2, 5):
        closed.append(simulate(cfg, rs, traversals))
        assert not cache_runs(level_runs)
        assert simoracle._tlb_cost(rs.chain, cfg, traversals) == \
            traversals * pages * sum(tl.latency for tl in missed)
    assert handed_over(loop_traversals) in (None, 1)
    assert tlb_builds == [tl.entries for tl in missed] * 6
    with mock.patch.multiple(simoracle, **NO_CLOSED_FORM):
        assert [simulate(cfg, rs, t) for t in (1, 2, 5)] == closed
    assert handed_over(loop_traversals) == 0


#: Strings the closed form must hand over to the LRU engine: the index of
#: the first cache level the engine takes, None if it takes none, and the
#: entry counts of the TLB levels that the engine runs in one run.
DECLINED = [
    # T(n >= 2, k) shuffles its accesses, so a page's accesses form several
    # runs, while each line's form one.  Its 40 pages fit the first TLB, so
    # no TLB level is built.
    pytest.param(TWO_TLBS, build_tlb_string(3, 40 * 4096, ENV, 9), None, [],
                 id="T(3,k)"),
    # The mirror case: one page, which fits the TLB.
    pytest.param(*LATE_FIXED_POINTS[1], 1, [], id="late-gap"),
    # 15 pages overflow both TLBs.
    pytest.param(*LATE_FIXED_POINTS[2], None, [13, 14], id="late-T(4,k)"),
    # L1 (64-byte lines) passes the slots at 0 and 256 on in every
    # traversal, and the one at 576 only in the warm-up.  In the L2's
    # 32-byte lines, 256 and 576 share a one-way set: the steady stream
    # leaves 256 alone there, but the warm-up evicted it with 576.
    pytest.param(SimConfig(cache_levels=[CacheLevel(256, 1, 64, 4),
                                         CacheLevel(320, 1, 32, 12)],
                           memory_latency=35),
                 build_gap_string(3, 256, 64, ENV), 1, [],
                 id="steady-fits-warm-up-overflowed"),
    # 1664 and 1696 share a 64-byte L2 line.  1696 misses L1 in every
    # traversal, 1664 only in the warm-up, where it reached the L2 first:
    # the L2 then hit on 1696, and the L3 never saw it.
    pytest.param(SimConfig(cache_levels=[CacheLevel(64, 1, 32, 2),
                                         CacheLevel(192, 1, 64, 5),
                                         CacheLevel(352, 1, 32, 15)],
                           memory_latency=62),
                 ReferenceString(4096, CacheKind(4096, 8, 4096), 0,
                                 [3816, 1664, 1696]),
                 1, [], id="steady-miss-warm-up-hit"),
    # The L2 line of the chain's first slot comes back at its end, in the
    # warm-up only; so after the warm-up it is the most recent line of its
    # one-way set, and the first timed access to it hits where every later
    # one misses.
    pytest.param(SimConfig(cache_levels=[CacheLevel(192, 3, 32, 10),
                                         CacheLevel(512, 1, 128, 11)],
                           memory_latency=69, mapping_seed=56432),
                 ReferenceString(8192, CacheKind(8192, 8, 4096), 0,
                                 [5096, 5032, 6312, 5600, 5544, 5064]),
                 1, [], id="split-first-run"),
    # Pages 0 and 1 alternate through a one-entry TLB, which is built.  The
    # L1 takes the closed form: line 0 comes back as the last run, in a set
    # that fits while the other set overflows, so that run hits in the
    # warm-up too and is not passed on.  Passed on to the L2, where 0 and 32
    # share a line, it would make line 0's run wrap around with a timed
    # access at the chain's start only.  The L1's fitting set passes
    # warm-up-only accesses on, so the engine takes the L2.
    pytest.param(SimConfig(cache_levels=[CacheLevel(64, 1, 32, 2),
                                         CacheLevel(256, 4, 64, 6)],
                           tlb_levels=[TlbLevel(1, 10)], memory_latency=40),
                 ReferenceString(8192, CacheKind(8192, 8, 4096), 0,
                                 [0, 32, 4128, 96, 4256, 8]),
                 1, [1], id="wrapped-run-in-fitting-set"),
]


@pytest.mark.parametrize("cfg, rs, stop, builds", DECLINED)
def test_closed_form_declines(cfg, rs, stop, builds, loop_traversals,
                              tlb_builds):
    for traversals in (1, 2, 3, 4):
        assert simulate(cfg, rs, traversals) == \
            naive_cycles(rs, cfg, traversals)
    assert handed_over(loop_traversals) == stop
    assert tlb_builds == builds * 4


def test_late_state_change_at_steady_cost(level_runs, loop_traversals):
    """The first late fixed point changes only the L2's LRU order: its
    first timed traversal costs what every later one does.  The closed form
    prices the L1, whose direct-mapped sets partly overflow, and hands the
    L2 to the LRU engine; the L2 holds the whole string, so no level is
    run."""
    cfg, rs = LATE_FIXED_POINTS[0]
    for traversals in (1, 2, 3, 4):
        assert simulate(cfg, rs, traversals) == \
            naive_cycles(rs, cfg, traversals)
        assert not cache_runs(level_runs)
    assert handed_over(loop_traversals) == 1


@pytest.mark.parametrize("cfg", [TWO_TLBS, README_LIKE],
                         ids=["TWO_TLBS", "README_LIKE"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_shuffled_tlb_string_caches_in_closed_form(cfg, n, loop_traversals,
                                                   tlb_builds):
    """A shuffled T(n>=2,k) splits each page's accesses into several runs,
    while each of its lines occurs once per chain, so its caches take the
    closed form.  Its TLBs build only the 64-entry level, and only for 80
    pages: 24 fit it, and 80 fit the 1024-entry level below."""
    for pages in (24, 80):
        rs = build_tlb_string(n, pages * 4096, ENV, 100 * n + pages)
        for traversals in (1, 2, 3, 4):
            assert simulate(cfg, rs, traversals) == \
                naive_cycles(rs, cfg, traversals)
    assert handed_over(loop_traversals) is None
    assert tlb_builds == [64] * 4


@pytest.mark.parametrize("pages, built", [(24, []), (64, []), (65, [64]),
                                          (80, [64])])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_fitting_tlb_level_never_simulated(n, pages, built, tlb_builds):
    """A T(n>=2,k)'s TLB walk stops at the first level that holds every
    page: 64 entries hold 24 pages and 64, and 1024 hold 65 and 80.
    Neither that level nor any below it is run."""
    rs = build_tlb_string(n, pages * 4096, ENV, 10 * n + pages)
    for traversals in (1, 2, 3, 4):
        tlb_builds.clear()
        assert simulate(TWO_TLBS, rs, traversals) == \
            naive_cycles(rs, TWO_TLBS, traversals)
        assert tlb_builds == built


#: Runs of the LRU engine: the cache level where the closed form stops at
#: the latest (None: where it stops by itself), the timed traversals the
#: first cache level the engine runs needs, and how many TLB and cache
#: levels it runs.
DEPTHS = [
    pytest.param(TLB_ONLY, LATE_FIXED_POINTS[3][1], None, None, 4, 0,
                 id="four-tlbs"),
    pytest.param(*LATE_FIXED_POINTS[2], None, None, 2, 0, id="late-T(4,k)"),
    pytest.param(*LATE_FIXED_POINTS[1], None, 2, 0, 1, id="late-gap"),
    pytest.param(*LATE_FIXED_POINTS[1], 0, 1, 0, 2,
                 id="late-gap-no-closed-form"),
    pytest.param(*LATE_FIXED_POINTS[4], None, 2, 0, 1, id="hand-over"),
    pytest.param(*LATE_FIXED_POINTS[4], 0, 1, 0, 2,
                 id="hand-over-no-closed-form"),
]


@pytest.mark.parametrize("cfg, rs, stop, first, tlbs, caches", DEPTHS)
def test_timed_traversals_by_depth(cfg, rs, stop, first, tlbs, caches,
                                   level_runs):
    """Each level runs only the timed traversals that its depth needs: the
    TLB at depth d min(t, d); the first cache level handed over min(t, 2)
    where some accesses reach it in the warm-up only, min(t, 1) where every
    access reaches it in every traversal; and each cache level below it one
    more than the level above."""
    for t in range(1, 7):
        level_runs.clear()
        with mock.patch.object(simoracle, "_steady_cost",
                               closed_form_stopping_at(stop)):
            assert simulate(cfg, rs, t) == naive_cycles(rs, cfg, t)
        assert [timed for tlb, _, timed in level_runs if tlb] == \
            [min(t, d) for d in range(1, tlbs + 1)]
        assert [timed for tlb, _, timed in level_runs if not tlb] == \
            [min(t, first + d) for d in range(caches)]


@pytest.fixture
def cache_pricing(monkeypatch, tlb_pricing):
    """Every level that the closed form receives, and the LRU engine outside
    ``_tlb_cost``, and the line size of every run analysis."""
    levels, linesizes = [], []
    steady, cost, runs = (simoracle._steady_cost, simoracle._lru_cost,
                          simoracle._runs)

    def engine(streams, lvls, traversals):
        if not tlb_pricing:
            levels.extend(lvls)
        return cost(streams, lvls, traversals)

    monkeypatch.setattr(simoracle, "_steady_cost", lambda addrs, lvls: (
        levels.extend(lvls) or steady(addrs, lvls)))
    monkeypatch.setattr(simoracle, "_lru_cost", engine)
    monkeypatch.setattr(simoracle, "_runs", lambda addrs, linesize: (
        linesizes.append(linesize) or runs(addrs, linesize)))
    return levels, linesizes


@pytest.mark.parametrize("cfg, rs", [
    (TWO_TLBS, build_tlb_string(3, 80 * 4096, ENV, 5)),
    *LATE_FIXED_POINTS[1:]])
@pytest.mark.parametrize("tlbs_only", [False, True])
def test_tlbs_reach_no_cache_pricing(cfg, rs, tlbs_only, built_levels,
                                     cache_pricing):
    """The TLBs reach the LRU engine from ``_tlb_cost`` alone: only cache
    levels reach the closed form and the engine's cache calls, and each run
    analysis is at a cache level's line size, with the caches or without
    them."""
    if tlbs_only:
        cfg = replace(cfg, cache_levels=[])
    received, linesizes = cache_pricing
    for traversals in (1, 3):
        assert simulate(cfg, rs, traversals) == \
            naive_cycles(rs, cfg, traversals)
        assert all(lvl in built_levels for lvl in received)
        assert set(linesizes) <= {lvl.linesize for lvl in cfg.cache_levels}
        received.clear()
        linesizes.clear()


def test_fitting_level_below_a_wider_line_is_simulated():
    """The L3 holds all three of the chain's lines, but its 32-byte lines
    lie within the L2's 64-byte ones: 1696 reaches it in the timed
    traversals only (see "steady-miss-warm-up-hit"), and misses once."""
    cfg = SimConfig(cache_levels=[CacheLevel(64, 1, 32, 2),
                                  CacheLevel(192, 1, 64, 5),
                                  CacheLevel(1024, 1, 32, 15)],
                    memory_latency=62)
    rs = ReferenceString(4096, CacheKind(4096, 8, 4096), 0,
                         [3816, 1664, 1696])
    for traversals in (1, 2, 3):
        assert simulate(cfg, rs, traversals) == \
            naive_cycles(rs, cfg, traversals)


def family_streams(cfg, rs):
    """The physical address stream and the cache levels of one run."""
    streams = []

    def recorded(addrs, levels, traversals):
        streams.append((addrs, levels))
        return 0, False

    with mock.patch.object(simoracle, "_family_cost", recorded):
        simulate(cfg, rs, 1)
    return streams


def fresh_streams(addrs, analysis, lvl, lru_level=simoracle._lru_level):
    """``_lru_level`` passing on a copy of its stream, so that no level
    below reuses its run analysis."""
    level = lru_level(addrs, analysis, lvl)
    if level[1] is None:
        return level
    misses, passed, reach = level
    return misses, array("q", passed), reach


@settings(max_examples=300, deadline=None)
@given(cfg=hierarchies(), rs=strings())
def test_reused_run_analysis_matches_fresh_one(cfg, rs):
    """Reusing the run analysis of the level above gives the closed form
    that analysing the stream afresh at every level gives, down to the
    level where it stops and the stream it hands over."""
    def steady(addrs, levels):
        total, stop, passed, reach = simoracle._steady_cost(addrs, levels)
        return total, stop, list(passed), reach

    for addrs, levels in family_streams(cfg, rs):
        reused = steady(addrs, levels)
        with mock.patch.object(simoracle, "_lru_level", fresh_streams):
            assert steady(addrs, levels) == reused


@pytest.fixture
def analyses(monkeypatch):
    """The line size of every run analysis made."""
    made = []
    runs = simoracle._runs

    def counted(addrs, linesize):
        made.append(linesize)
        return runs(addrs, linesize)

    monkeypatch.setattr(simoracle, "_runs", counted)
    return made


def test_run_analysis_reused_at_same_line_size(analyses, loop_traversals):
    """Every L1 set overflows with 64 lines of the 256 KB string, each
    access its own run: the L2 sees the L1's stream and reuses its
    analysis."""
    rs = build_cache_string(256 * KB, ENV, 21)
    for traversals in (1, 2):
        assert simulate(two_level(), rs, traversals) == \
            naive_cycles(rs, two_level(), traversals)
    assert analyses == [64, 64]
    assert not loop_traversals


def test_run_analysis_redone_at_new_line_size(analyses, loop_traversals):
    """A 32-byte L1 passes on every access of a cache string to a 64-byte
    L2, whose keys are not the L1's: its stream is analysed again."""
    cfg = SimConfig(cache_levels=[CacheLevel(16 * KB, 4, 32, 3),
                                  CacheLevel(128 * KB, 8, 64, 12)],
                    memory_latency=60)
    rs = build_cache_string(64 * KB, ENV, 22)
    for traversals in (1, 2):
        assert simulate(cfg, rs, traversals) == \
            naive_cycles(rs, cfg, traversals)
    assert analyses == [32, 64] * 2
    assert not loop_traversals


def test_tlbs_take_no_run_analysis(analyses, loop_traversals, tlb_builds):
    """T(1,k) over 80 pages overflows the 64-entry TLB, one access per
    page, and fits the 1024-entry one: the TLBs build the first level only,
    and make no run analysis at the 4,096-byte page size.  The L1 holds the
    string, one analysis at its line size."""
    rs = build_tlb_string(1, 80 * 4096, ENV, 23)
    for traversals in (1, 2):
        assert simulate(TWO_TLBS, rs, traversals) == \
            naive_cycles(rs, TWO_TLBS, traversals)
    assert analyses == [64, 64]
    assert tlb_builds == [64, 64]
    assert not loop_traversals


@st.composite
def lru_streams(draw):
    """An LRU level of one-byte or wider lines and one to six sets, and two
    non-empty streams of addresses over few enough keys that sets overflow
    and keys come back."""
    linesize = draw(st.sampled_from([1, 32, 64, 128]))
    level = simoracle._Level(linesize, draw(st.just(1) | st.integers(1, 6)),
                             draw(st.integers(1, 8)), 1)
    addrs = st.lists(st.builds(lambda key, offset: key * linesize + offset,
                               st.integers(0, 47),
                               st.integers(0, linesize - 1)),
                     min_size=1, max_size=120)
    return level, draw(addrs), draw(addrs)


@settings(max_examples=300, deadline=None)
@given(lru_streams())
def test_engine_level_matches_naive_lru(case):
    """One level of the LRU engine, run over a warm-up stream and a timed
    one twice, misses where a naive LRU set misses, stream by stream: a hit
    in a later stream returns a mark that an earlier stream handed out."""
    lvl, warm, timed = case
    streams = [warm, timed, timed]
    history = {}  # set index -> the keys it saw
    want = []
    for stream in streams:
        want.append([])
        for addr in stream:
            key = addr // lvl.linesize
            seen = history.setdefault(key % lvl.nsets, [])
            if not _lru_hit(seen, key, lvl.assoc):
                want[-1].append(addr)
            seen.append(key)
    assert simoracle._lru_misses(streams, lvl) == want


@st.composite
def seed_free_cases(draw):
    """A hierarchy of 1-3 cache levels with 16- to 256-byte lines and any
    way count, 0-2 TLB levels and 1K or 4K pages, with a cache string of
    64-byte lines for it."""
    pagesize = draw(st.sampled_from([1024, 4096]))
    levels = []
    capacity = latency = 0
    for _ in range(draw(st.integers(1, 3))):
        ways = draw(st.integers(1, 16) | st.integers(1, 2))
        linesize = draw(st.sampled_from([16, 32, 64, 128, 256]))
        min_sets = capacity // (ways * linesize) + 1
        nsets = draw(st.integers(min_sets, min_sets + 12))
        capacity = nsets * ways * linesize
        latency += draw(st.integers(1, 10))
        levels.append(CacheLevel(capacity, ways, linesize, latency))
    tlbs = []
    entries = 0
    for _ in range(draw(st.integers(0, 2))):
        entries += draw(st.integers(1, 16))
        tlbs.append(TlbLevel(entries, draw(st.integers(0, 40))))
    cfg = SimConfig(cache_levels=levels, tlb_levels=tlbs,
                    memory_latency=latency + draw(st.integers(1, 60)),
                    pagesize=pagesize,
                    mapping_seed=draw(st.none() | st.integers(0, 2**16)))
    env = MachineEnv(pagesize=pagesize)
    return cfg, env, draw(st.integers(1, 24)) * KB


@settings(max_examples=300, deadline=None)
@given(case=seed_free_cases(),
       seeds=st.lists(st.integers(0, 2**32), min_size=5, max_size=5,
                      unique=True),
       mappings=st.lists(st.integers(0, 2**16), min_size=2, max_size=2))
def test_seed_free_kind_reads_the_same_at_every_seed(case, seeds, mappings):
    """A kind whose least a run raises above the floor to its read reads
    bit-equal at other string seeds, under its own mapping, identity and
    two random ones, when each is simulated."""
    cfg, env, footprint = case
    be = SimulatedBackend(cfg)
    rs = build_cache_string(footprint, env, seeds[0])
    cycles = run_once(rs, be)
    if not cfg.cache_levels[0].latency < cycles == be.least(rs.kind):
        return
    for mapping in [cfg.mapping_seed, None] + mappings:
        other = replace(cfg, mapping_seed=mapping)
        for seed in seeds[1:]:
            assert simulate(other, build_cache_string(footprint, env, seed),
                            2) == cycles


def test_whole_pages_and_sub_page_footprints_are_seed_free():
    # After one run the least of each kind is its read: 64 KiB and 600 KiB
    # read above the 3-cycle floor.  66 KiB ends in a part page, so its
    # kind keeps the floor.
    be = SimulatedBackend(README_LIKE)
    for kb in (1, 3, 4, 64, 600):
        rs = build_cache_string(kb * KB, ENV, kb)
        assert run_once(rs, be) == be.least(rs.kind)
    assert be.least(CacheKind(64 * KB, 64, 4096)) == 15
    assert be.least(CacheKind(600 * KB, 64, 4096)) > 15
    rs = build_cache_string(66 * KB, ENV, 66)
    assert run_once(rs, be) == 15
    assert be.least(rs.kind) == 3


@pytest.mark.parametrize("pagesize, slot", [
    (pagesize, slot) for pagesize in (1024, 4096)
    for slot in (16, 32, 48, 64, 128, 256, pagesize * 3 // 4)])
def test_seed_free_reads_the_slot_spacing_off_the_kind(pagesize, slot):
    # The spacing ``_seed_free`` reads off a cache kind of whole pages or
    # at most one page is the smallest gap between its slots in address
    # order: a level whose line is that wide passes, one a byte wider not.
    # Three-quarter-page slots lie one to a page.
    env = MachineEnv(pagesize=pagesize, l1_linesize=slot)

    def widest_line(linesize):
        return SimConfig(cache_levels=[CacheLevel(linesize, 1, linesize, 3)],
                         memory_latency=100, pagesize=pagesize)

    footprints = [kb * KB for kb in range(1, pagesize // KB)]
    footprints += [pages * pagesize for pages in range(1, 5)]
    for footprint in footprints:
        try:
            rs = build_cache_string(footprint, env, 1)
        except InvalidGeometryError:  # fewer than two slots
            continue
        ordered = sorted(rs.chain)
        gap = min(b - a for a, b in zip(ordered, ordered[1:]))
        assert simoracle._seed_free(widest_line(gap), rs.kind)
        assert not simoracle._seed_free(widest_line(gap + 1), rs.kind)


def looped(cfg, rs):
    """Whether the LRU engine ran a cache level."""
    return simoracle._simulate_loads(cfg, rs, rs.chain_length)[1]


#: Cache strings that meet every condition of the seed-free rule but one.
NOT_SEED_FREE = [
    # 5 KiB on 4 KiB pages: the part page's lines land at different
    # physical addresses under different page permutations.
    pytest.param(README_LIKE, build_cache_string(5 * KB, ENV, 1), False,
                 id="part-page"),
    # The string fits the L1, but a 128-byte L2 line holds two of its
    # 64-byte slots.
    pytest.param(SimConfig(cache_levels=[CacheLevel(32 * KB, 8, 64, 3),
                                         CacheLevel(512 * KB, 8, 128, 15)],
                           memory_latency=100, mapping_seed=1),
                 build_cache_string(16 * KB, ENV, 2), False,
                 id="line-holds-two-slots"),
    # Three L1 sets share the two pages' 128 lines 43, 43 and 42: two
    # overflow their 42 ways and the third fits, so the L2's stream has
    # warm-up-only accesses and the LRU engine takes it.  Its 254 one-way sets
    # of 32-byte lines do not fit the string (lines 0 and 127 share set
    # 0), so it is simulated.
    pytest.param(SimConfig(cache_levels=[CacheLevel(3 * 42 * 64, 42, 64, 3),
                                         CacheLevel(254 * 32, 1, 32, 10)],
                           memory_latency=100),
                 build_cache_string(8 * KB, ENV, 3), True, id="lru-loop"),
]


@pytest.mark.parametrize("cfg, rs, loops", NOT_SEED_FREE)
def test_not_seed_free(cfg, rs, loops):
    # Each kind keeps the floor, the L1's 3 cycles, after its run.
    be = SimulatedBackend(cfg)
    run_once(rs, be)
    assert looped(cfg, rs) == loops
    assert be.least(rs.kind) == 3


#: README_LIKE with a 64K/8/64 L1, whose way of 128 sets spans two pages.
WIDE_WAY = replace(README_LIKE, cache_levels=[
    CacheLevel(64 * KB, 8, 64, 3), CacheLevel(1024 * KB, 16, 64, 15)])


#: TWO_TLBS with a 16K/4/128 L1, whose 32 sets are indexed inside the page,
#: and its 64-entry TLB alone.
TWO_COLUMNS_A_SET = replace(
    TWO_TLBS, cache_levels=[CacheLevel(16 * KB, 4, 128, 3),
                            TWO_TLBS.cache_levels[1]],
    tlb_levels=[TlbLevel(64, 30)])


@pytest.mark.parametrize("cfg, rs, least", [
    # 40 pages fit the 64-entry TLB, 80 miss it on every access, and 2,048
    # miss both of TWO_TLBS's TLBs, at 8 and 30 cycles.
    pytest.param(README_LIKE, build_tlb_string(1, 40 * 4096, ENV, 7), 3,
                 id="T(1,40-pages)"),
    pytest.param(README_LIKE, build_tlb_string(1, 80 * 4096, ENV, 7), 3 + 30,
                 id="T(1,80-pages)"),
    pytest.param(TWO_TLBS, build_tlb_string(1, 80 * 4096, ENV, 7), 3 + 8,
                 id="T(1,80-pages)-two-tlbs"),
    # Each of the 64 columns holds 32 slots, so every 8-way set of the L1
    # misses too: its penalty is 14 - 3.  The L2's way spans 16 pages.
    pytest.param(TWO_TLBS, build_tlb_string(1, 2048 * 4096, ENV, 7),
                 3 + 8 + 30 + 11, id="T(1,2048-pages)-two-tlbs"),
    # Past the L1 edge (512 pages) each column holds 10 slots: the L1's
    # 15 - 3 on top of the TLB's 30.  At the edge each set fits its 8.
    pytest.param(README_LIKE, build_tlb_string(1, 640 * 4096, ENV, 7),
                 3 + 30 + 12, id="T(1,640-pages)"),
    pytest.param(README_LIKE, build_tlb_string(1, 512 * 4096, ENV, 7),
                 3 + 30, id="T(1,512-pages)"),
    # 600 = 9 * 64 + 24 pages: every column holds 9 or 10 slots.  575 =
    # 8 * 64 + 63 leaves one column of 8, whose set fits.
    pytest.param(README_LIKE, build_tlb_string(1, 600 * 4096, ENV, 7),
                 3 + 30 + 12, id="T(1,600-pages)"),
    pytest.param(README_LIKE, build_tlb_string(1, 575 * 4096, ENV, 7),
                 3 + 30, id="T(1,575-pages)"),
    # A way larger than a page: the mapping decides a slot's set.
    pytest.param(WIDE_WAY, build_tlb_string(1, 2048 * 4096, ENV, 7),
                 3 + 30, id="T(1,2048-pages)-wide-way"),
    # The walk stops there, though each set of a 17-way L2 below, indexed
    # inside the page offset, holds 20 lines: the L1 hits some accesses.
    pytest.param(replace(WIDE_WAY, cache_levels=[
        WIDE_WAY.cache_levels[0], CacheLevel(68 * KB, 17, 64, 15)]),
        build_tlb_string(1, 1280 * 4096, ENV, 7), 3 + 30,
        id="T(1,1280-pages)-wide-way-above-page-way"),
    # The 32 sets of a 16K/4/128 L1 each take two 64-byte columns.  At 192
    # pages each column holds 3 slots, under the 4 ways, but each set 6
    # lines: the L1's 14 - 3 on top of the TLB's 30.  At 128 pages each set
    # fits its 4.
    pytest.param(TWO_COLUMNS_A_SET, build_tlb_string(1, 192 * 4096, ENV, 7),
                 3 + 30 + 11, id="T(1,192-pages)-two-columns-a-set"),
    pytest.param(TWO_COLUMNS_A_SET, build_tlb_string(1, 128 * 4096, ENV, 7),
                 3 + 30, id="T(1,128-pages)-two-columns-a-set"),
    # Two lines of a page share its TLB entry: the floor.
    pytest.param(README_LIKE, build_tlb_string(2, 80 * 4096, ENV, 8), 3,
                 id="T(2,80-pages)"),
    # Built for 4 KiB pages, each of the 40 slots is in its own 1 KiB page
    # of the 160 its footprint spans: 40 fit the TLB, so the floor.
    pytest.param(replace(README_LIKE, pagesize=1024),
                 build_tlb_string(1, 40 * 4096, ENV, 7), 3,
                 id="T(1,40-pages)-on-1K-pages"),
    # A gap kind's one string: its read.
    pytest.param(README_LIKE, build_gap_string(9, 4 * KB, 0, ENV), 15,
                 id="G(9,4K,0)"),
    pytest.param(README_LIKE, build_gap_string(2, 512, 0, ENV), 3,
                 id="G(2,512,0)"),
])
def test_least_of_each_kind(cfg, rs, least):
    # The config and a T(1,k) kind fix its least before any run; a gap
    # kind starts at the floor, and its run shows its read.
    be = SimulatedBackend(cfg)
    assert be.least(rs.kind) == (3 if isinstance(rs.kind, GapKind)
                                 else least)
    cycles = run_once(rs, be)
    assert be.least(rs.kind) == least <= cycles


def simulated_runs(monkeypatch):
    """The arguments of every ``_simulate_loads`` call from here on."""
    calls = []
    real = simoracle._simulate_loads
    monkeypatch.setattr(simoracle, "_simulate_loads",
                        lambda *args: calls.append(args) or real(*args))
    return calls


@pytest.mark.parametrize("build", [
    lambda seed: build_cache_string(64 * KB, ENV, seed),
    lambda seed: build_cache_string(3 * KB, ENV, seed),
    lambda seed: build_gap_string(9, 4 * KB, 0, ENV),
], ids=["C(64K)", "C(3K)", "G(9,4K,0)"])
def test_seed_free_kind_is_answered_from_its_read(build, monkeypatch):
    # After one run proves the kind seed-free, its other strings, at any
    # number of traversals, read that run's value bit for bit without a
    # simulation; a fresh backend that simulates one agrees.
    be = SimulatedBackend(README_LIKE)
    cycles = run_once(build(1), be)
    calls = simulated_runs(monkeypatch)
    for seed, traversals in ((2, 2), (3, 1), (4, 5)):
        rs = build(seed)
        assert be.run(rs, traversals * rs.chain_length) == cycles
    assert calls == []
    rs = build(5)
    assert SimulatedBackend(README_LIKE).run(rs, 3 * rs.chain_length) \
        == cycles
    assert len(calls) == 1


def test_loads_must_be_a_positive_whole_number_of_traversals():
    # Before and after a run makes the kind's read known.
    be = SimulatedBackend(README_LIKE)
    rs = build_cache_string(64 * KB, ENV, 1)
    for _ in range(2):
        for loads in (0, -rs.chain_length, rs.chain_length + 1):
            with pytest.raises(ConfigError):
                be.run(rs, loads)
        run_once(rs, be)


@pytest.mark.parametrize("cfg, rs, loops", NOT_SEED_FREE + [
    pytest.param(README_LIKE, build_tlb_string(1, 640 * 4096, ENV, 7), False,
                 id="T(1,640-pages)")])
def test_other_kinds_are_simulated_every_time(cfg, rs, loops, monkeypatch):
    # A looped run, or one of a kind that is not seed-free, answers for no
    # other run.
    assert looped(cfg, rs) == loops
    be = SimulatedBackend(cfg)
    calls = simulated_runs(monkeypatch)
    reads = {run_once(rs, be) for _ in range(3)}
    assert len(calls) == 3 and len(reads) == 1


def test_a_kind_carries_its_line_size():
    # A 64 KiB string of 32-byte slots reads 9 on README_LIKE: two slots
    # share each 64-byte line, so it is not seed-free and its point runs
    # the full window.  A 64-byte-slot string of the same footprint reads
    # 15 there, its least, which must not settle the 32-byte point.
    env32 = MachineEnv(pagesize=4096, l1_linesize=32)

    def sweep(be):
        return run_sweep([64 * KB],
                         lambda fp, s: build_cache_string(fp, env32, s), be)

    fresh = sweep(SimulatedBackend(README_LIKE))
    shared = SimulatedBackend(README_LIKE)
    assert run_once(build_cache_string(64 * KB, ENV, 1), shared) == 15
    after = sweep(shared)
    assert after.points[0].min_cycles == fresh.points[0].min_cycles == 9
    assert after.total_string_runs == fresh.total_string_runs == 26


@pytest.mark.parametrize("cfg, build", [
    # 48-byte slots leave 16 bytes of each page empty: 168 slots over 1 KiB
    # pages, 170 over 4 KiB pages.  The first kind is seed-free here.
    pytest.param(SimConfig(cache_levels=[CacheLevel(15 * 8 * 32, 8, 32, 3)],
                           memory_latency=100, pagesize=1024),
                 lambda env: build_cache_string(8 * KB, replace(
                     env, l1_linesize=48), 1), id="C(8K)-48-byte-slots"),
    # One slot in each of 160 1 KiB pages misses the 64-entry TLB; 40 in
    # 4 KiB pages of the same footprint touch only 40 1 KiB pages.
    pytest.param(replace(README_LIKE, pagesize=1024),
                 lambda env: build_tlb_string(1, 160 * KB, env, 1),
                 id="T(1,160K)"),
])
def test_a_kind_carries_its_page_size(cfg, build):
    # A string built for other pages, of the same footprint and line size,
    # reads what a simulation does, and not below its own kind's least.
    be = SimulatedBackend(cfg)
    run_once(build(MachineEnv(pagesize=1024)), be)
    rs = build(ENV)
    assert run_once(rs, be) == simulate(cfg, rs, 2) >= be.least(rs.kind)


@st.composite
def least_cases(draw):
    """A hierarchy of ``seed_free_cases`` and a builder of strings of one
    kind, taking a seed: T(1,k), T(2,k), a whole-page or any cache string,
    or a gap string.  Strings are built for 16- to 256-byte lines, so their
    slots may be narrower or wider than any level's line.  A T(1,k) string
    may span from the first level's ways to three more times its lines per
    page in pages, where each of its columns holds about as many lines as a
    set has ways.  Half the hierarchies have a first level whose way is a
    page, a half or a quarter of one, so that its sets are indexed inside
    the page offset and its misses may be every T(1,k) string's to pay."""
    cfg, env, footprint = draw(seed_free_cases())
    pagesize = env.pagesize
    first = cfg.cache_levels[0]
    if draw(st.booleans()):
        ways = draw(st.integers(1, 4) | st.integers(1, 16))
        way = pagesize >> draw(st.integers(0, 2))
        first = replace(first, capacity=way * ways, associativity=ways,
                        linesize=draw(st.sampled_from([16, 32, 64, 128,
                                                       256])))
        cfg = replace(cfg, cache_levels=[first] + [
            lvl for lvl in cfg.cache_levels[1:]
            if lvl.capacity > first.capacity])
    env = MachineEnv(pagesize=pagesize,
                     l1_linesize=draw(st.sampled_from([16, 32, 64, 128,
                                                       256])))
    family = draw(st.sampled_from(["T(1,k)", "T(2,k)", "whole-page", "cache",
                                   "gap"]))
    if family == "gap":
        n = draw(st.integers(2, 24))
        k = draw(st.sampled_from([64, 128, 256, 512, 1024, 4096]))
        o = draw(st.sampled_from([0, 8, 64, 128]))
        return cfg, lambda seed: build_gap_string(n, k, o, env)
    if family == "T(1,k)":
        lines_per_page = pagesize // env.l1_linesize
        ways = first.associativity
        pages = draw(st.integers(2, 40) | st.integers(
            ways * lines_per_page, (ways + 3) * lines_per_page))
        return cfg, lambda seed: build_tlb_string(1, pages * pagesize, env,
                                                  seed)
    if family == "T(2,k)":
        pages = draw(st.integers(1, 40))
        return cfg, lambda seed: build_tlb_string(2, pages * pagesize, env,
                                                  seed)
    if family == "whole-page":
        footprint = draw(st.integers(1, 40)) * pagesize
    return cfg, lambda seed: build_cache_string(footprint, env, seed)


@settings(max_examples=300, deadline=None)
@given(case=least_cases(),
       seeds=st.lists(st.integers(0, 2**32), min_size=3, max_size=3,
                      unique=True),
       traversals=st.integers(1, 4))
def test_no_run_reads_below_its_kinds_least(case, seeds, traversals):
    """Every run of a string reads at least its kind's least, before and
    after the backend has learned the kind, and at any number of timed
    traversals; a run the backend answers without simulating reads what a
    simulation does."""
    cfg, build = case
    be = SimulatedBackend(cfg)
    for seed in seeds:
        rs = build(seed)
        before = be.least(rs.kind)
        cycles = run_once(rs, be)
        assert cycles == simulate(cfg, rs, 2)
        assert cycles >= max(before, be.least(rs.kind))
        assert simulate(cfg, rs, traversals) >= be.least(rs.kind)
