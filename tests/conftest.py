import random

import pytest

from memhier import CacheLevel, MachineEnv, SimConfig


@pytest.fixture
def env():
    return MachineEnv(pagesize=4096, word=8, l1_linesize=64)


def naive_single_level_cycles(rs, capacity, assoc, linesize, latency,
                              mem_latency, traversals=2):
    """``naive_cycles`` for a single cache level with identity mapping."""
    config = SimConfig(cache_levels=[CacheLevel(capacity, assoc, linesize,
                                                latency)],
                       memory_latency=mem_latency)
    return naive_cycles(rs, config, traversals)


def _lru_hit(history, key, ways):
    """Whether ``key`` hits in an LRU set of ``ways`` entries whose accesses
    so far are ``history``: it was touched before, and fewer than ``ways``
    other distinct keys were touched since."""
    others = set()
    for past in reversed(history):
        if past == key:
            return True
        others.add(past)
        if len(others) >= ways:
            return False
    return False


def naive_cycles(rs, config, traversals=2):
    """Brute-force cost model of a multi-level cache and TLB hierarchy,
    written independently of the simulator.

    Cache level j sees exactly the accesses that missed every cache level
    above it, and TLB level j the accesses that missed every TLB level above
    it.  Within that stream an access hits iff its line (or page) is an LRU
    hit in its set (a TLB is one set).  Scans each set's access history
    instead of keeping LRU state.  The first traversal is an untimed warm-up.
    """
    pagesize = config.pagesize
    if config.mapping_seed is None:
        frames = None
    else:
        rng = random.Random((config.mapping_seed << 32) ^ rs.seed)
        frames = list(range(-(-rs.footprint // pagesize)))
        rng.shuffle(frames)
    tlbs = [(tl.entries, tl.latency, []) for tl in config.tlb_levels]
    caches = [(lvl.capacity // (lvl.associativity * lvl.linesize),
               lvl.associativity, lvl.linesize, lvl.latency, {})
              for lvl in config.cache_levels]
    total = 0
    for i, vaddr in enumerate(rs.chain * (traversals + 1)):
        page, offset = divmod(vaddr, pagesize)
        paddr = vaddr if frames is None else frames[page] * pagesize + offset
        cost = 0
        for entries, penalty, history in tlbs:
            hit = _lru_hit(history, page, entries)
            history.append(page)
            if hit:
                break
            cost += penalty
        for nsets, ways, linesize, latency, sets in caches:
            line = paddr // linesize
            history = sets.setdefault(line % nsets, [])
            hit = _lru_hit(history, line, ways)
            history.append(line)
            if hit:
                cost += latency
                break
        else:
            cost += config.memory_latency
        if i >= len(rs.chain):  # first traversal is warm-up
            total += cost
    return total / (traversals * len(rs.chain))
