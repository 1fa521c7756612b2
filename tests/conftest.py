import random

import pytest

from memhier import CacheLevel, MachineEnv, SimConfig
from memhier.refstring import CacheKind, GapKind, TlbKind


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


class JitterBackend:
    """Wraps a backend and adds non-negative noise to each run's cycles per
    access.

    Used to exercise the minimum-filtering stability discipline; the noise is
    additive and positive, so minima still converge to the noise-free value.
    """

    def __init__(self, inner, seed=0, zero_prob=0.4, scale=1.0):
        self.inner = inner
        self._rng = random.Random(seed)
        self.zero_prob = zero_prob
        self.scale = scale

    def run(self, rs, loads):
        cycles = self.inner.run(rs, loads)
        if self._rng.random() >= self.zero_prob:
            cycles += self._rng.expovariate(1.0 / self.scale)
        return cycles


class NoRunBackend:
    """A backend on which no string may run: for inputs that must be
    rejected before the first measurement."""

    def run(self, rs, loads):
        raise AssertionError("a string ran on a backend that allows none")


def verify_cycle(rs, pagesize):
    """Check the single-cycle invariant and the per-kind placement rules of
    a string built for pages of ``pagesize`` bytes."""
    chain = rs.chain
    if len(chain) < 2:
        return False
    seen = set(chain)
    if len(seen) != len(chain):
        return False
    if min(chain) < 0 or max(chain) >= rs.footprint:
        return False
    kind = rs.kind
    if isinstance(kind, GapKind):
        # Descending address order, from the offset slot down to 0.
        expected = [(kind.n - 1) * kind.k + kind.o]
        expected.extend(i * kind.k for i in range(kind.n - 2, -1, -1))
        return chain == expected
    if isinstance(kind, CacheKind):
        return _check_cache_placement(rs, pagesize)
    if isinstance(kind, TlbKind):
        return _check_tlb_placement(rs, kind, pagesize)
    return False


def _check_cache_placement(rs, pagesize):
    # One slot per line block per page, pages never revisited once left, and
    # every page's blocks fully covered at one uniform line stride.
    by_page = {}
    page = None
    for off in rs.chain:
        p = off // pagesize
        if p != page:
            if p in by_page:
                return False
            by_page[p] = []
            page = p
        by_page[p].append(off - p * pagesize)
    full = [offs for offs in by_page.values() if len(offs) > 1]
    if not full:
        return False
    counts = {len(offs) for offs in by_page.values()}
    # At most two distinct slot counts: full pages and one truncated tail.
    if len(counts) > 2:
        return False
    lines_full = max(counts)
    ls = pagesize // lines_full if rs.footprint >= pagesize else rs.footprint // lines_full
    if ls <= 0:
        return False
    for offs in by_page.values():
        if sorted(offs) != [i * ls for i in range(len(offs))]:
            return False
    return True


def _check_tlb_placement(rs, kind, pagesize):
    counts = {}
    for off in rs.chain:
        counts[off // pagesize] = counts.get(off // pagesize, 0) + 1
    if any(c != kind.lines_per_page for c in counts.values()):
        return False
    return len(counts) * pagesize == kind.footprint


class CountingBackend:
    """Wraps a backend, counts its string runs and records the kind of each;
    with the inner backend's ``least`` if it has one."""

    def __init__(self, inner):
        self.inner = inner
        if hasattr(inner, "least"):
            self.least = inner.least
        self.runs = 0
        self.kinds = []

    def run(self, rs, loads):
        self.runs += 1
        self.kinds.append(rs.kind)
        return self.inner.run(rs, loads)


class Inexact:
    """The simulator's runs without its ``least``, as on the real backend:
    no point settles before its full window."""

    def __init__(self, inner):
        self.inner = inner

    def run(self, rs, loads):
        return self.inner.run(rs, loads)


class DriftingBackend:
    """Wraps a backend and scales each run's cycles by 1 + ``rate`` times the
    runs before it: a machine whose speed drifts steadily during a probe.
    Without a ``least``."""

    def __init__(self, inner, rate):
        self.inner = inner
        self.rate = rate
        self.runs = 0

    def run(self, rs, loads):
        cycles = self.inner.run(rs, loads) * (1 + self.rate * self.runs)
        self.runs += 1
        return cycles
