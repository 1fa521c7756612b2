"""Deterministic set-associative cache / TLB hierarchy simulator.

This is the oracle the probes are validated against: it executes a reference
string symbolically (walking slot offsets, not real memory) and returns the
exact average latency per access.  Caches are set-associative LRU; TLBs are
fully associative LRU, one per level.

The per-access cost model: an access costs the latency of the first cache
level that holds the line (or ``memory_latency`` if none does), plus, for each
TLB level that missed the translation, that level's miss penalty.  A full TLB
miss therefore costs the sum of all levels' penalties, which models the walk.
Each level sees only the accesses that missed every level above it, and
fills on a miss.  The levels are not inclusive: no level evicts from another,
and a hit leaves the levels below untouched (an L1 hit does not refresh the
line's recency in the L2).  So TLB state depends only on the page stream and
cache state only on the physical-address stream, and the two families are
priced apart: the total is the TLBs' miss penalties plus the caches' and
memory's latencies.

Each family is priced in closed form when all its levels allow it, with no
LRU bookkeeping (Mattson, Gecsei, Slutz & Traiger, "Evaluation Techniques for
Storage Hierarchies", IBM Sys. J. 1970).  A TLB is a cache of one set whose
lines are pages.  Take one level and the keys (lines or pages) of the
accesses that reach it, in chain order.  If each key's accesses form one run
when the chain is read cyclically, then in every timed traversal a set
holding at most ``assoc`` keys hits on every access, and a set holding more
misses on the first access of every run and hits on the rest; the misses are
what the next level sees.  The warm-up traversal starts cold, so it misses on
the first access of every run and passes on more than the timed ones do.
The closed form covers the first timed traversal too, so the family's total
is traversals times one traversal's cost, when, level by level:

* the warm-up's keys form one cyclic run each as well;
* no set that fits in the timed traversals held more than ``assoc`` keys in
  the warm-up, which would have evicted some of them;
* every timed miss is also a warm-up miss, so the level below has seen it;
* the run of the warm-up's first key does not hold timed accesses at the
  chain's start only: the warm-up's end would leave that key resident.

Cache strings, T(1,k) and gap strings with a gap of at least a line meet
these in both families.  A shuffled T(n>=2,k) splits each page's accesses
into several runs, so its TLBs take the LRU loop, while its caches, which
see each line once per chain, usually take the closed form.  A family whose
levels do not all meet the checks takes the LRU loop on its own state; the
loop stays the reference, as does the naive model in the tests.  The checks
take two passes over the chain and one byte of seen-flags per key of its
address range.

The loop simulates only as many traversals as it needs.  A family's LRU
state (each TLB's recency order, or each cache set's) after a traversal
depends only on its state before it, because every traversal replays the
same accesses.  So once a timed traversal leaves the state as it found it,
every later traversal costs exactly what that one did.  The simulator
snapshots the family's state before each timed traversal that has a
successor, compares it afterwards, and on a match multiplies out the rest.
Cache sets live in a table keyed by set index and are created on first fill,
so set-up, snapshot and comparison scale with the lines a string touches,
not with cache capacity.
"""

from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass, field
from typing import List, Optional

from .errors import ConfigError
from .refstring import ReferenceString, _shuffle


@dataclass(frozen=True)
class CacheLevel:
    capacity: int
    associativity: int
    linesize: int
    latency: int


@dataclass(frozen=True)
class TlbLevel:
    entries: int
    #: Penalty in cycles added to an access that misses this level.
    latency: int


@dataclass
class SimConfig:
    cache_levels: List[CacheLevel]
    tlb_levels: List[TlbLevel] = field(default_factory=list)
    memory_latency: int = 100
    pagesize: int = 4096
    #: None for identity mapping, otherwise a seed for a random per-page
    #: virtual-to-physical permutation (page offsets always preserved).
    mapping_seed: Optional[int] = None

    def validate(self) -> None:
        if self.pagesize <= 0 or self.pagesize & (self.pagesize - 1):
            raise ConfigError("pagesize must be a power of two")
        prev_cap = prev_lat = 0
        for lvl in self.cache_levels:
            if lvl.capacity <= 0 or lvl.associativity <= 0 or lvl.linesize <= 0:
                raise ConfigError("cache level parameters must be positive")
            if lvl.capacity % (lvl.associativity * lvl.linesize):
                raise ConfigError(
                    "capacity %d not divisible by associativity*linesize" % lvl.capacity)
            if lvl.capacity <= prev_cap or lvl.latency <= prev_lat:
                raise ConfigError("cache levels must increase in capacity and latency")
            prev_cap, prev_lat = lvl.capacity, lvl.latency
        if self.cache_levels and self.memory_latency <= self.cache_levels[-1].latency:
            raise ConfigError("memory latency must exceed the last cache level's")
        prev_ent = 0
        for tl in self.tlb_levels:
            if tl.entries <= prev_ent:
                raise ConfigError("TLB levels must increase in entry count")
            if tl.latency < 0:
                raise ConfigError("TLB miss penalty must be non-negative")
            prev_ent = tl.entries


class _CacheState:
    __slots__ = ("latency", "linesize", "nsets", "assoc", "sets")

    def __init__(self, lvl: CacheLevel):
        self.latency = lvl.latency
        self.linesize = lvl.linesize
        self.assoc = lvl.associativity
        self.nsets = lvl.capacity // (lvl.associativity * lvl.linesize)
        #: set index -> {line: None} in LRU-to-MRU order; a set appears on
        #: its first fill.
        self.sets = {}

    def keys(self):
        """The set count, and the lines of every set in recency order, one
        set after another.

        Sets are never dropped or emptied, new ones are appended, and the
        lines of a set all share its index.  So equal counts and equal
        lines mean that every set holds the same lines in the same order.
        """
        return len(self.sets), array(
            "q", itertools.chain.from_iterable(self.sets.values()))


class _TlbState:
    __slots__ = ("entries", "latency", "pages")

    def __init__(self, lvl: TlbLevel):
        self.entries = lvl.entries
        self.latency = lvl.latency
        #: page -> None in LRU-to-MRU order.
        self.pages = {}

    def keys(self) -> array:
        """The pages in recency order.  An array holds the values, not the
        key objects, which later hits replace with equal ones."""
        return array("q", self.pages)


def simulate(config: SimConfig, rs: ReferenceString, traversals: int) -> float:
    """Average cycles per access over ``traversals`` passes of the chain,
    after one untimed warm-up traversal."""
    if traversals < 1:
        raise ConfigError("traversals must be positive")
    config.validate()
    total = _simulate_loads(config, rs, traversals * rs.chain_length)
    return total / (traversals * rs.chain_length)


def _simulate_loads(config: SimConfig, rs: ReferenceString, loads: int) -> int:
    """Total latency of ``loads`` accesses after one warm-up traversal: the
    TLBs' part plus the caches' part, each in closed form or by the LRU
    loop.

    ``config`` must already be validated.
    """
    chain = rs.chain
    n = len(chain)
    if loads % n:
        raise ConfigError("simulated loads must be a whole number of traversals")

    page_shift = config.pagesize.bit_length() - 1
    page_mask = config.pagesize - 1
    if config.mapping_seed is None:
        paddrs = chain
    else:
        # Fresh page permutation per (config seed, string seed): each rebuild
        # samples a different virtual-to-physical mapping.
        rng = random.Random((config.mapping_seed << 32) ^ rs.seed)
        npages = (rs.footprint + config.pagesize - 1) >> page_shift
        perm = list(range(npages))
        _shuffle(rng, perm)
        paddrs = [(perm[off >> page_shift] << page_shift) | (off & page_mask)
                  for off in chain]

    traversals = loads // n
    total = 0
    steady = _tlb_steady_cost(chain, config)
    if steady is None:
        tlbs = [_TlbState(tl) for tl in config.tlb_levels]
        pages = [off >> page_shift for off in chain]
        total += _loop_cost(_traverse_tlbs, (pages, tlbs), tlbs, traversals)
    else:
        total += steady * traversals
    steady = _cache_steady_cost(paddrs, config)
    if steady is None:
        caches = [_CacheState(lvl) for lvl in config.cache_levels]
        total += _loop_cost(_traverse_caches,
                            (paddrs, caches, config.memory_latency),
                            caches, traversals)
    else:
        total += steady * traversals
    return total


def _loop_cost(traverse, args, levels, traversals: int) -> int:
    """The LRU loop for one family: the total of ``traversals`` timed
    ``traverse(*args)`` calls after one warm-up, where ``levels`` holds the
    family's LRU state."""
    traverse(*args)  # warm-up, untimed
    total = 0
    left = traversals
    while left:
        snapshot = _snapshot(levels) if left > 1 else None
        cost = traverse(*args)
        total += cost
        left -= 1
        if snapshot is not None and _unchanged(snapshot, levels):
            # The state after a traversal depends only on the state before
            # it, so every later traversal repeats this one exactly.
            return total + left * cost
        snapshot = None  # drop it before the next one is built
    return total


def _tlb_steady_cost(chain, config: SimConfig) -> Optional[int]:
    """The TLBs' cost of every timed traversal in closed form, or None where
    the closed form does not apply (see the module docstring)."""
    total = 0
    reach = bytearray(b"\x03") * len(chain)
    for tl in config.tlb_levels:
        misses = _lru_level(chain, reach, config.pagesize, 1, tl.entries)
        if misses is None:
            return None
        total += tl.latency * misses
        if not misses:
            break
    return total


def _cache_steady_cost(paddrs, config: SimConfig) -> Optional[int]:
    """The caches' and memory's cost of every timed traversal in closed
    form, or None where the closed form does not apply."""
    total = 0
    reach = bytearray(b"\x03") * len(paddrs)
    reached = len(paddrs)
    for lvl in config.cache_levels:
        misses = _lru_level(paddrs, reach, lvl.linesize,
                            lvl.capacity // (lvl.associativity * lvl.linesize),
                            lvl.associativity)
        if misses is None:
            return None
        total += lvl.latency * (reached - misses)
        reached = misses
        if not reached:
            return total
    return total + config.memory_latency * reached


def _lru_level(addrs, reach, linesize: int, nsets: int, assoc: int):
    """One LRU level of the closed form.

    ``reach[i]`` says whether access ``i`` of the chain, at ``addrs[i]``,
    reaches the level: 0 never, 1 in the warm-up traversal only, 3 in the
    warm-up and in every timed traversal.  Keys are ``address // linesize``
    in set ``key % nsets``.  Updates ``reach`` for the level below and
    returns the misses of each timed traversal, or None unless every timed
    traversal is known to cost the same.
    """
    # Pass 1: each key's warm-up accesses must form one cyclic run.  Count
    # each set's keys in the warm-up (wkeys) and in the steady stream (skeys).
    flags = bytearray(max(addrs) // linesize + 1)  # 1: warm-up key, 3: steady
    wkeys = [0] * min(nsets, len(flags))
    # The key of the first access that reaches the level.
    first = prev = addrs[len(reach) - len(reach.lstrip(b"\0"))] // linesize
    flags[first] = 1
    wkeys[first % nsets] = 1
    wrapped = False
    for addr, r in zip(addrs, reach):
        if not r:
            continue
        key = addr // linesize
        if key != prev:
            prev = key
            if flags[key] or wrapped:
                # Only the first key may come back, and only as the last run.
                if key != first or wrapped:
                    return None
                wrapped = True
            else:
                flags[key] = 1
                wkeys[key % nsets] += 1
    if reach.find(1) < 0:
        skeys = wkeys
        first_s, last_s = first, prev
    else:
        skeys = [0] * len(wkeys)
        for addr, r in zip(addrs, reach):
            if r == 3:
                key = addr // linesize
                if flags[key] == 1:
                    flags[key] = 3
                    skeys[key % nsets] += 1
        first_s = addrs[reach.find(3)] // linesize
        last_s = addrs[reach.rfind(3)] // linesize

    # A steady set that fits is resident after the warm-up only if the
    # warm-up never overflowed it.
    for count, wcount in zip(skeys, wkeys):
        if count and count <= assoc < wcount:
            return None
    # The first key's run, split by the warm-up's end, must not hold steady
    # accesses at the start only: they would hit once and miss thereafter.
    if wrapped and first_s == first and last_s != first:
        return None

    # Pass 2: the warm-up misses on every run start, the steady stream on
    # every cyclic run start in a set holding more than ``assoc`` keys.
    prev = -1
    prev_s = last_s
    misses = 0
    for i, r in enumerate(reach):
        if not r:
            continue
        key = addrs[i] // linesize
        start = key != prev
        prev = key
        miss = False
        if r == 3:
            if key != prev_s and skeys[key % nsets] > assoc:
                if not start:
                    return None  # a timed miss the warm-up did not pass on
                miss = True
                misses += 1
            prev_s = key
        if start:
            reach[i] = 3 if miss else 1
            last_start = i
        else:
            reach[i] = 0
    if wrapped and wkeys[first % nsets] <= assoc:
        # The first key's second run hits: nothing came between that evicts.
        reach[last_start] = 0
    return misses


def _traverse_tlbs(pages, tlbs) -> int:
    """Run one traversal of the page stream against the TLBs' LRU state;
    return its total miss penalty."""
    total = 0
    levels = [(tl.pages, tl.entries, tl.latency) for tl in tlbs]
    for page in pages:
        for d, entries, latency in levels:
            if page in d:
                del d[page]
                d[page] = None
                break
            # A miss fills the level; the levels below are independent of it.
            total += latency
            if len(d) >= entries:
                del d[next(iter(d))]
            d[page] = None
    return total


def _traverse_caches(paddrs, caches, mem_latency) -> int:
    """Run one traversal of the physical-address stream against the caches'
    LRU state; return its total latency."""
    total = 0
    levels = [(cs.sets, cs.linesize, cs.nsets, cs.assoc, cs.latency)
              for cs in caches]
    for paddr in paddrs:
        for sets, linesize, nsets, assoc, latency in levels:
            line = paddr // linesize
            idx = line % nsets
            s = sets.get(idx)
            if s is None:
                sets[idx] = {line: None}
                continue
            if line in s:
                del s[line]
                s[line] = None
                total += latency
                break
            if len(s) >= assoc:
                del s[next(iter(s))]
            s[line] = None
        else:
            total += mem_latency
    return total


def _snapshot(levels) -> list:
    """One family's LRU state: each level's keys in recency order."""
    return [lvl.keys() for lvl in levels]


def _unchanged(snapshot, levels) -> bool:
    """Whether one family's LRU state equals ``snapshot``."""
    return all(lvl.keys() == keys for lvl, keys in zip(levels, snapshot))


class SimulatedBackend:
    """Backend that measures reference strings on a simulated hierarchy.

    Pure and deterministic: equal (config, string) pairs give bit-equal
    results, so it is freely shareable across threads and measurements.
    """

    #: Runs repeat exactly: ``timing.measure_stable`` measures a repeated
    #: string once.
    exact = True

    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config

    def run(self, rs: ReferenceString, loads: int) -> float:
        """Cycles per access over ``loads`` accesses, a whole number of
        traversals, after one warm-up traversal."""
        return _simulate_loads(self.config, rs, loads) / loads


# ---------------------------------------------------------------------------
# Config file format: one directive per line, '#' comments.
#
#   pagesize 4096
#   cache <capacity> <associativity> <linesize> <latency>
#   tlb <entries> <miss_penalty>
#   memory <latency>
#   mapping identity | random <seed>
# ---------------------------------------------------------------------------

def parse_config(text: str) -> SimConfig:
    caches: List[CacheLevel] = []
    tlbs: List[TlbLevel] = []
    memory_latency = 100
    pagesize = 4096
    mapping_seed: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "pagesize" and len(parts) == 2:
                pagesize = int(parts[1])
            elif parts[0] == "cache" and len(parts) == 5:
                caches.append(CacheLevel(int(parts[1]), int(parts[2]),
                                         int(parts[3]), int(parts[4])))
            elif parts[0] == "tlb" and len(parts) == 3:
                tlbs.append(TlbLevel(int(parts[1]), int(parts[2])))
            elif parts[0] == "memory" and len(parts) == 2:
                memory_latency = int(parts[1])
            elif parts[0] == "mapping" and parts[1] == "identity":
                mapping_seed = None
            elif parts[0] == "mapping" and parts[1] == "random" and len(parts) == 3:
                mapping_seed = int(parts[2])
            else:
                raise ValueError(line)
        except (ValueError, IndexError):
            raise ConfigError("bad config directive at line %d: %r" % (lineno, raw))
    config = SimConfig(cache_levels=caches, tlb_levels=tlbs,
                       memory_latency=memory_latency, pagesize=pagesize,
                       mapping_seed=mapping_seed)
    config.validate()
    return config


def load_config(path: str) -> SimConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError("%s is not UTF-8 text: %s"
                              % (path, exc)) from exc
    return parse_config(text)


def format_config(config: SimConfig) -> str:
    lines = ["pagesize %d" % config.pagesize]
    for lvl in config.cache_levels:
        lines.append("cache %d %d %d %d" % (lvl.capacity, lvl.associativity,
                                            lvl.linesize, lvl.latency))
    for tl in config.tlb_levels:
        lines.append("tlb %d %d" % (tl.entries, tl.latency))
    lines.append("memory %d" % config.memory_latency)
    if config.mapping_seed is not None:
        lines.append("mapping random %d" % config.mapping_seed)
    return "\n".join(lines) + "\n"
