"""Deterministic set-associative cache / TLB hierarchy simulator.

This is the oracle the probes are validated against: it executes a reference
string symbolically (walking slot offsets, not real memory) and returns the
exact average latency per access.

One LRU engine prices every level.  A TLB is a cache of one set whose lines
are pages (Mattson, Gecsei, Slutz & Traiger, "Evaluation Techniques for
Storage Hierarchies", IBM Sys. J. 1970); the TLBs see the virtual chain and
the caches its physical addresses.  An access costs a base latency, the
first cache level's (memory's if there is none), plus the penalty of every
level it misses.  A TLB level's penalty is its configured one, so a full TLB
miss costs all of them, which models the walk.  A cache level's is the
latency of the level below it (memory's below the last) minus its own, so
an access costs the latency of the first cache level that holds its line.

Each level sees only the misses of the level above it, and fills on a miss.
No level evicts from another, and a hit leaves the levels below untouched
(an L1 hit does not refresh the line's recency in the L2).  So the engine
runs one level over the whole stream, then the next level over its misses,
once for the TLBs and once for the caches.

Each of the two families is priced in closed form when all its levels allow
it, with no LRU bookkeeping.  Take one level and the keys (lines or pages)
of the accesses that reach it, in chain order.  If each key's accesses form
one run when the chain is read cyclically, then in every timed traversal a
set holding at most ``assoc`` keys hits on every access, and a set holding
more misses on the first access of every run and hits on the rest; the
misses are what the next level sees.  The warm-up traversal starts cold, so
it misses on the first access of every run and passes on more than the timed
ones do.  The closed form covers the first timed traversal too, so the
family's total is traversals times one traversal's cost, when, level by
level:

* the warm-up's keys form one cyclic run each as well;
* no set that fits in the timed traversals held more than ``assoc`` keys in
  the warm-up, which would have evicted some of them;
* every timed miss is also a warm-up miss, so the level below has seen it;
* the run of the warm-up's first key does not hold timed accesses at the
  chain's start only: the warm-up's end would leave that key resident.

Cache strings, T(1,k) and gap strings with a gap of at least a line meet
these for both families.  A shuffled T(n>=2,k) splits each page's accesses
into several runs, so its TLBs take the LRU loop, while its caches, which
see each line once per chain, usually take the closed form.  The loop stays
the reference, as does the naive model in the tests.  The checks take two
passes over the chain and one byte of seen-flags per key of its address
range.

The loop simulates only as many traversals as it needs.  The levels' LRU
state after a traversal depends only on their state before it, because
every traversal replays the same accesses.  So once a timed traversal leaves
the state as it found it, every later traversal costs exactly what that one
did.  The simulator snapshots the state before each timed traversal that
has a successor, compares it afterwards, and on a match multiplies out the
rest.  Sets live in a table keyed by set index and are created on first
access, so set-up, snapshot and comparison scale with the lines a string
touches, not with cache capacity.
"""

from __future__ import annotations

import itertools
import random
from array import array
from collections import defaultdict
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
        # Memory's latency is every access's base latency when there is no
        # cache level.
        if self.memory_latency <= prev_lat:
            raise ConfigError("memory latency must be positive and exceed "
                              "the last cache level's")
        prev_ent = 0
        for tl in self.tlb_levels:
            if tl.entries <= prev_ent:
                raise ConfigError("TLB levels must increase in entry count")
            if tl.latency < 0:
                raise ConfigError("TLB miss penalty must be non-negative")
            prev_ent = tl.entries


class _Level:
    """One LRU level of either family: keys ``address // linesize`` in set
    ``key % nsets`` of ``assoc`` ways, and ``penalty`` cycles per miss."""

    __slots__ = ("linesize", "nsets", "assoc", "penalty", "sets")

    def __init__(self, linesize: int, nsets: int, assoc: int, penalty: int):
        self.linesize = linesize
        self.nsets = nsets
        self.assoc = assoc
        self.penalty = penalty
        #: set index -> {key: None} in LRU-to-MRU order; a set appears on
        #: its first access, which fills it.
        self.sets = defaultdict(dict)

    def keys(self):
        """The set count, and the keys of every set in recency order, one
        set after another.

        Sets are never dropped or emptied, new ones are appended, and the
        keys of a set all share its index.  So equal counts and equal keys
        mean that every set holds the same keys in the same order.  An array
        holds the values, not the key objects, which later hits replace with
        equal ones.
        """
        return len(self.sets), array(
            "q", itertools.chain.from_iterable(self.sets.values()))


def _levels(config: SimConfig):
    """The TLB levels and the cache levels of ``config``, with empty LRU
    state.  A TLB is one set of pages.  A cache level's penalty is the
    latency of the level below it, memory's below the last, minus its own."""
    tlbs = [_Level(config.pagesize, 1, tl.entries, tl.latency)
            for tl in config.tlb_levels]
    below = [lvl.latency for lvl in config.cache_levels[1:]]
    below.append(config.memory_latency)
    caches = [_Level(lvl.linesize,
                     lvl.capacity // (lvl.associativity * lvl.linesize),
                     lvl.associativity, lat - lvl.latency)
              for lvl, lat in zip(config.cache_levels, below)]
    return tlbs, caches


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
    base latency of every access, plus the TLBs' miss penalties on the
    virtual chain and the caches' on the physical addresses.

    ``config`` must already be validated.
    """
    chain = rs.chain
    n = len(chain)
    if loads % n:
        raise ConfigError("simulated loads must be a whole number of traversals")

    if config.mapping_seed is None:
        paddrs = chain
    else:
        # Fresh page permutation per (config seed, string seed): each rebuild
        # samples a different virtual-to-physical mapping.
        page_shift = config.pagesize.bit_length() - 1
        page_mask = config.pagesize - 1
        rng = random.Random((config.mapping_seed << 32) ^ rs.seed)
        npages = (rs.footprint + config.pagesize - 1) >> page_shift
        perm = list(range(npages))
        _shuffle(rng, perm)
        paddrs = [(perm[off >> page_shift] << page_shift) | (off & page_mask)
                  for off in chain]

    traversals = loads // n
    tlbs, caches = _levels(config)
    base = (config.cache_levels[0].latency if config.cache_levels
            else config.memory_latency)
    return (base * loads + _family_cost(chain, tlbs, traversals)
            + _family_cost(paddrs, caches, traversals))


def _family_cost(addrs, levels, traversals: int) -> int:
    """The miss penalties of ``traversals`` timed traversals of ``addrs``
    through ``levels`` after one warm-up: in closed form, or else by the LRU
    loop on ``levels``' state."""
    steady = _steady_cost(addrs, levels)
    if steady is not None:
        return steady * traversals
    _traverse(addrs, levels)  # warm-up, untimed
    total = 0
    left = traversals
    while left:
        snapshot = _snapshot(levels) if left > 1 else None
        cost = _traverse(addrs, levels)
        total += cost
        left -= 1
        if snapshot is not None and _unchanged(snapshot, levels):
            # The state after a traversal depends only on the state before
            # it, so every later traversal repeats this one exactly.
            return total + left * cost
        snapshot = None  # drop it before the next one is built
    return total


def _steady_cost(addrs, levels) -> Optional[int]:
    """The miss penalties of every timed traversal of ``addrs`` through
    ``levels`` in closed form, or None where the closed form does not apply
    (see the module docstring)."""
    total = 0
    reach = bytearray(b"\x03") * len(addrs)
    for lvl in levels:
        misses = _lru_level(addrs, reach, lvl.linesize, lvl.nsets, lvl.assoc)
        if misses is None:
            return None
        total += lvl.penalty * misses
        if not misses:
            break
    return total


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


def _traverse(addrs, levels) -> int:
    """Run one traversal of ``addrs`` through ``levels``' LRU state, one
    level at a time: each level sees the misses of the level above.  Return
    the traversal's total miss penalty."""
    total = 0
    for lvl in levels:
        linesize, nsets, assoc = lvl.linesize, lvl.nsets, lvl.assoc
        sets = lvl.sets
        misses = []
        miss = misses.append
        for addr in addrs:
            key = addr // linesize
            s = sets[key % nsets]
            if key in s:
                del s[key]
                s[key] = None
            else:
                if len(s) >= assoc:
                    del s[next(iter(s))]
                s[key] = None
                miss(addr)
        total += lvl.penalty * len(misses)
        addrs = misses
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
            elif parts[0] == "mapping" and parts[1:] == ["identity"]:
                mapping_seed = None
            elif parts[0] == "mapping" and len(parts) == 3 and parts[1] == "random":
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
