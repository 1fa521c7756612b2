"""Deterministic set-associative cache / TLB hierarchy simulator.

This is the oracle the probes are validated against: it executes a reference
string symbolically (walking slot offsets, not real memory) and returns the
exact average latency per access.

Every level is LRU.  A TLB is a one-set cache of pages (Mattson, Gecsei,
Slutz & Traiger, "Evaluation Techniques for Storage Hierarchies", IBM Sys.
J. 1970); the TLBs see the virtual chain and the caches its physical
addresses.  An access costs a base latency, the first cache level's
(memory's if there is none), plus the penalty of every level it misses.  A
TLB level's penalty is its configured one, so a full TLB miss costs all of
them, which models the walk.  A cache level's is the latency of the level
below it (memory's below the last) minus its own, so an access costs the
latency of the first cache level that holds its line.

Each level sees only the misses of the level above it, and fills on a miss.
No level evicts from another, and a hit leaves the levels below untouched
(an L1 hit does not refresh the line's recency in the L2).  So the
simulator runs one level over the whole stream, then the next level over
its misses, once for the TLBs and once for the caches.

The TLBs run over the chain's page sequence in C.  An access to the page
that the access before it touched hits every TLB, the first holding that
page as its most recent, and changes no LRU state: so the chain collapses
to its page sequence (``itertools.groupby``), and each timed traversal,
which follows the chain's last access, drops its first page when that is
the last page too.  Each level is ``functools.lru_cache(maxsize=entries)``
wrapped round a list's ``append``, which it calls on a miss only: mapping
it over a stream runs the level and records the pages it misses, in order,
which are the stream of the level below.

A TLB level runs the warm-up from cold and then only timed traversals 1 to
min(traversals, d) at depth d, and counts the last one again for each
traversal after it.  After any stream a one-set LRU holds the stream's
``entries`` most recent distinct pages, so a stream run twice leaves the
state that it leaves run once: a level whose input repeats from traversal
d - 1 meets traversal d and every later one in one state, with one input,
and repeats its misses from traversal d.  The first level's warm-up is a
whole traversal, which leaves the state that a timed one does, so its
misses repeat from traversal 1, and level d's from traversal d.

The TLB walk stops at the first level whose warm-up stream holds no more
distinct pages than it has entries.  The level above misses on the first
access to each page of its warm-up stream, so every page that reaches a
level in any traversal reaches it in the warm-up: such a level holds every
page it will see, never evicts, and never misses in a timed traversal, and
nothing at or below it is run.

The caches are priced in closed form from the first level down, with no LRU
bookkeeping, for as long as one condition holds; the LRU loop prices the
levels left.  Take a level that every access reaching it reaches in every
traversal, the warm-up included, as at the first level.  The condition:
each key's (line's) accesses there form one run when the chain is read
cyclically.  Then every timed traversal misses on the first access of every
run in a set holding more than ``assoc`` keys, and hits on the rest, and
the closed-form total is traversals times one traversal's cost.  The
warm-up starts cold, so it also misses on the first access to each key of
a set that fits, and on the chain's first access where the last run wraps
around to it.  The level below sees the warm-up's misses in the warm-up and
the timed misses in every timed traversal.  Where the two differ, the
closed form stops at that level.

Cache strings, T(1,k) and gap strings with a gap of at least a line take
the closed form at the first cache level, and so does a shuffled
T(n>=2,k), which sees each line once per chain, as a rule.  The loop stays
the closed form's reference, and the naive model in the tests that of both
families.

``SimulatedBackend.least(kind)`` reports the least that any run of a
string of ``kind`` reads, in cycles per access: from the config and the
kind alone, or, for a kind whose strings all read alike, from its first
run's read.  Every access pays the first cache level's latency (memory's
if there is none), a floor for every kind.  A run whose caches took no
LRU loop costs the closed form's one traversal there per timed traversal.
If each of its pages also forms one run of the chain read cyclically, every
TLB level with fewer entries than its pages misses once on each page in
every traversal and passes them all on, and the first level with as many
never misses in a timed one.  Such a run reads the same at any number of
traversals; a looped run may read less at more, where a level below takes
several traversals to settle.  Some kinds' strings all read what such a
run did.  A gap kind has one string at a
given word size: seed 0, one layout.
A cache string's kind is a ``CacheKind`` (a) whose footprint is a whole
number of pages or at most one page (b): every string seed touches the same
slots, and every page permutation maps them onto the same physical
addresses (one page maps to itself).  If no cache level's line holds two of
its slots (c), each cache key is touched once per traversal, and each page
in one stretch of the chain, so in any order every key forms one run.  A
closed-form level then misses on the keys of the sets that overflow and
hands on the accesses to them, and the first level that fits is found from
the keys alone: the cost, and whether the LRU loop takes any level, depend
only on which addresses are touched.  Its TLB cost depends only on how
many pages it spans.  So if this run took no LRU loop (d), no string of the
kind does, and all cost what this one did.  Such a run
answers every later run of its kind without simulating it: the read is the
same at any number of traversals, as an int total over an int load count
divides to the same float.  A kind carries the line size and the page
size its string was built for, which with its footprint fix the slots its
strings touch, so strings of other slots never share its read.  Those
slots lie the line size apart, or a page apart when a page holds only one,
so (c) is read off the kind: no cache level's line is wider than that.

A T(1,k) string with one slot in each of the config's pages it spans
touches a new page at every access, so an LRU TLB with fewer entries than
its pages misses on every access and hands the whole stream to the level
below (the stack property of Mattson et al.): every run of the kind pays
the penalties of those levels on top of the floor, and the kind's least is
known before any run.  The caches miss the same way from the first level
down, for as long as two things hold at a level.  Its set index lies
inside the page offset (its sets times its line size divide the page
size), so every mapping leaves each slot in the set its column gives it.
And each set it touches holds more than ``assoc`` lines at every seed.
Slot j sits at column j mod lines-per-page of its own page, so each column
holds at least floor(pages / lines-per-page) slots, each on its own line,
and a set holds those of every column it indexes: several columns when the
string's slots are narrower than the level's line.  A set holding more
than ``assoc`` lines sees them as one cyclic run per traversal, and misses
on every access.  A level whose replacement is not LRU could hit on such a
stream and must not claim its penalty.

Builtins price a closed-form level.  The run analysis of its stream finds
the keys and the runs, which start where the key changes, and flags the run
keys in a bytearray indexed by key, the one loop in Python: each key forms
one cyclic run iff they are distinct but for a last run that continues the
first.  A stream with more runs than its key range can hold declines before
that loop.  A traversal misses once on each key of a set holding more than
``assoc``.  A level that passes on every access in every traversal hands its
stream on, which at the same line size has the same keys and runs: the
level below reuses the analysis.

The LRU loop takes the stream that reaches the first level left, in the
warm-up and in the timed traversals, and simulates only the levels that can
miss.  It stops at the first level that fits: no set holds more than
``assoc`` of the stream's keys at its line size, and the line of every level
above it that the loop took lies within one of its lines.  In the warm-up,
which starts cold, the first access to each of its keys is also the first
access to its line at every such level above, so it misses all of them and
reaches the level.  The level then holds every key it will see, never
evicts, and never misses in a timed traversal; neither it nor any level
below it is simulated.

Where every access reaches the first level in every traversal, as when the
run analysis declines, that level sees the same stream each time.  After any
stream an LRU set holds the stream's ``assoc`` most recent distinct keys in
recency order (the stack property of Mattson et al.), so reading the stream
backwards gives its state after the warm-up, which every timed traversal
leaves as it found it: one pass from that state prices them all.  In the
warm-up, an access that is not its key's first follows the same accesses
since the key's last one as in a timed traversal, so it misses exactly when
it does there, and a first access misses cold.  The level's warm-up misses
are thus its first accesses plus its steady misses, in chain order: the
warm-up stream of the level below, whose timed traversals each see the
steady misses.  Where the closed form stopped at accesses that reach the
level in the warm-up only, it hands over the level's warm-up stream, and
those of its accesses that reach it in every traversal are the timed one:
the level is one of these levels below.  An intermediate level runs its
warm-up stream forwards to pass its misses on; the last simulated level is
filled backwards from its own.

The levels below run only as many timed traversals as they need.  Their LRU
state after a traversal depends only on their state before it, because
every traversal hands them the same accesses.  So once a timed traversal
leaves the state as it found it, every later traversal costs exactly what
that one did.  The simulator snapshots the state before each timed
traversal that has a successor, compares it afterwards, and on a match
multiplies out the rest.  Sets live in a table keyed by set index and are
created by the fill or on first access, so set-up, snapshot and comparison
scale with the lines a string touches, not with cache capacity.
"""

from __future__ import annotations

import itertools
import random
from array import array
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress, groupby, repeat
from operator import floordiv, gt, itemgetter, mod, ne, rshift
from typing import List, Optional

from .errors import ConfigError
from .refstring import (CacheKind, GapKind, ReferenceString, TlbKind,
                        _shuffle)


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
        for i, lvl in enumerate(self.cache_levels, 1):
            if lvl.capacity <= 0 or lvl.associativity <= 0 or lvl.linesize <= 0:
                raise ConfigError("cache level parameters must be positive")
            if lvl.linesize > self.pagesize:
                raise ConfigError(
                    "pagesize %d is smaller than cache level %d's %d-byte "
                    "line" % (self.pagesize, i, lvl.linesize))
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
        # random.Random(-s) is random.Random(s): a negative seed would alias
        # a positive one.
        if self.mapping_seed is not None and self.mapping_seed < 0:
            raise ConfigError("mapping seed must be non-negative")


class _Level:
    """One LRU cache level: keys ``address // linesize`` in set ``key %
    nsets`` of ``assoc`` ways, and ``penalty`` cycles per miss."""

    __slots__ = ("linesize", "nsets", "assoc", "penalty", "sets")

    def __init__(self, linesize: int, nsets: int, assoc: int, penalty: int):
        self.linesize = linesize
        self.nsets = nsets
        self.assoc = assoc
        self.penalty = penalty
        #: set index -> {key: None} in LRU-to-MRU order; a set appears on
        #: its first access, or when ``_fill`` gives it its keys.
        self.sets = defaultdict(dict)

    def keys(self):
        """The set count, and the keys of every set in recency order, one
        set after another.

        Sets are never dropped or emptied.  The fill creates the sets of
        its stream, and a later access to a set that does not exist yet
        appends it, so between a snapshot and its comparison sets are only
        ever appended.  The keys of a set all share its index.  So equal
        counts and equal keys mean that every set holds the same keys in the
        same order.  An array holds the values, not the key objects, which
        later hits replace with equal ones.
        """
        return len(self.sets), array(
            "q", itertools.chain.from_iterable(self.sets.values()))


def _levels(config: SimConfig):
    """The cache levels of ``config``, with empty LRU state.  A level's
    penalty is the latency of the level below it, memory's below the last,
    minus its own."""
    below = [lvl.latency for lvl in config.cache_levels[1:]]
    below.append(config.memory_latency)
    return [_Level(lvl.linesize,
                   lvl.capacity // (lvl.associativity * lvl.linesize),
                   lvl.associativity, lat - lvl.latency)
            for lvl, lat in zip(config.cache_levels, below)]


def simulate(config: SimConfig, rs: ReferenceString, traversals: int) -> float:
    """Average cycles per access over ``traversals`` passes of the chain,
    after one untimed warm-up traversal."""
    if traversals < 1:
        raise ConfigError("traversals must be positive")
    config.validate()
    total, _ = _simulate_loads(config, rs, traversals * rs.chain_length)
    return total / (traversals * rs.chain_length)


def _simulate_loads(config: SimConfig, rs: ReferenceString, loads: int):
    """Total latency of ``loads`` accesses, a positive whole number of
    traversals, after one warm-up traversal: the base latency of every
    access, plus the TLBs' miss penalties on the virtual chain and the
    caches' on the physical addresses.  Returns it with whether the LRU loop
    simulated any cache level.

    Under a random mapping the physical addresses are an ``array('q')``,
    eight bytes a slot with no int objects; iterating it creates each int
    as it is read, one at a time.  ``config`` must already be validated.
    """
    chain = rs.chain
    if config.mapping_seed is None:
        paddrs = chain
    else:
        # Fresh page permutation per (config seed, string seed): each rebuild
        # samples a different virtual-to-physical mapping.  A slot's physical
        # address is its offset plus its page's delta, (frame - page) *
        # pagesize.
        page_shift = config.pagesize.bit_length() - 1
        rng = random.Random((config.mapping_seed << 32) ^ rs.seed)
        npages = (rs.footprint + config.pagesize - 1) >> page_shift
        perm = list(range(npages))
        _shuffle(rng, perm)
        delta = [(frame - page) << page_shift
                 for page, frame in enumerate(perm)]
        paddrs = array("q", [off + delta[off >> page_shift] for off in chain])

    traversals = loads // len(chain)
    cache_cost, looped = _family_cost(paddrs, _levels(config), traversals)
    return (_floor(config) * loads + _tlb_cost(chain, config, traversals)
            + cache_cost, looped)


def _tlb_cost(chain, config: SimConfig, traversals: int) -> int:
    """The TLBs' miss penalties over ``traversals`` timed traversals of the
    virtual ``chain`` after one warm-up, each level an ``lru_cache`` over
    the page sequence, run for as many timed traversals as its depth (see
    the module docstring)."""
    if not config.tlb_levels:
        return 0
    pages = [page for page, _ in groupby(
        map(rshift, chain, repeat(config.pagesize.bit_length() - 1)))]
    # The pages that reach a level in the warm-up, then in each timed
    # traversal up to the one that every later traversal repeats.
    streams = [pages, pages[1:] if pages[0] == pages[-1] else pages]
    total = 0
    for tl in config.tlb_levels:
        if len(set(streams[0])) <= tl.entries:
            break
        misses = []
        level = lru_cache(maxsize=tl.entries)(misses.append)
        ends = []
        for stream in streams:
            deque(map(level, stream), 0)
            ends.append(len(misses))
        streams = [misses[a:b] for a, b in zip([0] + ends, ends)]
        timed = list(map(len, streams[1:]))
        total += tl.latency * (sum(timed)
                               + (traversals - len(timed)) * timed[-1])
        if len(streams) <= traversals:
            # The level below repeats its misses one traversal later.
            streams.append(streams[-1])
    return total


def _family_cost(addrs, levels, traversals: int):
    """The miss penalties of ``traversals`` timed traversals of ``addrs``
    through the cache ``levels`` after one warm-up: in closed form as far
    as it goes, then by the LRU loop on the levels left.  Returns them with
    whether the loop simulated any level."""
    steady, i, addrs, reach = _steady_cost(addrs, levels)
    loop, looped = _loop_cost(addrs, reach, levels[i:], traversals)
    return steady * traversals + loop, looped


def _loop_cost(addrs, reach, levels, traversals: int):
    """The miss penalties of ``traversals`` timed traversals through the
    cache ``levels`` after one warm-up, by the LRU loop over the levels
    above the first that fits (see the module docstring), and whether there
    were any.  ``addrs`` reach the first level in the warm-up, and those
    whose ``reach`` is 3 in every timed traversal too."""
    levels = levels[:_first_fit(addrs, levels)]
    if not levels:
        return 0, False
    total = 0
    if 1 not in reach:
        first = levels[0]
        _fill(first, addrs)
        steady = _misses(addrs, first)
        total = first.penalty * len(steady) * traversals
        levels = levels[1:]
        if not levels:
            return total, True
        # The levels below see the first level's warm-up misses, then its
        # steady misses in every timed traversal.
        warm = list(map(addrs.__getitem__,
                        _warm_up_misses(addrs, first.linesize, steady)))
        addrs = list(map(addrs.__getitem__, steady))
    else:
        warm = addrs
        addrs = list(compress(addrs, reach.replace(b"\x01", b"\0")))
    for lvl in levels[:-1]:
        warm = list(map(warm.__getitem__, _misses(warm, lvl)))
    _fill(levels[-1], warm)
    left = traversals
    while left:
        snapshot = _snapshot(levels) if left > 1 else None
        cost = _traverse(addrs, levels)
        total += cost
        left -= 1
        if snapshot is not None and _unchanged(snapshot, levels):
            # The state after a traversal depends only on the state before
            # it, so every later traversal repeats this one exactly.
            return total + left * cost, True
        snapshot = None  # drop it before the next one is built
    return total, True


def _warm_up_misses(addrs, linesize: int, steady) -> list:
    """The positions of the first level's warm-up misses, given ``steady``,
    those of each timed traversal: the first access to each key, and every
    steady miss, which follows the same accesses in the warm-up."""
    keys = map(floordiv, reversed(addrs), repeat(linesize))
    firsts = dict(zip(keys, range(len(addrs) - 1, -1, -1))).values()
    return sorted(set(firsts).union(steady))


def _first_fit(addrs, levels) -> int:
    """The index of the first level that never misses in a timed traversal,
    len(levels) if none: no set holds more than ``assoc`` of the keys of
    ``addrs``, the stream that reaches the first level in the warm-up, and
    the line of every level above lies within one of its lines."""
    distinct = {}  # line size -> the stream's keys
    for i, lvl in enumerate(levels):
        linesize = lvl.linesize
        if any(linesize % above.linesize for above in levels[:i]):
            continue
        if linesize not in distinct:
            distinct[linesize] = set(map(floordiv, addrs, repeat(linesize)))
        keys = distinct[linesize]
        if len(keys) <= lvl.assoc or (
                len(keys) <= lvl.nsets * lvl.assoc
                and max(Counter(map(mod, keys, repeat(lvl.nsets))).values())
                <= lvl.assoc):
            return i
    return len(levels)


def _fill(lvl, addrs) -> None:
    """Give the empty ``lvl`` the LRU state that the stream ``addrs``, which
    is not empty, leaves in it: each set's ``assoc`` most recent distinct
    keys, read backwards, with the sets in the order of their first access.
    """
    linesize, nsets, assoc = lvl.linesize, lvl.nsets, lvl.assoc
    keys = map(floordiv, reversed(addrs), repeat(linesize))
    recent = defaultdict(dict)  # set index -> keys, most recent first
    for key in dict.fromkeys(keys):
        s = recent[key % nsets]
        if len(s) < assoc:
            s[key] = None
    for index in dict.fromkeys(map(mod, map(floordiv, addrs, repeat(linesize)),
                                   repeat(nsets))):
        lvl.sets[index] = dict.fromkeys(reversed(recent[index]))


def _steady_cost(addrs, levels):
    """The miss penalties of one timed traversal of ``addrs`` through the
    cache ``levels`` in closed form, as far as it goes (see the module
    docstring).  Returns them with the index of the first level it did not
    price, and the addresses and reach (see ``_lru_level``) of the accesses
    that reach that level."""
    total = 0
    reach = bytearray(b"\x03") * len(addrs)
    runs = None  # the run analysis of ``addrs``, while it holds
    for i, lvl in enumerate(levels):
        if 1 in reach:
            return total, i, addrs, reach
        if runs is None or runs[0] != lvl.linesize:
            runs = None  # one key list at a time
            runs = _runs(addrs, lvl.linesize)
            if runs is None:
                return total, i, addrs, reach
        misses, passed, reach = _lru_level(addrs, runs, lvl)
        total += lvl.penalty * misses
        if not misses:
            break
        if passed is not addrs:
            addrs, runs = passed, None
    return total, len(levels), addrs, reach


def _runs(addrs, linesize: int):
    """The run analysis of ``addrs`` at ``linesize`` (see the module
    docstring), or None unless each key forms one cyclic run."""
    keys = list(map(floordiv, addrs, repeat(linesize)))
    starts = bytes(map(ne, keys, itertools.chain((-1,), keys)))
    runs = starts.count(1)
    top = max(keys)
    if runs > top + 2:
        return None  # more runs than keys 0..top, and a wrapped run
    seen = bytearray(top + 1)
    for key in compress(keys, starts):
        seen[key] = 1
    # Each key forms one cyclic run iff every run's key is new but the
    # last run's, which may continue the first run.
    wrapped = runs > 1 and keys[-1] == keys[0]
    if seen.count(1) != runs - wrapped:
        return None
    return linesize, keys, starts, runs, seen, wrapped


#: A level below's reach by whether the set overflows: 1 for a set that
#: fits, which misses in the warm-up only, 3 for one that overflows.
_REACH = b"\x01\x03"


def _lru_level(addrs, analysis, lvl):
    """One LRU level of the closed form.

    ``addrs`` are the addresses of the accesses that reach the level in
    every traversal, in chain order, and ``analysis`` is their run analysis
    (``_runs``).  Keys are ``address // linesize`` in set ``key % nsets``.
    Returns the misses of each timed traversal with the addresses of the
    accesses the level passes on and their reach: ``reach[i]`` is 1 where
    access ``i`` is passed on in the warm-up traversal only, 3 where in the
    warm-up and in every timed traversal (None for both if the level never
    misses).  Passing on every access in every traversal, it returns
    ``addrs`` itself: at the same line size the level below has the same
    keys and runs, and reuses the analysis.  Passing on fewer empties the
    keys.
    """
    nsets, assoc = lvl.nsets, lvl.assoc
    _, keys, starts, runs, seen, wrapped = analysis
    # set index -> keys, over the sets that hold any.  With eight runs or
    # more per set, counting the flags of each set (at s, s + nsets,
    # s + 2 * nsets, ...) is cheaper than a dict update per run.
    if runs >= 8 * nsets:
        strides = map(slice, range(nsets), repeat(None), repeat(nsets))
        counts = map(bytearray.count, map(seen.__getitem__, strides),
                     repeat(1))
        sets = dict(filter(itemgetter(1), enumerate(counts)))
    else:
        sets = Counter(map(mod, compress(keys, starts), repeat(nsets)))
        if wrapped:
            sets[keys[0] % nsets] -= 1
    sizes = list(sets.values())
    over = list(map(gt, sizes, repeat(assoc)))
    misses = sum(compress(sizes, over))
    if not misses:
        return 0, None, None
    # The warm-up misses on every run start, each timed traversal on those
    # in a set that overflows.
    if all(over):
        reach = bytearray(b"\x03") * runs
    else:
        level = dict(zip(sets, map(_REACH.__getitem__, over)))
        reach = bytearray(map(level.__getitem__, map(
            mod, compress(keys, starts), repeat(nsets))))
    if runs < len(addrs):
        keys.clear()  # free its ints before the addresses are built
        addrs = array("q", compress(addrs, starts))
    if wrapped:
        # The chain's first access continues the last run in the timed
        # traversals.  If the first key's set fits, its second run hits in
        # the warm-up too.
        reach[0] = 1
        if reach[-1] == 1:
            addrs = addrs[:-1]
            del reach[-1]
    return misses, addrs, reach


def _traverse(addrs, levels) -> int:
    """Run one traversal of ``addrs`` through ``levels``' LRU state, one
    level at a time: each level sees the misses of the level above.  Return
    the traversal's total miss penalty."""
    total = 0
    for lvl in levels:
        misses = _misses(addrs, lvl)
        total += lvl.penalty * len(misses)
        addrs = list(map(addrs.__getitem__, misses))
    return total


def _misses(addrs, lvl) -> list:
    """Run ``addrs`` through ``lvl``'s LRU state; return the positions in
    ``addrs`` of the accesses that miss."""
    linesize, nsets, assoc = lvl.linesize, lvl.nsets, lvl.assoc
    sets = lvl.sets
    misses = []
    miss = misses.append
    for i, addr in enumerate(addrs):
        key = addr // linesize
        s = sets[key % nsets]
        if key in s:
            del s[key]
            s[key] = None
        else:
            if len(s) >= assoc:
                del s[next(iter(s))]
            s[key] = None
            miss(i)
    return misses


def _snapshot(levels) -> list:
    """The caches' LRU state: each level's keys in recency order."""
    return [lvl.keys() for lvl in levels]


def _unchanged(snapshot, levels) -> bool:
    """Whether the caches' LRU state equals ``snapshot``."""
    return all(lvl.keys() == keys for lvl, keys in zip(levels, snapshot))


class SimulatedBackend:
    """Backend that measures reference strings on a simulated hierarchy.

    Deterministic: equal (config, string) pairs give bit-equal results.
    Besides ``run`` it declares ``least(kind)``, the fewest cycles per
    access that any run of a string of ``kind`` reads on it, so a sweep
    point whose minimum reaches it is stable at once (``timing.run_sweep``).
    The config and the kind fix it (see the module docstring): the floor,
    the first level's latency, plus, for a one-slot-per-page T(1,k) kind,
    the penalties of the TLB levels with fewer entries than its pages and
    of the cache levels from the first down whose every set it overflows.
    A gap or seed-free cache kind's first run records its read, which is
    then its least and answers every later run of the kind without
    simulating, so each settles at once.  Those reads never change a
    result, so the backend is shareable across measurements.
    """

    def __init__(self, config: SimConfig):
        config.validate()
        self.config = config
        self._reads = {}  # seed-free kind -> what every run of it reads

    def least(self, kind) -> float:
        """The fewest cycles per access any run of a string of ``kind``
        reads: its read if a run showed it, or else what the config and
        the kind fix."""
        if kind in self._reads:
            return self._reads[kind]
        config = self.config
        if (isinstance(kind, TlbKind) and kind.lines_per_page == 1
                and kind.pagesize == config.pagesize):
            return _floor(config) + _one_slot_per_page_penalties(config, kind)
        return _floor(config)

    def run(self, rs: ReferenceString, loads: int) -> float:
        """Cycles per access over ``loads`` accesses, a positive whole
        number of traversals, after one warm-up traversal."""
        if loads <= 0 or loads % len(rs.chain):
            raise ConfigError(
                "simulated loads must be a positive whole number of traversals")
        kind = rs.kind
        if kind in self._reads:
            return self._reads[kind]
        total, looped = _simulate_loads(self.config, rs, loads)
        cycles = total / loads
        if not looped and _seed_free(self.config, kind):
            self._reads[kind] = cycles
        return cycles


def _floor(config: SimConfig) -> int:
    """The latency every access pays: the first cache level's, memory's if
    there is none."""
    return (config.cache_levels[0].latency if config.cache_levels
            else config.memory_latency)


def _one_slot_per_page_penalties(config: SimConfig, kind: TlbKind) -> int:
    """The miss penalties that every access of every string of ``kind``, a
    T(1,k) kind built for ``config``'s pages, pays (see the module
    docstring): those of the TLBs with fewer entries than its pages, and
    those of the cache levels from the first down whose set index lies
    inside the page offset and whose every set it touches holds more than
    ``assoc`` of its lines.  Only LRU levels may claim them."""
    pages = kind.footprint // kind.pagesize
    total = sum(tl.latency for tl in config.tlb_levels if tl.entries < pages)
    columns = kind.pagesize // kind.linesize
    for lvl in _levels(config):
        if config.pagesize % (lvl.nsets * lvl.linesize):
            break
        # The columns each set indexes; each column holds at least
        # pages // columns slots, one to a page and so one to a line.
        counts = Counter(c * kind.linesize // lvl.linesize % lvl.nsets
                         for c in range(columns))
        if pages // columns * min(counts.values()) <= lvl.assoc:
            break
        total += lvl.penalty
    return total


def _seed_free(config: SimConfig, kind) -> bool:
    """Whether every string of ``kind`` costs what one does when its run
    takes no LRU loop: a gap kind has one string, and a cache kind must
    meet (a) to (c) of the module docstring.  A cache string's slots lie
    its line size apart, or a page apart when a page holds only one, and
    (c) asks that no cache level's line be wider than that spacing.
    """
    if isinstance(kind, GapKind):
        return True
    pagesize = config.pagesize
    if not (isinstance(kind, CacheKind)
            and (kind.footprint % pagesize == 0 or kind.footprint <= pagesize)):
        return False
    spacing = (kind.linesize if 2 * kind.linesize <= kind.pagesize
               else kind.pagesize)
    return max((lvl.linesize for lvl in config.cache_levels), default=0) \
        <= spacing


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

