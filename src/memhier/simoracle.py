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

One engine prices every LRU level, TLB or cache (``_lru_cost``).  A level
is a ``(linesize, nsets, assoc, penalty)`` tuple, with keys ``address //
linesize`` in set ``key % nsets``; a TLB level is one set of one-byte lines
over pages.  Each set it touches is a ``functools.lru_cache(maxsize=
assoc)``, built on its first access, so the LRU bookkeeping runs in C.  A
level whose keys are its items, as a TLB's pages are, wraps a list's
``append``, which the cache calls on a miss only: mapping the level over a
stream records the items it misses, in order, which are the stream of the
level below.  A cache level must pass on addresses, not keys, so it wraps
``partial(next, count())``.  A miss returns a new mark, higher than every
earlier one, and a hit returns its key's mark, which was handed out
earlier.  So the misses are the accesses whose mark beats the running
maximum of the marks before them, carried across the level's streams.

The engine is handed the streams that reach the first level: the warm-up's,
then those of timed traversals 1 to k, the last of which every later
traversal repeats.  Each level runs them from cold, and counts the misses of
the last one again for each traversal after it.  After any stream an LRU
set holds the stream's ``assoc`` most recent distinct keys, in recency order
(the stack property of Mattson et al.), so a stream run twice leaves the
state that it leaves run once.  A level whose input repeats from traversal k
therefore meets traversal k + 1 and every later one in one state, with one
input, and repeats its misses from traversal k + 1: it hands the level below
its misses with the last once more, up to ``traversals`` timed streams.

The TLBs hand the first level the chain's page sequence, as the warm-up and
as one timed traversal.  An access to the page that the access before it
touched hits every TLB, the first holding that page as its most recent, and
changes no LRU state: so the chain collapses to its page sequence
(``itertools.groupby``), and each timed traversal, which follows the
chain's last access, drops its first page when that is the last page too.
The warm-up is a whole traversal, which leaves the state that a timed one
does, so the first level's misses repeat from traversal 1, and the TLB at
depth d runs min(traversals, d) timed traversals.

The closed form below hands the caches to the engine at the level where it
stops, with the accesses that reach that level in the warm-up and those
that reach it in every timed traversal.  Where the two are one stream, the
level is handed it twice and, like the first TLB, repeats its misses from
traversal 1.  Where some accesses reach it in the warm-up only, the warm-up
is not a timed traversal: the level's input repeats from traversal 1, so
its misses repeat only from traversal 2.  It runs min(traversals, 2) timed
traversals, and each level below one more.

The walk stops at the first level that fits: no set holds more than
``assoc`` of the keys of its warm-up stream, and its line holds the line of
every level the walk ran above it.  Every access that reaches the first
level in a timed traversal reaches it in the warm-up too.  There, the
first access to each key of a level that fits is also the first access to
its line at each level run above, so it misses them all and reaches the
level: every key that reaches the level in any traversal reaches it in the
warm-up.  Such a level holds every key it will see, never evicts, and never
misses in a timed traversal; neither it nor any level below it is run.

The caches are priced in closed form from the first level down, with no LRU
bookkeeping, for as long as one condition holds; the engine prices the
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
T(n>=2,k), which sees each line once per chain, as a rule.  The engine
stays the closed form's reference, and the naive model in the tests that of
both families.

``SimulatedBackend.least(kind)`` reports the least that any run of a
string of ``kind`` reads, in cycles per access: from the config and the
kind alone, or, for a kind whose strings all read alike, from its first
run's read.  Every access pays the first cache level's latency (memory's
if there is none), a floor for every kind.  A run in which the engine ran
no cache level costs the closed form's one traversal there per timed
traversal.
If each of its pages also forms one run of the chain read cyclically, every
TLB level with fewer entries than its pages misses once on each page in
every traversal and passes them all on, and the first level with as many
never misses in a timed one.  Such a run reads the same at any number of
traversals; a run in which it ran one may read less at more, where a level
below takes several traversals to settle.  Some kinds' strings all read
what such a run did.  A gap kind has one string at a given word size: seed
0, one layout.
A cache string's kind is a ``CacheKind`` (a) whose footprint is a whole
number of pages or at most one page (b): every string seed touches the same
slots, and every page permutation maps them onto the same physical
addresses (one page maps to itself).  If no cache level's line holds two of
its slots (c), each cache key is touched once per traversal, and each page
in one stretch of the chain, so in any order every key forms one run.  A
closed-form level then misses on the keys of the sets that overflow and
hands on the accesses to them, and the first level that fits is found from
the keys alone: the cost, and whether the engine runs any level, depend
only on which addresses are touched.  Its TLB cost depends only on how
many pages it spans.  So if the engine ran no cache level in this run (d),
it runs none for any string of the kind, and all cost what this one did.
Such a run answers every later run of its kind without simulating it: the
read is the same at any number of traversals, as an int total over an int
load count divides to the same float.  A kind carries the line size and
the page size its string was built for, which with its footprint fix the
slots its strings touch, so strings of other slots never share its read.
Those slots lie the line size apart, or a page apart when a page holds
only one, so (c) is read off the kind: no cache level's line is wider than
that.

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
"""

from __future__ import annotations

import itertools
import random
from array import array
from collections import Counter, defaultdict, deque
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import accumulate, compress, count, groupby, repeat
from operator import floordiv, gt, itemgetter, mod, ne, rshift
from typing import List, NamedTuple, Optional

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


class _Level(NamedTuple):
    """One LRU level: keys ``address // linesize`` in set ``key % nsets`` of
    ``assoc`` ways, and ``penalty`` cycles per miss.  A TLB level is one set
    of one-byte lines over pages."""

    linesize: int
    nsets: int
    assoc: int
    penalty: int


#: Calls an ``lru_cache`` wrapper with one argument, from C, so that
#: ``map`` can send each key to its set's wrapper (``operator.call`` is new
#: in Python 3.11).
_call = type(lru_cache(maxsize=1)(abs)).__call__


def _levels(config: SimConfig):
    """The cache levels of ``config``.  A level's penalty is the latency of
    the level below it, memory's below the last, minus its own."""
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
    caches' on the physical addresses.  Returns it with whether the LRU
    engine ran any cache level.

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
    cache_cost, ran = _family_cost(paddrs, _levels(config), traversals)
    return (_floor(config) * loads + _tlb_cost(chain, config, traversals)
            + cache_cost, ran)


def _tlb_cost(chain, config: SimConfig, traversals: int) -> int:
    """The TLBs' miss penalties over ``traversals`` timed traversals of the
    virtual ``chain`` after one warm-up, by the LRU engine over its page
    sequence (see the module docstring)."""
    if not config.tlb_levels:
        return 0
    pages = [page for page, _ in groupby(
        map(rshift, chain, repeat(config.pagesize.bit_length() - 1)))]
    streams = [pages, pages[1:] if pages[0] == pages[-1] else pages]
    return _lru_cost(streams, [_Level(1, 1, tl.entries, tl.latency)
                               for tl in config.tlb_levels], traversals)[0]


def _family_cost(addrs, levels, traversals: int):
    """The miss penalties of ``traversals`` timed traversals of ``addrs``
    through the cache ``levels`` after one warm-up: in closed form as far
    as it goes, then by the LRU engine on the levels left.  Returns them with
    whether the engine ran any level."""
    steady, i, addrs, reach = _steady_cost(addrs, levels)
    streams = [addrs, addrs]
    if reach and 1 in reach:
        # Some accesses reach level i in the warm-up only: its input repeats
        # from timed traversal 1, and its misses from traversal 2.
        timed = list(compress(addrs, reach.replace(b"\x01", b"\0")))
        streams = [addrs] + [timed] * min(2, traversals)
    engine, ran = _lru_cost(streams, levels[i:], traversals)
    return steady * traversals + engine, ran


def _lru_cost(streams, levels, traversals: int):
    """The miss penalties of ``traversals`` timed traversals through the LRU
    ``levels``, and whether any level was run.  ``streams`` are what reaches
    the first level in the warm-up and then in timed traversals 1, 2, ...,
    the last of which every later traversal repeats.  Each level runs those
    streams from cold and hands the level below its misses, the last once
    more; the walk stops at the first level that fits (see the module
    docstring)."""
    total = 0
    above = []  # the line sizes of the levels run
    for lvl in levels:
        linesize, nsets, assoc, penalty = lvl
        if not any(linesize % line for line in above):
            keys = set(_keys(streams[0], linesize))
            if len(keys) <= assoc or (
                    len(keys) <= nsets * assoc
                    and max(Counter(map(mod, keys, repeat(nsets))).values())
                    <= assoc):
                break
        above.append(linesize)
        streams = _lru_misses(streams, lvl)
        timed = list(map(len, streams[1:]))
        total += penalty * (sum(timed) + (traversals - len(timed)) * timed[-1])
        if len(streams) <= traversals:
            # The level below repeats its misses one traversal later.
            streams.append(streams[-1])
    return total, bool(above)


def _lru_misses(streams, lvl) -> list:
    """Run ``streams`` one after another through the empty LRU level
    ``lvl``, one ``lru_cache`` per set it touches; return the items of each
    stream that miss, in order."""
    linesize, nsets, assoc, _ = lvl
    if linesize == 1:  # the keys are the items: record the misses
        misses = []
        new = misses.append
    else:  # mark each miss higher than every earlier one
        new = partial(next, count())
    sets = defaultdict(partial(lru_cache(maxsize=assoc), new))
    passed = []
    peak = -1  # the highest mark yet
    for stream in streams:
        keys = _keys(stream, linesize)
        if nsets == 1:  # as a TLB: routing each key would cost a quarter more
            looked_up = map(sets[0], keys)
        else:
            looked_up = map(_call, map(sets.__getitem__,
                                       map(mod, keys, repeat(nsets))), keys)
        if linesize == 1:
            start = len(misses)
            deque(looked_up, 0)
            passed.append(misses[start:])
        else:
            marks = list(looked_up)
            highest = list(accumulate(marks, max, initial=peak))
            peak = highest[-1]
            passed.append(list(compress(stream, map(gt, marks, highest))))
    return passed


def _keys(stream, linesize: int):
    """The keys of the addresses ``stream`` at ``linesize``."""
    if linesize == 1:
        return stream
    return list(map(floordiv, stream, repeat(linesize)))


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
        total, ran = _simulate_loads(self.config, rs, loads)
        cycles = total / loads
        if not ran and _seed_free(self.config, kind):
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
    """Whether every string of ``kind`` costs what one does when the LRU
    engine runs no cache level in its run: a gap kind has one string, and
    a cache kind must meet (a) to (c) of the module docstring.  A cache
    string's slots lie its line size apart, or a page apart when a page
    holds only one, and (c) asks that no cache level's line be wider than
    that spacing.
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

