"""Reference strings: circular pointer chains that realize fixed access patterns.

Three families are built here:

* gap strings   -- n slots spaced k bytes apart, the last one pushed out by an
                   extra offset o; used to stress a single associativity set
* cache strings -- one slot per L1-line-sized block per page, page-contiguous,
                   shuffled within and across pages; used for the multi-level
                   cache sweep
* TLB strings   -- n slots per page over the footprint; used for the TLB sweep
                   and its confirmatory tests

A string is represented symbolically as the sequence of byte offsets in
traversal order.  Backends turn that into real memory or simulated accesses.
"""

from __future__ import annotations

import os
import random
from typing import NamedTuple, Union

from .errors import InvalidGeometryError

DEFAULT_LINESIZE = 64

#: Largest buffer a reference string may span (bytes).
MAX_FOOTPRINT = 64 * 1024 * 1024


def _shuffle(rng: random.Random, x: list) -> None:
    """Shuffle ``x`` in place exactly as ``rng.shuffle(x)`` does: the same
    permutation, and the same generator state afterwards.

    ``random.Random.shuffle`` draws each index j <= i through
    ``_randbelow(i + 1)``, a method call per element; this inlines its
    ``getrandbits`` rejection loop.  Its bit count, (i + 1).bit_length(),
    is k for every i from 2^k - 2 down to 2^(k-1) - 1, so the loop runs one
    bit count at a time, and rejects j > i, which is j >= i + 1.
    """
    getrandbits = rng.getrandbits
    top = len(x) - 1
    for k in range(len(x).bit_length(), 1, -1):
        low = (1 << (k - 1)) - 1
        for i in range(top, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        top = low - 1


class MachineEnv:
    """Static facts about the machine (or simulated machine) under test."""

    __slots__ = ("pagesize", "l1_linesize")

    #: Bytes per slot: the real backend links and chases 8-byte slots.
    word = 8

    def __init__(self, pagesize: int, l1_linesize: int = DEFAULT_LINESIZE):
        if pagesize <= 0 or pagesize & (pagesize - 1):
            raise InvalidGeometryError("pagesize must be a power of two")
        if l1_linesize < self.word:
            raise InvalidGeometryError("l1_linesize must be >= word")
        self.pagesize = pagesize
        self.l1_linesize = l1_linesize

    @classmethod
    def host(cls) -> "MachineEnv":
        try:
            pagesize = os.sysconf("SC_PAGE_SIZE")
        except (ValueError, OSError):
            import mmap

            pagesize = mmap.PAGESIZE
        return cls(pagesize=pagesize)


class GapKind(NamedTuple):
    n: int
    k: int
    o: int


class CacheKind(NamedTuple):
    footprint: int
    #: The line size and page size the string was built for: with the
    #: footprint they fix the slots every string of the kind touches.
    linesize: int
    pagesize: int


class TlbKind(NamedTuple):
    lines_per_page: int
    footprint: int
    linesize: int
    pagesize: int


Kind = Union[GapKind, CacheKind, TlbKind]


class ReferenceString(NamedTuple):
    """A circular chain of pointer-sized slots over a contiguous footprint.

    ``chain`` lists the slot byte offsets in traversal order; following it
    wraps from the last slot back to the first.  Immutable by convention
    after construction.
    """

    footprint: int
    kind: Kind
    seed: int
    chain: list

    @property
    def chain_length(self) -> int:
        return len(self.chain)

    def __repr__(self) -> str:  # without the chain, which can be long
        return ("ReferenceString(footprint=%r, kind=%r, seed=%r)"
                % (self.footprint, self.kind, self.seed))


def build_gap_string(n: int, k: int, o: int,
                     env: MachineEnv) -> ReferenceString:
    """Build G(n, k, o): slots at (n-1)k + o, (n-2)k, ..., k and 0.

    The chain is walked in descending address order from its first slot, the
    highest; no shuffling, so the string deterministically stresses one
    associativity set.  Under LRU a cyclic chain costs the same in either
    order, but on a real 48K/12-way L1 an ascending walk of 12 lines in one
    set partly missed where a descending one hit.
    """
    if n < 2:
        raise InvalidGeometryError("gap string needs at least 2 slots")
    if k < env.word:
        raise InvalidGeometryError("gap must be at least one word")
    if o < 0 or o >= env.pagesize:
        raise InvalidGeometryError("offset must be in [0, pagesize)")
    footprint = (n - 1) * k + o + env.word
    if n * k > MAX_FOOTPRINT or footprint > MAX_FOOTPRINT:
        raise InvalidGeometryError(
            "gap string of %d x %d bytes exceeds the %d byte allocation limit"
            % (n, k, MAX_FOOTPRINT))
    offsets = [(n - 1) * k + o]
    offsets.extend(i * k for i in range(n - 2, -1, -1))
    return ReferenceString(footprint=footprint, kind=GapKind(n, k, o),
                           seed=0, chain=offsets)


def build_cache_string(footprint: int, env: MachineEnv, seed: int) -> ReferenceString:
    """Build C(k): one slot per L1-line block per page, page-contiguous.

    Row (page) order and within-row order are shuffled independently from
    ``seed``.  Footprints below one page are treated as a single truncated
    page covering footprint / l1_linesize lines.
    """
    if footprint < 2 * env.word:
        raise InvalidGeometryError("cache string footprint too small")
    if footprint % 1024:
        raise InvalidGeometryError("cache string footprint must be a multiple of 1KB")
    if footprint > MAX_FOOTPRINT:
        raise InvalidGeometryError("footprint exceeds allocation limit")
    if seed < 0:  # random.Random(-s) is random.Random(s)
        raise InvalidGeometryError("string seed must be non-negative")
    ls = env.l1_linesize
    rng = random.Random(seed)
    full_pages, tail = divmod(footprint, env.pagesize)
    lines_per_page = env.pagesize // ls
    pages = list(range(full_pages))
    _shuffle(rng, pages)
    if tail:
        # The truncated page always sorts last in address space but takes a
        # random position in the row order.
        pages.insert(rng.randrange(len(pages) + 1) if pages else 0, full_pages)
    chain = []
    for page in pages:
        count = lines_per_page if page < full_pages else tail // ls
        cols = list(range(count))
        _shuffle(rng, cols)
        base = page * env.pagesize
        chain.extend(base + c * ls for c in cols)
    if len(chain) < 2:
        raise InvalidGeometryError("cache string needs at least 2 slots")
    return ReferenceString(footprint=footprint,
                           kind=CacheKind(footprint, ls, env.pagesize),
                           seed=seed, chain=chain)


def build_tlb_string(n: int, footprint: int, env: MachineEnv, seed: int) -> ReferenceString:
    """Build T(n, k): n slots in each page of a k-byte footprint.

    For n = 1 the line within each page is drawn from a shuffled column set,
    wrapping modularly, and pages are visited in shuffled order.  For n > 1
    each page gets n consecutive lines starting at a per-page variable offset,
    and the full access order is randomized.
    """
    ls = env.l1_linesize
    lines_per_page = env.pagesize // ls
    if n < 1 or n > lines_per_page:
        raise InvalidGeometryError("lines per page must be in [1, pagesize/linesize]")
    if footprint <= 0 or footprint % env.pagesize:
        raise InvalidGeometryError("TLB string footprint must be a multiple of pagesize")
    if footprint > MAX_FOOTPRINT:
        raise InvalidGeometryError("footprint exceeds allocation limit")
    npages = footprint // env.pagesize
    if n * npages < 2:
        raise InvalidGeometryError("TLB string needs at least 2 slots")
    if seed < 0:  # random.Random(-s) is random.Random(s)
        raise InvalidGeometryError("string seed must be non-negative")
    rng = random.Random(seed)
    rows = list(range(npages))
    _shuffle(rng, rows)
    chain = []
    if n == 1:
        cols = list(range(lines_per_page))
        _shuffle(rng, cols)
        for j, page in enumerate(rows):
            chain.append(page * env.pagesize + cols[j % lines_per_page] * ls)
    else:
        for page in rows:
            base = (page * n) % lines_per_page
            for i in range(n):
                line = (base + i) % lines_per_page
                chain.append(page * env.pagesize + line * ls)
        _shuffle(rng, chain)
    return ReferenceString(footprint=footprint,
                           kind=TlbKind(n, footprint, ls, env.pagesize),
                           seed=seed, chain=chain)
