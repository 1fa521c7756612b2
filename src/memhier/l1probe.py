"""Gap-string L1 probe: capacity, way size and line size by searches over
powers of two; latency comes from the all-hit baseline.

G(n, k, o) is the gap string of ``refstring.build_gap_string``.  After
Yotov, Pingali & Stodghill (SIGMETRICS 2005), capacity is measured as n * k
by bracketing and then bisection, and no search assumes a power-of-two
number of ways:

1. bisect the exponent of a power-of-two stride k for the smallest k whose
   G(MaxAssoc+1, k, 0) misses;
2. bisect n in [1, MaxAssoc] for the smallest n whose G(n+1, k, 0) misses:
   the capacity C is n * k;
3. bisect j for the largest way size W = k * 2^j that divides C and whose
   G(C/W+1, W, 0) misses: the number of ways is C/W;
4. double the offset o from one word for the first G(C/W+1, W, o) back at
   the baseline: the line size is o.

At a power-of-two stride k that divides the way size S, G(n+1, k, 0) puts
ceil((n+1)k / S) lines in one set, so it misses exactly when (n+1)k > C, and
every k at or above S misses; G(C/W+1, W, 0) misses exactly when W divides
S; and G(C/W+1, W, o) for o below W moves its last line out of the set
exactly when o reaches the line size.  The predicates are monotone where
they are searched and nowhere else: 32K/8 misses at a 2 KB stride but hits
at 2.5 KB, and 48K/12 hits at n = 16 with gap C/16.

Unless each gap string settled on its first run (the simulator's do), a
result its strings contradict is an error, not a report (``check_geometry``).

Works on L1 only because L1 data caches are core-private and virtually
mapped; the multi-level sweep handles everything above it.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Tuple

from .errors import ProbeError
from .refstring import MachineEnv, build_gap_string
from .timing import DEFAULT_WINDOW, STEP_TOL, is_step, measure_stable

DEFAULT_LB = 1024
DEFAULT_UB = 4 * 1024 * 1024
DEFAULT_MAX_ASSOC = 16


class L1Params:
    __slots__ = ("lb", "ub", "max_assoc")

    def __init__(self, lb: int = DEFAULT_LB, ub: int = DEFAULT_UB,
                 max_assoc: int = DEFAULT_MAX_ASSOC):
        if lb >= ub:
            raise ProbeError("L1 probe needs LB < UB")
        if max_assoc < 1:
            raise ProbeError("MaxAssoc must be a positive integer")
        self.lb = lb
        self.ub = ub
        self.max_assoc = max_assoc


class L1Report(NamedTuple):
    capacity: int
    associativity: int
    linesize: int
    latency: int
    string_runs: int = 0


class GapTimer:
    """Stable times of gap strings on one backend, the string runs they
    took, and whether every one settled on its first run."""

    def __init__(self, env: MachineEnv, backend,
                 window: int = DEFAULT_WINDOW):
        self.env = env
        self.backend = backend
        self.window = window
        self.string_runs = 0
        self.settled = True

    def cycles(self, n: int, k: int, o: int = 0) -> float:
        """Stable time of G(n, k, o) in cycles per access."""
        m = measure_stable(lambda: build_gap_string(n, k, o, self.env),
                           self.backend, window=self.window)
        self.string_runs += m.runs_taken
        self.settled = self.settled and m.runs_taken == 1
        return m.min_cycles_per_access

    def misses(self, base: float, n: int, k: int, o: int = 0) -> bool:
        """Whether G(n, k, o) leaves the all-hit baseline ``base``."""
        return is_step(base, self.cycles(n, k, o), STEP_TOL)


def _bisect(lo: int, hi: int, pred: Callable[[int], bool]) -> int:
    """The smallest value in (lo, hi] where ``pred`` holds, for a ``pred``
    that is false at ``lo``, true at ``hi`` and monotone between; neither
    end is evaluated."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def baseline(params: L1Params, timer: GapTimer) -> float:
    """Stable time of G(2, LB/2, 0): the all-hit L1 reference in cycles."""
    return timer.cycles(2, params.lb // 2)


def find_stride(params: L1Params, base: float, timer: GapTimer) -> int:
    """Search 1: the smallest power-of-two gap k whose G(MaxAssoc+1, k, 0)
    misses, by bisecting the exponent of k from max(LB/MaxAssoc, word),
    rounded down to a power of two, to the largest k with k * MaxAssoc
    within UB."""
    ma = params.max_assoc
    # Both ends of the exponent's range start one step outside it, where
    # nothing is measured: the low end counts as a hit, the high one a miss.
    hi = _bisect(max(params.lb // ma, timer.env.word).bit_length() - 2,
                 (params.ub // ma).bit_length(),
                 lambda j: timer.misses(base, ma + 1, 1 << j))
    if (1 << hi) * ma > params.ub:
        raise ProbeError("no gap produced misses: capacity above UB=%d"
                         % params.ub)
    return 1 << hi


def find_capacity(params: L1Params, base: float,
                  timer: GapTimer) -> Tuple[int, int]:
    """Searches 1 and 2: at the stride k of ``find_stride``, bisect for the
    smallest n in [1, MaxAssoc] whose G(n+1, k, 0) misses.  Returns
    (capacity n * k, k)."""
    k = find_stride(params, base, timer)
    # G(1, k, 0) is the empty case; G(MaxAssoc+1, k, 0) misses.
    n = _bisect(0, params.max_assoc, lambda m: timer.misses(base, m + 1, k))
    return n * k, k


def find_associativity(capacity: int, stride: int, base: float,
                       timer: GapTimer) -> int:
    """Search 3: bisect j for the largest way size W = stride * 2^j that
    divides ``capacity`` and whose G(capacity/W+1, W, 0) misses.  Returns
    the number of ways, capacity/W."""
    n = capacity // stride
    # W = stride * 2^j divides the capacity for j up to n's factors of two.
    # G(n+1, stride, 0), at j = 0, is the miss search 2 ended on; the j past
    # n's factors of two never misses.  The largest j that misses is one
    # below the smallest that hits.
    j = _bisect(0, (n & -n).bit_length(),
                lambda j: not timer.misses(base, capacity // (stride << j) + 1,
                                           stride << j)) - 1
    return capacity // (stride << j)


def find_linesize(l1_size: int, l1_assoc: int, base: float,
                  timer: GapTimer) -> int:
    """Search 4: the first offset o of word, 2 word, 4 word, ... below the
    pagesize that moves the final reference into the next set, dropping
    G(assoc+1, size/assoc, o) back to baseline."""
    gap = l1_size // l1_assoc
    env = timer.env
    o = env.word
    while o < env.pagesize:
        if not timer.misses(base, l1_assoc + 1, gap, o):
            return o
        o *= 2
    raise ProbeError("no offset restored the baseline: linesize not found")


def check_geometry(capacity: int, assoc: int, linesize: int, base: float,
                   timer: GapTimer) -> None:
    """Raise ProbeError unless the line size is a power of two that divides
    the way size W, fresh runs of G(assoc, W, 0) stay at the baseline and of
    G(assoc+1, W, 0) leave it, as does G(assoc+1, W, L/2) for a line size L
    above one word, G(assoc+1, W, L) is back at the baseline, and, where 2W
    divides the capacity, so is G(C/2W+1, 2W, 0): W is the largest way size
    that misses.  A miss is a rise of a quarter of G(2*assoc+2, W, 0)'s, and
    of at least ``STEP_TOL``; nothing assumes LRU's all-hit exact fit or
    full miss one line over.  So a noisy search's geometry (one way short,
    half the way size, a multiple or a fraction of the line) is an error
    instead of a report."""
    way = capacity // assoc
    if linesize & (linesize - 1) or way % linesize:
        raise ProbeError("inconsistent L1 result: linesize %d does not divide "
                         "the %d byte way" % (linesize, way))
    reads = {}

    def read(n: int, k: int, o: int = 0) -> float:
        if (n, k, o) not in reads:  # G(1, k, o) is the empty case
            reads[n, k, o] = timer.cycles(n, k, o) if n > 1 else base
        return reads[n, k, o]

    half = linesize // 2 if linesize > timer.env.word else 0
    hits = [read(assoc, way)]
    misses = [read(assoc + 1, way), read(assoc + 1, way, half)]
    hits.append(read(assoc + 1, way, linesize))
    tol = max(STEP_TOL, (read(2 * assoc + 2, way) - base) / 4)
    if assoc % 2 == 0:  # 2W divides the capacity
        hits.append(read(assoc // 2 + 1, 2 * way))
    if (any(is_step(base, c, tol) for c in hits)
            or not all(is_step(base, c, tol) for c in misses)):
        raise ProbeError(
            "inconsistent L1 result: %d ways of %d bytes with %d byte lines, "
            "but %s against a baseline of %.2f and a miss margin of %.2f"
            % (assoc, way, linesize,
               ", ".join("G(%d, %d, %d) reads %.2f" % (n, k, o, c)
                         for (n, k, o), c in reads.items()), base, tol))


def run_l1_probe(params: L1Params, env: MachineEnv, backend,
                 window: int = DEFAULT_WINDOW) -> L1Report:
    """Measure the L1 geometry.  Unless every gap string settled on its
    first run, the result must pass ``check_geometry``."""
    timer = GapTimer(env, backend, window)
    base = baseline(params, timer)
    capacity, stride = find_capacity(params, base, timer)
    assoc = find_associativity(capacity, stride, base, timer)
    linesize = find_linesize(capacity, assoc, base, timer)
    if not timer.settled:
        check_geometry(capacity, assoc, linesize, base, timer)
    return L1Report(capacity=capacity, associativity=assoc, linesize=linesize,
                    latency=max(1, round(base)), string_runs=timer.string_runs)
