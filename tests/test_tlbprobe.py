import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memhier import (CacheLevel, InvalidGeometryError, MachineEnv, SimConfig,
                     SimulatedBackend, TlbLevel, build_tlb_string,
                     measure_stable)
from memhier.refstring import MAX_FOOTPRINT
from memhier.timing import JUMP, is_step
from memhier.tlbprobe import (TlbSuspect, confirm_suspect, find_suspects,
                              run_tlb_probe, run_tlb_sweep)

from conftest import CountingBackend, DriftingBackend, NoRunBackend

KB = 1024
MB = 1024 * 1024
PAGE = 4096

WINDOW = 3


#: The README config's two cache levels, without its TLB.
TWO_LEVELS = SimConfig(cache_levels=[CacheLevel(32 * KB, 8, 64, 3),
                                     CacheLevel(512 * KB, 8, 64, 15)],
                       memory_latency=100)


def tlb_backend(levels, cache_cap=16 * MB):
    # A huge benign cache keeps the data side flat so rises come from the TLB.
    cfg = SimConfig(cache_levels=[CacheLevel(cache_cap, 16, 64, 3)],
                    tlb_levels=levels, memory_latency=200)
    return SimulatedBackend(cfg)


class TestSweep:
    def test_points_past_two_columns_a_set_take_one_run(self, env):
        # A 16K/4/128 L1 indexes its 32 sets inside the page, two 64-byte
        # columns to a set.  From 192 pages each column holds 3 slots,
        # under the 4 ways, but each set 6 lines: every access misses the
        # L1 and the 64-entry TLB, and each point's first run reads the
        # least of its kind.
        cfg = SimConfig(cache_levels=[CacheLevel(16 * KB, 4, 128, 3),
                                      CacheLevel(1024 * KB, 16, 64, 14)],
                        tlb_levels=[TlbLevel(64, 30)], memory_latency=100)
        curve = run_tlb_sweep(768 * KB, 1536 * KB, env,
                              SimulatedBackend(cfg), seed=1)
        assert curve.values() == [44.0] * 5
        assert curve.total_string_runs == 5

    def test_bounds_must_be_page_multiples(self, env):
        with pytest.raises(InvalidGeometryError):
            run_tlb_sweep(5000, 64 * PAGE, env,
                          tlb_backend([TlbLevel(16, 30)]), window=WINDOW)

    def test_range_of_two_points_rejected_before_any_run(self, env):
        with pytest.raises(InvalidGeometryError,
                           match="holds 2 sample points"):
            run_tlb_sweep(2 * PAGE, 3 * PAGE, env, NoRunBackend())

    def test_ub_over_allocation_limit_rejected_before_any_run(self, env):
        with pytest.raises(InvalidGeometryError):
            run_tlb_probe(env, NoRunBackend(), ub=MAX_FOOTPRINT + PAGE,
                          window=WINDOW)

    def test_curve_rises_past_entry_count(self, env):
        be = tlb_backend([TlbLevel(64, 30)])
        curve = run_tlb_sweep(4 * PAGE, 512 * PAGE, env, be,
                              window=WINDOW, seed=1)
        vals = dict(zip(curve.footprints(), curve.values()))
        assert vals[64 * PAGE] == 3.0
        assert vals[512 * PAGE] > 3.0 + 0.5

    def test_flat_when_everything_fits(self, env):
        be = tlb_backend([TlbLevel(4096, 30)])
        curve = run_tlb_sweep(4 * PAGE, 256 * PAGE, env, be,
                              window=WINDOW, seed=1)
        assert all(v == 3.0 for v in curve.values())


class TestSuspects:
    def test_single_level_yields_one_suspect_region(self, env):
        be = tlb_backend([TlbLevel(64, 30)])
        curve = run_tlb_sweep(4 * PAGE, 512 * PAGE, env, be,
                              window=WINDOW, seed=1)
        suspects = find_suspects(curve)
        assert suspects
        assert suspects[0].boundary == 64 * PAGE
        assert suspects[0].latency == 30

    def test_flat_curve_has_no_suspects(self, env):
        be = tlb_backend([TlbLevel(4096, 30)])
        curve = run_tlb_sweep(4 * PAGE, 256 * PAGE, env, be,
                              window=WINDOW, seed=1)
        assert find_suspects(curve) == []


class TestConfirmation:
    def test_each_n_runs_on_from_the_seeds_of_the_n_before(self, env):
        inner = tlb_backend([TlbLevel(64, 30)])
        runs = []

        class Recording:
            def run(self, rs, loads):
                runs.append((rs.kind.lines_per_page, rs.seed))
                return inner.run(rs, loads)

        s = confirm_suspect(TlbSuspect(footprint=80 * PAGE, boundary=64 * PAGE),
                            env, Recording(), window=WINDOW, seed=5)
        assert s.confirming_n == [2, 3, 4]
        assert [seed for _, seed in runs] == list(range(6, 6 + s.string_runs))
        first_n3 = [n for n, _ in runs].index(3)
        assert runs[first_n3 - 1][0] == 2
        assert runs[first_n3][1] == runs[first_n3 - 1][1] + 1

    def test_true_tlb_boundary_confirmed_by_all_n(self, env):
        be = tlb_backend([TlbLevel(64, 30)])
        s = confirm_suspect(TlbSuspect(footprint=80 * PAGE, boundary=64 * PAGE),
                            env, be, window=WINDOW, seed=1)
        assert s.confirmed
        assert s.confirming_n == [2, 3, 4]
        assert [n for n, _, _ in s.measured] == [2, 3, 4]
        assert all(before == 3.0 and is_step(before, after, *JUMP)
                   for _, before, after in s.measured)

    def test_cache_edge_artifact_rejected(self, env):
        # No TLB at all: a rise at the cache capacity must not be confirmed,
        # because T(n>1) strings cross the cache edge at smaller footprints.
        be = tlb_backend([], cache_cap=512 * PAGE)
        s = confirm_suspect(TlbSuspect(footprint=640 * PAGE,
                                       boundary=512 * PAGE),
                            env, be, window=WINDOW, seed=1)
        assert not s.confirmed
        # T(2,k) maps pages 32 apart to the same two sets, so it too
        # overflows the 16 ways past 512 pages; T(3,k) spreads them and does
        # not.  Confirmation stops at n = 3, the n that rejected the suspect.
        assert [n for n, _, _ in s.measured] == [2, 3]
        assert s.confirming_n == [2]
        (_, before2, after2), (_, before3, after3) = s.measured
        assert is_step(before2, after2, *JUMP)
        assert not is_step(before3, after3, *JUMP)

    def test_cache_edge_rejection_takes_only_the_n2_runs(self, env):
        # The L1 edge of the README config: T(1,k) leaves a 32 KB L1 past
        # 512 pages, but T(2,k) already misses it at 512, so n = 2 shows no
        # rise and rejects the suspect on its own.
        be = CountingBackend(SimulatedBackend(TWO_LEVELS))
        s = confirm_suspect(TlbSuspect(footprint=640 * PAGE,
                                       boundary=512 * PAGE),
                            env, be, window=WINDOW, seed=1)
        assert (s.confirmed, s.confirming_n) == (False, [])
        assert [n for n, _, _ in s.measured] == [2]
        # Only T(2, boundary) and T(2, footprint) strings ran, alternating
        # while both were active.  The footprint reads what its boundary
        # reads, so it is knocked out after one run, and the boundary runs
        # its window.
        kinds = [(k.lines_per_page, k.footprint) for k in be.kinds]
        assert kinds == ([(2, 512 * PAGE), (2, 640 * PAGE)]
                         + [(2, 512 * PAGE)] * WINDOW)
        assert s.string_runs == be.runs == WINDOW + 2

    def test_confirmation_counts_its_string_runs(self, env):
        be = CountingBackend(tlb_backend([TlbLevel(64, 30)]))
        s = confirm_suspect(TlbSuspect(footprint=80 * PAGE, boundary=64 * PAGE),
                            env, be, window=WINDOW, seed=1)
        # For each n, T(n, boundary) reads the L1 latency, the simulator's
        # floor, so it is stable after one run; T(n, footprint) runs at
        # least its window after its first run.
        assert s.string_runs == be.runs >= 3 * (WINDOW + 2)
        assert sum(k.footprint == 64 * PAGE for k in be.kinds) == 3

    def test_confirmation_deterministic(self, env):
        be = tlb_backend([TlbLevel(64, 30)])
        a = confirm_suspect(TlbSuspect(footprint=80 * PAGE, boundary=64 * PAGE),
                            env, be, window=WINDOW, seed=5)
        b = confirm_suspect(TlbSuspect(footprint=80 * PAGE, boundary=64 * PAGE),
                            env, be, window=WINDOW, seed=5)
        assert (a.confirmed, a.confirming_n, a.measured) == \
            (b.confirmed, b.confirming_n, b.measured)


class TestDrift:
    """Confirmation under a machine that slows by 0.5% per run."""

    RATE = 0.005

    def test_sequential_minima_let_drift_decide(self, env):
        # Today's comparison without pairing: T(2, boundary) measured until
        # stable, then T(2, footprint).  The footprint starts 26 runs later
        # and reads 13% high, a jump where the hierarchy has none.
        be = DriftingBackend(SimulatedBackend(TWO_LEVELS), self.RATE)
        seeds = itertools.count(2)
        before, after = (
            measure_stable(lambda: build_tlb_string(2, fp, env, next(seeds)),
                           be).min_cycles_per_access
            for fp in (512 * PAGE, 640 * PAGE))
        assert before == 100.0
        assert after == pytest.approx(113.0)
        assert is_step(before, after, *JUMP)

    def test_paired_confirmation_rejects_the_cache_edge(self, env):
        be = DriftingBackend(SimulatedBackend(TWO_LEVELS), self.RATE)
        s = confirm_suspect(TlbSuspect(footprint=640 * PAGE,
                                       boundary=512 * PAGE),
                            env, be, seed=1)
        [(n, before, after)] = s.measured
        assert (n, before) == (2, 100.0)
        assert after == pytest.approx(100.5)
        assert (s.confirmed, s.confirming_n) == (False, [])

    def test_paired_confirmation_keeps_a_true_tlb_edge(self, env):
        cfg = SimConfig(cache_levels=TWO_LEVELS.cache_levels,
                        tlb_levels=[TlbLevel(64, 30)], memory_latency=100)
        be = DriftingBackend(SimulatedBackend(cfg), self.RATE)
        s = confirm_suspect(TlbSuspect(footprint=80 * PAGE, boundary=64 * PAGE),
                            env, be, seed=1)
        assert s.confirmed
        assert s.confirming_n == [2, 3, 4]


class StepBackend:
    """A stub backend on which T(n, k) reads 3 cycles at the boundary and,
    at the footprint, 3 cycles plus a jump only for the n in ``steps``."""

    def __init__(self, footprint, steps):
        self.footprint = footprint
        self.steps = steps

    def run(self, rs, loads):
        kind = rs.kind
        jumps = kind.footprint == self.footprint and \
            kind.lines_per_page in self.steps
        return 3.0 + (10.0 if jumps else 0.0)


@settings(max_examples=60, deadline=None)
@given(steps=st.sets(st.sampled_from([2, 3, 4])),
       seed=st.integers(0, 2**16))
def test_confirmation_stops_at_first_n_without_a_step(steps, seed):
    env = MachineEnv(pagesize=4096, word=8, l1_linesize=64)
    be = CountingBackend(StepBackend(80 * PAGE, steps))
    s = confirm_suspect(TlbSuspect(footprint=80 * PAGE, boundary=64 * PAGE),
                        env, be, window=WINDOW, seed=seed)
    measured_n = [n for n, _, _ in s.measured]
    failing = [n for n in (2, 3, 4) if n not in steps]
    assert s.confirmed == (not failing)
    assert measured_n == ([2, 3, 4] if not failing
                          else list(range(2, failing[0] + 1)))
    assert s.confirming_n == (measured_n if not failing
                              else measured_n[:-1])
    # Each n that reproduces the rise runs both strings for their windows;
    # at the failing n the footprint reads what its boundary reads, so it is
    # knocked out after one run and only the boundary runs its window.
    rising = len(measured_n) - (1 if failing else 0)
    assert s.string_runs == be.runs == (rising * 2 * (WINDOW + 1)
                                        + (WINDOW + 2 if failing else 0))


def confirmed_levels(suspects):
    """(entries, latency) of each confirmed suspect, in boundary order."""
    return [(s.boundary // PAGE, s.latency) for s in suspects if s.confirmed]


class TestFullProbe:
    def test_single_level_exact(self, env):
        be = tlb_backend([TlbLevel(64, 30)])
        suspects, curve = run_tlb_probe(
            env, be, ub=2 * MB, window=WINDOW, seed=1)
        assert confirmed_levels(suspects) == [(64, 30)]

    def test_two_levels_exact(self, env):
        be = tlb_backend([TlbLevel(64, 30), TlbLevel(1024, 120)])
        suspects, curve = run_tlb_probe(
            env, be, ub=8 * MB, window=WINDOW, seed=1)
        assert confirmed_levels(suspects) == [(64, 30), (1024, 120)]
        assert all(s.confirmed for s in suspects)

    def test_tlb_edge_past_the_l1_edge_reports_its_own_penalty(self, env):
        # The shape of perfbench's tlb-heavy config.  T(1,k) leaves the 32K
        # L1 at 512 pages, an 11-cycle rise that confirmation rejects, so
        # the 1,024-entry edge rises from the L2 plateau, not the L1 one.
        cfg = SimConfig(cache_levels=[CacheLevel(32 * KB, 8, 64, 3),
                                      CacheLevel(MB, 16, 64, 14)],
                        tlb_levels=[TlbLevel(64, 8), TlbLevel(1024, 30)],
                        memory_latency=100, mapping_seed=1)
        suspects, curve = run_tlb_probe(
            env, SimulatedBackend(cfg), ub=8 * MB, window=WINDOW, seed=1)
        assert [(s.boundary // PAGE, s.latency, s.confirmed)
                for s in suspects] == [(64, 8, True), (512, 11, False),
                                       (1024, 30, True)]

    def test_cache_edge_inside_range_is_filtered(self, env):
        # T(1,k) touches one line per page, so a 32KB cache runs out of lines
        # near 512 pages, inside the sweep range, alongside a real TLB level
        # at 64 entries.  Only the TLB level may be reported.
        cfg = SimConfig(cache_levels=[CacheLevel(32 * KB, 16, 64, 3)],
                        tlb_levels=[TlbLevel(64, 30)], memory_latency=200)
        suspects, curve = run_tlb_probe(
            env, SimulatedBackend(cfg), ub=8 * MB, window=WINDOW, seed=1)
        assert confirmed_levels(suspects) == [(64, 30)]
        assert any(not s.confirmed for s in suspects)

    def test_no_tlb_reports_nothing(self, env):
        be = tlb_backend([], cache_cap=64 * MB)
        suspects, curve = run_tlb_probe(
            env, be, ub=2 * MB, window=WINDOW, seed=1)
        assert confirmed_levels(suspects) == []
