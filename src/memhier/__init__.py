"""Empirical characterization of a processor's data memory hierarchy.

Discovers L1 cache capacity, associativity, line size and latency, the
effective capacities and latencies of the upper cache levels, and TLB levels
and capacities, using pointer-chasing reference strings, a minimum-of-trials
stability discipline, and a knockout-revival sweep.  A deterministic
hierarchy simulator doubles as the correctness oracle.
"""

from .analysis import (HierarchyReport, LevelReport, assemble_report,
                       detect_transitions)
from .backend import RealMemoryBackend, acquire_region
from .cacheprobe import (curve_from_csv, curve_to_csv, run_cache_sweep,
                         sample_points)
from .errors import (AllocationFailureError, BudgetExceededError, ConfigError,
                     CurveFormatError, DegenerateCurveError,
                     InvalidGeometryError, MemhierError, ProbeError,
                     TimerTooCoarseError)
from .l1probe import L1Params, L1Report, run_l1_probe
from .refstring import (MachineEnv, ReferenceString, build_cache_string,
                        build_gap_string, build_tlb_string)
from .simoracle import (CacheLevel, SimConfig, SimulatedBackend, TlbLevel,
                        load_config, parse_config, simulate)
from .timing import (Measurement, ResponseCurve, SamplePoint, measure_stable,
                     run_once)
from .tlbprobe import TlbLevelResult, TlbSuspect, run_tlb_probe

__version__ = "0.1.0"
