"""Empirical characterization of a processor's data memory hierarchy.

Discovers L1 cache capacity, associativity, line size and latency, the
effective capacities and latencies of the upper cache levels, and TLB levels
and capacities, using pointer-chasing reference strings, a minimum-of-trials
stability discipline, and a knockout-revival sweep.  A deterministic
hierarchy simulator doubles as the correctness oracle.
"""

import importlib

__version__ = "0.1.0"

#: Each exported name and the module that defines it.  A name's module is
#: imported on the name's first use (PEP 562), so importing the package, or
#: one module of it, loads no probe that is not run.
_EXPORTS = {
    "assemble_report": "analysis", "detect_transitions": "analysis",
    "RealMemoryBackend": "backend", "acquire_region": "backend",
    "curve_from_csv": "cacheprobe", "curve_to_csv": "cacheprobe",
    "run_cache_sweep": "cacheprobe", "sample_points": "cacheprobe",
    "AllocationFailureError": "errors", "BudgetExceededError": "errors",
    "ConfigError": "errors", "CurveFormatError": "errors",
    "DegenerateCurveError": "errors", "InvalidGeometryError": "errors",
    "MemhierError": "errors", "ProbeError": "errors",
    "TimerTooCoarseError": "errors",
    "L1Params": "l1probe", "L1Report": "l1probe", "run_l1_probe": "l1probe",
    "MachineEnv": "refstring", "ReferenceString": "refstring",
    "build_cache_string": "refstring", "build_gap_string": "refstring",
    "build_tlb_string": "refstring",
    "CacheLevel": "simoracle", "SimConfig": "simoracle",
    "SimulatedBackend": "simoracle", "TlbLevel": "simoracle",
    "load_config": "simoracle", "parse_config": "simoracle",
    "simulate": "simoracle",
    "Measurement": "timing", "ResponseCurve": "timing",
    "SamplePoint": "timing", "measure_stable": "timing",
    "run_once": "timing",
    "TlbSuspect": "tlbprobe", "run_tlb_probe": "tlbprobe",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r"
                             % (__name__, name))
    value = getattr(importlib.import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
