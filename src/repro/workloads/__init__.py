"""The paper's benchmark programs, re-implemented in Mini-C.

The RISC I evaluation used a suite of eleven C programs.  Each entry in
:data:`BENCHMARKS` carries Mini-C source, a human description, and the
input scaling applied so a Python-hosted instruction-level simulator can
execute the suite in seconds (documented per program; the measured
quantities are ratios, which are robust to these kernels' input sizes).
"""

from repro.workloads.cache import (
    clear_compile_cache,
    compile_cache_info,
    compile_cached,
)
from repro.workloads.programs import BENCHMARKS, Benchmark, benchmark, expected_results
from repro.workloads.traces import synthetic_call_trace

#: Multicore scenario names re-exported lazily (the scenarios are
#: first-class workloads, but importing them pulls in the whole
#: :mod:`repro.multicore` platform, which single-core users never need).
_MULTICORE_EXPORTS = (
    "MULTICORE_SCENARIOS",
    "multicore_scenario",
    "run_multicore_scenario",
)


def __getattr__(name: str):
    if name in _MULTICORE_EXPORTS:
        from repro.multicore import scenarios as _scenarios

        value = {
            "MULTICORE_SCENARIOS": _scenarios.SCENARIOS,
            "multicore_scenario": _scenarios.scenario,
            "run_multicore_scenario": _scenarios.run_scenario,
        }[name]
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BENCHMARKS",
    "Benchmark",
    "MULTICORE_SCENARIOS",
    "benchmark",
    "multicore_scenario",
    "run_multicore_scenario",
    "clear_compile_cache",
    "compile_cache_info",
    "compile_cached",
    "expected_results",
    "synthetic_call_trace",
]
