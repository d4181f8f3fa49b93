"""Shared benchmark-matrix runner with in-process caching.

T4 (code size), T5 (execution time), T6 (window overflow) and the
ablations all need the same expensive artifact: every benchmark compiled
and executed on RISC I and on the four baseline models.  This module
computes those records once per process and caches them.

The baselines share one run per distinct program: the four machines'
generated programs are grouped by equality, each group's program runs
once, and the run's per-pc counts are priced for every machine in the
group.  So the result, instruction count and data references are shared
within a group, while cycles and code size stay per machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines import ALL_TRAITS, run_distinct
from repro.cc import compile_to_ir
from repro.cc.ciscgen import compile_for_cisc
from repro.cpu.machine import CYCLE_TIME_NS
from repro.workloads import BENCHMARKS, Benchmark, benchmark
from repro.workloads.cache import compile_cached

RISC_NAME = "RISC I"
VAX_NAME = "VAX-11/780"

#: benchmark subset used when callers ask for a fast run
FAST_SUBSET = ("ackermann", "towers", "recursive_qsort", "f_bit_test")


@dataclass(frozen=True)
class BenchmarkRecord:
    """Results of one (benchmark, machine) execution."""

    benchmark: str
    machine: str
    cycle_time_ns: float
    result: int
    code_bytes: int
    instructions: int
    cycles: int
    data_refs: int
    window_overflows: int = 0
    call_trace: tuple = ()
    # Decode-cache behaviour of the run (RISC records only; baselines
    # execute IR directly and leave these at zero).  Lives on the export
    # record, not ExecutionStats: each execution engine decodes through
    # its own cache, so these are a property of *how* the run was
    # simulated, while ExecutionStats stays bit-identical across
    # engines.
    decode_hits: int = 0
    decode_misses: int = 0
    decode_evictions: int = 0
    # Execution tier that produced the decode counters above (RISC
    # records only); None for baselines, which have no tiers.
    engine: str | None = None

    @property
    def time_ms(self) -> float:
        return self.cycles * self.cycle_time_ns / 1e6


_CACHE: dict[tuple, dict[tuple[str, str], BenchmarkRecord]] = {}


def run_benchmark_matrix(
    names: tuple[str, ...] | None = None,
    *,
    include_baselines: bool = True,
) -> dict[tuple[str, str], BenchmarkRecord]:
    """Compile and execute benchmarks on every machine; cached per-process.

    Returns records keyed by ``(benchmark_name, machine_name)``.
    """
    if names is None:
        names = tuple(bench.name for bench in BENCHMARKS)
    key = (names, include_baselines)
    if key in _CACHE:
        return _CACHE[key]
    records: dict[tuple[str, str], BenchmarkRecord] = {}
    for name in names:
        bench = benchmark(name)
        records[(name, RISC_NAME)] = _run_risc(bench)
        if include_baselines:
            for record in _run_cisc(bench):
                records[(name, record.machine)] = record
    _CACHE[key] = records
    return records


def _run_risc(bench: Benchmark) -> BenchmarkRecord:
    compiled = compile_cached(bench.source)
    value, machine = compiled.run()
    decode_info = machine.decode_cache_stats()
    return BenchmarkRecord(
        benchmark=bench.name,
        machine=RISC_NAME,
        cycle_time_ns=CYCLE_TIME_NS,
        result=value,
        code_bytes=compiled.code_size_bytes,
        instructions=machine.stats.instructions,
        cycles=machine.stats.cycles,
        data_refs=machine.memory.stats.data_refs,
        window_overflows=machine.stats.window_overflows,
        call_trace=tuple(machine.call_trace),
        decode_hits=decode_info["hits"],
        decode_misses=decode_info["misses"],
        decode_evictions=decode_info["evictions"],
        engine=machine.engine_name,
    )


def _run_cisc(bench: Benchmark) -> list[BenchmarkRecord]:
    """One record per baseline machine, in :data:`ALL_TRAITS` order."""
    ir = compile_to_ir(bench.source)
    generated = [compile_for_cisc(ir, traits) for traits in ALL_TRAITS]
    runs = run_distinct([(traits, gen.program)
                         for traits, gen in zip(ALL_TRAITS, generated)])
    records = []
    for gen, (traits, value, executor) in zip(generated, runs):
        cycles, __ = executor.price(traits)
        records.append(BenchmarkRecord(
            benchmark=bench.name,
            machine=traits.name,
            cycle_time_ns=traits.cycle_time_ns,
            result=value,
            code_bytes=gen.static_bytes,
            instructions=executor.instructions_executed,
            cycles=cycles,
            data_refs=executor.memory.stats.data_refs,
        ))
    return records


def machine_names(include_baselines: bool = True) -> list[str]:
    names = [RISC_NAME]
    if include_baselines:
        names += [traits.name for traits in ALL_TRAITS]
    return names
