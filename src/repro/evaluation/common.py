"""The benchmark matrix: every benchmark on RISC I and the baselines.

A RISC I record is read from the program's profile
(:meth:`CompiledRisc.profile <repro.cc.compiler.CompiledRisc.profile>`),
the one run per program and window count that every section shares.
The baseline records are cached per benchmark, so any subset reuses
them.  The baselines share one run per distinct program: the four
machines' generated programs are grouped by equality, each group's
program runs once, and its per-pc counts are priced for every machine
in the group.
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


#: baseline records of each benchmark, by name
_CISC: dict[str, tuple[BenchmarkRecord, ...]] = {}


def _names(names: tuple[str, ...] | None) -> tuple[str, ...]:
    return tuple(bench.name for bench in BENCHMARKS) if names is None else names


def run_benchmark_matrix(
    names: tuple[str, ...] | None = None,
) -> dict[tuple[str, str], BenchmarkRecord]:
    """Every benchmark (default: all) on every machine.

    Returns records keyed by ``(benchmark_name, machine_name)``.
    """
    records: dict[tuple[str, str], BenchmarkRecord] = {}
    for name in _names(names):
        records[(name, RISC_NAME)] = _risc_record(name)
        if name not in _CISC:
            _CISC[name] = _run_cisc(benchmark(name))
        for record in _CISC[name]:
            records[(name, record.machine)] = record
    return records


def risc_records(names: tuple[str, ...] | None = None) -> dict[str, BenchmarkRecord]:
    """The RISC I record of each benchmark (default: all), by name, in
    name order."""
    return {name: _risc_record(name) for name in sorted(_names(names))}


def _risc_record(name: str) -> BenchmarkRecord:
    compiled = compile_cached(benchmark(name).source)
    profile = compiled.profile()
    return BenchmarkRecord(
        benchmark=name,
        machine=RISC_NAME,
        cycle_time_ns=CYCLE_TIME_NS,
        result=profile.result,
        code_bytes=compiled.code_size_bytes,
        instructions=profile.stats.instructions,
        cycles=profile.stats.cycles,
        data_refs=profile.data_refs,
        window_overflows=profile.stats.window_overflows,
        call_trace=profile.call_trace,
        decode_hits=profile.decode["hits"],
        decode_misses=profile.decode["misses"],
        decode_evictions=profile.decode["evictions"],
        engine="trace",
    )


def _run_cisc(bench: Benchmark) -> tuple[BenchmarkRecord, ...]:
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
    return tuple(records)


def machine_names() -> list[str]:
    """RISC I, then every baseline machine, in table-column order."""
    return [RISC_NAME] + [traits.name for traits in ALL_TRAITS]
