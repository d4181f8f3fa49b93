"""Host-side performance of the simulators themselves.

Unlike the table/figure benches (one-shot experiment regeneration),
these time the Python simulators with real statistics - useful for
catching performance regressions in the hot interpreter loops.

CI runs this file with ``--benchmark-json BENCH_simulator.json`` and
feeds the result to ``ci/check_perf.py``, which gates on
machine-independent speedup ratios such as trace-vs-reference (see
``ci/perf_baseline.json``).
"""

import time
from array import array

from repro.baselines import VaxTraits, CiscExecutor
from repro.cc import compile_for_risc, compile_to_ir
from repro.cc.ciscgen import compile_for_cisc
from repro.cpu.engines import fastest_scalar_engine
from repro.cpu.runprofile import profile_machine
from repro.faults.campaign import _golden_from, _golden_run, _run_injection
from repro.faults.models import FaultKind, FaultSpec, FaultTarget, FaultTrigger
from repro.hll import run_program
from repro.workloads import benchmark as benchmark_program
from repro.workloads.cache import compile_cached

SOURCE = benchmark_program("towers").source


def _risc_run(compiled, engine):
    machine = compiled.make_machine(engine=engine)
    machine.run(compiled.program.entry)
    return machine.stats.instructions


def test_risc_simulator_speed(benchmark):
    compiled = compile_for_risc(SOURCE)
    instructions = benchmark(lambda: _risc_run(compiled, "reference"))
    benchmark.extra_info["engine"] = "reference"
    benchmark.extra_info["instructions"] = instructions
    assert instructions > 10_000


def _observed_run(compiled, engine):
    """A run under a ``pre_step`` PC recorder, the way campaign golden
    runs were recorded before they ran unobserved on the trace tier."""
    machine = compiled.make_machine(engine=engine)
    pcs = []
    machine.observers.subscribe("pre_step", lambda m: pcs.append(m.pc))
    machine.run(compiled.program.entry)
    return len(pcs)


def test_observed_reference_simulator_speed(benchmark):
    compiled = compile_for_risc(SOURCE)
    steps = benchmark(lambda: _observed_run(compiled, "reference"))
    benchmark.extra_info["engine"] = "reference+pre_step"
    benchmark.extra_info["steps"] = steps
    assert steps > 10_000


def test_observed_trace_simulator_speed(benchmark):
    """Paired with the observed reference run by the
    observed-trace-vs-reference baseline entry: ``pre_step`` observers
    must keep the trace tier's single steps on its inner engine's
    pre-decoded thunks."""
    compiled = compile_for_risc(SOURCE)
    steps = benchmark(lambda: _observed_run(compiled, "trace"))
    benchmark.extra_info["engine"] = "trace+pre_step"
    benchmark.extra_info["steps"] = steps
    assert steps > 10_000


def _observed_golden_run(name):
    """A campaign golden run as it used to be recorded: a ``pre_step``
    PC recorder, which single-steps every instruction, then the per-PC
    visit index."""
    compiled = compile_cached(benchmark_program(name).source)
    machine = compiled.make_machine(engine="trace")
    pcs = array("I")
    machine.observers.subscribe("pre_step", lambda m: pcs.append(m.pc))
    machine.run(compiled.program.entry)
    visits = {}
    for step, pc in enumerate(pcs):
        visits.setdefault(pc, array("I")).append(step)
    return len(pcs)


def test_observed_golden_run_speed(benchmark):
    steps = benchmark(lambda: _observed_golden_run("ackermann"))
    benchmark.extra_info["engine"] = "trace+pre_step"
    benchmark.extra_info["workload"] = "ackermann"
    benchmark.extra_info["steps"] = steps
    assert steps > 10_000


def test_golden_run_speed(benchmark):
    """The campaign's golden run on ackermann: a fresh profile
    (unobserved on the trace tier, with the dispatch path logged; the
    campaign reads a memoized one) and the PC trace rebuilt from it.

    Paired with the observed recorder by the golden-unobserved-vs-
    observed baseline entry: a golden run that subscribes a per-step
    observer again runs at about the observed recorder's speed.
    """
    compiled = compile_cached(benchmark_program("ackermann").source)

    def golden_run():
        machine = compiled.make_machine()
        return _golden_from(
            "ackermann", profile_machine(machine, compiled.program.entry)
        )

    golden = benchmark(golden_run)
    benchmark.extra_info["engine"] = "trace"
    benchmark.extra_info["workload"] = "ackermann"
    benchmark.extra_info["steps"] = golden.instructions
    assert golden.instructions > 10_000


#: towers' ``moves`` counter (``.org 16`` in its listing) with bit 0
#: stuck at one from cycle 100 on: each ``moves = moves + 1`` stores an
#: even count that the stuck bit makes odd, so every move counts twice.
STUCK_MOVES = FaultSpec(
    FaultTarget.MEMORY, FaultKind.STUCK_AT_ONE, FaultTrigger(at_cycle=100),
    location=16, bits=(0,),
)

#: Physical register 21 (window 0's r21, hanoi's ``to`` peg at every
#: eighth recursion depth) with bit 31 stuck at one from cycle 100 on:
#: most traces do not write it and run compiled, the rest single-step.
#: The peg only selects the next call's arguments, so the run is masked.
STUCK_REGISTER = FaultSpec(
    FaultTarget.REGISTER, FaultKind.STUCK_AT_ONE, FaultTrigger(at_cycle=100),
    location=21, bits=(31,),
)

#: hanoi's ``add r18, r19, #1`` (``moves + 1``, at 0x70) with bit 1
#: stuck at one from its first fetch on: every move adds 3.
STUCK_FETCH = FaultSpec(
    FaultTarget.INSTRUCTION, FaultKind.STUCK_AT_ONE, FaultTrigger(at_pc=0x70),
    location=0x70, bits=(1,),
)


def _stuck_trial(benchmark, spec, expected, *, observed=None):
    """Time the towers campaign trial of *spec*, on a trial machine built
    the way the campaign builds one, and check its result against
    *expected* (a function of the golden result).  *observed* names a
    no-op observer event to subscribe: ``pre_step`` single-steps every
    step, ``fetch_word`` hands every step to the reference oracle."""
    golden, compiled = _golden_run("towers")
    machine = compiled.make_machine(engine=fastest_scalar_engine())
    machine.reset(compiled.program.entry)
    checkpoint = machine.checkpoint(track_memory_deltas=True)
    if observed == "pre_step":
        machine.observers.subscribe("pre_step", lambda m: None)
    elif observed == "fetch_word":
        machine.observers.subscribe("fetch_word", lambda pc, word: word)
    budget = golden.instructions * 2
    result = benchmark(
        lambda: _run_injection(machine, checkpoint, golden, spec, budget)
    )
    benchmark.extra_info["engine"] = machine.engine_name
    benchmark.extra_info["steps"] = result.instructions
    assert result.result == expected(golden.result)
    assert result.instructions == golden.instructions
    return result


def test_stuck_at_observed_trial_speed(benchmark):
    _stuck_trial(benchmark, STUCK_MOVES, lambda r: 2 * r + 1, observed="pre_step")


def test_stuck_at_pinned_trial_speed(benchmark):
    """Paired with the observed trial by the stuck-pinned-vs-observed
    baseline entry: once it fires, a memory stuck-at fault is pinned on
    the machine and the trial runs on compiled traces; a trial that
    single-steps its stuck-at fault again runs at the observed speed.
    """
    _stuck_trial(benchmark, STUCK_MOVES, lambda r: 2 * r + 1)


def test_stuck_register_observed_trial_speed(benchmark):
    _stuck_trial(benchmark, STUCK_REGISTER, lambda r: r, observed="pre_step")


def test_stuck_register_pinned_trial_speed(benchmark):
    """Paired with the observed trial by the stuck-register-pinned-vs-
    observed baseline entry: a pinned register runs every trace whose
    write set misses it."""
    _stuck_trial(benchmark, STUCK_REGISTER, lambda r: r)


def test_stuck_fetch_observed_trial_speed(benchmark):
    _stuck_trial(benchmark, STUCK_FETCH, lambda r: 3 * r, observed="fetch_word")


def test_stuck_fetch_pinned_trial_speed(benchmark):
    """Paired with the observed trial by the stuck-fetch-pinned-vs-
    observed baseline entry: a pinned instruction word is compiled
    corrupted, so the trial runs on compiled traces; an instruction
    fault that keeps its fetch filter sends every step to the oracle."""
    _stuck_trial(benchmark, STUCK_FETCH, lambda r: 3 * r)


def test_trace_engine_simulator_speed(benchmark):
    compiled = compile_for_risc(SOURCE)
    instructions = benchmark(lambda: _risc_run(compiled, "trace"))
    benchmark.extra_info["engine"] = "trace"
    benchmark.extra_info["instructions"] = instructions
    assert instructions > 10_000


def test_trace_engine_ackermann_speed(benchmark):
    """Ackermann on the trace tier: about one window trap per 19 steps.

    Paired with the towers trace run by the trace-ackermann-vs-towers
    baseline entry: a spill or refill that moves its 16 registers one
    word at a time makes ackermann about 7x slower than towers instead
    of about 3x.
    """
    compiled = compile_for_risc(benchmark_program("ackermann").source)
    instructions = benchmark(lambda: _risc_run(compiled, "trace"))
    benchmark.extra_info["engine"] = "trace"
    benchmark.extra_info["workload"] = "ackermann"
    benchmark.extra_info["instructions"] = instructions
    assert instructions > 10_000


def _cold_rounds(benchmark, compiled, engine, caches, rounds=5):
    """Time whole runs of *compiled*, each after emptying *caches*: the
    process-level factory caches a first run in a fresh process finds
    empty, so every round pays the tier's codegen again."""

    def clear():
        for cache in caches:
            cache.clear()

    return benchmark.pedantic(
        _risc_run, args=(compiled, engine), setup=clear, rounds=rounds,
        iterations=1, warmup_rounds=0,
    )


def test_trace_engine_cold_speed(benchmark):
    """sed_batch on the trace tier with no cached trace factories.

    Paired with the reference-tier run by the trace-cold-vs-reference
    baseline entry: a trace tier that generates more code than a cold
    run can amortize (loop bodies unrolled into every trace) loses most
    of its lead over the oracle.
    """
    from repro.cpu import fastengine, traceengine

    compiled = compile_for_risc(benchmark_program("sed_batch").source)
    caches = (traceengine._TRACE_FACTORY_CACHE, fastengine._FACTORY_CACHE)
    instructions = _cold_rounds(benchmark, compiled, "trace", caches)
    benchmark.extra_info["engine"] = "trace"
    benchmark.extra_info["workload"] = "sed_batch"
    benchmark.extra_info["instructions"] = instructions
    assert instructions > 10_000


def test_reference_engine_cold_speed(benchmark):
    """sed_batch on the reference tier, which has no factory cache: every
    run decodes on a fresh machine."""
    compiled = compile_for_risc(benchmark_program("sed_batch").source)
    instructions = _cold_rounds(benchmark, compiled, "reference", ())
    benchmark.extra_info["engine"] = "reference"
    benchmark.extra_info["workload"] = "sed_batch"
    benchmark.extra_info["instructions"] = instructions
    assert instructions > 10_000


def test_trace_engine_speedup_at_least_10x():
    """The trace tier's reason to exist, asserted directly.

    Timed with best-of-N wall clocks rather than the benchmark fixture
    (which cannot time two competing subjects in one test).  Measured
    ~32x over reference on towers; the 25x acceptance bar lives in
    ``ci/check_perf.py`` (trace-vs-reference), while this in-suite
    floor is set at 10x so slow shared-CI hosts cannot flake it.
    """
    compiled = compile_for_risc(SOURCE)

    def best_of(engine, rounds=3):
        _risc_run(compiled, engine)  # warm decode/trace caches
        best = float("inf")
        for __ in range(rounds):
            start = time.perf_counter()
            _risc_run(compiled, engine)
            best = min(best, time.perf_counter() - start)
        return best

    reference = best_of("reference")
    trace = best_of("trace")
    assert reference / trace >= 10.0, (
        f"trace engine only {reference / trace:.2f}x faster "
        f"({reference * 1e3:.1f}ms vs {trace * 1e3:.1f}ms)"
    )


def test_cisc_simulator_speed(benchmark):
    """The VAX-11/780 baseline executor on towers.

    Paired with the reference-tier towers run by the cisc-vs-reference
    baseline entry: the executor decodes each static instruction once
    per run, and its floor fails if every step goes back to an if-chain.
    """
    traits = VaxTraits()
    generated = compile_for_cisc(compile_to_ir(SOURCE), traits)

    def run():
        executor = CiscExecutor(generated.program, traits)
        executor.run()
        return executor.instructions_executed

    instructions = benchmark(run)
    assert instructions > 5_000


def test_interpreter_speed(benchmark):
    result = benchmark(lambda: run_program(SOURCE, max_ops=20_000_000).value)
    assert result == 1023


def test_compiler_speed(benchmark):
    compiled = benchmark(lambda: compile_for_risc(SOURCE))
    assert compiled.code_size_bytes > 0
