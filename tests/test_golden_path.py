"""Golden runs rebuild their PC trace from the trace tier's dispatch path,
and campaign trials keep compiled traces across checkpoint restores.

A golden run used to record the PC under a ``pre_step`` observer at
every step.  It now runs unobserved on the trace tier with
``TraceEngine.path`` set: every dispatch logs the trace's addresses and
the steps its thunk completed, and since a trace visits each address
once, in order, ``addrs[:completed]`` is exactly the PCs it ran.  The
``pre_step`` recorder survives here only as the oracle.

A delta restore rolls back only journaled pages, so it drops compiled
traces only when it rolls back a word they were compiled from; the
trace tier's pending exit hits are dropped on every restore, never
folded into the stats the restore just rewound.
"""

from array import array

import pytest

from repro import RiscMachine, assemble
from repro.common.bitops import to_signed
from repro.cpu.equivalence import diff_digests, state_digest
from repro.cpu.machine import HaltReason
from repro.cpu.observers import ObserverBus
from repro.cpu.traceengine import TraceEngine
from repro.faults.campaign import (
    _benchmark_state,
    _golden_run,
    _run_injection,
)
from repro.faults.models import (
    FaultKind,
    FaultSpec,
    FaultTarget,
    FaultTrigger,
)
from repro.workloads import BENCHMARKS, benchmark
from repro.workloads.cache import compile_cached
from tests.test_trial_phases import (
    TRIAL_TIERS,
    oracle_trial,
    phased_trials,
    trial_state,
)

#: Step cap for the paper programs: keeps the observed oracle runs short,
#: and the six programs longer than this end in a watchdog tail.
STEP_CAP = 60_000


def recorded_pcs(machine: RiscMachine, max_steps: int) -> array:
    """The oracle: a ``pre_step`` PC recorder, as golden runs used to."""
    pcs = array("I")

    def record(m):
        pcs.append(m.pc)

    machine.observers.subscribe("pre_step", record)
    try:
        machine.engine.run_loop(machine, max_steps, None, None)
    finally:
        machine.observers.unsubscribe("pre_step", record)
    return pcs


def path_pcs(machine: RiscMachine, max_steps: int) -> array:
    """The PCs an unobserved trace-tier run rebuilds from its path."""
    path = machine.engine.path = []
    try:
        machine.engine.run_loop(machine, max_steps, None, None)
    finally:
        machine.engine.path = None
    pcs = array("I")
    for addrs, done in path:
        pcs.extend(addrs[:done])
    return pcs


def assert_same_run(oracle: RiscMachine, machine: RiscMachine, max_steps: int):
    """Both machines stand at the same boundary; the path rebuilds the
    oracle's PC trace and the run ends in the same state."""
    assert machine.engine_name == "trace"
    expected = recorded_pcs(oracle, max_steps)
    got = path_pcs(machine, max_steps)
    assert got == expected
    mismatches = diff_digests(state_digest(oracle), state_digest(machine))
    assert not mismatches, "\n".join(mismatches)
    detail = machine.engine.telemetry_snapshot()
    assert detail["fallback_observed"] == 0
    return detail


def paper_machines(name: str, num_windows: int):
    """Two trace-tier machines: the oracle runs observed (single-stepped),
    the other unobserved (compiled)."""
    compiled = compile_cached(benchmark(name).source)
    machines = [
        compiled.make_machine(engine="trace", num_windows=num_windows)
        for _ in range(2)
    ]
    for machine in machines:
        machine.reset(compiled.program.entry)
    return machines


@pytest.mark.parametrize("num_windows", [2, 8])
@pytest.mark.parametrize("name", [b.name for b in BENCHMARKS])
def test_path_rebuilds_the_pc_trace_of_every_paper_program(name, num_windows):
    oracle, machine = paper_machines(name, num_windows)
    assert_same_run(oracle, machine, STEP_CAP)
    assert machine.halted in (HaltReason.RETURNED, HaltReason.STEP_LIMIT)


# The bgt's slot executes on every iteration: 5+4+3+2+1 + 5*100 = 515.
DELAY_SLOT_PROGRAM = """
main:
    li    r16, 5
    li    r17, 0
loop:
    add   r17, r17, r16
    sub   r16, r16, #1
    cmp   r16, #0
    bgt   loop
    add   r17, r17, #100
    mov   r26, r17
    ret
    nop
"""

# The store patches the head of the loop trace that is running, so the
# trace invalidates itself: r18 = 1 (original) + 42 (patched) = 43.
LOOP_HEAD_PATCH = """
main:
    li   r17, 0
    li   r18, 0
loop:
    li   r16, 1
    add  r18, r18, r16
    ldl  r19, r0, donor
    stl  r19, r0, loop
    add  r17, r17, #1
    cmp  r17, #2
    blt  loop
    nop
    mov  r26, r18
    ret
    nop
donor:
    li   r16, 42
"""


def program_machines(source: str):
    program = assemble(source)
    machines = [RiscMachine(engine=engine) for engine in ("reference", "trace")]
    for machine in machines:
        program.load_into(machine.memory)
        machine.reset(program.entry)
    return machines


def test_path_entered_at_a_delay_slot():
    oracle, machine = program_machines(DELAY_SLOT_PROGRAM)
    for m in (oracle, machine):
        while not m._pending_jump:  # between the taken bgt and its slot
            m.step()
    detail = assert_same_run(oracle, machine, 10_000)
    assert machine.result == 515
    assert detail["fallback_pending"] == 1


def test_path_across_self_modifying_code():
    oracle, machine = program_machines(LOOP_HEAD_PATCH)
    detail = assert_same_run(oracle, machine, 10_000)
    assert machine.result == 43
    assert detail["traces_invalidated"] > 0


@pytest.mark.parametrize("limit", [1, 3, 8, 13, 21])
def test_path_under_a_watchdog_tail(limit):
    oracle, machine = program_machines(DELAY_SLOT_PROGRAM)
    detail = assert_same_run(oracle, machine, limit)
    assert machine.halted is HaltReason.STEP_LIMIT
    assert detail["fallback_watchdog"] > 0


def observed_golden_run(name: str):
    """The golden run as it was: a ``pre_step`` recorder, which
    single-steps every instruction."""
    compiled = compile_cached(benchmark(name).source)
    machine = compiled.make_machine(engine="trace")
    pcs = array("I")
    machine.observers.subscribe("pre_step", lambda m: pcs.append(m.pc))
    machine.run(compiled.program.entry)
    visits: dict = {}
    for step, pc in enumerate(pcs):
        visits.setdefault(pc, array("I")).append(step)
    return machine, visits


@pytest.mark.parametrize("name", ["towers", "ackermann"])
def test_golden_run_equals_the_observed_recorder(name):
    golden, _compiled = _golden_run(name)
    machine, visits = observed_golden_run(name)
    assert golden.visits == visits
    assert golden.result == to_signed(machine.result)
    assert (golden.instructions, golden.cycles) == (
        machine.stats.instructions, machine.stats.cycles,
    )
    assert golden.sites.pcs == tuple(
        sorted((pc, len(steps)) for pc, steps in visits.items())
    )
    assert golden.sites.cycle_limit == machine.stats.cycles - 1


def test_golden_run_subscribes_no_observer(monkeypatch):
    subscribed = []
    subscribe = ObserverBus.subscribe

    def spy(self, event, fn):
        subscribed.append(event)
        subscribe(self, event, fn)

    monkeypatch.setattr(ObserverBus, "subscribe", spy)
    _golden_run("towers")
    # Only the default call-trace recorder's frame-boundary handlers.
    assert sorted(subscribed) == ["call", "return"]


def test_second_trial_compiles_no_new_traces():
    golden, _compiled = _golden_run("towers")
    machine, checkpoint = _benchmark_state("towers")
    spec = FaultSpec(
        FaultTarget.REGISTER, FaultKind.BIT_FLIP,
        FaultTrigger(at_cycle=golden.cycles // 2), location=20, bits=(3,),
    )
    budget = golden.instructions * 2
    first = _run_injection(machine, checkpoint, golden, spec, budget)
    engine = machine.engine
    compiled, flushes = engine.traces_compiled, engine.code_flushes
    assert _run_injection(machine, checkpoint, golden, spec, budget) == first
    assert engine.traces_compiled == compiled
    assert engine.code_flushes == flushes


def test_memory_fault_on_compiled_code_matches_the_oracle():
    golden, _compiled = _golden_run("towers")
    machine, checkpoint = trial_state("towers", "trace")
    budget = golden.instructions * 2
    clean = FaultSpec(
        FaultTarget.MEMORY, FaultKind.BIT_FLIP,
        FaultTrigger(at_pc=golden.sites.pcs[0][0], pc_hits=10**6),
        location=0x8000, bits=(0,),
    )
    _run_injection(machine, checkpoint, golden, clean, budget)
    code = sorted(machine.memory._exec_watch)
    assert code
    flushes = machine.engine.code_flushes
    unfaulted = oracle_trial(golden, clean, budget)
    for index in (0, len(code) // 2, len(code) - 1):
        for kind, bits in ((FaultKind.BIT_FLIP, (0,)), (FaultKind.STUCK_AT_ONE, (21,))):
            spec = FaultSpec(
                FaultTarget.MEMORY, kind,
                FaultTrigger(at_cycle=golden.cycles // 3),
                location=code[index] * 4, bits=bits,
            )
            expected = oracle_trial(golden, spec, budget)
            assert phased_trials(golden, spec, budget) == dict.fromkeys(
                TRIAL_TIERS, expected
            ), spec.describe()
            # The next trial restores the faulted word first.
            assert phased_trials(golden, clean, budget) == dict.fromkeys(
                TRIAL_TIERS, unfaulted
            )
    # Some faulted word was recompiled and rolled back by a restore.
    assert machine.engine.code_flushes > flushes


class _Abort(Exception):
    pass


def test_restore_drops_pending_exit_hits(monkeypatch):
    """An exception out of a dispatch leaves exit hits unreconciled; the
    restore that follows must rewind the stats exactly, as after a
    CRASH trial on a campaign machine."""
    compiled = compile_cached(benchmark("towers").source)
    machine = compiled.make_machine(engine="trace")
    machine.reset(compiled.program.entry)
    checkpoint = machine.checkpoint(track_memory_deltas=True)
    dispatches = 0
    compile_trace = TraceEngine._compile_trace

    def aborting(self, m, pc):
        trc = compile_trace(self, m, pc)
        if trc is not None:
            thunk = trc.thunk

            def counted():
                nonlocal dispatches
                dispatches += 1
                if dispatches == 500:
                    raise _Abort
                return thunk()

            trc.thunk = counted
        return trc

    monkeypatch.setattr(TraceEngine, "_compile_trace", aborting)
    with pytest.raises(_Abort):
        machine.engine.run_loop(machine, 10**7, None, None)
    assert dispatches == 500
    machine.restore(checkpoint)
    assert (machine.stats.instructions, machine.stats.cycles) == (0, 0)
    assert machine.memory.stats.inst_reads == 0
    machine.engine.run_loop(machine, 10**7, None, None)
    fresh = compiled.make_machine(engine="reference")
    fresh.run(compiled.program.entry)
    mismatches = diff_digests(state_digest(fresh), state_digest(machine))
    assert not mismatches, "\n".join(mismatches)


def test_fallback_steps_split_by_reason():
    program = assemble(DELAY_SLOT_PROGRAM)
    machine = RiscMachine(engine="trace")
    program.load_into(machine.memory)
    engine = machine.engine
    machine.reset(program.entry)
    stepped = 0
    while not machine._pending_jump:
        machine.step()
        stepped += 1
    engine.run_loop(machine, 10_000, None, None)  # the slot, then traces
    assert machine.result == 515

    def hook(m):
        pass

    machine.reset(program.entry)
    machine.observers.subscribe("pre_step", hook)
    engine.run_loop(machine, 3, None, None)
    machine.observers.unsubscribe("pre_step", hook)
    machine.reset(program.entry)
    engine.run_loop(machine, 2, None, None)  # shorter than the entry trace
    machine.reset(0x8000)  # an all-zero word: undecodable, never compiled
    engine.run_loop(machine, 10, None, None)
    assert machine.halted is HaltReason.TRAPPED
    detail = engine.telemetry_snapshot()
    reasons = {
        "step_calls": stepped, "pending": 1, "observed": 3, "watchdog": 2,
        "uncompilable": 1,
    }
    assert {r: detail[f"fallback_{r}"] for r in reasons} == reasons
    assert detail["fallback_steps"] == sum(reasons.values())
