"""Differential equivalence: the fast and block engines must be bit-identical.

Three layers of assurance:

* every bundled Mini-C workload, compiled and run on every engine,
  diffed with :mod:`repro.cpu.equivalence` (stats, trap log, registers,
  PSW, full memory image, console, call trace);
* hand-written trap-path programs (memory faults, illegal words,
  overflow traps, delay-slot faults, vectored handlers, window
  spill/refill) diffed the same way;
* the stateful tools - checkpoint/rollback and the debugger - exercised
  against both engines, including a rollback taken mid-delay-slot on
  the fast engine (whose pre-decoded thunk cache must survive an
  in-place state rewind).
"""

import pytest

from repro import RiscMachine, assemble
from repro.cpu.debugger import Debugger, StopReason
from repro.cpu.equivalence import (
    assert_engines_equivalent,
    diff_digests,
    run_differential,
    state_digest,
)
from repro.cpu.machine import HaltReason, TrapCause
from repro.evaluation.common import FAST_SUBSET
from repro.workloads import BENCHMARKS, benchmark
from repro.workloads.cache import compile_cached

from repro.cpu.engines import default_sweep_engines

ENGINES = default_sweep_engines()

WORKLOAD_NAMES = [bench.name for bench in BENCHMARKS]


def run_asm(source: str, engine: str, **kwargs) -> RiscMachine:
    program = assemble(source)
    machine = RiscMachine(engine=engine, **kwargs)
    program.load_into(machine.memory)
    machine.run(program.entry)
    return machine


def assert_asm_equivalent(source: str, **kwargs) -> RiscMachine:
    """Run *source* on every engine; return the reference machine."""
    machines = [run_asm(source, engine, **kwargs) for engine in ENGINES]
    digests = [state_digest(machine) for machine in machines]
    for engine, digest in zip(ENGINES[1:], digests[1:]):
        mismatches = diff_digests(digests[0], digest)
        assert not mismatches, f"[{engine}] " + "\n".join(mismatches)
    return machines[0]


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_workload_bit_identical(self, name):
        result = assert_engines_equivalent(benchmark(name).source)
        assert result.instructions > 0

    def test_ablation_no_windows_bit_identical(self):
        # The flat-register-file ablation exercises different codegen in
        # the fast engine's register-index folding.
        from repro.cc import compile_for_risc

        compiled = compile_for_risc(benchmark("towers").source, use_windows=False)
        digests = []
        for engine in ENGINES:
            __, machine = compiled.run(engine=engine)
            digests.append(state_digest(machine))
        for digest in digests[1:]:
            assert not diff_digests(digests[0], digest)

    @pytest.mark.parametrize(
        "flags", [{"use_windows": False}, {"optimize_delay_slots": False}],
        ids=["flat", "nop-slots"],
    )
    @pytest.mark.parametrize("name", FAST_SUBSET)
    def test_report_variant_default_tier_bit_identical(self, name, flags):
        # The a1 (flat register file) and a2 (NOP-filled delay slots)
        # ablations run through CompiledRisc.run's default tier, which
        # must be the fast tier and must match the oracle.
        compiled = compile_cached(benchmark(name).source, **flags)
        __, oracle = compiled.run(engine="reference")
        __, default = compiled.run()
        assert default.engine_name == "fast"
        assert not diff_digests(state_digest(oracle), state_digest(default))

    def test_few_windows_spill_heavy_bit_identical(self):
        # num_windows=2 forces constant overflow/underflow trap traffic.
        result = run_differential(benchmark("ackermann").source, num_windows=2)
        assert result.equivalent, "\n".join(result.mismatches)
        assert result.digests[0]["stats"]["window_overflows"] > 0


class TestTrapPathEquivalence:
    def test_misaligned_load_halts_identically(self):
        machine = assert_asm_equivalent(
            """
            main:
                ldl r26, r0, 0x401
                ret
                nop
            """
        )
        assert machine.halted is HaltReason.TRAPPED
        assert machine.last_trap.cause is TrapCause.MISALIGNED_ACCESS

    def test_out_of_range_store_halts_identically(self):
        machine = assert_asm_equivalent(
            """
            main:
                li  r16, 0x7ffffff0
                stl r16, r16, 0
                ret
                nop
            """
        )
        assert machine.halted is HaltReason.TRAPPED

    def test_illegal_instruction_word_halts_identically(self):
        machine = assert_asm_equivalent(
            """
            main:
                .word 0xffffffff
                ret
                nop
            """
        )
        assert machine.last_trap.cause is TrapCause.ILLEGAL_INSTRUCTION

    def test_arithmetic_overflow_trap_identical(self):
        source = """
        main:
            li   r16, 0x7fffffff
            add  r17, r16, r16
            ret
            nop
        """
        machines = []
        for engine in ENGINES:
            program = assemble(source)
            machine = RiscMachine(engine=engine)
            machine.trap_on_overflow = True
            program.load_into(machine.memory)
            machine.run(program.entry)
            machines.append(machine)
        digests = [state_digest(machine) for machine in machines]
        for digest in digests[1:]:
            assert not diff_digests(digests[0], digest)
        assert machines[0].last_trap.cause is TrapCause.ARITHMETIC_OVERFLOW

    def test_trap_in_delay_slot_identical(self):
        machine = assert_asm_equivalent(
            """
            main:
                b    past
                ldl  r26, r0, 0x401
            past:
                ret
                nop
            """
        )
        assert machine.last_trap.in_delay_slot

    def test_jump_to_misaligned_target_identical(self):
        machine = assert_asm_equivalent(
            """
            main:
                li    r16, 0x3
                jmp   alw, r16, 0
                nop
            """
        )
        assert machine.halted is HaltReason.TRAPPED

    def test_vectored_trap_handler_identical(self):
        # A guest handler catches the fault and resumes past it; both
        # engines must vector with identical accounting.
        source = """
        main:
            ldl  r16, r0, 0x401    ; misaligned: vectors to handler
            mov  r26, r5           ; resumed here with the cause code in r5
            ret
            nop
        handler:
            gtlpc r16              ; faulting PC
            mov  r5, r17           ; handler ABI: cause code in r17
            ret  r16, 4            ; resume at the instruction after
            nop
        """
        machines = []
        for engine in ENGINES:
            program = assemble(source)
            machine = RiscMachine(engine=engine)
            machine.trap_vectors.set(
                TrapCause.MISALIGNED_ACCESS, program.symbols["handler"]
            )
            program.load_into(machine.memory)
            machine.run(program.entry)
            machines.append(machine)
        digests = [state_digest(machine) for machine in machines]
        for digest in digests[1:]:
            assert not diff_digests(digests[0], digest)
        assert machines[0].trap_log and machines[0].trap_log[0].vectored
        assert machines[0].result == TrapCause.MISALIGNED_ACCESS.value


# The bgt's delay slot (the add #100) executes on every iteration,
# taken or fall-through: 5+4+3+2+1 + 5*100 = 515.
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
DELAY_SLOT_RESULT = 515


def load_asm(source: str, engine: str) -> tuple[RiscMachine, object]:
    program = assemble(source)
    machine = RiscMachine(engine=engine)
    program.load_into(machine.memory)
    machine.reset(program.entry)
    return machine, program


def step_to_halt(machine: RiscMachine, limit: int = 100_000) -> None:
    for __ in range(limit):
        if machine.halted is not None:
            return
        machine.step()
    raise AssertionError("did not halt")


class TestCheckpointBothEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_rollback_reruns_identically(self, engine):
        machine, __ = load_asm(DELAY_SLOT_PROGRAM, engine)
        for __ in range(4):
            machine.step()
        cp = machine.checkpoint(track_memory_deltas=True)
        step_to_halt(machine)
        first = state_digest(machine)
        machine.restore(cp)
        step_to_halt(machine)
        second = state_digest(machine)
        assert not diff_digests(first, second)
        assert machine.result == DELAY_SLOT_RESULT

    @pytest.mark.parametrize("engine", ENGINES)
    def test_rollback_mid_delay_slot(self, engine):
        # Checkpoint taken with a transfer pending (the delay-slot
        # instruction not yet executed): _pending_jump and npc must
        # round-trip, and on the fast engine the pre-decoded thunks must
        # keep pointing at the rewound (not rebound) state objects.
        machine, __ = load_asm(DELAY_SLOT_PROGRAM, engine)
        for __ in range(200):
            machine.step()
            if machine._pending_jump:
                break
        assert machine._pending_jump, "program never took a jump"
        cp = machine.checkpoint(track_memory_deltas=True)
        step_to_halt(machine)
        first = state_digest(machine)
        machine.restore(cp)
        assert machine._pending_jump
        step_to_halt(machine)
        assert not diff_digests(first, state_digest(machine))

    def test_mid_delay_slot_rollback_matches_reference(self):
        # The same mid-delay-slot rollback performed on both engines
        # must land on bit-identical final states.
        finals = []
        for engine in ENGINES:
            machine, __ = load_asm(DELAY_SLOT_PROGRAM, engine)
            for __ in range(200):
                machine.step()
                if machine._pending_jump:
                    break
            cp = machine.checkpoint(track_memory_deltas=True)
            step_to_halt(machine)
            machine.restore(cp)
            step_to_halt(machine)
            finals.append(state_digest(machine))
        for final in finals[1:]:
            assert not diff_digests(finals[0], final)


class TestDebuggerBothEngines:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_breakpoint_and_trace(self, engine):
        machine, program = load_asm(DELAY_SLOT_PROGRAM, engine)
        debugger = Debugger(machine, symbols=dict(program.symbols))
        debugger.add_breakpoint("loop")
        event = debugger.cont()
        assert event.reason is StopReason.BREAKPOINT
        assert machine.pc == program.symbols["loop"]
        assert debugger.trace  # the step observer fed the ring buffer
        event = debugger.cont()  # second iteration of the loop
        assert event.reason is StopReason.BREAKPOINT
        final = debugger.cont()
        while final.reason is StopReason.BREAKPOINT:
            final = debugger.cont()
        assert final.reason is StopReason.HALTED
        assert machine.result == DELAY_SLOT_RESULT

    @pytest.mark.parametrize("engine", ENGINES)
    def test_finish_returns_to_caller(self, engine):
        # child's r26 overlaps the caller's r10 (window overlap), so the
        # return value lands in main's r10.
        source = """
        main:
            callr r31, child
            nop
            mov   r26, r10
            ret
            nop
        child:
            mov   r26, #9
            ret
            nop
        """
        machine, program = load_asm(source, engine)
        debugger = Debugger(machine, symbols=dict(program.symbols))
        debugger.add_breakpoint("child")
        assert debugger.cont().reason is StopReason.BREAKPOINT
        assert debugger.call_stack  # shadow stack saw the CALL
        event = debugger.finish()
        assert event.reason is StopReason.FINISHED
        assert not debugger.call_stack
        step_to_halt(machine)
        assert machine.result == 9

    @pytest.mark.parametrize("engine", ENGINES)
    def test_detached_debugger_stops_observing(self, engine):
        machine, program = load_asm(DELAY_SLOT_PROGRAM, engine)
        debugger = Debugger(machine, symbols=dict(program.symbols))
        debugger.detach()
        assert machine.observers.observer_count("step") == 0
        step_to_halt(machine)
        assert not debugger.trace
