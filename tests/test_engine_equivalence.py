"""Differential equivalence: the trace engine must be bit-identical to the oracle.

Three layers of assurance:

* every bundled Mini-C workload, compiled and run on every engine,
  diffed with :mod:`repro.cpu.equivalence` (stats, trap log, registers,
  PSW, full memory image, console, call trace);
* hand-written trap-path programs (memory faults, illegal words,
  overflow traps, delay-slot faults, vectored handlers, window
  spill/refill) diffed the same way;
* the stateful tools - checkpoint/rollback and the debugger - exercised
  against both engines, including a rollback taken mid-delay-slot on
  the trace engine (whose inner stepper's pre-decoded thunk cache must
  survive an in-place state rewind);
* observed runs: ``pre_step``/``step`` observers on every workload,
  and ``pre_step`` hooks that latch an interrupt, subscribe a fetch
  filter, patch code or move the register window mid-run;
* window traps: every tier shares one slice-based spill/refill, so the
  spill-heavy runs are also diffed against an oracle that moves the
  unit one register and one word at a time.
"""

from types import MethodType

import pytest

from repro import RiscMachine, assemble
from repro.common.memory import Memory
from repro.cpu.debugger import Debugger, StopReason
from repro.cpu.equivalence import (
    assert_engines_equivalent,
    diff_digests,
    run_differential,
    state_digest,
)
from repro.cpu.machine import HaltReason, TrapCause
from repro.cpu.state import TRAP_OVERHEAD_CYCLES, _TrapSignal
from repro.evaluation.common import FAST_SUBSET
from repro.isa.registers import REGS_PER_WINDOW_UNIQUE
from repro.workloads import BENCHMARKS, benchmark
from repro.workloads.cache import compile_cached

from repro.cpu.engines import engine_names

ENGINES = engine_names()

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
        # the trace tier's register-index folding.
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
        # must be the trace tier and must match the oracle.
        compiled = compile_cached(benchmark(name).source, **flags)
        __, oracle = compiled.run(engine="reference")
        __, default = compiled.run()
        assert default.engine_name == "trace"
        assert not diff_digests(state_digest(oracle), state_digest(default))

    def test_few_windows_spill_heavy_bit_identical(self):
        # num_windows=2 forces constant overflow/underflow trap traffic.
        result = run_differential(benchmark("ackermann").source, num_windows=2)
        assert result.equivalent, "\n".join(result.mismatches)
        assert result.digests[0]["stats"]["window_overflows"] > 0


#: Observed workload runs stop here: five workloads finish inside the
#: cap, and the others must halt on the oracle's exact STEP_LIMIT step.
OBSERVED_STEP_CAP = 60_000

_OBSERVED_ORACLE: dict = {}


def observed_run(name: str, engine: str):
    """One capped run of workload *name* under a ``pre_step`` PC recorder
    and a ``step`` recorder of every completed instruction's (pc,
    instruction, taken-jump) event: (pcs, records, digest, machine)."""
    compiled = compile_cached(benchmark(name).source)
    machine = compiled.make_machine(engine=engine)
    pcs = []
    records = []
    machine.observers.subscribe("pre_step", lambda m: pcs.append(m.pc))
    machine.observers.subscribe("step", lambda m, *event: records.append(event))
    machine.run(compiled.program.entry, max_steps=OBSERVED_STEP_CAP)
    return pcs, records, state_digest(machine), machine


def observed_oracle(name: str):
    """The reference engine's (pcs, records, digest), computed once."""
    if name not in _OBSERVED_ORACLE:
        _OBSERVED_ORACLE[name] = observed_run(name, "reference")[:3]
    return _OBSERVED_ORACLE[name]


class TestObservedRunEquivalence:
    @pytest.mark.parametrize("engine", ENGINES[1:])
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_observed_run_bit_identical(self, name, engine):
        # pre_step fires exactly once per oracle step.
        pcs, records, digest = observed_oracle(name)
        got_pcs, got_records, got_digest, machine = observed_run(name, engine)
        assert got_pcs == pcs
        assert got_records == records
        mismatches = diff_digests(digest, got_digest)
        assert not mismatches, f"[{engine}] " + "\n".join(mismatches)
        detail = machine.engine.telemetry_snapshot()
        assert detail["oracle_steps"] == 0  # no step left the thunks
        assert detail["fallback_steps"] == len(pcs)


INTERRUPT_PROGRAM = """
main:
    getpsw r16
    or    r16, r16, #16    ; set the interrupt-enable bit
    putpsw r16, #0
loop:
    add   r6, r6, #1       ; r6 (global): loop counter
    cmp   r6, #40
    blt   loop
    nop
    mov   r26, r5
    ret
    nop
handler:
    gtlpc r16              ; interrupted PC
    add   r5, r5, #7       ; r5 (global): interrupt evidence
    retint r16, 0
    nop
"""


def run_with_hook(source: str, engine: str, action) -> tuple[RiscMachine, list, list]:
    """Run *source* on *engine* under a ``pre_step`` hook that records the
    PC and calls ``action(machine, program, step)`` at every step, plus a
    ``step`` recorder; returns (machine, pcs, completed steps)."""
    program = assemble(source)
    machine = RiscMachine(engine=engine)
    program.load_into(machine.memory)
    pcs: list = []
    completed: list = []

    def hook(m):
        pcs.append(m.pc)
        action(m, program, len(pcs))

    machine.observers.subscribe("pre_step", hook)
    machine.observers.subscribe("step", lambda m, *event: completed.append(event))
    machine.run(program.entry, max_steps=10_000)
    return machine, pcs, completed


def assert_hooked_runs_equivalent(source: str, action) -> dict:
    """Every engine's hooked run equals the reference's; returns each
    engine's machine by name."""
    runs = {engine: run_with_hook(source, engine, action) for engine in ENGINES}
    oracle, oracle_pcs, oracle_completed = runs[ENGINES[0]]
    for engine in ENGINES[1:]:
        machine, pcs, completed = runs[engine]
        assert pcs == oracle_pcs, engine
        assert completed == oracle_completed, engine
        mismatches = diff_digests(state_digest(oracle), state_digest(machine))
        assert not mismatches, f"[{engine}] " + "\n".join(mismatches)
    return {engine: run[0] for engine, run in runs.items()}


def oracle_steps(machines: dict) -> int:
    """``oracle_steps`` of the trace machine."""
    return machines["trace"].engine.telemetry_snapshot()["oracle_steps"]


class TestPreStepHookEdges:
    """``pre_step`` hooks that change what the rest of the step does."""

    def test_hook_latches_an_interrupt(self):
        def action(m, program, step):
            if step == 12:
                m.request_interrupt(program.symbols["handler"])

        machines = assert_hooked_runs_equivalent(INTERRUPT_PROGRAM, action)
        assert machines["reference"].interrupts_taken == 1
        assert machines["reference"].result == 7
        # Only the interrupted step went to the oracle.
        assert oracle_steps(machines) == 1

    def test_hook_subscribes_a_fetch_filter(self):
        def action(m, program, step):
            if step == 12:
                sub_pc = program.symbols["loop"] + 4  # sub r16, r16, #1
                m.observers.subscribe(
                    "fetch_word",
                    lambda pc, word: word ^ 2 if pc == sub_pc else word,
                )

        machines = assert_hooked_runs_equivalent(DELAY_SLOT_PROGRAM, action)
        assert machines["reference"].result != DELAY_SLOT_RESULT
        # The filter applies from the step that subscribed it on.
        steps_from_12 = machines["trace"].stats.instructions - 11  # no traps
        assert oracle_steps(machines) == steps_from_12

    def test_hook_stores_over_the_next_instruction(self):
        def action(m, program, step):
            sub_pc = program.symbols["loop"] + 4
            if step == 9:  # the second iteration's sub, not yet fetched
                assert m.pc == sub_pc
                # sub r16, r16, #1 -> sub r16, r16, #2
                word = m.memory.load_word(sub_pc, count=False)
                m.memory.store_word(sub_pc, word ^ 3, count=False)

        machines = assert_hooked_runs_equivalent(DELAY_SLOT_PROGRAM, action)
        assert machines["reference"].result != DELAY_SLOT_RESULT
        assert oracle_steps(machines) == 0

    def test_hook_rewrites_the_window_pointer(self):
        def action(m, program, step):
            if step == 10:
                m.psw.cwp = (m.psw.cwp + 1) % m.num_windows

        machines = assert_hooked_runs_equivalent(DELAY_SLOT_PROGRAM, action)
        assert machines["reference"].result != DELAY_SLOT_RESULT
        assert oracle_steps(machines) == 0


def per_word_spill(self, window: int) -> None:
    """Overflow trap body with the unit read per register, stored per word."""
    new_pointer = self.window_save_pointer - 4 * REGS_PER_WINDOW_UNIQUE
    if new_pointer < self.window_stack_limit:
        raise _TrapSignal(
            TrapCause.WINDOW_OVERFLOW_STACK,
            f"window-save stack exhausted (limit {self.window_stack_limit:#x})",
            address=new_pointer,
        )
    self.window_save_pointer = new_pointer
    for i, reg in enumerate(range(16, 32)):
        self.memory.store_word(new_pointer + 4 * i, self.regs.read(window, reg))
    self.stats.window_overflows += 1
    self.stats.cycles += TRAP_OVERHEAD_CYCLES + 2 * REGS_PER_WINDOW_UNIQUE


def per_word_refill(self, window: int) -> None:
    """Underflow trap body with the unit loaded per word, written per register."""
    if self.window_save_pointer >= self.memory.size:
        raise _TrapSignal(
            TrapCause.WINDOW_UNDERFLOW_EMPTY,
            "window underflow with empty save stack",
            address=self.window_save_pointer,
        )
    for i, reg in enumerate(range(16, 32)):
        self.regs.write(window, reg, self.memory.load_word(self.window_save_pointer + 4 * i))
    self.window_save_pointer += 4 * REGS_PER_WINDOW_UNIQUE
    self.stats.window_underflows += 1
    self.stats.cycles += TRAP_OVERHEAD_CYCLES + 2 * REGS_PER_WINDOW_UNIQUE


def per_word_oracle(machine: RiscMachine) -> RiscMachine:
    """Move *machine*'s window traps one register and one word at a time."""
    machine._spill_window = MethodType(per_word_spill, machine)
    machine._refill_window = MethodType(per_word_refill, machine)
    return machine


UNIT_BYTES = 4 * REGS_PER_WINDOW_UNIQUE


def run_window_case(name: str, num_windows: int, setup) -> dict:
    """Run *name* on the per-word oracle and every engine, each machine
    prepared by *setup*; assert every engine ends as the oracle does
    and return the machines.  The trace machine's ``dispatches`` lists its ``(addrs,
    completed)`` dispatches (see ``TraceEngine.path``)."""
    compiled = compile_cached(benchmark(name).source)
    machines = {}
    for engine in ("oracle",) + ENGINES:
        machine = compiled.make_machine(
            engine="reference" if engine == "oracle" else engine,
            num_windows=num_windows,
        )
        if engine == "oracle":
            per_word_oracle(machine)
        if engine == "trace":
            machine.dispatches = machine.engine.path = []
        setup(machine)
        machine.run(compiled.program.entry)
        machine.engine.path = None
        machines[engine] = machine
    oracle = machines["oracle"]
    for engine in ENGINES:
        machine = machines[engine]
        mismatches = diff_digests(state_digest(oracle), state_digest(machine))
        assert not mismatches, f"[{engine}] " + "\n".join(mismatches)
    return machines


SPILL_WORKLOADS = ["ackermann", "towers", "recursive_qsort"]
SPILL_WINDOWS = [2, 3, 4, 8]
_SPILL_ORACLE: dict = {}


def spill_oracle_digest(name: str, num_windows: int) -> dict:
    """The per-word reference run's digest, computed once per shape."""
    key = (name, num_windows)
    if key not in _SPILL_ORACLE:
        compiled = compile_cached(benchmark(name).source)
        machine = compiled.make_machine(engine="reference", num_windows=num_windows)
        per_word_oracle(machine).run(compiled.program.entry)
        _SPILL_ORACLE[key] = state_digest(machine)
    return _SPILL_ORACLE[key]


# leaf sits in the top spill unit: main's first overflow stores main's
# r16-r18 over it, so the later leaf calls add 100 instead of 1.
SPILL_OVER_CODE_PROGRAM = """
main:
    li    r16, {patched:#x}
    li    r17, {ret:#x}
    li    r18, {nop:#x}
    li    r11, 0
    li    r19, 3
warm:
    callr r31, leaf
    nop
    sub   r19, r19, #1
    cmp   r19, #0
    bgt   warm
    nop
    li    r10, 12
    callr r31, deep
    nop
    li    r19, 3
again:
    callr r31, leaf
    nop
    sub   r19, r19, #1
    cmp   r19, #0
    bgt   again
    nop
    mov   r26, r11
    ret
    nop
deep:
    cmp   r26, #0
    ble   deep_done
    nop
    sub   r10, r26, #1
    callr r31, deep
    nop
deep_done:
    ret
    nop
    .org  {leaf:#x}
leaf:
    add   r27, r27, #1
    ret
    nop
"""
SPILL_OVER_CODE_MEMORY = 0x400


def spill_over_code_source() -> str:
    ret, nop = assemble("ret\nnop").to_words()
    (patched,) = assemble("add r27, r27, #100").to_words()
    leaf = SPILL_OVER_CODE_MEMORY - 4 * REGS_PER_WINDOW_UNIQUE
    return SPILL_OVER_CODE_PROGRAM.format(patched=patched, ret=ret, nop=nop, leaf=leaf)


class TestWindowTrapsMatchPerWordOracle:
    @pytest.mark.parametrize("num_windows", SPILL_WINDOWS)
    @pytest.mark.parametrize("name", SPILL_WORKLOADS)
    def test_whole_run_bit_identical(self, name, num_windows):
        oracle = spill_oracle_digest(name, num_windows)
        compiled = compile_cached(benchmark(name).source)
        for engine in ENGINES:
            machine = compiled.make_machine(engine=engine, num_windows=num_windows)
            machine.run(compiled.program.entry)
            mismatches = diff_digests(oracle, state_digest(machine))
            assert not mismatches, f"[{engine}] " + "\n".join(mismatches)
        assert oracle["stats"]["window_overflows"] > 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_delta_checkpoint_rerun_after_spills(self, engine):
        # The campaign trial shape: checkpoint at reset with a write
        # journal, run into the spills, restore, run again to the end.
        oracle = spill_oracle_digest("ackermann", 2)
        compiled = compile_cached(benchmark("ackermann").source)
        machine = compiled.make_machine(engine=engine, num_windows=2)
        machine.reset(compiled.program.entry)
        cp = machine.checkpoint(track_memory_deltas=True)
        machine.engine.run_loop(machine, 5_000, None, None)
        assert machine.stats.window_overflows > 0
        machine.restore(cp)
        machine.engine.run_loop(machine, 50_000_000, None, None)
        assert not diff_digests(oracle, state_digest(machine))

    def test_spill_over_compiled_trace_code(self):
        program = assemble(spill_over_code_source())
        digests = {}
        for engine in ("oracle",) + ENGINES:
            machine = RiscMachine(
                Memory(size=SPILL_OVER_CODE_MEMORY), num_windows=4,
                engine="reference" if engine == "oracle" else engine,
            )
            if engine == "oracle":
                per_word_oracle(machine)
            program.load_into(machine.memory)
            machine.run(program.entry)
            digests[engine] = state_digest(machine)
            if engine == "trace":
                assert machine.engine.telemetry_snapshot()["traces_invalidated"] > 0
        assert digests["oracle"]["stats"]["window_overflows"] > 0
        # Three leaf calls add 1 before the spill, three add 100 after it.
        assert machine.result == 3 + 3 * 100
        for engine in ENGINES:
            mismatches = diff_digests(digests["oracle"], digests[engine])
            assert not mismatches, f"[{engine}] " + "\n".join(mismatches)

    def test_spill_into_a_pinned_save_stack_word(self):
        # Bit 3 of the top save-stack word (main's r16 in the first unit
        # spilled) stuck at one: that span is watched, so its spills leave
        # the trace and store word by word; the deeper units stay inline.
        def pin(machine):
            assert machine.memory.pin_word(machine.memory.size - UNIT_BYTES, 8, 8)

        machines = run_window_case("ackermann", 2, pin)
        snap = machines["trace"].engine.telemetry_snapshot()
        assert snap["frame_out_spill"] > 0 and snap["inline_spills"] > 0
        top = machines["oracle"].memory.load_word(
            machines["oracle"].memory.size - UNIT_BYTES, count=False
        )
        assert top & 8

    def test_save_stack_exhaustion_traps_inside_a_trace(self):
        # Room for three units: the fourth spill traps, from a CALL in
        # the middle of a compiled trace.
        def limit(machine):
            machine.window_stack_limit = machine.memory.size - 3 * UNIT_BYTES

        machines = run_window_case("ackermann", 2, limit)
        trap = machines["oracle"].last_trap
        assert trap.cause is TrapCause.WINDOW_OVERFLOW_STACK
        snap = machines["trace"].engine.telemetry_snapshot()
        assert (snap["inline_spills"], snap["frame_out_spill"]) == (3, 1)
        addrs, done = machines["trace"].dispatches[-1]
        assert 1 < done < len(addrs) and addrs[done - 1] == trap.pc

    @pytest.mark.parametrize("engine", ENGINES)
    def test_refill_after_restoring_a_checkpoint_past_a_spill(self, engine):
        # Checkpoint with units on the save stack, run to the end, restore
        # and run again: the restored run refills the units the journal
        # rolled back, and both runs end as the per-word oracle does.
        oracle = spill_oracle_digest("ackermann", 2)
        compiled = compile_cached(benchmark("ackermann").source)
        machine = compiled.make_machine(engine=engine, num_windows=2)
        machine.reset(compiled.program.entry)
        machine.engine.run_loop(machine, 2_000, None, None)
        assert machine.window_save_pointer < machine.memory.size
        machine.halted = None
        cp = machine.checkpoint(track_memory_deltas=True)
        underflows = machine.stats.window_underflows
        for _ in range(2):
            before = machine.engine.telemetry_snapshot().get("inline_refills")
            machine.engine.run_loop(machine, 50_000_000, None, None)
            assert not diff_digests(oracle, state_digest(machine))
            if engine == "trace":
                snap = machine.engine.telemetry_snapshot()
                assert snap["frame_out_refill"] == 0
                refilled = machine.stats.window_underflows - underflows
                assert snap["inline_refills"] - before == refilled > 0
            machine.restore(cp)

    @pytest.mark.parametrize("num_windows", [2, 4, 8])
    def test_ackermann_spills_and_refills_stay_in_the_trace(self, num_windows):
        compiled = compile_cached(benchmark("ackermann").source)
        machine = compiled.make_machine(engine="trace", num_windows=num_windows)
        machine.run(compiled.program.entry)
        snap = machine.engine.telemetry_snapshot()
        assert (snap["frame_out_spill"], snap["frame_out_refill"]) == (0, 0)
        assert snap["frame_out_observer"] == 0
        assert snap["inline_spills"] == machine.stats.window_overflows > 0
        assert snap["inline_refills"] == machine.stats.window_underflows


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
        # round-trip, and on the trace engine the pre-decoded thunks must
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
