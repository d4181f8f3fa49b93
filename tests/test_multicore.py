"""Multicore platform tests: device semantics, MMIO faults, scheduling.

Four layers:

* :class:`~repro.multicore.device.PlatformDevice` register semantics
  in isolation (test-and-set locks, one-shot timer, doorbell routing,
  cause/ack protocol, read-only/write-only behaviour, latency samples);
* MMIO through :class:`~repro.common.memory.Memory` (word-only access,
  unmapped-window faults trapping precisely on a machine);
* interrupt delivery on a single core (taken at a step boundary,
  **never between a delayed jump and its delay slot** - the regression
  that distinguishes a precise interrupt from a corrupted one);
* the :class:`~repro.multicore.simulator.MulticoreSimulator` itself:
  byte-identical determinism of the composed manifest, schedule
  sensitivity to the quantum, cross-core self-modifying-code
  invalidation on the trace tier (one core's store drops another
  core's compiled trace through the memory's shared write watch),
  lock-contention liveness under the watchdog, and scenario invariants
  across core counts.
"""

import json

import pytest

from repro import RiscMachine, assemble
from repro.common.memory import Memory
from repro.cpu.engines import engine_names
from repro.cpu.equivalence import diff_digests, state_digest
from repro.cpu.machine import HaltReason, TrapCause
from repro.errors import MemoryFaultError
from repro.multicore import (
    MMIO_BASE,
    NUM_LOCKS,
    MulticoreSimulator,
    PlatformDevice,
    build_scenario,
    register_address,
    register_table,
    run_scenario,
    scenario,
    scenario_names,
    tick_mailbox_address,
)
from repro.multicore.device import CAUSE_DOORBELL, CAUSE_TIMER


class _IdleCore:
    """Stand-in for ArchState in device-only tests."""

    def __init__(self):
        self.pending_interrupt = None
        self.requests = []

    def request_interrupt(self, handler):
        self.pending_interrupt = handler
        self.requests.append(handler)


class TestPlatformDevice:
    def test_identity_registers(self):
        device = PlatformDevice(3)
        device.active_core = 2
        assert device.read(register_address("CORE_ID")) == 2
        assert device.read(register_address("NUM_CORES")) == 3

    def test_lock_load_is_test_and_set(self):
        device = PlatformDevice(2)
        addr = register_address("LOCK", 3)
        assert device.read(addr) == 0  # acquired
        assert device.read(addr) == 1  # contended
        assert device.read(addr) == 1
        device.write(addr, 0)  # release
        assert device.read(addr) == 0  # reacquired
        assert device.lock_acquires == 2
        assert device.lock_misses == 2

    def test_lock_bank_cells_are_independent(self):
        device = PlatformDevice(1)
        assert device.read(register_address("LOCK", 0)) == 0
        for index in range(1, NUM_LOCKS):
            assert device.read(register_address("LOCK", index)) == 0
        assert device.read(register_address("LOCK", 0)) == 1

    def test_timer_is_one_shot_and_boundary_sampled(self):
        device = PlatformDevice(1)
        core = _IdleCore()
        device.write(register_address("TIMER_COMPARE"), 500)
        assert device.steps_until_timer(0, 100) == 400
        device.service(0, 499, core)
        assert device.irq_cause[0] == 0  # not due yet
        device.service(0, 500, core)
        assert device.irq_cause[0] & CAUSE_TIMER
        assert device.timer_compare[0] == 0  # disarmed
        assert device.timer_fires == 1
        # TIMER_COUNT reads the boundary-cached count, never mid-slice.
        assert device.read(register_address("TIMER_COUNT")) == 500

    def test_ack_clears_cause_and_closes_latency_sample(self):
        device = PlatformDevice(1)
        core = _IdleCore()
        device.write(register_address("TIMER_COMPARE"), 100)
        device.service(0, 100, core)  # fires, opens latency
        device.write(register_address("IRQ_ACK"), CAUSE_TIMER)
        assert device.irq_cause[0] == 0
        device.service(0, 260, core)  # next boundary closes the sample
        assert device.latency_samples == [160]

    def test_doorbell_routes_to_target_core(self):
        device = PlatformDevice(4)
        device.active_core = 0
        device.write(register_address("DOORBELL"), 2)
        assert device.irq_cause[2] == CAUSE_DOORBELL
        assert device.irq_cause[0] == 0
        assert device.pending_causes(2) == [TrapCause.DOORBELL_INTERRUPT]
        device.write(register_address("DOORBELL"), 99)  # ignored
        assert device.doorbell_rings == 1

    def test_delivery_needs_cause_and_vector_and_free_latch(self):
        device = PlatformDevice(1)
        core = _IdleCore()
        device.irq_cause[0] = CAUSE_TIMER
        device.service(0, 10, core)
        assert core.pending_interrupt is None  # no vector installed
        device.irq_vector[0] = 0x400
        device.service(0, 20, core)
        assert core.pending_interrupt == 0x400
        device.service(0, 30, core)  # latch occupied: no double delivery
        assert core.requests == [0x400]
        assert device.interrupts_delivered == 1

    def test_write_only_registers_read_zero(self):
        device = PlatformDevice(1)
        for name in ("IRQ_ACK", "DOORBELL", "CONSOLE"):
            assert device.read(register_address(name)) == 0

    def test_read_only_registers_ignore_writes(self):
        device = PlatformDevice(1)
        device.write(register_address("CORE_ID"), 7)
        device.write(register_address("TIMER_COUNT"), 7)
        assert device.read(register_address("CORE_ID")) == 0

    def test_console_register_collects_text(self):
        device = PlatformDevice(1)
        for ch in "ok":
            device.write(register_address("CONSOLE"), ord(ch))
        assert "".join(device.console) == "ok"

    def test_unmapped_offset_faults(self):
        device = PlatformDevice(1)
        with pytest.raises(MemoryFaultError):
            device.read(MMIO_BASE + 0x44)
        with pytest.raises(MemoryFaultError):
            device.write(MMIO_BASE + 0x44, 1)

    def test_register_table_covers_every_register(self):
        table = register_table()
        for name in ("CORE_ID", "TIMER_COMPARE", "IRQ_ACK", "LOCK0", "CONSOLE"):
            assert name in table


class TestMemoryMmio:
    def _memory(self, device):
        memory = Memory(size=1 << 20)
        memory.map_mmio(device)
        return memory

    def test_word_access_routes_to_device(self):
        device = PlatformDevice(2)
        memory = self._memory(device)
        assert memory.load_word(register_address("NUM_CORES")) == 2
        memory.store_word(register_address("TIMER_COMPARE"), 123)
        assert device.timer_compare[0] == 123

    def test_sub_word_access_faults(self):
        memory = self._memory(PlatformDevice(1))
        with pytest.raises(MemoryFaultError) as info:
            memory.load_byte(register_address("CORE_ID"))
        assert info.value.kind == "mmio_width"
        with pytest.raises(MemoryFaultError):
            memory.store_half(register_address("TIMER_COMPARE"), 1)

    def test_unmap_restores_plain_ram(self):
        device = PlatformDevice(1)
        memory = self._memory(device)
        memory.map_mmio(None)
        memory.store_word(register_address("TIMER_COMPARE"), 7)
        assert memory.load_word(register_address("TIMER_COMPARE")) == 7
        assert device.timer_compare[0] == 0

    def test_sub_word_mmio_access_traps_precisely(self):
        # Every word-aligned in-window offset is a register, so the
        # reachable guest-visible fault is the width restriction: a
        # byte load from the window must trap, not read a stale byte.
        source = f"""
        main:
            li   r16, {MMIO_BASE}
            ldbu r17, r16, 0
            ret
            nop
        """
        program = assemble(source)
        machine = RiscMachine()
        program.load_into(machine.memory)
        machine.memory.map_mmio(PlatformDevice(1))
        machine.run(program.entry)
        assert machine.halted is HaltReason.TRAPPED
        assert machine.trap_log[-1].cause is TrapCause.OUT_OF_RANGE_ACCESS


class _LoggingDevice:
    """Four word registers that log every access."""

    def __init__(self, base: int):
        self.base, self.limit = base, base + 16
        self.log: list[tuple] = []

    def read(self, address: int) -> int:
        self.log.append(("read", address))
        return address ^ 0x5A5A5A5A

    def write(self, address: int, value: int) -> None:
        self.log.append(("write", address, value))


_DEVICE_BASE = 0x8000

#: The loop reaches the device through a register, so every access has
#: a dynamic address inside the compiled trace; the access after the
#: loop, on its fall-through arm, is in the same trace.
_DEVICE_LOOP = f"""
main:
    li   r16, {_DEVICE_BASE}
    li   r17, 0
    li   r20, 0
loop:
    ldl  r18, r16, 4
    add  r20, r20, r18
    stl  r17, r16, 8
    add  r17, r17, #1
    cmp  r17, #40
    blt  loop
    nop
    {{last}}
    mov  r26, r20
    ret
    nop
"""

_DEVICE_ACCESSES = {
    "word": "ldl  r19, r16, 12",
    "byte-load": "ldbu r19, r16, 12",
    "half-load": "ldsu r19, r16, 12",
    "byte-store": "stb  r17, r16, 12",
    "half-store": "sts  r17, r16, 12",
}


class TestDeviceAccessFromCompiledTraces:
    """A trace's inline RAM paths must stay out of a device window,
    including one mapped after the trace was compiled."""

    def _run(self, engine: str, last: str, map_after: int | None):
        program = assemble(_DEVICE_LOOP.format(last=last))
        machine = RiscMachine(engine=engine)
        program.load_into(machine.memory)
        machine.reset(program.entry)
        device = _LoggingDevice(_DEVICE_BASE)
        if map_after is None:
            machine.memory.map_mmio(device)
        else:
            machine.engine.run_loop(machine, map_after, None, None)
            assert machine.halted is HaltReason.STEP_LIMIT
            machine.halted = None
            machine.memory.map_mmio(device)
        machine.engine.run_loop(machine, 10_000, None, None)
        return machine, device

    @pytest.mark.parametrize("map_after", [None, 100], ids=["mapped", "mapped-later"])
    @pytest.mark.parametrize("access", _DEVICE_ACCESSES)
    def test_same_device_log_and_traps_as_the_oracle(self, access, map_after):
        runs = {
            engine: self._run(engine, _DEVICE_ACCESSES[access], map_after)
            for engine in engine_names()
        }
        oracle, oracle_device = runs["reference"]
        assert oracle_device.log  # the device saw the loop's accesses
        if access == "word":
            assert oracle.halted is HaltReason.RETURNED
        else:
            trap = oracle.trap_log[-1]
            assert trap.cause is TrapCause.OUT_OF_RANGE_ACCESS
            assert trap.address == _DEVICE_BASE + 12
        for engine, (machine, device) in runs.items():
            assert device.log == oracle_device.log, engine
            mismatches = diff_digests(state_digest(oracle), state_digest(machine))
            assert not mismatches, f"[{engine}] " + "\n".join(mismatches)
        trace = runs["trace"][0].engine
        assert trace.traces_compiled > 0
        if map_after is not None:
            assert trace.code_flushes == 1  # the map dropped the RAM-only code


#: A handler that just resumes: proves the gtlpc/retint round trip.
_RESUME_HANDLER = """
__h:
    gtlpc r17
    add   r5, r5, #1
    retint r17, 0
    nop
"""

_DELAY_SLOT_VICTIM = f"""
main:
    add  r1, r0, #1
    jmpr alw, target
    add  r2, r0, #2      ; delay slot
target:
    add  r3, r0, #3
    ret
    nop
{_RESUME_HANDLER}
"""


class TestInterruptDelivery:
    def _machine(self):
        program = assemble(_DELAY_SLOT_VICTIM)
        machine = RiscMachine()
        program.load_into(machine.memory)
        machine.reset(program.entry)
        machine.psw.interrupts_enabled = True
        return machine, program

    def _step(self, machine, n=1):
        machine.engine.run_loop(machine, n, None, None)
        if machine.halted is HaltReason.STEP_LIMIT:
            machine.halted = None

    def test_interrupt_not_taken_in_delay_slot(self):
        machine, program = self._machine()
        handler = program.symbols["__h"]
        self._step(machine, 2)  # add + taken jmpr: delay slot is next
        assert machine._pending_jump
        machine.request_interrupt(handler)
        self._step(machine, 1)  # delay slot must execute first
        assert machine.read_reg(2) == 2
        assert machine.pending_interrupt == handler  # still latched
        assert machine.interrupts_taken == 0
        self._step(machine, 1)  # next boundary: now it is taken
        assert machine.interrupts_taken == 1
        assert machine.pending_interrupt is None
        # gtlpc (already executed as the handler's first instruction)
        # captured the interrupted pc: the jump target.
        assert machine.read_reg(17) == program.symbols["target"]

    def test_interrupted_program_resumes_and_completes(self):
        machine, program = self._machine()
        self._step(machine, 2)
        machine.request_interrupt(program.symbols["__h"])
        machine.engine.run_loop(machine, 100, None, None)
        assert machine.halted is HaltReason.RETURNED
        assert machine.read_reg(5) == 1  # handler ran once
        assert machine.interrupts_taken == 1

    def test_interrupt_held_while_disabled(self):
        machine, program = self._machine()
        machine.psw.interrupts_enabled = False
        machine.request_interrupt(program.symbols["__h"])
        machine.engine.run_loop(machine, 100, None, None)
        assert machine.halted is HaltReason.RETURNED
        assert machine.interrupts_taken == 0
        assert machine.pending_interrupt == program.symbols["__h"]


# Core 1 runs `body` once (compiling it on the trace tier), signals
# core 0 through `flag1`, and waits; core 0 then patches the head of
# `body` (changing `li r16, 1` into `li r16, 42`) and releases core 1
# through `flag2`; core 1 re-executes the patched body.  The cross-core
# store must invalidate core 1's compiled trace: r20 = 1 + 42 = 43.
_CROSS_CORE_SMC = f"""
_main:
    li   r18, {MMIO_BASE}
    ldl  r19, r18, 0       ; CORE_ID
    cmp  r19, #0
    beq  core0
    nop
    li   r20, 0
body:
    li   r16, 1            ; <- patched by core 0
    add  r20, r20, r16
    ldl  r17, r0, flag1
    cmp  r17, #0
    bne  second
    nop
    li   r17, 1
    stl  r17, r0, flag1
wait2:
    ldl  r17, r0, flag2
    cmp  r17, #0
    beq  wait2
    nop
    jmpr alw, body
    nop
second:
    mov  r26, r20
    ret
    nop
core0:
wait1:
    ldl  r17, r0, flag1
    cmp  r17, #0
    beq  wait1
    nop
    ldl  r16, r0, donor
    stl  r16, r0, body
    li   r17, 1
    stl  r17, r0, flag2
    li   r26, 7
    ret
    nop
donor:
    li   r16, 42
flag1:
    .word 0
flag2:
    .word 0
"""


class TestMulticoreSimulator:
    def test_manifest_is_byte_identical_across_runs(self):
        first = run_scenario("producer_consumer", num_cores=2)
        second = run_scenario("producer_consumer", num_cores=2)
        a = json.dumps(first.manifest(workload="pc", seed=1), sort_keys=True)
        b = json.dumps(second.manifest(workload="pc", seed=1), sort_keys=True)
        assert a == b

    def test_quantum_changes_schedule_not_results(self):
        coarse = run_scenario("barrier", num_cores=2, quantum=200)
        fine = run_scenario("barrier", num_cores=2, quantum=64)
        assert coarse.schedule_fingerprint() != fine.schedule_fingerprint()
        assert coarse.results == fine.results
        assert not scenario("barrier").validate(fine.results, 2)

    def test_cross_core_smc_invalidation(self):
        program = assemble(_CROSS_CORE_SMC)
        outcomes = {}
        for engine in engine_names():
            sim = MulticoreSimulator(
                program, num_cores=2, engine=engine, handler_symbol=None
            ).run(100_000)
            assert [c.halted for c in sim.cores] == [HaltReason.RETURNED] * 2
            outcomes[engine] = (sim.results, sim.schedule_fingerprint())
        assert outcomes["reference"][0] == [7, 43]
        for engine in engine_names():
            assert outcomes[engine] == outcomes["reference"], engine

    def test_watchdog_preserves_liveness_under_contention(self):
        # Far too small a budget for the 4-core producer/consumer run:
        # the watchdog must land rather than the lock spin hanging us.
        sim = run_scenario(
            "producer_consumer", num_cores=4, max_total_steps=2_000
        )
        assert sim.watchdog_expired
        assert all(core.halted is not None for core in sim.cores)
        assert sim.manifest(workload="pc")["schedule"]["watchdog_expired"]

    def test_utilization_sums_to_one(self):
        sim = run_scenario("barrier", num_cores=4)
        shares = sim.utilization()
        assert len(shares) == 4
        assert abs(sum(shares) - 1.0) < 1e-9

    def test_handler_ticks_land_in_mailboxes(self):
        sim = run_scenario("timer_ticks", num_cores=2)
        for core_id in range(2):
            ticks = sim.memory.load_word(tick_mailbox_address(core_id))
            assert ticks == 4
        assert sim.device.interrupts_delivered == 8

    @pytest.mark.parametrize("name", scenario_names())
    @pytest.mark.parametrize("num_cores", [1, 2, 4])
    def test_scenario_invariants_hold(self, name, num_cores):
        sim = run_scenario(name, num_cores=num_cores)
        assert not sim.watchdog_expired
        assert all(c.halted is HaltReason.RETURNED for c in sim.cores)
        assert scenario(name).validate(sim.results, num_cores) == []
