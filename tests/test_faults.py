"""Fault injector, decode-cache isolation, checkpoint/rollback, campaigns."""

import pytest

from repro import RiscMachine, assemble
from repro.cpu.machine import HaltReason
from repro.faults import (
    CampaignConfig,
    FaultInjector,
    FaultKind,
    FaultSites,
    FaultSpec,
    FaultTarget,
    FaultTrigger,
    random_spec,
    run_campaign,
)
from repro.isa.decode import CachingDecoder
from repro.isa.registers import physical_index


def make_machine(source: str, **kwargs) -> RiscMachine:
    program = assemble(source)
    machine = RiscMachine(**kwargs)
    program.load_into(machine.memory)
    machine.reset(program.entry)
    return machine


def run_to_halt(machine: RiscMachine, max_steps: int = 100_000) -> None:
    steps = 0
    while machine.halted is None and steps < max_steps:
        machine.step()
        steps += 1
    if machine.halted is None:
        machine.halted = HaltReason.STEP_LIMIT


MEM_ROUNDTRIP = """
main:
    li   r16, 1234
    stl  r16, r0, 0x400
    ldl  r26, r0, 0x400
    ret
    nop
"""


class TestFaultModels:
    def test_trigger_requires_exactly_one_form(self):
        with pytest.raises(ValueError):
            FaultTrigger()
        with pytest.raises(ValueError):
            FaultTrigger(at_cycle=5, at_pc=0x10)
        with pytest.raises(ValueError):
            FaultTrigger(at_pc=0x10, pc_hits=0)

    def test_spec_validates_bits_and_alignment(self):
        trigger = FaultTrigger(at_cycle=1)
        with pytest.raises(ValueError):
            FaultSpec(FaultTarget.REGISTER, FaultKind.BIT_FLIP, trigger, bits=())
        with pytest.raises(ValueError):
            FaultSpec(FaultTarget.REGISTER, FaultKind.BIT_FLIP, trigger, bits=(32,))
        with pytest.raises(ValueError):
            FaultSpec(FaultTarget.PSW, FaultKind.BIT_FLIP, trigger, bits=(11,))
        with pytest.raises(ValueError):
            FaultSpec(FaultTarget.MEMORY, FaultKind.BIT_FLIP, trigger, location=0x402)

    def test_mask_combines_bits(self):
        spec = FaultSpec(
            FaultTarget.REGISTER,
            FaultKind.BIT_FLIP,
            FaultTrigger(at_cycle=1),
            bits=(0, 4, 31),
        )
        assert spec.mask == (1 << 0) | (1 << 4) | (1 << 31)

    def test_random_spec_is_deterministic(self):
        import random

        sites = FaultSites(
            register_count=138,
            memory_top=1 << 16,
            pcs=((0, 3), (4, 2), (8, 1)),
            cycle_limit=100,
        )
        a = [random_spec(random.Random(42), sites) for __ in range(1)]
        stream1 = [random_spec(random.Random(7), sites) for __ in range(50)]
        stream2 = [random_spec(random.Random(7), sites) for __ in range(50)]
        assert stream1 == stream2
        assert a  # smoke: a single draw is a valid FaultSpec


class TestInjector:
    def test_memory_bit_flip_changes_loaded_value(self):
        machine = make_machine(MEM_ROUNDTRIP)
        spec = FaultSpec(
            FaultTarget.MEMORY,
            FaultKind.BIT_FLIP,
            FaultTrigger(at_cycle=3),  # after the store, before the load
            location=0x400,
            bits=(0,),
        )
        injector = FaultInjector(machine, [spec])
        injector.attach()
        run_to_halt(machine)
        injector.detach()
        assert machine.result == 1235  # 1234 with bit 0 flipped
        assert len(injector.events) == 1
        assert injector.events[0].original == 1234
        assert injector.events[0].mutated == 1235

    def test_register_bit_flip(self):
        machine = make_machine(
            """
            main:
                li  r16, 5
                add r26, r16, #0
                ret
                nop
            """
        )
        phys = physical_index(0, 16, machine.num_windows)
        spec = FaultSpec(
            FaultTarget.REGISTER,
            FaultKind.BIT_FLIP,
            FaultTrigger(at_cycle=1),  # between the li and the add
            location=phys,
            bits=(1,),
        )
        injector = FaultInjector(machine, [spec])
        injector.attach()
        run_to_halt(machine)
        assert machine.result == 5 ^ 2

    LOOP = """
    main:
        li   r16, 0
    loop:
        add  r16, r16, #1
        cmp  r16, #5
        blt  loop
        nop
        mov  r26, r16
        ret
        nop
    """

    def test_attach_mid_run_with_seeded_pc_visits(self):
        # Fire on the 4th execution of the loop body; attach after the
        # 2nd, telling the injector about the visits it missed.
        body = assemble(self.LOOP).symbols["loop"]
        watched = make_machine(self.LOOP)
        spec = FaultSpec(
            FaultTarget.REGISTER, FaultKind.BIT_FLIP,
            FaultTrigger(at_pc=body, pc_hits=4),
            location=physical_index(0, 16, watched.num_windows), bits=(3,),
        )
        full = FaultInjector(watched, [spec])
        full.attach()
        run_to_halt(watched)

        machine = make_machine(self.LOOP)
        while machine.pc != body:
            machine.step()
        for __ in range(2):  # two loop iterations, unobserved
            machine.step()
            while machine.pc != body:
                machine.step()
        late = FaultInjector(machine, [spec])
        late.attach(pc_visits={body: 2})
        run_to_halt(machine)
        assert machine.result == watched.result != 5
        assert [e.describe() for e in late.events] == [
            e.describe() for e in full.events
        ]

    def test_idle_once_nothing_remains_to_do(self):
        machine = make_machine(MEM_ROUNDTRIP)
        flip, stuck = (
            FaultSpec(FaultTarget.MEMORY, kind, FaultTrigger(at_cycle=3),
                      location=0x400, bits=(0,))
            for kind in (FaultKind.BIT_FLIP, FaultKind.STUCK_AT_ONE)
        )
        transient = FaultInjector(machine, [flip])
        persistent = FaultInjector(machine, [stuck])
        assert not transient.idle and not persistent.idle
        transient.attach()
        persistent.attach()
        run_to_halt(machine)
        assert transient.idle  # fired once, nothing left
        assert not persistent.idle  # re-asserted every step, forever

    def test_armed_fetch_corruption_is_not_idle(self):
        machine = make_machine(MEM_ROUNDTRIP)
        spec = FaultSpec(
            FaultTarget.INSTRUCTION, FaultKind.BIT_FLIP,
            FaultTrigger(at_cycle=1), location=0xFFF0, bits=(0,),
        )
        injector = FaultInjector(machine, [spec])
        injector.attach()
        machine.step()  # fires: arms a fetch that never happens
        assert not injector.idle

    def test_memory_stuck_at_one_survives_overwrite(self):
        machine = make_machine(
            """
            main:
                li   r16, 0
                stl  r16, r0, 0x400
                ldl  r26, r0, 0x400
                ret
                nop
            """
        )
        spec = FaultSpec(
            FaultTarget.MEMORY,
            FaultKind.STUCK_AT_ONE,
            FaultTrigger(at_cycle=1),
            location=0x400,
            bits=(0,),
        )
        injector = FaultInjector(machine, [spec])
        injector.attach()
        run_to_halt(machine)
        # The program stored 0, but the stuck bit is re-asserted at every
        # step boundary, so the load observes 1.
        assert machine.result == 1

    def test_register_stuck_at_zero_caught_by_watchdog(self):
        machine = make_machine(
            """
            main:
            loop:
                add r6, r6, #1
                cmp r6, #3
                blt loop
                nop
                mov r26, r6
                ret
                nop
            """
        )
        phys = physical_index(0, 6, machine.num_windows)
        spec = FaultSpec(
            FaultTarget.REGISTER,
            FaultKind.STUCK_AT_ZERO,
            FaultTrigger(at_cycle=1),
            location=phys,
            bits=(0, 1),
        )
        injector = FaultInjector(machine, [spec])
        injector.attach()
        run_to_halt(machine, max_steps=5000)
        # The loop counter can never reach 3: the injected infinite loop
        # is caught by the step budget, never by the host.
        assert machine.halted is HaltReason.STEP_LIMIT

    def test_instruction_bit_flip_is_transient_and_bypasses_cache(self):
        source = "main:\n li r26, 1\n ret\n nop"
        machine = make_machine(source)
        entry = 0
        pristine = machine.memory.fetch_word(entry)
        spec = FaultSpec(
            FaultTarget.INSTRUCTION,
            FaultKind.BIT_FLIP,
            FaultTrigger(at_pc=entry, pc_hits=1),
            location=entry,
            bits=(0,),  # imm13 low bit: li r26, 1 becomes li r26, 0
        )
        injector = FaultInjector(machine, [spec])
        injector.attach()
        run_to_halt(machine)
        assert machine.result == 0
        assert injector.events[0].original == pristine
        assert injector.events[0].mutated == pristine ^ 1
        # The corrupted word never entered the decode cache.
        assert machine.decoder.decode(pristine).s2 == 1
        # Memory itself was never touched (the corruption is on the
        # fetch path only).
        assert machine.memory.fetch_word(entry) == pristine

    def test_injection_is_deterministic(self):
        def faulted_run():
            machine = make_machine(MEM_ROUNDTRIP)
            spec = FaultSpec(
                FaultTarget.MEMORY,
                FaultKind.BIT_FLIP,
                FaultTrigger(at_cycle=3),
                location=0x400,
                bits=(7,),
            )
            injector = FaultInjector(machine, [spec])
            injector.attach()
            run_to_halt(machine)
            return machine.result, [
                (e.cycle, e.pc, e.original, e.mutated) for e in injector.events
            ]

        assert faulted_run() == faulted_run()

    def test_detach_removes_hooks(self):
        machine = make_machine(MEM_ROUNDTRIP)
        spec = FaultSpec(
            FaultTarget.INSTRUCTION,
            FaultKind.BIT_FLIP,
            FaultTrigger(at_pc=0, pc_hits=1),
        )
        injector = FaultInjector(machine, [spec])
        injector.attach()
        assert machine.observers.observer_count("pre_step") == 1
        assert machine.observers.observer_count("fetch_word") == 1
        injector.detach()
        assert machine.observers.observer_count("pre_step") == 0
        assert machine.observers.observer_count("fetch_word") == 0


class TestCachingDecoder:
    def test_machines_have_isolated_caches(self):
        m1 = make_machine(MEM_ROUNDTRIP)
        m2 = make_machine(MEM_ROUNDTRIP)
        run_to_halt(m1)
        assert m1.decoder is not m2.decoder
        assert m1.decoder.misses > 0
        assert m2.decoder.hits == 0 and m2.decoder.misses == 0

    def test_shared_decoder_amortises(self):
        shared = CachingDecoder()
        m1 = make_machine(MEM_ROUNDTRIP, decoder=shared)
        m2 = make_machine(MEM_ROUNDTRIP, decoder=shared)
        run_to_halt(m1)
        misses_after_first = shared.misses
        run_to_halt(m2)
        # The second machine decodes the identical program: all hits.
        assert shared.misses == misses_after_first
        assert m1.result == m2.result == 1234

    def test_uncached_decode_does_not_populate(self):
        decoder = CachingDecoder()
        word = assemble("main:\n nop").image[:4]
        word = int.from_bytes(word, "big")
        decoder.decode_uncached(word)
        assert decoder.cache_info()["entries"] == 0
        decoder.decode(word)
        assert decoder.cache_info()["entries"] == 1

    def test_bounded_cache_clears_wholesale(self):
        decoder = CachingDecoder(max_entries=2)
        nop = int.from_bytes(assemble("main:\n nop").image[:4], "big")
        # Three distinct valid words: vary the immediate of an add.
        for imm in (1, 2, 3):
            decoder.decode(nop | imm)
        assert decoder.evictions == 1
        assert decoder.cache_info()["entries"] <= 2


class TestCheckpointRollback:
    def checkpoint_roundtrip(self, *, deltas: bool):
        machine = make_machine(MEM_ROUNDTRIP)
        machine.step()  # execute the li
        cp = machine.checkpoint(track_memory_deltas=deltas)
        pc_at_cp = machine.pc
        run_to_halt(machine)
        first_result = machine.result
        assert machine.memory.load_word(0x400, count=False) == 1234
        machine.restore(cp)
        assert machine.pc == pc_at_cp
        assert machine.halted is None
        assert machine.stats.instructions == 1
        # The store was rolled back.
        assert machine.memory.load_word(0x400, count=False) == 0
        run_to_halt(machine)
        assert machine.result == first_result == 1234

    def test_full_image_roundtrip(self):
        self.checkpoint_roundtrip(deltas=False)

    def test_delta_journal_roundtrip(self):
        self.checkpoint_roundtrip(deltas=True)

    def test_delta_checkpoint_is_reusable(self):
        machine = make_machine(MEM_ROUNDTRIP)
        cp = machine.checkpoint(track_memory_deltas=True)
        for __ in range(3):
            run_to_halt(machine)
            assert machine.result == 1234
            machine.restore(cp)
            assert machine.halted is None
            assert machine.memory.load_word(0x400, count=False) == 0

    def test_restore_truncates_trap_log(self):
        machine = make_machine("main:\n ldl r26, r0, 0x401\n ret\n nop")
        cp = machine.checkpoint()
        run_to_halt(machine)
        assert len(machine.trap_log) == 1
        machine.restore(cp)
        assert machine.trap_log == []
        assert machine.last_trap is None


class TestCampaignSmoke:
    def test_small_campaign_is_deterministic_and_crash_free(self):
        config = CampaignConfig(seed=7, injections=6, benchmarks=("towers",))
        first = run_campaign(config)
        second = run_campaign(config)
        assert len(first.results) == 6
        assert first.summary()["crash"] == 0
        assert first.fingerprint() == second.fingerprint()
        table = first.rate_table()
        rendered = table.render()
        assert "fault campaign" in rendered
        assert "all" in rendered
