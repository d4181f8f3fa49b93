"""Fused execution across the engine tiers.

The contract under test: arming statically proved macro-op pairs on the
fast/block/trace engines never changes anything architecturally
observable — state, memory image, trap records, every ``ExecutionStats``
counter — while the engines attribute one dispatch per completed pair.
Covers the bundled workloads, hypothesis-generated structured programs,
and dynamic de-fusion under self-modifying code.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import RiscMachine, assemble
from repro.analysis.fusion import analyze_program, arm_machine
from repro.cc import compile_for_risc
from repro.cpu.engines import REGISTRY, default_sweep_engines
from repro.cpu.equivalence import (
    assert_engines_equivalent,
    diff_digests,
    state_digest,
)
from repro.workloads import benchmark
from tests.test_differential_structured import structured_programs

FUSION_ENGINES = tuple(
    name for name in default_sweep_engines() if REGISTRY[name].supports_fusion
)


def fused_vs_reference(program, *, engine: str, num_windows: int = 8):
    """Digests of a fusion-armed run and an unfused reference run."""
    reference = RiscMachine(num_windows=num_windows, engine="reference")
    program.load_into(reference.memory)
    reference.run(program.entry)

    machine = RiscMachine(num_windows=num_windows, engine=engine)
    program.load_into(machine.memory)
    report = arm_machine(machine, program)
    machine.run(program.entry)
    return reference, machine, report


class TestWorkloadEquivalence:
    @pytest.mark.parametrize("name", ["towers", "ackermann", "f_bit_test"])
    def test_fusion_on_bit_identical_across_engines(self, name):
        assert_engines_equivalent(benchmark(name).source, fusion=True)

    @pytest.mark.parametrize("num_windows", [2, 8])
    def test_fusion_under_window_trap_pressure(self, num_windows):
        # Window overflow traps unwind mid-pair on the recursion-heavy
        # workloads; the fused tiers must stay precise.
        assert_engines_equivalent(
            benchmark("ackermann").source,
            fusion=True,
            num_windows=num_windows,
        )

    @pytest.mark.parametrize("engine", FUSION_ENGINES)
    def test_fused_dispatches_attributed(self, engine):
        program = assemble(TOWERS_ASM)
        reference, machine, report = fused_vs_reference(
            program, engine=engine
        )
        assert not diff_digests(
            state_digest(reference), state_digest(machine)
        )
        assert machine.engine.fused_dispatches > 0
        snapshot = machine.engine.telemetry_snapshot()
        assert snapshot["fused_pairs_armed"] == len(report.pairs)
        assert snapshot["fused_dispatches"] == machine.engine.fused_dispatches


# A small call-heavy program exercising all five idioms (two-word li,
# cmp+branch, call+slot, load-op, op-store) without the compiler.
TOWERS_ASM = """
main:
    li   r15, 0x9000
    li   r16, 0x123456
    stl  r16, r15, 0
    ldl  r17, r15, 0
    add  r18, r17, #1
    li   r20, 0
loop:
    callr r31, bump
    li   r10, 5
    add  r20, r20, r16
    cmp  r20, #40
    blt  loop
    nop
    add  r26, r20, r18
    ret
    nop
bump:
    add  r16, r10, #3
    stl  r16, r15, 4
    ret
    nop
"""


class TestWatchdogsUnderFusion:
    """A fused pair is two steps: step and cycle budgets must halt every
    fusion tier at exactly the reference oracle's boundary."""

    @pytest.fixture(scope="class")
    def towers(self):
        compiled = compile_for_risc(benchmark("towers").source)
        return compiled, analyze_program(compiled.program, name="towers")

    @staticmethod
    def _armed_and_reference(compiled, report, engine, **budget):
        reference = compiled.make_machine()
        reference.run(compiled.program.entry, **budget)
        machine = compiled.make_machine(engine=engine)
        arm_machine(machine, report)
        machine.run(compiled.program.entry, **budget)
        return reference, machine

    @pytest.mark.parametrize("engine", FUSION_ENGINES)
    @pytest.mark.parametrize("max_steps", [1, 2, 99, 100, 101, 5000])
    def test_step_budget_is_exact(self, towers, engine, max_steps):
        compiled, report = towers
        reference, machine = self._armed_and_reference(
            compiled, report, engine, max_steps=max_steps
        )
        assert machine.halted.name == reference.halted.name == "STEP_LIMIT"
        assert machine.stats.as_dict() == reference.stats.as_dict()

    @pytest.mark.parametrize("engine", FUSION_ENGINES)
    @pytest.mark.parametrize("max_cycles", [3, 150, 4001])
    def test_cycle_budget_is_exact(self, towers, engine, max_cycles):
        compiled, report = towers
        reference, machine = self._armed_and_reference(
            compiled, report, engine, max_cycles=max_cycles
        )
        assert machine.halted.name == reference.halted.name == "CYCLE_LIMIT"
        assert machine.stats.as_dict() == reference.stats.as_dict()

    @pytest.mark.parametrize("engine", FUSION_ENGINES)
    def test_run_loop_counts_fused_pairs_as_two_steps(self, towers, engine):
        compiled, report = towers
        machine = compiled.make_machine(engine=engine)
        arm_machine(machine, report)
        machine.reset(compiled.program.entry)
        steps = machine.engine.run_loop(machine, 10**9, None, None)
        assert machine.engine.fused_dispatches > 0
        assert steps == machine.stats.instructions


class TestCounterConsistency:
    def test_fast_engine_hits_match_report(self):
        program = assemble(TOWERS_ASM)
        __, machine, report = fused_vs_reference(program, engine="fast")
        hits = machine.engine.fused_hit_counts()
        pair_addresses = {pair.first for pair in report.pairs}
        assert set(hits) <= pair_addresses
        assert sum(hits.values()) == machine.engine.fused_dispatches

    def test_rearming_resets_counters(self):
        program = assemble(TOWERS_ASM)
        machine = RiscMachine(engine="fast")
        program.load_into(machine.memory)
        report = arm_machine(machine, program)
        machine.run(program.entry)
        first = machine.engine.fused_dispatches
        assert first > 0
        machine.engine.arm_fusion(report.pairs)
        assert machine.engine.fused_dispatches == 0


# The store rewrites the *second half* of the proved `li` pair at
# ``slot`` through a register base (statically unresolvable, so the
# analyzer legitimately proves the pair); the engines must de-fuse at
# run time and match the reference from the patched image onward.
DEFUSE_PATCH = """
main:
    li   r20, slot
    add  r20, r20, #4
    ldl  r19, r0, donor
    li   r17, 0
    li   r18, 0
loop:
slot:
    li   r16, 0x123456
    add  r18, r18, r16
    cmp  r17, #0
    bne  done
    nop
    stl  r19, r20, 0
    add  r17, r17, #1
    b    loop
    nop
done:
    mov  r26, r18
    ret
    nop
donor:
    add  r16, r16, #100
"""


class TestSelfModifyingDefusion:
    def test_pair_is_statically_proved(self):
        report = analyze_program(assemble(DEFUSE_PATCH), name="defuse")
        slot = assemble(DEFUSE_PATCH).symbols["slot"]
        assert slot in {pair.first for pair in report.pairs}
        assert not report.rejected

    @pytest.mark.parametrize("engine", FUSION_ENGINES)
    def test_patched_pair_defuses_and_matches_reference(self, engine):
        program = assemble(DEFUSE_PATCH)
        reference, machine, report = fused_vs_reference(
            program, engine=engine
        )
        assert not diff_digests(
            state_digest(reference), state_digest(machine)
        )
        # The slot pair runs twice dynamically but only its pre-patch
        # execution may count as fused; the write invalidated the rest.
        slot = program.symbols["slot"]
        if engine == "fast":
            assert machine.engine.fused_hit_counts().get(slot, 0) == 1


COMMON_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestPropertyEquivalence:
    @settings(max_examples=10, **COMMON_SETTINGS)
    @given(structured_programs())
    def test_fusion_on_vs_off_bit_identical_everywhere(self, source):
        compiled = compile_for_risc(source)
        report = analyze_program(compiled.program, name="fuzz")
        for engine in FUSION_ENGINES:
            __, plain = compiled.run(engine=engine)
            machine = compiled.make_machine(engine=engine)
            armed = arm_machine(machine, report)
            machine.run(compiled.program.entry)
            mismatches = diff_digests(
                state_digest(plain), state_digest(machine)
            )
            assert not mismatches, f"[{engine}] " + "\n".join(mismatches)
            assert len(armed.pairs) == len(report.pairs)
            if engine == "fast":
                hits = machine.engine.fused_hit_counts()
                assert set(hits) <= {pair.first for pair in report.pairs}
                assert (
                    sum(hits.values()) == machine.engine.fused_dispatches
                ), source
