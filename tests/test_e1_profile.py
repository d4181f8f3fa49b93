"""E1 prices a retired-pc stream rebuilt from a profile's dispatch path.

The oracle is the stream as E1 used to record it: a ``step`` observer on
the reference engine, one (pc, instruction, taken-jump) event per
completed instruction, priced one record at a time with the taken-jump
term the profile join drops (a load is never a transfer).
"""

import pytest

from repro import RiscMachine, assemble
from repro.asm import Program
from repro.cpu.pipeline3 import PipelineEstimate, estimate_cycles
from repro.cpu.runprofile import profile_machine
from repro.evaluation.e1_three_stage import retired_stream
from repro.isa.opcodes import Category
from repro.workloads import BENCHMARKS, benchmark
from repro.workloads.cache import compile_cached

#: Small enough to keep the observed oracle runs short; every workload
#: retires more than this.
CAP = 2_000


def observed_records(name: str, cap: int | None) -> list:
    """The oracle: (pc, instruction, taken) for each of the first *cap*
    completed instructions of *name* on the reference engine."""
    compiled = compile_cached(benchmark(name).source)
    machine = compiled.make_machine(engine="reference")
    records: list = []
    machine.observers.subscribe("step", lambda m, *event: records.append(event))
    if cap is None:
        machine.run(compiled.program.entry)
    else:
        machine.run(compiled.program.entry, max_steps=cap)
    return records


def record_estimate(records: list) -> PipelineEstimate:
    """The per-record replay E1 used to run over observed records."""
    two_stage = three_stage = stalls = 0
    previous = None
    for _pc, inst, taken in records:
        category = inst.spec.category
        two_stage += 2 if category in (Category.LOAD, Category.STORE) else 1
        three_stage += 1
        if previous is not None:
            prev_inst, prev_taken = previous
            if prev_inst.spec.category is Category.LOAD and not prev_taken:
                loaded = prev_inst.dest
                if loaded != 0 and loaded in inst.operand_registers():
                    three_stage += 1
                    stalls += 1
        previous = (inst, taken)
    return PipelineEstimate(len(records), two_stage, three_stage, stalls)


def assert_stream_matches(name: str, cap: int | None) -> None:
    compiled = compile_cached(benchmark(name).source)
    profile = compiled.profile()
    if cap is None:
        pcs, insts = retired_stream(profile, compiled.program)
    else:
        pcs, insts = retired_stream(profile, compiled.program, cap)
    records = observed_records(name, cap)
    assert list(pcs) == [pc for pc, _inst, _taken in records]
    assert all(insts[pc] == inst for pc, inst, _taken in records)
    assert estimate_cycles(pcs, insts) == record_estimate(records)


@pytest.mark.parametrize("name", [bench.name for bench in BENCHMARKS])
def test_capped_stream_equals_the_observed_oracle(name):
    assert_stream_matches(name, CAP)


@pytest.mark.parametrize("name", ["towers", "ackermann"])
def test_whole_stream_equals_the_observed_oracle(name):
    assert_stream_matches(name, None)


def machine_for(source: str) -> tuple[RiscMachine, Program]:
    program = assemble(source)
    machine = RiscMachine(engine="trace")
    program.load_into(machine.memory)
    return machine, program


def test_refuses_a_trapping_run():
    machine, program = machine_for("main:\n ldl r16, r0, 0x401\n ret\n nop")
    with pytest.raises(RuntimeError, match="without a trap"):
        retired_stream(profile_machine(machine, program.entry), program)
    assert machine.stats.traps == 1


def test_refuses_self_modifying_code():
    machine, program = machine_for(
        """
main:
    li   r17, 0
loop:
    li   r16, 1
    ldl  r19, r0, donor
    stl  r19, r0, loop
    add  r17, r17, #1
    cmp  r17, #2
    blt  loop
    nop
    ret
    nop
donor:
    li   r16, 42
"""
    )
    with pytest.raises(RuntimeError, match="without a trap"):
        retired_stream(profile_machine(machine, program.entry), program)
    assert machine.halted.name == "RETURNED" and not machine.stats.traps
    assert machine.engine.traces_invalidated > 0
