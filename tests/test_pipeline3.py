"""Tests for the execution tracer and the three-stage pipeline model."""

from repro import RiscMachine, assemble
from repro.cc import compile_for_risc
from repro.cpu.pipeline3 import estimate_cycles
from repro.cpu.tracing import ExecutionTracer, TraceRecord
from repro.isa.formats import Instruction
from repro.isa.opcodes import Opcode


def trace_of(source: str, limit: int = 100_000):
    program = assemble(source)
    machine = RiscMachine()
    program.load_into(machine.memory)
    tracer = ExecutionTracer(machine, limit=limit)
    return tracer.run(program.entry)


class TestTracer:
    def test_captures_every_instruction(self):
        trace = trace_of("main:\n li r16, 1\n add r16, r16, #1\n ret\n nop")
        assert len(trace) == 4
        assert trace[0].inst.opcode is Opcode.ADD  # li -> add r16, r0, #1

    def test_marks_taken_jumps(self):
        trace = trace_of("main:\n b skip\n nop\nskip:\n ret\n nop")
        assert trace[0].taken_jump
        assert not trace[1].taken_jump

    def test_marks_memory_instructions(self):
        trace = trace_of("main:\n ldl r16, r0, 0x400\n ret\n nop")
        assert trace[0].is_memory and trace[0].is_load

    def test_limit_respected(self):
        trace = trace_of(
            "main:\nloop:\n add r16, r16, #1\n cmp r16, #100\n bne loop\n nop\n ret\n nop",
            limit=10,
        )
        assert len(trace) == 10


def rec(opcode, dest=0, rs1=0, s2=0, imm=True, taken=False, pc=0):
    return TraceRecord(pc=pc, inst=Instruction(opcode, dest=dest, rs1=rs1,
                                               s2=s2, imm=imm),
                       taken_jump=taken)


class TestThreeStageModel:
    def test_alu_only_identical(self):
        trace = [rec(Opcode.ADD, dest=1, rs1=1) for __ in range(10)]
        estimate = estimate_cycles(trace)
        assert estimate.two_stage_cycles == estimate.three_stage_cycles == 10

    def test_load_without_use_is_free_in_three_stage(self):
        trace = [
            rec(Opcode.LDL, dest=5, rs1=0),
            rec(Opcode.ADD, dest=1, rs1=2, s2=3, imm=False),
        ]
        estimate = estimate_cycles(trace)
        assert estimate.two_stage_cycles == 3
        assert estimate.three_stage_cycles == 2
        assert estimate.load_use_stalls == 0

    def test_load_use_interlock(self):
        trace = [
            rec(Opcode.LDL, dest=5, rs1=0),
            rec(Opcode.ADD, dest=1, rs1=5),
        ]
        estimate = estimate_cycles(trace)
        assert estimate.three_stage_cycles == 3
        assert estimate.load_use_stalls == 1

    def test_load_to_r0_never_stalls(self):
        trace = [
            rec(Opcode.LDL, dest=0, rs1=0),
            rec(Opcode.ADD, dest=1, rs1=0),
        ]
        assert estimate_cycles(trace).load_use_stalls == 0

    def test_store_data_dependency_counts(self):
        trace = [
            rec(Opcode.LDL, dest=5, rs1=0),
            rec(Opcode.STL, dest=5, rs1=2),  # stores read dest as data
        ]
        assert estimate_cycles(trace).load_use_stalls == 1

    def test_speedup_on_memory_heavy_code(self):
        trace = [rec(Opcode.LDL, dest=i % 8 + 1, rs1=0) for i in range(20)]
        estimate = estimate_cycles(trace)
        assert estimate.speedup > 1.5

    def test_empty_trace(self):
        estimate = estimate_cycles([])
        assert estimate.speedup == 1.0


class TestOnRealPrograms:
    def test_three_stage_never_slower(self):
        source = """
        int a[32];
        int main() {
            int i; int s = 0;
            for (i = 0; i < 32; i = i + 1) a[i] = i;
            for (i = 0; i < 32; i = i + 1) s = s + a[i];
            return s;
        }
        """
        compiled = compile_for_risc(source)
        machine = compiled.make_machine(engine="reference")
        trace = ExecutionTracer(machine).run(compiled.program.entry)
        estimate = estimate_cycles(trace)
        assert estimate.three_stage_cycles <= estimate.two_stage_cycles
        assert estimate.speedup >= 1.0
