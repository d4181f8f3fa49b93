"""The CISC executor's per-run pricing tables against per-step pricing.

``CiscExecutor.run`` prices each static instruction once and resolves
branch and JSR labels up front.  The oracle here is the loop it
replaced: every dynamic instruction priced through the traits, every
label looked up when the transfer executes, and the branch condition
evaluated from a freshly built relop table.
"""

from dataclasses import dataclass

import pytest

from repro.baselines import (
    ALL_TRAITS, CInst, CiscExecutor, CiscOp, CiscProgram, Imm, Reg, VaxTraits,
)
from repro.baselines.framework import SP, WORD
from repro.cc import compile_to_ir
from repro.cc.ciscgen import compile_for_cisc
from repro.common.bitops import to_signed, to_unsigned
from repro.errors import BaselineError
from repro.workloads import BENCHMARKS, benchmark


class PerStepExecutor(CiscExecutor):
    """The executor with pricing and label lookup on every step.

    Each step is also priced under every machine in *sharing*, whose
    generated program is the same: ``shared[i]`` holds the cycles and
    fetch bytes of ``sharing[i]``.
    """

    def __init__(self, program, traits, sharing=()):
        super().__init__(program, traits)
        self.sharing = tuple(sharing)
        self.shared = [[0, 0] for _ in self.sharing]

    def run(self, entry=None, max_steps=50_000_000):
        labels = self.program.labels
        pc = labels[entry or self.program.entry]
        self.regs[SP] -= WORD
        self.memory.store_word(self.regs[SP], to_unsigned(-1), count=False)
        steps = 0
        while True:
            if steps >= max_steps:
                raise BaselineError(f"step limit {max_steps} exceeded")
            steps += 1
            inst = self.program.instructions[pc]
            self.instructions_executed += 1
            self.cycles += self.traits.cycles(inst)
            self.fetch_bytes += self.traits.bytes(inst)
            for traits, priced in zip(self.sharing, self.shared):
                priced[0] += traits.cycles(inst)
                priced[1] += traits.bytes(inst)
            next_pc = pc + 1
            if inst.op is CiscOp.JSR:
                self.regs[SP] = to_unsigned(self.regs[SP] - WORD)
                self.memory.store_word(self.regs[SP], to_unsigned(next_pc))
                pc = labels[inst.target]
                continue
            if inst.op is CiscOp.BRA:
                jump = labels[inst.target]
            elif inst.op is CiscOp.BCC:
                jump = labels[inst.target] if self._per_step_cond(inst.relop) else None
            else:
                jump = self._execute(inst)
            if jump is not None:
                if jump == -1:
                    return to_signed(self.regs[0])
                next_pc = jump
            pc = next_pc

    def _per_step_cond(self, relop):
        a, b = self.last_cmp
        ua, ub = to_unsigned(a), to_unsigned(b)
        table = {
            "==": a == b, "!=": a != b,
            "<": a < b, "<=": a <= b, ">": a > b, ">=": a >= b,
            "ltu": ua < ub, "leu": ua <= ub, "gtu": ua > ub, "geu": ua >= ub,
        }
        if relop not in table:
            raise BaselineError(f"unknown relop {relop!r}")
        return table[relop]


@dataclass(frozen=True)
class Outcome:
    result: int
    instructions: int
    cycles: int
    fetch_bytes: int
    data_refs: int


def outcome(executor: CiscExecutor) -> Outcome:
    result = executor.run()
    return Outcome(result, executor.instructions_executed, executor.cycles,
                   executor.fetch_bytes, executor.memory.stats.data_refs)


@pytest.mark.parametrize("name", [bench.name for bench in BENCHMARKS])
def test_workload_priced_identically_on_every_machine(name):
    # Machines whose generated programs are equal share one per-step run,
    # priced step by step under each of them.
    ir = compile_to_ir(benchmark(name).source)
    groups: list[tuple[CiscProgram, list]] = []
    for traits in ALL_TRAITS:
        program = compile_for_cisc(ir, traits).program
        for seen, machines in groups:
            if seen == program:
                machines.append(traits)
                break
        else:
            groups.append((program, [traits]))
    for program, machines in groups:
        oracle = PerStepExecutor(program, machines[0], machines[1:])
        result = oracle.run()
        priced = [(oracle.cycles, oracle.fetch_bytes), *oracle.shared]
        for traits, (cycles, fetch_bytes) in zip(machines, priced):
            want = Outcome(result, oracle.instructions_executed, cycles,
                           fetch_bytes, oracle.memory.stats.data_refs)
            got = outcome(CiscExecutor(program, traits))
            assert got == want, traits.name


def spin_program() -> CiscProgram:
    return CiscProgram(
        instructions=[
            CInst(CiscOp.CMP, (Reg(1), Imm(0))),
            CInst(CiscOp.BCC, target="main", relop="=="),
        ],
        labels={"main": 0},
    )


def test_step_limit_stops_at_the_same_instruction():
    executors = [cls(spin_program(), VaxTraits())
                 for cls in (PerStepExecutor, CiscExecutor)]
    for executor in executors:
        with pytest.raises(BaselineError, match="step limit 51 exceeded"):
            executor.run(max_steps=51)
    # The counters cover exactly the steps taken before the limit.
    want, got = ((e.instructions_executed, e.cycles, e.fetch_bytes)
                 for e in executors)
    assert got == want and got[0] == 51


@pytest.mark.parametrize("executor_class", [PerStepExecutor, CiscExecutor])
def test_unknown_relop_raises_only_when_its_branch_executes(executor_class):
    program = CiscProgram(
        instructions=[
            CInst(CiscOp.MOV, (Reg(0), Imm(7))),
            CInst(CiscOp.BRA, target="done"),
            CInst(CiscOp.BCC, target="main", relop="never"),
            CInst(CiscOp.RTS, label="done"),
        ],
        labels={"main": 0, "done": 3},
    )
    assert executor_class(program, VaxTraits()).run() == 7
    program.labels["main"] = 2  # now the bad branch is the first step
    executor = executor_class(program, VaxTraits())
    with pytest.raises(BaselineError, match="unknown relop 'never'"):
        executor.run()
    assert executor.instructions_executed == 1


@pytest.mark.parametrize("executor_class", [PerStepExecutor, CiscExecutor])
def test_unknown_label_raises_only_when_its_transfer_executes(executor_class):
    program = CiscProgram(
        instructions=[
            CInst(CiscOp.MOV, (Reg(0), Imm(3))),
            CInst(CiscOp.RTS),
            CInst(CiscOp.JSR, target="nowhere"),
        ],
        labels={"main": 0},
    )
    assert executor_class(program, VaxTraits()).run() == 3
    program.labels["main"] = 2
    with pytest.raises(KeyError, match="nowhere"):
        executor_class(program, VaxTraits()).run()
