"""Compiler driver: Mini-C source -> runnable RISC I machine.

`compile_for_risc` returns a :class:`CompiledRisc` bundling the generated
assembly, the assembled image, and helpers to execute it on a fresh
:class:`~repro.cpu.machine.RiscMachine` - the path every benchmark and
differential test goes through.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.asm import Program, assemble
from repro.common.bitops import to_signed
from repro.cpu.machine import RiscMachine
from repro.cpu.runprofile import RunProfile, profile_machine
from repro.hll.parser import parse_program
from repro.hll.sema import CheckedProgram, analyze

from repro.cc.frontend import lower_program
from repro.cc.ir import IrProgram
from repro.cc.riscgen import CodegenResult, generate_program


def compile_to_ir(source: str, optimize: bool = True) -> IrProgram:
    """Front half of the pipeline: source -> checked AST -> IR.

    With ``optimize`` (the default) the IR is cleaned by copy
    propagation and dead-code elimination before code generation.
    """
    from repro.cc.optimize import optimize_program

    ir = lower_program(analyze(parse_program(source)))
    if optimize:
        optimize_program(ir)
    return ir


@dataclass
class CompiledRisc:
    """A Mini-C program compiled for RISC I.

    The image never changes; the instance only gains the memo of
    :meth:`profile`, shared by every caller of
    :func:`~repro.workloads.cache.compile_cached`.
    """

    asm_source: str
    program: Program
    codegen: CodegenResult
    use_windows: bool
    _profiles: dict[int, RunProfile] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def code_size_bytes(self) -> int:
        """Text size: bootstrap + compiled functions + needed runtime."""
        return self.program.symbols["__text_end"] - self.program.symbols["__text_start"]

    def make_machine(self, *, num_windows: int = 8,
                     memory_size: int = 1 << 20,
                     engine: str = "trace") -> RiscMachine:
        """A fresh machine with the image loaded, on *engine*.

        The default is the ``trace`` tier: bit-identical to the
        ``reference`` oracle, the fastest tier, and, like a machine on
        any tier, freed by reference counting once the caller drops it.
        Observed runs stay on pre-decoded thunks: ``pre_step``/``step``
        observers run in its inner ``fast`` engine, and only
        ``fetch_word``/``mem_access`` observers send steps to the oracle.
        """
        from repro.common.memory import Memory

        machine = RiscMachine(
            Memory(size=memory_size),
            num_windows=num_windows,
            use_windows=self.use_windows,
            engine=engine,
        )
        self.program.load_into(machine.memory)
        return machine

    def run(self, *, num_windows: int = 8, max_steps: int = 50_000_000,
            memory_size: int = 1 << 20,
            engine: str = "trace") -> tuple[int, RiscMachine]:
        """Execute; returns (main's return value as signed int, machine).

        Runs on the ``trace`` tier by default, as :meth:`make_machine`
        does; results and statistics are identical on every tier.
        """
        machine = self.make_machine(num_windows=num_windows,
                                    memory_size=memory_size, engine=engine)
        machine.run(self.program.entry, max_steps=max_steps)
        return to_signed(machine.result), machine

    def profile(self, *, num_windows: int = 8) -> RunProfile:
        """The numbers of one unobserved ``trace`` run at *num_windows*
        (:mod:`repro.cpu.runprofile`), built once and kept here."""
        profile = self._profiles.get(num_windows)
        if profile is None:
            profile = self._profiles[num_windows] = profile_machine(
                self.make_machine(num_windows=num_windows), self.program.entry
            )
        return profile

    def analyze(self, *, name: str = "compiled", num_windows: int = 8):
        """Static analysis of the compiled binary (a
        :class:`~repro.analysis.lints.LintReport`)."""
        from repro.analysis import lint_program

        return lint_program(
            self.program, name=name,
            windowed=self.use_windows, num_windows=num_windows,
        )



def compile_for_risc(
    source: str,
    *,
    use_windows: bool = True,
    optimize_delay_slots: bool = True,
    optimize_ir: bool = True,
    checked: CheckedProgram | None = None,
    verify: bool = False,
) -> CompiledRisc:
    """Compile Mini-C *source* to an executable RISC I image.

    With ``verify`` the static analyzer (:mod:`repro.analysis`) lints
    the assembled binary and any finding - delay-slot hazard,
    uninitialized read, dead store, unreachable code, broken control
    flow - raises :class:`~repro.errors.CompileError`.  The compiler's
    output is expected to be finding-free, so this is a cheap
    miscompile tripwire for callers that want it.
    """
    from repro.cc.optimize import optimize_program

    if checked is None:
        checked = analyze(parse_program(source))
    ir = lower_program(checked)
    if optimize_ir:
        optimize_program(ir)
    codegen = generate_program(
        ir, use_windows=use_windows, optimize_delay_slots=optimize_delay_slots
    )
    program = assemble(codegen.source)
    compiled = CompiledRisc(
        asm_source=codegen.source, program=program,
        codegen=codegen, use_windows=use_windows,
    )
    if verify:
        from repro.errors import CompileError

        report = compiled.analyze()
        if report.findings:
            details = "\n".join(f.render() for f in report.findings)
            raise CompileError(
                f"static analysis found {len(report.findings)} problem(s) "
                f"in the compiled binary:\n{details}"
            )
    return compiled
