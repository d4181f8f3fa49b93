"""The RISC I processor model, layered.

* **Architectural state** (:mod:`repro.cpu.state`) -
  :class:`~repro.cpu.state.ArchState` owns registers and windows, the
  PSW, memory, trap machinery, and checkpoint/rollback.  Engine-free:
  it defines what the machine *is*, not how it runs.
* **Execution engines** (:mod:`repro.cpu.engine`,
  :mod:`repro.cpu.traceengine`) - anything satisfying the
  :class:`~repro.cpu.engine.ExecutionEngine` protocol can drive an
  ``ArchState``.  :class:`~repro.cpu.engine.ReferenceEngine` is the
  readable oracle interpreter; the trace engine compiles superblock
  traces for throughput (:mod:`repro.cpu.engines` registers both).
  :mod:`repro.cpu.equivalence` diffs the two bit-for-bit.
* **Observation** (:mod:`repro.cpu.observers`) - the
  :class:`~repro.cpu.observers.ObserverBus` every tool (tracer,
  profiler, debugger, fault injector, window analysis) attaches
  through; engines honour it uniformly.

Supporting submodules: :mod:`repro.cpu.regfile` (the 138-register
windowed register file), :mod:`repro.cpu.psw` (flags, CWP, SWP),
:mod:`repro.cpu.alu` (32-bit ALU and shifter semantics),
:mod:`repro.cpu.machine` (the :class:`RiscMachine` facade binding state
to an engine), and :mod:`repro.cpu.pipeline` (the two-stage pipeline
timing model used by the delayed-jump figure).
"""

from repro.cpu.alu import Alu, AluResult
from repro.cpu.engine import ExecutionEngine, ReferenceEngine, create_engine
from repro.cpu.machine import (
    ArchState,
    ExecutionStats,
    HaltReason,
    MachineCheckpoint,
    RiscMachine,
    TrapCause,
    TrapRecord,
    TrapVectorTable,
)
from repro.cpu.observers import CallTraceRecorder, ObserverBus
from repro.cpu.psw import Psw
from repro.cpu.regfile import WindowedRegisterFile

__all__ = [
    "Alu",
    "AluResult",
    "ArchState",
    "CallTraceRecorder",
    "ExecutionEngine",
    "ExecutionStats",
    "HaltReason",
    "MachineCheckpoint",
    "ObserverBus",
    "Psw",
    "ReferenceEngine",
    "RiscMachine",
    "TrapCause",
    "TrapRecord",
    "TrapVectorTable",
    "WindowedRegisterFile",
    "create_engine",
]
