"""Static binary analysis for assembled/linked RISC I programs.

The two RISC I design points the paper itself flags as error-prone -
delayed jumps that expose the pipeline, and overlapped register windows
that can silently overflow - are exactly the properties a static
analyzer can verify before a program ever runs.  This package provides
that verification layer over the *binary* (a memory image, not source):

* :mod:`repro.analysis.cfg` - decodes an image into basic blocks with
  delay slots modelled explicitly and branch/call targets resolved;
* :mod:`repro.analysis.dataflow` - worklist dataflow (liveness,
  reaching definitions, definite assignment) over the windowed
  register file;
* :mod:`repro.analysis.callgraph` - static call graph and the
  window-depth bound that predicts overflow/underflow traffic;
* :mod:`repro.analysis.fusion` - the macro-op fusion analyzer: finds
  fusible idiom pairs over the CFG and emits per-pair legality proofs
  (a :class:`~repro.analysis.fusion.FusionReport`);
* :mod:`repro.analysis.lints` - the lint catalog (``DS*`` delay-slot
  hazards, ``UU*`` uninitialized reads, ``DC*`` dead stores, ``UR*``
  unreachable code, ``CF*`` control-flow integrity, ``WD*`` window
  depth, ``FUS*`` fusion opportunities) producing a
  :class:`~repro.analysis.lints.LintReport`;
* :mod:`repro.analysis.lint` - the ``python -m repro.analysis.lint``
  CLI with text/JSON reports and a CI baseline mode.

Entry points: :func:`~repro.analysis.lints.lint_program` for a
:class:`~repro.asm.assembler.Program`, or
``CompiledRisc.analyze()`` / ``compile_for_risc(..., verify=True)``
from :mod:`repro.cc`.

See ``docs/ANALYSIS.md`` for the pass pipeline and the lint catalog.
"""

from repro.analysis.callgraph import CallGraph, WindowDepthReport, build_call_graph
from repro.analysis.cfg import BasicBlock, CodeWord, ControlFlowGraph, build_cfg
from repro.analysis.dataflow import (
    definite_assignment,
    liveness,
    reaching_definitions,
)
from repro.analysis.fusion import (
    FusionPair,
    FusionReport,
    analyze_cfg,
    analyze_program,
)
from repro.analysis.lints import Finding, LintReport, Severity, lint_program

__all__ = [
    "BasicBlock",
    "CallGraph",
    "CodeWord",
    "ControlFlowGraph",
    "Finding",
    "FusionPair",
    "FusionReport",
    "LintReport",
    "Severity",
    "WindowDepthReport",
    "analyze_cfg",
    "analyze_program",
    "build_call_graph",
    "build_cfg",
    "definite_assignment",
    "lint_program",
    "liveness",
    "reaching_definitions",
]
