"""In-memory spans for the traced run, and the shims that record them.

A span is ``(name, start, end, parent, run)``: ``parent`` indexes the
enclosing span of the same process, and ``run`` is the id of the job
that caused it, shared by every span of that job.  Spans stay in memory
until the child process ends and travel to the parent inside its
record; nothing is written while a job runs.

The shims wrap the layer entry points that the benchmark's jobs reach.
They are installed only in traced children.  Installing a shim whose
target no longer exists raises :class:`ShimError`, and so does
:meth:`Tracer.check_fired` when an expected shim recorded no span: a
renamed or moved entry point fails the traced run instead of reporting
0 s for its layer.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from time import perf_counter

#: (span name, module, attribute) of every layer entry point.  The
#: compiler phases are patched in the ``repro.cc.compiler`` namespace,
#: which is where ``compile_for_risc`` looks them up;
#: ``optimize_program`` is imported from its own module at call time.
SHIM_TARGETS = (
    ("cpu.run", "repro.cpu.machine", "RiscMachine.run"),
    ("cpu.make_machine", "repro.cc.compiler", "CompiledRisc.make_machine"),
    ("cpu.restore", "repro.cpu.state", "ArchState.restore"),
    ("telemetry.manifest", "repro.cpu.machine", "RiscMachine.run_manifest"),
    ("baselines.run", "repro.baselines.framework", "CiscExecutor.run"),
    ("hll.interp", "repro.hll.interp", "Interpreter.run"),
    ("multicore.run", "repro.multicore.simulator", "MulticoreSimulator.run"),
    ("hll.parse", "repro.cc.compiler", "parse_program"),
    ("hll.sema", "repro.cc.compiler", "analyze"),
    ("cc.lower", "repro.cc.compiler", "lower_program"),
    ("cc.optimize", "repro.cc.optimize", "optimize_program"),
    ("cc.codegen", "repro.cc.compiler", "generate_program"),
    ("asm.assemble", "repro.cc.compiler", "assemble"),
)

#: Telemetry-snapshot fields of the auto tier that count work (gauges
#: such as ``traces_resident`` would not add up across machines).
ENGINE_COUNTERS = (
    "traces_compiled",
    "traces_invalidated",
    "code_flushes",
    "instructions_compiled",
    "fused_dispatches",
)


class ShimError(RuntimeError):
    """A shim target is missing, or an expected shim never fired."""


@dataclass
class Span:
    """One timed call at a layer boundary."""

    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.run]

    @classmethod
    def from_list(cls, row: list) -> "Span":
        return cls(*row)


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, int] = defaultdict(int)
        #: id of the job now running; stamped on every span it opens
        self.run = ""
        self._open: list[int] = []

    def begin(self, name: str, start: float | None = None) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        when = perf_counter() if start is None else start
        self.spans.append(Span(name, when, when, parent, self.run))
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def check_fired(self, expected: Iterable[str]) -> None:
        """Raise :class:`ShimError` unless every *expected* span occurred."""
        fired = {span.name for span in self.spans}
        missing = sorted(set(expected) - fired)
        if missing:
            raise ShimError(f"shims never fired: {', '.join(missing)}")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children[index], key=lambda s: s.start):
            low = max(child.start, reach)
            high = min(child.end, span.end)
            if high > low:
                covered += high - low
                reach = high
        result.append(span.seconds - covered)
    return result


def _shim(tracer: Tracer, name: str, fn: Callable, probe=None) -> Callable:
    """Wrap *fn* in a span; *probe(args)* may return an after-callback."""

    @functools.wraps(fn)
    def shim(*args, **kwargs):
        after = probe(args) if probe is not None else None
        index = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(index)
            if after is not None:
                after()

    return shim


def _engine_counts(engine) -> dict[str, int]:
    snapshot = engine.telemetry_snapshot()
    return {key: snapshot.get(key, 0) for key in ENGINE_COUNTERS}


def _probes(tracer: Tracer, auto_tier: str) -> dict[str, Callable]:
    """Counters read around the calls that do countable work."""

    def machine_run(args):
        machine = args[0]
        before = machine.stats.instructions
        engine_before = (
            _engine_counts(machine.engine)
            if machine.engine.name == auto_tier else None
        )

        def after():
            tier = machine.engine.name
            tracer.count(f"cpu.run_calls.{tier}")
            tracer.count(
                f"cpu.instructions.{tier}", machine.stats.instructions - before
            )
            if engine_before is not None:
                for key, value in _engine_counts(machine.engine).items():
                    tracer.count(f"cpu.engine.{key}", value - engine_before[key])

        return after

    def cisc_run(args):
        executor = args[0]
        before = executor.instructions_executed

        def after():
            tracer.count(
                "baselines.instructions", executor.instructions_executed - before
            )

        return after

    return {"cpu.run": machine_run, "baselines.run": cisc_run}


def install_shims(tracer: Tracer, auto_tier: str) -> Callable[[], None]:
    """Patch every :data:`SHIM_TARGETS` entry; returns the undo function."""
    probes = _probes(tracer, auto_tier)
    undo: list[tuple[object, str, object]] = []

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    for name, module_name, path in SHIM_TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError) as exc:
            uninstall()
            raise ShimError(
                f"shim target {module_name}.{path} is gone ({exc!r})"
            ) from exc
        setattr(owner, attr, _shim(tracer, name, original, probes.get(name)))
        undo.append((owner, attr, original))
    return uninstall
