"""Structured trace/event export: one JSONL schema for every observer.

Before this module, each execution tool serialised its own ad-hoc shape:
the tracer kept :class:`~repro.cpu.tracing.TraceRecord` objects, the
profiler rendered text, the fault injector logged
:class:`~repro.faults.injector.InjectionEvent` dataclasses, and the
call-trace recorder a bare +1/-1 list.  Here they all map onto **one
event schema** so downstream analysis reads a single format.

Every event is a flat JSON object with three envelope fields plus
per-kind payload fields:

``schema``
    :data:`EVENT_SCHEMA` (only on the first line of a stream).
``seq``
    0-based position in the stream (assigned by the writer).
``event``
    The kind - see :data:`EVENT_KINDS` and the taxonomy table in
    ``docs/OBSERVABILITY.md``.

Event positions in simulated time are reported as ``step`` (dynamic
instruction index) and ``cycle`` where the source observer provides
them; host time never appears, so streams are deterministic and
diffable.

Usage - live capture from a running machine::

    with open("run.jsonl", "w") as sink:
        exporter = TraceEventExporter(machine, JsonlEventWriter(sink))
        with exporter:                        # subscribes / unsubscribes
            machine.run(program.entry)

or convert existing tool output with the ``events_from_*`` adapters.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from typing import IO, TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cpu.state import ArchState

__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "JsonlEventWriter",
    "TraceEventExporter",
    "events_from_call_trace",
    "events_from_injections",
    "events_from_journal",
    "events_from_profile",
    "events_from_schedule",
    "events_from_trace",
    "read_events",
]

#: Schema tag carried by the first event of every stream.
EVENT_SCHEMA = "risc1-repro/trace-event/v1"

#: The complete event taxonomy (documented in docs/OBSERVABILITY.md).
EVENT_KINDS = (
    "run_begin",   # emitted by the exporter before the run starts
    "step",        # one completed instruction
    "mem_access",  # one data-side load/store
    "call",        # a frame was allocated (CALL/interrupt/trap vector)
    "return",      # a frame was released (RET/RETINT)
    "trap",        # a TrapRecord was logged (vectored or halting)
    "halt",        # the machine halted
    "injection",   # a fault was applied (adapter: FaultInjector log)
    "profile",     # per-function aggregate (adapter: Profiler)
    "run_end",     # emitted by the exporter when the run halts
    "trial",       # a campaign trial completed (distributed runner)
    "retry",       # a trial attempt was re-dispatched (supervisor)
    "resume",      # a journal was recovered (distributed runner)
    "slice",       # one scheduler slice (adapter: multicore schedule log)
)


class JsonlEventWriter:
    """Serialise events to a text stream, one canonical JSON per line.

    Assigns ``seq`` numbers, stamps the schema on the first line, and
    counts what it emitted.  Keys are sorted so a stream is comparable
    byte-for-byte against a golden file.
    """

    def __init__(self, stream: IO[str]) -> None:
        self.stream = stream
        self.emitted = 0

    def write(self, event: dict) -> None:
        """Write one event (a plain dict with an ``event`` kind)."""
        payload = dict(event)
        if self.emitted == 0:
            payload["schema"] = EVENT_SCHEMA
        payload["seq"] = self.emitted
        self.stream.write(json.dumps(payload, sort_keys=True) + "\n")
        self.emitted += 1

    def write_all(self, events: Iterable[dict]) -> int:
        """Write every event; returns how many were written."""
        count = 0
        for event in events:
            self.write(event)
            count += 1
        return count


def read_events(stream: IO[str]) -> list[dict]:
    """Parse a JSONL event stream back into dicts (inverse of the writer)."""
    return [json.loads(line) for line in stream if line.strip()]


class TraceEventExporter:
    """Attach to a machine's :class:`~repro.cpu.observers.ObserverBus`
    and stream selected events as JSONL.

    Args:
        machine: the machine to observe.
        writer: destination :class:`JsonlEventWriter`.
        events: which bus-driven kinds to capture - any subset of
            ``("step", "mem_access", "call", "return", "trap", "halt")``.
            ``step`` and ``mem_access`` are step-granular: subscribing
            them drops the compiled tiers to one step at a time, and
            ``mem_access`` sends each step to the oracle (fidelity
            over speed, as for every per-step observer).
        limit: stop recording step-granular events after this many
            (boundary events still stream).

    Use as a context manager, or call :meth:`attach` / :meth:`detach`.
    """

    _BUS_EVENTS = ("step", "mem_access", "call", "return", "trap", "halt")

    def __init__(
        self,
        machine: "ArchState",
        writer: JsonlEventWriter,
        *,
        events: tuple[str, ...] = ("step", "call", "return", "trap", "halt"),
        limit: int = 1_000_000,
    ) -> None:
        unknown = set(events) - set(self._BUS_EVENTS)
        if unknown:
            raise ValueError(
                f"unknown exporter events {sorted(unknown)} "
                f"(one of {self._BUS_EVENTS})"
            )
        self.machine = machine
        self.writer = writer
        self.events = tuple(events)
        self.limit = limit
        self._step_events = 0
        self._attached = False

    # -- bus callbacks -------------------------------------------------------

    def _on_step(self, machine, pc: int, inst, taken_jump: bool) -> None:
        if self._step_events >= self.limit:
            return
        self._step_events += 1
        self.writer.write({
            "event": "step",
            "step": machine.stats.instructions,
            "cycle": machine.stats.cycles,
            "pc": pc,
            "opcode": inst.opcode.name,
            "taken_jump": taken_jump,
        })

    def _on_mem_access(self, machine, kind: str, address: int, value: int) -> None:
        if self._step_events >= self.limit:
            return
        self._step_events += 1
        self.writer.write({
            "event": "mem_access",
            "cycle": machine.stats.cycles,
            "kind": kind,
            "address": address,
            "value": value,
        })

    def _on_call(self, machine, depth: int) -> None:
        self.writer.write({
            "event": "call",
            "step": machine.stats.instructions,
            "cycle": machine.stats.cycles,
            "depth": depth,
        })

    def _on_return(self, machine, depth: int) -> None:
        self.writer.write({
            "event": "return",
            "step": machine.stats.instructions,
            "cycle": machine.stats.cycles,
            "depth": depth,
        })

    def _on_trap(self, machine, record) -> None:
        self.writer.write({
            "event": "trap",
            "step": record.instruction_index,
            "cycle": record.cycle,
            "cause": record.cause.name,
            "pc": record.pc,
            "address": record.address,
            "vectored": record.vectored,
            "in_delay_slot": record.in_delay_slot,
        })

    def _on_halt(self, machine, reason) -> None:
        self.writer.write({
            "event": "halt",
            "step": machine.stats.instructions,
            "cycle": machine.stats.cycles,
            "reason": reason.name,
        })

    # -- lifecycle -----------------------------------------------------------

    def attach(self) -> None:
        """Subscribe the selected callbacks; emits ``run_begin``."""
        if self._attached:
            return
        self.writer.write({
            "event": "run_begin",
            "engine": getattr(getattr(self.machine, "engine", None), "name", "none"),
            "events": list(self.events),
        })
        bus = self.machine.observers
        for name in self.events:
            bus.subscribe(name, getattr(self, f"_on_{name}"))
        self._attached = True

    def detach(self) -> None:
        """Unsubscribe every callback; emits ``run_end``."""
        if not self._attached:
            return
        bus = self.machine.observers
        for name in self.events:
            bus.unsubscribe(name, getattr(self, f"_on_{name}"))
        self._attached = False
        stats = self.machine.stats
        self.writer.write({
            "event": "run_end",
            "step": stats.instructions,
            "cycle": stats.cycles,
            "halt": (
                self.machine.halted.name
                if self.machine.halted is not None else "RUNNING"
            ),
        })

    def __enter__(self) -> "TraceEventExporter":
        self.attach()
        return self

    def __exit__(self, *exc_info) -> None:
        self.detach()


# -- adapters for existing tool output ---------------------------------------


def events_from_trace(records) -> list[dict]:
    """Convert :class:`~repro.cpu.tracing.TraceRecord` objects to events.

    The tracer does not carry per-record cycle counts; positions are the
    record's index in the captured stream.
    """
    return [
        {
            "event": "step",
            "step": index,
            "pc": record.pc,
            "opcode": record.inst.opcode.name,
            "taken_jump": record.taken_jump,
        }
        for index, record in enumerate(records)
    ]


def events_from_call_trace(trace: list[int]) -> list[dict]:
    """Convert the +1/-1 call-depth stream to ``call``/``return`` events."""
    events = []
    depth = 0
    for index, delta in enumerate(trace):
        depth += 1 if delta > 0 else -1
        events.append({
            "event": "call" if delta > 0 else "return",
            "step": index,
            "depth": depth,
        })
    return events


def events_from_schedule(schedule: Iterable[tuple[int, int, int]]) -> list[dict]:
    """Convert a multicore slice log (``MulticoreSimulator.schedule``,
    ``(core, start-count, length)`` tuples) to ``slice`` events."""
    return [
        {
            "event": "slice",
            "core": core,
            "start": start,
            "instructions": executed,
        }
        for core, start, executed in schedule
    ]


def events_from_injections(log) -> list[dict]:
    """Convert a :class:`~repro.faults.injector.FaultInjector` log
    (:class:`~repro.faults.injector.InjectionEvent` list) to events."""
    return [
        {
            "event": "injection",
            "cycle": entry.cycle,
            "pc": entry.pc,
            "target": entry.spec.target.value,
            "kind": entry.spec.kind.value,
            "location": entry.spec.location,
            "original": entry.original,
            "mutated": entry.mutated,
        }
        for entry in log
    ]


def events_from_journal(entries: Iterable[dict]) -> list[dict]:
    """Convert fault-journal entries to ``trial`` events.

    *entries* are parsed journal lines (``{"trial", "attempt",
    "record"}`` objects, as written by
    :class:`repro.faults.distributed.TrialJournal`); lines without a
    ``trial`` field - the journal header - are skipped.  Each event
    carries the trial index, the attempt that produced the record, and
    the record's benchmark/outcome, so a journal replays as a stream of
    ``trial`` events.
    """
    events = []
    for entry in entries:
        trial = entry.get("trial")
        record = entry.get("record")
        if not isinstance(trial, int) or not isinstance(record, dict):
            continue
        events.append({
            "event": "trial",
            "trial": trial,
            "attempt": int(entry.get("attempt", 1)),
            "benchmark": record.get("benchmark"),
            "outcome": record.get("outcome"),
        })
    return events


def events_from_profile(profiles) -> list[dict]:
    """Convert :class:`~repro.cpu.profiler.FunctionProfile` rows to events."""
    return [
        {
            "event": "profile",
            "function": profile.name,
            "start": profile.start,
            "calls": profile.calls,
            "instructions": profile.instructions,
            "cycles": profile.cycles,
        }
        for profile in profiles
    ]
