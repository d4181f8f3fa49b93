"""The observability layer: registry, run manifests, trace export.

Four contracts under test:

* **registry semantics** - one name, one instrument, one type; the
  disabled registry hands out a shared null instrument and stays empty;
* **run-boundary instrumentation** - the execution stack touches the
  registry a constant number of times per run, never per instruction
  (the structural form of the "<3% no-op overhead" requirement, which a
  wall-clock assertion could only test flakily);
* **manifest determinism** - shared sections byte-identical and
  same-fingerprint across all three engines, round-trippable through
  JSON, schema-validated, and worker-count independent when aggregated;
* **event export** - JSONL streams match a golden byte-for-byte, and
  the adapters map existing tool output onto the same schema.
"""

import io
import json

import pytest

from repro import RiscMachine, assemble
from repro.evaluation.run_all import collect_manifests
from repro.telemetry import (
    EVENT_SCHEMA,
    JsonlEventWriter,
    MetricsRegistry,
    NULL_REGISTRY,
    RunManifest,
    TraceEventExporter,
    aggregate_manifests,
    events_from_call_trace,
    events_from_injections,
    events_from_profile,
    events_from_schedule,
    events_from_trace,
    read_events,
    validate_manifest,
)
from repro.telemetry.manifest import MANIFEST_SCHEMA, ManifestError, schema_paths
from repro.telemetry.registry import _NULL_INSTRUMENT
from repro.telemetry.report import load_manifests, render_report
from repro.workloads import benchmark
from repro.workloads.cache import compile_cached

from repro.cpu.engines import default_sweep_engines

ENGINES = default_sweep_engines()


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.gauge("g") is registry.gauge("g")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("x")

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7

    def test_histogram_buckets_and_mean(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 100.0):
            hist.observe(value)
        assert hist.counts == [1, 1, 1]  # <=1, <=10, inf
        assert hist.mean == pytest.approx(105.5 / 3)
        with pytest.raises(ValueError, match="must be sorted"):
            MetricsRegistry().histogram("bad", buckets=(10.0, 1.0))

    def test_timer_context_manager(self):
        registry = MetricsRegistry()
        with registry.timer("t"):
            pass
        timer = registry.get("t")
        assert timer.histogram.count == 1
        assert timer.histogram.sum >= 0

    def test_introspection(self):
        registry = MetricsRegistry()
        registry.counter("b", help="second")
        registry.counter("a", help="first")
        assert registry.names() == ["a", "b"]
        assert registry.as_dict()["a"] == {"kind": "counter", "value": 0}
        assert registry.describe()[0] == {
            "name": "a", "kind": "counter", "help": "first",
        }
        registry.reset()
        assert len(registry) == 0

    def test_disabled_registry_is_null_and_empty(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("anything")
        assert counter is _NULL_INSTRUMENT
        assert counter is registry.timer("other.name")
        counter.inc(1_000_000)   # all mutators are no-ops
        registry.get("anything")
        assert len(registry) == 0 and registry.as_dict() == {}
        assert not NULL_REGISTRY.enabled


class TestRunBoundaryInstrumentation:
    """The structural no-op-overhead guarantee.

    A counting registry subclass records every factory call; a full
    block-engine towers run (tens of thousands of instructions) must
    touch the registry only at the run boundary - a constant, tiny
    number of times.  This is what bounds enabled *and* disabled
    overhead: the hot loops never see the registry at all.
    """

    class CountingRegistry(MetricsRegistry):
        def __init__(self):
            super().__init__(enabled=True)
            self.factory_calls = 0

        def _register(self, name, kind, factory):
            self.factory_calls += 1
            return super()._register(name, kind, factory)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_registry_touched_per_run_not_per_instruction(self, engine):
        registry = self.CountingRegistry()
        compiled = compile_cached(benchmark("towers").source)
        machine = compiled.make_machine(engine=engine)
        machine.telemetry = registry
        machine.run(compiled.program.entry)
        assert machine.stats.instructions > 30_000
        assert registry.factory_calls <= 8  # run-boundary only
        assert registry.get("sim.runs").value == 1
        assert registry.get("sim.instructions").value == machine.stats.instructions
        assert registry.get("sim.cycles").value == machine.stats.cycles
        assert registry.get("sim.run_seconds").histogram.count == 1

    def test_default_machine_uses_null_registry(self):
        machine = RiscMachine()
        assert machine.telemetry is NULL_REGISTRY


# -- run manifests -----------------------------------------------------------


def towers_manifest(engine: str) -> RunManifest:
    compiled = compile_cached(benchmark("towers").source)
    machine = compiled.make_machine(engine=engine)
    machine.run(compiled.program.entry)
    return machine.run_manifest(workload="towers", entry=compiled.program.entry)


class TestRunManifest:
    def test_shared_sections_identical_across_engines(self):
        manifests = {engine: towers_manifest(engine) for engine in ENGINES}
        shared = {m.shared_json() for m in manifests.values()}
        assert len(shared) == 1
        fingerprints = {m.fingerprint() for m in manifests.values()}
        assert len(fingerprints) == 1
        engines = {m.engine for m in manifests.values()}
        assert engines == set(ENGINES)  # simulation sections still differ

    def test_engine_detail_reflects_backend(self):
        reference = towers_manifest("reference")
        fast = towers_manifest("fast")
        trace = towers_manifest("trace")
        assert reference.engine_detail == {}
        assert fast.engine_detail["thunks_compiled"] > 0
        assert trace.engine_detail["traces_compiled"] > 0

    def test_round_trip_and_validation(self):
        manifest = towers_manifest("reference")
        doc = manifest.as_dict()
        assert validate_manifest(doc) == []
        back = RunManifest.from_json(manifest.to_json())
        assert back.canonical_json() == manifest.canonical_json()
        assert back.fingerprint() == manifest.fingerprint()

    def test_validation_catches_corruption(self):
        doc = towers_manifest("reference").as_dict()
        doc["stats"]["instructions"] = -1
        assert any("instructions" in p for p in validate_manifest(doc))
        doc = towers_manifest("reference").as_dict()
        doc["run"]["halt"] = "NOT_A_REASON"
        assert any("halt" in p for p in validate_manifest(doc))
        assert validate_manifest({"schema": "wrong/tag"})
        with pytest.raises(ManifestError):
            RunManifest.from_dict({"schema": "wrong/tag"})

    def test_host_section_excluded_from_canonical_forms(self):
        manifest = towers_manifest("reference")
        assert manifest.host.get("wall_seconds") is not None
        assert "wall_seconds" not in manifest.canonical_json()
        assert "host" not in json.loads(manifest.canonical_json())

    def test_schema_paths_are_stable_keys(self):
        doc = towers_manifest("trace").as_dict()
        paths = schema_paths(doc)
        assert "run.workload" in paths
        assert "stats.instructions" in paths
        assert paths == sorted(paths)
        # breakdown maps are leaves: opcode names must not leak in
        assert not any(p.startswith("stats.by_opcode.") for p in paths)


class TestManifestAggregation:
    NAMES = ("towers", "ackermann")

    def test_parallel_aggregate_byte_identical(self):
        serial = aggregate_manifests(collect_manifests(self.NAMES))
        parallel = aggregate_manifests(
            collect_manifests(self.NAMES, workers=2)
        )
        dump = lambda doc: json.dumps(doc, sort_keys=True)
        assert dump(serial) == dump(parallel)
        assert serial["count"] == len(self.NAMES)
        assert set(serial["fingerprints"]) == {
            f"{name}/reference" for name in self.NAMES
        }

    def test_report_renders_aggregates(self, tmp_path):
        aggregate = aggregate_manifests(collect_manifests(("towers",)))
        path = tmp_path / "eval.json"
        path.write_text(json.dumps(aggregate))
        manifests = load_manifests([str(path)])
        assert len(manifests) == 1
        text = render_report(manifests)
        assert "towers" in text and "instructions" in text
        markdown = render_report(manifests, fmt="markdown")
        assert markdown.startswith("|")


# -- event export ------------------------------------------------------------


CALL_PROGRAM = """
main:
    li    r10, 21        ; argument: caller's r10 = callee's r26
    callr r31, double
    nop
    mov   r26, r10       ; pass the result up
    ret
    nop
double:
    add   r26, r26, r26
    ret
    nop
"""

GOLDEN_TRACE = """\
{"engine": "reference", "event": "run_begin", "events": ["call", "return", "halt"], "schema": "risc1-repro/trace-event/v1", "seq": 0}
{"cycle": 1, "depth": 2, "event": "call", "seq": 1, "step": 1}
{"cycle": 4, "depth": 1, "event": "return", "seq": 2, "step": 4}
{"cycle": 7, "depth": 0, "event": "return", "seq": 3, "step": 7}
{"cycle": 9, "event": "halt", "reason": "RETURNED", "seq": 4, "step": 9}
{"cycle": 9, "event": "run_end", "halt": "RETURNED", "seq": 5, "step": 9}
"""


class TestEventExport:
    def run_traced(self, events) -> tuple[RiscMachine, str]:
        program = assemble(CALL_PROGRAM)
        machine = RiscMachine()
        program.load_into(machine.memory)
        sink = io.StringIO()
        with TraceEventExporter(machine, JsonlEventWriter(sink), events=events):
            machine.run(program.entry)
        return machine, sink.getvalue()

    def test_boundary_stream_matches_golden(self):
        machine, stream = self.run_traced(("call", "return", "halt"))
        assert machine.result == 42
        assert stream == GOLDEN_TRACE

    def test_stream_envelope_invariants(self):
        _, stream = self.run_traced(("step", "call", "return", "halt"))
        events = read_events(io.StringIO(stream))
        assert events[0]["schema"] == EVENT_SCHEMA
        assert all("schema" not in e for e in events[1:])
        assert [e["seq"] for e in events] == list(range(len(events)))
        assert events[0]["event"] == "run_begin"
        assert events[-1]["event"] == "run_end"
        steps = [e for e in events if e["event"] == "step"]
        assert len(steps) == 9  # one per retired instruction
        assert steps[0]["opcode"] == "ADD"  # li expands to add r10, r0, 21

    def test_exporter_rejects_unknown_events(self):
        machine = RiscMachine()
        with pytest.raises(ValueError, match="unknown exporter events"):
            TraceEventExporter(
                machine, JsonlEventWriter(io.StringIO()), events=("nope",)
            )

    def test_call_trace_adapter(self):
        machine, _ = self.run_traced(("halt",))
        events = events_from_call_trace(list(machine.call_trace))
        kinds = [e["event"] for e in events]
        # the initial entry into main is itself a +1 in the trace
        assert kinds == ["call", "call", "return", "return"]
        assert [e["depth"] for e in events] == [1, 2, 1, 0]

    def loaded_machine(self) -> tuple[RiscMachine, object]:
        program = assemble(CALL_PROGRAM)
        machine = RiscMachine()
        program.load_into(machine.memory)
        return machine, program

    @staticmethod
    def round_trip(events) -> list[dict]:
        sink = io.StringIO()
        assert JsonlEventWriter(sink).write_all(events) == len(events)
        back = read_events(io.StringIO(sink.getvalue()))
        assert back[0]["schema"] == EVENT_SCHEMA
        assert [e["seq"] for e in back] == list(range(len(events)))
        return back

    def test_trace_adapter(self):
        from repro.cpu.tracing import ExecutionTracer

        machine, program = self.loaded_machine()
        records = ExecutionTracer(machine).run(program.entry)
        back = self.round_trip(events_from_trace(records))
        assert [e["step"] for e in back] == list(range(9))
        # The adapter's steps are the live exporter's steps.
        _, stream = self.run_traced(("step",))
        live = [e for e in read_events(io.StringIO(stream)) if e["event"] == "step"]
        fields = ("event", "pc", "opcode", "taken_jump")
        assert [{k: e[k] for k in fields} for e in back] == [
            {k: e[k] for k in fields} for e in live
        ]

    def test_profile_adapter(self):
        from repro.cpu.profiler import Profiler

        machine, program = self.loaded_machine()
        profiles = Profiler(machine, dict(program.symbols)).run(program.entry)
        back = self.round_trip(events_from_profile(profiles))
        assert [e["event"] for e in back] == ["profile", "profile"]
        assert [(e["function"], e["start"], e["calls"]) for e in back] == [
            ("main", 0, 1), ("double", 24, 1),
        ]
        assert sum(e["instructions"] for e in back) == machine.stats.instructions
        assert sum(e["cycles"] for e in back) == machine.stats.cycles

    def test_injection_adapter(self):
        from repro.faults.injector import FaultInjector
        from repro.faults.models import FaultKind, FaultSpec, FaultTarget, FaultTrigger

        program = assemble(CALL_PROGRAM)
        machine = RiscMachine()
        program.load_into(machine.memory)
        spec = FaultSpec(
            target=FaultTarget.REGISTER, kind=FaultKind.BIT_FLIP,
            location=12, bits=(0,), trigger=FaultTrigger(at_cycle=3),
        )
        injector = FaultInjector(machine, [spec])
        injector.attach()
        machine.run(program.entry)
        injector.detach()
        events = events_from_injections(injector.events)
        assert len(events) == 1
        assert events[0]["event"] == "injection"
        assert events[0]["target"] == "register"
        assert events[0]["original"] != events[0]["mutated"]

    def test_schedule_adapter(self):
        from repro.multicore import run_scenario

        sim = run_scenario("timer_ticks", num_cores=2)
        events = events_from_schedule(sim.schedule)
        assert len(events) == len(sim.schedule)
        assert all(e["event"] == "slice" for e in events)
        # slices of the same core carry monotonically increasing starts,
        # and the instruction totals reconcile with the schedule summary
        total = sum(e["instructions"] for e in events)
        assert total == sum(executed for _, _, executed in sim.schedule)
        assert {e["core"] for e in events} == {0, 1}
