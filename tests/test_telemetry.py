"""The observability layer: registry, run manifests, observer events.

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
* **boundary events** - call, return and halt reach observer-bus
  subscribers in order, with the same step, cycle and depth on every
  tier.
"""

import json

import pytest

from repro import RiscMachine, assemble
from repro.cpu.engines import engine_names
from repro.cpu.equivalence import state_digest
from repro.evaluation.run_all import collect_manifests
from repro.telemetry import (
    MetricsRegistry,
    NULL_REGISTRY,
    RunManifest,
    aggregate_manifests,
    validate_manifest,
)
from repro.telemetry.manifest import MANIFEST_SCHEMA, ManifestError, schema_paths
from repro.telemetry.registry import _NULL_INSTRUMENT
from repro.telemetry.report import load_manifests, render_report
from repro.workloads import benchmark
from repro.workloads.cache import compile_cached

ENGINES = engine_names()


# -- registry ----------------------------------------------------------------


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.histogram("h") is registry.histogram("h")

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.histogram("x")

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("c")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42
        with pytest.raises(ValueError, match="cannot decrease"):
            counter.inc(-1)

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

    @pytest.mark.parametrize("workers", (2, 4))
    def test_parallel_aggregate_byte_identical(self, workers):
        serial = aggregate_manifests(collect_manifests(self.NAMES))
        parallel = aggregate_manifests(
            collect_manifests(self.NAMES, workers=workers)
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


# -- boundary events ---------------------------------------------------------


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

#: (event, step, cycle, depth or halt reason) for one CALL_PROGRAM run.
#: main's own entry is not a bus call; the last return leaves main.
BOUNDARY_EVENTS = [
    ("call", 1, 1, 2),
    ("return", 4, 4, 1),
    ("return", 7, 7, 0),
    ("halt", 9, 9, "RETURNED"),
]


@pytest.mark.parametrize("engine", ENGINES)
def test_boundary_events_reach_subscribers_in_order(engine):
    program = assemble(CALL_PROGRAM)
    machine = RiscMachine(engine=engine)
    program.load_into(machine.memory)
    seen = []

    def record(kind):
        def on_event(machine, detail):
            stats = machine.stats
            detail = getattr(detail, "name", detail)  # halt: a HaltReason
            seen.append((kind, stats.instructions, stats.cycles, detail))
        return on_event

    for kind in ("call", "return", "halt"):
        machine.observers.subscribe(kind, record(kind))
    machine.run(program.entry)
    assert machine.result == 42
    assert seen == BOUNDARY_EVENTS


@pytest.mark.parametrize("engine", ENGINES)
def test_boundary_events_see_reference_stats_under_window_traps(engine):
    """At 4 windows towers spills and refills; every call and return
    observer still reads the oracle's stats and pc, and the run ends in
    the oracle's state."""

    def observed_run(engine):
        compiled = compile_cached(benchmark("towers").source)
        machine = compiled.make_machine(engine=engine, num_windows=4)
        seen = []

        def record(machine, depth):
            stats = machine.stats
            seen.append((depth, machine.pc, machine.npc, machine.lpc,
                         stats.instructions, stats.cycles, stats.calls,
                         stats.returns, stats.taken_jumps,
                         machine.memory.stats.inst_reads))

        machine.observers.subscribe("call", record)
        machine.observers.subscribe("return", record)
        machine.run(compiled.program.entry)
        return seen, state_digest(machine)

    seen, digest = observed_run(engine)
    oracle_seen, oracle_digest = observed_run("reference")
    assert digest["stats"]["window_overflows"] > 0
    assert seen == oracle_seen
    assert digest == oracle_digest
