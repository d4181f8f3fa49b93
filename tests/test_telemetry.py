"""The observability layer: run manifests and observer events.

Three contracts under test:

* **manifest determinism** - shared sections byte-identical and
  same-fingerprint across all three engines, round-trippable through
  JSON, schema-validated, and worker-count independent when aggregated;
* **boundary events** - call and return reach observer-bus subscribers
  in order, with the same step, cycle and depth on every tier, and the
  bus accepts no other boundary event names;
* **run wall clock** - each ``run()`` records its own host time in
  ``last_run_wall_seconds``, the one fact it keeps at the run boundary.
"""

import json
import time

import pytest

from repro import RiscMachine, assemble
from repro.cpu.engines import engine_names
from repro.cpu.equivalence import state_digest
from repro.cpu.observers import ObserverBus
from repro.evaluation.run_all import collect_manifests
from repro.telemetry import (
    RunManifest,
    aggregate_manifests,
    validate_manifest,
)
from repro.telemetry.manifest import MANIFEST_SCHEMA, ManifestError, schema_paths
from repro.telemetry.report import load_manifests, render_report
from repro.workloads import benchmark
from repro.workloads.cache import compile_cached

ENGINES = engine_names()


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
        trace = towers_manifest("trace")
        assert reference.engine_detail == {}
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

#: (event, step, cycle, depth) for one CALL_PROGRAM run.  main's own
#: entry is not a bus call; the last return leaves main.
BOUNDARY_EVENTS = [
    ("call", 1, 1, 2),
    ("return", 4, 4, 1),
    ("return", 7, 7, 0),
]


@pytest.mark.parametrize("engine", ENGINES)
def test_boundary_events_reach_subscribers_in_order(engine):
    program = assemble(CALL_PROGRAM)
    machine = RiscMachine(engine=engine)
    program.load_into(machine.memory)
    seen = []

    def record(kind):
        def on_event(machine, depth):
            stats = machine.stats
            seen.append((kind, stats.instructions, stats.cycles, depth))
        return on_event

    for kind in ("call", "return"):
        machine.observers.subscribe(kind, record(kind))
    machine.run(program.entry)
    assert machine.result == 42
    assert seen == BOUNDARY_EVENTS


@pytest.mark.parametrize("event", ["mem_access", "trap", "halt", "no_such_event"])
def test_subscribe_rejects_events_the_bus_does_not_emit(event):
    """Traps and halts are read from the machine after a run, data
    accesses from its memory stats; subscribing to them is an error,
    not a silent no-op."""
    bus = ObserverBus()
    with pytest.raises(ValueError, match="unknown observer event"):
        bus.subscribe(event, lambda *args: None)
    assert bus.observer_count() == 0
    assert not bus.step_observed


@pytest.mark.parametrize("engine", ENGINES)
def test_each_run_records_its_own_wall_clock(engine):
    compiled = compile_cached(benchmark("towers").source)
    machine = compiled.make_machine(engine=engine)
    assert machine.last_run_wall_seconds is None
    machine.run(compiled.program.entry)
    assert machine.last_run_wall_seconds > 0
    # A short second run replaces the long first one's time: the value
    # lies within the host time measured around the call.
    started = time.perf_counter()
    machine.run(compiled.program.entry, max_steps=10)
    elapsed = time.perf_counter() - started
    assert machine.halted is not None
    assert 0 < machine.last_run_wall_seconds <= elapsed


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
