"""Run manifests: one canonical JSON document per simulation.

A :class:`RunManifest` is the full provenance record of one machine run:
what was executed (workload, entry point, seed), on what configuration
(engine, window file, memory size, trap options), and what happened
(halt reason, result, the complete :class:`~repro.cpu.state.ExecutionStats`
counters, memory traffic, decode-cache behaviour, engine-internal
counters, and - for fault campaigns - the campaign fingerprint).

The document is split into three determinism classes:

``shared``
    Fields every execution engine must agree on bit-for-bit for the
    same (workload, seed, config): the ``run``, ``stats`` and
    ``memory`` sections.  :meth:`RunManifest.shared_json` serialises
    exactly these, and :meth:`RunManifest.fingerprint` hashes them -
    two runs are architecturally identical iff their fingerprints match.
``simulation``
    How the run was simulated: engine name, decode-cache counters,
    engine-internal detail.  Deterministic per engine, but *different*
    between engines (each backend decodes through a different path).
``host``
    Wall-clock seconds and similar host facts.  Never part of any
    canonical serialisation, so manifests aggregate byte-identically
    across worker pools and hosts.

Canonical JSON means ``json.dumps(..., sort_keys=True)`` with default
separators, so byte comparison of two canonical documents is exactly
structural equality.  The schema (field names and types) is gated in CI
by ``ci/check_manifest.py`` against ``ci/manifest_schema.json``; bump
:data:`MANIFEST_SCHEMA` when making an incompatible change.

See ``docs/OBSERVABILITY.md`` for the annotated schema.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from repro.cpu.state import ArchState

__all__ = [
    "MANIFEST_SCHEMA",
    "EVALUATION_SCHEMA",
    "CAMPAIGN_SCHEMA",
    "CAMPAIGN_LEAVES",
    "ManifestError",
    "RunManifest",
    "aggregate_manifests",
    "capture_manifest",
    "schema_paths",
    "validate_campaign_manifest",
]

#: Schema tag of a single-run manifest document.
MANIFEST_SCHEMA = "risc1-repro/run-manifest/v1"
#: Schema tag of an aggregated (multi-run) evaluation manifest.
EVALUATION_SCHEMA = "risc1-repro/evaluation-manifest/v1"
#: Schema tag of a fault-campaign manifest (v3: config, golden,
#: outcomes_by_target and summary; v2's shards/resume/events are gone).
CAMPAIGN_SCHEMA = "risc1-repro/campaign-manifest/v3"


class ManifestError(ValueError):
    """A manifest document failed schema validation."""


@dataclass
class RunManifest:
    """Provenance + measurement record of one simulation run."""

    #: workload name (benchmark name, "asm", or caller-supplied label)
    workload: str
    #: execution backend that produced the run ("reference"/"trace")
    engine: str
    #: halt reason name (:class:`~repro.cpu.state.HaltReason`), or "RUNNING"
    halt: str
    #: entry procedure's return value (unsigned 32-bit view)
    result: int
    #: machine configuration (windows, memory size, trap options)
    config: dict = field(default_factory=dict)
    #: full :meth:`~repro.cpu.state.ExecutionStats.as_dict` counters
    stats: dict = field(default_factory=dict)
    #: memory-traffic counters + console byte count
    memory: dict = field(default_factory=dict)
    #: :meth:`~repro.isa.decode.CachingDecoder.cache_info` counters
    decode_cache: dict = field(default_factory=dict)
    #: engine-internal counters (:meth:`ExecutionEngine.telemetry_snapshot`)
    engine_detail: dict = field(default_factory=dict)
    #: RNG seed that determined the run, when one exists
    seed: int | None = None
    #: entry PC the run started from
    entry: int = 0
    #: campaign linkage (seed, injections, fingerprint), when applicable
    campaign: dict | None = None
    #: host facts (wall_seconds, compile_cache and trace_codegen
    #: counters); excluded from every canonical form
    host: dict = field(default_factory=dict)

    # -- serialisation -------------------------------------------------------

    def shared_dict(self) -> dict:
        """The engine-independent portion of the document."""
        return {
            "schema": MANIFEST_SCHEMA,
            "run": {
                "workload": self.workload,
                "seed": self.seed,
                "entry": self.entry,
                "config": dict(self.config),
                "result": self.result,
                "halt": self.halt,
            },
            "stats": dict(self.stats),
            "memory": dict(self.memory),
            "campaign": dict(self.campaign) if self.campaign else None,
        }

    def as_dict(self, *, include_host: bool = True) -> dict:
        """The full document (optionally with the ``host`` section)."""
        doc = self.shared_dict()
        doc["simulation"] = {
            "engine": self.engine,
            "decode_cache": dict(self.decode_cache),
            "engine_detail": dict(self.engine_detail),
        }
        if include_host:
            doc["host"] = dict(self.host)
        return doc

    def shared_json(self) -> str:
        """Canonical JSON of the shared portion (engine-independent)."""
        return json.dumps(self.shared_dict(), sort_keys=True)

    def canonical_json(self) -> str:
        """Canonical JSON of everything deterministic (no ``host``)."""
        return json.dumps(self.as_dict(include_host=False), sort_keys=True)

    def to_json(self, *, indent: int | None = 2) -> str:
        """Pretty JSON of the full document, for files humans read."""
        return json.dumps(self.as_dict(), sort_keys=True, indent=indent)

    def fingerprint(self) -> str:
        """SHA-256 over :meth:`shared_json`.

        Equal fingerprints <=> architecturally identical runs, whatever
        engine (or worker pool) simulated them.
        """
        return hashlib.sha256(self.shared_json().encode()).hexdigest()

    # -- parsing / validation ------------------------------------------------

    @classmethod
    def from_dict(cls, doc: dict) -> "RunManifest":
        """Rebuild a manifest from its document form (validates first)."""
        problems = validate_manifest(doc)
        if problems:
            raise ManifestError("; ".join(problems))
        run = doc["run"]
        simulation = doc.get("simulation", {})
        return cls(
            workload=run["workload"],
            engine=simulation.get("engine", ""),
            halt=run["halt"],
            result=run["result"],
            config=dict(run["config"]),
            stats=dict(doc["stats"]),
            memory=dict(doc["memory"]),
            decode_cache=dict(simulation.get("decode_cache", {})),
            engine_detail=dict(simulation.get("engine_detail", {})),
            seed=run["seed"],
            entry=run["entry"],
            campaign=dict(doc["campaign"]) if doc.get("campaign") else None,
            host=dict(doc.get("host", {})),
        )

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        """Parse and validate a JSON manifest document."""
        return cls.from_dict(json.loads(text))


#: Required ``stats`` counters and their type (all non-negative ints).
_STATS_COUNTERS = (
    "instructions", "cycles", "calls", "returns", "taken_jumps",
    "delay_slots", "delay_slot_nops", "window_overflows",
    "window_underflows", "max_call_depth", "traps",
)
#: Required ``memory`` counters.
_MEMORY_COUNTERS = ("inst_reads", "data_reads", "data_writes", "console_bytes")
#: Halt values a finished run may report.
_HALT_NAMES = frozenset({
    "RETURNED", "STEP_LIMIT", "EXPLICIT", "TRAPPED",
    "CYCLE_LIMIT", "WALL_CLOCK_LIMIT", "RUNNING",
})


def validate_manifest(doc: Any) -> list[str]:
    """Check *doc* against the run-manifest schema; returns problems.

    An empty list means the document is valid.  The check is structural
    (required keys, value types, counter non-negativity), not semantic.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"manifest must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != MANIFEST_SCHEMA:
        problems.append(
            f"schema must be {MANIFEST_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    run = doc.get("run")
    if not isinstance(run, dict):
        problems.append("missing 'run' section")
    else:
        if not isinstance(run.get("workload"), str) or not run.get("workload"):
            problems.append("run.workload must be a non-empty string")
        if not isinstance(run.get("entry"), int):
            problems.append("run.entry must be an integer")
        if run.get("seed") is not None and not isinstance(run["seed"], int):
            problems.append("run.seed must be an integer or null")
        if not isinstance(run.get("config"), dict):
            problems.append("run.config must be an object")
        if not isinstance(run.get("result"), int):
            problems.append("run.result must be an integer")
        if run.get("halt") not in _HALT_NAMES:
            problems.append(f"run.halt must be one of {sorted(_HALT_NAMES)}")
    stats = doc.get("stats")
    if not isinstance(stats, dict):
        problems.append("missing 'stats' section")
    else:
        for name in _STATS_COUNTERS:
            value = stats.get(name)
            if not isinstance(value, int) or value < 0:
                problems.append(f"stats.{name} must be a non-negative integer")
        for name in ("by_category", "by_opcode", "by_trap_cause"):
            if not isinstance(stats.get(name), dict):
                problems.append(f"stats.{name} must be an object")
    memory = doc.get("memory")
    if not isinstance(memory, dict):
        problems.append("missing 'memory' section")
    else:
        for name in _MEMORY_COUNTERS:
            value = memory.get(name)
            if not isinstance(value, int) or value < 0:
                problems.append(f"memory.{name} must be a non-negative integer")
    campaign = doc.get("campaign")
    if campaign is not None and not isinstance(campaign, dict):
        problems.append("campaign must be an object or null")
    simulation = doc.get("simulation")
    if simulation is not None:
        if not isinstance(simulation, dict):
            problems.append("simulation must be an object")
        else:
            if not isinstance(simulation.get("engine"), str):
                problems.append("simulation.engine must be a string")
            for name in ("decode_cache", "engine_detail"):
                if not isinstance(simulation.get(name), dict):
                    problems.append(f"simulation.{name} must be an object")
    host = doc.get("host")
    if host is not None and not isinstance(host, dict):
        problems.append("host must be an object")
    return problems


#: Campaign-manifest sections whose *keys* are data, not schema
#: (benchmark names, fault-target names).
CAMPAIGN_LEAVES = frozenset({"config", "golden", "outcomes_by_target"})
#: Required fields of the campaign ``summary`` section (int counters
#: checked separately).
_SUMMARY_COUNTERS = (
    "masked", "detected", "silent_corruption", "timeout", "crash",
    "infra_error",
)


def validate_campaign_manifest(doc: Any) -> list[str]:
    """Check *doc* against the campaign-manifest (v3) schema.

    Returns a list of problems (empty = valid).  Structural like
    :func:`validate_manifest`: required sections, value types and
    counter non-negativity.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"campaign manifest must be an object, got {type(doc).__name__}"]
    if doc.get("schema") != CAMPAIGN_SCHEMA:
        problems.append(
            f"schema must be {CAMPAIGN_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    if not isinstance(doc.get("config"), dict):
        problems.append("missing 'config' section")
    golden = doc.get("golden")
    if not isinstance(golden, dict):
        problems.append("missing 'golden' section")
    else:
        for name, run in golden.items():
            if not isinstance(run, dict):
                problems.append(f"golden.{name} must be an object")
                continue
            for key in ("result", "instructions", "cycles"):
                if not isinstance(run.get(key), int):
                    problems.append(f"golden.{name}.{key} must be an integer")
    outcomes = doc.get("outcomes_by_target")
    if not isinstance(outcomes, dict):
        problems.append("missing 'outcomes_by_target' section")
    else:
        for target, counts in outcomes.items():
            if not isinstance(counts, dict):
                problems.append(f"outcomes_by_target.{target} must be an object")
                continue
            for outcome, value in counts.items():
                if not isinstance(value, int) or value < 0:
                    problems.append(
                        f"outcomes_by_target.{target}.{outcome} "
                        "must be a non-negative integer"
                    )
    summary = doc.get("summary")
    if not isinstance(summary, dict):
        problems.append("missing 'summary' section")
    else:
        if summary.get("seed") is not None and not isinstance(summary["seed"], int):
            problems.append("summary.seed must be an integer or null")
        if not isinstance(summary.get("injections"), int):
            problems.append("summary.injections must be an integer")
        if not isinstance(summary.get("benchmarks"), list):
            problems.append("summary.benchmarks must be a list")
        for name in _SUMMARY_COUNTERS:
            value = summary.get(name)
            if not isinstance(value, int) or value < 0:
                problems.append(f"summary.{name} must be a non-negative integer")
        fingerprint = summary.get("fingerprint")
        if not isinstance(fingerprint, str) or len(fingerprint) != 64:
            problems.append("summary.fingerprint must be a 64-char hex digest")
    return problems


def capture_manifest(
    machine: "ArchState",
    *,
    workload: str = "unnamed",
    seed: int | None = None,
    entry: int = 0,
    campaign: dict | None = None,
    wall_seconds: float | None = None,
) -> RunManifest:
    """Build the :class:`RunManifest` of a (finished) machine run.

    Reads only public accessors (:meth:`ArchState.counters_snapshot`,
    :meth:`ArchState.decode_cache_stats`, the engine's
    ``telemetry_snapshot``), so anything the manifest reports is equally
    available to ad-hoc tooling.
    """
    counters = machine.counters_snapshot()
    engine = getattr(machine, "engine", None)
    engine_name = getattr(engine, "name", "none")
    engine_detail: dict = {}
    snapshot = getattr(engine, "telemetry_snapshot", None)
    if callable(snapshot):
        engine_detail = snapshot()
    host: dict = {}
    if wall_seconds is None:
        wall_seconds = getattr(machine, "last_run_wall_seconds", None)
    if wall_seconds is not None:
        host["wall_seconds"] = wall_seconds
    # Compile-cache counters make warm-process reuse (a process running
    # its Nth workload) measurable per run.  They describe the host
    # process, not the simulated run, so they live in the host section:
    # two engines - or a cold and a warm worker - still agree on every
    # canonical byte.
    from repro.cpu.traceengine import trace_codegen_info
    from repro.workloads.cache import compile_cache_info

    host["compile_cache"] = compile_cache_info()
    # Trace codegen cost and factory-cache behaviour are process facts
    # too; engine_detail holds only per-machine counters, which agree
    # across workers.
    host["trace_codegen"] = trace_codegen_info()
    return RunManifest(
        workload=workload,
        engine=engine_name,
        halt=machine.halted.name if machine.halted is not None else "RUNNING",
        result=machine.result,
        config={
            "num_windows": machine.num_windows,
            "use_windows": machine.use_windows,
            "memory_size": machine.memory.size,
            "strict_traps": machine.strict_traps,
            "trap_on_overflow": machine.trap_on_overflow,
            "record_call_trace": machine.record_call_trace,
        },
        stats=counters["stats"],
        memory=counters["memory"],
        decode_cache=counters["decode_cache"],
        engine_detail=engine_detail,
        seed=seed,
        entry=entry,
        campaign=campaign,
        host=host,
    )


def aggregate_manifests(manifests: list[RunManifest]) -> dict:
    """Combine per-run manifests into one evaluation-manifest document.

    Runs are ordered by ``(workload, engine)`` and serialised without
    their ``host`` sections, so the aggregate of a worker pool is
    byte-identical to the serial aggregate: parallelism can only change
    wall-clock, never the document.
    """
    ordered = sorted(manifests, key=lambda m: (m.workload, m.engine))
    return {
        "schema": EVALUATION_SCHEMA,
        "runs": [m.as_dict(include_host=False) for m in ordered],
        "count": len(ordered),
        "fingerprints": {
            f"{m.workload}/{m.engine}": m.fingerprint() for m in ordered
        },
    }


#: Run-manifest sections whose *keys* are data, not schema.
_RUN_MANIFEST_LEAVES = frozenset({
    "stats.by_category", "stats.by_opcode", "stats.by_trap_cause",
    "simulation.engine_detail", "run.config", "campaign", "host",
})


def schema_paths(
    doc: Any, prefix: str = "", leaves: frozenset[str] | None = None
) -> list[str]:
    """Sorted key paths of *doc* (``run.config.num_windows``, ...).

    Dict *values* under the variable-content sections (opcode counters,
    engine detail) are not schema, so recursion stops at the *leaves*
    paths: their presence is schema, their keys are data.  The default
    leaf set fits run manifests (``stats.by_*``,
    ``simulation.engine_detail``, ``run.config``, ``campaign``,
    ``host``); pass :data:`CAMPAIGN_LEAVES` for campaign manifests,
    whose data-keyed sections are benchmark names, fault targets, and
    event kinds.  Used by ``ci/check_manifest.py`` to pin schema
    stability.
    """
    if leaves is None:
        leaves = _RUN_MANIFEST_LEAVES
    paths: list[str] = []
    if isinstance(doc, dict):
        for key, value in doc.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            paths.append(path)
            if path not in leaves:
                paths.extend(schema_paths(value, path, leaves))
    return sorted(paths)
