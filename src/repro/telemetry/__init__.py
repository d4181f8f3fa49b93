"""Unified observability layer for the RISC I reproduction.

The paper's whole argument is quantitative - instruction mixes, call
overhead, execution-time ratios - so every part of this repository that
*runs* something reports through one spine:

* :mod:`repro.telemetry.registry` - a typed metrics registry
  (:class:`Counter` / :class:`Gauge` / :class:`Histogram` /
  :class:`Timer`) with a near-zero-overhead no-op mode
  (:data:`NULL_REGISTRY`); the execution stack records into it only at
  run boundaries, never per instruction.
* :mod:`repro.telemetry.manifest` - :class:`RunManifest`, the canonical
  JSON provenance document of one simulation (workload, engine, seed,
  config, all counters, campaign fingerprint), with engine-independent
  ``shared`` fields, byte-stable serialisation, and a SHA-256
  :meth:`~RunManifest.fingerprint`.
* :mod:`repro.telemetry.events` - the JSONL structured-event schema
  unifying the tracer, profiler, fault injector and call-trace
  observers (:class:`TraceEventExporter`, ``events_from_*`` adapters).
* :mod:`repro.telemetry.report` - ``python -m repro.telemetry.report``
  renders manifests to text/Markdown comparison tables.
* :mod:`repro.telemetry.store` - :class:`~repro.telemetry.store.ManifestStore`,
  the content-addressed on-disk manifest store behind
  ``run_all --store``, and its key derivation
  (:func:`~repro.telemetry.store.manifest_key`).

See ``docs/OBSERVABILITY.md`` for the metrics catalog, the annotated
manifest schema, and the event taxonomy.  Schema stability is gated in
CI (``ci/check_manifest.py``).
"""

from repro.telemetry.events import (
    EVENT_KINDS,
    EVENT_SCHEMA,
    JsonlEventWriter,
    TraceEventExporter,
    events_from_call_trace,
    events_from_injections,
    events_from_profile,
    events_from_schedule,
    events_from_trace,
    read_events,
)
from repro.telemetry.manifest import (
    CAMPAIGN_LEAVES,
    CAMPAIGN_SCHEMA,
    EVALUATION_SCHEMA,
    MANIFEST_SCHEMA,
    ManifestError,
    RunManifest,
    aggregate_manifests,
    capture_manifest,
    schema_paths,
    validate_campaign_manifest,
    validate_manifest,
)
from repro.telemetry.registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
)

__all__ = [
    "CAMPAIGN_LEAVES",
    "CAMPAIGN_SCHEMA",
    "Counter",
    "DEFAULT_BUCKETS",
    "EVALUATION_SCHEMA",
    "EVENT_KINDS",
    "EVENT_SCHEMA",
    "Gauge",
    "Histogram",
    "JsonlEventWriter",
    "MANIFEST_SCHEMA",
    "ManifestError",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "RunManifest",
    "Timer",
    "TraceEventExporter",
    "aggregate_manifests",
    "capture_manifest",
    "events_from_call_trace",
    "events_from_injections",
    "events_from_profile",
    "events_from_schedule",
    "events_from_trace",
    "read_events",
    "schema_paths",
    "validate_campaign_manifest",
    "validate_manifest",
]
