"""Unified observability layer for the RISC I reproduction.

The paper's whole argument is quantitative - instruction mixes, call
overhead, execution-time ratios - so every part of this repository that
*runs* something reports through one spine:

* :mod:`repro.telemetry.manifest` - :class:`RunManifest`, the canonical
  JSON provenance document of one simulation (workload, engine, seed,
  config, all counters, campaign fingerprint), with engine-independent
  ``shared`` fields, byte-stable serialisation, and a SHA-256
  :meth:`~RunManifest.fingerprint`.
* :mod:`repro.telemetry.report` - ``python -m repro.telemetry.report``
  renders manifests to text/Markdown comparison tables.

See ``docs/OBSERVABILITY.md`` for the metrics catalog and the annotated
manifest schema.  Schema stability is gated in CI
(``ci/check_manifest.py``).
"""

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

__all__ = [
    "CAMPAIGN_LEAVES",
    "CAMPAIGN_SCHEMA",
    "EVALUATION_SCHEMA",
    "MANIFEST_SCHEMA",
    "ManifestError",
    "RunManifest",
    "aggregate_manifests",
    "capture_manifest",
    "schema_paths",
    "validate_campaign_manifest",
    "validate_manifest",
]
