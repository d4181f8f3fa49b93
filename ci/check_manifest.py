"""Gate CI on run-manifest schema stability and cross-engine identity.

Usage::

    python ci/check_manifest.py [--write]

Runs the ``towers`` benchmark on every execution engine, captures a
:class:`~repro.telemetry.manifest.RunManifest` from each, and checks:

1. every manifest passes :func:`~repro.telemetry.manifest.validate_manifest`;
2. the **shared** sections (``run``/``stats``/``memory``/``campaign``)
   serialize byte-identically across all engines - the manifest's core
   determinism contract;
3. the manifest's key structure (:func:`~repro.telemetry.manifest.schema_paths`)
   matches the committed ``ci/manifest_schema.json``, so schema changes
   are deliberate, reviewed diffs rather than silent drift.

It also runs a small fault campaign and applies the same two gates to
the **campaign manifest** (v3):
:func:`~repro.telemetry.manifest.validate_campaign_manifest` must pass
and its key structure must match the schema file's ``campaign_paths``.

A third document gets the same treatment: the **composed multicore
manifest** (``risc1-repro/multicore-manifest/v1``, from
``MulticoreSimulator.manifest()``).  A 2-core scenario runs on two SMP
tiers, the composed fingerprints (which exclude the engine-dependent
``simulation`` section) must agree, and the key structure must match
the schema file's ``multicore_paths``.  Per-core sections live in
lists, which ``schema_paths`` deliberately does not flatten - their
inner shape is already pinned by the run-manifest ``paths``.

``--write`` regenerates ``ci/manifest_schema.json`` from the reference
engine's manifest, the campaign manifest, and the multicore manifest;
commit the result alongside the code change that motivated it.
"""

from __future__ import annotations

import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

SCHEMA_PATH = os.path.join(REPO, "ci", "manifest_schema.json")
WORKLOAD = "towers"
from repro.cpu.engines import engine_names  # noqa: E402

ENGINES = engine_names()


def capture(engine: str):
    """Run the gate workload on *engine* and capture its manifest."""
    from repro.workloads import benchmark
    from repro.workloads.cache import compile_cached

    compiled = compile_cached(benchmark(WORKLOAD).source)
    machine = compiled.make_machine(engine=engine)
    machine.run(compiled.program.entry)
    return machine.run_manifest(workload=WORKLOAD, entry=compiled.program.entry)


def capture_campaign() -> dict:
    """A small fault campaign's manifest document.

    Tiny on purpose: the schema shape does not depend on trial count.
    """
    from repro.faults.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(seed=7, injections=6, benchmarks=(WORKLOAD,))
    return run_campaign(config).manifest()


def capture_multicore() -> dict[str, dict]:
    """Composed multicore manifests from two SMP tiers (2-core run).

    Small on purpose: ``timer_ticks`` exercises the whole composition
    (per-core sections, schedule, device counters, interrupt delivery)
    in a fraction of a second per tier.
    """
    from repro.multicore import run_scenario

    return {
        engine: run_scenario(
            "timer_ticks", num_cores=2, engine=engine
        ).manifest(workload="timer_ticks")
        for engine in ("reference", "fast")
    }


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    from repro.telemetry.manifest import (
        CAMPAIGN_LEAVES,
        schema_paths,
        validate_campaign_manifest,
        validate_manifest,
    )

    manifests = {engine: capture(engine) for engine in ENGINES}

    failures: list[str] = []
    for engine, manifest in manifests.items():
        problems = validate_manifest(manifest.as_dict())
        for problem in problems:
            failures.append(f"{engine}: invalid manifest: {problem}")

    campaign_doc = capture_campaign()
    for problem in validate_campaign_manifest(campaign_doc):
        failures.append(f"campaign: invalid manifest: {problem}")

    multicore_docs = capture_multicore()
    multicore_doc = multicore_docs["reference"]
    from repro.multicore import MULTICORE_SCHEMA

    if multicore_doc.get("schema") != MULTICORE_SCHEMA:
        failures.append(
            f"multicore: unexpected schema tag {multicore_doc.get('schema')!r}"
        )
    composed = {e: d["fingerprint"] for e, d in multicore_docs.items()}
    if len(set(composed.values())) != 1:
        failures.append(
            "multicore: composed fingerprints differ across SMP tiers: "
            + ", ".join(f"{e}={fp[:16]}" for e, fp in sorted(composed.items()))
        )

    shared = {engine: m.shared_json() for engine, m in manifests.items()}
    reference = shared["reference"]
    for engine in ENGINES[1:]:
        if shared[engine] != reference:
            failures.append(
                f"{engine}: shared manifest sections differ from the "
                f"reference engine's (fingerprints "
                f"{manifests[engine].fingerprint()[:16]} vs "
                f"{manifests['reference'].fingerprint()[:16]})"
            )

    paths = schema_paths(manifests["reference"].as_dict())
    campaign_paths = schema_paths(campaign_doc, leaves=CAMPAIGN_LEAVES)
    # Every dict key of the multicore document is schema (the data-keyed
    # shapes all live inside lists, where schema_paths stops anyway).
    multicore_paths = schema_paths(multicore_doc, leaves=frozenset())
    if "--write" in args:
        with open(SCHEMA_PATH, "w") as handle:
            json.dump(
                {
                    "workload": WORKLOAD,
                    "paths": paths,
                    "campaign_paths": campaign_paths,
                    "multicore_paths": multicore_paths,
                },
                handle, indent=2,
            )
            handle.write("\n")
        print(
            f"wrote {SCHEMA_PATH}: {len(paths)} run + "
            f"{len(campaign_paths)} campaign + "
            f"{len(multicore_paths)} multicore schema path(s)"
        )
        return 0

    try:
        with open(SCHEMA_PATH) as handle:
            schema_doc = json.load(handle)
        committed = schema_doc["paths"]
        committed_campaign = schema_doc.get("campaign_paths", [])
        committed_multicore = schema_doc.get("multicore_paths", [])
    except FileNotFoundError:
        failures.append(
            f"{SCHEMA_PATH} missing - run `python ci/check_manifest.py --write`"
        )
        committed = paths
        committed_campaign = campaign_paths
        committed_multicore = multicore_paths
    drift = False
    for label, current, pinned in (
        ("manifest", paths, committed),
        ("campaign-manifest", campaign_paths, committed_campaign),
        ("multicore-manifest", multicore_paths, committed_multicore),
    ):
        added = sorted(set(current) - set(pinned))
        removed = sorted(set(pinned) - set(current))
        for path in added:
            failures.append(f"schema drift: new {label} key {path!r}")
        for path in removed:
            failures.append(f"schema drift: {label} key {path!r} disappeared")
        drift = drift or bool(added or removed)
    if drift:
        failures.append(
            "schema changed - if intentional, run "
            "`python ci/check_manifest.py --write` and commit the diff"
        )

    if failures:
        print("manifest gate FAILED:")
        for line in failures:
            print("  " + line)
        return 1
    print(
        f"ok: {WORKLOAD} manifest valid on {len(ENGINES)} engine(s), shared "
        f"fingerprint {manifests['reference'].fingerprint()[:16]}, "
        f"{len(paths)} run + {len(campaign_paths)} campaign + "
        f"{len(multicore_paths)} multicore schema path(s) stable"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
