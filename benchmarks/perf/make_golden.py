"""Regenerate ``golden.json``, the outputs every benchmark job is checked against.

Usage (from the repository root)::

    PYTHONPATH=src python -m benchmarks.perf.make_golden

One process, about 50 s.  It records, for each of the 11 paper
workloads run on the reference oracle (the first scalar tier), the
signed result, instruction and cycle counts and run-manifest
fingerprint; the SHA-256 of each report section the report workload
renders; and the fingerprint of each campaign the campaign workload
runs.  Regenerate only when the simulated behaviour is meant to change:
a speed-only change must leave this file byte-identical.
"""

from __future__ import annotations

import hashlib
import json

from benchmarks.perf.workloads import (
    CAMPAIGN_INJECTIONS,
    CAMPAIGN_SEEDS,
    GOLDEN_PATH,
    report_sections,
)


def make_golden() -> dict:
    from repro.cc import compile_for_risc
    from repro.common.bitops import to_signed
    from repro.cpu.engines import engine_names
    from repro.faults.campaign import CampaignConfig, run_campaign
    from repro.workloads import BENCHMARKS

    oracle = engine_names(scalar_only=True)[0]
    programs = {}
    for bench in BENCHMARKS:
        compiled = compile_for_risc(bench.source)
        machine = compiled.make_machine(engine=oracle)
        machine.run(compiled.program.entry)
        manifest = machine.run_manifest(
            workload=bench.name, entry=compiled.program.entry
        )
        programs[bench.name] = {
            "result": to_signed(machine.result),
            "instructions": machine.stats.instructions,
            "cycles": machine.stats.cycles,
            "fingerprint": manifest.fingerprint(),
        }
    report = {
        key: hashlib.sha256(render().encode()).hexdigest()
        for key, render in report_sections().items()
    }
    campaign = {
        str(seed): run_campaign(
            CampaignConfig(seed=seed, injections=CAMPAIGN_INJECTIONS)
        ).fingerprint()
        for seed in CAMPAIGN_SEEDS
    }
    return {"programs": programs, "report": report, "campaign": campaign}


def main() -> None:
    GOLDEN_PATH.write_text(json.dumps(make_golden(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
