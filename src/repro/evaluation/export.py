"""Export measured results as JSON for offline analysis or plotting.

``python -m repro.evaluation.export out.json [--fast]`` writes the full
benchmark matrix (per benchmark x machine: code bytes, instructions,
cycles, simulated time, memory references, window overflows, and - for
RISC rows - decode-cache hit/miss/eviction counters plus the ``engine``
tier whose decoder produced them; baseline rows have ``engine: null``).
Every field except the decode counters is identical on every tier.

``python -m repro.evaluation.export out.json --campaign [--injections N]
[--seed S]`` instead writes the R1 fault-campaign report: the
detection / silent-corruption / crash rate summary plus one record per
injection.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict

from repro.evaluation.common import FAST_SUBSET, run_benchmark_matrix


def matrix_as_records(names: tuple[str, ...] | None = None) -> list[dict]:
    """The benchmark matrix as a list of plain dictionaries."""
    records = run_benchmark_matrix(names)
    rows = []
    for (__, ___), record in sorted(records.items()):
        row = asdict(record)
        row["time_ms"] = record.time_ms
        row.pop("call_trace", None)  # large and derivable; omit from export
        rows.append(row)
    return rows


def export_json(path: str, names: tuple[str, ...] | None = None) -> int:
    """Write the matrix to *path*; returns the number of records."""
    rows = matrix_as_records(names)
    with open(path, "w") as handle:
        json.dump({"schema": "risc1-repro/benchmark-matrix/v1", "records": rows},
                  handle, indent=2)
    return len(rows)


def campaign_as_records(
    names: tuple[str, ...] | None = None,
    *,
    injections: int = 1000,
    seed: int | None = None,
) -> tuple[dict, list[dict]]:
    """The R1 fault campaign as (summary, per-injection records)."""
    from repro.evaluation.r1_fault_campaign import DEFAULT_SEED, run_report

    report = run_report(
        names, injections=injections,
        seed=DEFAULT_SEED if seed is None else seed,
    )
    return report.summary(), report.as_records()


def export_campaign_json(
    path: str,
    names: tuple[str, ...] | None = None,
    *,
    injections: int = 1000,
    seed: int | None = None,
) -> int:
    """Write the fault-campaign report to *path*; returns record count."""
    summary, rows = campaign_as_records(names, injections=injections, seed=seed)
    with open(path, "w") as handle:
        json.dump({"schema": "risc1-repro/fault-campaign/v1",
                   "summary": summary, "records": rows},
                  handle, indent=2)
    return len(rows)


def _int_flag(args: list[str], flag: str, default: int) -> int:
    if flag in args:
        return int(args[args.index(flag) + 1])
    return default


def main(argv: list[str] | None = None) -> None:
    args = argv if argv is not None else sys.argv[1:]
    if not args or args[0].startswith("-"):
        print("usage: python -m repro.evaluation.export OUT.json "
              "[--fast] [--campaign] [--injections N] [--seed S]")
        raise SystemExit(2)
    if "--campaign" in args:
        injections = _int_flag(args, "--injections", 1000)
        seed = _int_flag(args, "--seed", -1)
        count = export_campaign_json(
            args[0], injections=injections,
            seed=None if seed < 0 else seed,
        )
        print(f"wrote {count} campaign records to {args[0]}")
        return
    names = FAST_SUBSET if "--fast" in args else None
    count = export_json(args[0], names)
    print(f"wrote {count} records to {args[0]}")


if __name__ == "__main__":
    main()
