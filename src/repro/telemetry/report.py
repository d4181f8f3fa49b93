"""Render run manifests as text or Markdown tables.

CLI::

    python -m repro.telemetry.report MANIFEST.json [MORE.json ...]
        [--format text|markdown|json] [--section run|stats|memory|simulation]

Accepts both single-run manifests (``risc1-repro/run-manifest/v1``) and
aggregated evaluation manifests (``risc1-repro/evaluation-manifest/v1``,
whose ``runs`` are expanded); one table column per run.  ``--format
json`` re-emits the parsed runs as one canonical JSON array (a cheap
way to normalise / concatenate manifest files).

Exit status: 0 on success, 2 on unreadable or invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.telemetry.manifest import (
    EVALUATION_SCHEMA,
    ManifestError,
    RunManifest,
)

__all__ = ["load_manifests", "render_report", "main"]

#: Row layout per section: (label, getter over RunManifest).
_SECTIONS: dict = {
    "run": [
        ("workload", lambda m: m.workload),
        ("engine", lambda m: m.engine),
        ("seed", lambda m: "-" if m.seed is None else m.seed),
        ("halt", lambda m: m.halt),
        ("result", lambda m: m.result),
        ("windows", lambda m: m.config.get("num_windows", "-")),
        ("fingerprint", lambda m: m.fingerprint()[:16]),
    ],
    "stats": [
        ("instructions", lambda m: m.stats.get("instructions", 0)),
        ("cycles", lambda m: m.stats.get("cycles", 0)),
        ("calls", lambda m: m.stats.get("calls", 0)),
        ("returns", lambda m: m.stats.get("returns", 0)),
        ("taken jumps", lambda m: m.stats.get("taken_jumps", 0)),
        ("delay slots", lambda m: m.stats.get("delay_slots", 0)),
        ("slot nops", lambda m: m.stats.get("delay_slot_nops", 0)),
        ("window overflows", lambda m: m.stats.get("window_overflows", 0)),
        ("window underflows", lambda m: m.stats.get("window_underflows", 0)),
        ("max call depth", lambda m: m.stats.get("max_call_depth", 0)),
        ("traps", lambda m: m.stats.get("traps", 0)),
    ],
    "memory": [
        ("inst reads", lambda m: m.memory.get("inst_reads", 0)),
        ("data reads", lambda m: m.memory.get("data_reads", 0)),
        ("data writes", lambda m: m.memory.get("data_writes", 0)),
        ("console bytes", lambda m: m.memory.get("console_bytes", 0)),
    ],
    "simulation": [
        ("engine", lambda m: m.engine),
        ("decode hits", lambda m: m.decode_cache.get("hits", 0)),
        ("decode misses", lambda m: m.decode_cache.get("misses", 0)),
        ("decode evictions", lambda m: m.decode_cache.get("evictions", 0)),
        *(
            (label, lambda m, key=key: m.engine_detail.get(key, "-"))
            for label, key in (
                ("inline spills", "inline_spills"),
                ("inline refills", "inline_refills"),
                ("frame out: spill", "frame_out_spill"),
                ("frame out: refill", "frame_out_refill"),
                ("frame out: observer", "frame_out_observer"),
                ("frame out: other", "frame_out_other"),
            )
        ),
        ("wall seconds", lambda m: _wall(m)),
    ],
}


def _wall(manifest: RunManifest) -> str:
    seconds = manifest.host.get("wall_seconds")
    return "-" if seconds is None else f"{seconds:.3f}"


def load_manifests(paths: list[str]) -> list[RunManifest]:
    """Parse every path; evaluation manifests expand to their runs."""
    manifests: list[RunManifest] = []
    for path in paths:
        with open(path) as handle:
            doc = json.load(handle)
        if isinstance(doc, dict) and doc.get("schema") == EVALUATION_SCHEMA:
            for run_doc in doc.get("runs", []):
                manifests.append(RunManifest.from_dict(run_doc))
        else:
            manifests.append(RunManifest.from_dict(doc))
    return manifests


def _column_title(manifest: RunManifest, manifests: list[RunManifest]) -> str:
    title = manifest.workload
    if sum(1 for m in manifests if m.workload == manifest.workload) > 1:
        title += f" [{manifest.engine}]"
    return title


def render_report(
    manifests: list[RunManifest],
    *,
    fmt: str = "text",
    sections: list[str] | None = None,
) -> str:
    """One table per requested section, runs as columns."""
    if not manifests:
        return "(no manifests)"
    sections = sections or list(_SECTIONS)
    columns = [_column_title(m, manifests) for m in manifests]
    blocks: list[str] = []
    for section in sections:
        rows = _SECTIONS[section]
        grid = [[label] + [str(get(m)) for m in manifests] for label, get in rows]
        header = [section] + columns
        if fmt == "markdown":
            lines = [
                "| " + " | ".join(header) + " |",
                "|" + "|".join("---" for _ in header) + "|",
            ]
            lines += ["| " + " | ".join(row) + " |" for row in grid]
        else:
            widths = [
                max(len(row[col]) for row in [header] + grid)
                for col in range(len(header))
            ]
            lines = [
                "  ".join(cell.ljust(w) for cell, w in zip(header, widths)),
                "  ".join("-" * w for w in widths),
            ]
            lines += [
                "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
                for row in grid
            ]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; see the module docstring."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.report",
        description="Render RISC I run manifests as comparison tables.",
    )
    parser.add_argument("manifests", nargs="+", help="manifest JSON files")
    parser.add_argument(
        "--format", choices=("text", "markdown", "json"), default="text"
    )
    parser.add_argument(
        "--section", action="append", choices=sorted(_SECTIONS), default=None,
        help="limit output to these sections (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    try:
        manifests = load_manifests(args.manifests)
    except (OSError, json.JSONDecodeError, ManifestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(
            [m.as_dict(include_host=False) for m in manifests], sort_keys=True,
            indent=2,
        ))
        return 0
    print(render_report(manifests, fmt=args.format, sections=args.section))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
