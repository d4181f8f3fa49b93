"""Keep the committed perf ledger (``BENCH_ledger.json``).

Usage::

    python ci/ledger.py add BENCH_ledger.json COMMIT SIDE RUNS.json
    python ci/ledger.py split BENCH_ledger.json OUTDIR

``python -m benchmarks.perf --out RUNS.json`` writes a ledger of one
tree's runs.  ``add`` appends those runs to the committed ledger,
tagging each with the parent ``COMMIT`` the change was measured against
and its ``SIDE`` (``parent`` or ``change``).  ``split`` writes one plain
ledger per (commit, side) into ``OUTDIR`` as ``COMMIT-SIDE.json``, so
that any recorded claim replays with::

    python -m benchmarks.perf compare OUTDIR/COMMIT-parent.json \\
        OUTDIR/COMMIT-change.json
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

SIDES = ("parent", "change")


def _read(path: Path) -> dict:
    if path.is_file():
        return json.loads(path.read_text())
    return {"schema": 1, "runs": []}


def _write(path: Path, ledger: dict) -> None:
    path.write_text(json.dumps(ledger, indent=1) + "\n")


def add(ledger_path: str, commit: str, side: str, runs_path: str) -> int:
    if side not in SIDES:
        print(f"side must be one of {SIDES}, not {side!r}", file=sys.stderr)
        return 2
    ledger = _read(Path(ledger_path))
    runs = json.loads(Path(runs_path).read_text())["runs"]
    ledger["runs"].extend({**run, "commit": commit, "side": side} for run in runs)
    _write(Path(ledger_path), ledger)
    print(f"{ledger_path}: added {len(runs)} {side} runs for {commit}")
    return 0


def split(ledger_path: str, out_dir: str) -> int:
    groups: dict[tuple[str, str], list[dict]] = defaultdict(list)
    for run in _read(Path(ledger_path))["runs"]:
        groups[run["commit"], run["side"]].append(run)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for (commit, side), runs in sorted(groups.items()):
        path = out / f"{commit}-{side}.json"
        _write(path, {"schema": 1, "runs": runs})
        print(f"{path}: {len(runs)} runs")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["add"] and len(argv) == 5:
        return add(*argv[1:])
    if argv[:1] == ["split"] and len(argv) == 3:
        return split(*argv[1:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
