"""``python -m repro.analysis.lint`` - the static-analysis CLI.

Compiles workloads (or assembles ``.s`` files) and runs the full lint
pipeline over the resulting binaries:

.. code-block:: console

   # Lint every bundled benchmark, human-readable:
   python -m repro.analysis.lint --all

   # One workload, JSON report:
   python -m repro.analysis.lint f_bit_test --json

   # A hand-written assembly file:
   python -m repro.analysis.lint --asm prog.s

   # Cross-validate the static window-depth bound against a real run:
   python -m repro.analysis.lint --all --cross-validate

   # CI: compare against (or refresh) the golden baseline:
   python -m repro.analysis.lint --all --extended --baseline ci/lint_baseline.json
   python -m repro.analysis.lint --all --extended --write-baseline ci/lint_baseline.json

Exit status: 0 clean, 1 findings (errors or warnings) or a baseline
mismatch or a cross-validation failure, 2 usage/compile errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.lints import LintReport, lint_program
from repro.isa.registers import NUM_WINDOWS


def _load_targets(args) -> list[tuple[str, object]]:
    """Resolve CLI selections to (name, Program) pairs."""
    from repro.workloads.cache import compile_cached
    from repro.workloads import BENCHMARKS
    from repro.workloads.extended import EXTENDED_BENCHMARKS

    by_name = {bench.name: bench for bench in BENCHMARKS}
    by_name.update({bench.name: bench for bench in EXTENDED_BENCHMARKS})
    selected = []
    if args.all:
        selected.extend(bench.name for bench in BENCHMARKS)
    if args.extended:
        selected.extend(bench.name for bench in EXTENDED_BENCHMARKS)
    selected.extend(args.workloads)
    if not selected and not args.asm:
        raise SystemExit("no targets: name workloads, or use --all / --asm FILE")
    targets: list[tuple[str, object]] = []
    for name in dict.fromkeys(selected):  # dedupe, keep order
        bench = by_name.get(name)
        if bench is None:
            known = ", ".join(sorted(by_name))
            raise SystemExit(f"unknown workload '{name}' (known: {known})")
        compiled = compile_cached(bench.source)
        targets.append((name, compiled.program))
    for path in args.asm:
        from repro.asm import assemble

        source = Path(path).read_text()
        targets.append((path, assemble(source)))
    return targets


def _cross_validate(name: str, report: LintReport, num_windows: int) -> list[str]:
    """Check the static depth bound against the workload's profiled run."""
    from repro.workloads.cache import compile_cached
    from repro.workloads import BENCHMARKS
    from repro.workloads.extended import EXTENDED_BENCHMARKS

    bench = next(
        (b for b in list(BENCHMARKS) + list(EXTENDED_BENCHMARKS) if b.name == name),
        None,
    )
    if bench is None:
        return [f"{name}: cannot cross-validate (not a bundled workload)"]
    stats = compile_cached(bench.source).profile(num_windows=num_windows).stats
    problems = report.depth.validate_against(
        stats.max_call_depth, stats.window_overflows, num_windows
    )
    return [f"{name}: {problem}" for problem in problems]


def _baseline_entry(report: LintReport) -> dict:
    summary = report.summary()
    return {
        "findings": summary["findings"],
        "errors": summary["errors"],
        "warnings": summary["warnings"],
        "by_lint": summary["by_lint"],
        "depth_bound": summary["depth_bound"],
        "fusion": summary["fusion"],
    }


def _known_lint_ids() -> frozenset[str]:
    from repro.analysis.lints import LINT_CATALOG

    return frozenset(lint_id for lint_id, __, __ in LINT_CATALOG)


def _check_baseline(path: str, observed: dict[str, dict]) -> list[str]:
    baseline = json.loads(Path(path).read_text())
    problems = []
    known = _known_lint_ids()
    for name, expected in baseline.items():
        # An unknown (or retired) lint code in the golden file would
        # otherwise "pass" forever by never being emitted again; fail
        # loudly so the baseline is regenerated instead.
        codes = set(expected.get("by_lint", {}) if isinstance(expected, dict) else ())
        for code in sorted(codes - known):
            problems.append(
                f"{name}: baseline {path} references unknown or retired "
                f"lint code '{code}' (known: {', '.join(sorted(known))}); "
                f"regenerate it with --write-baseline"
            )
    for name, entry in observed.items():
        expected = baseline.get(name)
        if expected is None:
            problems.append(f"{name}: not in baseline {path}")
        elif expected != entry:
            problems.append(
                f"{name}: drifted from baseline {path}\n"
                f"    expected: {json.dumps(expected, sort_keys=True)}\n"
                f"    observed: {json.dumps(entry, sort_keys=True)}"
            )
    for name in baseline:
        if name not in observed:
            problems.append(f"{name}: in baseline {path} but not analysed")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Static analysis of compiled RISC I programs.",
    )
    parser.add_argument("workloads", nargs="*", help="bundled workload names")
    parser.add_argument("--all", action="store_true",
                        help="lint every bundled benchmark")
    parser.add_argument("--extended", action="store_true",
                        help="also lint the extended benchmarks")
    parser.add_argument("--asm", action="append", default=[], metavar="FILE",
                        help="assemble and lint a .s file (repeatable)")
    parser.add_argument("--json", action="store_true", help="JSON reports")
    parser.add_argument("--only", metavar="FAMILY",
                        help="restrict output to one lint family by ID prefix "
                             "(e.g. --only FUS, --only DS); incompatible with "
                             "the baseline modes, which always cover every lint")
    parser.add_argument("--windows", type=int, default=NUM_WINDOWS, metavar="N",
                        help=f"window-file size for depth checks (default {NUM_WINDOWS})")
    parser.add_argument("--max-depth", type=int, default=None, metavar="N",
                        help="fail if the static call-depth bound exceeds N frames")
    parser.add_argument("--cross-validate", action="store_true",
                        help="run each workload and check the static depth bound "
                             "against the dynamic ExecutionStats")
    parser.add_argument("--baseline", metavar="FILE",
                        help="compare per-program summaries against a golden file")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="write the golden baseline file and exit")
    args = parser.parse_args(argv)

    if args.only:
        if args.baseline or args.write_baseline:
            print("error: --only cannot be combined with --baseline / "
                  "--write-baseline (baselines always cover every lint)",
                  file=sys.stderr)
            return 2
        family = args.only.upper()
        known = {lint_id for lint_id in _known_lint_ids()
                 if lint_id.startswith(family)}
        if not known:
            families = sorted({lint_id.rstrip("0123456789")
                               for lint_id in _known_lint_ids()})
            print(f"error: no lint family matches '{args.only}' "
                  f"(families: {', '.join(families)})", file=sys.stderr)
            return 2

    try:
        targets = _load_targets(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reports: list[tuple[str, LintReport]] = []
    for name, program in targets:
        report = lint_program(
            program, name=name, num_windows=args.windows,
            max_depth=args.max_depth,
        )
        if args.only:
            report.findings = [f for f in report.findings
                               if f.lint.startswith(family)]
            report.notes = [f for f in report.notes
                            if f.lint.startswith(family)]
        reports.append((name, report))

    failures = 0
    for name, report in reports:
        if args.json:
            print(report.to_json())
        else:
            print(report.to_text())
        if report.findings:
            failures += 1

    problems: list[str] = []
    if args.cross_validate:
        for name, report in reports:
            problems.extend(_cross_validate(name, report, args.windows))

    observed = {name: _baseline_entry(report) for name, report in reports}
    if args.write_baseline:
        Path(args.write_baseline).write_text(
            json.dumps(observed, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote baseline for {len(observed)} program(s) to {args.write_baseline}")
        return 0
    if args.baseline:
        problems.extend(_check_baseline(args.baseline, observed))

    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    if not args.json:
        total = sum(len(r.findings) for __, r in reports)
        print(f"\n{len(reports)} program(s) analysed, {total} finding(s), "
              f"{len(problems)} validation failure(s)")
    return 1 if (failures or problems) else 0


if __name__ == "__main__":
    sys.exit(main())
