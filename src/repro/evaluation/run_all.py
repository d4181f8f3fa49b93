"""Run every experiment and print the full report.

Usage::

    python -m repro.evaluation.run_all [--fast] [--workers N] [--out FILE]
        [--manifest FILE] [--engine NAME] [--store DIR]

``--fast`` restricts the expensive sweeps to a four-benchmark subset;
``--workers N`` renders the report sections on N worker processes
(section order - and therefore the report text - is identical to the
serial run; every section is deterministic, so the only difference is
wall-clock time); ``--out`` also writes the report to a file.

``--manifest FILE`` additionally writes the evaluation manifest: one
canonical :class:`~repro.telemetry.manifest.RunManifest` per benchmark,
executed on ``--engine`` (default ``reference``; any tier registered in
:mod:`repro.cpu.engines`) and aggregated with
:func:`~repro.telemetry.manifest.aggregate_manifests`.  Manifest
collection honours ``--workers`` and the aggregate is **byte-identical**
for any worker count: runs are deterministic, results are collected in
schedule order, and host wall-clock never enters the canonical form.

``--store DIR`` routes manifest collection through a
:class:`~repro.telemetry.store.ManifestStore`: benchmarks whose
``(workload fingerprint, engine)`` entry is already stored are served
from disk instead of re-simulated, and fresh runs populate the store
for the next invocation.  Because stored manifests are the canonical
bytes of the run that produced them, the aggregate is byte-identical
with or without the store.

``--engine`` and ``--store`` apply only with ``--manifest``.  Every
flag is validated before any section renders.
"""

from __future__ import annotations

import argparse

from repro.cpu.engines import engine_names
from repro.evaluation import (
    ablations,
    e1_three_stage,
    m1_instruction_mix,
    m2_instruction_counts,
    r1_fault_campaign,
    s1_static_analysis,
    s3_fusion,
    s4_multicore,
    f1_formats,
    f2_windows,
    f3_delayed_branch,
    f4_window_sweep,
    t1_hll_frequency,
    t2_machines,
    t3_call_overhead,
    t4_code_size,
    t5_exec_time,
    t6_window_overflow,
    t7_chip_area,
)
from repro.evaluation.common import FAST_SUBSET

#: The report, one entry per section, in print order.  Each value takes
#: the optional benchmark-subset restriction (``None`` = full suite) and
#: returns the rendered section text; every section is a deterministic
#: function of its arguments, which is what makes the parallel path
#: byte-identical to the serial one.
_SECTIONS: dict = {
    "t1": lambda names: t1_hll_frequency.run(names).render(),
    "t2": lambda names: t2_machines.run().render(),
    "t3": lambda names: t3_call_overhead.run().render(),
    "t4": lambda names: t4_code_size.run(names).render(),
    "t5": lambda names: t5_exec_time.run(names).render(),
    "t6": lambda names: t6_window_overflow.run(names).render(),
    "t7": lambda names: t7_chip_area.run().render(),
    "f1": lambda names: (
        "F1: RISC I instruction formats\n" + "=" * 30 + "\n" + f1_formats.run()
    ),
    "f2": lambda names: (
        "F2: Overlapped register windows\n" + "=" * 31 + "\n" + f2_windows.run()
    ),
    "f3": lambda names: (
        "F3: Delayed jumps\n" + "=" * 17 + "\n" + f3_delayed_branch.run(names)
    ),
    "f4": lambda names: f4_window_sweep.run(names).render(),
    "a1": lambda names: ablations.a1_windows(FAST_SUBSET).render(),
    "a2": lambda names: ablations.a2_delay_slots(FAST_SUBSET).render(),
    "a3": lambda names: ablations.a3_overlap(names).render(),
    "e1": lambda names: e1_three_stage.run(
        names if names is not None else FAST_SUBSET
    ).render(),
    "m1": lambda names: m1_instruction_mix.run(names).render(),
    "m2": lambda names: m2_instruction_counts.run(names).render(),
    "s1": lambda names: s1_static_analysis.run(names).render(),
    "s3": lambda names: s3_fusion.run(names).render(),
    # The multicore sweep runs fixed scenarios, not the benchmark suite;
    # the subset restriction does not apply.
    "s4": lambda names: s4_multicore.run().render(),
    # A small deterministic campaign; the full 1000-injection run is
    # available via ``python -m repro.faults.campaign``.
    "r1": lambda names: r1_fault_campaign.run(injections=120).render(),
}


def _render_section(task: tuple[str, tuple[str, ...] | None]) -> str:
    """Render one section (module-level so worker pools can import it)."""
    key, names = task
    return _SECTIONS[key](names)


def _pool(workers: int):
    """A fork-preferring multiprocessing pool context."""
    import multiprocessing

    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platforms without fork
        ctx = multiprocessing.get_context("spawn")
    return ctx.Pool(processes=workers)


def _benchmark_manifest(task: tuple[str, str, str | None]):
    """Worker-side manifest capture: run one benchmark on one engine.

    Module-level so pools can import it.  The run is a deterministic
    function of (benchmark, engine) - fresh machine, fixed image - so
    the returned manifest is identical wherever it executes.  With a
    *store_dir*, the benchmark's store key is consulted first and fresh
    results are stored: determinism is what makes serving the stored
    bytes indistinguishable from re-simulating.
    """
    name, engine, store_dir = task
    from repro.workloads import benchmark
    from repro.workloads.cache import compile_cached

    source = benchmark(name).source
    store = key = None
    if store_dir is not None:
        from repro.telemetry.store import ManifestStore, manifest_key

        # The key covers the default config - exactly what
        # make_machine()/run() below use.
        key = manifest_key(name, source)
        store = ManifestStore(store_dir)
        cached = store.get(key, engine)
        if cached is not None:
            return cached

    compiled = compile_cached(source)
    entry = compiled.program.entry
    machine = compiled.make_machine(engine=engine)
    machine.run(entry)
    manifest = machine.run_manifest(workload=name, entry=entry)
    if store is not None:
        store.put(key, manifest)
    return manifest


def collect_manifests(
    names: tuple[str, ...] | None,
    *,
    engine: str = "reference",
    workers: int | None = None,
    store: str | None = None,
) -> list:
    """Per-benchmark :class:`~repro.telemetry.manifest.RunManifest` list.

    Order follows the benchmark registry; with ``workers`` the runs fan
    out over a pool but are collected in schedule order, so the caller's
    aggregate is byte-identical to the serial one.  *store* names a
    manifest-store directory to consult and populate (atomic writes
    make concurrent workers safe).
    """
    from repro.workloads import BENCHMARKS

    if names is None:
        names = tuple(bench.name for bench in BENCHMARKS)
    tasks = [(name, engine, store) for name in names]
    if workers is not None and workers > 1:
        with _pool(workers) as pool:
            return pool.map(_benchmark_manifest, tasks, chunksize=1)
    return [_benchmark_manifest(task) for task in tasks]


def write_manifest(
    path: str,
    names: tuple[str, ...] | None,
    *,
    engine: str = "reference",
    workers: int | None = None,
    store: str | None = None,
) -> int:
    """Write the aggregated evaluation manifest to *path*; returns run count."""
    import json

    from repro.telemetry.manifest import aggregate_manifests

    manifests = collect_manifests(
        names, engine=engine, workers=workers, store=store
    )
    aggregate = aggregate_manifests(manifests)
    with open(path, "w") as handle:
        json.dump(aggregate, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return aggregate["count"]


def render_sections(
    names: tuple[str, ...] | None, *, workers: int | None = None
) -> list[str]:
    """All report sections, in order; optionally rendered on a pool."""
    tasks = [(key, names) for key in _SECTIONS]
    if workers is not None and workers > 1:
        with _pool(workers) as pool:
            return pool.map(_render_section, tasks, chunksize=1)
    return [_render_section(task) for task in tasks]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.evaluation.run_all",
        description="Run every experiment and print the full report.",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="restrict the expensive sweeps to a four-benchmark subset",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="render sections (and collect manifests) on N processes",
    )
    parser.add_argument("--out", default=None, help="also write the report here")
    parser.add_argument(
        "--manifest", default=None,
        help="write the aggregated evaluation manifest to this path",
    )
    parser.add_argument(
        "--engine", choices=engine_names(), default=None,
        help="tier the manifest runs execute on (default reference; "
             "needs --manifest)",
    )
    parser.add_argument(
        "--store", default=None,
        help="manifest-store directory to consult and populate "
             "(needs --manifest)",
    )
    return parser


def main(argv: list[str] | None = None) -> str:
    """CLI entry point; see the module docstring for flags."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.manifest is None:
        for flag, value in (("--engine", args.engine), ("--store", args.store)):
            if value is not None:
                parser.error(f"{flag} needs --manifest")
    names = FAST_SUBSET if args.fast else None
    report = "\n\n\n".join(render_sections(names, workers=args.workers))
    print(report)
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(report + "\n")
    if args.manifest is not None:
        engine = args.engine or "reference"
        count = write_manifest(
            args.manifest, names, engine=engine, workers=args.workers,
            store=args.store,
        )
        print(f"\nwrote evaluation manifest ({count} runs, engine={engine}) "
              f"to {args.manifest}")
    return report


if __name__ == "__main__":
    main()
