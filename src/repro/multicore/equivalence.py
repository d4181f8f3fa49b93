"""Differential equivalence harness for multicore runs.

The single-core harness (:mod:`repro.cpu.equivalence`) proves each
engine tier bit-identical on one machine; this module proves the same
for an entire *N*-core simulation.  A multicore run is admissible on a
tier only if the **composed manifest** - schedule fingerprint, device
counters, console text, and every core's shared manifest section -
matches the reference run byte for byte.  That is a strictly stronger
check than equal results: it pins the interleaving itself (slice log),
the interrupt delivery points (per-core trap/interrupt counters), and
the full architectural end state of every core.

Used two ways:

* :func:`assert_multicore_equivalent` - the workhorse behind
  ``tests/test_multicore_equivalence.py``, parametrised over scenarios
  and core counts;
* ``python -m repro.multicore [names...]`` - a CLI sweep across the
  scenario registry and core counts {1, 2, 4}, printing per-run
  instruction counts and the first divergence if one exists.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from repro.cpu.engines import engine_names
from repro.cpu.equivalence import engine_list
from repro.multicore.scenarios import (
    DEFAULT_QUANTUM,
    run_scenario,
    scenario,
    scenario_names,
)

__all__ = [
    "MulticoreDifferentialResult",
    "run_differential_multicore",
    "assert_multicore_equivalent",
    "main",
]

#: Core counts the CLI sweep (and the evaluation) exercises.
SWEEP_CORE_COUNTS = (1, 2, 4)


def _shared_view(manifest: dict) -> dict:
    """The engine-independent portion of a composed multicore manifest."""
    return {
        key: value
        for key, value in manifest.items()
        if key not in ("simulation", "fingerprint")
    }


def diff_manifests(reference: dict, candidate: dict) -> list[str]:
    """Human-readable mismatches between two composed manifests.

    Diffs only the engine-independent view (the ``simulation`` section
    differs across tiers by design).  Empty list = bit-identical.
    """
    mismatches: list[str] = []
    ref, cand = _shared_view(reference), _shared_view(candidate)
    for key, expected in ref.items():
        actual = cand.get(key)
        if actual == expected:
            continue
        if key == "cores":
            for core_id, (a, b) in enumerate(zip(expected, actual)):
                for section, value in a.items():
                    if b.get(section) != value:
                        mismatches.append(
                            f"core {core_id} section {section!r}: "
                            f"{value!r} != {b.get(section)!r}"
                        )
        elif isinstance(expected, dict):
            for field, value in expected.items():
                if actual.get(field) != value:
                    mismatches.append(
                        f"{key}.{field}: {value!r} != {actual.get(field)!r}"
                    )
        else:
            mismatches.append(f"{key}: {expected!r} != {actual!r}")
    return mismatches


@dataclass(frozen=True)
class MulticoreDifferentialResult:
    """Outcome of one scenario run across several engine tiers."""

    scenario: str
    num_cores: int
    engines: tuple[str, ...]
    manifests: tuple[dict, ...]
    mismatches: tuple[str, ...]  # vs the first engine; empty = equivalent
    problems: tuple[str, ...]  # scenario invariant violations (oracle run)

    @property
    def equivalent(self) -> bool:
        """True when every tier composed an identical manifest."""
        return not self.mismatches and not self.problems

    @property
    def instructions(self) -> int:
        """Total instruction count of the run (identical across tiers)."""
        return self.manifests[0]["schedule"]["total_instructions"]

    @property
    def fingerprint(self) -> str:
        """The composed fingerprint every tier must reproduce."""
        return self.manifests[0]["fingerprint"]


def run_differential_multicore(
    name: str,
    *,
    num_cores: int = 2,
    engines: tuple[str, ...] | None = None,
    quantum: int = DEFAULT_QUANTUM,
    max_total_steps: int = 5_000_000,
) -> MulticoreDifferentialResult:
    """Run one scenario on each tier and diff the manifests.

    *engines* defaults to every registered tier, oracle (reference)
    first; the first engine is the oracle the
    rest are diffed against.  Each tier gets a fresh simulator, memory
    image, and device, so runs cannot contaminate each other.  The
    oracle's results are additionally checked against the scenario's
    schedule-independent invariants (:meth:`Scenario.validate`).
    """
    engines = tuple(engines) if engines is not None else engine_names()
    spec = scenario(name)
    manifests = []
    for engine in engines:
        sim = run_scenario(
            name,
            num_cores=num_cores,
            engine=engine,
            quantum=quantum,
            max_total_steps=max_total_steps,
        )
        manifests.append(sim.manifest(workload=name, seed=None))
    mismatches: list[str] = []
    for engine, manifest in zip(engines[1:], manifests[1:]):
        for line in diff_manifests(manifests[0], manifest):
            mismatches.append(f"[{engines[0]} vs {engine}] {line}")
    problems = spec.validate(manifests[0]["run"]["results"], num_cores)
    return MulticoreDifferentialResult(
        scenario=name,
        num_cores=num_cores,
        engines=engines,
        manifests=tuple(manifests),
        mismatches=tuple(mismatches),
        problems=tuple(problems),
    )


def assert_multicore_equivalent(
    name: str,
    *,
    num_cores: int = 2,
    engines: tuple[str, ...] | None = None,
    quantum: int = DEFAULT_QUANTUM,
    max_total_steps: int = 5_000_000,
) -> MulticoreDifferentialResult:
    """:func:`run_differential_multicore`, raising on any divergence."""
    result = run_differential_multicore(
        name,
        num_cores=num_cores,
        engines=engines,
        quantum=quantum,
        max_total_steps=max_total_steps,
    )
    if not result.equivalent:
        raise AssertionError(
            f"{name} @ {num_cores} cores diverged:\n  "
            + "\n  ".join((*result.mismatches, *result.problems))
        )
    return result


def _core_counts(text: str) -> tuple[int, ...]:
    """argparse ``type`` for ``--cores``: comma-separated ints, each >= 1."""
    try:
        counts = tuple(int(n) for n in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated int list"
        ) from None
    if any(count < 1 for count in counts):
        raise argparse.ArgumentTypeError("core counts must be >= 1")
    return counts


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.multicore",
        description="Sweep multicore scenarios x core counts across the "
                    "engine tiers; exit 0 when every run is bit-identical.",
    )
    parser.add_argument(
        "--engines", type=engine_list(engine_names()),
        default=engine_names(),
        help="comma-separated tiers to sweep, oracle first "
             "(default: every tier)",
    )
    parser.add_argument(
        "--cores", type=_core_counts, default=SWEEP_CORE_COUNTS,
        help="comma-separated core counts (default: 1,2,4)",
    )
    parser.add_argument(
        "names", nargs="*", metavar="scenario",
        help="scenarios to sweep (default: every registered scenario)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Sweep scenarios x core counts across the tiers; 0 = all identical.

    ``--engines reference,trace`` restricts the sweep (first name is the
    oracle); ``--cores 1,2,4`` picks core counts; remaining positional
    arguments select scenarios (default: all registered).  Bad
    arguments exit 2 before anything runs.
    """
    parser = _build_parser()
    args = parser.parse_args(argv)
    known = scenario_names()
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(
            f"unknown scenario(s) {', '.join(unknown)} "
            f"(choose from {', '.join(known)})"
        )
    names = args.names or list(known)
    failures = 0
    runs = 0
    for name in names:
        for num_cores in args.cores:
            runs += 1
            result = run_differential_multicore(
                name, num_cores=num_cores, engines=args.engines
            )
            tag = f"{name}@{num_cores}"
            if result.equivalent:
                print(
                    f"  ok  {tag:<24} {result.instructions:>10} instructions "
                    f"bit-identical on {', '.join(result.engines)}"
                )
            else:
                failures += 1
                print(f"FAIL  {tag}")
                for line in (*result.mismatches, *result.problems):
                    print(f"      {line}")
    print(f"{runs - failures}/{runs} runs equivalent")
    return 1 if failures else 0

if __name__ == "__main__":
    raise SystemExit(main())
