"""Differential equivalence harness for execution engines.

The fast pre-decoded engine is only admissible as a drop-in for the
reference interpreter if the two are *bit-identical* - not "same
result", but the same :class:`~repro.cpu.state.ExecutionStats` counter
for counter, the same trap log record for record, and the same final
architectural state down to the full memory image.  This module runs
one program on every engine under test and diffs everything observable:

* execution statistics (``ExecutionStats.as_dict``);
* final registers (all physical registers), PSW, pc/npc/lpc;
* halt reason, halt address, call depth, call trace;
* window save-stack pointer and resident windows, a pending delay-slot
  jump, a latched interrupt and the interrupts taken;
* the complete trap log (every :class:`~repro.cpu.state.TrapRecord`
  field, including trap-time cycle/instruction snapshots);
* memory statistics, console output, and the full memory image.

Used two ways:

* :func:`assert_engines_equivalent` - the workhorse behind
  ``tests/test_engine_equivalence.py``, which parametrises over every
  bundled workload;
* ``python -m repro.cpu.equivalence [names...]`` - a CLI sweep across
  the benchmark suite, printing per-workload instruction counts and the
  first divergence if one exists.
"""

from __future__ import annotations

import argparse
import dataclasses
from dataclasses import dataclass

from repro.cpu.engines import capability_matrix, engine_names
from repro.cpu.machine import RiscMachine


def _resolve_engines(engines: "tuple[str, ...] | None") -> tuple[str, ...]:
    """``None`` means "every scalar tier the registry knows about"."""
    if engines is None:
        return engine_names()
    return tuple(engines)


def state_digest(machine: RiscMachine) -> dict:
    """Everything observable about a finished machine, as plain data."""
    return {
        "stats": machine.stats.as_dict(),
        "regs": tuple(machine.regs._regs),
        "psw": machine.psw.pack(),
        "pc": machine.pc,
        "npc": machine.npc,
        "lpc": machine.lpc,
        "halted": machine.halted,
        "halt_address": machine.halt_address,
        "call_depth": machine.call_depth,
        "window_save_pointer": machine.window_save_pointer,
        "resident_windows": machine.resident_windows,
        "pending_jump": machine._pending_jump,
        "pending_interrupt": machine.pending_interrupt,
        "interrupts_taken": machine.interrupts_taken,
        "call_trace": tuple(machine.call_trace),
        "trap_log": tuple(
            tuple(sorted(dataclasses.asdict(record).items()))
            for record in machine.trap_log
        ),
        "mem_stats": (
            machine.memory.stats.inst_reads,
            machine.memory.stats.data_reads,
            machine.memory.stats.data_writes,
        ),
        "console": "".join(machine.memory.console),
        "memory": bytes(machine.memory._bytes),
    }


def diff_digests(reference: dict, candidate: dict) -> list[str]:
    """Human-readable mismatches between two digests (empty = identical)."""
    mismatches: list[str] = []
    for key, expected in reference.items():
        actual = candidate[key]
        if actual == expected:
            continue
        if key == "stats":
            for counter, value in expected.items():
                if actual[counter] != value:
                    mismatches.append(
                        f"stats.{counter}: {value} != {actual[counter]}"
                    )
        elif key == "regs":
            bad = [i for i, (a, b) in enumerate(zip(expected, actual)) if a != b]
            mismatches.append(f"regs differ at physical indices {bad[:8]}")
        elif key == "memory":
            first = next(
                i for i, (a, b) in enumerate(zip(expected, actual)) if a != b
            )
            mismatches.append(
                f"memory differs first at {first:#x}: "
                f"{expected[first]:#04x} != {actual[first]:#04x}"
            )
        else:
            mismatches.append(f"{key}: {expected!r} != {actual!r}")
    return mismatches


@dataclass(frozen=True)
class DifferentialResult:
    """Outcome of one program run across several engines."""

    engines: tuple[str, ...]
    digests: tuple[dict, ...]
    mismatches: tuple[str, ...]  # vs the first engine; empty = equivalent

    @property
    def equivalent(self) -> bool:
        """True when every engine produced an identical digest."""
        return not self.mismatches

    @property
    def instructions(self) -> int:
        """Instruction count of the run (identical across engines)."""
        return self.digests[0]["stats"]["instructions"]


def run_differential(
    source: str,
    *,
    engines: tuple[str, ...] | None = None,
    num_windows: int = 8,
    max_steps: int = 50_000_000,
) -> DifferentialResult:
    """Compile *source* once, execute it on each engine, diff the states.

    *engines* defaults to every scalar tier in the
    :mod:`repro.cpu.engines` registry, oracle first; the first engine is
    the oracle every other engine is diffed against.  Each engine gets a
    fresh machine and memory image, so runs cannot contaminate each
    other.
    """
    from repro.workloads.cache import compile_cached

    engines = _resolve_engines(engines)
    compiled = compile_cached(source)
    digests = []
    for engine in engines:
        __, machine = compiled.run(
            num_windows=num_windows, max_steps=max_steps, engine=engine
        )
        digests.append(state_digest(machine))
    mismatches: list[str] = []
    for engine, digest in zip(engines[1:], digests[1:]):
        for line in diff_digests(digests[0], digest):
            mismatches.append(f"[{engines[0]} vs {engine}] {line}")
    return DifferentialResult(
        engines=tuple(engines),
        digests=tuple(digests),
        mismatches=tuple(mismatches),
    )


def assert_engines_equivalent(
    source: str,
    *,
    engines: tuple[str, ...] | None = None,
    num_windows: int = 8,
    max_steps: int = 50_000_000,
) -> DifferentialResult:
    """:func:`run_differential`, raising ``AssertionError`` on divergence."""
    result = run_differential(
        source, engines=engines, num_windows=num_windows,
        max_steps=max_steps,
    )
    if not result.equivalent:
        raise AssertionError(
            "engines diverged:\n  " + "\n  ".join(result.mismatches)
        )
    return result


def engine_list(choices: tuple[str, ...]):
    """argparse ``type`` for ``--engines``: two or more names from *choices*.

    Shared with ``python -m repro.multicore``, whose *choices* are the
    SMP-legal tiers.
    """

    def parse(text: str) -> tuple[str, ...]:
        """Split *text* on commas; reject unknown names and singletons."""
        names = tuple(name.strip() for name in text.split(",") if name.strip())
        unknown = [name for name in names if name not in choices]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown engine(s) {', '.join(unknown)} "
                f"(choose from {', '.join(choices)})"
            )
        if len(names) < 2:
            raise argparse.ArgumentTypeError("needs at least two engines")
        return names

    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cpu.equivalence",
        description="Sweep the bundled benchmarks across engine tiers; "
                    "exit 0 when every tier is bit-identical.",
    )
    parser.add_argument(
        "--list-engines", action="store_true",
        help="print the registry's capability matrix and exit",
    )
    parser.add_argument(
        "--engines", type=engine_list(engine_names()),
        default=engine_names(),
        help="comma-separated tiers to sweep, oracle first "
             "(default: every tier)",
    )
    parser.add_argument(
        "names", nargs="*", metavar="workload",
        help="workloads to sweep (default: every bundled benchmark)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """Sweep the bundled benchmarks across all engines; 0 = all identical.

    ``--list-engines`` prints the registry's capability matrix and
    exits.  ``--engines ref,fast,...`` restricts the sweep (first name
    is the oracle); remaining positional arguments select workloads.  Bad arguments exit 2
    before anything runs.
    """
    from repro.workloads import BENCHMARKS, benchmark

    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.list_engines:
        header = f"{'tier':>4}  {'engine':<10} {'observers':<10} description"
        print(header)
        for row in capability_matrix():
            print(
                f"{row['tier']:>4}  {row['name']:<10} "
                f"{'yes' if row['supports_observers'] else 'no':<10} "
                f"{row['description']}"
            )
        return 0
    known = [bench.name for bench in BENCHMARKS]
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(
            f"unknown workload(s) {', '.join(unknown)} "
            f"(choose from {', '.join(known)})"
        )
    names = args.names or known
    failures = 0
    for name in names:
        bench = benchmark(name)
        result = run_differential(bench.source, engines=args.engines)
        if result.equivalent:
            print(f"  ok  {name:<20} {result.instructions:>10} instructions "
                  f"bit-identical on {', '.join(result.engines)}")
        else:
            failures += 1
            print(f"FAIL  {name}")
            for line in result.mismatches:
                print(f"      {line}")
    print(f"{len(names) - failures}/{len(names)} workloads equivalent")
    return 1 if failures else 0

if __name__ == "__main__":
    raise SystemExit(main())
