"""S4 - Multiprocessor RISC I: interrupts, locks, and core scaling.

The paper sizes RISC I as a *single* VLSI processor; the obvious
follow-on question (asked by the multiprocessor minimal-ISA literature
in PAPERS.md) is how the same reduced ISA behaves when several cores
share one memory.  This section measures the :mod:`repro.multicore`
platform across core counts {1, 2, 4} on three scenarios:

* ``producer_consumer`` - lock contention: one lock-protected ring
  buffer, every consumer hammering the test-and-set cell;
* ``barrier`` - synchronisation: 8 rounds of a sense-reversing barrier;
* ``timer_ticks`` - interrupt latency: each core arms its one-shot
  timer four times and waits for the handler's mailbox tick.

Reported quantities:

* **instructions** and **slices** - total work and scheduler activity;
* **irq lat avg/max** - boundary-to-boundary interrupt latency in
  instructions (fire observed at a slice boundary -> acknowledge
  observed at a later boundary), the delivery granularity an OS on
  this platform would see;
* **lock miss rate** - contended test-and-set reads over all
  acquisition attempts, the direct cost of sharing the lock bank;
* **util** - per-core share of retired instructions (spin-waiting
  counts as work, which is exactly the point: utilisation skew shows
  where cores burn cycles waiting).

Every run here executes on the reference engine; the equivalence sweep
(``python -m repro.multicore``) separately proves trace runs
byte-identical, so these numbers are tier-independent.
"""

from __future__ import annotations

from repro.evaluation.tables import Table
from repro.multicore.scenarios import run_scenario, scenario

#: Scenarios measured, in report order.
SCENARIOS = ("producer_consumer", "barrier", "timer_ticks")

#: Core counts swept per scenario.
CORE_COUNTS = (1, 2, 4)


def multicore_record(name: str, num_cores: int) -> dict:
    """One scenario run at one core count, reduced to report numbers."""
    sim = run_scenario(name, num_cores=num_cores, engine="reference")
    problems = scenario(name).validate(sim.results, num_cores)
    if problems:
        raise AssertionError(
            f"{name} @ {num_cores} cores violated its invariants: {problems}"
        )
    device = sim.device
    samples = device.latency_samples
    attempts = device.lock_acquires + device.lock_misses
    return {
        "name": name,
        "num_cores": num_cores,
        "instructions": sim.total_instructions,
        "slices": len(sim.schedule),
        "interrupts": device.interrupts_delivered,
        "latency_avg": (sum(samples) / len(samples)) if samples else None,
        "latency_max": max(samples) if samples else None,
        "lock_acquires": device.lock_acquires,
        "lock_misses": device.lock_misses,
        "lock_miss_rate": (device.lock_misses / attempts) if attempts else None,
        "utilization": sim.utilization(),
    }


def run(names: tuple[str, ...] | None = None) -> Table:
    """Build the S4 table (``names`` may restrict the scenario list)."""
    selected = SCENARIOS if names is None else tuple(
        n for n in SCENARIOS if n in names
    ) or SCENARIOS
    table = Table(
        title="S4: Multiprocessor RISC I - interrupts, locks, core scaling",
        headers=["scenario", "cores", "instructions", "slices", "irqs",
                 "irq lat avg", "irq lat max", "lock acq", "miss rate",
                 "util"],
        notes=[
            "interrupt latency is boundary-to-boundary in instructions: "
            "the scheduler quantum bounds delivery granularity",
            "lock miss rate = contended test-and-set reads / all attempts "
            "on the device's shared lock bank",
            "util = per-core share of retired instructions; spin-waiting "
            "counts, so skew localises where cores wait",
            # benchmarks/perf/golden.json pins this note's bytes; the
            # stale "/block" goes with the next golden change.
            "reference engine; the equivalence sweep proves fast/block "
            "runs byte-identical (python -m repro.multicore)",
        ],
    )
    for name in selected:
        for num_cores in CORE_COUNTS:
            rec = multicore_record(name, num_cores)
            util = "/".join(f"{u:.2f}" for u in rec["utilization"])
            table.add_row(
                name,
                num_cores,
                rec["instructions"],
                rec["slices"],
                rec["interrupts"],
                "-" if rec["latency_avg"] is None
                else f"{rec['latency_avg']:.1f}",
                "-" if rec["latency_max"] is None else rec["latency_max"],
                rec["lock_acquires"],
                "-" if rec["lock_miss_rate"] is None
                else f"{rec['lock_miss_rate']:.1%}",
                util,
            )
    return table
