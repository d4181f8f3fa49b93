"""Multiprogrammed guest scenarios: the multicore workload registry.

Each :class:`Scenario` is one Mini-C guest every core executes (with
``main()`` dispatching on ``core_id()``), linked against the runtime in
:mod:`repro.multicore.runtime` and the shared interrupt handler.  They
are registered as first-class workloads: re-exported through
:mod:`repro.workloads`, swept by the multicore equivalence harness
(``python -m repro.multicore``), and measured by the ``s4_multicore``
evaluation section.

All scenarios are deterministic at any (core count, quantum, engine)
triple and self-scaling: they read ``num_cores()`` at run time, so one
image serves the whole {1, 2, 4} sweep.  :meth:`Scenario.validate`
checks the schedule-independent invariants of the results (totals,
conservation laws), leaving schedule-*dependent* values (how many items
each consumer happened to dequeue) to the fingerprint equality checks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.multicore.runtime import build_guest_source, interrupt_handler_asm
from repro.multicore.simulator import DEFAULT_QUANTUM, MulticoreSimulator

__all__ = [
    "Scenario",
    "SCENARIOS",
    "scenario",
    "scenario_names",
    "build_scenario",
    "run_scenario",
]


_PRODUCER_CONSUMER = """
int buf[8];
int head;
int tail;
int total;
int consumed;

int main() {
    int me;
    int n;
    int value;
    int sum;
    int i;
    me = core_id();
    n = num_cores();
    if (n == 1) {
        sum = 0;
        i = 1;
        while (i <= 64) { sum = sum + i; i = i + 1; }
        total = sum;
        return sum;
    }
    if (me == 0) {
        i = 1;
        while (i <= 64) {
            lock_acquire(0);
            if (head - tail < 8) {
                buf[head % 8] = i;
                head = head + 1;
                i = i + 1;
            }
            lock_release(0);
        }
        while (consumed < 64) { }
        return total;
    }
    sum = 0;
    while (consumed < 64) {
        lock_acquire(0);
        if (tail < head) {
            value = buf[tail % 8];
            tail = tail + 1;
            total = total + value;
            consumed = consumed + 1;
            sum = sum + value;
        }
        lock_release(0);
    }
    return sum;
}
"""


_BARRIER = """
int arrived;
int sense;
int done_rounds;

int barrier_wait(int n) {
    int my;
    lock_acquire(1);
    arrived = arrived + 1;
    my = sense;
    if (arrived == n) {
        arrived = 0;
        sense = 1 - my;
        lock_release(1);
        return 0;
    }
    lock_release(1);
    while (sense == my) { }
    return 0;
}

int main() {
    int me;
    int n;
    int round;
    int tally;
    me = core_id();
    n = num_cores();
    tally = 0;
    round = 0;
    while (round < 8) {
        tally = tally + me + round;
        lock_acquire(2);
        done_rounds = done_rounds + 1;
        lock_release(2);
        barrier_wait(n);
        round = round + 1;
    }
    if (me == 0) { return done_rounds; }
    return tally;
}
"""


_TIMER_TICKS = """
int main() {
    int me;
    int t;
    int seen;
    me = core_id();
    t = 0;
    seen = 0;
    while (t < 4) {
        timer_arm(300);
        while (ticks_seen(me) == seen) { }
        seen = seen + 1;
        t = t + 1;
    }
    return seen;
}
"""


_DOORBELL = """
int main() {
    int me;
    int n;
    int target;
    me = core_id();
    n = num_cores();
    if (n == 1) { return 1; }
    if (me == 0) {
        target = 1;
        while (target < n) {
            doorbell_ring(target);
            target = target + 1;
        }
        return n - 1;
    }
    while (ticks_seen(me) == 0) { }
    return ticks_seen(me);
}
"""


_SCHEDULER = """
int prog[32];

int task_step(int t) {
    int index;
    index = core_id() * 4 + t;
    if (prog[index] < 10) {
        prog[index] = prog[index] + 1;
    }
    if (prog[index] == 10) { return 1; }
    return 0;
}

int main() {
    int me;
    int t;
    int sum;
    me = core_id();
    sched_run(4);
    sum = 0;
    t = 0;
    while (t < 4) {
        sum = sum + prog[me * 4 + t];
        t = t + 1;
    }
    return sum;
}
"""


@dataclass(frozen=True)
class Scenario:
    """One registered multicore workload.

    Attributes:
        name: registry key (``producer_consumer``, ``barrier``, ...).
        description: one-line summary for listings and reports.
        body: the scenario's Mini-C source (runtime helpers excluded).
        scheduler: link the cooperative scheduler in (the scenario
            defines ``task_step``).
    """

    name: str
    description: str
    body: str
    scheduler: bool = False

    def source(self) -> str:
        """Full Mini-C source: runtime + (scheduler) + scenario body."""
        return build_guest_source(self.body, scheduler=self.scheduler)

    def validate(self, results: list[int], num_cores: int) -> list[str]:
        """Schedule-independent invariant check; returns problems."""
        return _VALIDATORS[self.name](results, num_cores)


def _validate_producer_consumer(results: list[int], n: int) -> list[str]:
    problems = []
    expected_total = 64 * 65 // 2
    if results[0] != expected_total:
        problems.append(f"core 0 total {results[0]} != {expected_total}")
    if n > 1 and sum(results[1:]) != expected_total:
        problems.append(
            f"consumer sums {results[1:]} do not conserve {expected_total}"
        )
    return problems


def _validate_barrier(results: list[int], n: int) -> list[str]:
    problems = []
    if results[0] != 8 * n:
        problems.append(f"core 0 round count {results[0]} != {8 * n}")
    for me in range(1, n):
        expected = 8 * me + 28  # sum of me+round over 8 rounds
        if results[me] != expected:
            problems.append(f"core {me} tally {results[me]} != {expected}")
    return problems


def _validate_timer_ticks(results: list[int], n: int) -> list[str]:
    return [
        f"core {me} saw {results[me]} ticks, expected 4"
        for me in range(n)
        if results[me] != 4
    ]


def _validate_doorbell(results: list[int], n: int) -> list[str]:
    if n == 1:
        return [] if results == [1] else [f"single-core result {results} != [1]"]
    problems = []
    if results[0] != n - 1:
        problems.append(f"core 0 rang {results[0]} bells, expected {n - 1}")
    for me in range(1, n):
        if results[me] != 1:
            problems.append(f"core {me} saw {results[me]} doorbells, expected 1")
    return problems


def _validate_scheduler(results: list[int], n: int) -> list[str]:
    return [
        f"core {me} task progress {results[me]} != 40"
        for me in range(n)
        if results[me] != 40
    ]


_VALIDATORS = {
    "producer_consumer": _validate_producer_consumer,
    "barrier": _validate_barrier,
    "timer_ticks": _validate_timer_ticks,
    "doorbell": _validate_doorbell,
    "scheduler": _validate_scheduler,
}


#: The registry, in report order.
SCENARIOS: tuple[Scenario, ...] = (
    Scenario(
        "producer_consumer",
        "core 0 produces 64 items through a lock-protected ring buffer; "
        "the other cores consume and conserve the checksum",
        _PRODUCER_CONSUMER,
    ),
    Scenario(
        "barrier",
        "8 rounds of a sense-reversing barrier with a lock-protected "
        "round counter",
        _BARRIER,
    ),
    Scenario(
        "timer_ticks",
        "every core arms its one-shot timer 4 times and spins on the "
        "handler's tick mailbox",
        _TIMER_TICKS,
    ),
    Scenario(
        "doorbell",
        "core 0 rings every other core's doorbell; they spin until the "
        "interrupt handler records it",
        _DOORBELL,
    ),
    Scenario(
        "scheduler",
        "each core cooperatively schedules 4 tasks to completion via "
        "sched_run/task_step",
        _SCHEDULER,
        scheduler=True,
    ),
)

_BY_NAME = {spec.name: spec for spec in SCENARIOS}


def scenario(name: str) -> Scenario:
    """Look up a scenario by name; raises ``ValueError`` when unknown."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown multicore scenario {name!r} (one of {sorted(_BY_NAME)})"
        ) from None


def scenario_names() -> tuple[str, ...]:
    """Registered scenario names, in report order."""
    return tuple(spec.name for spec in SCENARIOS)


@functools.lru_cache(maxsize=None)
def build_scenario(name: str):
    """Compile + link a scenario into an assembled ``Program`` (cached).

    The Mini-C guest is compiled to assembly, the shared interrupt
    handler is appended after ``__text_end``, and the combined source is
    assembled into one image with both ``_main`` (per-core entry) and
    ``__irq_handler`` (vector target) in its symbol table.
    """
    from repro.asm.assembler import assemble
    from repro.cc.compiler import compile_for_risc

    compiled = compile_for_risc(scenario(name).source())
    return assemble(compiled.asm_source + interrupt_handler_asm())


def run_scenario(
    name: str,
    *,
    num_cores: int = 2,
    engine: str = "reference",
    quantum: int = DEFAULT_QUANTUM,
    max_total_steps: int = 5_000_000,
) -> MulticoreSimulator:
    """Build and run a scenario; returns the finished simulator."""
    sim = MulticoreSimulator(
        build_scenario(name),
        num_cores=num_cores,
        engine=engine,
        quantum=quantum,
    )
    return sim.run(max_total_steps)
