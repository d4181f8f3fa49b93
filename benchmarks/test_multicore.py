"""Multicore performance: tier speedups and interrupt-latency cost.

Two benchmark families, both shapes for ``ci/check_perf.py`` ratios
(absolute times vary across hosts; same-process ratios do not):

* the 4-core ``producer_consumer`` run - the lock-contention workload -
  timed on the reference and trace tiers.  The trace tier must keep its
  speedup even though every slice re-enters the engine
  through the interleaver (the ratio floor catches an accidentally
  quadratic slice restart);
* the 4-core ``timer_ticks`` run - the interrupt-latency workload -
  timed on reference and trace.  Interrupt-pending fallback forces
  reference stepping, so trace may not *beat* reference by much here;
  the entry gates that delivery machinery never makes it
  pathologically slower.

The latency shape assertions are architectural, not timed: every
boundary-to-boundary sample is bounded by the scheduler quantum, which
is the delivery-granularity guarantee ``docs/MULTICORE.md`` documents.
"""

import pytest

from repro.multicore import DEFAULT_QUANTUM, build_scenario, run_scenario
from repro.multicore.scenarios import scenario


@pytest.fixture(scope="module", autouse=True)
def _warm_images():
    """Compile scenario images once, and run each once on the trace tier
    to fill its process-level factory cache, so timing excludes the
    compiler and trace codegen (``trace-cold-vs-reference`` gates
    codegen cost; a cold 4-core producer_consumer run spends about
    three quarters of its time generating traces)."""
    for name in ("producer_consumer", "timer_ticks"):
        build_scenario(name)
        run_scenario(name, num_cores=4, engine="trace")


def _contention(engine):
    sim = run_scenario("producer_consumer", num_cores=4, engine=engine)
    assert not sim.watchdog_expired
    assert not scenario("producer_consumer").validate(sim.results, 4)
    return sim


def _interrupts(engine):
    sim = run_scenario("timer_ticks", num_cores=4, engine=engine)
    assert sim.device.interrupts_delivered == 16
    samples = sim.device.latency_samples
    assert len(samples) == 16
    assert all(0 < sample <= DEFAULT_QUANTUM for sample in samples)
    return sim


def test_multicore_reference_contention(once):
    once(_contention, "reference")


def test_multicore_trace_contention(once):
    once(_contention, "trace")


def test_multicore_interrupt_latency_reference(once):
    once(_interrupts, "reference")


def test_multicore_interrupt_latency_trace(once):
    once(_interrupts, "trace")
