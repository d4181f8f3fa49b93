"""N-core differential equivalence: every tier, bit-identical.

The single-core equivalence suite proves every tier bit-identical on
one machine; this suite proves it for whole multicore runs.  Every
registered scenario at 2 and 4 cores must compose an identical
manifest - schedule fingerprint, device counters, console, and each
core's full shared manifest section - on the reference and trace tiers.
Divergence anywhere (an interrupt taken one instruction late, a lock
observed in a different order, a device access served from RAM by a
compiled trace, a stale trace surviving a cross-core code write) shows
up as a manifest mismatch.
"""

import pytest

from repro.cpu.engines import engine_names
from repro.multicore import (
    MulticoreSimulator,
    assert_multicore_equivalent,
    build_scenario,
    run_differential_multicore,
    scenario_names,
)


def test_smp_tier_registry():
    # Every registered tier is a per-core tier; the oracle leads the sweep.
    assert engine_names() == ("reference", "trace")
    assert run_differential_multicore("doorbell", num_cores=2).engines == engine_names()
    program = build_scenario("barrier")
    for name in engine_names():
        sim = MulticoreSimulator(program, num_cores=2, engine=name)
        assert {core.engine_name for core in sim.cores} == {name}
    with pytest.raises(ValueError):
        MulticoreSimulator(program, num_cores=2, engine="bogus")


@pytest.mark.parametrize("name", scenario_names())
@pytest.mark.parametrize("num_cores", [2, 4])
def test_scenarios_bit_identical_across_tiers(name, num_cores):
    result = assert_multicore_equivalent(name, num_cores=num_cores)
    assert result.fingerprint
    assert result.instructions > 0


def test_single_core_multicore_run_is_equivalent_too():
    result = assert_multicore_equivalent("producer_consumer", num_cores=1)
    assert result.manifests[0]["run"]["results"] == [64 * 65 // 2]


def test_quantum_is_part_of_the_contract():
    # The same scenario at a different quantum is a *different* run
    # (schedules differ) but must still be tier-identical.
    result = run_differential_multicore("barrier", num_cores=2, quantum=64)
    assert result.equivalent, result.mismatches
    default = run_differential_multicore("barrier", num_cores=2)
    assert result.fingerprint != default.fingerprint
