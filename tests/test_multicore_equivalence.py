"""N-core differential equivalence: every SMP tier, bit-identical.

The single-core equivalence suite proves every tier bit-identical on
one machine; this suite proves it for whole multicore runs.  Every
registered scenario at 2 and 4 cores must compose an identical
manifest - schedule fingerprint, device counters, console, and each
core's full shared manifest section - on the reference and fast tiers.
Divergence anywhere (an interrupt taken one instruction late, a lock
observed in a different order, a stale pre-decoded instruction
surviving a cross-core code write) shows up as a manifest mismatch.
"""

import pytest

from repro.cpu.engines import engine_names, get_spec, smp_engine_names
from repro.multicore import (
    assert_multicore_equivalent,
    run_differential_multicore,
    scenario_names,
)


def test_smp_tier_registry():
    names = smp_engine_names()
    assert names == ("reference", "fast")  # the oracle leads the sweep
    for name in names:
        assert get_spec(name).supports_smp
    # The trace tier inlines RAM fast paths that bypass MMIO and owns
    # the exec listener exclusively, so it is not SMP-legal.
    assert not get_spec("trace").supports_smp
    for name in set(engine_names()) - set(names):
        assert not get_spec(name).supports_smp


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
