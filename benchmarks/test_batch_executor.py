"""Throughput of the numpy lockstep executor against serial scalar runs.

One "trial" is a full run of a small call-heavy workload (~455 dynamic
instructions) from reset to halt - the shape a fault campaign executes
thousands of times.  Each lane count times the same N trials twice:
once stepped serially on the reference interpreter, once as lanes of
one :class:`repro.cpu.batch.BatchExecutor`, so the serial/batch mean
ratio is a host-independent speedup (the ``batch-vs-serial`` entry in
``ci/perf_baseline.json`` gates the N=256 point).

CI runs this file with ``--benchmark-json BENCH_batch.json``; the whole
module skips when numpy is absent (``pip install .[batch]``).
"""

import pytest

from repro.cpu import batch
from repro.workloads.cache import compile_cached

pytestmark = pytest.mark.skipif(
    not batch.available(), reason="numpy not installed (pip install .[batch])"
)

SOURCE = """
int mix(int a, int b) {
    return a + b + (a - (b + b));
}

int main() {
    int s = 1;
    int i;
    for (i = 0; i < 20; i = i + 1) {
        s = mix(s, i) + 1;
    }
    return s;
}
"""
EXPECTED_RESULT = 1048596

#: 64 KiB per lane keeps the N=4096 image matrix at 256 MB.
MEMORY_SIZE = 1 << 16
LANE_COUNTS = (16, 256, 4096)
#: Serial N=4096 costs ~10s; one round is plenty for a ratio gate.
ROUNDS = {16: 5, 256: 3, 4096: 1}


def _fresh_machines(n):
    compiled = compile_cached(SOURCE)
    machines = []
    for _ in range(n):
        machine = compiled.make_machine(memory_size=MEMORY_SIZE, engine="reference")
        machine.reset(compiled.program.entry)
        machines.append(machine)
    return machines


def _check(machines):
    for machine in machines:
        assert machine.halted is not None
        assert machine.result == EXPECTED_RESULT


@pytest.mark.parametrize("n", LANE_COUNTS)
def test_serial_reference_throughput(benchmark, n):
    def run(machines):
        for machine in machines:
            while machine.halted is None:
                machine.step()
        return machines

    machines = benchmark.pedantic(
        run, setup=lambda: ((_fresh_machines(n),), {}),
        rounds=ROUNDS[n], iterations=1,
    )
    _check(machines)
    benchmark.extra_info["lanes"] = n
    benchmark.extra_info["mode"] = "serial"


@pytest.mark.parametrize("n", LANE_COUNTS)
def test_batch_lockstep_throughput(benchmark, n):
    def run(machines):
        batch.run_batch(machines)
        return machines

    machines = benchmark.pedantic(
        run, setup=lambda: ((_fresh_machines(n),), {}),
        rounds=ROUNDS[n], iterations=1,
    )
    _check(machines)
    benchmark.extra_info["lanes"] = n
    benchmark.extra_info["mode"] = "batch"
