"""Parallel executors and the workload compile cache.

The campaign/evaluation parallel paths must be *byte-identical* to
their serial counterparts - parallelism may only change wall-clock
time, never a single result byte - and the compile cache must be
transparent (same artifacts, just fewer pipeline runs), with hit and
miss counters that stay out of every canonical manifest form.
"""

import json

from repro.cc import compile_for_risc
from repro.faults.campaign import CampaignConfig, run_campaign
from repro.workloads import benchmark
from repro.workloads.cache import (
    clear_compile_cache,
    compile_cache_info,
    compile_cached,
)

# A tiny fast workload for the counter tests.
SOURCE = """
int main(void) {
    int total;
    int index;
    total = 0;
    for (index = 0; index < 10; index = index + 1) {
        total = total + index;
    }
    return total;
}
"""


class TestParallelCampaign:
    def test_parallel_fingerprint_matches_serial(self):
        config = CampaignConfig(seed=321, injections=6, benchmarks=("towers",))
        serial = run_campaign(config)
        parallel = run_campaign(config, workers=2)
        assert serial.fingerprint() == parallel.fingerprint()
        assert serial.as_records() == parallel.as_records()
        assert list(serial.golden) == list(parallel.golden)

    def test_workers_one_is_serial(self):
        config = CampaignConfig(seed=321, injections=4, benchmarks=("towers",))
        assert (
            run_campaign(config, workers=1).fingerprint()
            == run_campaign(config).fingerprint()
        )


class TestCompileCache:
    def test_same_key_shares_compile(self):
        clear_compile_cache()
        source = benchmark("towers").source
        first = compile_cached(source)
        second = compile_cached(source)
        assert first is second

    def test_flags_are_part_of_the_key(self):
        source = benchmark("towers").source
        windowed = compile_cached(source, use_windows=True)
        flat = compile_cached(source, use_windows=False)
        assert windowed is not flat
        assert windowed.use_windows and not flat.use_windows

    def test_cached_artifact_matches_direct_compile(self):
        source = benchmark("towers").source
        cached = compile_cached(source)
        fresh = compile_for_risc(source)
        assert fresh is not cached
        # ... but the artifact is identical: the pipeline is a pure
        # function of (source, flags).
        assert fresh.asm_source == cached.asm_source
        assert fresh.program.to_words() == cached.program.to_words()
        assert compile_cached(source) is cached

    def test_counters_track_hits_and_misses(self):
        clear_compile_cache()
        assert compile_cache_info() == {"entries": 0, "hits": 0, "misses": 0}

        compile_cached(SOURCE)
        assert compile_cache_info() == {"entries": 1, "hits": 0, "misses": 1}

        compile_cached(SOURCE)  # warm reuse
        assert compile_cache_info() == {"entries": 1, "hits": 1, "misses": 1}

        compile_cached(SOURCE, use_windows=False)  # different cache key
        assert compile_cache_info()["misses"] == 2
        clear_compile_cache()
        assert compile_cache_info()["hits"] == 0

    def test_manifest_host_section_carries_counters(self):
        clear_compile_cache()
        from repro.telemetry.manifest import capture_manifest

        compiled = compile_cached(SOURCE)
        machine = compiled.make_machine()
        machine.run(compiled.program.entry)
        manifest = capture_manifest(machine, workload="adhoc")
        cache = manifest.host["compile_cache"]
        assert cache["entries"] >= 1 and cache["misses"] >= 1
        # Host facts never enter the canonical/fingerprinted forms.
        assert "host" not in json.loads(manifest.shared_json())
        assert "host" not in json.loads(manifest.canonical_json())
        assert "host" in manifest.as_dict(include_host=True)

    def test_cached_machines_are_independent(self):
        source = benchmark("towers").source
        compiled = compile_cached(source)
        first = compiled.make_machine()
        second = compiled.make_machine()
        assert first.memory is not second.memory
        first.memory.store_word(0x9000, 42)
        assert second.memory.load_word(0x9000, count=False) == 0
