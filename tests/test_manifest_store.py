"""Store-key correctness: keys agree iff shared fingerprints agree.

The manifest store's whole correctness argument is that the
``risc1-repro/job-key/v1`` input key and the shared-section fingerprint
are two names for the same equivalence class: simulation is a
deterministic function of the key's inputs, so two runs share a store
key iff their shared sections are byte-identical.  These tests pin both
directions - on the pure key function (property-based) and on real
simulations across engines (concrete) - plus the store mechanics
(atomic layout, shared-byte verification, corruption), the key
``run_all --store`` derives, and the compile-cache counters.
"""

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.engines import engine_names
from repro.telemetry.store import ManifestStore, StoreIntegrityError, manifest_key
from repro.workloads import benchmark
from repro.workloads.cache import (
    clear_compile_cache,
    compile_cache_info,
    compile_cached,
)

# A tiny fast workload for the concrete simulation tests.
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

#: The same loop one iteration longer: a different program.
OTHER_SOURCE = SOURCE.replace("index < 10", "index < 11")


def _simulate(source: str, engine: str, *, workload: str = "adhoc", seed=None):
    """Run *source* on a default-config machine, as ``run_all`` does."""
    compiled = compile_cached(source)
    machine = compiled.make_machine(engine=engine)
    machine.run(compiled.program.entry)
    return machine.run_manifest(
        workload=workload, seed=seed, entry=compiled.program.entry
    )


# -- the key <-> fingerprint property ----------------------------------------

# The key inputs a caller can vary; drawing pairs of these and comparing
# keys checks both directions of the iff on the pure function.
_key_inputs = st.fixed_dictionaries({
    "workload": st.sampled_from(["alpha", "beta"]),
    "source": st.sampled_from([SOURCE, SOURCE + "\n", OTHER_SOURCE]),
})


@settings(max_examples=200, deadline=None)
@given(a=_key_inputs, b=_key_inputs)
def test_key_agrees_iff_inputs_agree(a, b):
    """Two runs share a store key iff every key input matches.

    Determinism makes the runs a pure function of these inputs, so this
    is exactly "key agrees iff shared fingerprints agree" without
    paying for 400 simulations.
    """
    key_a = manifest_key(a["workload"], a["source"])
    key_b = manifest_key(b["workload"], b["source"])
    assert (key_a == key_b) == (a == b)


def test_key_is_engine_independent():
    """The engine never enters the key: every tier's shared bytes agree."""
    shared = {
        engine: _simulate(SOURCE, engine).shared_json()
        for engine in engine_names()
    }
    assert len(set(shared.values())) == 1, sorted(shared)


def test_towers_key_is_pinned():
    """``run_all --store`` keys stay valid across releases.

    Computed with the key derivation as first released, at
    ``TRACE_CODEGEN_VERSION`` 3 (the inlined spill and refill arms; the
    key was ``b11c0ab0...`` at version 2).  A change here orphans every
    existing store directory; bump ``TRACE_CODEGEN_VERSION`` or the
    schema tag on purpose instead.
    """
    from repro.cpu.traceengine import TRACE_CODEGEN_VERSION

    assert TRACE_CODEGEN_VERSION == 3
    assert manifest_key("towers", benchmark("towers").source) == (
        "56907326199401b0b474a96832bb55569a8ef216cb33a57a4a24d316b1791abb"
    )


@pytest.mark.parametrize("variant", [
    {"workload": "other"},
    {"source": SOURCE + "\n"},
    {"source": OTHER_SOURCE},
    {"workload": "other", "source": OTHER_SOURCE},
])
def test_different_inputs_are_store_misses(tmp_path, variant):
    """Different workload label or source -> different key -> store miss."""
    base = {"workload": "adhoc", "source": SOURCE}
    other = {**base, **variant}
    store = ManifestStore(str(tmp_path))
    store.put(manifest_key(**base), _simulate(SOURCE, "reference"))
    assert manifest_key(**base) != manifest_key(**other)
    assert store.get(manifest_key(**other), "reference") is None
    assert store.stats()["misses"] == 1


def test_key_equality_matches_fingerprint_equality_end_to_end():
    """The iff, on real runs: vary one input, fingerprints diverge too."""
    fp = {
        "base": _simulate(SOURCE, "reference").fingerprint(),
        "base2": _simulate(SOURCE, "fast").fingerprint(),
        "relabelled": _simulate(SOURCE, "reference", workload="other").fingerprint(),
        "other": _simulate(OTHER_SOURCE, "reference").fingerprint(),
    }
    keys = {
        manifest_key("adhoc", SOURCE),
        manifest_key("other", SOURCE),
        manifest_key("adhoc", OTHER_SOURCE),
    }
    # same key (engine excluded) -> same fingerprint ...
    assert fp["base"] == fp["base2"]
    # ... different key -> different fingerprint
    assert len(keys) == 3
    assert len({fp["base"], fp["relabelled"], fp["other"]}) == 3


# -- cross-engine sharing ----------------------------------------------------


def test_second_engine_is_shared_hit_with_separate_sections(tmp_path):
    """Same inputs on another engine: one shared.json, two engine files.

    The lookup before the second engine's section exists is a
    *shared hit* (architectural result proven, engine counters absent);
    after both puts the entry serves both engines from one shared
    document with byte-identical shared sections.
    """
    key = manifest_key("adhoc", SOURCE)
    store = ManifestStore(str(tmp_path))

    store.put(key, _simulate(SOURCE, "reference"))
    assert store.get(key, "fast") is None  # engine section missing
    assert store.stats()["shared_hits"] == 1
    assert store.has_shared(key)

    store.put(key, _simulate(SOURCE, "fast"))
    assert store.engines(key) == ("fast", "reference")
    assert store.entry_count() == 1  # one key, not one per engine

    ref = store.get(key, "reference")
    fast = store.get(key, "fast")
    assert ref.shared_json() == fast.shared_json()
    assert ref.fingerprint() == store.shared_fingerprint(key)
    assert ref.engine == "reference" and fast.engine == "fast"
    assert ref.decode_cache != {} or fast.decode_cache != {}


def test_put_verifies_shared_bytes(tmp_path):
    """A put whose shared sections disagree with disk raises loudly."""
    key = manifest_key("adhoc", SOURCE)
    store = ManifestStore(str(tmp_path))
    store.put(key, _simulate(SOURCE, "reference"))
    impostor = _simulate(SOURCE, "reference", seed=99)
    with pytest.raises(StoreIntegrityError):
        store.put(key, impostor)
    assert store.stats()["integrity_errors"] == 1


def test_corrupt_entry_reads_as_miss(tmp_path):
    key = manifest_key("adhoc", SOURCE)
    store = ManifestStore(str(tmp_path))
    store.put(key, _simulate(SOURCE, "reference"))
    entry_dir = os.path.join(str(tmp_path), key[:2], key)
    with open(os.path.join(entry_dir, "shared.json"), "w") as handle:
        handle.write("{not json")
    assert store.get(key, "reference") is None
    assert store.stats()["integrity_errors"] == 1


def test_stored_files_are_canonical_json(tmp_path):
    """Stored bytes are the canonical serialisations, byte for byte."""
    key = manifest_key("adhoc", SOURCE)
    manifest = _simulate(SOURCE, "reference")
    store = ManifestStore(str(tmp_path))
    store.put(key, manifest)
    entry_dir = os.path.join(str(tmp_path), key[:2], key)
    with open(os.path.join(entry_dir, "shared.json")) as handle:
        assert handle.read() == manifest.shared_json()
    with open(os.path.join(entry_dir, "engine-reference.json")) as handle:
        section = json.load(handle)
    assert section["engine"] == "reference"
    assert section["decode_cache"] == manifest.decode_cache


def test_store_rejects_bad_keys_and_engine_names(tmp_path):
    store = ManifestStore(str(tmp_path))
    with pytest.raises(ValueError):
        store.get("deadbeef", "reference")  # not 64 hex chars
    with pytest.raises(ValueError):
        store.get("g" * 64, "reference")
    with pytest.raises(ValueError):
        store.get("0" * 64, "../escape")


def test_codegen_version_invalidates_workload_fingerprint(monkeypatch):
    """A codegen bump must miss every stored entry, like the compile cache."""
    import repro.cpu.traceengine as traceengine

    before = manifest_key("adhoc", SOURCE)
    monkeypatch.setattr(
        traceengine, "TRACE_CODEGEN_VERSION",
        traceengine.TRACE_CODEGEN_VERSION + 1,
    )
    assert manifest_key("adhoc", SOURCE) != before


# -- run_all --store ---------------------------------------------------------


def test_run_all_manifest_reuses_store(tmp_path):
    from repro.evaluation.run_all import write_manifest

    store_dir = str(tmp_path / "store")
    out1, out2 = str(tmp_path / "m1.json"), str(tmp_path / "m2.json")
    names = ("towers",)
    write_manifest(out1, names, engine="fast", store=store_dir)

    # Preload proof: the store now answers the towers key.
    store = ManifestStore(store_dir)
    key = manifest_key("towers", benchmark("towers").source)
    assert store.get(key, "fast") is not None

    # mtimes unchanged across the second run -> no re-simulation.
    paths = {}
    for root, _dirs, files in os.walk(store_dir):
        for name in files:
            path = os.path.join(root, name)
            paths[path] = os.stat(path).st_mtime_ns
    write_manifest(out2, names, engine="fast", store=store_dir)
    for path, mtime in paths.items():
        assert os.stat(path).st_mtime_ns == mtime
    with open(out1, "rb") as a, open(out2, "rb") as b:
        assert a.read() == b.read()


# -- compile-cache counters --------------------------------------------------


def test_compile_cache_counters_track_hits_misses_stores():
    clear_compile_cache()
    info = compile_cache_info()
    assert (info["hits"], info["misses"], info["stores"]) == (0, 0, 0)

    compile_cached(SOURCE)
    info = compile_cache_info()
    assert info["misses"] == 1 and info["stores"] == 1 and info["hits"] == 0

    compile_cached(SOURCE)
    info = compile_cache_info()
    assert info["hits"] == 1 and info["misses"] == 1  # warm reuse

    compile_cached(SOURCE, use_windows=False)  # different cache key
    assert compile_cache_info()["misses"] == 2
    clear_compile_cache()
    assert compile_cache_info()["hits"] == 0


def test_manifest_host_section_carries_compile_cache_counters():
    clear_compile_cache()
    from repro.telemetry.manifest import capture_manifest

    compiled = compile_cached(SOURCE)
    machine = compiled.make_machine()
    machine.run(compiled.program.entry)
    manifest = capture_manifest(machine, workload="adhoc")
    cache = manifest.host["compile_cache"]
    assert cache["entries"] >= 1 and cache["stores"] >= 1
    # Host facts never enter the canonical/fingerprinted forms.
    assert "host" not in json.loads(manifest.shared_json())
    assert "host" not in json.loads(manifest.canonical_json())
    assert "host" in manifest.as_dict(include_host=True)
