"""On-disk manifest store: content-addressed simulation results.

One directory per store key (:func:`manifest_key`), two kinds of file
inside it::

    <dir>/<key[:2]>/<key>/shared.json        canonical shared sections
    <dir>/<key[:2]>/<key>/engine-<name>.json canonical simulation section

``shared.json`` is exactly :meth:`RunManifest.shared_json` - the
engine-independent, SHA-256-fingerprinted portion of the manifest - and
each ``engine-*.json`` is the per-engine ``simulation`` section.  The
split mirrors the manifest determinism classes: engines *must* agree on
the shared bytes (the store verifies this on every write and refuses a
mismatch - a failed write here means a determinism bug, not a cache
problem), while simulation sections differ per engine and are kept
separate.  A full cache hit needs both files; a lookup for a new
engine under a known key is a *shared hit*: the architectural result is
already on disk, only the engine's own counters are missing.

Writes are atomic (temp file + ``os.replace`` in the same directory),
so concurrent writers - ``run_all --store`` worker pools - can share a
store without locks: the worst case is two processes computing the same
bytes and one rename winning.

Key derivation (``risc1-repro/job-key/v1``):

* ``workload fingerprint`` - SHA-256 over the canonical JSON of the
  Mini-C source, the codegen flags, and the engine stack's
  ``TRACE_CODEGEN_VERSION`` (the same version the in-process compile
  cache folds into its keys, so a codegen change invalidates both
  caches together);
* ``key`` - SHA-256 over the canonical JSON of the workload label, the
  workload fingerprint, the seed and the machine config.  The seed and
  config are always the defaults ``run_all`` runs with.
  **Engine-independent**: every engine must produce byte-identical
  shared sections for the same key, which is what lets the store keep
  one ``shared.json`` per key with per-engine simulation sections
  beside it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass

from repro.telemetry.manifest import ManifestError, RunManifest

__all__ = [
    "JOB_KEY_SCHEMA",
    "ManifestStore",
    "StoreIntegrityError",
    "manifest_key",
]

#: Version tag folded into every store key; bump on incompatible change.
JOB_KEY_SCHEMA = "risc1-repro/job-key/v1"

#: The machine configuration every keyed run uses: the defaults of
#: ``CompiledRisc.make_machine()`` and ``RiscMachine.run()``.
_DEFAULT_CONFIG = {
    "num_windows": 8,
    "memory_size": 1 << 20,
    "max_steps": 20_000_000,
    "use_windows": True,
}


def _sha256_canonical(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def manifest_key(workload: str, source: str) -> str:
    """The engine-independent store key (64-char hex) of one run.

    The run compiles *source* with the default codegen flags and runs
    it on a default-config machine with no seed, under the manifest
    label *workload*.  Everything that can change a shared manifest
    byte is in here; the engine deliberately is not (per-engine
    simulation sections are stored beside one shared document).
    """
    from repro.cpu.traceengine import TRACE_CODEGEN_VERSION

    workload_fingerprint = _sha256_canonical({
        "source": source,
        "use_windows": _DEFAULT_CONFIG["use_windows"],
        "optimize_delay_slots": True,
        "optimize_ir": True,
        "codegen_version": TRACE_CODEGEN_VERSION,
    })
    return _sha256_canonical({
        "schema": JOB_KEY_SCHEMA,
        "workload": workload,
        "workload_fingerprint": workload_fingerprint,
        "seed": None,
        "config": _DEFAULT_CONFIG,
    })


class StoreIntegrityError(RuntimeError):
    """Stored shared bytes disagree with a freshly simulated manifest.

    This can only happen when two runs with the same store key produced
    different architectural results - a determinism violation the store
    must surface loudly rather than paper over.
    """


@dataclass
class _StoreCounters:
    hits: int = 0
    shared_hits: int = 0
    misses: int = 0
    stores: int = 0
    integrity_errors: int = 0


class ManifestStore:
    """Content-addressed directory of canonical-JSON run manifests.

    Args:
        root: store directory (created on first use).
    """

    _SHARED = "shared.json"

    def __init__(self, root: str) -> None:
        self.root = root
        self._counters = _StoreCounters()

    # -- paths ---------------------------------------------------------------

    def _entry_dir(self, key: str) -> str:
        if len(key) != 64 or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"store key must be a 64-char hex digest: {key!r}")
        return os.path.join(self.root, key[:2], key)

    def _engine_file(self, key: str, engine: str) -> str:
        if not engine or "/" in engine or engine.startswith("."):
            raise ValueError(f"bad engine name for store lookup: {engine!r}")
        return os.path.join(self._entry_dir(key), f"engine-{engine}.json")

    @staticmethod
    def _write_atomic(path: str, text: str) -> None:
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        fd, temp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(temp, path)
        except BaseException:
            try:
                os.unlink(temp)
            except FileNotFoundError:
                pass
            raise

    @staticmethod
    def _read(path: str) -> str | None:
        try:
            with open(path) as handle:
                return handle.read()
        except FileNotFoundError:
            return None

    # -- lookups -------------------------------------------------------------

    def get(self, key: str, engine: str) -> RunManifest | None:
        """The cached manifest for (*key*, *engine*), or ``None``.

        A miss with the shared sections present is counted as a
        ``shared_hit`` as well: a different engine already proved the
        architectural result, only this engine's simulation section is
        missing.
        """
        engine_path = self._engine_file(key, engine)  # validates both names
        shared_text = self._read(os.path.join(self._entry_dir(key), self._SHARED))
        if shared_text is None:
            self._counters.misses += 1
            return None
        engine_text = self._read(engine_path)
        if engine_text is None:
            self._counters.shared_hits += 1
            self._counters.misses += 1
            return None
        try:
            doc = json.loads(shared_text)
            doc["simulation"] = json.loads(engine_text)
            manifest = RunManifest.from_dict(doc)
        except (ValueError, ManifestError):
            # Defensive: atomic writes should make this unreachable, but
            # a corrupted entry must read as a miss, never as a crash.
            self._counters.integrity_errors += 1
            self._counters.misses += 1
            return None
        self._counters.hits += 1
        return manifest

    def has_shared(self, key: str) -> bool:
        """Whether the architectural (shared) result of *key* is stored."""
        return os.path.exists(os.path.join(self._entry_dir(key), self._SHARED))

    def shared_fingerprint(self, key: str) -> str | None:
        """Fingerprint of the stored shared sections of *key*, if any.

        The stored bytes *are* :meth:`RunManifest.shared_json`, so this
        is exactly :meth:`RunManifest.fingerprint` of the cached run.
        """
        text = self._read(os.path.join(self._entry_dir(key), self._SHARED))
        if text is None:
            return None
        return hashlib.sha256(text.encode()).hexdigest()

    def engines(self, key: str) -> tuple[str, ...]:
        """Engine names with a stored simulation section under *key*."""
        try:
            names = os.listdir(self._entry_dir(key))
        except FileNotFoundError:
            return ()
        return tuple(sorted(
            name[len("engine-"):-len(".json")]
            for name in names
            if name.startswith("engine-") and name.endswith(".json")
        ))

    # -- writes --------------------------------------------------------------

    def put(self, key: str, manifest: RunManifest) -> None:
        """Persist *manifest* under *key*.

        Verifies byte-identity against any already-stored shared
        sections (raising :class:`StoreIntegrityError` on disagreement)
        and writes the engine's simulation section beside them.
        """
        entry = self._entry_dir(key)
        shared_path = os.path.join(entry, self._SHARED)
        shared_text = manifest.shared_json()
        existing = self._read(shared_path)
        if existing is None:
            self._write_atomic(shared_path, shared_text)
        elif existing != shared_text:
            self._counters.integrity_errors += 1
            raise StoreIntegrityError(
                f"stored shared sections for key {key[:16]}... disagree with "
                "the freshly simulated manifest - determinism violation "
                f"(stored fingerprint {self.shared_fingerprint(key)}, "
                f"new fingerprint {manifest.fingerprint()})"
            )
        simulation = {
            "engine": manifest.engine,
            "decode_cache": dict(manifest.decode_cache),
            "engine_detail": dict(manifest.engine_detail),
        }
        self._write_atomic(
            self._engine_file(key, manifest.engine),
            json.dumps(simulation, sort_keys=True),
        )
        self._counters.stores += 1

    # -- introspection -------------------------------------------------------

    def entry_count(self) -> int:
        """Number of distinct keys currently stored."""
        try:
            shards = os.listdir(self.root)
        except FileNotFoundError:
            return 0
        return sum(
            len(os.listdir(path))
            for path in (os.path.join(self.root, shard) for shard in shards)
            if os.path.isdir(path)
        )

    def stats(self) -> dict:
        """Counters + occupancy, JSON-friendly."""
        counters = self._counters
        return {
            "root": self.root,
            "entries": self.entry_count(),
            "hits": counters.hits,
            "shared_hits": counters.shared_hits,
            "misses": counters.misses,
            "stores": counters.stores,
            "integrity_errors": counters.integrity_errors,
        }
