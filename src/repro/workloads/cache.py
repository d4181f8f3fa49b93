"""Keyed memoization of workload compilation.

Every evaluation table, equivalence sweep, fault campaign, and lint
report starts by compiling the same handful of Mini-C benchmark sources
through the full pipeline (parse -> sema -> IR -> codegen -> assemble).
The pipeline is deterministic and :class:`~repro.cc.compiler.CompiledRisc`
is immutable after construction (``make_machine`` builds a fresh
:class:`~repro.common.memory.Memory` per call), so one compile per
distinct (source, flags) key can safely be shared by every caller in the
process.

:func:`compile_cached` is the drop-in for the common
``compile_for_risc(source, ...)`` call; keys are the source text, the
three codegen flags, and the engine stack's codegen version
(:data:`repro.cpu.traceengine.TRACE_CODEGEN_VERSION`).  The version is
part of the key so that bumping it - the required step whenever the
trace tier's generated-source scheme changes - can never serve a
``CompiledRisc`` whose cached artifacts (trace closures hanging off a
``Memory`` execution listener, manifests) were built
under the previous scheme.  Callers that need ``verify=True`` or a
pre-checked AST keep calling :func:`repro.cc.compile_for_risc`
directly.

The cache can be bypassed - the assembler/compiler test suites measure
the *pipeline*, not the cache - either per-process via the
``REPRO_NO_COMPILE_CACHE`` environment variable (any non-empty value) or
in code with :func:`set_cache_enabled` / the :func:`compile_cache_disabled`
context manager.

:func:`compile_cache_info` reports hit/miss/store counters alongside
size and enablement.  The counters are process-lifetime operational
facts (a long-lived service worker shows hits accumulating as it stays
warm), which is why run manifests surface them in the non-canonical
``host`` section: they describe the process that happened to serve a
compile, never the compiled artifact.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.cc.compiler import CompiledRisc

#: set to any non-empty value to bypass the cache process-wide
ENV_DISABLE = "REPRO_NO_COMPILE_CACHE"

_CACHE: dict[tuple[str, bool, bool, bool, int], "CompiledRisc"] = {}
_enabled = True
_hits = 0
_misses = 0
_stores = 0


def _codegen_version() -> int:
    """Engine-stack codegen version folded into every cache key."""
    from repro.cpu.traceengine import TRACE_CODEGEN_VERSION

    return TRACE_CODEGEN_VERSION


def cache_enabled() -> bool:
    """True when lookups may be served from (and stored to) the cache."""
    return _enabled and not os.environ.get(ENV_DISABLE)


def set_cache_enabled(enabled: bool) -> bool:
    """Turn the cache on or off; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


@contextmanager
def compile_cache_disabled() -> Iterator[None]:
    """Scope within which every compile runs the full pipeline."""
    previous = set_cache_enabled(False)
    try:
        yield
    finally:
        set_cache_enabled(previous)


def clear_compile_cache() -> int:
    """Drop every cached compile (and reset the hit/miss/store counters);
    returns how many entries were dropped."""
    global _hits, _misses, _stores
    dropped = len(_CACHE)
    _CACHE.clear()
    _hits = _misses = _stores = 0
    return dropped


def compile_cache_info() -> dict[str, int | bool]:
    """Size, enablement, and hit/miss/store counters of the compile cache.

    ``hits`` counts lookups served from the cache, ``misses`` lookups
    that ran the full pipeline while the cache was enabled, and
    ``stores`` the subset of misses whose result was retained (always
    equal to ``misses`` today, but kept separate so an eviction policy
    cannot silently skew the ratio).  Bypassed compiles (cache disabled)
    touch no counter.
    """
    return {
        "entries": len(_CACHE),
        "enabled": cache_enabled(),
        "hits": _hits,
        "misses": _misses,
        "stores": _stores,
    }


def compile_cached(
    source: str,
    *,
    use_windows: bool = True,
    optimize_delay_slots: bool = True,
    optimize_ir: bool = True,
) -> "CompiledRisc":
    """Compile *source* for RISC I, memoized on (source, codegen flags)."""
    global _hits, _misses, _stores
    from repro.cc import compile_for_risc

    if not cache_enabled():
        return compile_for_risc(
            source,
            use_windows=use_windows,
            optimize_delay_slots=optimize_delay_slots,
            optimize_ir=optimize_ir,
        )
    key = (
        source,
        use_windows,
        optimize_delay_slots,
        optimize_ir,
        _codegen_version(),
    )
    compiled = _CACHE.get(key)
    if compiled is None:
        _misses += 1
        compiled = compile_for_risc(
            source,
            use_windows=use_windows,
            optimize_delay_slots=optimize_delay_slots,
            optimize_ir=optimize_ir,
        )
        _CACHE[key] = compiled
        _stores += 1
    else:
        _hits += 1
    return compiled
