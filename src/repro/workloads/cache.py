"""Keyed memoization of workload compilation.

Every evaluation table, equivalence sweep, fault campaign, and lint
report starts by compiling the same handful of Mini-C benchmark sources
through the full pipeline (parse -> sema -> IR -> codegen -> assemble).
The pipeline is deterministic and a :class:`~repro.cc.compiler.CompiledRisc`
image never changes after construction (``make_machine`` builds a fresh
:class:`~repro.common.memory.Memory` per call), so one compile per
distinct (source, flags) key can safely be shared by every caller in the
process.  Sharing the instance also shares its profile
(:meth:`~repro.cc.compiler.CompiledRisc.profile`): the one run per
window count whose numbers every report section reads.

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

:func:`compile_cache_info` reports the hit and miss counters alongside
the cache's size.  The counters are process-lifetime operational facts
(a ``run_all`` process shows hits accumulating as later sections reuse
earlier compiles), which is why run manifests surface them in the
non-canonical ``host`` section: they describe the process that
happened to serve a compile, never the compiled artifact.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.cc.compiler import CompiledRisc

_CACHE: dict[tuple[str, bool, bool, bool, int], "CompiledRisc"] = {}
_hits = 0
_misses = 0


def _codegen_version() -> int:
    """Engine-stack codegen version folded into every cache key."""
    from repro.cpu.traceengine import TRACE_CODEGEN_VERSION

    return TRACE_CODEGEN_VERSION


def clear_compile_cache() -> int:
    """Drop every cached compile (and reset the hit/miss counters);
    returns how many entries were dropped."""
    global _hits, _misses
    dropped = len(_CACHE)
    _CACHE.clear()
    _hits = _misses = 0
    return dropped


def compile_cache_info() -> dict[str, int]:
    """Size and hit/miss counters of the compile cache.

    ``hits`` counts lookups served from the cache, ``misses`` lookups
    that ran the full pipeline (each one stores its result).
    """
    return {"entries": len(_CACHE), "hits": _hits, "misses": _misses}


def compile_cached(
    source: str,
    *,
    use_windows: bool = True,
    optimize_delay_slots: bool = True,
    optimize_ir: bool = True,
) -> "CompiledRisc":
    """Compile *source* for RISC I, memoized on (source, codegen flags)."""
    global _hits, _misses
    from repro.cc import compile_for_risc

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
    else:
        _hits += 1
    return compiled
