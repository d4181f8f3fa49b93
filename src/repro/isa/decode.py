"""Decode 32-bit words back into :class:`~repro.isa.formats.Instruction`."""

from __future__ import annotations

from repro.common.bitops import bit_field, to_signed
from repro.errors import DecodingError
from repro.isa.formats import (
    FIELD_DEST,
    FIELD_IMM19,
    FIELD_IMMFLAG,
    FIELD_OPCODE,
    FIELD_RS1,
    FIELD_S2,
    FIELD_SCC,
    LONG_IMM_BITS,
    SHORT_IMM_BITS,
    Instruction,
)
from repro.isa.opcodes import ALL_SPECS, Format, Opcode


def decode(word: int) -> Instruction:
    """Decode *word*; raises :class:`DecodingError` for invalid opcodes."""
    if not 0 <= word < (1 << 32):
        raise DecodingError(f"instruction word {word:#x} is not 32 bits")
    code = bit_field(word, *FIELD_OPCODE)
    try:
        opcode = Opcode(code)
    except ValueError as exc:
        raise DecodingError(f"invalid opcode {code:#x} in word {word:#010x}") from exc
    spec = ALL_SPECS[opcode]
    scc = bool(bit_field(word, *FIELD_SCC))
    dest = bit_field(word, *FIELD_DEST)
    if spec.fmt is Format.LONG:
        imm19 = to_signed(bit_field(word, *FIELD_IMM19), LONG_IMM_BITS)
        return Instruction(opcode, dest=dest, scc=scc, imm19=imm19)
    rs1 = bit_field(word, *FIELD_RS1)
    imm = bool(bit_field(word, *FIELD_IMMFLAG))
    raw_s2 = bit_field(word, *FIELD_S2)
    if imm:
        s2 = to_signed(raw_s2, SHORT_IMM_BITS)
    else:
        s2 = raw_s2 & 0x1F
    return Instruction(opcode, dest=dest, rs1=rs1, s2=s2, imm=imm, scc=scc)


class CachingDecoder:
    """A memoizing instruction decoder with explicit ownership.

    Each :class:`~repro.cpu.machine.RiscMachine` constructs its own
    instance by default, so cache statistics belong to one machine and a
    fault-corrupted word observed by one machine can never satisfy a
    lookup in another.  Because :class:`Instruction` is immutable and
    decoding is a pure function of the word, a single decoder *may* be
    shared across machines deliberately (pass it to each constructor) to
    amortise decode work in multi-machine sweeps; the statistics then
    aggregate over all sharers.

    The cache is bounded with least-recently-used replacement: once
    ``max_entries`` distinct words are resident, decoding a new word
    evicts the single word whose last lookup is oldest (real programs
    hold far fewer distinct words; the bound only guards against
    adversarial fault streams, and LRU keeps the hot loop body resident
    even while such a stream churns the tail).  ``evictions`` counts
    individual evicted entries.
    """

    def __init__(self, max_entries: int = 65536):
        from collections import OrderedDict

        self.max_entries = max_entries
        self._cache: OrderedDict[int, Instruction] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def decode(self, word: int) -> Instruction:
        """Decode *word* through the cache.

        The eviction counter must stay exact even on the unusual paths
        the engines can drive: a ``max_entries`` of zero (caching
        disabled - every lookup is a miss, nothing is ever resident, and
        nothing can be *evicted*), and a bound lowered below the current
        occupancy (each subsequent miss drains the overflow one entry at
        a time, every drop counted).  Write-invalidation in the block
        engine re-decodes rewritten words through this path, so a
        drifting counter would surface as wrong ``decode_evictions`` on
        :class:`~repro.evaluation.common.BenchmarkRecord`.
        """
        inst = self._cache.get(word)
        if inst is not None:
            self.hits += 1
            self._cache.move_to_end(word)
            return inst
        self.misses += 1
        inst = decode(word)
        if self.max_entries <= 0:
            return inst
        while len(self._cache) >= self.max_entries:
            self._cache.popitem(last=False)
            self.evictions += 1
        self._cache[word] = inst
        return inst

    def decode_uncached(self, word: int) -> Instruction:
        """Decode bypassing the cache entirely.

        The machine routes words mutated by an instruction-fetch fault
        filter through this path, so a transient bit-flip neither reads a
        stale cached decode nor pollutes the cache for later fetches of
        the pristine word.
        """
        return decode(word)

    def cache_info(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._cache),
            "evictions": self.evictions,
            "max_entries": self.max_entries,
        }

    def clear(self) -> None:
        self._cache.clear()
