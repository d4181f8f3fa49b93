"""Relocatable object format for separate assembly.

The single-file assembler is enough for the paper's experiments, but a
credible toolchain needs separate compilation: assemble modules
independently, then link.  An :class:`ObjectFile` captures a module's
image, its exported symbols, and the relocations that must be patched
once final addresses are known.

Relocation kinds:

* ``REL19``  - PC-relative 19-bit field (JMPR/CALLR targets);
* ``ABS13``  - absolute address in a 13-bit immediate field
  (r0-based addressing of low memory);
* ``HI19LO13`` - an LDHI/ADD pair produced by ``li rd, symbol``: the
  19-bit high part lives in the word at the offset, the 13-bit low part
  in the following word;
* ``WORD32`` - a full data word holding a symbol's address.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.common.bitops import fits_signed, to_signed, to_unsigned
from repro.errors import AssemblerError


class RelocKind(enum.Enum):
    REL19 = "rel19"
    ABS13 = "abs13"
    HI19LO13 = "hi19lo13"
    WORD32 = "word32"


@dataclass(frozen=True)
class Relocation:
    """A patch site: *offset* bytes into the module's image."""

    kind: RelocKind
    offset: int
    symbol: str
    addend: int = 0


@dataclass
class ObjectFile:
    """One relocatable module."""

    name: str
    image: bytearray = field(default_factory=bytearray)
    #: exported symbol -> offset within this module's image
    symbols: dict[str, int] = field(default_factory=dict)
    relocations: list[Relocation] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.image)

    def defined(self, symbol: str) -> bool:
        return symbol in self.symbols

    def undefined_symbols(self) -> set[str]:
        return {reloc.symbol for reloc in self.relocations
                if reloc.symbol not in self.symbols}


def apply_relocation(image: bytearray, reloc: Relocation, module_base: int,
                     target_address: int) -> None:
    """Patch one relocation in *image* (already placed at *module_base*)."""
    offset = reloc.offset
    value = target_address + reloc.addend
    word = int.from_bytes(image[offset : offset + 4], "big")
    if reloc.kind is RelocKind.REL19:
        displacement = value - (module_base + offset)
        if not fits_signed(displacement, 19):
            raise AssemblerError(
                f"relocation overflow: {reloc.symbol} is {displacement} bytes away"
            )
        word = (word & ~0x7FFFF) | (to_unsigned(displacement, 19) & 0x7FFFF)
        image[offset : offset + 4] = word.to_bytes(4, "big")
    elif reloc.kind is RelocKind.ABS13:
        if not fits_signed(value, 13):
            raise AssemblerError(
                f"relocation overflow: {reloc.symbol}@{value:#x} does not fit in 13 bits"
            )
        word = (word & ~0x1FFF) | (to_unsigned(value, 13) & 0x1FFF)
        image[offset : offset + 4] = word.to_bytes(4, "big")
    elif reloc.kind is RelocKind.HI19LO13:
        low = to_signed(value & 0x1FFF, 13)
        high = to_signed(((value - low) >> 13) & 0x7FFFF, 19)
        word = (word & ~0x7FFFF) | (to_unsigned(high, 19) & 0x7FFFF)
        image[offset : offset + 4] = word.to_bytes(4, "big")
        next_word = int.from_bytes(image[offset + 4 : offset + 8], "big")
        next_word = (next_word & ~0x1FFF) | (to_unsigned(low, 13) & 0x1FFF)
        image[offset + 4 : offset + 8] = next_word.to_bytes(4, "big")
    elif reloc.kind is RelocKind.WORD32:
        image[offset : offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "big")
    else:  # pragma: no cover
        raise AssemblerError(f"unknown relocation kind {reloc.kind!r}")
