"""Encode :class:`~repro.isa.formats.Instruction` objects into 32-bit words."""

from __future__ import annotations

from repro.common.bitops import fits_signed, to_unsigned
from repro.errors import EncodingError
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
from repro.isa.opcodes import ALL_SPECS, Format


def _place(lo_width: tuple[int, int], value: int) -> int:
    lo, width = lo_width
    return (value & ((1 << width) - 1)) << lo


def _check_reg(name: str, value: int) -> None:
    if not 0 <= value < 32:
        raise EncodingError(f"{name} register {value} out of range 0..31")


def encode(inst: Instruction) -> int:
    """Encode *inst*; raises :class:`EncodingError` on out-of-range fields."""
    spec = ALL_SPECS.get(inst.opcode)
    if spec is None:
        raise EncodingError(f"unknown opcode {inst.opcode!r}")
    _check_reg("dest", inst.dest)
    word = _place(FIELD_OPCODE, int(inst.opcode)) | _place(FIELD_SCC, int(inst.scc))
    word |= _place(FIELD_DEST, inst.dest)
    if spec.fmt is Format.LONG:
        if not fits_signed(inst.imm19, LONG_IMM_BITS):
            raise EncodingError(f"imm19 value {inst.imm19} does not fit in 19 bits")
        word |= _place(FIELD_IMM19, to_unsigned(inst.imm19, LONG_IMM_BITS))
        return word
    _check_reg("rs1", inst.rs1)
    word |= _place(FIELD_RS1, inst.rs1)
    if inst.imm:
        if not fits_signed(inst.s2, SHORT_IMM_BITS):
            raise EncodingError(f"immediate {inst.s2} does not fit in 13 bits")
        word |= _place(FIELD_IMMFLAG, 1)
        word |= _place(FIELD_S2, to_unsigned(inst.s2, SHORT_IMM_BITS))
    else:
        _check_reg("rs2", inst.s2)
        word |= _place(FIELD_S2, inst.s2)
    return word
