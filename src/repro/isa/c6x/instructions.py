"""Instruction set of the C6x-like VLIW target.

Operations carry exposed-pipeline delay slots (branch 5, load 4,
multiply 1); results are architecturally visible only after the delay,
and until then readers observe the old register value.  The scheduler
must honour this; the simulator's strict mode flags violations.

Operand conventions (mirroring the IR):

* ALU ops: ``dst``, ``src1`` and either ``src2`` (register) or ``imm``;
* ``MVK``/``MVKL`` sign-extended 16-bit constant, ``MVKH`` sets the
  upper halfword preserving the lower;
* loads: ``dst``, base register ``src1``, byte offset ``imm``;
* stores: value ``src1``, base ``src2``, byte offset ``imm``;
* ``B``: label string in ``target`` (resolved to a packet index at
  finalization) or register ``src1`` (indirect);
* every instruction may be predicated on ``pred`` (non-zero test,
  ``pred_sense=False`` inverts).

Documented relaxations versus the real C6201 are listed in
:mod:`repro.isa.c6x.units` and in ``docs/ir.md`` ("The C6x op
table": 16-bit immediates, full comparison set, 15-bit load/store
offsets, 32x32 multiply).

What every op computes is declared once, below: :data:`VALUE_OPS`
(register results), :data:`LOADS` and :data:`STORES` (memory widths and
sign extension) and :func:`delay_slots`.  The interpretive core and
both code emitters render from these tables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import NamedTuple

from repro.arch.model import TargetArch
from repro.isa.c6x.registers import reg_name
from repro.isa.c6x.units import Unit


class TOp(enum.Enum):
    MV = "mv"
    MVK = "mvk"
    MVKL = "mvkl"
    MVKH = "mvkh"
    ADD = "add"
    SUB = "sub"
    MPY = "mpy"
    AND = "and"
    OR = "or"
    XOR = "xor"
    ANDN = "andn"
    SHL = "shl"
    SHRU = "shru"
    SHRA = "shra"
    MIN = "min"
    MAX = "max"
    ABS = "abs"
    CMPEQ = "cmpeq"
    CMPNE = "cmpne"
    CMPLT = "cmplt"
    CMPLTU = "cmpltu"
    CMPGE = "cmpge"
    CMPGEU = "cmpgeu"
    LDW = "ldw"
    LDH = "ldh"
    LDHU = "ldhu"
    LDB = "ldb"
    LDBU = "ldbu"
    STW = "stw"
    STH = "sth"
    STB = "stb"
    B = "b"
    NOP = "nop"
    HALT = "halt"


class ValueOp(NamedTuple):
    """How one register-producing op renders: a Python and a C
    expression template (``None``: the C emitter declines the op)."""

    py: str
    c: str | None


#: Result of every register-producing non-memory op, as expression
#: templates over named operands.  Registers are unsigned 32-bit
#: values; the Python column masks its result to 32 bits and the C
#: column computes in ``uint32_t``.  The operands:
#:
#: * ``{a}`` — ``src1`` (0 when absent);
#: * ``{b}`` — raw ``src2``, or the immediate as written (may be
#:   negative); ``{bu}`` — the same, unsigned; ``{bs}`` — signed;
#: * ``{sh}`` — the shift count, ``b & 31``;
#: * ``{imm}`` — the unsigned immediate, ``{high}`` — the immediate
#:   shifted into the upper halfword, ``{d}`` — the old ``dst`` value
#:   (the ``MVK`` family).
VALUE_OPS: dict[TOp, ValueOp] = {
    TOp.MVK: ValueOp("{imm}", "{imm}"),
    TOp.MVKL: ValueOp("{imm}", "{imm}"),
    TOp.MVKH: ValueOp("{high} | ({d} & 0xFFFF)",
                      "{high} | ({d} & 0xFFFFu)"),
    TOp.MV: ValueOp("{a}", "{a}"),
    TOp.ABS: ValueOp(
        "((0x100000000 - {a}) & 0xFFFFFFFF) if {a} & 0x80000000 else {a}",
        "(({a} & 0x80000000u) ? (0u - {a}) : {a})"),
    TOp.ADD: ValueOp("({a} + {b}) & 0xFFFFFFFF", "{a} + {bu}"),
    TOp.SUB: ValueOp("({a} - {b}) & 0xFFFFFFFF", "{a} - {bu}"),
    TOp.MPY: ValueOp(
        "(s32({a}) * {bs}) & 0xFFFFFFFF",
        "(uint32_t)((int64_t)((int32_t){a}) * (int64_t)({bs}))"),
    TOp.AND: ValueOp("{a} & {bu}", "{a} & {bu}"),
    TOp.OR: ValueOp("{a} | {bu}", "{a} | {bu}"),
    TOp.XOR: ValueOp("{a} ^ {bu}", "{a} ^ {bu}"),
    TOp.ANDN: ValueOp("({a} & ~{bu}) & 0xFFFFFFFF", "{a} & ~{bu}"),
    TOp.SHL: ValueOp("({a} << {sh}) & 0xFFFFFFFF", "{a} << {sh}"),
    TOp.SHRU: ValueOp("{a} >> {sh}", "{a} >> {sh}"),
    TOp.SHRA: ValueOp("(s32({a}) >> {sh}) & 0xFFFFFFFF",
                      "(uint32_t)(((int32_t){a}) >> {sh})"),
    TOp.MIN: ValueOp(
        "min(s32({a}), {bs}) & 0xFFFFFFFF",
        "(uint32_t)((((int32_t){a}) < ({bs})) ? ((int32_t){a}) : ({bs}))"),
    TOp.MAX: ValueOp(
        "max(s32({a}), {bs}) & 0xFFFFFFFF",
        "(uint32_t)((((int32_t){a}) > ({bs})) ? ((int32_t){a}) : ({bs}))"),
    TOp.CMPEQ: ValueOp("1 if {a} == {bu} else 0", "({a} == {bu}) ? 1u : 0u"),
    TOp.CMPNE: ValueOp("1 if {a} != {bu} else 0", "({a} != {bu}) ? 1u : 0u"),
    TOp.CMPLT: ValueOp("1 if s32({a}) < {bs} else 0",
                       "(((int32_t){a}) < ({bs})) ? 1u : 0u"),
    TOp.CMPLTU: ValueOp("1 if {a} < {bu} else 0", "({a} < {bu}) ? 1u : 0u"),
    TOp.CMPGE: ValueOp("1 if s32({a}) >= {bs} else 0",
                       "(((int32_t){a}) >= ({bs})) ? 1u : 0u"),
    TOp.CMPGEU: ValueOp("1 if {a} >= {bu} else 0",
                        "({a} >= {bu}) ? 1u : 0u"),
}


class Load(NamedTuple):
    """Access width in bytes, and the width of the value that is
    sign-extended to 32 bits (0: zero-extended)."""

    size: int
    sign_bits: int = 0

    def sign_fix(self) -> tuple[int, int] | None:
        """``(sign bit, fill)``: when the loaded value has the sign bit
        set, OR in the fill; ``None`` for a zero-extending load."""
        bits = self.sign_bits
        if not bits:
            return None
        return 1 << (bits - 1), 0xFFFFFFFF ^ ((1 << bits) - 1)


#: Every load: its width and sign extension.
LOADS: dict[TOp, Load] = {
    TOp.LDW: Load(4),
    TOp.LDH: Load(2, 16),
    TOp.LDHU: Load(2),
    TOp.LDB: Load(1, 8),
    TOp.LDBU: Load(1),
}
#: Every store: its width in bytes (the low bytes of ``src1``).
STORES: dict[TOp, int] = {TOp.STW: 4, TOp.STH: 2, TOp.STB: 1}

LOAD_TOPS = frozenset(LOADS)
STORE_TOPS = frozenset(STORES)
MEMORY_TOPS = LOAD_TOPS | STORE_TOPS

#: unit kinds each operation may execute on.
UNIT_KINDS: dict[TOp, tuple[str, ...]] = {
    TOp.MV: ("L", "S", "D"),
    TOp.MVK: ("S", "L"),
    TOp.MVKL: ("S", "L"),
    TOp.MVKH: ("S", "L"),
    TOp.ADD: ("L", "S", "D"),
    TOp.SUB: ("L", "S", "D"),
    TOp.MPY: ("M",),
    TOp.AND: ("L", "S", "D"),
    TOp.OR: ("L", "S", "D"),
    TOp.XOR: ("L", "S", "D"),
    TOp.ANDN: ("L", "S", "D"),
    TOp.SHL: ("S",),
    TOp.SHRU: ("S",),
    TOp.SHRA: ("S",),
    TOp.MIN: ("L",),
    TOp.MAX: ("L",),
    TOp.ABS: ("L",),
    TOp.CMPEQ: ("L",),
    TOp.CMPNE: ("L",),
    TOp.CMPLT: ("L",),
    TOp.CMPLTU: ("L",),
    TOp.CMPGE: ("L",),
    TOp.CMPGEU: ("L",),
    TOp.LDW: ("D",),
    TOp.LDH: ("D",),
    TOp.LDHU: ("D",),
    TOp.LDB: ("D",),
    TOp.LDBU: ("D",),
    TOp.STW: ("D",),
    TOp.STH: ("D",),
    TOp.STB: ("D",),
    TOp.B: ("S",),
    TOp.NOP: (),
    TOp.HALT: ("S",),
}


def delay_slots(op: TOp, target: TargetArch) -> int:
    """Architectural delay slots of *op*.

    *target* is a :class:`TargetArch` or anything else that carries its
    three ``*_delay_slots`` fields (the code generator's lowering
    parameters do).
    """
    if op is TOp.B:
        return target.branch_delay_slots
    if op in LOAD_TOPS:
        return target.load_delay_slots
    if op is TOp.MPY:
        return target.mul_delay_slots
    return 0


class TRole(enum.Enum):
    """Why the translator emitted this target instruction."""

    PROGRAM = "program"
    SYNC_START = "sync_start"
    SYNC_WAIT = "sync_wait"
    CORR_ADD = "corr_add"
    CORR_START = "corr_start"
    CORR_WAIT = "corr_wait"
    CORR_RESET = "corr_reset"
    CACHE = "cache"
    ADDR_FIXUP = "addr_fixup"
    PROLOGUE = "prologue"
    DEBUG = "debug"
    NOPPAD = "noppad"


@dataclass
class TargetInstr:
    """One target instruction inside an execute packet."""

    op: TOp
    unit: Unit | None = None
    dst: int | None = None
    src1: int | None = None
    src2: int | None = None
    imm: int | None = None
    pred: int | None = None
    pred_sense: bool = True
    target: str | None = None  # branch label / MVK label reference
    role: TRole = TRole.PROGRAM
    src_addr: int | None = None
    comment: str = ""
    #: device-ordered memory operation (I/O or sync device)
    device: bool = False

    def is_load(self) -> bool:
        return self.op in LOAD_TOPS

    def is_store(self) -> bool:
        return self.op in STORE_TOPS

    def is_memory(self) -> bool:
        return self.op in MEMORY_TOPS

    def is_branch(self) -> bool:
        return self.op is TOp.B

    def reads(self) -> tuple[int, ...]:
        regs: list[int] = []
        if self.op in STORE_TOPS:
            if self.src1 is not None:
                regs.append(self.src1)
            if self.src2 is not None:
                regs.append(self.src2)
        elif self.op is TOp.B:
            if self.src1 is not None:
                regs.append(self.src1)
        elif self.op is TOp.MVKH:
            if self.dst is not None:
                regs.append(self.dst)  # preserves the low halfword
        elif self.op not in (TOp.MVK, TOp.MVKL, TOp.NOP, TOp.HALT):
            if self.src1 is not None:
                regs.append(self.src1)
            if self.src2 is not None:
                regs.append(self.src2)
        if self.pred is not None:
            regs.append(self.pred)
        return tuple(regs)

    def writes(self) -> tuple[int, ...]:
        return (self.dst,) if self.dst is not None else ()

    def retargeted(self, label: str) -> "TargetInstr":
        return replace(self, target=label)

    def render(self, target_arch: TargetArch) -> str:
        """Assembly-like rendering for listings and debugging."""
        parts: list[str] = []
        if self.pred is not None:
            bang = "" if self.pred_sense else "!"
            parts.append(f"[{bang}{reg_name(self.pred, target_arch)}]")
        unit = str(self.unit) if self.unit else ""
        parts.append(f"{self.op.value.upper()}{unit and ' ' + unit}")
        ops: list[str] = []
        if self.op in LOAD_TOPS:
            ops.append(f"*+{reg_name(self.src1, target_arch)}({self.imm or 0})")
            ops.append(reg_name(self.dst, target_arch))
        elif self.op in STORE_TOPS:
            ops.append(reg_name(self.src1, target_arch))
            ops.append(f"*+{reg_name(self.src2, target_arch)}({self.imm or 0})")
        elif self.op is TOp.B:
            ops.append(self.target if self.target is not None
                       else reg_name(self.src1, target_arch))
        elif self.op is TOp.NOP:
            if self.imm and self.imm > 1:
                ops.append(str(self.imm))
        else:
            if self.src1 is not None:
                ops.append(reg_name(self.src1, target_arch))
            if self.src2 is not None:
                ops.append(reg_name(self.src2, target_arch))
            elif self.imm is not None:
                ops.append(hex(self.imm) if abs(self.imm) > 4096 else str(self.imm))
            if self.dst is not None:
                ops.append(reg_name(self.dst, target_arch))
        text = " ".join(parts)
        if ops:
            text += " " + ", ".join(ops)
        if self.comment:
            text += f"   ; {self.comment}"
        return text
