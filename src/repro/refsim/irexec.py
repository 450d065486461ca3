"""Semantics of the translator's intermediate code, interpreted or compiled.

The reference simulators execute each decoded source instruction by
running its IR expansion — the same expansion the binary translator
compiles.  Keeping a single semantic definition makes the functional
equivalence between reference and translation a structural property
rather than a hope.

The value of every register-producing IR op is written exactly once,
in :data:`VALUE_SEMANTICS`.  Two consumers share that table:

* :func:`execute_expansion` interprets an expansion op by op (the
  interpretive ISS and the stage-level RTL model use it);
* :func:`compile_expansion` pastes the same expressions into one
  straight-line Python function per source instruction, so a
  predecoding ISS pays for operand dispatch once per code address
  instead of once per executed instruction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import FunctionType
from typing import Callable

from repro.errors import SimulationError
from repro.refsim.state import MachineState, SourceMemory
from repro.translator.ir import (
    STORE_OPS,
    UNARY_OPS,
    IRInstr,
    IROp,
    is_source_reg,
)
from repro.utils.bits import s32, u32

#: Result of every register-producing IR op, as a Python expression over
#: the operand values ``{a}`` (register ``a``) and ``{b}`` (register
#: ``b``, or else the immediate).  Register values are unsigned 32-bit
#: (see :mod:`repro.utils.bits`) and immediates enter as ``u32(imm)``;
#: results are truncated to 32 bits when written.  ``MVK`` reads only
#: ``{b}`` and the unary ops only ``{a}``.
VALUE_SEMANTICS: dict[IROp, str] = {
    IROp.MVK: "{b}",
    IROp.MV: "{a}",
    IROp.ABS: "abs(s32({a}))",
    IROp.ADD: "{a} + {b}",
    IROp.SUB: "{a} - {b}",
    IROp.MPY: "s32({a}) * s32({b})",
    IROp.AND: "{a} & {b}",
    IROp.OR: "{a} | {b}",
    IROp.XOR: "{a} ^ {b}",
    IROp.ANDN: "{a} & ~{b}",
    IROp.SHL: "{a} << ({b} & 31)",
    IROp.SHRU: "{a} >> ({b} & 31)",
    IROp.SHRA: "s32({a}) >> ({b} & 31)",
    IROp.MIN: "min(s32({a}), s32({b}))",
    IROp.MAX: "max(s32({a}), s32({b}))",
    IROp.CMPEQ: "{a} == {b}",
    IROp.CMPNE: "{a} != {b}",
    IROp.CMPLT: "s32({a}) < s32({b})",
    IROp.CMPLTU: "{a} < {b}",
    IROp.CMPGE: "s32({a}) >= s32({b})",
    IROp.CMPGEU: "{a} >= {b}",
}

#: Access width in bytes of every memory op.
ACCESS_SIZE = {
    IROp.LDW: 4, IROp.LDH: 2, IROp.LDHU: 2, IROp.LDB: 1, IROp.LDBU: 1,
    IROp.STW: 4, IROp.STH: 2, IROp.STB: 1,
}
#: Sign bit of the loads that sign-extend their value.
LOAD_SIGN = {IROp.LDH: 0x8000, IROp.LDB: 0x80}

#: The compiled namespace: every helper a semantics expression may call.
_HELPERS = {"s32": s32, "u32": u32}
_EVALUATE: dict[IROp, Callable[[int, int], int]] = {
    op: eval(f"lambda a, b: {expr.format(a='a', b='b')}", dict(_HELPERS))
    for op, expr in VALUE_SEMANTICS.items()
}

#: :func:`compile_expansion` return value of an executed ``HALT``; any
#: other int is the target of a taken branch, ``None`` a fall-through.
HALTED = -1


@dataclass
class ExecResult:
    """Outcome of executing one source instruction's expansion."""

    next_pc: int
    branch_taken: bool = False
    halted: bool = False
    loads: int = 0
    stores: int = 0


def execute_expansion(instrs: list[IRInstr], state: MachineState,
                      memory: SourceMemory, fallthrough_pc: int) -> ExecResult:
    """Execute the IR ops of one source instruction.

    Temporaries live only within the expansion.  A taken ``B`` ends the
    expansion (it is always the final op of an expansion).
    """
    temps: dict[int, int] = {}
    result = ExecResult(next_pc=fallthrough_pc)

    def get(reg: int) -> int:
        if is_source_reg(reg):
            return state.regs[reg]
        try:
            return temps[reg]
        except KeyError:
            raise SimulationError(
                f"IR read of uninitialized temp t{reg}") from None

    def put(reg: int, value: int) -> None:
        value = u32(value)
        if is_source_reg(reg):
            state.regs[reg] = value
        else:
            temps[reg] = value

    for instr in instrs:
        if instr.pred is not None:
            taken = bool(get(instr.pred)) == instr.pred_sense
            if not taken:
                continue
        op = instr.op
        if op is IROp.B:
            target = get(instr.a) if instr.a is not None else instr.imm
            if target is None:
                raise SimulationError("branch without target")
            result.next_pc = u32(target)
            result.branch_taken = True
            break
        if op is IROp.HALT:
            result.halted = True
            break
        if op is IROp.NOP:
            continue
        size = ACCESS_SIZE.get(op)
        if size is not None:
            if op in STORE_OPS:
                addr = u32(get(instr.b) + (instr.imm or 0))
                memory.write(addr, get(instr.a), size)
                result.stores += 1
                continue
            addr = u32(get(instr.a) + (instr.imm or 0))
            value = memory.read(addr, size)
            sign = LOAD_SIGN.get(op)
            if sign is not None and value & sign:
                value -= sign << 1
            put(instr.dst, value)
            result.loads += 1
            continue
        evaluate = _EVALUATE.get(op)
        if evaluate is None:
            raise SimulationError(f"unhandled IR op {op}")
        if op is IROp.MVK:
            a, b = 0, u32(instr.imm or 0)
        else:
            a = get(instr.a)
            if op in UNARY_OPS:
                b = 0
            elif instr.b is not None:
                b = get(instr.b)
            else:
                b = u32(instr.imm or 0)
        put(instr.dst, evaluate(a, b))
    return result


# -- compilation ------------------------------------------------------------


def compile_expansion(instrs: tuple[IRInstr, ...] | list[IRInstr]
                      ) -> Callable | None:
    """Compile one expansion into ``fn(regs, read, write)``.

    *regs* is the architectural register list, *read*/*write* the
    memory accessors of :class:`~repro.refsim.state.SourceMemory`.  The
    function returns ``None`` to fall through, the target of a taken
    branch, or :data:`HALTED`.  Returns ``None`` instead of a function
    for an expansion it cannot prove free of interpreter-time errors
    (a temp read that may precede its write, a branch without target,
    an op outside the tables); such an expansion must be interpreted.

    Register numbers and immediates become parameter defaults, so every
    expansion of one shape (``add d1, d1, 4`` and ``add d5, d2, -8``)
    shares one compiled code object and ``compile()`` runs once per
    shape rather than once per code address.
    """
    shape = _Shape()
    if not shape.add_all(instrs):
        return None
    proto = _prototype("\n".join(shape.lines))
    return FunctionType(proto.__code__, proto.__globals__, "run",
                        tuple(shape.operands))


class _Shape:
    """Source text of one expansion with its operands factored out."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.operands: list[int] = []
        self.temps: dict[int, str] = {}  # temp -> local name
        self.defined: set[int] = set()  # temps written unconditionally

    def operand(self, value: int) -> str:
        self.operands.append(value)
        return f"k{len(self.operands) - 1}"

    def read(self, reg: int | None) -> str | None:
        """Text reading *reg*; ``None`` when it may be an undefined temp."""
        if reg is None:
            return None
        if is_source_reg(reg):
            return f"regs[{self.operand(reg)}]"
        return self.temps[reg] if reg in self.defined else None

    def write(self, indent: str, instr: IRInstr, expr: str) -> bool:
        dst = instr.dst
        if dst is None:
            return False
        if is_source_reg(dst):
            target = f"regs[{self.operand(dst)}]"
        else:
            target = self.temps.setdefault(dst, f"t{len(self.temps)}")
            # A predicated write may not happen, so only an
            # unconditional one makes the temp safe to read.
            if instr.pred is None:
                self.defined.add(dst)
        self.lines.append(f"{indent}{target} = ({expr}) & 0xFFFFFFFF")
        return True

    def add_all(self, instrs) -> bool:
        for instr in instrs:
            indent = "    "
            if instr.pred is not None:
                pred = self.read(instr.pred)
                if pred is None:
                    return False
                test = pred if instr.pred_sense else f"not {pred}"
                self.lines.append(f"    if {test}:")
                indent = "        "
            op = instr.op
            if op is IROp.B or op is IROp.HALT:
                if op is IROp.HALT:
                    target = str(HALTED)
                elif instr.a is not None:
                    target = self.read(instr.a)
                elif instr.imm is not None:
                    target = self.operand(u32(instr.imm))
                else:
                    target = None
                if target is None:
                    return False
                self.lines.append(f"{indent}return {target}")
                if instr.pred is None:
                    break  # nothing after an unconditional transfer runs
            elif op is IROp.NOP:
                self.lines.append(f"{indent}pass")
            elif op in ACCESS_SIZE:
                if not self._memory(indent, instr):
                    return False
            elif op in VALUE_SEMANTICS:
                if not self._value(indent, instr):
                    return False
            else:
                return False
        self.lines.insert(0, "def run(regs, read, write"
                          + "".join(f", k{i}" for i in
                                    range(len(self.operands))) + "):")
        self.lines.append("    return None")
        return True

    def _memory(self, indent: str, instr: IRInstr) -> bool:
        op, size = instr.op, ACCESS_SIZE[instr.op]
        if op in STORE_OPS:
            base, value = self.read(instr.b), self.read(instr.a)
            if base is None or value is None:
                return False
            self.lines.append(
                f"{indent}write({self._address(base, instr.imm)}, "
                f"{value}, {size})")
            return True
        base = self.read(instr.a)
        if base is None:
            return False
        self.lines.append(
            f"{indent}m = read({self._address(base, instr.imm)}, {size})")
        sign = LOAD_SIGN.get(op)
        if sign is not None:
            self.lines.append(f"{indent}if m & {sign}:")
            self.lines.append(f"{indent}    m -= {sign << 1}")
        return self.write(indent, instr, "m")

    def _address(self, base: str, imm: int | None) -> str:
        if not imm:
            return base
        return f"({base} + {self.operand(imm)}) & 0xFFFFFFFF"

    def _value(self, indent: str, instr: IRInstr) -> bool:
        op = instr.op
        if op is IROp.MVK:
            a, b = "0", self.operand(u32(instr.imm or 0))
        else:
            a = self.read(instr.a)
            if op in UNARY_OPS:
                b = "0"
            elif instr.b is not None:
                b = self.read(instr.b)
            else:
                b = self.operand(u32(instr.imm or 0))
        if a is None or b is None:
            return False
        return self.write(indent, instr,
                          VALUE_SEMANTICS[op].format(a=a, b=b))


@lru_cache(maxsize=1024)
def _prototype(source: str) -> FunctionType:
    namespace = dict(_HELPERS)
    exec(compile(source, "<expansion>", "exec"), namespace)
    return namespace["run"]
