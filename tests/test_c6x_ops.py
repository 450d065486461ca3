"""Per-op differential grid over the C6x op table.

Every row of :data:`~repro.isa.c6x.instructions.VALUE_OPS` renders three
ways: compiled once into the interpretive core, pasted into Python
regions by the Python emitter, and into C superblocks by the C emitter.
One hand-built program applies every value op, in register form and in
immediate form, to an edge grid of operands, and every load width to
bytes with the sign bit set, and stores each result to data memory.
The three backends must agree on every observable.  The grid is one
straight-line program, so the native backend compiles one module.
"""

import pytest

from repro.arch.model import default_target_arch
from repro.isa.c6x.instructions import (
    LOADS,
    STORES,
    VALUE_OPS,
    TargetInstr,
    TOp,
    delay_slots,
)
from repro.isa.c6x.packets import C6xProgram, ExecutePacket
from repro.vliw.codegen.native import native_available
from repro.vliw.platform import PrototypingPlatform

TARGET = default_target_arch()

#: register operands: the edge values, then the shift counts not among
#: them; r0..r7 hold these for the whole run
EDGES = (0, 1, 0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF)
COUNTS = (31, 32, 63)
OPERANDS = EDGES + COUNTS
#: immediates: zero, negative and the 16-bit boundaries (shift ops also
#: take the shift counts)
IMMEDIATES = (0, -1, 0x7FFF, -0x8000, 0xFFFF)
#: the MVK family reads no source register; MV and ABS read only src1
IMM_ONLY = (TOp.MVK, TOp.MVKL, TOp.MVKH)
UNARY = (TOp.MV, TOp.ABS)
SHIFTS = (TOp.SHL, TOp.SHRU, TOp.SHRA)

BASE = 8  # store base register (data_base)
PATTERN = 9  # load base register (the byte pattern below)
RESULT = 16  # first of the eight result registers
#: load source bytes: every width sees sign bits set and clear
PATTERN_BYTES = bytes([0x80, 0xFF, 0x7F, 0x01, 0x00, 0x80, 0xFE, 0xFF])
PATTERN_OFFSET = 0x8000  # byte offset of the pattern in data memory


def _constants(pairs):
    """Packets that set each ``(reg, value)``: MVKLs, then MVKHs."""
    low = [TargetInstr(TOp.MVKL, dst=reg, imm=value & 0xFFFF)
           for reg, value in pairs]
    high = [TargetInstr(TOp.MVKH, dst=reg, imm=value >> 16)
            for reg, value in pairs]
    return [ExecutePacket(part[i:i + TARGET.max_issue])
            for part in (low, high)
            for i in range(0, len(part), TARGET.max_issue)]


def _cases():
    """``(label, instr)`` for every grid case; ``dst`` is assigned when
    the case is batched."""
    for op in VALUE_OPS:
        if op in IMM_ONLY:
            for imm in IMMEDIATES:
                yield (op, "imm", imm), TargetInstr(op, imm=imm)
        elif op in UNARY:
            for r, a in enumerate(EDGES):
                yield (op, a), TargetInstr(op, src1=r)
        else:
            extra = COUNTS if op in SHIFTS else ()
            for ra, a in enumerate(EDGES):
                for b in EDGES + extra:
                    yield (op, a, b), TargetInstr(op, src1=ra,
                                                  src2=OPERANDS.index(b))
                for imm in IMMEDIATES + extra:
                    yield (op, a, "imm", imm), TargetInstr(op, src1=ra,
                                                           imm=imm)
    for op, load in LOADS.items():
        for off in range(0, len(PATTERN_BYTES), load.size):
            yield (op, off), TargetInstr(op, src1=PATTERN, imm=off)
    # a negative load offset from a base past the pattern
    yield (TOp.LDH, "neg"), TargetInstr(TOp.LDH, src1=PATTERN + 1, imm=-2)


def grid_program():
    """The grid as one program, plus ``{label: data offset}``."""
    program = C6xProgram(target=TARGET)
    pattern = TARGET.data_base + PATTERN_OFFSET
    packets = _constants(list(enumerate(OPERANDS)) + [
        (BASE, TARGET.data_base), (PATTERN, pattern),
        (PATTERN + 1, pattern + len(PATTERN_BYTES))])
    layout = {}
    cases = list(_cases())
    for start in range(0, len(cases), TARGET.max_issue):
        batch = cases[start:start + TARGET.max_issue]
        instrs = []
        for k, (_label, instr) in enumerate(batch):
            instr.dst = RESULT + k
            if instr.op is TOp.MVKH:  # give it a low half to preserve
                packets.append(ExecutePacket(
                    [TargetInstr(TOp.MV, dst=instr.dst, src1=4)]))
            instrs.append(instr)
        packets.append(ExecutePacket(instrs))
        pad = max(delay_slots(i.op, TARGET) for i in instrs)
        packets += [ExecutePacket([TargetInstr(TOp.NOP, imm=1)])] * pad
        stores = []
        for k, (label, _instr) in enumerate(batch):
            layout[label] = 4 * (start + k)
            stores.append(TargetInstr(TOp.STW, src1=RESULT + k, src2=BASE,
                                      imm=layout[label]))
        packets.append(ExecutePacket(stores))
    packets.append(ExecutePacket([TargetInstr(TOp.HALT)]))
    program.packets = packets
    program.labels = {"__entry": 0}
    program.data_image = [(pattern, PATTERN_BYTES)]
    return program, layout


def _run(backend):
    program, layout = grid_program()
    platform = PrototypingPlatform(program, backend=backend)
    return platform, platform.run(), layout


def _word(result, layout, label):
    off = layout[label]
    return int.from_bytes(result.data_image[off:off + 4], "little")


@pytest.fixture(scope="module")
def interp():
    _platform, result, layout = _run("interp")
    return result, layout


class TestOpTable:
    def test_every_op_declared_exactly_once(self):
        control = {TOp.B, TOp.HALT, TOp.NOP}
        for op in TOp:
            homes = [op in VALUE_OPS, op in LOADS, op in STORES,
                     op in control]
            assert homes.count(True) == 1, op

    def test_grid_covers_every_value_op_and_load(self, interp):
        _result, layout = interp
        ops = {label[0] for label in layout}
        assert ops == set(VALUE_OPS) | set(LOADS)
        for op in VALUE_OPS:
            if op not in IMM_ONLY + UNARY:
                assert (op, 0, 1) in layout and (op, 1, "imm", -1) in layout
        for op in SHIFTS:
            for count in (0,) + COUNTS:
                assert (op, 1, count) in layout
                assert (op, 1, "imm", count) in layout

    @pytest.mark.parametrize("label, expected", [
        ((TOp.ADD, 0xFFFF_FFFF, 1), 0),
        ((TOp.SUB, 0, 1), 0xFFFF_FFFF),
        ((TOp.ADD, 0x7FFF_FFFF, "imm", -0x8000), 0x7FFF_7FFF),
        ((TOp.MPY, 0x8000_0000, 0xFFFF_FFFF), 0x8000_0000),
        ((TOp.SHL, 1, 63), 0x8000_0000),
        ((TOp.SHRA, 0x8000_0000, 31), 0xFFFF_FFFF),
        ((TOp.SHRU, 0x8000_0000, "imm", 32), 0x8000_0000),
        ((TOp.SHRU, 0xFFFF_FFFF, "imm", 63), 1),
        ((TOp.ABS, 0x8000_0000), 0x8000_0000),
        ((TOp.MIN, 1, "imm", -0x8000), 0xFFFF_8000),
        ((TOp.CMPLTU, 0x7FFF_FFFF, 0x8000_0000), 1),
        ((TOp.CMPLT, 0x7FFF_FFFF, 0x8000_0000), 0),
        ((TOp.MVK, "imm", -1), 0xFFFF_FFFF),
        ((TOp.MVKH, "imm", 0xFFFF), 0xFFFF_FFFF),
        ((TOp.LDB, 0), 0xFFFF_FF80),
        ((TOp.LDBU, 0), 0x80),
        ((TOp.LDH, 0), 0xFFFF_FF80),
        ((TOp.LDHU, 6), 0xFFFE),
        ((TOp.LDH, "neg"), 0xFFFF_FFFE),
        ((TOp.LDW, 4), 0xFFFE_8000),
    ])
    def test_interpreter_spot_values(self, interp, label, expected):
        """Anchor the grid: the three renderings could agree on a wrong
        value, so a few results are checked by hand."""
        result, layout = interp
        assert _word(result, layout, label) == expected


class TestRenderingsAgree:
    def test_compiled_matches_interp(self, interp):
        result, _layout = interp
        _platform, compiled, _ = _run("compiled")
        assert compiled.observables() == result.observables()

    @pytest.mark.skipif(not native_available(),
                        reason="no working C toolchain (or REPRO_NATIVE=0)")
    def test_native_matches_interp(self, interp):
        result, _layout = interp
        platform, native, _ = _run("native")
        assert native.observables() == result.observables()
        context = platform._compiler.native_context
        assert context is not None and context.regions_native > 0
