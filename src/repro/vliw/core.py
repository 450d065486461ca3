"""Cycle-level simulator of the C6x-like VLIW core.

Executes one packet per cycle with exposed-pipeline semantics: load
results appear after 4 delay slots, multiplies after 1, branches take
effect after 5.  Readers of an in-flight register architecturally see
the old value; since the translator's scheduler guarantees that never
happens, *strict* mode treats it as an internal error (a scheduler bug)
rather than silently producing stale data.

Delay slots are counted in *issued packets*: a pipeline stall (sync
wait, bridge access) freezes the whole machine, which matches the
behaviour of a stalled in-order pipeline.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.arch.model import TargetArch
from repro.errors import BusError, HazardError, SimulationError
from repro.isa.c6x.instructions import (
    LOADS,
    STORES,
    VALUE_OPS,
    TargetInstr,
    TOp,
    delay_slots,
)
from repro.isa.c6x.packets import C6xProgram
from repro.isa.c6x.registers import reg_count, reg_name
from repro.utils.bits import s32, u32
from repro.vliw.bridge import BusBridge
from repro.vliw.syncdev import SYNC_WINDOW, SyncDevice

#: width of the bus-bridge window; the single source of truth for the
#: interpreter's dispatch and every code-generating backend
BRIDGE_WINDOW = 0x1_0000

#: interpreter bindings of the :data:`VALUE_OPS` operands: ``a``, ``b``
#: (raw ``src2`` or immediate), ``i`` (immediate) and ``d`` (old dst)
_BINDINGS = dict(a="a", b="b", bu="(b & 0xFFFFFFFF)", bs="s32(b)",
                 sh="(b & 31)", imm="(i & 0xFFFFFFFF)",
                 high="((i << 16) & 0xFFFF0000)", d="d")


def _compile_evaluator(template: str):
    """Compile one op's Python template to ``evaluate(read, instr)``.

    Registers are read through *read* (the core's hazard-checked
    ``_read``), and only the ones the template names, in the order
    ``src1``, ``src2``, ``dst``.
    """
    names = {name for name in _BINDINGS if f"{{{name}}}" in template}
    lines = ["def evaluate(read, ins):"]
    if "a" in names:
        lines.append("    a = read(ins.src1) if ins.src1 is not None else 0")
    if names & {"b", "bu", "bs", "sh"}:
        lines.append("    b = (read(ins.src2) if ins.src2 is not None"
                     " else (ins.imm or 0))")
    if names & {"imm", "high"}:
        lines.append("    i = ins.imm or 0")
    if "d" in names:
        lines.append("    d = read(ins.dst)")
    lines.append(f"    return {template.format(**_BINDINGS)}")
    namespace = {"s32": s32}
    exec("\n".join(lines), namespace)
    return namespace["evaluate"]


_EVALUATE = {op: _compile_evaluator(row.py) for op, row in VALUE_OPS.items()}


@dataclass
class CoreStats:
    packets_issued: int = 0
    instructions_executed: int = 0
    nop_packets: int = 0
    sync_stall_cycles: int = 0
    bridge_stall_cycles: int = 0
    #: cycles lost as the round-robin loser on a contended shared
    #: device of a multi-core SoC (always 0 on a single-core platform)
    contention_stall_cycles: int = 0
    source_instructions: int = 0
    block_executions: dict[int, int] = field(default_factory=dict)

    @property
    def parallelism(self) -> float:
        """Mean non-NOP instructions per issued packet."""
        if not self.packets_issued:
            return 0.0
        return self.instructions_executed / self.packets_issued


class C6xCore:
    """The VLIW processor of the prototyping platform."""

    def __init__(self, program: C6xProgram, sync: SyncDevice,
                 bridge: BusBridge, strict: bool = True,
                 sync_access_stall: int = 4) -> None:
        self.program = program
        self.target: TargetArch = program.target
        self.sync = sync
        self.bridge = bridge
        self.strict = strict
        #: fixed cost of reaching the synchronization device: it lives
        #: in the FPGA behind the C6x external memory interface, so
        #: every access pays bus cycles even when no wait is needed.
        self.sync_access_stall = sync_access_stall
        # a typed array, not a list: the native backend maps the
        # register file into C through the buffer protocol, and
        # compiled regions close over this exact object — it must stay
        # the same object for the core's whole life, or code emitted
        # before a mid-run native attach would mutate a dead snapshot
        self.regs = array("I", bytes(4 * reg_count(self.target)))
        self.pc = program.entry
        self.halted = False
        self.stats = CoreStats()
        self._issue_index = 0
        self._stall_cycles = 0
        # in-flight register writes: reg -> (ready_index, value)
        self._inflight: dict[int, tuple[int, int]] = {}
        self._pending_branch: tuple[int, int] | None = None
        # target data memory (source data + translator-internal area)
        base = self.target.data_base
        size = (self.target.internal_base + self.target.internal_size) - base
        self._mem_base = base
        self._mem = bytearray(size)
        for addr, blob in program.data_image:
            off = addr - base
            if off < 0 or off + len(blob) > size:
                raise SimulationError(
                    f"data image at {addr:#x} outside target memory")
            self._mem[off:off + len(blob)] = blob

    # -- observability -----------------------------------------------------

    @property
    def cycles(self) -> int:
        """Total target clock cycles consumed."""
        return self._issue_index + self._stall_cycles

    def read_reg(self, reg: int) -> int:
        return self.regs[reg]

    def write_reg(self, reg: int, value: int) -> None:
        self.regs[reg] = u32(value)

    def peek_next_packet(self) -> int:
        """Packet index the next :meth:`step_packet` will execute."""
        if self._pending_branch is not None:
            effective, index = self._pending_branch
            if effective <= self._issue_index:
                return index
        return self.pc

    def settle(self) -> None:
        """Resolve transient pipeline state at a region boundary.

        Applies a matured pending branch to ``pc`` and commits every
        completed writeback.  Valid at block boundaries (regions are
        architecturally quiet there); used by the debugger before
        reading or migrating machine state.
        """
        if self._pending_branch is not None:
            effective, index = self._pending_branch
            if effective <= self._issue_index:
                self.pc = index
                self._pending_branch = None
        for reg in list(self._inflight):
            ready, value = self._inflight.pop(reg)
            if ready <= self._issue_index:
                self.regs[reg] = value
            else:  # pragma: no cover - boundaries are quiet by design
                self._inflight[reg] = (ready, value)

    def clear_transients(self) -> None:
        """Drop stale pipeline state before an external pc change."""
        self._pending_branch = None
        self._inflight.clear()

    def write_mem(self, addr: int, value: int, size: int) -> None:
        off = addr - self._mem_base
        if off < 0 or off + size > len(self._mem):
            raise BusError("target store outside memory", addr)
        self._mem[off:off + size] = u32(value).to_bytes(4, "little")[:size]

    def read_mem(self, addr: int, size: int) -> int:
        return int.from_bytes(self.data_window(addr, size), "little")

    def data_window(self, addr: int, size: int) -> bytes:
        off = addr - self._mem_base
        if off < 0 or off + size > len(self._mem):
            raise BusError("target read outside memory", addr)
        return bytes(self._mem[off:off + size])

    # -- helpers ------------------------------------------------------------

    def _sync_offset(self, addr: int) -> int | None:
        base = self.target.sync_base
        if base <= addr < base + SYNC_WINDOW:
            return addr - base
        return None

    def _bridge_offset(self, addr: int) -> int | None:
        base = self.target.bridge_base
        if base <= addr < base + BRIDGE_WINDOW:
            return addr - base
        return None

    def _pred_true(self, instr: TargetInstr) -> bool:
        if instr.pred is None:
            return True
        return bool(self._read(instr.pred)) == instr.pred_sense

    def _read(self, reg: int) -> int:
        if self.strict and reg in self._inflight:
            ready, _value = self._inflight[reg]
            if ready > self._issue_index:
                raise HazardError(
                    f"read of {reg_name(reg, self.target)} during its "
                    f"delay shadow at packet {self.pc} "
                    f"(ready at {ready}, now {self._issue_index}) — "
                    f"scheduler bug")
        return self.regs[reg]

    def _schedule_write(self, reg: int, value: int, delay: int) -> None:
        ready = self._issue_index + 1 + delay
        if self.strict and reg in self._inflight:
            prev_ready, _ = self._inflight[reg]
            if prev_ready > self._issue_index and prev_ready >= ready:
                raise HazardError(
                    f"write-after-write hazard on "
                    f"{reg_name(reg, self.target)} — scheduler bug")
        if delay == 0:
            self.regs[reg] = u32(value)
        else:
            self._inflight[reg] = (ready, u32(value))

    def _commit_writebacks(self) -> None:
        if not self._inflight:
            return
        done = [reg for reg, (ready, _v) in self._inflight.items()
                if ready <= self._issue_index]
        for reg in done:
            _ready, value = self._inflight.pop(reg)
            self.regs[reg] = value

    # -- the cycle loop ------------------------------------------------------

    def step_packet(self) -> None:
        """Advance simulation by one issued packet (plus any stalls)."""
        if self.halted:
            raise SimulationError("core is halted")
        self._commit_writebacks()
        if self._pending_branch is not None:
            effective, label_index = self._pending_branch
            if effective <= self._issue_index:
                self.pc = label_index
                self._pending_branch = None
        if self.pc >= len(self.program.packets):
            raise SimulationError(f"fell off the end of the program "
                                  f"(packet {self.pc})")
        packet = self.program.packets[self.pc]

        # Stall while a sync-status read in this packet would block.
        while self._packet_blocks(packet):
            self._stall_cycles += 1
            self.stats.sync_stall_cycles += 1
            self.sync.tick()

        info = self.program.block_at.get(self.pc)
        if info is not None:
            self.stats.source_instructions += info.n_instructions
            self.stats.block_executions[info.source_addr] = (
                self.stats.block_executions.get(info.source_addr, 0) + 1)

        self._execute(packet)
        self.pc += 1
        self._issue_index += 1
        self.stats.packets_issued += 1
        self.sync.tick()

    def _packet_blocks(self, packet) -> bool:
        for instr in packet.instrs:
            if instr.op in LOADS and self._pred_true(instr):
                addr = u32(self._read(instr.src1) + (instr.imm or 0))
                off = self._sync_offset(addr)
                if off is not None and self.sync.read_blocks(off):
                    return True
        return False

    def _execute(self, packet) -> None:
        actions: list[tuple[TargetInstr, int | None]] = []
        # Phase 1: evaluate everything against the pre-packet state.
        for instr in packet.instrs:
            if instr.op is TOp.NOP:
                continue
            if not self._pred_true(instr):
                continue
            actions.append((instr, self._evaluate(instr)))
            self.stats.instructions_executed += 1
        if not actions:
            self.stats.nop_packets += 1
        # Phase 2: apply effects.
        for instr, value in actions:
            self._apply(instr, value)

    def _evaluate(self, instr: TargetInstr) -> int | None:
        evaluate = _EVALUATE.get(instr.op)
        if evaluate is not None:
            return evaluate(self._read, instr)
        op = instr.op
        if op in LOADS:
            return self._do_load(instr)
        if op in (TOp.B, TOp.HALT) or op in STORES:
            return None
        raise SimulationError(f"unhandled target op {op}")

    def _do_load(self, instr: TargetInstr) -> int:
        load = LOADS[instr.op]
        size = load.size
        addr = u32(self._read(instr.src1) + (instr.imm or 0))
        off = self._sync_offset(addr)
        if off is not None:
            value = self.sync.read_value(off)
            self._stall_cycles += self.sync_access_stall
            self.stats.sync_stall_cycles += self.sync_access_stall
        else:
            boff = self._bridge_offset(addr)
            if boff is not None:
                value = self.bridge.read(boff, size)
                self._stall_cycles += self.bridge.access_stall
                self.stats.bridge_stall_cycles += self.bridge.access_stall
            else:
                moff = addr - self._mem_base
                if moff < 0 or moff + size > len(self._mem):
                    raise BusError("target load outside memory", addr)
                value = int.from_bytes(self._mem[moff:moff + size], "little")
        fix = load.sign_fix()
        if fix is not None and value & fix[0]:
            value |= fix[1]
        return u32(value)

    def _apply(self, instr: TargetInstr, value: int | None) -> None:
        op = instr.op
        if op is TOp.HALT:
            self.halted = True
            return
        if op is TOp.B:
            if self._pending_branch is not None:
                raise SimulationError(
                    "branch inside the delay slots of another branch — "
                    "scheduler bug")
            if instr.target is not None:
                index = self.program.label_packet(instr.target)
            else:
                # Indirect branches carry *source* addresses in registers
                # (return addresses, function pointers); map them to the
                # translated block's packet index.
                src_addr = self._read(instr.src1)
                index = self.program.addr_to_packet.get(src_addr)
                if index is None:
                    raise SimulationError(
                        f"indirect branch to untranslated source address "
                        f"{src_addr:#010x}")
            self._pending_branch = (
                self._issue_index + 1 + self.target.branch_delay_slots, index)
            return
        if op in STORES:
            self._do_store(instr)
            return
        assert value is not None
        self._schedule_write(instr.dst, value, delay_slots(op, self.target))

    def _do_store(self, instr: TargetInstr) -> None:
        size = STORES[instr.op]
        addr = u32(self._read(instr.src2) + (instr.imm or 0))
        value = self._read(instr.src1)
        off = self._sync_offset(addr)
        if off is not None:
            self.sync.write(off, value)
            self._stall_cycles += self.sync_access_stall
            self.stats.sync_stall_cycles += self.sync_access_stall
            return
        boff = self._bridge_offset(addr)
        if boff is not None:
            self.bridge.write(boff, value, size)
            self._stall_cycles += self.bridge.access_stall
            self.stats.bridge_stall_cycles += self.bridge.access_stall
            return
        moff = addr - self._mem_base
        if moff < 0 or moff + size > len(self._mem):
            raise BusError("target store outside memory", addr)
        self._mem[moff:moff + size] = u32(value).to_bytes(4, "little")[:size]
