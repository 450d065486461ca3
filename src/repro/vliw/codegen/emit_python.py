"""Python emitter: renders Region IR to specialized host-Python source.

This is the reference :class:`~repro.vliw.codegen.RegionEmitter`: it
renders *every* IR node (device dispatch, shared-window guards, stall
loops included) and its output is locked bit-identical to the
interpretive core by the differential and fuzz suites.  Other emitters
(the native C backend) may refuse a region; this one never does.

The emitted function closes over one core's mutable state through the
names :meth:`PacketCompiler._namespace` provides (``_regs``, ``_mem``,
``sync``, ``stats``, …) and follows the dispatch contract of
:mod:`repro.vliw.compiled`: it returns the next region's callable, the
``INTERP`` sentinel, or ``None`` on halt/exit.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.isa.c6x.instructions import LOADS, VALUE_OPS, TOp
from repro.utils.bits import s32, u32
from repro.vliw.codegen.ir import (
    AluOp,
    BranchEnd,
    CutEnd,
    DeviceLoad,
    DeviceStore,
    Epilogue,
    HaltOp,
    IndirectBranch,
    InterpEnd,
    PacketIR,
    PlainLoad,
    PlainStore,
    RegionIR,
    RegWrite,
)
from repro.vliw.codegen.lower import _SHARED_HI, _SHARED_LO
from repro.vliw.core import BRIDGE_WINDOW as _BRIDGE_WINDOW
from repro.vliw.syncdev import SYNC_WINDOW


class _Emit:
    """Tiny indented-source accumulator."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def add(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _operand(opnd: tuple) -> str:
    """Render a value operand (see :mod:`repro.vliw.codegen.ir`)."""
    kind = opnd[0]
    if kind == "reg":
        return f"regs[{opnd[1]}]"
    if kind == "var":
        return f"v{opnd[1]}"
    return f"(v{opnd[1]} if p{opnd[2]} else regs[{opnd[3]}])"


def _addr(base: str, imm: int) -> str:
    return f"({base} + {imm}) & 0xFFFFFFFF" if imm else base


class PythonEmitter:
    """Renders one :class:`RegionIR` to host-Python source.

    *inline_shared* selects how guarded shared-segment accesses render
    (multi-core SoCs only — single-core regions carry no guards and are
    unaffected): ``True`` (the default) emits the access **inline** at
    region entry — the device dispatch below already routes shared
    addresses through the core's arbitrated bridge port, so arbitration
    and stall semantics are the interpreter's, but the region resumes
    in place instead of bouncing every access to the interpreter.
    Inline entries still bail while the run-ahead flag ``_ra`` is up
    (no shared access may execute inside an adaptive window), and
    accesses past the entry packet keep the address-guard bail.
    ``False`` reproduces the historical bail-everything source byte for
    byte — the reference baseline of the lockstep differential
    contract.
    """

    name = "python"

    def __init__(self, inline_shared: bool = True) -> None:
        self.inline_shared = inline_shared

    def emit(self, ir: RegionIR) -> tuple[str, str]:
        """Produce ``(source, function_name)`` for *ir*."""
        return _RegionRenderer(ir, self.inline_shared).render()


class _RegionRenderer:
    """Stateless walk of one region's IR, emitting Python lines."""

    def __init__(self, ir: RegionIR, inline_shared: bool = True) -> None:
        self.ir = ir
        self.inline_shared = inline_shared
        #: True while rendering a packet whose shared accesses execute
        #: inline (device dispatch then counts them through ``_ilc``)
        self._inline_packet = False
        self.out = _Emit()

    def render(self) -> tuple[str, str]:
        ir = self.ir
        name = f"_region_{ir.pc0}"
        add = self.out.add
        add(0, f"def {name}():")
        add(1, "regs = _regs; mem = _mem")
        add(1, "ii0 = core._issue_index")
        add(1, "inflight = core._inflight")
        if ir.use_ci:
            add(1, "_ci = 0")
        if ir.use_cn:
            add(1, "_cn = 0")
        for packet in ir.packets:
            self._render_packet(packet)
        self._render_end()
        return self.out.source(), name

    # -- epilogues -------------------------------------------------------

    def _emit_epilogue(self, indent: int, ep: Epilogue) -> None:
        """Counter flush + state spill shared by every region exit."""
        add = self.out.add
        add(indent, f"core._issue_index = ii0 + {ep.executed}")
        pc_expr = str(ep.pc) if ep.pc is not None else f"bi{ep.pc_var}"
        add(indent, f"core.pc = {pc_expr}")
        add(indent, f"stats.packets_issued += {ep.executed}")
        instr_expr = str(ep.instr_static)
        if ep.use_ci:
            instr_expr += " + _ci"
        add(indent, f"stats.instructions_executed += {instr_expr}")
        if ep.nop_static or ep.use_cn:
            nop_expr = str(ep.nop_static)
            if ep.use_cn:
                nop_expr += " + _cn"
            add(indent, f"stats.nop_packets += {nop_expr}")
        if ep.src_static:
            add(indent, f"stats.source_instructions += {ep.src_static}")
        if ep.ticks > 0:
            add(indent, f"sync.tick_n({ep.ticks})")
        for spill in ep.spills:
            line = (f"inflight[{spill.dst}] = "
                    f"(ii0 + {spill.mature}, v{spill.var})")
            if spill.pred is not None:
                add(indent, f"if p{spill.pred}:")
                add(indent + 1, line)
            else:
                add(indent, line)
        if ep.branch is not None:
            br = ep.branch
            target = (str(br.target) if br.target is not None
                      else f"bi{br.target_var}")
            line = f"core._pending_branch = (ii0 + {br.effective}, {target})"
            if br.pred is not None:
                add(indent, f"if p{br.pred}:")
                add(indent + 1, line)
            else:
                add(indent, line)

    def _emit_chain_return(self, indent: int, cell: str, pc: int) -> None:
        """Direct chaining: return the successor's cached callable."""
        add = self.out.add
        add(indent, f"_n = {cell}[0]")
        add(indent, "if _n is None:")
        add(indent + 1, f"_n = _link({cell}, {pc})")
        add(indent, "return _n")

    def _emit_bail(self, indent: int, ep: Epilogue) -> None:
        """Hand the current packet to the interpretive core untouched."""
        self._emit_epilogue(indent, ep)
        self.out.add(indent, "return _INTERP")

    # -- per-packet rendering --------------------------------------------

    def _render_packet(self, p: PacketIR) -> None:
        ir = self.ir
        add = self.out.add
        add(1, f"# packet {p.index} (+{p.offset})")

        # 1. writeback commits due at this packet's issue point
        if p.entry_commit:
            add(1, "if inflight:")
            add(2, f"for _r in [_x for _x in inflight "
                   f"if inflight[_x][0] <= ii0 + {p.offset}]:")
            add(3, "regs[_r] = inflight.pop(_r)[1]")
        for commit in p.commits:
            line = f"regs[{commit.dst}] = v{commit.var}"
            if commit.pred is not None:
                add(1, f"if p{commit.pred}: {line}")
            else:
                add(1, line)

        # 2a. shared-segment guard (device packets on a shared SoC)
        self._inline_packet = False
        if p.guard is not None:
            if not p.guard.checks:
                self._emit_bail(1, p.guard.bail)
                return  # the packet unconditionally bails; rest is dead
            if self.inline_shared and p.offset == 0:
                # entry packet, inline mode: perform the shared access
                # inline through the arbitrated device dispatch below;
                # bail only while a run-ahead window is active (no
                # shared access may execute inside a window)
                self._inline_packet = True
                add(1, "if _ra[0]:")
                self._emit_bail(2, p.guard.bail)
            else:
                conds = []
                for check in p.guard.checks:
                    addr = _addr(_operand(check.base), check.imm)
                    cond = (f"{_SHARED_LO} <= ({addr}) - {ir.bridge_base} "
                            f"< {_SHARED_HI}")
                    if check.pred_reg is not None:
                        test = "!=" if check.pred_sense else "=="
                        cond = f"regs[{check.pred_reg}] {test} 0 and ({cond})"
                    conds.append(f"({cond})")
                add(1, f"if {' or '.join(conds)}:")
                self._emit_bail(2, p.guard.bail)

        # 2. device packets are tick barriers: flush batched ticks, then
        #    replicate the interpreter's blocking-read stall loop
        if p.device:
            if p.tick_flush > 0:
                add(1, f"sync.tick_n({p.tick_flush})")
            self._render_stall_loop(p)

        # 3. phase A1: predicates (pre-packet register state)
        for pred in p.preds:
            test = "!=" if pred.sense else "=="
            add(1, f"p{pred.var} = regs[{pred.reg}] {test} 0")

        # 4. phase A2: values (loads carry their memory dispatch)
        for value in p.values:
            indent = 1
            if value.pred is not None:
                add(1, f"if p{value.pred}:")
                indent = 2
            if isinstance(value, PlainLoad):
                self._render_plain_load(indent, value)
            elif isinstance(value, DeviceLoad):
                self._render_device_load(indent, value)
            else:
                add(indent, f"v{value.var} = {self._value_expr(value)}")

        # 5. phase A3: plain-store range checks (apply-time bases)
        for check in p.store_checks:
            indent = 1
            if check.pred is not None:
                add(1, f"if p{check.pred}:")
                indent = 2
            m = check.m
            addr = _addr(_operand(check.base), check.imm)
            add(indent, f"so{m} = ({addr}) - {ir.mem_base}")
            add(indent,
                f"if so{m} < 0 or so{m} > {ir.mem_len - check.size}:")
            self._emit_bail(indent + 1, check.bail)

        # 6. per-block stats at translated block heads
        if p.block is not None:
            addr = p.block[0]
            add(1, f"_bex[{addr}] = _bex.get({addr}, 0) + 1")

        # 7. phase A4: execution counters (after every possible bail)
        for var in p.ci_preds:
            add(1, f"if p{var}: _ci += 1")
        if p.cn_preds:
            test = " or ".join(f"p{var}" for var in p.cn_preds)
            add(1, f"if not ({test}): _cn += 1")

        # 8. phase B: apply effects in packet order
        for apply_op in p.applies:
            self._render_apply(apply_op)

        # 9. a device packet ticks immediately (order vs. device writes
        #    matters); pure packets batch their tick into the epilogue
        if p.device_tick:
            add(1, "sync.tick()")
            if p.exit_check is not None:
                add(1, "if _exitdev.exited:")
                self._emit_epilogue(2, p.exit_check)
                add(2, "return None")

        # 10. conditional halt exit
        if p.halt_exit is not None:
            unpred, ep = p.halt_exit
            if unpred:
                self._emit_epilogue(1, ep)
                add(1, "return None")
            else:
                add(1, "if core.halted:")
                self._emit_epilogue(2, ep)
                add(2, "return None")

    def _render_apply(self, node) -> None:
        add = self.out.add
        if isinstance(node, HaltOp):
            if node.pred is not None:
                add(1, f"if p{node.pred}: core.halted = True")
            else:
                add(1, "core.halted = True")
            return
        if isinstance(node, IndirectBranch):
            m = node.m
            indent = 1
            if node.pred is not None:
                add(1, f"if p{node.pred}:")
                indent = 2
            add(indent, f"bt{m} = {_operand(node.value)}")
            add(indent, f"bi{m} = _a2p.get(bt{m})")
            add(indent, f"if bi{m} is None:")
            add(indent + 1, f"raise _SimulationError("
                            f"f\"indirect branch to untranslated source "
                            f"address {{bt{m}:#010x}}\")")
            return
        if isinstance(node, PlainStore):
            indent = 1
            if node.pred is not None:
                add(1, f"if p{node.pred}:")
                indent = 2
            m = node.m
            val = _operand(node.val)
            if node.size == 1:
                add(indent, f"mem[so{m}] = {val} & 0xFF")
            elif node.size == 2:
                add(indent, f"mem[so{m}:so{m} + 2] = "
                            f"({val} & 0xFFFF).to_bytes(2, 'little')")
            else:
                add(indent, f"mem[so{m}:so{m} + 4] = "
                            f"({val}).to_bytes(4, 'little')")
            return
        if isinstance(node, DeviceStore):
            indent = 1
            if node.pred is not None:
                add(1, f"if p{node.pred}:")
                indent = 2
            self._render_device_store(indent, node)
            return
        assert isinstance(node, RegWrite)
        line = f"regs[{node.dst}] = v{node.var}"
        if node.pred is not None:
            add(1, f"if p{node.pred}: {line}")
        else:
            add(1, line)

    # -- memory operations -----------------------------------------------

    def _render_stall_loop(self, p: PacketIR) -> None:
        """Replicate ``C6xCore._packet_blocks``: stall while a
        sync-status read in this packet would block."""
        checks = []
        for sc in p.stall_checks:
            addr = _addr(f"regs[{sc.src1}]", sc.imm)
            cond = (f"0 <= (w{sc.m} := ({addr}) - {self.ir.sync_base}) "
                    f"< {SYNC_WINDOW} and sync.read_blocks(w{sc.m})")
            if sc.pred_reg is not None:
                test = "!=" if sc.pred_sense else "=="
                cond = f"regs[{sc.pred_reg}] {test} 0 and {cond}"
            checks.append(f"({cond})")
        if not checks:
            return
        add = self.out.add
        add(1, f"while {' or '.join(checks)}:")
        add(2, "core._stall_cycles += 1")
        add(2, "stats.sync_stall_cycles += 1")
        add(2, "sync.tick()")

    def _render_plain_load(self, indent: int, node: PlainLoad) -> None:
        """Direct bytearray load with a plain-memory range guard."""
        add = self.out.add
        ir = self.ir
        m = node.var
        size = LOADS[node.op].size
        addr = _addr(f"regs[{node.src1}]", node.imm)
        add(indent, f"o{m} = ({addr}) - {ir.mem_base}")
        add(indent, f"if o{m} < 0 or o{m} > {ir.mem_len - size}:")
        self._emit_bail(indent + 1, node.bail)
        var = f"v{m}"
        if size == 1:
            add(indent, f"{var} = mem[o{m}]")
        elif size == 2:
            add(indent, f"{var} = fb(mem[o{m}:o{m} + 2], 'little')")
        else:
            add(indent, f"{var} = fb(mem[o{m}:o{m} + 4], 'little')")
        self._render_sign_fix(indent, node.op, var)

    def _render_device_load(self, indent: int, node: DeviceLoad) -> None:
        """The interpreter's three-way load dispatch, inline."""
        add = self.out.add
        ir = self.ir
        m = node.var
        size = LOADS[node.op].size
        addr = _addr(f"regs[{node.src1}]", node.imm)
        var = f"v{m}"
        add(indent, f"a{m} = {addr}")
        add(indent, f"o{m} = a{m} - {ir.sync_base}")
        add(indent, f"if 0 <= o{m} < {SYNC_WINDOW}:")
        add(indent + 1, f"{var} = sync.read_value(o{m})")
        add(indent + 1, f"core._stall_cycles += {ir.sync_stall}")
        add(indent + 1, f"stats.sync_stall_cycles += {ir.sync_stall}")
        add(indent, "else:")
        add(indent + 1, f"b{m} = a{m} - {ir.bridge_base}")
        add(indent + 1, f"if 0 <= b{m} < {_BRIDGE_WINDOW}:")
        if self._inline_packet:
            add(indent + 2,
                f"if {_SHARED_LO} <= b{m} < {_SHARED_HI}: _ilc[0] += 1")
        add(indent + 2, f"{var} = bridge.read(b{m}, {size})")
        add(indent + 2, f"core._stall_cycles += {ir.bridge_stall}")
        add(indent + 2, f"stats.bridge_stall_cycles += {ir.bridge_stall}")
        add(indent + 1, "else:")
        add(indent + 2, f"mo{m} = a{m} - {ir.mem_base}")
        add(indent + 2, f"if mo{m} < 0 or mo{m} > {ir.mem_len - size}:")
        add(indent + 3,
            f"raise _BusError('target load outside memory', a{m})")
        if size == 1:
            add(indent + 2, f"{var} = mem[mo{m}]")
        else:
            add(indent + 2,
                f"{var} = fb(mem[mo{m}:mo{m} + {size}], 'little')")
        self._render_sign_fix(indent, node.op, var)

    def _render_sign_fix(self, indent: int, op: TOp, var: str) -> None:
        fix = LOADS[op].sign_fix()
        if fix is not None:
            bit, fill = fix
            self.out.add(indent, f"if {var} & {bit:#x}: {var} |= 0x{fill:X}")

    def _render_device_store(self, indent: int, node: DeviceStore) -> None:
        """The interpreter's three-way store dispatch, inline."""
        add = self.out.add
        ir = self.ir
        m = node.m
        size = node.size
        addr = _addr(_operand(node.base), node.imm)
        add(indent, f"sa{m} = {addr}")
        add(indent, f"sv{m} = {_operand(node.val)}")
        add(indent, f"o{m} = sa{m} - {ir.sync_base}")
        add(indent, f"if 0 <= o{m} < {SYNC_WINDOW}:")
        add(indent + 1, f"sync.write(o{m}, sv{m})")
        add(indent + 1, f"core._stall_cycles += {ir.sync_stall}")
        add(indent + 1, f"stats.sync_stall_cycles += {ir.sync_stall}")
        add(indent, "else:")
        add(indent + 1, f"b{m} = sa{m} - {ir.bridge_base}")
        add(indent + 1, f"if 0 <= b{m} < {_BRIDGE_WINDOW}:")
        if self._inline_packet:
            add(indent + 2,
                f"if {_SHARED_LO} <= b{m} < {_SHARED_HI}: _ilc[0] += 1")
        add(indent + 2, f"bridge.write(b{m}, sv{m}, {size})")
        add(indent + 2, f"core._stall_cycles += {ir.bridge_stall}")
        add(indent + 2, f"stats.bridge_stall_cycles += {ir.bridge_stall}")
        add(indent + 1, "else:")
        add(indent + 2, f"mo{m} = sa{m} - {ir.mem_base}")
        add(indent + 2, f"if mo{m} < 0 or mo{m} > {ir.mem_len - size}:")
        add(indent + 3,
            f"raise _BusError('target store outside memory', sa{m})")
        if size == 1:
            add(indent + 2, f"mem[mo{m}] = sv{m} & 0xFF")
        elif size == 2:
            add(indent + 2, f"mem[mo{m}:mo{m} + 2] = "
                            f"(sv{m} & 0xFFFF).to_bytes(2, 'little')")
        else:
            add(indent + 2, f"mem[mo{m}:mo{m} + 4] = "
                            f"(sv{m}).to_bytes(4, 'little')")

    # -- value expressions -----------------------------------------------

    def _value_expr(self, node: AluOp) -> str:
        """Python expression for the phase-1 result of *node*: its
        :data:`VALUE_OPS` template, immediates constant-folded."""
        row = VALUE_OPS.get(node.op)
        if row is None:  # pragma: no cover - lowering emits value ops only
            raise SimulationError(f"unhandled target op {node.op}")
        imm = node.imm or 0
        if node.src2 is not None:
            b = f"regs[{node.src2}]"
            b_u, b_s, b_sh = b, f"s32({b})", f"({b} & 31)"
        else:
            b, b_u, b_s, b_sh = (str(imm), str(u32(imm)), str(s32(u32(imm))),
                                 str(imm & 31))
        return row.py.format(
            a=f"regs[{node.src1}]" if node.src1 is not None else "0",
            b=b, bu=b_u, bs=b_s, sh=b_sh, imm=u32(imm),
            high=u32(imm << 16) & 0xFFFF0000, d=f"regs[{node.dst}]")

    # -- region end ------------------------------------------------------

    def _render_end(self) -> None:
        ir = self.ir
        end = ir.end
        add = self.out.add
        if end is None:  # 'halt': the exit inside the packet returned
            return
        if isinstance(end, BranchEnd):
            if end.pred is not None:
                add(1, f"if p{end.pred}:")
                if end.target is not None:
                    self._emit_epilogue(2, end.taken)
                    self._emit_chain_return(2, "_ct", end.target)
                else:
                    self._emit_epilogue(2, end.taken)
                    add(2, f"return _goto(bi{end.target_var})")
                self._emit_epilogue(1, end.fallthrough)
                self._emit_chain_return(1, "_cf", end.fall_pc)
            else:
                if end.target is not None:
                    self._emit_epilogue(1, end.taken)
                    self._emit_chain_return(1, "_ct", end.target)
                else:
                    self._emit_epilogue(1, end.taken)
                    add(1, f"return _goto(bi{end.target_var})")
            return
        if isinstance(end, CutEnd):
            self._emit_epilogue(1, end.epilogue)
            self._emit_chain_return(1, "_cf", end.chain_pc)
            return
        assert isinstance(end, InterpEnd)
        self._emit_epilogue(1, end.epilogue)
        add(1, "return _INTERP")
