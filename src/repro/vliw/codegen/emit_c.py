"""C emitter: renders Region IR to C99 superblocks for the native backend.

The third pipeline stage, natively: regions are grouped into
**superblocks** by the trace-formation pass
(:mod:`repro.vliw.codegen.trace`) and each superblock compiles to one C
function operating **in place** on the core's register file and data
memory, with everything else crossing a fixed ABI struct (``rio_t``)
that a thin Python wrapper (:mod:`repro.vliw.codegen.native`) applies.

Inside a superblock every member region is a labelled block; chain
edges between members are direct ``goto``\\ s (indirect branches go
through an in-function ``switch`` dispatch over entry packet indices),
so whole hot traces — including self-chaining loop regions — execute
in a single C call.  The sync-device mirror and the in-flight
writeback set stay resident in the ABI struct across those internal
edges (``_sb_flight`` rebases the writebacks exactly the way the
Python wrapper used to between calls); they are flushed back to Python
only when the function returns: on bail, halt, interp hand-off, an
exit edge leaving the superblock, or **lockstep-quantum expiry** — a
budget check at every internal chain edge reproduces ``run_slice``'s
region-boundary quantum test bit for bit, so multi-core lockstep and
contention contracts are untouched.

What runs in C:

* all register arithmetic, plain loads/stores (with the interpreter
  bail on range misses), zero-delay forwarding, predication, halt and
  branch logic — including indirect-branch resolution through the
  program's landing map shipped as sorted arrays (binary search);
* the **synchronization device**: its whole state machine (pending
  main/correction counts, the fractional-rate accumulator, emulated
  cycle and statistics counters) is mirrored in the ABI struct, so the
  cycle-annotation packets that begin and end every translated block
  at detail levels >= 1 — sync-window stores, blocking status reads,
  the stall loop, batched ``tick_n`` advances — execute natively and
  bit-identically (same IEEE-754 doubles, same truncating casts);
* each region exit's precomputed :class:`~repro.vliw.codegen.ir.Epilogue`:
  run-time counters, delay-slot writeback spills and the pending
  branch are reported through the struct; static counter prefixes are
  applied by the wrapper from IR-derived tables.

What does not, by design:

* **bus-bridge traffic** (UART, timers, the exit device, the shared
  multi-core segment — which lives inside the bridge window) reaches
  Python peripherals, monitors and the arbiter, so every device packet
  pre-checks all its access addresses against the bridge window —
  before any effect applies, the same way the Python emitter's
  shared-segment guard works — and **bails the packet to the
  interpreter** when one lands there.  This subsumes the shared-window
  guard, preserving the multi-core lockstep contract unchanged.  A
  device store whose address depends on a same-packet result cannot be
  pre-checked and bails unconditionally;
* regions the emitter declines (none today — the op set is closed) and
  entries discovered only at run time render through the Python
  emitter; regions that bail persistently (a UART loop hammering the
  bridge window) are swapped for their Python rendering at run time by
  the wrapper, so the native backend never loses to the packet
  compiler on device-heavy code.

Error paths (bus errors, sync protocol violations, unresolvable
indirect branches) return a typed error kind plus context; the wrapper
re-raises the interpreter's exact exception.  As documented for the
packet-compiled backend, no result is produced on those paths.

C correctness notes: all arithmetic is done in ``uint32_t`` (defined
wrap-around); signed ops go through ``int32_t`` casts with products
widened to ``int64_t`` (32x32 multiply overflow is UB in C, defined in
the reference semantics); memory accesses compose bytes explicitly, so
the generated code is endian-independent; address range checks compute
offsets in ``int64_t`` to keep window comparisons exact.
"""

from __future__ import annotations

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
from repro.vliw.codegen.trace import ModulePlan, SuperblockPlan, form_traces
from repro.vliw.core import BRIDGE_WINDOW as _BRIDGE_WINDOW
from repro.vliw.syncdev import (
    REG_CMD,
    REG_CORR_CMD,
    REG_CORR_STATUS,
    REG_STATUS,
    SYNC_WINDOW,
)

#: ABI revision — part of the shared-object cache key; bump on any
#: change to ``rio_t`` or the calling convention.  Rev 3: superblock
#: ABI (resident in-flight set, budget, accumulated totals, demotion
#: bitmap, dirty block-site counters).
ABI_VERSION = 3

#: fixed array capacities of the ABI struct
IN_MAX = 64  # >= register-file size (model caps at 2 x 32)
SPILL_MAX = 64

#: exit kinds reported by a superblock function
KIND_CHAIN = 0  # continue at ``next_pc`` (branch taken / fall-through)
KIND_INTERP = 1  # region end only the interpreter can follow
KIND_BAIL = 2  # current packet must re-execute on the interpreter
KIND_HALT = 3  # the core halted
#: error kinds (>= KIND_ERROR_BASE): the wrapper re-raises the
#: interpreter's exception after applying the totals of the internally
#: chained regions that *did* complete; the erroring region itself
#: contributed nothing (same contract as the packet-compiled backend)
KIND_ERROR_BASE = 4
KIND_BADBRANCH = 4  # indirect branch to an untranslated address (aux)
KIND_BUSERR_LOAD = 5  # load outside every window (aux = address)
KIND_BUSERR_STORE = 6  # store outside every window (aux = address)
KIND_SYNC_BADWRITE = 7  # invalid sync register write (aux = offset)
KIND_SYNC_BADREAD = 8  # invalid sync register read (aux = offset)
KIND_SYNC_PROTO_MAIN = 9  # main-channel protocol violation
KIND_SYNC_PROTO_CORR = 10  # correction-channel protocol violation
KIND_INFLIGHT_OVF = 11  # in-flight set overflowed IN_MAX (WAW hazard)

#: the ABI struct, shared verbatim between the generated C, the cffi
#: cdef and the ctypes mirror (see ``native.py``).  The sync_* block
#: mirrors :class:`~repro.vliw.syncdev.SyncDevice` state; the wrapper
#: loads it before the call and stores it back after (all paths,
#: including errors — the device mutates exactly as far as the
#: interpreter's would).  Superblock fields: ``sb_pc`` carries the
#: entry packet index in and the exiting (bail-attributed) member's
#: entry index out; ``budget`` is the remaining lockstep quantum in
#: target cycles; the ``*_total`` counters accumulate across the
#: internally chained regions of one call; ``sb_off`` is the
#: module-wide per-member demotion bitmap; ``blk``/``blk_dirty`` are
#: the module-wide block-site counters plus the dirty list
#: (``blocks_done`` counts dirty sites) the wrapper folds into
#: ``CoreStats.block_executions``.
RIO_STRUCT = f"""\
typedef struct {{
    int32_t in_n;
    int32_t in_reg[{IN_MAX}];
    int32_t in_mat[{IN_MAX}];
    uint32_t in_val[{IN_MAX}];
    int32_t a2p_n;
    const uint32_t *a2p_addr;
    const int32_t *a2p_idx;
    const uint8_t *sb_off;
    int64_t *blk;
    int32_t *blk_dirty;
    int32_t kind;
    int32_t next_pc;
    int32_t sb_pc;
    uint32_t aux;
    int32_t blocks_done;
    int32_t n_spill;
    int32_t spill_reg[{SPILL_MAX}];
    int32_t spill_mat[{SPILL_MAX}];
    uint32_t spill_val[{SPILL_MAX}];
    int32_t pb;
    int32_t pb_mat;
    int32_t pb_target;
    int64_t budget;
    int64_t executed_total;
    int64_t instr_total;
    int64_t nop_total;
    int64_t src_total;
    int64_t sync_stall;
    double sync_rate;
    double sync_acc;
    int64_t sync_pending_main;
    int64_t sync_pending_corr;
    int64_t sync_emulated;
    int64_t sync_blocks_started;
    int64_t sync_corrections_started;
    int64_t sync_cycles_generated;
    int64_t sync_corr_cycles_generated;
}} rio_t;
"""

_PRELUDE = f"""\
#include <stdint.h>

{RIO_STRUCT}
static int32_t _a2p_find(const rio_t *io, uint32_t addr) {{
    int32_t lo = 0, hi = io->a2p_n - 1;
    while (lo <= hi) {{
        int32_t mid = (lo + hi) >> 1;
        uint32_t probe = io->a2p_addr[mid];
        if (probe == addr) return io->a2p_idx[mid];
        if (probe < addr) lo = mid + 1; else hi = mid - 1;
    }}
    return -1;
}}

static void _spill(rio_t *io, int32_t r, int32_t m, uint32_t v) {{
    io->spill_reg[io->n_spill] = r;
    io->spill_mat[io->n_spill] = m;
    io->spill_val[io->n_spill] = v;
    io->n_spill++;
}}

/* Rebase the resident in-flight writeback set across a region exit:
   drop entries that matured inside the region just executed (its
   commit sections already applied them, up to the entry window),
   shift the survivors to the new issue origin and fold in the spills.
   Mirrors the drop-then-respill dance the Python wrapper performs
   between per-region calls.  Returns 1 on overflow (two writes to one
   register in flight at once — a WAW scheduler hazard). */
static int32_t _sb_flight(rio_t *io, int32_t executed, int32_t limit) {{
    int32_t n = 0, i;
    for (i = 0; i < io->in_n; i++) {{
        if (io->in_mat[i] < limit) continue;
        io->in_reg[n] = io->in_reg[i];
        io->in_mat[n] = io->in_mat[i] - executed;
        io->in_val[n] = io->in_val[i];
        n++;
    }}
    for (i = 0; i < io->n_spill; i++) {{
        if (n >= {IN_MAX}) return 1;
        io->in_reg[n] = io->spill_reg[i];
        io->in_mat[n] = io->spill_mat[i] - executed;
        io->in_val[n] = io->spill_val[i];
        n++;
    }}
    io->in_n = n;
    io->n_spill = 0;
    return 0;
}}

/* SyncDevice.tick — bit-identical port (IEEE doubles, truncation) */
static void _tick(rio_t *io) {{
    int64_t emit, step;
    if (!(io->sync_pending_main || io->sync_pending_corr)) {{
        io->sync_acc = 0.0;
        return;
    }}
    io->sync_acc += io->sync_rate;
    emit = (int64_t)io->sync_acc;
    if (emit <= 0) return;
    io->sync_acc -= (double)emit;
    while (emit > 0 && io->sync_pending_main > 0) {{
        step = emit < io->sync_pending_main ? emit : io->sync_pending_main;
        io->sync_pending_main -= step;
        io->sync_emulated += step;
        io->sync_cycles_generated += step;
        emit -= step;
    }}
    while (emit > 0 && io->sync_pending_corr > 0) {{
        step = emit < io->sync_pending_corr ? emit : io->sync_pending_corr;
        io->sync_pending_corr -= step;
        io->sync_emulated += step;
        io->sync_corr_cycles_generated += step;
        emit -= step;
    }}
}}

/* SyncDevice.tick_n — bit-identical port incl. the integer fast path */
static void _tick_n(rio_t *io, int64_t count) {{
    int64_t i, remaining, step;
    if (count <= 0) return;
    if (!(io->sync_pending_main || io->sync_pending_corr)) {{
        io->sync_acc = 0.0;
        return;
    }}
    if (io->sync_rate == (double)(int64_t)io->sync_rate
            && io->sync_acc == 0.0) {{
        remaining = (int64_t)io->sync_rate * count;
        if (io->sync_pending_main) {{
            step = (remaining < io->sync_pending_main
                    ? remaining : io->sync_pending_main);
            io->sync_pending_main -= step;
            io->sync_emulated += step;
            io->sync_cycles_generated += step;
            remaining -= step;
        }}
        if (remaining && io->sync_pending_corr) {{
            step = (remaining < io->sync_pending_corr
                    ? remaining : io->sync_pending_corr);
            io->sync_pending_corr -= step;
            io->sync_emulated += step;
            io->sync_corr_cycles_generated += step;
        }}
        return;
    }}
    for (i = 0; i < count; i++) _tick(io);
}}
"""


def _operand(opnd: tuple) -> str:
    kind = opnd[0]
    if kind == "reg":
        return f"regs[{opnd[1]}]"
    if kind == "var":
        return f"v{opnd[1]}"
    return f"(p{opnd[2]} ? v{opnd[1]} : regs[{opnd[3]}])"


def _addr(base: str, imm: int) -> str:
    """u32 effective address (wraps like the reference semantics)."""
    if imm:
        return f"(uint32_t)({base} + {u32(imm)}u)"
    return base


class UnsupportedRegion(Exception):
    """Raised internally when a region does not fit the native ABI."""

    def __init__(self, reason: str, pc0: int | None = None) -> None:
        super().__init__(reason)
        self.pc0 = pc0


class CEmitter:
    """Renders superblocks to C99; declines what the ABI cannot express."""

    name = "c"

    def symbol(self, ir: RegionIR) -> str:
        return f"sb{ir.pc0}"

    def emit(self, ir: RegionIR) -> tuple[str, str] | None:
        """Render *ir* as a single-member superblock;
        ``(c_source, symbol)`` or ``None`` to decline."""
        symbol = self.symbol(ir)
        try:
            source = self._render_superblock(
                symbol, (ir.pc0,), {ir.pc0: ir}, {ir.pc0: 0}, [])
        except UnsupportedRegion:
            return None
        return source, symbol

    def emit_module(self, irs, landing_sites=()) -> tuple[str, ModulePlan]:
        """One translation unit of superblocks covering *irs*.

        *landing_sites* is the program's indirect-branch landing set
        (``addr_to_packet`` values), used by trace formation to keep
        indirect chains inside one superblock.  Returns
        ``(c_source, plan)``; regions the ABI cannot express are
        simply absent from the plan (their superblock group re-forms
        without them).  The source is deterministic for a given IR
        set, which is what makes the on-disk shared-object cache
        content-addressable.
        """
        irs_by_pc = {ir.pc0: ir for ir in irs}
        while True:
            try:
                return self._emit_module_once(irs_by_pc, landing_sites)
            except UnsupportedRegion as exc:  # pragma: no cover - the
                # op set is closed today; this path guards future ops
                if exc.pc0 is None or exc.pc0 not in irs_by_pc:
                    raise
                del irs_by_pc[exc.pc0]

    def _emit_module_once(self, irs_by_pc: dict[int, RegionIR],
                          landing_sites) -> tuple[str, ModulePlan]:
        groups = form_traces(irs_by_pc, landing_sites)
        member_index: dict[int, int] = {}
        for members in groups:
            for pc0 in members:
                member_index[pc0] = len(member_index)
        sites: list[int] = []
        chunks = [_PRELUDE]
        superblocks = []
        for members in groups:
            symbol = f"sb{members[0]}"
            chunks.append(self._render_superblock(
                symbol, members, irs_by_pc, member_index, sites))
            superblocks.append(SuperblockPlan(symbol=symbol,
                                              members=members))
        plan = ModulePlan(tuple(superblocks), tuple(sites))
        return "\n".join(chunks), plan

    def _render_superblock(self, symbol: str, members, irs_by_pc,
                           member_index, sites: list) -> str:
        """One C function: labelled member blocks + dispatch switch.

        Entry loads ``io->sb_pc`` and the quantum budget, then jumps to
        the dispatch switch, which routes any member entry (initial or
        indirect) to its block unless its demotion bit is set.  Control
        that reaches ``Lexit`` leaves with ``KIND_CHAIN`` at ``spc``.
        """
        member_set = frozenset(members)
        lines = [
            f"int32_t {symbol}(uint32_t *regs, uint8_t *mem, "
            f"rio_t *io) {{",
            "    int32_t spc = io->sb_pc;",
            "    int64_t budget = io->budget;",
            "    io->pb = 0;",
            "    goto Ldispatch;",
        ]
        for pc0 in members:
            renderer = _CRenderer(irs_by_pc[pc0], member_set,
                                  member_index, sites)
            try:
                lines.append(renderer.render_block())
            except UnsupportedRegion as exc:
                raise UnsupportedRegion(str(exc), pc0) from None
        lines.append("Ldispatch:")
        lines.append("    switch (spc) {")
        for pc0 in members:
            lines.append(f"    case {pc0}: "
                         f"if (!io->sb_off[{member_index[pc0]}]) "
                         f"goto L{pc0}; break;")
        lines.append("    default: break;")
        lines.append("    }")
        lines.append("Lexit:")
        lines.append("    io->next_pc = spc;")
        lines.append(f"    io->kind = {KIND_CHAIN};")
        lines.append(f"    return {KIND_CHAIN};")
        lines.append("}")
        lines.append("")
        return "\n".join(lines)


class _CRenderer:
    """Walks one member region's IR, emitting its superblock block.

    *members* is the owning superblock's member set (chain edges into
    it render as internal ``goto``\\ s), *member_index* the module-wide
    member numbering (demotion-bitmap indices) and *sites* the
    module-wide block-site allocator (the renderer appends each block
    head's source address and indexes ``io->blk`` with its position).
    """

    def __init__(self, ir: RegionIR, members: frozenset = frozenset(),
                 member_index: dict | None = None,
                 sites: list | None = None) -> None:
        self.ir = ir
        self.members = members
        self.member_index = member_index if member_index is not None else {}
        self.sites = sites if sites is not None else []
        self.lines: list[str] = []
        self.indent = 1

    def add(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    # -- declarations ----------------------------------------------------

    def _declarations(self) -> list[str]:
        vals: set[int] = set()
        preds: set[int] = set()
        store_offs: set[int] = set()
        has_indirect = False
        has_halt = False
        for p in self.ir.packets:
            for pred in p.preds:
                preds.add(pred.var)
            for value in p.values:
                vals.add(value.var)
            for check in p.store_checks:
                store_offs.add(check.m)
            for node in p.applies:
                if isinstance(node, IndirectBranch):
                    has_indirect = True
                elif isinstance(node, HaltOp):
                    has_halt = True
        out = ["int32_t ci = 0, cn = 0;"]
        if vals:
            decl = ", ".join(f"v{m} = 0u" for m in sorted(vals))
            out.append(f"uint32_t {decl};")
        if preds:
            decl = ", ".join(f"p{m} = 0" for m in sorted(preds))
            out.append(f"int32_t {decl};")
        if store_offs:
            decl = ", ".join(f"so{m} = 0" for m in sorted(store_offs))
            out.append(f"int64_t {decl};")
        if has_indirect:
            out.append("int32_t btarget = -1;")
        if has_halt:
            out.append("int32_t halted = 0;")
        out.append("(void)mem;")
        return out

    # -- epilogues -------------------------------------------------------

    def _accumulate(self, ep: Epilogue) -> None:
        """Fold one exiting region's epilogue into the resident state:
        counter totals, batched ticks, then the in-flight rebase
        (commit-window drop + spill fold) and the executed count."""
        if len(ep.spills) > SPILL_MAX:
            raise UnsupportedRegion(f"{len(ep.spills)} spills")
        add = self.add
        terms = []
        if ep.instr_static:
            terms.append(str(ep.instr_static))
        if ep.use_ci:
            terms.append("ci")
        if terms:
            add(f"io->instr_total += {' + '.join(terms)};")
        terms = []
        if ep.nop_static:
            terms.append(str(ep.nop_static))
        if ep.use_cn:
            terms.append("cn")
        if terms:
            add(f"io->nop_total += {' + '.join(terms)};")
        if ep.src_static:
            add(f"io->src_total += {ep.src_static};")
        if ep.ticks > 0:
            add(f"_tick_n(io, {ep.ticks});")
        add("io->n_spill = 0;")
        for spill in ep.spills:
            line = f"_spill(io, {spill.dst}, {spill.mature}, v{spill.var});"
            if spill.pred is not None:
                add(f"if (p{spill.pred}) {line}")
            else:
                add(line)
        # the commit sections ran for the first commits_ran packets
        # (a bail packet's too: it re-executes on the core); the entry
        # window bounds how deep commit sections scan the in-flight set
        limit = min(ep.commits_ran, self.ir.entry_window)
        add(f"if (_sb_flight(io, {ep.executed}, {limit})) "
            f"{{ io->kind = {KIND_INFLIGHT_OVF}; "
            f"return {KIND_INFLIGHT_OVF}; }}")
        add(f"io->executed_total += {ep.executed};")

    def _emit_epilogue(self, ep: Epilogue, kind: int,
                       next_pc_expr: str) -> None:
        """An external exit: accumulate, report, return to the wrapper.

        ``pb_mat`` is rebased to the exit's issue origin (the wrapper
        adds the whole call's executed total); ``sb_pc`` attributes the
        exit — in particular a bail — to this member region.
        """
        add = self.add
        self._accumulate(ep)
        add(f"io->next_pc = {next_pc_expr};")
        if ep.branch is not None:
            br = ep.branch
            target = str(br.target) if br.target is not None else "btarget"
            fire = (f"io->pb = 1; io->pb_mat = {br.effective - ep.executed}; "
                    f"io->pb_target = {target};")
            if br.pred is not None:
                add(f"if (p{br.pred}) {{ {fire} }}")
            else:
                add(fire)
        add(f"io->sb_pc = {self.ir.pc0};")
        add(f"io->kind = {kind}; return {kind};")

    def _emit_bail(self, ep: Epilogue) -> None:
        self._emit_epilogue(ep, KIND_BAIL, str(self.ir.pc0 + ep.executed))

    def _chain_exit(self, ep: Epilogue, target: int | None) -> None:
        """A chain edge: internal when the target is an enabled member
        and the quantum budget allows, external otherwise.

        The budget test ``executed_total + sync_stall >= budget``
        reproduces ``run_slice``'s post-region ``cycles >= until``
        check exactly (the wrapper computes ``budget`` as the limit
        minus the core's cycle count at entry), so lockstep quanta
        stop at the same region boundaries as per-region dispatch.
        """
        add = self.add
        if ep.branch is not None:  # pragma: no cover - lower builds
            # chain exits with a clean pipeline; render externally if
            # that ever changes
            self._emit_epilogue(
                ep, KIND_CHAIN,
                str(target) if target is not None else "btarget")
            return
        if target is not None and target not in self.members:
            self._emit_epilogue(ep, KIND_CHAIN, str(target))
            return
        self._accumulate(ep)
        add(f"io->sb_pc = {self.ir.pc0};")
        if target is None:
            add("spc = btarget;")
            add("if (io->executed_total + io->sync_stall >= budget) "
                "goto Lexit;")
            add("goto Ldispatch;")
        else:
            add(f"spc = {target};")
            add("if (io->executed_total + io->sync_stall >= budget) "
                "goto Lexit;")
            add(f"if (!io->sb_off[{self.member_index[target]}]) "
                f"goto L{target};")
            add("goto Lexit;")

    def _emit_error(self, kind: int, aux_expr: str) -> None:
        self.add(f"io->aux = (uint32_t)({aux_expr}); "
                 f"io->kind = {kind}; return {kind};")

    # -- main ------------------------------------------------------------

    def render_block(self) -> str:
        """This member as a labelled block of its superblock function.

        The label precedes the compound statement, so jumping to it
        (dispatch or an internal chain edge) runs the declarations'
        initializers — re-entry via a loop back edge starts from a
        clean slate of locals, exactly like a fresh call used to.
        """
        ir = self.ir
        for p in ir.packets:
            self._render_packet(p)
        self._render_end()
        body = self.lines
        decls = ["    " + line for line in self._declarations()]
        return "\n".join([f"L{ir.pc0}: {{"] + decls + body + ["}"])

    def _render_packet(self, p: PacketIR) -> None:
        ir = self.ir
        add = self.add
        add(f"/* packet {p.index} (+{p.offset}) */")

        # 1. writeback commits due at this packet's issue point
        if p.entry_commit:
            test = ("<= 0" if p.offset == 0 else f"== {p.offset}")
            add("for (int32_t _i = 0; _i < io->in_n; _i++)")
            add(f"    if (io->in_mat[_i] {test}) "
                f"regs[io->in_reg[_i]] = io->in_val[_i];")
        for commit in p.commits:
            line = f"regs[{commit.dst}] = v{commit.var};"
            if commit.pred is not None:
                add(f"if (p{commit.pred}) {line}")
            else:
                add(line)

        # 2a. bridge-window pre-check: bus-bridge traffic (and with it
        #     the multi-core shared segment, a bridge sub-window) needs
        #     Python peripherals, so the packet bails *before* any of
        #     its accesses execute — the generalized form of the Python
        #     emitter's shared-segment guard, using the same epilogue
        if p.device:
            if p.guard is None:  # pragma: no cover - device implies
                raise UnsupportedRegion("device packet without guard")
            if not p.guard.checks:
                # a store base depends on a same-packet result: the
                # address cannot be pre-checked, so the packet always
                # runs interpreted
                self._emit_bail(p.guard.bail)
                return  # rest of the packet (and region) is dead code
            conds = []
            for check in p.guard.checks:
                addr = _addr(_operand(check.base), check.imm)
                cond = (f"0 <= (int64_t)({addr}) - {ir.bridge_base} "
                        f"&& (int64_t)({addr}) - {ir.bridge_base} "
                        f"< {_BRIDGE_WINDOW}")
                if check.pred_reg is not None:
                    test = "!=" if check.pred_sense else "=="
                    cond = f"regs[{check.pred_reg}] {test} 0u && ({cond})"
                conds.append(f"({cond})")
            add(f"if ({' || '.join(conds)}) {{")
            self.indent += 1
            self._emit_bail(p.guard.bail)
            self.indent -= 1
            add("}")

        # 2. device packets are tick barriers: flush batched ticks, then
        #    replicate the interpreter's blocking-read stall loop
        if p.device:
            if p.tick_flush > 0:
                add(f"_tick_n(io, {p.tick_flush});")
            self._render_stall_loop(p)

        # 3. phase A1: predicates (pre-packet register state)
        for pred in p.preds:
            test = "!=" if pred.sense else "=="
            add(f"p{pred.var} = regs[{pred.reg}] {test} 0u;")

        # 4. phase A2: values (loads carry their memory dispatch)
        for value in p.values:
            guarded = value.pred is not None
            if guarded:
                add(f"if (p{value.pred}) {{")
                self.indent += 1
            if isinstance(value, PlainLoad):
                self._render_plain_load(value)
            elif isinstance(value, DeviceLoad):
                self._render_device_load(value)
            else:
                add(f"v{value.var} = {self._value_expr(value)};")
            if guarded:
                self.indent -= 1
                add("}")

        # 5. phase A3: plain-store range checks (apply-time bases)
        for check in p.store_checks:
            guarded = check.pred is not None
            if guarded:
                add(f"if (p{check.pred}) {{")
                self.indent += 1
            m = check.m
            addr = _addr(_operand(check.base), check.imm)
            add(f"so{m} = (int64_t)({addr}) - {ir.mem_base};")
            add(f"if (so{m} < 0 || so{m} > {ir.mem_len - check.size}) {{")
            self.indent += 1
            self._emit_bail(check.bail)
            self.indent -= 1
            add("}")
            if guarded:
                self.indent -= 1
                add("}")

        # 6. per-block statistics: the dict lives in Python, so each
        #    block-head site bumps its module-wide counter and, on the
        #    0 -> 1 transition, registers itself on the dirty list —
        #    the wrapper folds only touched sites (exact even on error
        #    paths, cheap even when a call runs one region)
        if p.block is not None:
            site = len(self.sites)
            self.sites.append(p.block[0])
            add(f"if (io->blk[{site}]++ == 0) "
                f"io->blk_dirty[io->blocks_done++] = {site};")

        # 7. phase A4: execution counters (after every possible bail)
        for var in p.ci_preds:
            add(f"if (p{var}) ci++;")
        if p.cn_preds:
            test = " || ".join(f"p{var}" for var in p.cn_preds)
            add(f"if (!({test})) cn++;")

        # 8. phase B: apply effects in packet order
        for node in p.applies:
            self._render_apply(node)

        # 9. a device packet ticks immediately (order vs. device writes
        #    matters).  The exit-device check of the Python emitter is
        #    statically dead here: bridge stores bailed at the
        #    pre-check, and only the bridge reaches the exit device.
        if p.device_tick:
            add("_tick(io);")

        # 10. conditional halt exit
        if p.halt_exit is not None:
            unpred, ep = p.halt_exit
            if unpred:
                self._emit_epilogue(ep, KIND_HALT, str(ir.pc0 + ep.executed))
            else:
                add("if (halted) {")
                self.indent += 1
                self._emit_epilogue(ep, KIND_HALT, str(ir.pc0 + ep.executed))
                self.indent -= 1
                add("}")

    def _render_apply(self, node) -> None:
        add = self.add
        if isinstance(node, HaltOp):
            if node.pred is not None:
                add(f"if (p{node.pred}) halted = 1;")
            else:
                add("halted = 1;")
            return
        if isinstance(node, IndirectBranch):
            m = node.m
            guarded = node.pred is not None
            if guarded:
                add(f"if (p{node.pred}) {{")
                self.indent += 1
            add(f"uint32_t bt{m} = {_operand(node.value)};")
            add(f"btarget = _a2p_find(io, bt{m});")
            add(f"if (btarget < 0) {{ io->aux = bt{m}; "
                f"io->kind = {KIND_BADBRANCH}; return {KIND_BADBRANCH}; }}")
            if guarded:
                self.indent -= 1
                add("}")
            return
        if isinstance(node, PlainStore):
            guarded = node.pred is not None
            if guarded:
                add(f"if (p{node.pred}) {{")
                self.indent += 1
            m = node.m
            val = _operand(node.val)
            add(f"mem[so{m}] = (uint8_t)({val});")
            for byte in range(1, node.size):
                add(f"mem[so{m} + {byte}] = "
                    f"(uint8_t)(({val}) >> {8 * byte});")
            if guarded:
                self.indent -= 1
                add("}")
            return
        if isinstance(node, DeviceStore):
            guarded = node.pred is not None
            if guarded:
                add(f"if (p{node.pred}) {{")
                self.indent += 1
            self._render_device_store(node)
            if guarded:
                self.indent -= 1
                add("}")
            return
        assert isinstance(node, RegWrite), node
        line = f"regs[{node.dst}] = v{node.var};"
        if node.pred is not None:
            add(f"if (p{node.pred}) {line}")
        else:
            add(line)

    # -- device dispatch (sync window or plain memory; the bridge
    #    window bailed at the packet pre-check) ---------------------------

    def _render_stall_loop(self, p: PacketIR) -> None:
        """``C6xCore._packet_blocks``: stall while a sync-status read
        in this packet would block — preserving Python's short-circuit
        evaluation order, including the invalid-offset error."""
        if not p.stall_checks:
            return
        ir = self.ir
        add = self.add
        add("for (;;) {")
        self.indent += 1
        add("int32_t _blocked = 0;")
        for sc in p.stall_checks:
            addr = _addr(f"regs[{sc.src1}]", sc.imm)
            add("if (!_blocked) {")
            self.indent += 1
            inner = 0
            if sc.pred_reg is not None:
                test = "!=" if sc.pred_sense else "=="
                add(f"if (regs[{sc.pred_reg}] {test} 0u) {{")
                self.indent += 1
                inner = 1
            add(f"int64_t w{sc.m} = (int64_t)({addr}) - {ir.sync_base};")
            add(f"if (0 <= w{sc.m} && w{sc.m} < {SYNC_WINDOW}) {{")
            self.indent += 1
            add(f"if (w{sc.m} == {REG_STATUS}) "
                f"_blocked = io->sync_pending_main > 0;")
            add(f"else if (w{sc.m} == {REG_CORR_STATUS}) "
                f"_blocked = io->sync_pending_corr > 0;")
            add("else {")
            self.indent += 1
            self._emit_error(KIND_SYNC_BADREAD, f"w{sc.m}")
            self.indent -= 1
            add("}")
            self.indent -= 1
            add("}")
            for _ in range(inner):
                self.indent -= 1
                add("}")
            self.indent -= 1
            add("}")
        add("if (!_blocked) break;")
        add("io->sync_stall += 1;")
        add("_tick(io);")
        self.indent -= 1
        add("}")

    def _render_device_load(self, node: DeviceLoad) -> None:
        """Two-way dispatch: sync window or plain target memory."""
        add = self.add
        ir = self.ir
        m = node.var
        size = LOADS[node.op].size
        addr = _addr(f"regs[{node.src1}]", node.imm)
        add("{")
        self.indent += 1
        add(f"uint32_t a{m} = {addr};")
        add(f"int64_t o{m} = (int64_t)a{m} - {ir.sync_base};")
        add(f"if (0 <= o{m} && o{m} < {SYNC_WINDOW}) {{")
        self.indent += 1
        add(f"if (o{m} != {REG_STATUS} && o{m} != {REG_CORR_STATUS}) {{")
        self.indent += 1
        self._emit_error(KIND_SYNC_BADREAD, f"o{m}")
        self.indent -= 1
        add("}")
        add(f"v{m} = 0u;")
        add(f"io->sync_stall += {ir.sync_stall};")
        self.indent -= 1
        add("} else {")
        self.indent += 1
        add(f"int64_t mo{m} = (int64_t)a{m} - {ir.mem_base};")
        add(f"if (mo{m} < 0 || mo{m} > {ir.mem_len - size}) {{")
        self.indent += 1
        self._emit_error(KIND_BUSERR_LOAD, f"a{m}")
        self.indent -= 1
        add("}")
        parts = [f"(uint32_t)mem[mo{m}]"]
        for byte in range(1, size):
            parts.append(f"((uint32_t)mem[mo{m} + {byte}] << {8 * byte})")
        add(f"v{m} = {' | '.join(parts)};")
        self.indent -= 1
        add("}")
        self._render_sign_fix(node.op, m)
        self.indent -= 1
        add("}")

    def _render_device_store(self, node: DeviceStore) -> None:
        add = self.add
        ir = self.ir
        m = node.m
        size = node.size
        addr = _addr(_operand(node.base), node.imm)
        add("{")
        self.indent += 1
        add(f"uint32_t sa{m} = {addr};")
        add(f"uint32_t sv{m} = {_operand(node.val)};")
        add(f"int64_t o{m} = (int64_t)sa{m} - {ir.sync_base};")
        add(f"if (0 <= o{m} && o{m} < {SYNC_WINDOW}) {{")
        self.indent += 1
        add(f"if (o{m} == {REG_CMD}) {{")
        self.indent += 1
        add("if (io->sync_pending_main) {")
        self.indent += 1
        self._emit_error(KIND_SYNC_PROTO_MAIN, f"o{m}")
        self.indent -= 1
        add("}")
        add(f"io->sync_pending_main = (int64_t)sv{m};")
        add("io->sync_blocks_started++;")
        self.indent -= 1
        add(f"}} else if (o{m} == {REG_CORR_CMD}) {{")
        self.indent += 1
        add("if (io->sync_pending_corr) {")
        self.indent += 1
        self._emit_error(KIND_SYNC_PROTO_CORR, f"o{m}")
        self.indent -= 1
        add("}")
        add(f"io->sync_pending_corr = (int64_t)sv{m};")
        add(f"if (sv{m}) io->sync_corrections_started++;")
        self.indent -= 1
        add("} else {")
        self.indent += 1
        self._emit_error(KIND_SYNC_BADWRITE, f"o{m}")
        self.indent -= 1
        add("}")
        add(f"io->sync_stall += {ir.sync_stall};")
        self.indent -= 1
        add("} else {")
        self.indent += 1
        add(f"int64_t mo{m} = (int64_t)sa{m} - {ir.mem_base};")
        add(f"if (mo{m} < 0 || mo{m} > {ir.mem_len - size}) {{")
        self.indent += 1
        self._emit_error(KIND_BUSERR_STORE, f"sa{m}")
        self.indent -= 1
        add("}")
        add(f"mem[mo{m}] = (uint8_t)(sv{m});")
        for byte in range(1, size):
            add(f"mem[mo{m} + {byte}] = (uint8_t)(sv{m} >> {8 * byte});")
        self.indent -= 1
        add("}")
        self.indent -= 1
        add("}")

    def _render_plain_load(self, node: PlainLoad) -> None:
        add = self.add
        ir = self.ir
        m = node.var
        size = LOADS[node.op].size
        addr = _addr(f"regs[{node.src1}]", node.imm)
        add("{")
        self.indent += 1
        add(f"int64_t o{m} = (int64_t)({addr}) - {ir.mem_base};")
        add(f"if (o{m} < 0 || o{m} > {ir.mem_len - size}) {{")
        self.indent += 1
        self._emit_bail(node.bail)
        self.indent -= 1
        add("}")
        parts = [f"(uint32_t)mem[o{m}]"]
        for byte in range(1, size):
            parts.append(f"((uint32_t)mem[o{m} + {byte}] << {8 * byte})")
        add(f"v{m} = {' | '.join(parts)};")
        self._render_sign_fix(node.op, m)
        self.indent -= 1
        add("}")

    def _render_sign_fix(self, op: TOp, m: int) -> None:
        fix = LOADS[op].sign_fix()
        if fix is not None:
            bit, fill = fix
            self.add(f"if (v{m} & {bit:#x}u) v{m} |= 0x{fill:X}u;")

    # -- value expressions -----------------------------------------------

    def _value_expr(self, node: AluOp) -> str:
        """C expression for the phase-1 result of *node*: the C column
        of its :data:`VALUE_OPS` row, immediates constant-folded."""
        row = VALUE_OPS.get(node.op)
        if row is None or row.c is None:
            raise UnsupportedRegion(f"op {node.op}")
        imm = node.imm or 0
        if node.src2 is not None:
            b_u = f"regs[{node.src2}]"
            b_s, b_sh = f"(int32_t){b_u}", f"({b_u} & 31u)"
        else:
            b_u, b_s, b_sh = f"{u32(imm)}u", str(s32(u32(imm))), str(imm & 31)
        return row.c.format(
            a=f"regs[{node.src1}]" if node.src1 is not None else "0u",
            bu=b_u, bs=b_s, sh=b_sh, imm=f"{u32(imm)}u",
            high=f"{u32(imm << 16) & 0xFFFF0000}u", d=f"regs[{node.dst}]")

    # -- region end ------------------------------------------------------

    def _render_end(self) -> None:
        ir = self.ir
        end = ir.end
        add = self.add
        if end is None:  # 'halt': the exit inside the packet returned
            return
        if isinstance(end, BranchEnd):
            if end.pred is not None:
                add(f"if (p{end.pred}) {{")
                self.indent += 1
                self._chain_exit(end.taken, end.target)
                self.indent -= 1
                add("}")
                self._chain_exit(end.fallthrough, end.fall_pc)
            else:
                self._chain_exit(end.taken, end.target)
            return
        if isinstance(end, CutEnd):
            self._chain_exit(end.epilogue, end.chain_pc)
            return
        assert isinstance(end, InterpEnd)
        self._emit_epilogue(end.epilogue, KIND_INTERP,
                            str(ir.pc0 + end.epilogue.executed))
