"""Stage-level ("RT level") simulator of the source processor.

The stand-in for Table 2's "simulation of the TriCore processor core on
a workstation": the machine is advanced **one clock cycle per loop
iteration**, with explicit micro-architectural state — fetch stage,
issue stage with a dual-issue window, a register scoreboard, stall
causes as named signals — instead of the reference ISS's instruction-
at-a-time accounting.  It is deliberately the slow-but-detailed model:
the experiment harness measures its wall-clock runtime.

Timing is cycle-identical to :class:`repro.refsim.iss.CycleAccurateISS`
(asserted by tests): both implement the same architecture description,
one per-cycle, one per-instruction.

Micro-architecture per cycle:

1. **WB** — scoreboard entries whose ready time arrives retire.
2. **STALL** — an active stall (icache refill, branch redirect, I/O
   wait, hazard wait) burns the cycle.
3. **ISSUE** — the instruction at the issue stage executes; a following
   LS-class instruction may dual-issue with an IP-class leader when no
   dependence links them.  Branch outcomes schedule redirect bubbles;
   memory instructions touching the I/O window schedule bus-wait
   stalls; the next fetch checks the instruction cache and schedules a
   refill stall on a miss.

A :class:`~repro.refsim.vcd.VcdWriter` can be attached to dump the
per-cycle signals as a waveform.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.model import SourceArch, default_source_arch
from repro.bpred.static_pred import BranchStats, dynamic_cost
from repro.cache.icache import InstructionCache
from repro.errors import SimulationError
from repro.objfile.elf import ObjectFile
from repro.refsim.decoded import DecodedInstr, decode_instruction
from repro.refsim.irexec import execute_expansion
from repro.refsim.iss import RunResult
from repro.refsim.state import MachineState, SourceMemory
from repro.refsim.vcd import VcdWriter
from repro.soc.bus import SocBus
from repro.translator.ir import BranchKind


@dataclass
class _Stall:
    """An active multi-cycle stall with its cause signal."""

    cause: str
    remaining: int


class RtlSimulator:
    """Cycle-stepped stage-level model of the source core."""

    def __init__(self, obj: ObjectFile, arch: SourceArch | None = None,
                 bus: SocBus | None = None,
                 vcd: VcdWriter | None = None) -> None:
        self.arch = arch or default_source_arch()
        self.memory = SourceMemory(self.arch.memory, bus)
        self.memory.load_object(obj)
        self.state = MachineState(pc=obj.entry)
        self.icache = (InstructionCache(self.arch.icache)
                       if self.arch.icache.enabled else None)
        self.branch_stats = BranchStats()
        self.cycle = 0
        self.instructions = 0
        self._decode_cache: dict[int, DecodedInstr] = {}
        # scoreboard: register -> cycle at which its value is usable
        self._scoreboard: dict[int, int] = {}
        self._stall: _Stall | None = None
        # dual-issue: an unpaired IP instruction issued this cycle
        self._pair_host: tuple[int, tuple[int, ...]] | None = None
        # pc whose fetch already accessed the instruction cache; the
        # clocks a stall holds it at the issue stage fetch nothing new
        self._fetched_pc: int | None = None
        self.vcd = vcd
        if vcd is not None:
            for name, width in (("pc", 32), ("issue_valid", 1),
                                ("dual_issue", 1), ("stall", 1),
                                ("stall_icache", 1), ("stall_branch", 1),
                                ("stall_io", 1), ("stall_hazard", 1)):
                vcd.add_signal(name, width)

    # ------------------------------------------------------------------

    def _decode(self, addr: int) -> DecodedInstr:
        cached = self._decode_cache.get(addr)
        if cached is None:
            cached = decode_instruction(self.memory.fetch16, addr)
            self._decode_cache[addr] = cached
        return cached

    def _record(self, issued: bool, dual: bool) -> None:
        if self.vcd is None:
            return
        cause = self._stall.cause if self._stall else ""
        self.vcd.record(
            self.cycle,
            pc=self.state.pc,
            issue_valid=int(issued),
            dual_issue=int(dual),
            stall=int(cause != ""),
            stall_icache=int(cause == "icache"),
            stall_branch=int(cause == "branch"),
            stall_io=int(cause == "io"),
            stall_hazard=int(cause == "hazard"),
        )

    # ------------------------------------------------------------------

    def clock(self) -> None:
        """Advance the machine by exactly one clock cycle."""
        if self.state.halted:
            raise SimulationError("machine is halted")

        # Active stall burns this cycle.
        if self._stall is not None:
            self._record(issued=False, dual=False)
            self._stall.remaining -= 1
            if self._stall.remaining <= 0:
                self._stall = None
            self.cycle += 1
            return

        decoded = self._decode(self.state.pc)

        # Instruction fetch: a new cache line stalls on a miss.
        if self.icache is not None and self._fetched_pc != decoded.addr:
            self._fetched_pc = decoded.addr
            penalty = self.icache.access_penalty(decoded.addr)
            if penalty:
                self._stall = _Stall("icache", penalty)
                self._pair_host = None
                self._record(issued=False, dual=False)
                self._stall.remaining -= 1
                if self._stall.remaining <= 0:
                    self._stall = None
                self.cycle += 1
                return

        # Register hazards: operands not yet ready.
        ready_at = 0
        for reg in decoded.timed.reads:
            ready_at = max(ready_at, self._scoreboard.get(reg, 0))
        can_pair = False
        if (self.arch.pipeline.dual_issue and self._pair_host is not None
                and decoded.timed.iclass == "ls"):
            host_cycle, host_writes = self._pair_host
            touches = set(decoded.timed.reads) | set(decoded.timed.writes)
            # The host issued on the previous clock edge; the LS op may
            # join it retroactively (same hardware cycle) when nothing
            # links them and its operands were ready by then.
            if host_cycle == self.cycle - 1 and \
                    not touches.intersection(host_writes) \
                    and ready_at <= host_cycle:
                can_pair = True
        if ready_at > self.cycle and not can_pair:
            self._stall = _Stall("hazard", ready_at - self.cycle)
            # hazard wait does not break pairing state by itself, but
            # the cycle gap does:
            self._pair_host = None
            self._record(issued=False, dual=False)
            self._stall.remaining -= 1
            if self._stall.remaining <= 0:
                self._stall = None
            self.cycle += 1
            return

        # Issue + execute.
        self._issue(decoded, paired=can_pair)
        if can_pair:
            # The pair issued within the host's cycle; the clock edge was
            # already counted by the host.
            self._pair_host = None
            return
        self._record(issued=True, dual=False)
        self.cycle += 1

    def _issue(self, decoded: DecodedInstr, paired: bool) -> None:
        issue_cycle = self._pair_host[0] if paired else self.cycle
        self._fetched_pc = None
        # Bus transfers are stamped with the cycle after the issue cycle,
        # the reference ISS's convention.
        self.memory.cycle = issue_cycle + 1
        io_before = self.memory.io_accesses
        result = execute_expansion(list(decoded.expansion), self.state,
                                   self.memory, decoded.next_addr)
        self.instructions += 1
        self.state.pc = result.next_pc
        if result.halted:
            self.state.halted = True

        # Scoreboard update.
        if decoded.timed.is_load:
            latency = 1 + self.arch.pipeline.load_use_stall
        elif decoded.timed.is_mul:
            latency = self.arch.pipeline.mul_result_latency
        else:
            latency = 1
        for reg in decoded.timed.writes:
            self._scoreboard[reg] = issue_cycle + latency

        if not paired:
            self._pair_host = ((self.cycle, decoded.timed.writes)
                               if decoded.timed.iclass == "ip" else None)

        # Post-issue stall scheduling: I/O waits, branch redirects.
        io_count = self.memory.io_accesses - io_before
        pending = 0
        cause = ""
        if io_count:
            pending += io_count * self.arch.pipeline.io_access_cycles
            cause = "io"
        kind = decoded.branch_kind
        if kind is not BranchKind.NONE:
            cost = dynamic_cost(self.arch.branch, kind, result.branch_taken,
                                decoded.predicted_taken)
            if cost > 1:
                pending += cost - 1
                cause = "branch"
            if result.branch_taken or cost > 1:
                self._pair_host = None
            if kind is BranchKind.COND:
                self.branch_stats.conditional += 1
                if result.branch_taken:
                    self.branch_stats.taken += 1
                if result.branch_taken != decoded.predicted_taken:
                    self.branch_stats.mispredicted += 1
        if pending:
            self._stall = _Stall(cause, pending)
            self._pair_host = None

    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 100_000_000) -> RunResult:
        exit_device = self.memory.exit_device
        while not self.state.halted and not exit_device.exited:
            self.clock()
            if self.cycle >= max_cycles:
                raise SimulationError(f"cycle limit {max_cycles} exceeded")
        # Drain the stall scheduled by the final instruction (e.g. the
        # bus wait of the exit-device write) so cycle totals match the
        # per-instruction accounting of the reference ISS.
        if self._stall is not None:
            self.cycle += self._stall.remaining
            self._stall = None
        from repro.cache.icache import CacheStats

        return RunResult(
            instructions=self.instructions,
            cycles=self.cycle,
            regs=tuple(self.state.regs),
            data_image=self.memory.data_image(),
            uart_output=self.memory.uart.output,
            bus_trace=self.memory.bus.monitor.transfers(),
            exit_code=exit_device.code if exit_device.exited else None,
            halted=self.state.halted,
            branch_stats=self.branch_stats,
            cache_stats=self.icache.stats if self.icache else CacheStats(),
        )
