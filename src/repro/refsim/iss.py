"""Instruction-set simulators of the source processor.

Three of the paper's Section 2 taxonomy points are implemented here:

* :class:`InterpretedISS` — decodes every instruction on every
  execution and interprets its IR expansion op by op ("the most
  commonly used method … suffers from low performance");
* :class:`FunctionalISS` — predecodes each code address once into an
  entry whose IR expansion is compiled to one straight-line Python
  function, the software analogue of a just-in-time compiled ISS;
* :class:`CycleAccurateISS` — the predecoded simulator plus the full
  timing model (dual-issue pipeline, static branch prediction,
  instruction cache), with each entry's timing facts bound once.  This
  is the stand-in for the TriCore TC10GP evaluation board: it provides
  the reference cycle counts and the reference bus trace that
  translated code is judged against.

All three share one simulation loop (:meth:`InterpretedISS._execute`)
behind ``run()`` and ``step()``; they differ only in how an address
becomes an entry.  The op semantics come from the single table in
:mod:`repro.refsim.irexec` and the hazard rules from
:class:`repro.refsim.timing.PipelineTimer`, so compiling changes speed,
never results.  See ``docs/refsim.md``.

The fourth point — compiled simulation / binary translation — is the
paper's contribution and lives in :mod:`repro.translator`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.arch.model import SourceArch, default_source_arch
from repro.bpred.static_pred import BranchStats, dynamic_cost
from repro.cache.icache import CacheStats, InstructionCache
from repro.errors import SimulationError
from repro.objfile.elf import ObjectFile
from repro.refsim.decoded import DecodedInstr, decode_instruction
from repro.refsim.irexec import HALTED, compile_expansion, execute_expansion
from repro.refsim.state import MachineState, SourceMemory
from repro.refsim.timing import PipelineTimer
from repro.soc.bus import BusAccess, SocBus
from repro.translator.ir import MEMORY_OPS, BranchKind


@dataclass
class RunResult:
    """Everything observable about one simulated execution."""

    instructions: int
    cycles: int
    regs: tuple[int, ...]
    data_image: bytes
    uart_output: bytes
    bus_trace: list[BusAccess]
    exit_code: int | None
    halted: bool
    branch_stats: BranchStats = field(default_factory=BranchStats)
    cache_stats: CacheStats = field(default_factory=CacheStats)

    @property
    def cpi(self) -> float:
        """Average clock cycles per source instruction (Table 1 metric)."""
        return self.cycles / self.instructions if self.instructions else 0.0


class _Entry(NamedTuple):
    """One code address, with everything a step needs bound up front."""

    decoded: DecodedInstr
    #: ``execute(regs, read, write)``: ``None`` to fall through, the
    #: taken-branch target, or ``HALTED``.
    execute: Callable
    fallthrough: int
    #: bound :meth:`PipelineTimer.issue` (timed simulators only)
    issue: Callable[[], int] | None = None
    #: instruction-cache line of the fetch (timed, cache enabled)
    line: int | None = None
    #: the expansion has loads or stores (bus cycle stamp, I/O stalls)
    touches_memory: bool = False
    #: (taken cost, not-taken cost, conditional, predicted taken)
    branch: tuple[int, int, bool, bool] | None = None


class InterpretedISS:
    """Functional simulator that re-decodes and interprets every step."""

    def __init__(self, obj: ObjectFile, arch: SourceArch | None = None,
                 bus: SocBus | None = None) -> None:
        self.arch = arch or default_source_arch()
        self.memory = SourceMemory(self.arch.memory, bus)
        self.memory.load_object(obj)
        self.state = MachineState(pc=obj.entry)
        self.instructions = 0
        self.timer: PipelineTimer | None = None
        self.icache: InstructionCache | None = None
        self.branch_stats = BranchStats()
        self._entries: dict[int, _Entry] = {}
        self._last_line: int | None = None

    @property
    def cycles(self) -> int:
        """Functional simulators count one cycle per instruction."""
        return self.instructions

    # -- entries ------------------------------------------------------------

    def _entry(self, pc: int) -> _Entry:
        """The entry for *pc*; this simulator decodes it afresh each time."""
        decoded = decode_instruction(self.memory.fetch16, pc)
        return self._bind(decoded, self._interpreter(decoded))

    def _interpreter(self, decoded: DecodedInstr) -> Callable:
        """An ``execute`` callable that interprets *decoded*'s expansion."""
        state, memory = self.state, self.memory
        expansion, fallthrough = decoded.expansion, decoded.next_addr

        def execute(regs, read, write):
            result = execute_expansion(list(expansion), state, memory,
                                       fallthrough)
            if result.halted:
                return HALTED
            return result.next_pc if result.branch_taken else None

        return execute

    def _bind(self, decoded: DecodedInstr, execute: Callable) -> _Entry:
        touches_memory = any(instr.op in MEMORY_OPS
                             for instr in decoded.expansion)
        return _Entry(decoded, execute, decoded.next_addr,
                      touches_memory=touches_memory)

    # -- execution ---------------------------------------------------------

    def step(self) -> DecodedInstr:
        """Execute one source instruction."""
        if self.state.halted:
            raise SimulationError("machine is halted")
        return self._execute(self.instructions + 1)

    def run(self, max_instructions: int = 50_000_000) -> RunResult:
        """Run until ``halt``, an exit-device write, or the limit."""
        if not self.state.halted and not self.memory.exit_device.exited:
            self._execute(max_instructions)
            if self.instructions >= max_instructions:
                raise SimulationError(
                    f"instruction limit {max_instructions} exceeded")
        return self.collect_result()

    def _execute(self, limit: int) -> DecodedInstr:
        """Execute instructions until the count reaches *limit*, the core
        halts, or the program writes the exit device; returns the last
        instruction executed.  The one loop behind ``run`` and ``step``.
        """
        state, memory, timer = self.state, self.memory, self.timer
        regs = state.regs
        read, write = memory.read, memory.write
        exit_device = memory.exit_device
        entries, make_entry = self._entries, self._entry
        branch_stats = self.branch_stats
        icache = self.icache
        if timer is not None:
            add_stall, barrier = timer.add_stall, timer.barrier
            io_cycles = self.arch.pipeline.io_access_cycles
        if icache is not None:
            fetch_penalty = icache.access_penalty
        pc = state.pc
        count = self.instructions
        last_line = self._last_line
        try:
            while True:
                entry = entries.get(pc) or make_entry(pc)
                (decoded, execute, fallthrough, issue, line,
                 touches_memory, branch) = entry
                if issue is not None:
                    if line is not None:
                        if line == last_line:
                            # Re-fetching the most recently used line is
                            # a hit that leaves the LRU state unchanged.
                            icache.stats.hits += 1
                        else:
                            last_line = line
                            penalty = fetch_penalty(pc)
                            if penalty:
                                add_stall(penalty)
                    issue()
                if touches_memory:
                    memory.cycle = count if timer is None else timer.cycles
                    io_before = memory.io_accesses
                target = execute(regs, read, write)
                count += 1
                taken = False
                if target is None:
                    pc = fallthrough
                elif target == HALTED:
                    pc = fallthrough
                    state.halted = True
                else:
                    pc = target
                    taken = True
                if touches_memory and timer is not None:
                    io_count = memory.io_accesses - io_before
                    if io_count:
                        add_stall(io_count * io_cycles)
                if branch is not None:
                    taken_cost, not_taken_cost, conditional, predicted = branch
                    cost = taken_cost if taken else not_taken_cost
                    # The branch already consumed its issue cycle.
                    if cost > 1:
                        add_stall(cost - 1)
                    elif taken:
                        barrier()
                    if conditional:
                        branch_stats.conditional += 1
                        if taken:
                            branch_stats.taken += 1
                        if taken != predicted:
                            branch_stats.mispredicted += 1
                if (count >= limit or state.halted
                        or (touches_memory and exit_device.exited)):
                    return decoded
        finally:
            state.pc = pc
            self.instructions = count
            self._last_line = last_line

    def collect_result(self) -> RunResult:
        exit_device = self.memory.exit_device
        return RunResult(
            instructions=self.instructions,
            cycles=self.cycles,
            regs=tuple(self.state.regs),
            data_image=self.memory.data_image(),
            uart_output=self.memory.uart.output,
            bus_trace=self.memory.bus.monitor.transfers(),
            exit_code=exit_device.code if exit_device.exited else None,
            halted=self.state.halted,
            branch_stats=self.branch_stats,
            cache_stats=(self.icache.stats if self.icache is not None
                         else CacheStats()),
        )


class FunctionalISS(InterpretedISS):
    """Functional simulator over predecoded, compiled entries."""

    def _entry(self, pc: int) -> _Entry:
        """Decode and compile *pc* once; later executions reuse it."""
        decoded = decode_instruction(self.memory.fetch16, pc)
        # An expansion the compiler cannot prove safe keeps the
        # interpreter's run-time checks (e.g. an undefined temp read).
        execute = (compile_expansion(decoded.expansion)
                   or self._interpreter(decoded))
        entry = self._entries[pc] = self._bind(decoded, execute)
        return entry


class CycleAccurateISS(FunctionalISS):
    """The reference: predecoded entries plus the full timing model."""

    def __init__(self, obj: ObjectFile, arch: SourceArch | None = None,
                 bus: SocBus | None = None) -> None:
        super().__init__(obj, arch, bus)
        self.timer = PipelineTimer(self.arch.pipeline)
        self.icache = (InstructionCache(self.arch.icache)
                       if self.arch.icache.enabled else None)

    @property
    def cycles(self) -> int:
        return self.timer.cycles

    def _bind(self, decoded: DecodedInstr, execute: Callable) -> _Entry:
        entry = super()._bind(decoded, execute)
        kind = decoded.branch_kind
        branch = None
        if kind is not BranchKind.NONE:
            model, predicted = self.arch.branch, decoded.predicted_taken
            branch = (dynamic_cost(model, kind, True, predicted),
                      dynamic_cost(model, kind, False, predicted),
                      kind is BranchKind.COND, predicted)
        return entry._replace(
            issue=self.timer.bind(decoded.timed),
            line=(self.icache.line_of(decoded.addr)
                  if self.icache is not None else None),
            branch=branch)
