"""Shared pipeline-timing model of the source processor.

:class:`PipelineTimer` implements the dual-issue / hazard model exactly
once.  The cycle-accurate reference ISS steps it *dynamically* over the
whole execution; the translator's static cycle calculation
(Section 3.3 of the paper, "modeling the pipeline per basic block")
runs the same timer over one basic block from a clean state.  Any
difference between predicted and measured cycles therefore stems from
genuinely dynamic effects — pipeline overlap across block boundaries,
branch outcomes, cache state — which is precisely the structure the
paper's correction levels address.

Model summary (parameters from :class:`repro.arch.model.PipelineModel`):

* one instruction issues per cycle, in order;
* an ``ip``-class instruction may *dual-issue* with an immediately
  following ``ls``-class instruction when no register dependence links
  them (TriCore's IP/LS pipeline pair);
* load results are available ``1 + load_use_stall`` cycles after issue;
  multiply results after ``mul_result_latency`` cycles; consumers stall;
* taken branches and cache-miss stalls insert pipeline barriers that
  prevent pairing across them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from repro.arch.model import PipelineModel


@dataclass(frozen=True)
class TimedOp:
    """Timing-relevant view of one source instruction."""

    iclass: str  # 'ip' or 'ls'
    reads: tuple[int, ...]
    writes: tuple[int, ...]
    is_load: bool = False
    is_mul: bool = False


class PipelineTimer:
    """In-order dual-issue timing engine."""

    def __init__(self, model: PipelineModel) -> None:
        self.model = model
        self._next_cycle = 0  # default issue cycle of the next instruction
        self._ready: dict[int, int] = {}  # reg -> cycle the value is usable
        self._pair_host: tuple[int, tuple[int, ...]] | None = None
        # (issue cycle, writes) of an unpaired ip instruction that a
        # following ls instruction may join.

    @property
    def cycles(self) -> int:
        """Total cycles consumed so far."""
        return self._next_cycle

    def reset(self) -> None:
        self._next_cycle = 0
        self._ready.clear()
        self._pair_host = None

    def barrier(self) -> None:
        """Pipeline bubble (taken branch, fetch stall): no pairing across."""
        self._pair_host = None

    def add_stall(self, cycles: int) -> None:
        """Insert *cycles* of stall (e.g. an instruction-cache miss)."""
        if cycles > 0:
            self._next_cycle += cycles
            self.barrier()

    def issue(self, op: TimedOp) -> int:
        """Issue *op*; returns the cycle it issued in."""
        return self._issue(*self._facts(op))

    def bind(self, op: TimedOp) -> Callable[[], int]:
        """Return a zero-argument :meth:`issue` of *op* for a hot loop.

        The per-op facts (pairing eligibility, touched registers, result
        latency) are derived once here instead of on every issue.
        """
        return partial(self._issue, *self._facts(op))

    def _facts(self, op: TimedOp) -> tuple:
        if op.is_load:
            latency = 1 + self.model.load_use_stall
        elif op.is_mul:
            latency = self.model.mul_result_latency
        else:
            latency = 1
        return (self.model.dual_issue and op.iclass == "ls",
                frozenset(op.reads) | frozenset(op.writes),
                op.reads, op.writes, latency, op.iclass == "ip")

    def _issue(self, may_pair: bool, touches: frozenset[int],
               reads: tuple[int, ...], writes: tuple[int, ...],
               latency: int, hosts_pair: bool) -> int:
        next_cycle = self._next_cycle
        issue_cycle = next_cycle
        paired = False
        host = self._pair_host
        if may_pair and host is not None and touches.isdisjoint(host[1]):
            issue_cycle = host[0]
            paired = True

        # Register hazards can push the issue cycle later (and break a
        # pairing that would have violated them — checked above only for
        # the host's own writes; older in-flight results handled here).
        ready = self._ready
        for reg in reads:
            ready_at = ready.get(reg)
            if ready_at is not None and ready_at > issue_cycle:
                issue_cycle = ready_at
                paired = False
        if not paired and issue_cycle < next_cycle:
            issue_cycle = next_cycle

        done = issue_cycle + latency
        for reg in writes:
            ready[reg] = done

        if paired:
            # The pair slot is consumed; _next_cycle already points past
            # the host's cycle.
            self._pair_host = None
            self._next_cycle = max(next_cycle, issue_cycle + 1)
        else:
            self._next_cycle = issue_cycle + 1
            self._pair_host = (issue_cycle, writes) if hosts_pair else None
        return issue_cycle
