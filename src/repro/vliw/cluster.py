"""Cluster: N multi-core SoCs in lockstep over a modeled interconnect.

Scales the prototyping platform one level above
:class:`~repro.vliw.multicore.MultiCoreSoC`: a cluster joins N SoCs
through a :class:`~repro.vliw.fabric.NetworkFabric`, advancing them in
lockstep *windows* of ``quantum`` target cycles under a pluggable
:class:`~repro.vliw.sync.SyncBarrier`:

* ``barrier="lockstep"`` advances the SoCs serially in-process;
* ``barrier="process"`` runs every SoC in its own spawned worker,
  exchanging lockstep-quantum tokens over pipes — SoCs execute their
  windows in parallel, reusing the sharded-runner transport
  (:func:`~repro.eval.sharded.child_import_path`, shipped Region IR
  and warm native caches from
  :func:`~repro.vliw.compiled.precompile_program`, so workers report
  ``regions_generated == 0``).

Both barriers produce **bit-identical observables** — the determinism
contract of :mod:`repro.vliw.fabric`: because the quantum never
exceeds the fabric's minimum latency, no word sent inside a window can
become visible in that same window, so routing at window barriers (in
the parent, in both modes) is order-independent.  Inside each window
an SoC runs exactly the rounds it would run standalone
(``MultiCoreSoC.run_slice``), so intra-SoC arbitration is untouched.
``tests/test_cluster_differential.py`` pins both properties.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field
from typing import Sequence

from repro.arch.model import SourceArch, default_source_arch
from repro.errors import SimulationError
from repro.isa.c6x.packets import C6xProgram
from repro.soc.bus import BusAccess
from repro.vliw.fabric import (
    MAX_NODES,
    FabricConfig,
    FabricMessage,
    NetworkFabric,
)
from repro.vliw.multicore import (
    CONTENTION_STALL,
    MultiCorePlatformResult,
    MultiCoreSoC,
)
from repro.vliw.sync import LockstepBarrier, ProcessBarrier

BARRIERS = ("lockstep", "process")


def _build_soc(payload: dict) -> MultiCoreSoC:
    return MultiCoreSoC(
        payload["programs"],
        backends=payload["backends"],
        source_arch=payload["source_arch"],
        sync_rate=payload["sync_rate"],
        bridge_stall=payload["bridge_stall"],
        sync_access_stall=payload["sync_access_stall"],
        contention_stall=payload["contention_stall"],
        strict=payload["strict"],
        tier=payload["tier"],
        node=payload["node"],
        nodes=payload["nodes"],
        quantum=payload["core_quantum"],
    )


def _soc_regions_generated(soc: MultiCoreSoC) -> int:
    return sum(slot._compiler.regions_generated for slot in soc.slots
               if slot._compiler is not None)


def _finish_soc(soc: MultiCoreSoC) -> tuple:
    soc.flush()
    return (soc.collect_result(), soc.fabric_endpoint.device_stats(),
            _soc_regions_generated(soc))


def _cluster_worker(conn, payload: dict) -> None:
    """One SoC's worker loop (spawned process, ``barrier="process"``).

    Executes ``advance``/``deliver`` commands until ``finish``; any
    exception is marshalled back instead of killing the pipe silently.
    """
    try:
        soc = _build_soc(payload)
        while True:
            msg = conn.recv()
            cmd = msg[0]
            if cmd == "advance":
                _, until, max_cycles = msg
                soc.run_slice(until, max_cycles)
                outbox = [
                    (m.src, m.dst, m.value, m.sent_at, m.seq)
                    for m in soc.fabric_endpoint.collect_outbox()
                ]
                conn.send(("state", soc.frontier, soc.finished, outbox))
            elif cmd == "deliver":
                for src, value, visible_at in msg[1]:
                    soc.fabric_endpoint.deliver(src, value, visible_at)
            elif cmd == "finish":
                conn.send(("result", _finish_soc(soc)))
                return
            else:  # "stop" or anything unknown: exit quietly
                return
    except EOFError:  # parent died; nothing to report to
        return
    except Exception as exc:  # noqa: BLE001 - marshal to the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


class _LocalNode:
    """In-process cluster member: wraps one SoC for the barrier."""

    def __init__(self, index: int, payload: dict) -> None:
        self.index = index
        self.soc = _build_soc(payload)
        self.grants = 0

    @property
    def cycles(self) -> int:
        return self.soc.frontier

    @property
    def finished(self) -> bool:
        return self.soc.finished

    def advance(self, until: int, max_cycles: int) -> None:
        self.soc.run_slice(until, max_cycles)

    def collect_outbox(self) -> list[FabricMessage]:
        return self.soc.fabric_endpoint.collect_outbox()

    def deliver_batch(self, deliveries: list[tuple[int, int, int]]) -> None:
        for src, value, visible_at in deliveries:
            self.soc.fabric_endpoint.deliver(src, value, visible_at)

    def finish(self) -> tuple:
        return _finish_soc(self.soc)

    def shutdown(self) -> None:
        pass


class _RemoteNode:
    """Cross-process cluster member: proxies a worker over a pipe.

    Caches the worker's reported ``cycles``/``finished`` so the
    parent-side barrier sees the same frontier the serial barrier
    would compute.
    """

    def __init__(self, index: int, payload: dict, ctx) -> None:
        from repro.eval.sharded import child_import_path

        self.index = index
        self.conn, child_conn = ctx.Pipe()
        self.proc = ctx.Process(target=_cluster_worker,
                                args=(child_conn, payload),
                                daemon=True)
        with child_import_path():
            self.proc.start()
        child_conn.close()
        self.cycles = 0
        self.finished = False
        self.grants = 0
        self._outbox: list[FabricMessage] = []

    def _recv(self) -> tuple:
        # poll + liveness instead of a bare recv(): a worker that dies
        # before collecting its pipe end leaves a dup of it in the
        # parent's resource-sharer thread, so EOF would never arrive
        while True:
            try:
                if self.conn.poll(0.2):
                    msg = self.conn.recv()
                    break
            except (EOFError, OSError):
                raise SimulationError(
                    f"cluster node {self.index}: worker died without a "
                    f"reply") from None
            if not self.proc.is_alive():
                raise SimulationError(
                    f"cluster node {self.index}: worker exited with code "
                    f"{self.proc.exitcode} before replying")
        if msg[0] == "error":
            raise SimulationError(f"cluster node {self.index}: {msg[1]}")
        return msg

    def post_advance(self, until: int, max_cycles: int) -> None:
        self.conn.send(("advance", until, max_cycles))

    def wait_advance(self) -> None:
        _tag, cycles, finished, outbox = self._recv()
        self.cycles = cycles
        self.finished = finished
        self._outbox.extend(FabricMessage(*fields) for fields in outbox)

    def advance(self, until: int, max_cycles: int) -> None:
        self.post_advance(until, max_cycles)
        self.wait_advance()

    def collect_outbox(self) -> list[FabricMessage]:
        out, self._outbox = self._outbox, []
        return out

    def deliver_batch(self, deliveries: list[tuple[int, int, int]]) -> None:
        self.conn.send(("deliver", list(deliveries)))

    def finish(self) -> tuple:
        self.conn.send(("finish",))
        _tag, payload = self._recv()
        return payload

    def shutdown(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass
        self.proc.join(timeout=5.0)
        if self.proc.is_alive():  # pragma: no cover - hung worker
            self.proc.terminate()
            self.proc.join(timeout=5.0)


@dataclass
class ClusterResult:
    """Observables of one cluster execution."""

    per_soc: list[MultiCorePlatformResult]
    #: parent-side fabric routing statistics
    fabric: dict
    #: per-SoC endpoint counters (sent/received/popped/...)
    per_soc_fabric: list[dict]
    #: cluster-level scheduling grants per SoC
    grants: list[int] = field(default_factory=list)
    #: cluster-level lockstep windows executed
    rounds: int = 0
    #: regions each SoC's compilers generated (0 = warm caches)
    regions_generated: list[int] = field(default_factory=list)
    barrier: str = "lockstep"

    @property
    def n_socs(self) -> int:
        return len(self.per_soc)

    @property
    def target_cycles(self) -> int:
        """Cluster runtime: the slowest SoC's runtime."""
        return max((r.target_cycles for r in self.per_soc), default=0)

    def exit_codes(self) -> list[list[int | None]]:
        """Per-SoC, per-core exit codes."""
        return [[core.exit_code for core in soc.per_core]
                for soc in self.per_soc]

    def shared_traces(self) -> list[list[BusAccess]]:
        return [soc.shared_trace() for soc in self.per_soc]

    def observables(self) -> dict:
        """Everything the cross-barrier differential compares.

        Deliberately excludes host-side counters (wall time,
        ``regions_generated``) that legitimately differ between
        execution strategies.
        """
        return dict(
            per_soc=[soc.observables() for soc in self.per_soc],
            shared_traces=self.shared_traces(),
            soc_grants=[soc.grants for soc in self.per_soc],
            contention=[soc.contention_conflicts for soc in self.per_soc],
            grants=list(self.grants),
            rounds=self.rounds,
            fabric=dict(self.fabric),
            per_soc_fabric=[dict(stats) for stats in self.per_soc_fabric],
        )


class Cluster:
    """N SoCs × M cores in lockstep windows over a routed fabric.

    *programs* is one :class:`C6xProgram` replicated everywhere or a
    per-SoC sequence (each entry replicated onto that SoC's *cores*).
    *backends* is one name for every core, a per-core sequence of
    length *cores* (replicated per SoC), or a flattened per-core
    sequence of length ``socs * cores``.  *quantum* defaults to the
    fabric's minimum latency — the largest window the determinism
    contract allows — and an explicit value must not exceed it; when
    the shared-footprint analysis proves every program fully private
    (no device access at all, hence no fabric traffic), the default
    stretches far beyond the latency bound, since there are no sends a
    window could observe.  *core_quantum* is each SoC's **intra-SoC**
    lockstep mode (``"adaptive"`` or a fixed integer — see
    :class:`~repro.vliw.multicore.MultiCoreSoC`); only ``"adaptive"``
    and ``1`` are observable-identical.

    With ``barrier="process"`` each SoC runs in a spawned worker;
    programs using compiled backends are precompiled in the parent
    first so the shipped region caches make workers report
    ``regions_generated == 0``.
    """

    def __init__(self, programs: C6xProgram | Sequence[C6xProgram],
                 socs: int | None = None,
                 cores: int = 1,
                 backends: str | Sequence[str] = "interp",
                 fabric: FabricConfig | None = None,
                 quantum: int | None = None,
                 barrier: str = "lockstep",
                 source_arch: SourceArch | None = None,
                 sync_rate: float = 1.0,
                 bridge_stall: int = 4,
                 sync_access_stall: int = 4,
                 contention_stall: int = CONTENTION_STALL,
                 strict: bool = True,
                 tier=None,
                 core_quantum: int | str = "adaptive") -> None:
        if isinstance(programs, C6xProgram):
            if socs is None:
                raise SimulationError(
                    "socs= is required when one program is replicated")
            program_list = [programs] * socs
        else:
            program_list = list(programs)
            if socs is not None and socs != len(program_list):
                raise SimulationError(
                    f"socs={socs} but {len(program_list)} programs given")
        if not program_list:
            raise SimulationError("a cluster needs at least one SoC")
        n = len(program_list)
        if n > MAX_NODES:
            raise SimulationError(
                f"{n} SoCs exceed the {MAX_NODES}-node limit of the "
                f"fabric address map")
        if cores < 1:
            raise SimulationError("each SoC needs at least one core")
        if barrier not in BARRIERS:
            raise SimulationError(
                f"unknown barrier {barrier!r} "
                f"(choose from {', '.join(BARRIERS)})")
        per_soc_backends = self._split_backends(backends, n, cores)
        self.fabric_config = fabric or FabricConfig()
        min_latency = self.fabric_config.min_latency(n)
        if quantum is None:
            self.quantum = self._derive_quantum(program_list, min_latency)
        else:
            self.quantum = quantum
            if not 1 <= quantum <= min_latency:
                raise SimulationError(
                    f"lockstep quantum {quantum} outside 1..{min_latency} "
                    f"(the fabric's minimum latency bounds the window: a "
                    f"larger quantum would let a window observe its own "
                    f"sends)")
        self.barrier_kind = barrier
        self.n_socs = n
        self.cores = cores
        self.source_arch = source_arch or default_source_arch()
        self.network = NetworkFabric(n, self.fabric_config)
        payloads = []
        for node in range(n):
            payloads.append(dict(
                programs=[program_list[node]] * cores,
                backends=per_soc_backends[node],
                source_arch=self.source_arch,
                sync_rate=sync_rate,
                bridge_stall=bridge_stall,
                sync_access_stall=sync_access_stall,
                contention_stall=contention_stall,
                strict=strict,
                tier=tier,
                node=node,
                nodes=n,
                core_quantum=core_quantum,
            ))
        if barrier == "process":
            self._precompile(payloads)
            ctx = multiprocessing.get_context("spawn")
            self.members = [_RemoteNode(i, payloads[i], ctx)
                            for i in range(n)]
            self.sync_barrier = ProcessBarrier(
                self.members, quantum=self.quantum,
                on_round_end=self._exchange)
        else:
            self.members = [_LocalNode(i, payloads[i]) for i in range(n)]
            self.sync_barrier = LockstepBarrier(
                self.members, quantum=self.quantum,
                on_round_end=self._exchange)

    @staticmethod
    def _derive_quantum(program_list: Sequence[C6xProgram],
                        min_latency: int) -> int:
        """Largest sound default window for these programs.

        The min-latency bound exists so a window cannot observe its
        own sends; when the shared-footprint analysis (see
        :mod:`repro.vliw.codegen.footprint`) proves every program
        fully private — not one packet carries a device access, so no
        core can ever reach its SoC's fabric endpoint — there are no
        sends to observe and the window may stretch far beyond the
        fabric latency.  Any shared-capable program falls back to the
        historical ``min_latency`` default.
        """
        from repro.arch.model import TargetArch
        from repro.vliw.codegen.footprint import (
            PRIVATE_CAP,
            shared_footprint,
        )

        bds = TargetArch().branch_delay_slots
        unique = {id(program): program for program in program_list}
        if all(shared_footprint(program, bds).fully_private
               for program in unique.values()):
            return max(min_latency, PRIVATE_CAP)
        return min_latency

    @staticmethod
    def _split_backends(backends: str | Sequence[str], socs: int,
                        cores: int) -> list[list[str]]:
        if isinstance(backends, str):
            return [[backends] * cores for _ in range(socs)]
        backend_list = list(backends)
        if len(backend_list) == cores:
            return [list(backend_list) for _ in range(socs)]
        if len(backend_list) == socs * cores:
            return [backend_list[i * cores:(i + 1) * cores]
                    for i in range(socs)]
        raise SimulationError(
            f"{len(backend_list)} backends for {socs} SoCs x {cores} cores "
            f"(give 1, {cores}, or {socs * cores})")

    @staticmethod
    def _precompile(payloads: list[dict]) -> None:
        """Warm the region caches of every shipped program.

        Same trick as :class:`~repro.eval.sharded.ShardedRunner`: the
        program object is the cache carrier, so precompiling before the
        worker pickles it ships Region IR (and disk-caches native
        modules) — workers then report ``regions_generated == 0``.
        """
        from repro.vliw.codegen import resolve_backend
        from repro.vliw.compiled import precompile_program

        done: set[tuple[int, str]] = set()
        for payload in payloads:
            for program, backend in zip(payload["programs"],
                                        payload["backends"]):
                if not resolve_backend(backend).compiled:
                    continue
                key = (id(program), backend)
                if key in done:
                    continue
                done.add(key)
                precompile_program(
                    program, source_arch=payload["source_arch"],
                    sync_rate=payload["sync_rate"],
                    bridge_stall=payload["bridge_stall"],
                    sync_access_stall=payload["sync_access_stall"],
                    strict=payload["strict"], backend=backend,
                    tier=payload["tier"])

    def _exchange(self, base: int, horizon: int) -> None:
        """Window barrier: drain outboxes, route, deliver."""
        messages: list[FabricMessage] = []
        for member in self.members:
            messages.extend(member.collect_outbox())
        if not messages:
            return
        deliveries = self.network.route(messages, base)
        for dst in sorted(deliveries):
            self.members[dst].deliver_batch(deliveries[dst])

    def run(self, max_cycles: int = 200_000_000) -> ClusterResult:
        """Run every SoC to completion under the configured barrier."""
        try:
            self.sync_barrier.run_until(None, max_cycles)
            finished = [member.finish() for member in self.members]
        finally:
            for member in self.members:
                member.shutdown()
        return ClusterResult(
            per_soc=[result for result, _stats, _regions in finished],
            fabric=self.network.stats.as_dict(),
            per_soc_fabric=[stats for _result, stats, _regions in finished],
            grants=[member.grants for member in self.members],
            rounds=self.sync_barrier.rounds,
            regions_generated=[regions for _r, _s, regions in finished],
            barrier=self.barrier_kind,
        )
