"""Measurement plumbing shared by every experiment."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.arch.model import SourceArch, default_source_arch
from repro.programs.registry import build
from repro.refsim.iss import CycleAccurateISS, RunResult
from repro.refsim.rtlsim import RtlSimulator
from repro.translator.driver import TranslationResult, translate
from repro.vliw.platform import PlatformResult, PrototypingPlatform


@dataclass
class LevelMeasurement:
    """One program translated and executed at one detail level."""

    level: int
    result: PlatformResult
    translation: TranslationResult

    @property
    def cpi(self) -> float:
        return self.result.target_cpi

    def mips(self, clock_hz: int) -> float:
        """Emulation speed in million source instructions per second."""
        seconds = self.result.target_cycles / clock_hz
        if seconds == 0:
            return 0.0
        return self.result.source_instructions / seconds / 1e6

    def runtime(self, clock_hz: int) -> float:
        return self.result.target_cycles / clock_hz


@dataclass
class ProgramMeasurement:
    """Reference run plus all requested detail levels for one program."""

    name: str
    reference: RunResult
    levels: dict[int, LevelMeasurement] = field(default_factory=dict)
    rtl_wall_seconds: float | None = None

    def board_mips(self, clock_hz: int) -> float:
        seconds = self.reference.cycles / clock_hz
        return self.reference.instructions / seconds / 1e6

    def deviation(self, level: int) -> float:
        """Relative cycle-count deviation of a detail level (signed).

        A degenerate workload whose reference run reports zero cycles
        has no meaningful relative deviation; report 0.0 instead of
        dividing by zero.
        """
        emulated = self.levels[level].result.emulated_cycles
        if not self.reference.cycles:
            return 0.0
        return (emulated - self.reference.cycles) / self.reference.cycles


def measure_program(name: str, levels=(0, 1, 2, 3),
                    arch: SourceArch | None = None,
                    measure_rtl: bool = False,
                    inline_cache_threshold: int | None = None,
                    sync_rate: float = 1.0,
                    backend: str = "interp",
                    cores: int = 1,
                    shared: bool = False,
                    nodes: int = 1,
                    barrier: str = "lockstep",
                    quantum: int | str = "adaptive") -> ProgramMeasurement:
    """Run the full measurement battery for one workload.

    *backend* selects the platform execution engine (any name
    registered in :mod:`repro.vliw.codegen` — ``"interp"``,
    ``"compiled"`` or ``"native"``); all produce identical observables,
    so every derived metric is backend-independent — only wall-clock
    differs.  An unknown name fails immediately with the registered
    list, before any measurement runs.

    *cores* > 1 replicates the program onto a
    :class:`~repro.vliw.multicore.MultiCoreSoC`; every core then
    produces the same observables as a single-core run (the multi-core
    differential contract), so the measurement records core 0's — and
    **checks** the contract first: cross-core observable divergence
    raises :class:`~repro.errors.SimulationError` instead of being
    silently discarded.  Pass ``shared=True`` for workloads that use
    the shared-device segment, where per-core results legitimately
    differ (cores take different roles); the check is then skipped.

    *nodes* > 1 replicates the (*cores*-core) SoC onto an N-node
    :class:`~repro.vliw.cluster.Cluster` joined by the modeled network
    fabric, under the *barrier* synchronization implementation
    (``"lockstep"`` in-process or ``"process"`` workers — identical
    observables).  The measurement records SoC 0's core 0; pass
    ``shared=True`` for distributed workloads, whose per-SoC results
    legitimately differ.

    *quantum* is the intra-SoC lockstep scheduling mode —
    ``"adaptive"`` (default) or a fixed integer quantum; only
    ``"adaptive"`` and ``1`` give identical observables (a larger
    integer coarsens arbitration and may change target cycles).
    """
    from repro.vliw.codegen import resolve_backend

    resolve_backend(backend)  # fail fast, naming the registered backends
    arch = arch or default_source_arch()
    obj = build(name)
    reference = CycleAccurateISS(obj, arch).run()
    out = ProgramMeasurement(name=name, reference=reference)
    for level in levels:
        translation = translate(
            obj, level=level, source=arch,
            inline_cache_threshold=inline_cache_threshold)
        if nodes > 1:
            from repro.errors import SimulationError
            from repro.vliw.cluster import Cluster

            cluster = Cluster(translation.program, socs=nodes, cores=cores,
                              backends=backend, barrier=barrier,
                              source_arch=arch, sync_rate=sync_rate,
                              core_quantum=quantum)
            clustered = cluster.run()
            if not shared:
                expected = clustered.per_soc[0].observables()
                for index, other in enumerate(clustered.per_soc[1:],
                                              start=1):
                    if other.observables() != expected:
                        raise SimulationError(
                            f"cluster differential contract violated: "
                            f"SoC {index} of {name!r} (level {level}) "
                            f"diverges from SoC 0; pass shared=True if "
                            f"this workload communicates over the fabric")
            result = clustered.per_soc[0].per_core[0]
        elif cores > 1:
            from repro.errors import SimulationError
            from repro.vliw.multicore import MultiCoreSoC

            soc = MultiCoreSoC(translation.program, cores=cores,
                               backends=backend, source_arch=arch,
                               sync_rate=sync_rate, quantum=quantum)
            multi = soc.run()
            if not shared:
                expected = multi.per_core[0].observables()
                for index, other in enumerate(multi.per_core[1:], start=1):
                    if other.observables() != expected:
                        raise SimulationError(
                            f"multi-core differential contract violated: "
                            f"core {index} of {name!r} (level {level}) "
                            f"diverges from core 0; pass shared=True if "
                            f"this workload uses the shared-device "
                            f"segment")
            result = multi.per_core[0]
        else:
            platform = PrototypingPlatform(translation.program,
                                           source_arch=arch,
                                           sync_rate=sync_rate,
                                           backend=backend)
            result = platform.run()
        out.levels[level] = LevelMeasurement(level=level, result=result,
                                             translation=translation)
    if measure_rtl:
        start = time.perf_counter()
        RtlSimulator(obj, arch).run()
        out.rtl_wall_seconds = time.perf_counter() - start
    return out
