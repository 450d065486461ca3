"""Lockdown of the adaptive lockstep quantum and inline shared calls.

Three layers, three kinds of test:

* **Footprint units**: the shared-footprint analysis
  (:mod:`repro.vliw.codegen.footprint`) must flag exactly the
  device-carrying packets as risky, report conservative lower bounds
  everywhere else, and cap fully-private programs at
  :data:`~repro.vliw.codegen.footprint.PRIVATE_CAP`.
* **Barrier units**: :class:`~repro.vliw.sync.AdaptiveLockstepBarrier`
  driven with scripted fakes — the progress-only gate (a window opens
  unless a *frontier* member's very next packet may be shared), the
  forced normal round after a fully-deferred window, the gate back-off,
  and the fallback to plain ``quantum=1`` rounds when any member lacks
  the adaptive protocol.
* **The lockstep differential contract**: for every communicating
  shared workload, every backend, and 2–4 cores, the adaptive mode
  must produce *bit-identical observables* to the ``quantum=1``
  baseline — per-core exits and cycle counts, the cycle-stamped
  shared-segment trace, arbitration conflicts and contention stalls —
  while executing orders of magnitude fewer arbitration rounds.  Plus
  fuzz-oracle sweeps of hand-written multicore sources under both
  modes, so the reference-ISS anchor holds in each.
"""

import pytest

from repro.arch.model import TargetArch
from repro.errors import SimulationError
from repro.programs.registry import (
    build,
    expected_shared_exits,
    shared_program_names,
)
from repro.translator.driver import translate
from repro.vliw.codegen.footprint import PRIVATE_CAP, shared_footprint
from repro.vliw.multicore import MultiCoreSoC
from repro.vliw.sync import AdaptiveLockstepBarrier, LockstepBarrier

LEVEL = 2
BDS = TargetArch().branch_delay_slots


@pytest.fixture(scope="module")
def translated():
    cache = {}

    def get(name, level=LEVEL):
        key = (name, level)
        if key not in cache:
            cache[key] = translate(build(name), level=level).program
        return cache[key]

    return get


@pytest.fixture(scope="module")
def snapshot(translated):
    """Memoized :func:`_snapshot` of one 2+-core run, keyed by
    (program, cores, backend, quantum): the interp ``quantum=1`` oracle
    is computed once per (program, cores) however many backends are
    compared against it."""
    cache = {}

    def get(name, cores, backend, quantum):
        key = (name, cores, backend, quantum)
        if key not in cache:
            cache[key] = _snapshot(MultiCoreSoC(
                translated(name), cores=cores, backends=backend,
                quantum=quantum).run())
        return cache[key]

    return get


# -- footprint analysis ------------------------------------------------------


class TestSharedFootprint:
    def test_compute_kernel_is_mostly_far_from_risky(self, translated):
        """gcd exits through the exit device, so it is *not* fully
        private — but its packets away from the exit path must report
        bounds above the single-cycle floor, and every bound must stay
        within the cap."""
        fp = shared_footprint(translated("gcd"), BDS)
        assert not fp.fully_private  # the exit device access is risky
        assert any(d > 1 for d in fp.dist)
        assert all(0 <= d <= PRIVATE_CAP for d in fp.dist)

    def test_risky_iff_device_flagged(self, translated):
        program = translated("mbox_pingpong")
        fp = shared_footprint(program, BDS)
        for index, packet in enumerate(program.packets):
            assert fp.risky[index] == any(ins.device
                                          for ins in packet.instrs)
            if fp.risky[index]:
                assert fp.dist[index] == 0

    def test_dist_is_a_lower_bound_along_static_edges(self, translated):
        """dist can drop by at most 1 per successor step: following
        any static edge from p, the remaining distance is >= dist[p]-1
        (the BFS fixed point, spot-checked on fall-through edges)."""
        program = translated("mbox_pingpong")
        fp = shared_footprint(program, BDS)
        for index in range(len(program.packets) - 1):
            if fp.dist[index] > 1:
                assert fp.dist[index + 1] >= fp.dist[index] - 1

    def test_off_program_pc_reports_zero(self, translated):
        fp = shared_footprint(translated("mbox_pingpong"), BDS)
        assert fp.bound(-1) == 0
        assert fp.bound(10 ** 6) == 0

    def test_cached_on_the_program(self, translated):
        program = translated("mbox_prodcons")
        assert shared_footprint(program, BDS) is \
            shared_footprint(program, BDS)


# -- adaptive barrier units --------------------------------------------------


class AdaptiveFake:
    """Scripted adaptive member: fixed private bound, bounded window
    progress, work finishes at *work* cycles."""

    def __init__(self, work, bound, name="m", log=None, window_step=None):
        self.work = work
        self._bound = bound
        self.name = name
        self.cycles = 0
        self.finished = False
        self.grants = 0
        self.log = log if log is not None else []
        self.window_step = window_step  # private progress cap per window

    def private_bound(self):
        return self._bound

    def advance(self, until, max_cycles):
        self.log.append(("normal", self.name, self.cycles, until))
        self.cycles = until
        if self.cycles >= self.work:
            self.finished = True

    def advance_private(self, until, max_cycles):
        self.log.append(("window", self.name, self.cycles, until))
        target = until if self.window_step is None \
            else min(until, self.cycles + self.window_step)
        self.cycles = min(target, self.work)
        if self.cycles >= self.work:
            self.finished = True


class TestAdaptiveBarrierUnits:
    def test_private_members_run_in_one_window(self):
        members = [AdaptiveFake(500, 4, "a"), AdaptiveFake(300, 4, "b")]
        barrier = AdaptiveLockstepBarrier(members)
        barrier.run_until(None, 10_000)
        assert all(m.finished for m in members)
        assert barrier.runahead_rounds == 1
        assert barrier.runahead_cycles == 800
        # the window horizon is thrown wide open (max_cycles)
        assert members[0].log[0] == ("window", "a", 0, 10_000)

    def test_frontier_bound_zero_forces_normal_round(self):
        log = []
        members = [AdaptiveFake(3, 0, "a", log),
                   AdaptiveFake(3, 9, "b", log)]
        AdaptiveLockstepBarrier(members).run_until(None, 1000)
        # member a sits at the frontier with bound 0 every round: no
        # window ever opens, every round is a plain quantum=1 round
        assert all(entry[0] == "normal" for entry in log)

    def test_member_past_the_frontier_does_not_gate(self):
        """Only members *at* the round base pay (or fail) the gate."""
        log = []
        ahead = AdaptiveFake(6, 0, "ahead", log)   # bound 0, but ahead
        ahead.cycles = 3
        behind = AdaptiveFake(6, 5, "behind", log)
        barrier = AdaptiveLockstepBarrier([ahead, behind])
        barrier.run_until(None, 1000)
        assert barrier.runahead_rounds >= 1
        assert all(m.finished for m in (ahead, behind))

    def test_fully_deferred_window_falls_back_to_normal(self):
        """A window in which nobody progresses must not raise the
        livelock error; the next round is a forced normal round."""
        log = []

        class Deferring(AdaptiveFake):
            def advance_private(self, until, max_cycles):
                self.log.append(("window", self.name, self.cycles, until))
                # defers everything (e.g. all work is interpreter-only)

        members = [Deferring(2, 8, "a", log), Deferring(2, 8, "b", log)]
        AdaptiveLockstepBarrier(members).run_until(None, 1000)
        assert all(m.finished for m in members)
        kinds = [entry[0] for entry in log]
        assert "window" in kinds and "normal" in kinds
        # the round right after a deferred window is normal
        first_window = kinds.index("window")
        after = kinds[first_window + len(members):]
        assert after[0] == "normal"

    def test_gate_backoff_skips_recheck_until_frontier_moves(self):
        calls = []

        class CountingFake(AdaptiveFake):
            def private_bound(self):
                calls.append(self.cycles)
                return self._bound

        member = CountingFake(16, 0, "a", window_step=1)
        AdaptiveLockstepBarrier([member]).run_until(None, 1000)
        # bound 0 at every frontier: the gate fails, then sleeps for a
        # doubling number of cycles (1, 2, 4, 8, 8, ...) instead of
        # recomputing the bound every round
        assert len(calls) < member.work
        assert calls == sorted(calls)

    def test_non_adaptive_member_disables_runahead(self):
        class Plain:
            def __init__(self):
                self.cycles = 0
                self.finished = False
                self.grants = 0

            def advance(self, until, max_cycles):
                self.cycles = until
                if self.cycles >= 5:
                    self.finished = True

        members = [Plain(), AdaptiveFake(5, 9, "b")]
        barrier = AdaptiveLockstepBarrier(members)
        barrier.run_until(None, 1000)
        assert barrier.runahead_rounds == 0
        assert all(m.finished for m in members)

    def test_normal_rounds_match_quantum1_schedule(self):
        """With run-ahead disabled (a bound-0 member at the frontier),
        the adaptive barrier's grant schedule is bit-identical to a
        quantum=1 LockstepBarrier."""
        def fleet(log):
            return [AdaptiveFake(4, 0, name, log)
                    for name in ("a", "b", "c")]

        log_adaptive, log_plain = [], []
        AdaptiveLockstepBarrier(fleet(log_adaptive)).run_until(None, 100)
        plain = [AdaptiveFake(4, 0, name, log_plain)
                 for name in ("a", "b", "c")]
        LockstepBarrier(plain, quantum=1).run_until(None, 100)
        assert log_adaptive == log_plain

    def test_livelock_guard_still_fires_for_normal_rounds(self):
        class Stuck(AdaptiveFake):
            def advance(self, until, max_cycles):
                pass  # granted, never progresses

        with pytest.raises(SimulationError, match="livelock"):
            AdaptiveLockstepBarrier([Stuck(5, 0, "a")]).run_until(None, 100)


# -- the lockstep differential contract --------------------------------------


def _backend_list():
    backends = ["interp", "compiled", "tiered"]
    from repro.vliw.codegen.native import native_available

    if native_available():
        backends.insert(2, "native")
    return backends


def _trace_tuples(accesses):
    return [(a.cycle, a.kind, a.addr, a.value, a.size) for a in accesses]


def _snapshot(multi):
    return (
        [r.exit_code for r in multi.per_core],
        [r.target_cycles for r in multi.per_core],
        _trace_tuples(multi.shared_trace()),
        multi.contention_stall_cycles,
        multi.contention_conflicts,
        [r.uart_output for r in multi.per_core],
    )


class TestLockstepDifferentialContract:
    @pytest.mark.parametrize("name", shared_program_names())
    @pytest.mark.parametrize("cores", (2, 3, 4))
    def test_adaptive_matches_quantum1_interp(self, name, cores,
                                              translated):
        program = translated(name)
        baseline = MultiCoreSoC(program, cores=cores, backends="interp",
                                quantum=1).run()
        adaptive = MultiCoreSoC(program, cores=cores, backends="interp",
                                quantum="adaptive").run()
        assert _snapshot(adaptive) == _snapshot(baseline)
        assert _snapshot(baseline)[0] == expected_shared_exits(name, cores)

    @pytest.mark.parametrize("backend", _backend_list())
    @pytest.mark.parametrize("name", shared_program_names())
    def test_adaptive_matches_quantum1_all_backends(self, name, backend,
                                                    snapshot):
        """2-core sweep of every backend, both modes against the interp
        ``quantum=1`` oracle; the 2–4-core interp sweep above pins the
        core-count axis (interp is where the arbitration schedule is
        computed; the backends must reproduce it)."""
        oracle = snapshot(name, 2, "interp", 1)
        assert snapshot(name, 2, backend, 1) == oracle
        assert snapshot(name, 2, backend, "adaptive") == oracle

    def test_adaptive_collapses_rounds(self, translated):
        """The point of the whole exercise: the communicating workload
        with long private phases runs orders of magnitude fewer
        arbitration rounds under the adaptive barrier."""
        program = translated("mbox_allreduce")
        baseline = MultiCoreSoC(program, cores=2, backends="compiled",
                                quantum=1).run()
        adaptive = MultiCoreSoC(program, cores=2, backends="compiled",
                                quantum="adaptive").run()
        assert _snapshot(adaptive) == _snapshot(baseline)
        assert adaptive.lockstep["runahead_rounds"] > 0
        assert adaptive.lockstep["rounds"] * 50 < baseline.lockstep["rounds"]

    def test_inline_shared_calls_replace_bails(self, translated):
        """There is one shared-access rendering: in either lockstep
        mode compiled regions perform shared accesses inline and none
        bails to the interpreter."""
        program = translated("mbox_pingpong")
        for quantum in ("adaptive", 1):
            result = MultiCoreSoC(program, cores=2, backends="compiled",
                                  quantum=quantum).run()
            per_core = result.lockstep["per_core"]
            assert sum(c["inline_shared_calls"] for c in per_core) > 0, \
                quantum
            assert sum(c["interp_bails"] for c in per_core) == 0, quantum

    def test_fixed_quantum_still_supported(self, translated):
        """An explicit integer quantum keeps the historical fixed-window
        barrier: a non-sharing program replicated under quantum=4 stays
        bit-identical to its single-core run, and the stats report the
        integer mode with no run-ahead windows."""
        from repro.vliw.platform import PrototypingPlatform

        program = translated("gcd")
        single = PrototypingPlatform(program,
                                     backend="interp").run().observables()
        multi = MultiCoreSoC(program, cores=2, backends="interp",
                             quantum=4).run()
        assert all(r.observables() == single for r in multi.per_core)
        assert multi.lockstep["quantum"] == 4
        assert multi.lockstep["runahead_rounds"] == 0

    def test_quantum_validation(self, translated):
        program = translated("mbox_pingpong")
        with pytest.raises(SimulationError):
            MultiCoreSoC(program, cores=2, quantum=0)
        with pytest.raises(SimulationError):
            MultiCoreSoC(program, cores=2, quantum="sometimes")

    def test_lockstep_stats_shape(self, translated):
        multi = MultiCoreSoC(translated("mbox_pingpong"), cores=2,
                             backends="interp").run()
        stats = multi.lockstep
        assert stats["quantum"] == "adaptive"
        assert stats["rounds"] > 0
        assert len(stats["per_core"]) == 2
        for core in stats["per_core"]:
            assert set(core) == {"core", "runahead_windows",
                                 "runahead_cycles", "inline_shared_calls",
                                 "interp_bails"}


# -- fuzz-oracle sweeps of hand-written multicore sources --------------------


#: three hand-written multicore-safe minic programs: pure compute,
#: data-memory traffic, and uart/exit device traffic — each runs the
#: oracle's full level x backend x multicore sweep against the
#: reference ISS under both scheduling modes
HANDWRITTEN = {
    "compute": """
        int main() {
            int acc = 0;
            int i = 0;
            while (i < 60) { acc = acc + i * 3; i = i + 1; }
            return acc % 128;
        }
    """,
    "memory": """
        int buf[16];
        int main() {
            int i = 0;
            while (i < 16) { buf[i] = i * 7; i = i + 1; }
            int acc = 0;
            i = 0;
            while (i < 16) { acc = acc + buf[i]; i = i + 1; }
            return acc % 100;
        }
    """,
    "devices": """
        int main() {
            int i = 0;
            while (i < 4) {
                __io_write(0xF0000000, 65 + i);
                i = i + 1;
            }
            return 40;
        }
    """,
}


class TestFuzzOracleBothModes:
    @pytest.mark.parametrize("name", sorted(HANDWRITTEN))
    @pytest.mark.parametrize("quantum", (1, "adaptive"))
    def test_handwritten_source_passes_oracle(self, name, quantum):
        from repro.fuzz.oracle import FuzzConfig, check_source

        config = FuzzConfig(levels=(0, 2), cores=3, quantum=quantum)
        verdict = check_source(HANDWRITTEN[name], config=config)
        assert verdict.ok, verdict.summary()
