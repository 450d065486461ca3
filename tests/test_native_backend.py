"""Differential lockdown of the native (C) execution backend.

Same contract as the packet-compiled backend, one stage further: every
observable of a ``backend="native"`` run must be bit-identical to the
interpretive core on every registry program at every detail level —
including the sync-device state machine mirrored in C (fractional
rates and all), the bridge-window bail path, multi-core lockstep and
the pickled-program worker transport.  Tests that need the C path
skip cleanly when no toolchain is present; the fallback tests assert
the backend still *works* (on the Python emitter) in that case.
"""

import pickle

import pytest

from repro.programs.registry import build, program_names
from repro.translator.driver import translate
from repro.vliw.codegen.native import native_available
from repro.vliw.compiled import PacketCompiler, precompile_program
from repro.vliw.platform import PrototypingPlatform

needs_toolchain = pytest.mark.skipif(
    not native_available(),
    reason="no working C toolchain (or REPRO_NATIVE=0)")

LEVELS = (0, 1, 2, 3)


def _run(program, backend, **kwargs):
    return PrototypingPlatform(program, backend=backend, **kwargs).run()


def _native_platform(program, **kwargs):
    platform = PrototypingPlatform(program, backend="native", **kwargs)
    result = platform.run()
    return platform, result


@needs_toolchain
class TestNativeEquivalence:
    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("name", program_names())
    def test_identical_observables(self, name, level):
        program = translate(build(name), level=level).program
        interp = _run(program, "interp").observables()
        platform, native = _native_platform(program)
        assert native.observables() == interp, (name, level)
        context = platform._compiler.native_context
        assert context is not None
        assert context.regions_native > 0, (name, level)

    @pytest.mark.parametrize("sync_rate", (0.25, 1.5, 4.0))
    def test_identical_under_sync_rates(self, sync_rate):
        """The C sync-device mirror replays fractional-rate float
        sequences bit-identically."""
        program = translate(build("gcd"), level=2).program
        interp = _run(program, "interp", sync_rate=sync_rate).observables()
        _platform, native = _native_platform(program, sync_rate=sync_rate)
        assert native.observables() == interp

    def test_identical_under_stall_parameters(self):
        program = translate(build("gcd"), level=2).program
        for kwargs in (dict(sync_access_stall=9),
                       dict(bridge_stall=11),
                       dict(sync_access_stall=0, bridge_stall=0)):
            interp = _run(program, "interp", **kwargs).observables()
            _platform, native = _native_platform(program, **kwargs)
            assert native.observables() == interp, kwargs


@needs_toolchain
class TestNativeRuntime:
    def test_module_covers_all_regions(self):
        """Every statically reachable region of a registry kernel
        compiles to C (device packets ride the bridge pre-check)."""
        program = translate(build("sieve"), level=3).program
        platform = PrototypingPlatform(program, backend="native")
        compiler = PacketCompiler(platform.core, backend="native")
        context = compiler.native_context
        assert context is not None
        generated = [pc0 for pc0, ir in compiler._ir_cache.items()
                     if ir is not None]
        assert set(context.plan) == set(generated)

    def test_disk_cache_shared_between_compilers(self):
        """Two platforms on one translation share one native module."""
        from repro.vliw.codegen import native as native_mod

        program = translate(build("fir"), level=1).program
        first = PacketCompiler(PrototypingPlatform(
            program, backend="native").core, backend="native")
        second = PacketCompiler(PrototypingPlatform(
            program, backend="native").core, backend="native")
        assert first.native_context is not None
        assert second.native_context is not None
        assert first.native_context.binding is second.native_context.binding
        digest, _plan = program._native_plans[first.cache_params]
        assert digest in native_mod._LOADED

    def test_bridge_heavy_region_demoted_to_python(self, monkeypatch):
        """A region looping on bridge traffic (UART) bails until the
        wrapper swaps in the Python rendering — the adaptive fallback
        that keeps native >= compiled on device-heavy code."""
        from repro.vliw.codegen import native as native_mod

        monkeypatch.setattr(native_mod, "BAIL_SWITCH", 2)
        program = translate(build("uart_hello"), level=1).program
        interp = _run(program, "interp").observables()
        platform, native = _native_platform(program)
        # the putchar block stores 11 characters through the bridge
        # window, re-entering (and bailing from) its region every time:
        # with the threshold at 2 it must demote mid-run, and the
        # observables must stay bit-identical across the swap
        assert native.observables() == interp
        context = platform._compiler.native_context
        assert context is not None
        assert context.regions_demoted >= 1

    def test_pickled_program_runs_native_from_shipped_ir(self):
        program = translate(build("gcd"), level=2).program
        precompile_program(program, backend="native")
        parent = _run(program, "native").observables()
        clone = pickle.loads(pickle.dumps(program))
        platform = PrototypingPlatform(clone, backend="native")
        assert platform.run().observables() == parent
        compiler = platform._compiler
        assert compiler.regions_generated == 0
        assert compiler.regions_from_cache > 0
        context = compiler.native_context
        assert context is not None and context.regions_native > 0

    @pytest.mark.parametrize("backend", ("native", "tiered"))
    @pytest.mark.parametrize("name,level", (("gcd", 0), ("crc32", 3)))
    def test_pickled_program_generates_no_region(self, name, level,
                                                 backend):
        """Pickled straight after precompile, with no parent run first:
        the shipped caches must already hold the Python entries the
        native runtime resumes at when a superblock bails at a device
        packet past its entry."""
        program = translate(build(name), level=level).program
        interp = _run(program, "interp").observables()
        precompile_program(program, backend=backend)
        clone = pickle.loads(pickle.dumps(program))
        platform = PrototypingPlatform(clone, backend=backend)
        assert platform.run().observables() == interp
        assert platform._compiler.regions_generated == 0

    def test_run_slice_lockstep_quanta(self):
        """Driving native in 1-cycle lockstep quanta (the multi-core
        scheduling pattern) must not change observables."""
        program = translate(build("gcd"), level=2).program
        interp = _run(program, "interp").observables()
        platform = PrototypingPlatform(program, backend="native")
        compiler = PacketCompiler(platform.core, backend="native")
        exit_device = platform.bus.device("exit")
        while not platform.core.halted and not exit_device.exited:
            compiler.run_slice(platform.core.cycles + 1)
        platform.sync.flush()
        assert platform.collect_result().observables() == interp

    def test_wild_store_raises_like_interp(self):
        """A store outside every window raises the same BusError."""
        from repro.errors import BusError
        from repro.isa.tricore.assembler import assemble

        obj = assemble("""
_start:
    li d1, 7
    st.w [a0]0, d1
    halt
""")
        program = translate(obj, level=0).program
        errors = []
        for backend in ("interp", "native"):
            try:
                _run(program, backend)
            except BusError as exc:
                errors.append(str(exc))
        assert len(errors) == 2
        assert errors[0] == errors[1]


class TestNativeFallback:
    def test_disabled_native_still_runs_correctly(self, monkeypatch):
        """REPRO_NATIVE=0: the backend silently renders through the
        Python emitter — same observables, no toolchain dependency."""
        monkeypatch.setenv("REPRO_NATIVE", "0")
        program = translate(build("gcd"), level=1).program
        interp = _run(program, "interp").observables()
        platform, native = _native_platform(program)
        assert native.observables() == interp
        assert platform._compiler.native_context is None

    def test_measure_program_accepts_native(self):
        from repro.eval.runner import measure_program

        interp = measure_program("gcd", levels=(1,))
        native = measure_program("gcd", levels=(1,), backend="native")
        assert (native.levels[1].result.observables()
                == interp.levels[1].result.observables())
