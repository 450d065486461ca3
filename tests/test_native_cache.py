"""Lockdown of the native backend's content-addressed .so disk cache.

The cache names every module ``<sha256(abi + C source)>.so`` under
``$REPRO_NATIVE_CACHE`` (default ``~/.cache/repro-cabt/native``), so
correctness rests on three properties: an ABI revision bump changes
the digest (an old binary can never be dlopen'd against a new struct
layout), the cache directory override is honored end to end, and a
source change — different program, level or core parameters — lands in
a different file instead of silently reusing a stale build.
"""

import os

import pytest

from repro.programs.registry import build
from repro.translator.driver import translate
from repro.vliw.codegen import native as native_mod
from repro.vliw.codegen.native import (
    NativeContext,
    cache_dir,
    native_available,
    source_digest,
)
from repro.vliw.compiled import PacketCompiler
from repro.vliw.platform import PrototypingPlatform

needs_toolchain = pytest.mark.skipif(
    not native_available(),
    reason="no working C toolchain (or REPRO_NATIVE=0)")


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """A private empty disk cache and an empty in-process module map,
    so every attach in the test actually exercises the disk path."""
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
    monkeypatch.setattr(native_mod, "_LOADED", {})
    return tmp_path


def _attach(program, **kwargs):
    platform = PrototypingPlatform(program, backend="native", **kwargs)
    compiler = PacketCompiler(platform.core, backend="native", **kwargs)
    return platform, compiler


class TestDigest:
    def test_abi_bump_changes_digest(self, monkeypatch):
        """Same C source, new ABI revision, different content address —
        a binary built for the old rio struct can never collide with
        the new layout's cache slot."""
        source = "int sb0(void) { return 0; }\n"
        old = source_digest(source)
        monkeypatch.setattr(native_mod, "ABI_VERSION",
                            native_mod.ABI_VERSION + 1)
        assert source_digest(source) != old

    def test_digest_is_pure_content_address(self):
        source = "int sb0(void) { return 0; }\n"
        assert source_digest(source) == source_digest(source)
        assert source_digest(source) != source_digest(source + " ")


@needs_toolchain
class TestDiskCache:
    def test_cache_redirection(self, fresh_cache):
        """REPRO_NATIVE_CACHE redirects both the build products and the
        lookups; the run on the private cache stays bit-identical."""
        assert cache_dir() == str(fresh_cache)
        program = translate(build("gcd"), level=1).program
        interp = PrototypingPlatform(program,
                                     backend="interp").run().observables()
        platform, compiler = _attach(program)
        context = compiler.native_context
        assert context is not None
        digest, _plan = program._native_plans[compiler.cache_params]
        assert (fresh_cache / f"{digest}.so").exists()
        assert (fresh_cache / f"{digest}.c").exists()
        assert platform.run().observables() == interp

    def test_abi_bump_invalidates_cached_module(self, fresh_cache,
                                                monkeypatch):
        """After an ABI bump the old .so is dead weight: attach builds
        a fresh module under the new digest instead of reusing it."""
        program = translate(build("gcd"), level=1).program
        _platform, compiler = _attach(program)
        old_digest, _ = program._native_plans[compiler.cache_params]

        monkeypatch.setattr(native_mod, "ABI_VERSION",
                            native_mod.ABI_VERSION + 1)
        monkeypatch.setattr(native_mod, "_LOADED", {})
        # a clone of the same translation: no memoized plan, so the
        # digest is recomputed under the bumped revision
        reprogram = translate(build("gcd"), level=1).program
        _platform2, compiler2 = _attach(reprogram)
        assert compiler2.native_context is not None
        new_digest, _ = reprogram._native_plans[compiler2.cache_params]
        assert new_digest != old_digest
        assert (fresh_cache / f"{old_digest}.so").exists()
        assert (fresh_cache / f"{new_digest}.so").exists()

    def test_source_change_is_a_different_cache_entry(self, fresh_cache):
        """A different emitted module (here: another detail level of
        the same program) must never hit the old entry."""
        first = translate(build("gcd"), level=0).program
        second = translate(build("gcd"), level=3).program
        _p1, c1 = _attach(first)
        _p2, c2 = _attach(second)
        d1, _ = first._native_plans[c1.cache_params]
        d2, _ = second._native_plans[c2.cache_params]
        assert d1 != d2
        assert {f"{d1}.so", f"{d2}.so"} <= set(os.listdir(fresh_cache))

    def test_stale_cache_artifacts_are_ignored(self, fresh_cache):
        """Foreign junk in the cache directory (a stale .so under a
        name no current digest maps to) is simply never touched."""
        stale = fresh_cache / ("ff" * 32 + ".so")
        stale.write_bytes(b"\x7fELF not really")
        program = translate(build("gcd"), level=1).program
        platform, compiler = _attach(program)
        assert compiler.native_context is not None
        interp = PrototypingPlatform(program,
                                     backend="interp").run().observables()
        assert platform.run().observables() == interp

    def test_warm_cache_loads_without_toolchain(self, fresh_cache,
                                                monkeypatch):
        """A warm disk cache serves the .so compiler-free: with the
        toolchain probe forced to 'none found', attach still loads the
        previously built module."""
        program = translate(build("gcd"), level=1).program
        _platform, compiler = _attach(program)
        assert compiler.native_context is not None

        monkeypatch.setattr(native_mod, "_TOOLCHAIN", [None])
        monkeypatch.setattr(native_mod, "_LOADED", {})
        reprogram = translate(build("gcd"), level=1).program
        platform2, compiler2 = _attach(reprogram)
        context = compiler2.native_context
        assert context is not None
        interp = PrototypingPlatform(reprogram,
                                     backend="interp").run().observables()
        assert platform2.run().observables() == interp

    def test_cold_cache_without_toolchain_returns_none(self, fresh_cache,
                                                       monkeypatch):
        monkeypatch.setattr(native_mod, "_TOOLCHAIN", [None])
        program = translate(build("gcd"), level=1).program
        platform = PrototypingPlatform(program, backend="native")
        compiler = PacketCompiler(platform.core, backend="native")
        assert compiler.native_context is None
        assert NativeContext.attach(compiler) is None

    def test_pickled_program_rebuilds_module_on_cold_cache(
            self, fresh_cache, tmp_path, monkeypatch):
        """A worker on an empty cache rebuilds the shipped module from
        the shipped IR: the device-packet entries precompile adds after
        fixing the plan must not leak into the rebuilt module."""
        import pickle

        from repro.vliw.compiled import precompile_program

        program = translate(build("gcd"), level=0).program
        precompile_program(program, backend="native")
        clone = pickle.loads(pickle.dumps(program))
        cold = tmp_path / "cold"
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cold))
        monkeypatch.setattr(native_mod, "_LOADED", {})
        platform, compiler = _attach(clone)
        assert compiler.native_context is not None
        digest, _plan = clone._native_plans[compiler.cache_params]
        assert (cold / f"{digest}.so").exists()
        interp = PrototypingPlatform(program,
                                     backend="interp").run().observables()
        assert platform.run().observables() == interp
