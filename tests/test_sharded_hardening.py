"""Regression tests for the resident-server hardening of ShardedRunner.

Each test pins one of the latent one-shot-CLI-era bugs that only bite
in a long-lived process:

* abandoning a ``run_all(stream=True)`` iterator mid-sweep used to run
  ``ProcessPoolExecutor.__exit__`` (wait for *every* outstanding
  future) — now pending shards are cancelled and close returns without
  waiting the sweep out;
* a worker crash used to surface as a bare exception from
  ``future.result()`` — now it is a :class:`ShardError` carrying the
  shard's spec and the worker traceback;
* explicit-obj shards used to be pinned forever under ``id()`` keys
  and every memo grew without bound — now objects are keyed by content
  hash and ``max_cached`` bounds the memos with LRU eviction;
* ``child_import_path`` used to mutate ``PYTHONPATH`` non-reentrantly
  — now a lock + refcount make interleaved lifetimes safe.

Plus the ``persistent=True`` pool mode the service is built on.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.errors import ShardError
from repro.eval.sharded import (
    ShardedRunner,
    ShardSpec,
    _BoundedMemo,
    child_import_path,
    object_content_key,
)
from repro.isa.tricore.assembler import assemble
from repro.objfile.elf import SEC_EXEC, ObjectFile, Section, load_bytes
from repro.objfile.elf import dump_bytes
from repro.programs.registry import build


def _broken_obj() -> ObjectFile:
    """An object file that crashes the simulators at load time."""
    return ObjectFile(entry=0x1000, sections=[
        Section("text", 0x1000, b"\xff" * 8, SEC_EXEC)])


def _drain_children(timeout: float = 30.0) -> bool:
    """True once this process has no live multiprocessing children."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not multiprocessing.active_children():
            return True
        time.sleep(0.1)
    return not multiprocessing.active_children()


# -- bugfix 1: stream abandon must not hang ---------------------------------


class TestStreamAbandon:
    def test_abandon_cancels_pending_and_releases_workers(self):
        specs = [ShardSpec(program="gcd", kind="reference")
                 for _ in range(8)]
        runner = ShardedRunner(jobs=2)
        stream = runner.run_all(specs, stream=True)
        first = next(stream)
        assert first.spec.kind == "reference"
        start = time.monotonic()
        stream.close()
        # close returns without executing the abandoned sweep: the
        # not-yet-started shards were cancelled, not waited for
        assert runner.cancelled_shards >= 1
        assert time.monotonic() - start < 20
        assert _drain_children(), "abandoned sweep left live workers"

    def test_abandon_on_persistent_pool_keeps_it_usable(self):
        specs = [ShardSpec(program="gcd", kind="reference")
                 for _ in range(8)]
        with ShardedRunner(jobs=2, persistent=True) as runner:
            stream = runner.run_all(specs, stream=True)
            next(stream)
            stream.close()
            assert runner.cancelled_shards >= 1
            # the shared pool survives an abandoned consumer
            outcomes = runner.run(specs[:2])
            assert [o.spec for o in outcomes] == specs[:2]
        assert _drain_children(), "close() left live workers"


# -- bugfix 2: worker crashes carry the shard's identity --------------------


class TestShardError:
    def test_inline_failure_names_the_shard(self):
        spec = ShardSpec(obj=_broken_obj(), kind="reference")
        with pytest.raises(ShardError) as info:
            ShardedRunner(jobs=1).run([spec])
        assert info.value.spec.kind == "reference"
        assert "kind=reference" in str(info.value)
        assert "backend=interp" in str(info.value)
        assert "SimulationError" in info.value.worker_traceback

    def test_pool_failure_names_the_shard_and_cancels_rest(self):
        # cancel() cannot reach a shard the pool already handed on: one
        # running per worker plus jobs + 1 in its call queue.  Queue more
        # slow shards than that behind the broken one, so some are still
        # pending when its error arrives (each spins ~10^5 instructions,
        # far longer than the error takes to reach this process).
        jobs = 2
        spin = assemble("""
        _start:
            li d1, 50000
        top:
            add d1, d1, -1
            jnz d1, top
            halt
        """)
        specs = ([ShardSpec(obj=_broken_obj(), kind="reference")]
                 + [ShardSpec(obj=spin, kind="reference")
                    for _ in range(2 * jobs + 3)])
        runner = ShardedRunner(jobs=jobs)
        with pytest.raises(ShardError) as info:
            runner.run(specs)
        assert info.value.spec.kind == "reference"
        assert info.value.worker_traceback
        # the failed sweep abandoned its not-yet-started shards
        assert runner.cancelled_shards >= 1
        assert _drain_children()


# -- bugfix 3: content-hashed keys + bounded memos --------------------------


class TestMemoHygiene:
    def test_identical_objects_share_one_memo_entry(self):
        original = build("gcd")
        clone = load_bytes(dump_bytes(original))  # equal bytes, new id
        assert clone is not original
        assert object_content_key(clone) == object_content_key(original)
        runner = ShardedRunner(jobs=1)
        runner.translation(ShardSpec(obj=original, level=0))
        runner.translation(ShardSpec(obj=clone, level=0))
        assert len(runner._objs) == 1
        assert runner.stats["translations_built"] == 1
        assert runner.stats["translation_hits"] == 1
        (key,) = runner._objs
        assert key.startswith("@")  # content hash, not an id() pin

    def test_bounded_memo_evicts_least_recently_used(self):
        memo = _BoundedMemo(2)
        memo["a"], memo["b"] = 1, 2
        assert memo.get("a") == 1  # refresh 'a'
        memo["c"] = 3  # evicts 'b'
        assert sorted(memo) == ["a", "c"]
        with pytest.raises(ValueError):
            _BoundedMemo(0)

    def test_runner_memos_stay_bounded(self):
        runner = ShardedRunner(jobs=1, max_cached=2)
        programs = ("gcd", "fibonacci", "uart_hello")
        outcomes = runner.run([
            ShardSpec(program=name, level=0, backend="compiled")
            for name in programs])
        assert len(outcomes) == 3
        assert len(runner._objs) <= 2
        assert len(runner._translations) <= 2
        assert len(runner._precompiled) <= 2
        # evicted entries re-build correctly on the next sweep
        again = runner.run([ShardSpec(program="gcd", level=0,
                                      backend="compiled")])
        assert (again[0].result.observables()
                == outcomes[0].result.observables())


# -- bugfix 4: reentrant PYTHONPATH export ----------------------------------


class TestChildImportPath:
    @pytest.fixture()
    def scratch_pythonpath(self):
        """Pin PYTHONPATH to a known sentinel for the test's duration."""
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = "/definitely-not-repro"
        try:
            yield "/definitely-not-repro"
        finally:
            if saved is None:
                os.environ.pop("PYTHONPATH", None)
            else:
                os.environ["PYTHONPATH"] = saved

    def test_nested_enters_restore_once(self, scratch_pythonpath):
        with child_import_path():
            inner = os.environ["PYTHONPATH"]
            assert scratch_pythonpath in inner.split(os.pathsep)
            with child_import_path():
                assert os.environ["PYTHONPATH"] == inner
            # the inner exit must NOT restore while the outer is live
            assert os.environ["PYTHONPATH"] == inner
        assert os.environ["PYTHONPATH"] == scratch_pythonpath

    def test_interleaved_lifetimes_across_threads(self, scratch_pythonpath):
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with child_import_path():
                entered.set()
                release.wait(30)

        thread = threading.Thread(target=holder)
        thread.start()
        assert entered.wait(10)
        exported = os.environ["PYTHONPATH"]
        # this enter+exit pair overlaps the holder's: before the fix it
        # restored the pre-holder value over the live export
        with child_import_path():
            pass
        assert os.environ["PYTHONPATH"] == exported
        release.set()
        thread.join(30)
        assert os.environ["PYTHONPATH"] == scratch_pythonpath


# -- persistent pool mode ---------------------------------------------------


class TestPersistentPool:
    def test_pool_is_reused_across_runs(self):
        specs = [ShardSpec(program="gcd", kind="reference")
                 for _ in range(4)]
        with ShardedRunner(jobs=2, persistent=True) as runner:
            pids_first = {o.pid for o in runner.run(specs)}
            pids_second = {o.pid for o in runner.run(specs)}
            assert pids_first & pids_second, \
                "persistent runner built a fresh pool per run"
        assert _drain_children(), "close() left live workers"

    def test_close_is_idempotent_and_inline_needs_no_pool(self):
        runner = ShardedRunner(jobs=1, persistent=True)
        outcomes = runner.run([ShardSpec(program="gcd", kind="reference")])
        assert outcomes[0].pid == os.getpid()  # inline, no pool spawned
        assert runner._pool is None
        runner.close()
        runner.close()
