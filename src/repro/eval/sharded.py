"""Process-parallel evaluation: shard independent measurements.

Every measurement the evaluation battery performs — a reference ISS
run, an RTL timing run, a platform execution of one program at one
detail level under one backend — is independent of every other, so a
registry sweep is embarrassingly parallel.  :class:`ShardedRunner`
fans :class:`ShardSpec` work units out across worker processes with
:class:`concurrent.futures.ProcessPoolExecutor` and reassembles the
results **in submission order**, so a sharded sweep returns exactly
what the serial :mod:`repro.eval.runner` path returns, regardless of
worker count, scheduling or completion order
(``tests/test_sharded_determinism.py`` locks this down).

Compilation sharing
    The parent translates each unique (program, level) once and — for
    compiled-backend shards — pre-generates every statically reachable
    packet region via
    :func:`repro.vliw.compiled.precompile_program`.  The region cache
    stores plain Python *source*, which pickles, so the translated
    program shipped to each worker carries the parent's generated
    regions with it: workers ``compile()``/``exec`` and run, instead
    of re-scanning and re-generating per process.

Wall-clock accounting
    Each shard's execution is timed with ``time.perf_counter`` inside
    the worker, so :attr:`ShardOutcome.wall_seconds` measures the
    measurement itself — pickling, queueing and pool management are
    excluded.

Resident use
    A runner constructed with ``persistent=True`` keeps one worker
    pool alive across :meth:`run`/:meth:`run_all` calls (shut it down
    with :meth:`close`, or use the runner as a context manager), and
    ``max_cached=N`` bounds every memo with LRU eviction — the mode
    ``repro-serve`` runs in, where the runner lives for days and the
    memos would otherwise grow without bound.  Worker failures raise
    :class:`~repro.errors.ShardError` naming the shard that died, and
    abandoning a ``run_all(stream=True)`` iterator mid-sweep cancels
    the not-yet-started shards instead of waiting for them.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import pickle
import threading
import time
import traceback
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from multiprocessing import get_context

from repro.errors import ShardError
from repro.eval.runner import LevelMeasurement, ProgramMeasurement
from repro.objfile.elf import ObjectFile, dump_bytes
from repro.programs.registry import build
from repro.refsim.iss import CycleAccurateISS
from repro.refsim.rtlsim import RtlSimulator
from repro.translator.driver import TranslationResult, translate
from repro.vliw.codegen import TierConfig, resolve_backend
from repro.vliw.compiled import precompile_program
from repro.vliw.platform import PrototypingPlatform

#: shard kinds: a platform execution, a reference-ISS run, or a timed
#: RTL simulation (whose measurement is its wall clock, not a result)
SHARD_KINDS = ("platform", "reference", "rtl")


@dataclass(frozen=True)
class ShardSpec:
    """One independent unit of evaluation work."""

    program: str = ""
    kind: str = "platform"
    level: int = 1
    backend: str = "interp"
    sync_rate: float = 1.0
    inline_cache_threshold: int | None = None
    #: >1 runs the program replicated on a MultiCoreSoC; the shard's
    #: result is core 0's (bit-identical to the single-core run)
    cores: int = 1
    #: intra-SoC lockstep barrier for multi-core shards — "adaptive"
    #: run-ahead windows or a fixed integer quantum (only "adaptive"
    #: and 1 are observable-identical; a larger integer coarsens
    #: arbitration)
    quantum: int | str = "adaptive"
    #: explicit object file instead of a registry program name
    obj: ObjectFile | None = None
    #: tier-ladder thresholds for ``backend="tiered"`` shards (frozen,
    #: so it both hashes into the precompile memo key and pickles to
    #: workers); None reads the worker's ``REPRO_TIER_*`` environment
    tier: TierConfig | None = None

    def validate(self) -> "ShardSpec":
        if self.kind not in SHARD_KINDS:
            raise ValueError(f"unknown shard kind {self.kind!r}; "
                             f"choose from {', '.join(SHARD_KINDS)}")
        if not self.program and self.obj is None:
            raise ValueError("shard needs a program name or an object file")
        # fail fast in the parent, naming the registered backends,
        # instead of a worker-side crash
        resolve_backend(self.backend)
        return self

    def describe(self) -> str:
        """Human-readable identity, used by :class:`ShardError`."""
        name = self.program or "<object file>"
        return (f"program={name} kind={self.kind} level={self.level} "
                f"backend={self.backend} cores={self.cores}")


@dataclass
class ShardOutcome:
    """What came back from one shard."""

    spec: ShardSpec
    #: PlatformResult (platform shards), RunResult (reference shards),
    #: or None (rtl shards, whose measurement is the wall clock)
    result: object
    wall_seconds: float
    pid: int
    regions_generated: int = 0
    regions_from_cache: int = 0
    #: lockstep scheduling profile of multi-core shards (run-ahead
    #: windows, inline shared calls, interpreter bails); None for
    #: single-core, reference and rtl shards
    lockstep: dict | None = None


def object_content_key(obj: ObjectFile) -> str:
    """Stable identity of an object file: hash of its serialized form.

    Explicit-``obj`` shards are memoized under this key instead of
    ``id(obj)``: two separately constructed but byte-identical object
    files share one memo entry, the runner never needs to pin the
    caller's object alive to keep an id unambiguous, and eviction from
    a bounded memo cannot be confused by CPython reusing a freed id.
    """
    return "@" + hashlib.sha256(dump_bytes(obj)).hexdigest()


class _BoundedMemo(OrderedDict):
    """A memo dict with optional LRU eviction past *bound*.

    ``bound=None`` (the default) never evicts — identical to the plain
    dicts the one-shot CLI sweeps always used.  With a bound, ``get``
    refreshes recency and inserting past the bound evicts the least
    recently used entry, so a resident server's memos stay flat no
    matter how many distinct programs pass through.
    """

    def __init__(self, bound: int | None = None) -> None:
        super().__init__()
        if bound is not None and bound < 1:
            raise ValueError("memo bound must be >= 1")
        self.bound = bound

    def get(self, key, default=None):
        if key in self:
            self.move_to_end(key)
        return super().get(key, default)

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        if self.bound is not None:
            while len(self) > self.bound:
                self.popitem(last=False)


# -- child PYTHONPATH export (reentrant) -------------------------------------

_IMPORT_PATH_LOCK = threading.Lock()
_IMPORT_PATH_REFS = 0
_IMPORT_PATH_SAVED: str | None = None
_IMPORT_PATH_RESTORE = False


@contextlib.contextmanager
def child_import_path():
    """Make :mod:`repro` importable in spawned worker processes.

    A ``spawn``-context child starts a fresh interpreter that knows
    nothing of the parent's ``sys.path`` surgery (e.g. the repo-root
    ``conftest.py`` used when ``PYTHONPATH`` is unset), so the package
    directory is exported through the environment while any pool that
    may still spawn children is alive.

    Reentrant: concurrent or nested enters (an async server creating
    pools from several contexts, a persistent pool held open across a
    one-shot sweep) share one saved value under a lock and a refcount —
    only the outermost exit restores ``PYTHONPATH``, so interleaved
    lifetimes can no longer restore a stale value over a live one.
    """
    global _IMPORT_PATH_REFS, _IMPORT_PATH_SAVED, _IMPORT_PATH_RESTORE
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    with _IMPORT_PATH_LOCK:
        if _IMPORT_PATH_REFS == 0:
            old = os.environ.get("PYTHONPATH")
            parts = old.split(os.pathsep) if old else []
            if src in parts:
                _IMPORT_PATH_RESTORE = False
            else:
                _IMPORT_PATH_SAVED = old
                _IMPORT_PATH_RESTORE = True
                os.environ["PYTHONPATH"] = os.pathsep.join([src] + parts)
        _IMPORT_PATH_REFS += 1
    try:
        yield
    finally:
        with _IMPORT_PATH_LOCK:
            _IMPORT_PATH_REFS -= 1
            if _IMPORT_PATH_REFS == 0 and _IMPORT_PATH_RESTORE:
                if _IMPORT_PATH_SAVED is None:
                    os.environ.pop("PYTHONPATH", None)
                else:
                    os.environ["PYTHONPATH"] = _IMPORT_PATH_SAVED
                _IMPORT_PATH_SAVED = None
                _IMPORT_PATH_RESTORE = False


def default_jobs() -> int:
    """Worker count matching the usable CPUs of this process."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


# -- worker side -------------------------------------------------------------


def _run_payload(payload: tuple) -> dict:
    """Execute one shard.  Runs in a worker process (or inline)."""
    kind, spec, carrier, arch = payload
    pid = os.getpid()
    if kind == "reference":
        start = time.perf_counter()
        result = CycleAccurateISS(carrier, arch).run()
        return dict(result=result, wall_seconds=time.perf_counter() - start,
                    pid=pid)
    if kind == "rtl":
        start = time.perf_counter()
        RtlSimulator(carrier, arch).run()
        return dict(result=None, wall_seconds=time.perf_counter() - start,
                    pid=pid)
    if spec.cores > 1:
        from repro.vliw.multicore import MultiCoreSoC

        soc = MultiCoreSoC(carrier, cores=spec.cores, backends=spec.backend,
                           source_arch=arch, sync_rate=spec.sync_rate,
                           tier=spec.tier, quantum=spec.quantum)
        start = time.perf_counter()
        multi = soc.run()
        wall = time.perf_counter() - start
        compilers = [s._compiler for s in soc.slots if s._compiler]
        return dict(
            result=multi.per_core[0], wall_seconds=wall, pid=pid,
            regions_generated=sum(c.regions_generated for c in compilers),
            regions_from_cache=sum(c.regions_from_cache for c in compilers),
            lockstep=multi.lockstep)
    platform = PrototypingPlatform(carrier, source_arch=arch,
                                   sync_rate=spec.sync_rate,
                                   backend=spec.backend, tier=spec.tier)
    start = time.perf_counter()
    result = platform.run()
    wall = time.perf_counter() - start
    compiler = platform._compiler
    return dict(
        result=result, wall_seconds=wall, pid=pid,
        regions_generated=compiler.regions_generated if compiler else 0,
        regions_from_cache=compiler.regions_from_cache if compiler else 0)


def run_pickled_program(blob: bytes, backend: str = "compiled",
                        sync_rate: float = 1.0,
                        tier: TierConfig | None = None,
                        ) -> tuple[dict, int, int]:
    """Unpickle a translated program and execute it on the platform.

    Returns ``(observables, regions_generated, regions_from_cache)``.
    This is the worker-side half of the region-cache sharing contract:
    when the parent precompiled the program before pickling,
    ``regions_generated`` is 0 — every region the execution needed came
    out of the shipped source cache.
    """
    program = pickle.loads(blob)
    platform = PrototypingPlatform(program, sync_rate=sync_rate,
                                   backend=backend, tier=tier)
    result = platform.run()
    compiler = platform._compiler
    return (result.observables(),
            compiler.regions_generated if compiler else 0,
            compiler.regions_from_cache if compiler else 0)


# -- parent side -------------------------------------------------------------


@dataclass
class _PoolLease:
    """A borrowed or owned worker pool plus its PYTHONPATH export."""

    pool: ProcessPoolExecutor
    owned: bool
    import_cm: object = None

    def release(self, abandon: bool = False) -> None:
        """Return the lease; owned pools shut down.

        *abandon* is the early-close path: cancel every not-yet-started
        future and do **not** wait for the running ones, so closing a
        streaming generator mid-sweep returns promptly instead of
        blocking in ``ProcessPoolExecutor.__exit__`` until the whole
        abandoned sweep has executed.
        """
        if not self.owned:
            return
        self.pool.shutdown(wait=not abandon, cancel_futures=abandon)
        if self.import_cm is not None:
            self.import_cm.__exit__(None, None, None)


class ShardedRunner:
    """Fans independent measurements out across worker processes.

    ``jobs=1`` executes shards inline (no pool), which is both the
    serial baseline for the scaling benchmark and the cheap path for
    small sweeps.  Results always come back in submission order.

    *persistent* keeps one worker pool alive across calls (the
    resident-server mode; :meth:`close` or context-manager exit shuts
    it down); *max_cached* bounds the object/translation/precompile
    memos with LRU eviction.  :attr:`stats` counts memo traffic —
    ``translations_built`` vs ``translation_hits`` is how a warm
    resident runner proves a repeated request recompiled nothing.
    """

    def __init__(self, jobs: int | None = None, mp_context: str = "spawn",
                 precompile: bool = True, source_arch=None,
                 persistent: bool = False,
                 max_cached: int | None = None) -> None:
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.mp_context = mp_context
        self.precompile = precompile
        self.persistent = persistent
        #: None lets every simulator pick the default source
        #: architecture; an explicit SourceArch (it pickles) rides
        #: along to the workers
        self.source_arch = source_arch
        self._objs: _BoundedMemo = _BoundedMemo(max_cached)
        self._translations: _BoundedMemo = _BoundedMemo(max_cached)
        self._precompiled: _BoundedMemo = _BoundedMemo(max_cached)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_import_cm = None
        #: memo traffic counters (monotonic over the runner's lifetime)
        self.stats = {"objects_built": 0, "object_hits": 0,
                      "translations_built": 0, "translation_hits": 0,
                      "precompiles": 0, "shards_completed": 0}
        #: shards cancelled because a streaming consumer went away
        self.cancelled_shards = 0

    # -- lifecycle -------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Shut down the persistent pool (no-op without one)."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=not wait)
            self._pool = None
        if self._pool_import_cm is not None:
            self._pool_import_cm.__exit__(None, None, None)
            self._pool_import_cm = None

    def __enter__(self) -> "ShardedRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _reap_broken_pool(self) -> None:
        """Drop a persistent pool whose workers died.

        ``BrokenProcessPool`` poisons an executor permanently; a
        resident server must not stay wedged because one worker was
        OOM-killed — the next sweep simply builds a fresh pool.
        """
        if (self.persistent and self._pool is not None
                and getattr(self._pool, "_broken", False)):
            self.close(wait=False)

    def _acquire_pool(self, n_payloads: int) -> _PoolLease:
        if self.persistent:
            self._reap_broken_pool()
            if self._pool is None:
                # the PYTHONPATH export stays entered for the pool's
                # lifetime: a persistent pool respawns crashed workers
                # at arbitrary later submits, and spawn-children read
                # the environment at that moment
                self._pool_import_cm = child_import_path()
                self._pool_import_cm.__enter__()
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=get_context(self.mp_context))
            return _PoolLease(pool=self._pool, owned=False)
        import_cm = child_import_path()
        import_cm.__enter__()
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, n_payloads),
            mp_context=get_context(self.mp_context))
        return _PoolLease(pool=pool, owned=True, import_cm=import_cm)

    # -- shared artefacts ------------------------------------------------

    def _obj_key(self, spec: ShardSpec) -> str:
        if spec.obj is None:
            return spec.program
        return object_content_key(spec.obj)

    def _obj(self, spec: ShardSpec) -> ObjectFile:
        key = self._obj_key(spec)
        obj = self._objs.get(key)
        if obj is None:
            obj = spec.obj if spec.obj is not None else build(spec.program)
            self._objs[key] = obj
            self.stats["objects_built"] += 1
        else:
            self.stats["object_hits"] += 1
        return obj

    def translation(self, spec: ShardSpec) -> TranslationResult:
        """The (memoized) translation a platform shard will execute."""
        obj = self._obj(spec)
        key = (self._obj_key(spec), spec.level, spec.inline_cache_threshold)
        tr = self._translations.get(key)
        if tr is None:
            tr = translate(obj, level=spec.level,
                           source=self.source_arch,
                           inline_cache_threshold=spec.inline_cache_threshold)
            self._translations[key] = tr
            self.stats["translations_built"] += 1
            # a re-translation starts with empty region caches, so any
            # precompile recorded against this key describes an evicted
            # program object — forget it and precompile afresh
            for stale in [pk for pk in self._precompiled if pk[0] == key]:
                del self._precompiled[stale]
        else:
            self.stats["translation_hits"] += 1
        pre_key = (key, spec.backend, spec.tier)
        if (self.precompile and resolve_backend(spec.backend).compiled
                and self._precompiled.get(pre_key) is None):
            # fills the program's source + IR caches; the native and
            # tiered backends also build the superblock module into
            # the on-disk cache, so workers dlopen instead of invoking
            # the C compiler
            precompile_program(tr.program, source_arch=self.source_arch,
                               backend=spec.backend, tier=spec.tier)
            self._precompiled[pre_key] = True
            self.stats["precompiles"] += 1
        return tr

    def _payload(self, spec: ShardSpec) -> tuple:
        spec.validate()
        if spec.kind == "platform":
            return ("platform", spec, self.translation(spec).program,
                    self.source_arch)
        return (spec.kind, spec, self._obj(spec), self.source_arch)

    # -- execution -------------------------------------------------------

    def _shard_error(self, spec: ShardSpec, exc: Exception) -> ShardError:
        """Wrap a worker (or inline) failure with the shard's identity.

        ``future.result()`` re-raises the worker's exception with the
        remote traceback chained as ``__cause__``; formatting the full
        chain preserves the worker-side frames in the message.
        """
        tb = "".join(traceback.format_exception(
            type(exc), exc, exc.__traceback__))
        return ShardError(
            f"shard failed ({spec.describe()}): "
            f"{type(exc).__name__}: {exc}",
            spec=spec, worker_traceback=tb)

    def _run_inline(self, spec: ShardSpec, payload: tuple) -> dict:
        try:
            out = _run_payload(payload)
        except Exception as exc:
            raise self._shard_error(spec, exc) from exc
        self.stats["shards_completed"] += 1
        return out

    def _collect(self, spec: ShardSpec, future) -> dict:
        try:
            out = future.result()
        except Exception as exc:
            raise self._shard_error(spec, exc) from exc
        self.stats["shards_completed"] += 1
        return out

    def run(self, specs) -> list[ShardOutcome]:
        """Execute every shard; outcomes are in *specs* order."""
        specs = list(specs)
        payloads = [self._payload(spec) for spec in specs]
        if self.jobs == 1 or len(payloads) <= 1:
            outs = [self._run_inline(spec, payload)
                    for spec, payload in zip(specs, payloads)]
            return [ShardOutcome(spec=spec, **out)
                    for spec, out in zip(specs, outs)]
        lease = self._acquire_pool(len(payloads))
        futures: list = []
        completed = False
        try:
            futures = [lease.pool.submit(_run_payload, payload)
                       for payload in payloads]
            outs = [self._collect(spec, future)
                    for spec, future in zip(specs, futures)]
            completed = True
        finally:
            if not completed:
                # a failed shard abandons the rest of the sweep: stop
                # the not-yet-started shards instead of running them
                # for a result nobody will read
                self.cancelled_shards += sum(
                    1 for future in futures if future.cancel())
            lease.release(abandon=not completed)
        return [ShardOutcome(spec=spec, **out)
                for spec, out in zip(specs, outs)]

    def run_all(self, specs, stream: bool = False):
        """Execute every shard, optionally streaming completions.

        The default (``stream=False``) is exactly :meth:`run`: a list
        of outcomes in deterministic submission order, identical to the
        serial runner regardless of scheduling.  ``stream=True``
        returns an *iterator* that yields each :class:`ShardOutcome` as
        its shard completes (``as_completed`` order) — for long sweeps
        where early results should surface immediately — so the
        arrival order is nondeterministic, but the outcome *set* (and
        every observable in it) is the same; each outcome carries its
        ``spec``, so callers reassemble deterministically if needed.
        Closing the iterator early (a disconnected consumer) cancels
        every shard that has not started yet and never waits for the
        abandoned sweep.
        """
        if not stream:
            return self.run(specs)
        return self._run_streaming(list(specs))

    def _run_streaming(self, specs: list[ShardSpec]):
        """Generator behind ``run_all(stream=True)``."""
        payloads = [self._payload(spec) for spec in specs]
        if self.jobs == 1 or len(payloads) <= 1:
            # inline execution *is* completion order
            for spec, payload in zip(specs, payloads):
                yield ShardOutcome(spec=spec, **self._run_inline(spec,
                                                                 payload))
            return
        lease = self._acquire_pool(len(payloads))
        by_future: dict = {}
        completed = False
        try:
            by_future = {
                lease.pool.submit(_run_payload, payload): spec
                for spec, payload in zip(specs, payloads)}
            for future in as_completed(by_future):
                spec = by_future[future]
                yield ShardOutcome(spec=spec, **self._collect(spec, future))
            completed = True
        finally:
            if not completed:
                self.cancelled_shards += sum(
                    1 for future in by_future if future.cancel())
            lease.release(abandon=not completed)

    def measure_registry(self, programs, levels=(0, 1, 2, 3),
                         backend: str = "interp", sync_rate: float = 1.0,
                         measure_rtl: bool = False,
                         inline_cache_threshold: int | None = None,
                         cores: int = 1, quantum: int | str = "adaptive",
                         ) -> dict[str, ProgramMeasurement]:
        """The sharded equivalent of a serial ``measure_program`` sweep.

        Produces the same ``{name: ProgramMeasurement}`` mapping as
        calling :func:`repro.eval.runner.measure_program` per program
        (default source architecture), with every reference run, RTL
        timing and platform execution fanned out as its own shard.
        """
        specs = registry_specs(programs, levels=levels, backend=backend,
                               sync_rate=sync_rate, measure_rtl=measure_rtl,
                               inline_cache_threshold=inline_cache_threshold,
                               cores=cores, quantum=quantum)
        out: dict[str, ProgramMeasurement] = {}
        for outcome in self.run(specs):
            spec = outcome.spec
            if spec.kind == "reference":
                out[spec.program] = ProgramMeasurement(
                    name=spec.program, reference=outcome.result)
            elif spec.kind == "rtl":
                out[spec.program].rtl_wall_seconds = outcome.wall_seconds
            else:
                out[spec.program].levels[spec.level] = LevelMeasurement(
                    level=spec.level, result=outcome.result,
                    translation=self.translation(spec))
        return out


def registry_specs(programs, levels=(0, 1, 2, 3), backend: str = "interp",
                   sync_rate: float = 1.0, measure_rtl: bool = False,
                   inline_cache_threshold: int | None = None,
                   cores: int = 1,
                   quantum: int | str = "adaptive") -> list[ShardSpec]:
    """The canonical shard expansion of a registry measurement sweep.

    Shared by :meth:`ShardedRunner.measure_registry` and the serving
    layer, so a served sweep submits exactly the shards (in exactly the
    submission order) the serial path measures — the determinism
    contract's starting point.
    """
    specs: list[ShardSpec] = []
    for name in programs:
        specs.append(ShardSpec(program=name, kind="reference"))
        if measure_rtl:
            specs.append(ShardSpec(program=name, kind="rtl"))
        for level in levels:
            specs.append(ShardSpec(
                program=name, level=level, backend=backend,
                sync_rate=sync_rate, cores=cores, quantum=quantum,
                inline_cache_threshold=inline_cache_threshold))
    return specs
