"""Span tracing for traced benchmark passes.

Spans are recorded from the benchmark's own code: :func:`install`
replaces each layer's public entry point with a wrapper that times the
call and records what it did.  Untraced passes never import this
module, so tracing costs nothing when it is off.

A span is ``{id, parent, request, name, start, end, counts}``.  Spans
of one request share the request id; a span's parent is the enclosing
span on the same thread or, for work done on another thread (the serve
job thread), the request's root span.  A layer's self time is its
span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import inspect
import os
import statistics
import threading
import time
from contextlib import contextmanager

#: largest share of a measure request's wall that may fall outside its
#: stage spans (measure_program's own bookkeeping and result checks)
UNATTRIBUTED_TOLERANCE_PCT = 5.0


class Tracer:
    """Collects spans in memory; the pass writes them out at its end."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._next_id = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        #: (request id, root span id) of the request in flight
        self.request: tuple[str, int] | None = None
        #: platform constructions of the request in flight, replayed by
        #: :meth:`rerun_steady` once the request has finished
        self.first_runs: list[tuple] = []

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def active(self) -> bool:
        return self.request is not None

    def inside(self, prefix: str) -> bool:
        """Whether this thread's innermost span's name has *prefix*."""
        stack = self._stack()
        return bool(stack) and stack[-1][1].startswith(prefix)

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its mutable ``counts`` dict."""
        stack = self._stack()
        request_id, root = self.request or (None, None)
        record = dict(id=self._new_id(),
                      parent=stack[-1][0] if stack else root,
                      request=request_id, name=name, counts={})
        stack.append((record["id"], name))
        record["start"] = time.perf_counter()
        try:
            yield record["counts"]
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    @contextmanager
    def request_span(self, request_id: str):
        """The root span of one benchmark request."""
        self.request = (request_id, None)
        try:
            with self.span("request") as counts:
                self.request = (request_id, self._stack()[-1][0])
                yield counts
        finally:
            self.request = None

    def rerun_steady(self, request_id: str) -> None:
        """Construct and run each platform of the last request again.

        The second ``run()`` of the same translation reuses the
        program-level region caches the first one filled, so the pair
        separates first-run host code generation from steady-state
        execution.  Replays call the unwrapped constructors and run
        loops and are recorded outside the request's span tree.
        """
        runs, self.first_runs = self.first_runs, []
        for cls, init, run, args, kwargs in runs:
            start = time.perf_counter()
            platform = cls.__new__(cls)
            init(platform, *args, **kwargs)
            run(platform)
            self.spans.append(dict(
                id=self._new_id(), parent=None, request=request_id,
                name="vliw.run_steady", start=start,
                end=time.perf_counter(), counts={}))


def _wrap(tracer: Tracer, owner, attr: str, name: str, after=None,
          before=None) -> bool:
    """Replace ``owner.attr`` with a span-recording wrapper."""
    original = getattr(owner, attr, None)
    if original is None:
        return False

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return original(*args, **kwargs)
        with tracer.span(name) as counts:
            token = before(args, kwargs) if before else None
            result = original(*args, **kwargs)
            if after:
                after(counts, result, token)
            return result

    setattr(owner, attr, wrapper)
    return True


def _run_counts(counts: dict, result) -> None:
    """Observables of one run loop's result, by result type."""
    counts["target_cycles"] = result.target_cycles
    cluster = hasattr(result, "per_soc")
    if cluster:
        socs = result.per_soc
    elif hasattr(result, "per_core"):
        socs = [result]
    else:
        counts["source_instructions"] = result.source_instructions
        return
    counts["source_instructions"] = sum(
        core.source_instructions for soc in socs for core in soc.per_core)
    lockstep = dict(rounds=0, runahead_rounds=0, runahead_cycles=0,
                    inline_shared_calls=0, interp_bails=0, conflicts=0)
    for soc in socs:
        stats = soc.lockstep or {}
        lockstep["rounds"] += stats.get("rounds", 0)
        lockstep["runahead_rounds"] += stats.get("runahead_rounds", 0)
        lockstep["runahead_cycles"] += stats.get(
            "runahead_window_cycles", 0)
        for core in stats.get("per_core", ()):
            lockstep["inline_shared_calls"] += core.get(
                "inline_shared_calls", 0)
            lockstep["interp_bails"] += core.get("interp_bails", 0)
        lockstep["conflicts"] += soc.contention_conflicts
    counts["lockstep"] = lockstep
    if cluster:
        counts["cluster_rounds"] = result.rounds
        counts["fabric_words"] = result.fabric.get("words_routed", 0)
        counts["fabric_wait_cycles"] = (
            result.fabric.get("egress_wait_cycles", 0)
            + result.fabric.get("ingress_wait_cycles", 0))


def _wrap_run_loop(tracer: Tracer, cls) -> None:
    """Trace construction, code generation and ``run()`` of *cls*.

    Before the first ``run()`` inside a request the wrapper calls
    :func:`~repro.vliw.compiled.precompile_program` for every compiled
    (program, backend) pair of the platform, so lowering, emission,
    ``cc`` and load land in a ``codegen.precompile`` span and the
    ``vliw.run`` span holds execution and host ``compile()`` of region
    source.  Region entries found only at run time are still generated
    inside the run.
    """
    from repro.vliw.codegen import resolve_backend
    from repro.vliw.compiled import precompile_program

    original_init, original_run = cls.__init__, cls.run
    signature = inspect.signature(original_init)

    def init(self, *args, **kwargs):
        if not tracer.active or tracer.inside("codegen."):
            # platforms precompile_program builds only to generate code
            return original_init(self, *args, **kwargs)
        self._perfbench_call = (args, kwargs)
        with tracer.span("vliw.setup"):
            original_init(self, *args, **kwargs)

    def precompile(self) -> int:
        args, kwargs = self._perfbench_call
        bound = signature.bind(self, *args, **kwargs)
        bound.apply_defaults()
        params = bound.arguments
        programs = params.get("program", params.get("programs"))
        if not isinstance(programs, (list, tuple)):
            programs = [programs]
        backends = params.get("backend", params.get("backends"))
        if isinstance(backends, str):
            backends = [backends] * len(programs)
        quantum = params.get("core_quantum", params.get("quantum"))
        inline = quantum is None or quantum == "adaptive"
        generated, seen = 0, set()
        for program, backend in zip(programs, backends):
            key = (id(program), backend)
            if key in seen or not resolve_backend(backend).compiled:
                continue
            seen.add(key)
            generated += precompile_program(
                program, source_arch=params["source_arch"],
                sync_rate=params["sync_rate"],
                bridge_stall=params["bridge_stall"],
                sync_access_stall=params["sync_access_stall"],
                strict=params["strict"], backend=backend,
                tier=params["tier"], inline_shared=inline)
        return generated

    def run(self, *args, **kwargs):
        call = getattr(self, "_perfbench_call", None)
        if not tracer.active or call is None:
            return original_run(self, *args, **kwargs)
        with tracer.span("codegen.precompile") as counts:
            counts["regions_generated"] = precompile(self)
        with tracer.span("vliw.run") as counts:
            result = original_run(self, *args, **kwargs)
            _run_counts(counts, result)
        tracer.first_runs.append(
            (cls, original_init, original_run, *call))
        return result

    cls.__init__, cls.run = init, run


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer entry point; returns the hooks not found."""
    import repro.eval.runner as runner
    import repro.eval.sharded as sharded
    import repro.programs.registry as registry
    import repro.vliw.codegen.native as native
    from repro.refsim.iss import CycleAccurateISS
    from repro.vliw.cluster import Cluster
    from repro.vliw.codegen.emit_c import CEmitter
    from repro.vliw.multicore import MultiCoreSoC
    from repro.vliw.platform import PrototypingPlatform

    def objects(counts, result, token):
        counts["objects_built"] = 1

    def iss(counts, result, token):
        counts["instructions"] = result.instructions

    def translation(counts, result, token):
        counts["packets"] = result.stats.packets
        counts["code_expansion"] = result.stats.code_expansion

    def regions(counts, result, token):
        counts["regions_generated"] = result

    def c_source(counts, result, token):
        counts["c_bytes"] = len(result[0])

    def so_existed(args, kwargs):
        source = args[0] if args else kwargs["c_source"]
        digest = (args[1] if len(args) > 1 else kwargs.get("digest")) \
            or native.source_digest(source)
        return os.path.exists(os.path.join(native.cache_dir(),
                                           f"{digest}.so"))

    def so_built(counts, result, existed):
        counts["so_built"] = int(result is not None and not existed)

    hooks = [
        (runner, "build", "minic.build", None, None),
        (sharded, "build", "minic.build", None, None),
        (registry, "compile_source", "minic.compile_source", objects, None),
        (CycleAccurateISS, "run", "refsim.iss", iss, None),
        (runner, "translate", "translator.translate", translation, None),
        (sharded, "translate", "translator.translate", translation, None),
        (sharded, "precompile_program", "codegen.precompile", regions, None),
        (CEmitter, "emit_module", "codegen.emit_c", c_source, None),
        (native, "build_shared", "codegen.cc", so_built, so_existed),
    ]
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, name, after, before in hooks
               if not _wrap(tracer, owner, attr, name, after, before)]
    for cls in (PrototypingPlatform, MultiCoreSoC, Cluster):
        _wrap_run_loop(tracer, cls)
    return missing


# -- aggregation ---------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus its children's durations."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] in own:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see README.md)."""
    own = self_times(spans)
    in_request = [span for span in spans if span["request"] is not None
                  and span["name"] != "vliw.run_steady"]

    def total(prefixes, key=None) -> float:
        chosen = [span for span in in_request
                  if span["name"].startswith(prefixes)]
        if key is None:
            return sum(own[span["id"]] for span in chosen)
        return sum(span["counts"].get(key, 0) for span in chosen)

    runs = [span["counts"] for span in in_request
            if span["name"] == "vliw.run"]
    lockstep = [run["lockstep"] for run in runs if "lockstep" in run]

    def lockstep_sum(key: str) -> int:
        return sum(stats[key] for stats in lockstep)


    translations = [span["counts"] for span in in_request
                    if span["name"] == "translator.translate"]
    iss_s = total("refsim.")
    instructions = total("refsim.", "instructions")
    run_first_s = total(("vliw.setup", "vliw.run"))
    run_cycles = sum(run["target_cycles"] for run in runs)
    multicore_cycles = sum(run["target_cycles"] for run in runs
                           if "lockstep" in run)
    unattributed = [
        100.0 * own[span["id"]] / (span["end"] - span["start"])
        for span in in_request if span["name"] == "request"
        and span["counts"].get("kind") == "measure"]
    return {
        "minic.build_s": total("minic."),
        "minic.objects_built": total("minic.", "objects_built"),
        "refsim.iss_s": iss_s,
        "refsim.instructions": instructions,
        "refsim.minsn_per_s": (instructions / iss_s / 1e6
                               if iss_s else 0.0),
        "translator.translate_s": total("translator."),
        "translator.packets": sum(t["packets"] for t in translations),
        "translator.code_expansion": (
            statistics.fmean(t["code_expansion"] for t in translations)
            if translations else 0.0),
        "codegen.precompile_s": total("codegen."),
        "codegen.regions_generated": total("codegen.precompile",
                                           "regions_generated"),
        "codegen.so_built": total("codegen.", "so_built"),
        "codegen.c_bytes": total("codegen.", "c_bytes"),
        "vliw.run_first_s": run_first_s,
        "vliw.run_steady_s": sum(
            span["end"] - span["start"] for span in spans
            if span["name"] == "vliw.run_steady"),
        "vliw.sim_mips": (
            sum(run["source_instructions"] for run in runs)
            / run_first_s / 1e6 if run_first_s else 0.0),
        "vliw.target_cycles": run_cycles,
        "lockstep.rounds": lockstep_sum("rounds"),
        "lockstep.runahead_rounds": lockstep_sum("runahead_rounds"),
        "lockstep.runahead_ratio": (
            lockstep_sum("runahead_cycles") / multicore_cycles
            if multicore_cycles else 0.0),
        "lockstep.inline_shared_calls": (
            lockstep_sum("inline_shared_calls")),
        "lockstep.interp_bails": lockstep_sum("interp_bails"),
        "lockstep.conflicts": lockstep_sum("conflicts"),
        "cluster.rounds": sum(run.get("cluster_rounds", 0) for run in runs),
        "fabric.words_routed": sum(run.get("fabric_words", 0)
                                   for run in runs),
        "fabric.wait_cycles": sum(run.get("fabric_wait_cycles", 0)
                                  for run in runs),
        "trace.unattributed_pct": max(unattributed, default=0.0),
    }


def request_stages(spans: list[dict]) -> dict[str, dict]:
    """Per request: wall, self time per layer, first and steady runs."""
    own = self_times(spans)
    stages: dict[str, dict] = {}
    for span in spans:
        if span["request"] is None:
            continue
        entry = stages.setdefault(span["request"], dict(
            run_first_s=0.0, run_steady_s=0.0))
        duration = span["end"] - span["start"]
        if span["name"] == "vliw.run_steady":
            entry["run_steady_s"] += duration
            continue
        if span["name"] == "request":
            entry["wall_s"] = duration
        elif span["name"] in ("vliw.setup", "vliw.run"):
            entry["run_first_s"] += own[span["id"]]
        layer = span["name"].split(".")[0]
        key = "unattributed_s" if layer == "request" else f"{layer}_s"
        entry[key] = entry.get(key, 0.0) + own[span["id"]]
    return stages
