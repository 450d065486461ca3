"""One benchmark pass in a fresh interpreter.

Reads a JSON spec on stdin, sets up (imports, toolchain probe and, for
serve_repeat, the server and its worker pool), runs the request list
as a closed loop with one client, checks every request and prints one
JSON object as its last line.  ``run.py`` starts one of these per
request list, so every list starts with empty memory caches.

The module is imported again by the serve worker pool's spawned
processes, so everything but the imports stays under the ``__main__``
guard.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from contextlib import nullcontext

import workloads


def setup(workload: str):
    """Everything a request needs before it can be sent."""
    import repro.eval.runner  # noqa: F401
    import repro.vliw.cluster  # noqa: F401
    import repro.vliw.compiled  # noqa: F401
    import repro.vliw.multicore  # noqa: F401
    from repro.vliw.codegen import native

    native.toolchain()
    if workload != "serve_repeat":
        return None
    session = workloads.ServeSession()
    session.warm_pool()
    return session


#: the kernel's median time on the 2-vCPU Xeon (KVM) host the
#: benchmark was tuned on
REFERENCE_KERNEL_S = 0.0045
#: calibration time after a request, as a share of the request's time
CALIBRATION_SHARE = 0.1


def calibrate(seconds: float = 0.0) -> list[float]:
    """Times of a fixed pure-Python kernel, to track the host's speed.

    The host's speed drifts by tens of percent within seconds (other
    tenants of the machine), so every latency is scaled by
    ``REFERENCE_KERNEL_S`` over the kernel's median time measured
    right before and after it: the seconds the request would have
    taken at the host's reference speed.  The kernel runs at least
    three times and for at least *seconds*.
    """
    times: list[float] = []
    while len(times) < 3 or sum(times) < seconds:
        table: dict[int, int] = {}
        start = time.perf_counter()
        for i in range(30000):
            table[i & 511] = table.get(i & 511, 0) + i
        times.append(time.perf_counter() - start)
    return times


def speed(samples: list[float]) -> float:
    return REFERENCE_KERNEL_S / statistics.median(samples)


def run_requests(requests: list[dict], session, tracer,
                 before: list[float]) -> list[dict]:
    """The closed loop; *before* holds calibration taken after set-up."""
    results = []
    for request in requests:
        scope = (tracer.request_span(request["id"]) if tracer
                 else nullcontext({}))
        entry = dict(id=request["id"])
        started = time.perf_counter()
        try:
            with scope as counts:
                counts["kind"] = request["kind"]
                if request["kind"] == "job":
                    raw = session.run_job(request)
                else:
                    raw = workloads.run_measure(request)
            latency = time.perf_counter() - started
            after = calibrate(CALIBRATION_SHARE * latency)
            entry.update(raw_latency_s=latency, speed=speed(before + after),
                         latency_s=latency * speed(before + after))
            before = after
            if request["kind"] == "job":
                records, final, first = raw
                entry["queue_s"] = ((first or started + latency) - started
                                    ) * entry["speed"]
                entry.update(workloads.check_job(request, records, final))
            else:
                entry.update(workloads.check_measure(request, raw))
            if tracer:
                tracer.rerun_steady(request["id"])
        except Exception as exc:  # a failed request is counted, not fatal
            entry.setdefault("latency_s", time.perf_counter() - started)
            entry["problems"] = [f"{type(exc).__name__}: {exc}"]
        results.append(entry)
    return results


def serve_layer(requests: list[dict], results: list[dict],
                before: dict, after: dict) -> dict:
    """Per-layer metrics of the serve and eval.sharded layers."""
    jobs = [(request, result) for request, result in zip(requests, results)
            if request["kind"] == "job" and "queue_s" in result]
    if not jobs:
        return {}
    seen, repeats = set(), []
    for request, result in jobs:
        if request["sweep"] in seen:
            repeats.append(result["regions_generated"])
        seen.add(request["sweep"])
    delta = {key: after[key] - before.get(key, 0) for key in after}
    lookups = delta["translations_built"] + delta["translation_hits"]

    def shard_median(kind: str) -> float:
        walls = [wall for _request, result in jobs
                 for wall in result["shard_s"][kind]]
        return statistics.median(walls) if walls else 0.0

    return {
        "sharded.translation_hit_ratio": (delta["translation_hits"] / lookups
                                          if lookups else 0.0),
        "sharded.precompiles": delta["precompiles"],
        "sharded.reference_shard_s": shard_median("reference"),
        "sharded.platform_shard_s": shard_median("platform"),
        "serve.queue_s": statistics.median(r["queue_s"] for _q, r in jobs),
        "serve.job_s": statistics.median(r["latency_s"] for _q, r in jobs),
        "serve.regions_generated": sum(repeats),
    }


def run_pass(spec: dict) -> dict:
    session = setup(spec["workload"])
    setup_raw_s = time.monotonic() - spec["t_spawn"]
    calibration = calibrate(0.1)
    tracer, missing = None, []
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        missing = spans.install(tracer)
    before = session.metrics()["runner"] if session and tracer else {}
    try:
        results = run_requests(spec["requests"], session, tracer,
                               calibration)
        after = session.metrics()["runner"] if session and tracer else {}
    finally:
        if session:
            session.close()
    out = dict(setup_raw_s=setup_raw_s,
               setup_s=setup_raw_s * speed(calibration), results=results)
    usage = resource.RUSAGE_CHILDREN if session else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
    if tracer:
        out["layer"] = spans.layer_metrics(tracer.spans)
        out["layer"].update(serve_layer(spec["requests"], results,
                                        before, after))
        out["stages"] = spans.request_stages(tracer.spans)
        out["spans"] = tracer.spans
        out["missing_hooks"] = missing
    return out


def run_fill(requests: list[dict]) -> dict:
    """Run each request once so its native modules reach the cache."""
    problems = []
    for request in requests:
        try:
            workloads.run_measure(request)
        except Exception as exc:  # reported; the timed runs show it too
            problems.append(f"{request}: {type(exc).__name__}: {exc}")
    return dict(problems=problems)


def main() -> int:
    spec = json.loads(sys.stdin.read())
    if "fill" in spec:
        out = run_fill(spec["fill"])
    else:
        out = run_pass(spec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
