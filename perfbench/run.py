"""End-to-end benchmark of the repro simulator: one command, four workloads.

    python3 perfbench/run.py --workload sweep_warm --seed 1 --seconds 15 \\
        --trace 0

Run from the repository root.  Each request list runs in a fresh
interpreter (``worker.py``) as a closed loop with one client; the list
repeats with a new seeded order while another one fits in
``--seconds``.  The last stdout line is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs the list untraced and then traced, and reports the
per-layer metrics; ``trace.overhead_s`` is the traced minus the
untraced ``wall_s``.  Earlier stdout lines, and a report file under
``.bench_build/perfbench/reports``, hold the host stamp, cache state,
sample counts and every request.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build" / "perfbench"
WARM_CACHE = STATE / "native-warm"

#: the timed part of a run ends by then, whatever --seconds says
RUN_DEADLINE_S = 150.0
#: filling the disk-warm cache (first run in a checkout) ends by then
FILL_DEADLINE_S = 600.0
#: request lists (and fresh-interpreter set-ups) a run takes at least,
#: so a slow spell on the host during one list drops out of the medians
MIN_LISTS = 3


def run_worker(spec: dict, cache: Path, timeout: float) -> dict | None:
    """Run ``worker.py`` on *spec* in its own process group.

    Returns its result, or None after printing why it failed.  The
    whole group is killed on timeout, so the serve pool and any
    compiler it started end with it.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               REPRO_NATIVE_CACHE=str(cache), TMPDIR=str(STATE / "tmp"))
    spec = dict(spec, t_spawn=time.monotonic())
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(json.dumps(spec),
                                    timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"perfbench: worker timed out after {timeout:.0f} s",
              file=sys.stderr)
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker failed ({proc.returncode}):\n{err}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def fill_digest(groups: list[list[dict]]) -> str:
    """Identity of the warm cache: the sources and the fill requests."""
    digest = hashlib.sha256(json.dumps(groups).encode())
    for path in sorted((ROOT / "src" / "repro").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def ensure_warm_cache() -> dict:
    """Fill the disk-warm native cache once per checkout.

    Two fill processes build every native module the disk-warm
    workloads load.  This is the benchmark's build step: it is not
    part of any metric, and later runs find the stamp and skip it.
    """
    import workloads

    stamp_path = WARM_CACHE / "STAMP.json"
    groups = workloads.fill_groups()
    sources = fill_digest(groups)
    if stamp_path.exists():
        stamp = json.loads(stamp_path.read_text())
        if stamp.get("sources") == sources:
            return dict(stamp, filled_now=False)
    WARM_CACHE.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    problems: list[str] = []
    with ThreadPoolExecutor(len(groups)) as pool:  # one process per group
        outs = list(pool.map(
            lambda group: run_worker(dict(fill=group), WARM_CACHE,
                                     FILL_DEADLINE_S), groups))
    for out in outs:
        problems += ["fill process failed"] if out is None \
            else out["problems"]
    stamp = dict(sources=sources, fill_s=time.monotonic() - started,
                 problems=problems)
    tmp = stamp_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(stamp))
    tmp.replace(stamp_path)
    return dict(stamp, filled_now=True)


def host_stamp() -> dict:
    from repro.vliw.codegen.native import toolchain

    nproc = len(os.sched_getaffinity(0))
    cc = toolchain()
    version = None
    if cc:
        version = subprocess.run([cc, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    return dict(nproc=nproc, cpu_limited=nproc < 2, cc=cc,
                cc_version=version,
                ffi="cffi" if importlib.util.find_spec("cffi") else "ctypes",
                python=platform.python_version())


class Run:
    """The request lists, set-ups and checks of one benchmark run."""

    def __init__(self, workload: str) -> None:
        import workloads

        self.workload = workload
        self.cache_state = workloads.WORKLOADS[workload]["cache"]
        self.lists: list[dict] = []
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run_list(self, requests: list[dict], trace: bool) -> dict | None:
        """One worker over *requests*; returns its result or None."""
        cache = WARM_CACHE
        if self.cache_state == "empty":
            cache = STATE / "fresh" / f"{os.getpid()}-{len(self.setups)}"
            cache.mkdir(parents=True)
        try:
            out = run_worker(dict(workload=self.workload, trace=trace,
                                  requests=requests), cache,
                             self.remaining())
        finally:
            if cache != WARM_CACHE:
                shutil.rmtree(cache, ignore_errors=True)
        if out is None:
            self.attempted += len(requests)
            self.failed += len(requests)
            return None
        self.setups.append(out["setup_s"])
        if requests:
            out["requests"] = requests
            out["trace"] = trace
            out["wall_s"] = sum(r["latency_s"] for r in out["results"])
            self.lists.append(out)
        return out

    def top_up_setups(self) -> None:
        while len(self.setups) < MIN_LISTS and self.remaining() > 30:
            if self.run_list([], trace=False) is None:
                break

    def check(self) -> None:
        """Count failures: request problems and digest disagreements.

        Requests sharing a digest key (same program, core and node
        count and level; or the same serve sweep) must report equal
        observables across backends, quantum modes and repeats.
        """
        entries = [result for out in self.lists for result in out["results"]]
        seen: dict[str, set] = {}
        for result in entries:
            for key, value in result.get("digests", {}).items():
                seen.setdefault(key, set()).add(value)
        for result in entries:
            split = [key for key in result.get("digests", {})
                     if len(seen[key]) > 1]
            if split:
                result.setdefault("problems", []).append(
                    f"observables differ across the run: {split}")
        self.attempted += len(entries)
        self.failed += sum(1 for result in entries if result.get("problems"))


def request_keys(requests: list[dict]) -> list[str]:
    """Identity of each request across the run's seeded orders.

    A request repeated within one list (a serve sweep) is keyed as its
    memory-cold first occurrence or as a memory-warm repeat, so the two
    never mix and the repeats pool their samples.
    """
    seen: set[str] = set()
    keys = []
    for request in requests:
        base = json.dumps({k: v for k, v in request.items() if k != "id"},
                          sort_keys=True)
        keys.append(base + ("#repeat" if base in seen else "#first"))
        seen.add(base)
    return keys


def end_to_end(run: Run) -> dict:
    """Medians over the run's lists; see README.md for each metric.

    Each request of the list stands for the median latency of its key
    over the run: wall_s sums them, request_p50_s is their median.
    """
    untraced = [out for out in run.lists if not out["trace"]]
    latencies: dict[str, list[float]] = {}
    for out in untraced:
        for key, result in zip(request_keys(out["requests"]),
                               out["results"]):
            latencies.setdefault(key, []).append(result["latency_s"])
    typical = [statistics.median(latencies[key])
               for key in request_keys(untraced[0]["requests"])]
    errors = [e for out in untraced for r in out["results"]
              for e in r.get("cycle_errors", ())]
    return {
        "wall_s": sum(typical),
        "request_p50_s": statistics.median(typical),
        "setup_s": statistics.median(run.setups),
        "peak_rss_mb": statistics.median(out["peak_rss_mb"]
                                         for out in untraced),
        "ok_ratio": (run.attempted - run.failed) / run.attempted,
        "cycle_error_pct": statistics.fmean(errors) if errors else 0.0,
    }


def per_layer(run: Run, names: list[str]) -> dict:
    import spans

    traced = [out for out in run.lists if out["trace"]]
    untraced = [out for out in run.lists if not out["trace"]]
    layer = dict.fromkeys(names, 0.0)
    layer.update(traced[0]["layer"])
    layer["trace.overhead_s"] = traced[0]["wall_s"] - untraced[0]["wall_s"]
    if layer["trace.unattributed_pct"] > spans.UNATTRIBUTED_TOLERANCE_PCT:
        print(f"perfbench: stage spans miss "
              f"{layer['trace.unattributed_pct']:.1f}% of a request's wall "
              f"(tolerance {spans.UNATTRIBUTED_TOLERANCE_PCT}%)",
              file=sys.stderr)
    return layer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    config_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not config_path.exists():
        print("perfbench: run from a repro checkout (src/repro and "
              "BENCHMARK.json are missing)", file=sys.stderr)
        return 2
    config = json.loads(config_path.read_text())
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    (STATE / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(STATE / "tmp")

    fill = ensure_warm_cache()
    host = host_stamp()
    run = Run(args.workload)
    started = time.monotonic()
    repetition = 0
    while True:
        requests = workloads.request_list(args.workload, args.seed,
                                          repetition)
        list_started = time.monotonic()
        if run.run_list(requests, trace=False) is None:
            break
        if args.trace:
            run.run_list(requests, trace=True)
            break
        repetition += 1
        elapsed = time.monotonic() - started
        if (repetition >= MIN_LISTS and elapsed
                + (time.monotonic() - list_started) > args.seconds):
            break
    run.top_up_setups()
    run.check()
    complete = bool(run.lists) and (not args.trace or len(run.lists) == 2)
    if complete:
        if args.trace:
            wanted = config["per_layer"]
            values = per_layer(run, [m["name"] for m in wanted])
        else:
            wanted = config["end_to_end"]
            values = end_to_end(run)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in wanted}
    else:
        metrics = {}
    report = dict(
        workload=args.workload, seed=args.seed, trace=args.trace,
        cache_state=run.cache_state, host=host, fill=fill,
        samples=dict(requests=sum(len(o["results"]) for o in run.lists
                                  if not o["trace"]),
                     setups=len(run.setups), lists=len(run.lists)),
        setups_s=run.setups,
        list_walls_s=[o["wall_s"] for o in run.lists],
        missing_hooks=[h for o in run.lists for h in o.get("missing_hooks",
                                                            ())],
        requests=[dict(request, traced=o["trace"],
                       stages=o.get("stages", {}).get(request["id"]),
                       **{k: v for k, v in result.items()
                          if k in ("latency_s", "raw_latency_s", "speed",
                                   "queue_s", "problems",
                                   "regions_generated")})
                  for o in run.lists
                  for request, result in zip(o["requests"], o["results"])])
    reports = STATE / "reports"
    reports.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (reports / name).write_text(json.dumps(dict(
        report, metrics=metrics,
        spans=[o.get("spans") for o in run.lists if o["trace"]])))
    print(json.dumps(report))
    print(json.dumps(dict(correct=complete and run.failed == 0,
                          attempted=max(run.attempted, 1),
                          failed=run.failed, metrics=metrics)))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
