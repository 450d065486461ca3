"""The benchmark's workloads: request lists, execution and checks.

Every workload is a fixed multiset of requests; the seed only draws
their order (a seeded shuffle).  Keeping the multiset fixed keeps both
the host times and the deterministic cycle error comparable between
runs with different seeds.  Requests are plain dicts so they cross the
process boundary as JSON.
"""

from __future__ import annotations

import hashlib
import json
import random
import time

#: single-core programs of sweep_warm: a small kernel and the big
#: kernel with the longest reference ISS run
SWEEP_PROGRAMS = ("gcd", "crc32")

#: the measure jobs serve_repeat draws from.  Their programs differ,
#: so whichever sweep the seed puts first, the first job of each sweep
#: is the memory-cold one.
SERVE_SWEEPS = {
    "native": dict(programs=["gcd", "crc32"], levels=[0, 1, 2, 3],
                   backend="native"),
    "compiled": dict(programs=["fir", "subband"], levels=[0, 1, 2, 3],
                     backend="compiled"),
}
#: jobs per sweep and list.  A compiled sweep's first repeat is still
#: slower (its pool workers compile region source once per process),
#: so with four the warm repeats' median is a fully warm job.
SERVE_REPEATS = 4


def _measure(program: str, levels, backend: str, cores: int = 1,
             nodes: int = 1, shared: bool = False,
             quantum="adaptive") -> dict:
    return dict(kind="measure", program=program, levels=list(levels),
                backend=backend, cores=cores, nodes=nodes, shared=shared,
                quantum=quantum)


def _lockstep_requests() -> list[dict]:
    requests = [_measure("mbox_allreduce", (2,), backend, cores=2,
                         shared=True, quantum=quantum)
                for backend in ("compiled", "native", "tiered")
                for quantum in ("adaptive", 1)]
    requests.append(_measure("mbox_allreduce", (2,), "tiered", cores=4,
                             shared=True))
    for quantum in ("adaptive", 1):
        requests += [
            _measure("mbox_pingpong", (2,), "compiled", cores=2,
                     shared=True, quantum=quantum),
            _measure("mbox_prodcons", (2,), "native", cores=2,
                     shared=True, quantum=quantum),
            _measure("shared_barrier", (2,), "compiled", cores=4,
                     shared=True, quantum=quantum),
        ]
    requests += [
        _measure("token_ring", (2,), "compiled", nodes=2, shared=True),
        _measure("token_ring", (2,), "compiled", nodes=4, shared=True),
        _measure("allreduce", (2,), "compiled", nodes=2, shared=True),
        _measure("work_steal", (2,), "compiled", nodes=4, shared=True),
        # replicated single-core program: lockstep rounds with a
        # single-core reference, so this workload has a cycle error
        _measure("gcd", (1, 2, 3), "native", cores=2),
    ]
    return requests


WORKLOADS = {
    "sweep_warm": dict(
        cache="disk-warm",
        requests=lambda: [_measure(program, (0, 1, 2, 3), backend)
                          for program in SWEEP_PROGRAMS
                          for backend in ("compiled", "native")]),
    "fresh_native": dict(
        cache="empty",
        requests=lambda: [_measure("timer_probe", (3,), "native")]),
    "lockstep_shared": dict(cache="disk-warm", requests=_lockstep_requests),
    "serve_repeat": dict(
        cache="disk-warm; first job of each sweep memory-cold, "
              "repeats memory-warm",
        requests=lambda: [dict(kind="job", sweep=sweep)
                          for sweep in SERVE_SWEEPS
                          for _ in range(SERVE_REPEATS)]),
}


def request_list(workload: str, seed: int, repetition: int) -> list[dict]:
    """The seeded order of *workload*'s requests for one repetition."""
    requests = WORKLOADS[workload]["requests"]()
    random.Random(f"{workload}:{seed}:{repetition}").shuffle(requests)
    for index, request in enumerate(requests):
        request["id"] = f"r{repetition}.{index}"
    return requests


def fill_groups() -> list[list[dict]]:
    """Requests that load every native module of the disk-warm workloads.

    Running each once fills the benchmark's native cache.  The two
    groups run side by side.  gcd comes first in its group because the
    other group's replicated gcd request loads the same modules.
    """
    def sweep(program: str) -> list[dict]:
        return [_measure(program, (level,), "native")
                for level in (0, 1, 2, 3)]

    lockstep = [request for request in _lockstep_requests()
                if request["backend"] != "compiled"]
    return [sweep("gcd") + sweep("crc32"), lockstep]


# -- execution and checks (worker side) -------------------------------------


def digest(value) -> str:
    """Canonical digest of an observables value (wire encoding)."""
    from repro.serve.protocol import encode_value

    blob = json.dumps(encode_value(value), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _expected_exit(request: dict) -> int | None:
    """Exit code of core 0 (of SoC 0) the registry predicts."""
    from repro.programs import registry

    name = request["program"]
    if request["nodes"] > 1:
        return registry.expected_cluster_exits(
            name, request["nodes"], request["cores"])[0][0]
    if request["shared"]:
        return registry.expected_shared_exits(name, request["cores"])[0]
    return registry.expected_exit(name)


def run_measure(request: dict):
    """One ``measure_program`` request; returns the measurement."""
    from repro.eval.runner import measure_program

    return measure_program(
        request["program"], levels=tuple(request["levels"]),
        backend=request["backend"], cores=request["cores"],
        nodes=request["nodes"], shared=request["shared"],
        quantum=request["quantum"])


def check_measure(request: dict, measurement) -> dict:
    """Exit codes against the registry, cycle errors, digests.

    Observables digests are keyed by (program, cores, nodes, level):
    every backend and quantum mode must produce the same observables,
    which the caller checks across the whole run.
    """
    expected = _expected_exit(request)
    problems, cycle_errors, digests = [], [], {}
    reference = measurement.reference
    single_core = not request["shared"]
    if single_core and expected is not None \
            and reference.exit_code != expected:
        problems.append(f"reference exit {reference.exit_code} != "
                        f"{expected}")
    for level in request["levels"]:
        result = measurement.levels[level].result
        if expected is not None and result.exit_code != expected:
            problems.append(f"level {level} exit {result.exit_code} != "
                            f"{expected}")
        key = (f"{request['program']}/c{request['cores']}"
               f"/n{request['nodes']}/L{level}")
        digests[key] = digest(result.observables())
        if single_core and level >= 1 and reference.cycles:
            cycle_errors.append(
                100.0 * abs(result.emulated_cycles - reference.cycles)
                / reference.cycles)
    return dict(problems=problems, cycle_errors=cycle_errors,
                digests=digests)


class ServeSession:
    """An in-process ``ReproServe`` on a free port, one client."""

    HOST = "127.0.0.1"

    def __init__(self) -> None:
        import asyncio
        import threading

        from repro.serve import ReproServe

        holder: dict = {}
        ready = threading.Event()

        def serve() -> None:
            async def main() -> None:
                server = ReproServe(host=self.HOST, port=0)
                await server.start()
                holder["server"] = server
                ready.set()
                await server.serve_until_shutdown()

            try:
                asyncio.run(main())
            finally:
                ready.set()

        self._thread = threading.Thread(target=serve, daemon=True)
        self._thread.start()
        if not ready.wait(60) or "server" not in holder:
            raise RuntimeError("repro-serve did not start")
        self.server = holder["server"]
        self.port = self.server.port

    def warm_pool(self) -> None:
        """Start the worker pool with a job outside the timed sweeps."""
        from repro.serve.client import collect, submit

        job = submit(self.HOST, self.port, dict(
            type="measure", programs=["uart_hello"], levels=[0],
            backend="interp"))
        _records, final = collect(self.HOST, self.port, job["id"])
        if final.get("status") != "done":
            raise RuntimeError(f"pool warm-up job ended {final}")

    def metrics(self) -> dict:
        from repro.serve.client import request

        _status, body = request(self.HOST, self.port, "GET", "/metrics")
        return body

    def close(self) -> None:
        from repro.serve.client import request

        request(self.HOST, self.port, "POST", "/shutdown")
        self._thread.join(120)
        if self._thread.is_alive():
            raise RuntimeError("repro-serve did not shut down")

    def run_job(self, request: dict) -> tuple[list, dict, float | None]:
        """Submit one sweep and follow it to its final status record.

        Returns the shard records, the final summary/status fields and
        the time the first record arrived.
        """
        from repro.serve.client import stream, submit

        job = submit(self.HOST, self.port,
                     dict(type="measure", **SERVE_SWEEPS[request["sweep"]]))
        records, final, first = [], {}, None
        for record in stream(self.HOST, self.port, job["id"]):
            if "seq" in record:
                first = first or time.perf_counter()
                records.append(record)
            else:
                final.update(record)
        return records, final, first


def check_job(request: dict, records: list, final: dict) -> dict:
    """Status, record count, exit codes, cycle errors, digests."""
    from repro.programs.registry import expected_exit

    sweep = SERVE_SWEEPS[request["sweep"]]
    problems, cycle_errors, digests = [], [], {}
    if final.get("status") != "done":
        problems.append(f"job ended {final.get('status')}: "
                        f"{final.get('error')}")
    expected_records = len(sweep["programs"]) * (1 + len(sweep["levels"]))
    if len(records) != expected_records:
        problems.append(f"{len(records)} records, expected "
                        f"{expected_records}")
    reference_cycles = {}
    for record in records:
        spec, result = record["spec"], record["result"]
        expected = expected_exit(spec["program"])
        if expected is not None and result["exit_code"] != expected:
            problems.append(f"{spec['kind']} {spec['program']} "
                            f"L{spec['level']} exit {result['exit_code']}")
        if spec["kind"] == "reference":
            reference_cycles[spec["program"]] = result["cycles"]
        else:
            digests[f"{request['sweep']}/{spec['program']}"
                    f"/L{spec['level']}"] = digest(result)
    for record in records:
        spec = record["spec"]
        cycles = reference_cycles.get(spec["program"])
        if spec["kind"] == "platform" and spec["level"] >= 1 and cycles:
            cycle_errors.append(
                100.0 * abs(record["result"]["emulated_cycles"] - cycles)
                / cycles)
    summary = final.get("summary") or {}
    return dict(
        problems=problems, cycle_errors=cycle_errors, digests=digests,
        regions_generated=summary.get("regions_generated", 0),
        shard_s={kind: [record["wall_seconds"] for record in records
                        if record["spec"]["kind"] == kind]
                 for kind in ("reference", "platform")})
