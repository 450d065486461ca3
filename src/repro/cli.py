"""Command-line entry points.

* ``repro-asm`` — assemble TriCore-like assembly to an object file
* ``repro-minic`` — compile minic C to an object file (or assembly)
* ``repro-translate`` — run the cycle-accurate binary translator
* ``repro-run`` — execute an object file (reference ISS or platform)
* ``repro-fuzz`` — differential fuzzing across backends/cores/levels
* ``repro-experiments`` — regenerate the paper's tables and figures
* ``repro-serve`` — resident simulation service (warm caches, HTTP/JSON)
* ``repro-submit`` — submit a sweep to a running repro-serve
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ReproError


def _load_object(path: str):
    from repro.objfile import elf

    return elf.load(path)


def _backend_choices() -> tuple[str, ...]:
    """Registered execution backends (single source of truth), so CLI
    choices stay in sync with :mod:`repro.vliw.codegen` automatically —
    a backend registered there is immediately selectable here, and an
    unknown name is rejected naming the registered set."""
    from repro.vliw.codegen import backend_names

    return backend_names()


def asm_main(argv: list[str] | None = None) -> int:
    """Assemble a source file into a RELF object file."""
    parser = argparse.ArgumentParser(
        prog="repro-asm", description=asm_main.__doc__)
    parser.add_argument("source")
    parser.add_argument("-o", "--output", default="a.relf")
    parser.add_argument("--listing", action="store_true",
                        help="print a disassembly listing")
    args = parser.parse_args(argv)
    from repro.isa.tricore.assembler import assemble
    from repro.isa.tricore.disassembler import format_listing
    from repro.objfile import elf

    try:
        with open(args.source) as handle:
            obj = assemble(handle.read())
        elf.save(obj, args.output)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.listing:
        text = obj.text()
        print(format_listing(text.data, text.addr))
    print(f"wrote {args.output} (entry {obj.entry:#010x})")
    return 0


def minic_main(argv: list[str] | None = None) -> int:
    """Compile a minic C source file."""
    parser = argparse.ArgumentParser(
        prog="repro-minic", description=minic_main.__doc__)
    parser.add_argument("source")
    parser.add_argument("-o", "--output", default="a.relf")
    parser.add_argument("-S", "--asm", action="store_true",
                        help="emit assembly text instead of an object file")
    args = parser.parse_args(argv)
    from repro.minic.compiler import compile_source, compile_to_asm
    from repro.objfile import elf

    try:
        with open(args.source) as handle:
            source = handle.read()
        if args.asm:
            print(compile_to_asm(source))
            return 0
        obj = compile_source(source)
        elf.save(obj, args.output)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.output} (entry {obj.entry:#010x})")
    return 0


def translate_main(argv: list[str] | None = None) -> int:
    """Translate an object file to a cycle-annotated VLIW program."""
    parser = argparse.ArgumentParser(
        prog="repro-translate", description=translate_main.__doc__)
    parser.add_argument("object")
    parser.add_argument("--level", type=int, default=2,
                        choices=(0, 1, 2, 3),
                        help="detail level of cycle accuracy")
    parser.add_argument("--arch", help="source architecture XML file")
    parser.add_argument("--listing", action="store_true",
                        help="print the translated program")
    parser.add_argument("--run", action="store_true",
                        help="execute on the platform after translating")
    parser.add_argument("--backend", default="interp",
                        choices=_backend_choices(),
                        help="platform execution backend for --run: the "
                             "interpretive core, the packet-compiled "
                             "host translation, or the native C backend "
                             "(identical observables)")
    parser.add_argument("--cores", type=int, default=1,
                        help="for --run: replicate the program onto an "
                             "N-core SoC model (one shared bus, "
                             "round-robin arbitration) instead of the "
                             "single-core platform")
    parser.add_argument("--shared", action="store_true",
                        help="for --run --cores N: report the "
                             "shared-device segment (mailbox/scratch/"
                             "global timer) activity — per-core "
                             "contention stalls, arbitration conflicts "
                             "and shared-bus transfers")
    parser.add_argument("--quantum", default="adaptive",
                        help="for --run --cores N: intra-SoC lockstep "
                             "scheduling mode — 'adaptive' (default: "
                             "run-ahead windows between shared "
                             "accesses) or a fixed integer quantum; only "
                             "'adaptive' and 1 give identical observables")
    parser.add_argument("--jobs", type=int, default=1,
                        help="for --run: sweep all four detail levels, "
                             "sharded across N worker processes "
                             "(overrides --level)")
    parser.add_argument("--nodes", type=int, default=1,
                        help="for --run: join N copies of the "
                             "(--cores-core) SoC into a cluster over a "
                             "modeled network fabric")
    parser.add_argument("--barrier", default="lockstep",
                        choices=("lockstep", "process"),
                        help="for --nodes: the cluster synchronization "
                             "barrier — serial in-process lockstep, or "
                             "one worker process per SoC (identical "
                             "observables)")
    parser.add_argument("--fabric-latency", type=int, default=16,
                        help="fabric per-hop latency in target cycles "
                             "(also the default lockstep quantum)")
    parser.add_argument("--fabric-word-cycles", type=int, default=2,
                        help="fabric link serialization cost per word")
    parser.add_argument("--fabric-topology", default="xbar",
                        choices=("xbar", "ring"),
                        help="fabric topology for --nodes")
    args = parser.parse_args(argv)
    from repro.arch.xmlio import source_arch_from_xml
    from repro.translator.driver import translate
    from repro.vliw.platform import PrototypingPlatform

    if args.cores < 1 or args.jobs < 1 or args.nodes < 1:
        print("error: --cores, --jobs and --nodes must be >= 1",
              file=sys.stderr)
        return 1
    if args.quantum != "adaptive":
        try:
            args.quantum = int(args.quantum)
        except ValueError:
            args.quantum = 0
        if args.quantum < 1:
            print("error: --quantum must be 'adaptive' or a positive "
                  "integer", file=sys.stderr)
            return 1
    if args.shared and (not args.run or args.cores < 2 or args.jobs > 1
                        or args.nodes > 1):
        print("error: --shared requires --run --cores >= 2 and is not "
              "available with --jobs or --nodes", file=sys.stderr)
        return 1
    if args.nodes > 1 and args.jobs > 1:
        print("error: --nodes and --jobs are mutually exclusive",
              file=sys.stderr)
        return 1
    try:
        obj = _load_object(args.object)
        arch = None
        if args.arch:
            with open(args.arch) as handle:
                arch = source_arch_from_xml(handle.read())
        result = translate(obj, level=args.level, source=arch)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    stats = result.stats
    print(f"translated {stats.source_instructions} source instructions "
          f"({stats.basic_blocks} blocks) into {stats.packets} packets "
          f"at level {args.level}")
    print(f"code expansion {stats.code_expansion:.2f}x; accesses: "
          f"{stats.accesses_data} data, {stats.accesses_io} io, "
          f"{stats.accesses_unknown} unknown; "
          f"{stats.spilled_registers} spilled registers")
    if args.listing:
        print(result.program.listing())
    if not args.run:
        return 0
    if args.jobs > 1:
        return _run_level_sweep(obj, arch, args)
    if args.nodes > 1:
        return _run_cluster(result.program, arch, args)
    if args.cores > 1:
        from repro.vliw.multicore import MultiCoreSoC

        multi = MultiCoreSoC(result.program, cores=args.cores,
                             backends=args.backend, source_arch=arch,
                             quantum=args.quantum).run()
        for index, run in enumerate(multi.per_core):
            print(f"core{index}: exit={run.exit_code} "
                  f"target_cycles={run.target_cycles} "
                  f"emulated_cycles={run.emulated_cycles} "
                  f"cpi={run.target_cpi:.2f}")
            if args.shared:
                print(f"core{index} contention_stall_cycles="
                      f"{run.core_stats.contention_stall_cycles}")
            if run.uart_output:
                print(f"core{index} uart: {run.uart_output!r}")
        print(f"platform: {multi.n_cores} cores, "
              f"{multi.target_cycles} target cycles, "
              f"{len(multi.bus_trace)} shared-bus transfers")
        if args.shared:
            shared_trace = multi.shared_trace()
            print(f"shared segment: {len(shared_trace)} transfers, "
                  f"{multi.contention_conflicts} arbitration conflicts, "
                  f"{sum(multi.contention_stall_cycles)} total stall "
                  f"cycles")
            lockstep = multi.lockstep
            print(f"lockstep: quantum={lockstep['quantum']} "
                  f"rounds={lockstep['rounds']} "
                  f"runahead_rounds={lockstep['runahead_rounds']} "
                  f"runahead_cycles={lockstep['runahead_window_cycles']} "
                  f"inline_shared_calls="
                  f"{sum(c['inline_shared_calls'] for c in lockstep['per_core'])} "
                  f"interp_bails="
                  f"{sum(c['interp_bails'] for c in lockstep['per_core'])}")
        return 0
    platform = PrototypingPlatform(result.program, source_arch=arch,
                                   backend=args.backend)
    run = platform.run()
    print(f"exit={run.exit_code} target_cycles={run.target_cycles} "
          f"emulated_cycles={run.emulated_cycles} "
          f"cpi={run.target_cpi:.2f}")
    if args.backend == "native":
        context = (platform._compiler.native_context
                   if platform._compiler else None)
        if context is None:
            print("native: unavailable (no C toolchain or REPRO_NATIVE=0); "
                  "ran on the Python emitter")
        else:
            print(f"native: {context.n_native_regions} regions compiled "
                  f"({context.binding.kind}), {context.regions_native} "
                  f"entered, {context.regions_demoted} demoted to Python")
    elif args.backend == "tiered" and platform._compiler is not None:
        tier_stats = platform._compiler.tier_stats()
        counts = {"interp": 0, "python": 0, "native": 0}
        for info in tier_stats["regions"].values():
            counts[info["tier"]] += 1
        print(f"tiered: {counts['interp']} regions interpreted, "
              f"{tier_stats['promoted_python']} promoted to Python, "
              f"{tier_stats['promoted_native']} promoted to native "
              f"superblocks, {tier_stats['demoted']} demoted")
    if run.uart_output:
        print(f"uart: {run.uart_output!r}")
    return 0


def _run_cluster(program, arch, args) -> int:
    """Run a translated program on an N-SoC cluster (``--nodes``)."""
    from repro.vliw.cluster import Cluster
    from repro.vliw.fabric import FabricConfig

    try:
        cluster = Cluster(
            program, socs=args.nodes, cores=args.cores,
            backends=args.backend, barrier=args.barrier, source_arch=arch,
            core_quantum=args.quantum,
            fabric=FabricConfig(latency=args.fabric_latency,
                                word_cycles=args.fabric_word_cycles,
                                topology=args.fabric_topology))
        result = cluster.run()
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for node, soc in enumerate(result.per_soc):
        for index, run in enumerate(soc.per_core):
            print(f"soc{node}.core{index}: exit={run.exit_code} "
                  f"target_cycles={run.target_cycles} "
                  f"emulated_cycles={run.emulated_cycles} "
                  f"cpi={run.target_cpi:.2f}")
            if run.uart_output:
                print(f"soc{node}.core{index} uart: {run.uart_output!r}")
    fabric = result.fabric
    print(f"cluster: {result.n_socs} SoCs x {args.cores} cores, "
          f"{args.barrier} barrier, quantum {cluster.quantum}, "
          f"{result.rounds} windows, {result.target_cycles} target cycles")
    print(f"fabric ({args.fabric_topology}): "
          f"{fabric['words_routed']} words routed, "
          f"{fabric['hop_cycles']} hop cycles, "
          f"{fabric['ingress_conflicts']} ingress conflicts, "
          f"{fabric['egress_wait_cycles']} egress wait cycles")
    return 0


def _run_level_sweep(obj, arch, args) -> int:
    """Run an object at every detail level via the sharded runner."""
    from repro.eval.sharded import ShardedRunner, ShardSpec

    runner = ShardedRunner(jobs=args.jobs, source_arch=arch)
    specs = [ShardSpec(obj=obj, level=level, backend=args.backend,
                       cores=args.cores)
             for level in (0, 1, 2, 3)]
    try:
        outcomes = runner.run(specs)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"level sweep across {args.jobs} jobs "
          f"({args.cores} core{'s' if args.cores > 1 else ''} each):")
    for outcome in outcomes:
        run = outcome.result
        print(f"  L{outcome.spec.level}: exit={run.exit_code} "
              f"target_cycles={run.target_cycles} "
              f"emulated_cycles={run.emulated_cycles} "
              f"cpi={run.target_cpi:.2f} "
              f"wall={outcome.wall_seconds * 1e3:.1f}ms")
    return 0


def run_main(argv: list[str] | None = None) -> int:
    """Execute an object file on a reference simulator."""
    parser = argparse.ArgumentParser(
        prog="repro-run", description=run_main.__doc__)
    parser.add_argument("object")
    parser.add_argument("--simulator", default="cycle",
                        choices=("functional", "cycle", "interpreted", "rtl"),
                        help="which reference simulator to use")
    parser.add_argument("--arch", help="source architecture XML file")
    parser.add_argument("--max-instructions", type=int, default=50_000_000)
    args = parser.parse_args(argv)
    from repro.arch.xmlio import source_arch_from_xml
    from repro.refsim.iss import (
        CycleAccurateISS,
        FunctionalISS,
        InterpretedISS,
    )
    from repro.refsim.rtlsim import RtlSimulator

    classes = {
        "functional": FunctionalISS,
        "cycle": CycleAccurateISS,
        "interpreted": InterpretedISS,
        "rtl": RtlSimulator,
    }
    try:
        obj = _load_object(args.object)
        arch = None
        if args.arch:
            with open(args.arch) as handle:
                arch = source_arch_from_xml(handle.read())
        simulator = classes[args.simulator](obj, arch)
        if args.simulator == "rtl":
            result = simulator.run()
        else:
            result = simulator.run(max_instructions=args.max_instructions)
    except (OSError, ReproError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"exit={result.exit_code} instructions={result.instructions} "
          f"cycles={result.cycles} cpi={result.cpi:.3f}")
    if result.uart_output:
        print(f"uart: {result.uart_output!r}")
    return 0


def fuzz_main(argv: list[str] | None = None) -> int:
    """Differentially fuzz the translation pipeline with random programs.

    Generates seeded random minic programs and checks that every
    execution configuration — interpretive vs packet-compiled backend,
    one core vs an N-core lockstep SoC, detail levels 0-3 — produces
    bit-identical observables, and that the exit checksum matches the
    generator's independent Python prediction.  Failing programs are
    shrunk to a minimal reproducer and dumped into the corpus
    directory.
    """
    parser = argparse.ArgumentParser(
        prog="repro-fuzz", description=fuzz_main.__doc__)
    parser.add_argument("--seed", type=int, default=42,
                        help="population seed (same seed + index => "
                             "byte-identical program)")
    parser.add_argument("--count", type=int, default=50,
                        help="number of programs to generate and check")
    parser.add_argument("--cores", type=int, default=2,
                        help="core count for the lockstep SoC check "
                             "(1 disables the multi-core sweep)")
    parser.add_argument("--backend", default="both",
                        choices=(*_backend_choices(), "both", "all"),
                        help="platform backend(s) to cross-check: one "
                             "registered backend, 'both' (interp + "
                             "compiled), or 'all' (every registered "
                             "backend)")
    parser.add_argument("--levels", default="0,1,2,3",
                        help="comma-separated detail levels to sweep")
    parser.add_argument("--corpus-dir", default="tests/fuzz_corpus",
                        help="where shrunk reproducers are written")
    parser.add_argument("--no-shrink", action="store_true",
                        help="dump failing programs unshrunk")
    parser.add_argument("--max-shrink", type=int, default=400,
                        help="shrinking attempt budget per failure")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print a line per program, not only failures")
    args = parser.parse_args(argv)

    from repro.fuzz import FuzzConfig, generate, shrink
    from repro.fuzz.oracle import check_generated

    if args.count < 1 or args.cores < 1 or args.seed < 0:
        print("error: --count/--cores must be >= 1 and --seed >= 0",
              file=sys.stderr)
        return 1
    try:
        levels = tuple(int(part) for part in args.levels.split(","))
    except ValueError:
        levels = ()
    if not levels or any(level not in (0, 1, 2, 3) for level in levels):
        print("error: --levels must be a comma-separated subset of 0,1,2,3",
              file=sys.stderr)
        return 1
    if args.backend == "both":
        backends = ("interp", "compiled")
    elif args.backend == "all":
        backends = _backend_choices()
    else:
        backends = (args.backend,)
    config = FuzzConfig(levels=levels, backends=backends, cores=args.cores)
    configurations = len(levels) * (len(backends) + (args.cores > 1))

    failures = 0
    for index in range(args.count):
        program = generate(args.seed, index)
        verdict = check_generated(program, config)
        if verdict.ok:
            if args.verbose:
                print(f"program {index}: {verdict.summary()}")
            continue
        failures += 1
        print(f"program {index}: FAIL — {verdict.summary()}")
        reproducer = program
        if not args.no_shrink:
            def still_fails(candidate):
                return not check_generated(candidate, config).ok

            reproducer = shrink(program, still_fails,
                                max_attempts=args.max_shrink)
            # the shrunk program may fail differently than the original;
            # record the verdict that matches the dumped artifact
            verdict = check_generated(reproducer, config)
        path = _dump_reproducer(args.corpus_dir, args.seed, index,
                                reproducer, verdict)
        print(f"  reproducer: {path}")

    print(f"checked {args.count} programs x {configurations} "
          f"configurations (levels {','.join(map(str, levels))}, "
          f"backends {'/'.join(backends)}, cores {args.cores}): "
          f"{failures} failure(s)")
    return 1 if failures else 0


def _dump_reproducer(corpus_dir: str, seed: int, index: int,
                     program, verdict) -> str:
    """Write the shrunk source + a JSON verdict next to it."""
    import json
    import os

    os.makedirs(corpus_dir, exist_ok=True)
    stem = os.path.join(corpus_dir, f"fuzz_{seed}_{index}")
    source = program.render()
    try:
        expected_exit, expected_uart = program.evaluate()
    except Exception:  # pragma: no cover - mirror crash is the finding
        expected_exit, expected_uart = None, b""
    with open(stem + ".mc", "w") as handle:
        handle.write(source)
    with open(stem + ".json", "w") as handle:
        json.dump({
            "seed": seed,
            "index": index,
            "expected_exit": expected_exit,
            "expected_uart": expected_uart.decode("latin-1"),
            "mismatches": [str(m) for m in verdict.mismatches],
        }, handle, indent=2)
        handle.write("\n")
    return stem + ".mc"


def serve_main(argv: list[str] | None = None) -> int:
    """Run the resident simulation service (see docs/serving.md).

    A long-lived HTTP/JSON server that accepts translate/measure/fuzz
    jobs and executes them on one persistent sharded runner whose
    translation, region and native-module caches stay warm across
    requests — repeated sweeps pay no cold-start cost.
    """
    parser = argparse.ArgumentParser(
        prog="repro-serve", description=serve_main.__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8357,
                        help="listen port (0 picks a free one)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes in the persistent pool "
                             "(default: usable CPUs; 1 executes shards "
                             "inline)")
    parser.add_argument("--max-cached", type=int, default=None,
                        help="bound the object/translation/precompile "
                             "memos with LRU eviction (default 256)")
    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be >= 1", file=sys.stderr)
        return 1
    if args.max_cached is not None and args.max_cached < 1:
        print("error: --max-cached must be >= 1", file=sys.stderr)
        return 1
    from repro.serve.server import DEFAULT_MAX_CACHED, ReproServe

    server = ReproServe(host=args.host, port=args.port, jobs=args.jobs,
                        max_cached=(args.max_cached
                                    if args.max_cached is not None
                                    else DEFAULT_MAX_CACHED))
    server.run_forever()
    return 0


def submit_main(argv: list[str] | None = None) -> int:
    """Submit a sweep to a running repro-serve (see repro.serve.client)."""
    from repro.serve.client import submit_main as _submit_main

    return _submit_main(argv)


def experiments_main(argv: list[str] | None = None) -> int:
    """Regenerate the paper's tables and figures."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments", description=experiments_main.__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="skip Table 2 (the slow RTL measurements)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="shard the measurements across N worker "
                             "processes (identical numbers, less wall "
                             "clock)")
    parser.add_argument("--backend", default="interp",
                        choices=_backend_choices(),
                        help="platform execution backend for the "
                             "measurements (identical observables)")
    parser.add_argument("-o", "--output",
                        help="also write the reports to a file")
    args = parser.parse_args(argv)
    from repro.eval.experiments import run_all

    reports = run_all(quick=args.quick, jobs=args.jobs, backend=args.backend)
    text = "\n\n".join(report.text for report in reports)
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    return 0
