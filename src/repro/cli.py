"""Command-line interface: inspect, run, and instrument EELF executables.

    python -m repro.cli build  <workload> <out.eelf> [--sunpro] [--emit-meta]
    python -m repro.cli run    <exe.eelf> [--stdin TEXT] [--max-steps N]
    python -m repro.cli disasm <exe.eelf>
    python -m repro.cli routines <exe.eelf>
    python -m repro.cli facts  <exe.eelf> [--invalidate NAME]
    python -m repro.cli meta   <exe.eelf> [--emit OUT.eelf]
    python -m repro.cli profile <exe.eelf> <out.eelf> [--mode block|edge]
    python -m repro.cli cachesim <exe.eelf>
    python -m repro.cli stats  <exe.eelf> [--no-run]
    python -m repro.cli verify <workload> [--all] [--tool NAME]
    python -m repro.cli fuzz   [--seeds N] [--jobs N] [--corpus-only]
    python -m repro.cli serve  [--socket PATH] [--jobs N] [--queue N]
    python -m repro.cli fleet  [--address ADDR] [--shards N] [--events PATH]
    python -m repro.cli client <op> [--workload NAME] [--image PATH]
    python -m repro.cli trace  <events.jsonl> [--id TRACE]
    python -m repro.cli top    [--socket PATH] [--watch N]
    python -m repro.cli export [--stats-json PATH | --socket PATH]

``run``, ``profile``, ``cachesim``, ``stats``, and ``verify`` accept
telemetry flags: ``--trace`` prints the span tree and counters to
stderr, and ``--stats-json PATH`` writes the full ``repro.obs/2`` JSON
report.  ``serve`` and ``fuzz`` additionally accept ``--events PATH``
to append a durable ``repro.events/1`` JSONL log that ``repro trace``
replays into per-request span trees and anomaly flags.

Analysis-driven commands (``disasm``, ``routines``, ``facts``,
``profile``, ``cachesim``, ``stats``, ``verify``) accept
``--trust-meta``/``--no-trust-meta`` to override ``$REPRO_TRUST_META``
— whether a verified ``.eel.meta`` producer section may seed analysis
instead of full symbol-table refinement (DESIGN.md §5l).
"""

import argparse
import json
import sys

from repro.asm.disassembler import disassemble_section
from repro.binfmt import read_image, write_image
from repro.core import Executable
from repro.sim import ENGINES, run_image
from repro.tools import MODES, tool_names


# ----------------------------------------------------------------------
# Telemetry plumbing
# ----------------------------------------------------------------------

def _add_obs_flags(subparser):
    subparser.add_argument("--trace", action="store_true",
                           help="print a span-tree/counter summary to stderr")
    subparser.add_argument("--stats-json", metavar="PATH", default=None,
                           help="write the repro.obs JSON report to PATH")


def _add_trust_flag(subparser):
    group = subparser.add_mutually_exclusive_group()
    group.add_argument("--trust-meta", dest="trust_meta",
                       action="store_true", default=None,
                       help="hydrate analysis from a verified .eel.meta "
                            "section when present "
                            "(default: $REPRO_TRUST_META or on)")
    group.add_argument("--no-trust-meta", dest="trust_meta",
                       action="store_false",
                       help="ignore .eel.meta; always run full refinement")


def _apply_trust_flag(args):
    """Propagate --trust-meta/--no-trust-meta to the environment so the
    whole process (including analysis worker processes) agrees."""
    value = getattr(args, "trust_meta", None)
    if value is not None:
        import os

        os.environ["REPRO_TRUST_META"] = "on" if value else "off"


def _obs_begin(args):
    """Enable telemetry when any obs flag is present; returns True if so."""
    wanted = getattr(args, "trace", False) \
        or getattr(args, "stats_json", None)
    if not wanted:
        return False
    from repro import obs

    obs.reset()
    obs.enable()
    return True


def _obs_end(args, enabled):
    if not enabled:
        return
    from repro import obs
    from repro.obs import report as obs_report

    obs.disable()
    report = obs_report.build_report()
    if getattr(args, "stats_json", None):
        _write_report(report, args.stats_json)
        print("wrote stats to %s" % args.stats_json, file=sys.stderr)
    if getattr(args, "trace", False):
        obs_report.render(report)


def _write_report(report, path):
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _emit_program_output(simulator):
    """Write the simulated program's stdout, newline-terminated and
    flushed, so the stderr trailers never interleave mid-line."""
    output = simulator.output
    sys.stdout.write(output)
    if output and not output.endswith("\n"):
        sys.stdout.write("\n")
    sys.stdout.flush()


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def _cmd_build(args):
    from repro.minic import GCC_LIKE, SUNPRO_LIKE
    from repro.workloads import build_image
    from repro.workloads.builder import program_names

    if args.workload not in program_names():
        print("unknown workload; available: %s"
              % ", ".join(program_names()), file=sys.stderr)
        return 1
    options = SUNPRO_LIKE if args.sunpro else GCC_LIKE
    if args.emit_meta:
        options = options.named(emit_meta=True)
    write_image(build_image(args.workload, options), args.output)
    print("wrote", args.output)
    return 0


def _cmd_run(args):
    from repro.sim.machine import SimulationError

    try:
        simulator = run_image(read_image(args.executable),
                              stdin_text=args.stdin or "",
                              max_steps=args.max_steps,
                              strict_memory=args.strict_memory,
                              engine=args.engine)
    except SimulationError as error:
        print("simulation error: %s" % error, file=sys.stderr)
        return 1
    _emit_program_output(simulator)
    print("[exit %d after %d instructions]"
          % (simulator.exit_code, simulator.instructions_executed),
          file=sys.stderr)
    return simulator.exit_code


def _cmd_disasm(args):
    image = read_image(args.executable)
    annotations = {}
    try:
        exe = Executable(image).read_contents()
        for routine in exe.all_routines():
            annotations[routine.start] = "; routine %s%s" % (
                routine.name, " (hidden)" if routine.hidden else "")
    except Exception:
        # Disassembly must work even on images analysis chokes on.
        annotations = {}
    for name, section in image.sections.items():
        if section.is_exec:
            print("section %s @ 0x%x" % (name, section.vaddr))
            for line in disassemble_section(image, name,
                                            annotations=annotations):
                print(line)
    return 0


def _cmd_routines(args):
    exe = Executable(read_image(args.executable)).read_contents()
    for routine in sorted(exe.all_routines(), key=lambda r: r.start):
        cfg = routine.control_flow_graph()
        flags = []
        if routine.hidden:
            flags.append("hidden")
        if cfg.incomplete:
            flags.append("incomplete")
        print("0x%06x-0x%06x %-20s %3d blocks %3d edges %s" % (
            routine.start, routine.end, routine.name, len(cfg.blocks),
            len(cfg.all_edges()), " ".join(flags)))
    return 0


def _cmd_facts(args):
    """Inspect the incremental fact store for one executable.

    Prints the per-kind fact counts; with ``--invalidate NAME`` it also
    dirties that routine's facts and reports what the incremental
    solver re-derived vs. refreshed — a quick demonstration that an
    edit to one routine does not re-analyze the others.
    """
    from repro.core.facts import rules as fact_rules
    from repro.core.executable import ExecutableError
    from repro.obs import metrics as _metrics

    exe = Executable(read_image(args.executable)).read_contents()
    store = exe.fact_store()
    fact_rules.populate(exe, store)
    print("fact store: %d facts over %d routines"
          % (len(store), len(exe.all_routines())))
    for kind in fact_rules.KIND_ORDER:
        print("  %-10s %4d" % (kind, len(store.facts_of_kind(kind))))
    if args.invalidate:
        try:
            exe.invalidate_routine(args.invalidate)
        except ExecutableError as error:
            print("facts: %s" % error, file=sys.stderr)
            return 1
        dirty = store.dirty_facts()
        print("invalidate %s: %d fact(s) dirty" % (args.invalidate,
                                                   len(dirty)))
        for kind, key in sorted(dirty):
            print("  dirty %-10s 0x%06x" % (kind, key))
        rederived, refreshed = fact_rules.solve(exe, store)
        print("solve: %d CFG(s) rebuilt, %d fact(s) refreshed, "
              "%d escalation(s)"
              % (rederived, refreshed,
                 _metrics.counter("facts.escalations").snapshot()))
    return 0


def _cmd_meta(args):
    """Inspect (or emit) the ``.eel.meta`` trusted-structure section.

    Without ``--emit``, decodes and prints the section's claims and
    reports whether the verify-and-trust spot checks accept them
    against this image's bytes.  With ``--emit OUT``, runs full
    analysis (trust disabled) on the input, derives a fresh table from
    what it found, and writes a metadata-carrying copy to OUT.
    """
    from repro.binfmt.meta import MetaError, extract_meta, has_meta
    from repro.core import trust

    image = read_image(args.executable)
    if args.emit:
        from repro.binfmt.meta import attach_meta

        executable = Executable(image).read_contents(trust_meta=False)
        attach_meta(image, trust.meta_from_executable(executable))
        write_image(image, args.emit)
        print("wrote", args.emit)
        return 0
    if not has_meta(image):
        print("meta: %s has no .eel.meta section" % args.executable,
              file=sys.stderr)
        return 1
    try:
        meta = extract_meta(image)
    except MetaError as error:
        print("meta: malformed section: %s" % error, file=sys.stderr)
        return 1
    print("repro.meta/1: %d routine(s), %d dispatch table(s), "
          "%d delay-slot CTI(s), %d data island(s)"
          % (len(meta.routines), len(meta.tables),
             len(meta.delay_ctis), len(meta.islands)))
    print("text binding: 0x%x+%d sha256 %s..."
          % (meta.text_vaddr, meta.text_size, meta.text_sha256.hex()[:16]))
    for routine in meta.routines:
        extra = " hidden" if routine.hidden else ""
        if len(routine.entries) > 1:
            extra += " entries " + ",".join("0x%x" % entry
                                            for entry in routine.entries[1:])
        print("  routine 0x%06x-0x%06x %-20s%s"
              % (routine.start, routine.end, routine.name, extra))
    for table in meta.tables:
        print("  table   0x%06x %4d word(s)%s"
              % (table.addr, table.count,
                 " (in .text)" if table.in_text else ""))
    for start, end in meta.islands:
        print("  island  0x%06x-0x%06x" % (start, end))
    if meta.delay_ctis:
        print("  delay-slot CTIs: %s"
              % " ".join("0x%x" % addr for addr in meta.delay_ctis))
    rejection = trust.verify_meta(Executable(image), meta)
    if rejection is None:
        print("verification: OK — analysis would trust this table")
        return 0
    print("verification: REJECTED (%s): %s" % rejection)
    return 1


def _cmd_profile(args):
    from repro.tools.qpt import QptProfiler

    image = read_image(args.executable)
    tool = QptProfiler(image, mode=args.mode).run()
    edited = tool.edited_image()
    write_image(edited, args.output)
    simulator = run_image(edited, stdin_text=args.stdin or "")
    _emit_program_output(simulator)
    print("hottest blocks:", file=sys.stderr)
    counts = tool.block_counts(simulator)
    for (routine, start), count in sorted(counts.items(),
                                          key=lambda kv: -kv[1])[:10]:
        print("  %-20s 0x%06x %10d" % (routine, start, count),
              file=sys.stderr)
    return 0


def _cmd_cachesim(args):
    from repro.tools.active_memory import ActiveMemory

    image = read_image(args.executable)
    tool = ActiveMemory(image, cache_size=args.cache_size).instrument()
    simulator, cache = tool.run(stdin_text=args.stdin or "")
    _emit_program_output(simulator)
    print("%d misses / %d handled accesses (cache %dB, %d sites)"
          % (cache.misses, cache.accesses, args.cache_size, tool.sites),
          file=sys.stderr)
    return 0


def _cmd_stats(args):
    """Full-pipeline telemetry for one executable.

    Runs symbol-table refinement, builds every routine's CFG (which
    triggers indirect-jump analysis), optionally simulates the program,
    and prints the ``repro.obs/2`` JSON report on stdout (or writes it
    with ``--stats-json``): the span tree, every counter, gauge and
    histogram under its own name, and in ``derived`` each declared
    ratio whose denominator is non-zero, such as
    ``cfg.uneditable_block_rate`` and ``indirect.resolved_rate``.
    """
    from repro import obs
    from repro.obs import report as obs_report

    obs.reset()
    obs.enable()
    try:
        with obs.span("stats", executable=str(args.executable)):
            exe = Executable(read_image(args.executable)).read_contents()
            with obs.span("stats.cfg_walk") as sp:
                routines = sorted(exe.all_routines(), key=lambda r: r.start)
                for routine in routines:
                    routine.control_flow_graph()
                sp.set(routines=len(routines))
            if not args.no_run:
                run_image(read_image(args.executable),
                          stdin_text=args.stdin or "")
    finally:
        obs.disable()
    report = obs_report.build_report()
    if args.trace:
        obs_report.render(report)
    if args.stats_json:
        _write_report(report, args.stats_json)
        print("wrote stats to %s" % args.stats_json, file=sys.stderr)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_verify(args):
    """Differential verification (lints + cosim) of instrumented
    workloads; see DESIGN.md section 5e."""
    from repro.pool import fan_out
    from repro.tools import REGISTRY
    from repro.verify import _verify_worker
    from repro.workloads.builder import mips_program_names, program_names

    arches = REGISTRY[args.tool].arches
    available = ((list(program_names()) if "sparc" in arches else [])
                 + (list(mips_program_names()) if "mips" in arches else []))
    if args.all:
        names = available
    else:
        if not args.workload:
            print("verify: a workload name (or --all) is required",
                  file=sys.stderr)
            return 1
        if args.workload not in available:
            print("unknown workload for tool %s; available: %s"
                  % (args.tool, ", ".join(available)), file=sys.stderr)
            return 1
        names = [args.workload]

    use_memo = not args.no_memo
    payloads = [(name, args.tool, args.mode, use_memo, args.stdin or "")
                for name in names]
    failures = 0
    for _name, ok, text in fan_out(_verify_worker, payloads, args.jobs):
        print(text)
        if not ok:
            failures += 1
    print("[verified %d/%d workloads with %s]"
          % (len(payloads) - failures, len(payloads), args.tool),
          file=sys.stderr)
    return 0 if failures == 0 else 1


def _cmd_fuzz(args):
    """Generative fuzzing campaign (or corpus replay); DESIGN.md §5g."""
    import os

    from repro.fuzz import campaign as fuzz_campaign
    from repro.fuzz.corpus import CorpusError
    from repro.fuzz.gen import GenConfig

    if args.corpus_only:
        if not os.path.isdir(args.corpus):
            print("fuzz: corpus directory %r does not exist" % args.corpus,
                  file=sys.stderr)
            return 1
        try:
            result = fuzz_campaign.replay_corpus(args.corpus)
        except CorpusError as error:
            print("fuzz: %s" % error, file=sys.stderr)
            return 1
        print(result.render())
        return 0 if result.ok else 1

    if args.seeds <= 0:
        print("fuzz: --seeds must be positive", file=sys.stderr)
        return 1
    if args.time_budget is not None and args.time_budget <= 0:
        print("fuzz: --time-budget must be positive", file=sys.stderr)
        return 1
    if args.jobs <= 0:
        print("fuzz: --jobs must be positive", file=sys.stderr)
        return 1
    config = GenConfig(arch=args.arch)

    def progress(outcome):
        if outcome.status != "clean":
            print("  seed %d: %s %s" % (outcome.seed, outcome.status,
                                        outcome.detail), file=sys.stderr)

    if args.events:
        from repro.obs import events as obs_events

        obs_events.configure(args.events)
    try:
        if args.corrupt_meta:
            result = fuzz_campaign.run_meta_corruption_campaign(
                args.seeds, base_seed=args.base_seed, jobs=args.jobs,
                config=config, progress=progress)
        else:
            result = fuzz_campaign.run_campaign(
                args.seeds, base_seed=args.base_seed, jobs=args.jobs,
                config=config, time_budget=args.time_budget,
                corpus_dir=args.corpus, shrink=not args.no_shrink,
                progress=progress,
                meta_mode="emit" if args.emit_meta else None)
    finally:
        if args.events:
            obs_events.unconfigure()
    print(result.render())
    return 0 if result.ok else 1


def _cmd_serve(args):
    """Run the edit-serving daemon in the foreground (see repro.serve)."""
    from repro.serve import ServeConfig, serve_main

    config = ServeConfig(socket_path=args.socket, jobs=args.jobs,
                         queue_size=args.queue, timeout_s=args.timeout,
                         events_path=args.events,
                         shard_id=args.shard_id)
    return serve_main(config, stats_json=args.stats_json, trace=args.trace)


def _cmd_fleet(args):
    """Run the sharded serving fleet: gateway + N shard daemons."""
    from repro.fleet import FleetConfig, fleet_main

    config = FleetConfig(address=args.address, shards=args.shards,
                         run_dir=args.dir, shard_jobs=args.shard_jobs,
                         queue_size=args.queue,
                         forwarders=args.forwarders,
                         starvation_limit=args.starvation_limit,
                         events_path=args.events)
    return fleet_main(config, stats_json=args.stats_json,
                      trace=args.trace)


def _cmd_client(args):
    """One request against a running daemon; prints the JSON result."""
    import base64

    from repro.serve.client import ServeClient, ServeError

    params = {}
    if args.workload:
        params["workload"] = args.workload
    if args.image:
        from repro.binfmt.serialize import image_to_bytes

        params["image"] = base64.b64encode(
            image_to_bytes(read_image(args.image))).decode("ascii")
    if args.op in ("instrument", "verify"):
        params["tool"] = args.tool
        params["mode"] = args.mode
    if args.op == "instrument":
        params["run"] = args.run
        params["return_image"] = False
    if args.op == "hot_restart" and args.shard is not None:
        params["shard"] = args.shard
    if args.stdin:
        params["stdin"] = args.stdin
    client = ServeClient(args.socket, io_timeout=args.timeout,
                         retries=args.retries)
    try:
        with client:
            result = client.request(args.op, **params)
    except ServeError as error:
        print("client error: %s" % error, file=sys.stderr)
        return 1
    except OSError as error:
        print("cannot reach daemon at %s: %s"
              % (client.socket_path, error), file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_trace(args):
    """Reconstruct span trees from a ``repro.events/1`` JSONL log."""
    import os

    from repro.obs import events as obs_events

    if not os.path.exists(args.events):
        print("trace: no event log at %r" % args.events, file=sys.stderr)
        return 1
    try:
        events = obs_events.load_events(args.events)
    except ValueError as error:
        print("trace: %s" % error, file=sys.stderr)
        return 1
    traces = obs_events.build_traces(events)
    if args.id:
        matches = [record for trace_id, record in traces.items()
                   if trace_id == args.id or trace_id.startswith(args.id)]
        if not matches:
            print("trace: no trace %r in %s (%d trace(s) logged)"
                  % (args.id, args.events, len(traces)), file=sys.stderr)
            return 1
        for record in matches:
            print(obs_events.render_trace(record))
        return 0
    requests = [record for record in traces.values()
                if record.admit is not None or record.finish is not None]
    print("%d event(s), %d traced request(s) in %s"
          % (len(events), len(requests), args.events))
    for record in requests:
        handler = "%.3fms" % (record.handler_s * 1e3) \
            if record.handler_s is not None else "?"
        wait = "%.3fms" % (record.queue_wait_s * 1e3) \
            if record.queue_wait_s is not None else "?"
        print("  %s  %-12s %-10s wait=%-10s handler=%s"
              % (record.trace_id, record.op, record.status, wait, handler))
    anomalies = obs_events.find_anomalies(events)
    if anomalies:
        print("anomalies:")
        for line in anomalies:
            print("  " + line)
    else:
        print("anomalies: none")
    return 0


def _render_top(snapshot):
    """Human-oriented rendering of one ``top`` snapshot."""
    server = snapshot.get("server", {})
    if server.get("fleet"):
        queues = server.get("queues") or {}
        lines = ["repro-fleet pid %s  uptime %.1fs  shards %s/%s live  "
                 "queue i=%s b=%s%s"
                 % (server.get("pid"), server.get("uptime_s", 0.0),
                    len(server.get("live") or ()), server.get("shards"),
                    queues.get("interactive"), queues.get("bulk"),
                    "  DRAINING" if server.get("draining") else "")]
    else:
        lines = ["repro-serve pid %s  uptime %.1fs  queue %s  workers %s%s%s"
                 % (server.get("pid"), server.get("uptime_s", 0.0),
                    server.get("queue_depth"), server.get("workers_alive"),
                    "  DEGRADED" if server.get("degraded") else "",
                    "  DRAINING" if server.get("draining") else "")]
    shards = snapshot.get("shards") or {}
    if shards:
        lines.append("shards:   %-5s %-6s %-4s %8s %8s %8s %8s %9s %5s"
                     % ("id", "alive", "gen", "pid", "reqs", "ok",
                        "errors", "rerouted", "warm"))
        for shard_id in sorted(shards, key=lambda s: int(s)):
            entry = shards[shard_id]
            lines.append(
                "          %-5s %-6s %-4s %8s %8d %8d %8d %9d %5d"
                % (shard_id, "up" if entry.get("alive") else "DOWN",
                   entry.get("generation"), entry.get("pid"),
                   entry.get("requests", 0), entry.get("ok", 0),
                   entry.get("errors", 0), entry.get("rerouted_away", 0),
                   entry.get("warm_keys", 0)))
    states = server.get("worker_states") or {}
    if states:
        lines.append("workers: " + "  ".join(
            "%s=%s" % (name, state)
            for name, state in sorted(states.items())))
    counters = snapshot.get("counters") or {}
    if counters:
        tag = "since last snapshot" if snapshot.get("incremental") \
            else "total"
        lines.append("counters (%s):" % tag)
        for name, value in sorted(counters.items()):
            lines.append("  %-32s %12d" % (name, value))
    latency = snapshot.get("latency") or {}
    if latency:
        lines.append("latency:  %-12s %6s %10s %10s %10s %10s"
                     % ("op", "count", "p50", "p95", "p99", "max"))
        for op, stats in sorted(latency.items()):
            lines.append(
                "          %-12s %6d %9.2fms %9.2fms %9.2fms %9.2fms"
                % (op, stats.get("count", 0),
                   (stats.get("p50") or 0.0) * 1e3,
                   (stats.get("p95") or 0.0) * 1e3,
                   (stats.get("p99") or 0.0) * 1e3,
                   (stats.get("max") or 0.0) * 1e3))
    queue_wait = snapshot.get("queue_wait")
    if queue_wait:
        lines.append("queue wait: p50 %.2fms  p95 %.2fms  p99 %.2fms"
                     % ((queue_wait.get("p50") or 0.0) * 1e3,
                        (queue_wait.get("p95") or 0.0) * 1e3,
                        (queue_wait.get("p99") or 0.0) * 1e3))
    return "\n".join(lines)


def _cmd_top(args):
    """Live introspection of a running daemon (one-shot or --watch)."""
    import time as _time

    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.socket, retries=1)
    cursor = None
    try:
        with client:
            while True:
                snapshot = client.top(cursor)
                cursor = snapshot.get("cursor")
                print(_render_top(snapshot), flush=True)
                if not args.watch:
                    return 0
                print("", flush=True)
                _time.sleep(args.watch)
    except ServeError as error:
        print("top: %s" % error, file=sys.stderr)
        return 1
    except OSError as error:
        print("top: cannot reach daemon at %s: %s"
              % (client.socket_path, error), file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        return 0


def _cmd_export(args):
    """Prometheus text-format metrics from a report file or a daemon."""
    from repro.obs.export import prometheus_text

    if args.stats_json:
        try:
            with open(args.stats_json) as handle:
                report = json.load(handle)
        except (OSError, ValueError) as error:
            print("export: cannot read %r: %s" % (args.stats_json, error),
                  file=sys.stderr)
            return 1
        print(prometheus_text(report), end="")
        return 0
    from repro.serve.client import ServeClient, ServeError

    client = ServeClient(args.socket, retries=1)
    try:
        with client:
            report = client.stats()["report"]
    except ServeError as error:
        print("export: %s" % error, file=sys.stderr)
        return 1
    except OSError as error:
        print("export: cannot reach daemon at %s: %s"
              % (client.socket_path, error), file=sys.stderr)
        return 1
    print(prometheus_text(report), end="")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(prog="repro",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build a workload executable")
    build.add_argument("workload")
    build.add_argument("output")
    build.add_argument("--sunpro", action="store_true")
    build.add_argument("--emit-meta", action="store_true",
                       help="attach a .eel.meta trusted-structure section "
                            "(repro.meta/1) describing what analysis found")
    build.set_defaults(func=_cmd_build)

    run = sub.add_parser("run", help="run an executable in the simulator")
    run.add_argument("executable")
    run.add_argument("--stdin", default="")
    run.add_argument("--max-steps", type=int, default=50_000_000,
                     metavar="N",
                     help="abort with a timeout after N instructions "
                          "(default: 50M)")
    run.add_argument("--strict-memory", action="store_true",
                     help="fault on misaligned memory accesses instead "
                          "of byte-wise emulation")
    run.add_argument("--engine", choices=ENGINES,
                     default=None,
                     help="execution engine (default: $REPRO_SIM_ENGINE "
                          "or the block compiler)")
    _add_obs_flags(run)
    run.set_defaults(func=_cmd_run)

    disasm = sub.add_parser("disasm", help="disassemble text sections")
    disasm.add_argument("executable")
    _add_trust_flag(disasm)
    disasm.set_defaults(func=_cmd_disasm)

    routines = sub.add_parser("routines",
                              help="list routines found by refinement")
    routines.add_argument("executable")
    _add_trust_flag(routines)
    routines.set_defaults(func=_cmd_routines)

    facts = sub.add_parser("facts",
                           help="inspect the incremental fact store "
                                "(optionally invalidate one routine)")
    facts.add_argument("executable")
    facts.add_argument("--invalidate", default=None, metavar="NAME",
                       help="dirty NAME's facts, then run the "
                            "incremental solver and report the work")
    _add_trust_flag(facts)
    facts.set_defaults(func=_cmd_facts)

    meta = sub.add_parser("meta",
                          help="inspect (or emit) the .eel.meta "
                               "trusted-structure section")
    meta.add_argument("executable")
    meta.add_argument("--emit", default=None, metavar="OUT",
                      help="analyze the input and write a copy carrying "
                           "a freshly derived .eel.meta section to OUT")
    meta.set_defaults(func=_cmd_meta)

    profile = sub.add_parser("profile", help="instrument with qpt2")
    profile.add_argument("executable")
    profile.add_argument("output")
    profile.add_argument("--mode", choices=MODES, default="edge")
    profile.add_argument("--stdin", default="")
    _add_obs_flags(profile)
    _add_trust_flag(profile)
    profile.set_defaults(func=_cmd_profile)

    cachesim = sub.add_parser("cachesim",
                              help="cache simulation via Active Memory")
    cachesim.add_argument("executable")
    cachesim.add_argument("--cache-size", type=int, default=8192)
    cachesim.add_argument("--stdin", default="")
    _add_obs_flags(cachesim)
    _add_trust_flag(cachesim)
    cachesim.set_defaults(func=_cmd_cachesim)

    stats = sub.add_parser("stats",
                           help="edit-pipeline + simulator telemetry report")
    stats.add_argument("executable")
    stats.add_argument("--stdin", default="")
    stats.add_argument("--no-run", action="store_true",
                       help="skip the simulation pass")
    _add_obs_flags(stats)
    _add_trust_flag(stats)
    stats.set_defaults(func=_cmd_stats, obs_managed=True)

    verify = sub.add_parser("verify",
                            help="differential verification of an "
                                 "instrumented workload (lints + cosim)")
    verify.add_argument("workload", nargs="?", default=None)
    verify.add_argument("--all", action="store_true",
                        help="verify the whole workload corpus")
    verify.add_argument("--tool", choices=tool_names(), default="qpt",
                        help="instrumentation tool to verify (default: qpt)")
    verify.add_argument("--mode", choices=MODES, default="edge",
                        help="qpt instrumentation mode (default: edge)")
    verify.add_argument("--stdin", default="")
    verify.add_argument("--no-memo", action="store_true",
                        help="ignore memoized verdicts; always re-verify")
    verify.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="verify N workloads in parallel worker "
                             "processes (default: 1, serial)")
    _add_obs_flags(verify)
    _add_trust_flag(verify)
    verify.set_defaults(func=_cmd_verify)

    fuzz = sub.add_parser("fuzz",
                          help="generative fuzzing: synthesize, edit, "
                               "verify, shrink what breaks")
    fuzz.add_argument("--seeds", type=int, default=50, metavar="N",
                      help="number of seeds to classify (default: 50)")
    fuzz.add_argument("--base-seed", type=int, default=0, metavar="N",
                      help="first seed (campaigns are deterministic in "
                           "base seed and count; default: 0)")
    fuzz.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="classify seeds across N worker processes "
                           "(default: 1, serial)")
    fuzz.add_argument("--corpus", default="fuzz-corpus", metavar="DIR",
                      help="reproducer directory (default: fuzz-corpus)")
    fuzz.add_argument("--corpus-only", action="store_true",
                      help="replay stored reproducers instead of "
                           "generating new seeds (regression mode)")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      metavar="S",
                      help="stop scheduling new seeds after S seconds")
    fuzz.add_argument("--arch", choices=("sparc", "mips"), default=None,
                      help="restrict generation to one architecture "
                           "(default: per-seed choice)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="store unshrunk reproducers (faster triage)")
    fuzz.add_argument("--events", default=None, metavar="PATH",
                      help="append per-seed classification events "
                           "(repro.events/1 JSONL) to PATH")
    meta_group = fuzz.add_mutually_exclusive_group()
    meta_group.add_argument("--emit-meta", action="store_true",
                            help="attach ground-truth .eel.meta tables "
                                 "derived from each plan's manifest and "
                                 "analyze with trust on")
    meta_group.add_argument("--corrupt-meta", action="store_true",
                            help="metadata adversary: attach a table with "
                                 "one seeded lie per seed; every seed must "
                                 "be rejected or caught downstream")
    _add_obs_flags(fuzz)
    fuzz.set_defaults(func=_cmd_fuzz)

    serve = sub.add_parser("serve",
                           help="run the edit-serving daemon (foreground; "
                                "SIGTERM drains gracefully)")
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="unix socket to listen on "
                            "(default: $REPRO_SERVE_SOCKET or a per-user "
                            "path under the temp dir)")
    serve.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker threads (default: $REPRO_SERVE_JOBS "
                            "or 2)")
    serve.add_argument("--queue", type=int, default=None, metavar="N",
                       help="admission-queue bound; full means "
                            "reject-with-retry-after (default: "
                            "$REPRO_SERVE_QUEUE or 32)")
    serve.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-request timeout in seconds (default: "
                            "$REPRO_SERVE_TIMEOUT or 60)")
    serve.add_argument("--events", default=None, metavar="PATH",
                       help="append request/worker lifecycle events "
                            "(repro.events/1 JSONL) to PATH "
                            "(default: $REPRO_SERVE_EVENTS or off)")
    serve.add_argument("--shard-id", type=int, default=None, metavar="N",
                       help="fleet shard identity: stamped on responses, "
                            "events, and spans (set by the fleet gateway; "
                            "default: standalone)")
    _add_obs_flags(serve)
    serve.set_defaults(func=_cmd_serve, obs_managed=True)

    fleet = sub.add_parser("fleet",
                           help="run the sharded serving fleet: one "
                                "gateway + N shard daemons (foreground)")
    fleet.add_argument("--address", default=None, metavar="ADDR",
                       help="gateway listen address: a unix socket path "
                            "or tcp://host:port (default: "
                            "$REPRO_FLEET_ADDRESS or a per-user path)")
    fleet.add_argument("--shards", type=int, default=None, metavar="N",
                       help="shard daemon processes "
                            "(default: $REPRO_FLEET_SHARDS or 2)")
    fleet.add_argument("--dir", default=None, metavar="DIR",
                       help="run directory for shard sockets and event "
                            "logs (default: $REPRO_FLEET_DIR or a "
                            "per-pid temp dir)")
    fleet.add_argument("--shard-jobs", type=int, default=None, metavar="N",
                       help="worker threads per shard (default: "
                            "$REPRO_FLEET_SHARD_JOBS or 2)")
    fleet.add_argument("--queue", type=int, default=None, metavar="N",
                       help="gateway admission-queue bound (default: "
                            "$REPRO_FLEET_QUEUE or 256)")
    fleet.add_argument("--forwarders", type=int, default=None, metavar="N",
                       help="concurrent forwarding threads (default: "
                            "$REPRO_FLEET_FORWARDERS or 8)")
    fleet.add_argument("--starvation-limit", type=int, default=None,
                       metavar="K",
                       help="dispatch one bulk request after K "
                            "consecutive interactive ones while bulk "
                            "waits (default: $REPRO_FLEET_STARVATION "
                            "or 8)")
    fleet.add_argument("--events", default=None, metavar="PATH",
                       help="gateway event log; shards get derived logs "
                            "under --dir (default: $REPRO_FLEET_EVENTS "
                            "or off)")
    _add_obs_flags(fleet)
    fleet.set_defaults(func=_cmd_fleet, obs_managed=True)

    client = sub.add_parser("client",
                            help="send one request to a running daemon")
    client.add_argument("op", choices=("ping", "run", "routines", "disasm",
                                       "instrument", "verify", "stats",
                                       "top", "shutdown", "hot_restart"))
    client.add_argument("--socket", default=None, metavar="PATH")
    client.add_argument("--workload", default=None)
    client.add_argument("--image", default=None, metavar="PATH",
                        help="send this .eelf file as the request image")
    client.add_argument("--tool", choices=tool_names(), default="qpt")
    client.add_argument("--mode", choices=MODES, default="edge")
    client.add_argument("--run", action="store_true",
                        help="run the edited image after instrumenting")
    client.add_argument("--shard", type=int, default=None, metavar="N",
                        help="hot_restart one fleet shard instead of a "
                             "rolling restart of all of them")
    client.add_argument("--stdin", default="")
    client.add_argument("--timeout", type=float, default=120.0,
                        help="client-side I/O timeout (seconds)")
    client.add_argument("--retries", type=int, default=5,
                        help="max retries of answers that carry a "
                             "retry_after hint")
    client.set_defaults(func=_cmd_client)

    trace = sub.add_parser("trace",
                           help="reconstruct request span trees from a "
                                "repro.events JSONL log")
    trace.add_argument("events", metavar="EVENTS.jsonl",
                       help="event log written by serve/fuzz --events")
    trace.add_argument("--id", default=None, metavar="TRACE",
                       help="show one trace in full (id or unique prefix) "
                            "instead of the summary")
    trace.set_defaults(func=_cmd_trace, obs_managed=True)

    top = sub.add_parser("top",
                         help="live introspection of a running daemon "
                              "(counters, worker states, latency)")
    top.add_argument("--socket", default=None, metavar="PATH")
    top.add_argument("--watch", type=float, default=None, metavar="N",
                     help="refresh every N seconds (incremental counter "
                          "deltas) until interrupted")
    top.set_defaults(func=_cmd_top, obs_managed=True)

    export = sub.add_parser("export",
                            help="Prometheus text-format metrics from a "
                                 "stats report or a running daemon")
    export.add_argument("--stats-json", default=None, metavar="PATH",
                        help="read the repro.obs report from PATH instead "
                             "of asking a daemon")
    export.add_argument("--socket", default=None, metavar="PATH")
    export.set_defaults(func=_cmd_export, obs_managed=True)

    args = parser.parse_args(argv)
    _apply_trust_flag(args)
    if getattr(args, "obs_managed", False):
        return args.func(args)
    enabled = _obs_begin(args)
    try:
        return args.func(args)
    finally:
        _obs_end(args, enabled)


if __name__ == "__main__":
    sys.exit(main())
