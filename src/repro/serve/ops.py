"""Request handlers: what the daemon can do, dispatched by op name.

Handlers take ``(server, params)`` and return a JSON-ready result
dict.  Client mistakes raise :class:`OpError` (mapped to an error
response without ``retry_after``, so no client retries it); a
handler's ``OSError`` (a cache-directory race, a filesystem flake)
becomes ``internal`` *with* ``retry_after``, because a fresh attempt
usually lands.  :class:`WorkerDeath` kills the executing worker thread
— the contract of the restart/degradation path, so a genuinely fatal
handler bug takes out one worker rather than wedging it.

Requests reference executables either by ``workload`` name (built
through the in-process corpus, warm after first use) or by ``image``
— a base64 serialized image.  Either way the daemon coalesces
concurrent analyses of the same *content*: requests racing on one
content hash produce a single cold analysis, and the losers restore
from the warm summary it leaves behind.
"""

import base64

from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span
from repro.serve.protocol import (
    E_BAD_REQUEST,
    E_INTERNAL,
    E_UNKNOWN_OP,
    PROTOCOL,
)

_C_COALESCED = _metrics.counter("serve.coalesced")


class OpError(Exception):
    """Client-visible request failure; retried only with *retry_after*."""

    def __init__(self, code, message, retry_after=None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.retry_after = retry_after


class WorkerDeath(Exception):
    """Kills the executing worker thread (restart/degrade path)."""


# ----------------------------------------------------------------------
# Request inputs
# ----------------------------------------------------------------------

def _workload_image(name):
    from repro.verify import workload_image

    try:
        return workload_image(name)
    except ValueError as error:
        raise OpError(E_BAD_REQUEST, str(error))


def _checked_tool(params, arch):
    """The request's ``(tool, mode)``, once the tool registry accepts
    them for an *arch* image: the one check the ``instrument`` and
    ``verify`` ops both run before any work."""
    from repro.tools import check_tool

    tool = params.get("tool", "qpt")
    mode = params.get("mode", "edge")
    try:
        check_tool(tool, arch, mode)
    except ValueError as error:
        raise OpError(E_BAD_REQUEST, str(error))
    return tool, mode


def _resolve_image(server, params):
    """The Image a request names, via workload or inline base64.

    Workload names are noted on the server as warm keys: they are the
    handoff snapshot a hot-restart replacement pre-analyzes (inline
    images are not — re-shipping megabytes of base64 through a restart
    would cost more than the cold analysis it saves).
    """
    name = params.get("workload")
    if name is not None:
        image = _workload_image(name)
        server.note_warm(name)
        return image
    blob = params.get("image")
    if blob is not None:
        from repro.binfmt.serialize import FormatError, image_from_bytes

        try:
            return image_from_bytes(base64.b64decode(blob, validate=True))
        except (ValueError, FormatError) as error:
            raise OpError(E_BAD_REQUEST, "bad image payload: %s" % error)
    raise OpError(E_BAD_REQUEST, "request needs 'workload' or 'image'")


def _analyzed(server, image):
    """An analyzed Executable for *image*, coalescing cold analyses.

    The leader for a content hash performs the one real analysis
    (which also populates the cache's in-memory warm layer); every
    concurrent loser waits, then restores from the warm summary into
    its own private Executable — requests never share mutable
    analysis state.
    """
    from repro.cache import image_cache_key
    from repro.core import Executable

    key = image_cache_key(image)
    return server.coalesce("analysis:" + key,
                           lambda: Executable(image).read_contents())


def _encode_image(image):
    from repro.binfmt.serialize import image_to_bytes

    return base64.b64encode(image_to_bytes(image)).decode("ascii")


# ----------------------------------------------------------------------
# Handlers
# ----------------------------------------------------------------------

def _op_ping(server, params):
    import os

    result = {"pong": True, "protocol": PROTOCOL, "pid": os.getpid()}
    if server.config.shard_id is not None:
        result["shard"] = server.config.shard_id
    return result


def _op_routines(server, params):
    exe = _analyzed(server, _resolve_image(server, params))
    rows = []
    for routine in sorted(exe.all_routines(), key=lambda r: r.start):
        cfg = routine.control_flow_graph()
        rows.append({
            "name": routine.name,
            "start": routine.start,
            "end": routine.end,
            "hidden": routine.hidden,
            "blocks": len(cfg.blocks),
            "edges": len(cfg.all_edges()),
        })
    return {"routines": rows}


def _op_disasm(server, params):
    from repro.asm.disassembler import disassemble_section

    image = _resolve_image(server, params)
    annotations = {}
    try:
        exe = _analyzed(server, image)
        for routine in exe.all_routines():
            annotations[routine.start] = "; routine %s%s" % (
                routine.name, " (hidden)" if routine.hidden else "")
    except Exception:
        annotations = {}  # disassembly survives unanalyzable images
    lines = []
    for name, section in image.sections.items():
        if section.is_exec:
            lines.append("section %s @ 0x%x" % (name, section.vaddr))
            lines.extend(disassemble_section(image, name,
                                             annotations=annotations))
    return {"lines": lines}


def _run_simulation(image, params, configure=None):
    from repro.sim.machine import SimulationError, Simulator

    simulator = Simulator(image, stdin_text=params.get("stdin", ""),
                          max_steps=int(params.get("max_steps",
                                                   50_000_000)))
    if configure is not None:
        configure(simulator)
    try:
        simulator.run()
    except SimulationError as error:
        return {"output": simulator.output, "exit_code": None,
                "instructions": simulator.instructions_executed,
                "simulation_error": str(error)}
    return {"output": simulator.output, "exit_code": simulator.exit_code,
            "instructions": simulator.instructions_executed}


def _op_run(server, params):
    return _run_simulation(_resolve_image(server, params), params)


def _op_instrument(server, params):
    from repro.tools import instrument_image

    routines = params.get("routines")
    if routines is not None:
        if not isinstance(routines, list) \
                or not all(isinstance(r, str) for r in routines):
            raise OpError(E_BAD_REQUEST,
                          "'routines' must be a list of routine names")
    image = _resolve_image(server, params)
    tool, mode = _checked_tool(params, image.arch)
    _analyzed(server, image)  # coalesce the cold analysis across requests
    try:
        session = instrument_image(image, tool, mode=mode,
                                   only_routines=routines)
    except ValueError as error:
        raise OpError(E_BAD_REQUEST, str(error))
    result = {"tool": tool}
    if params.get("return_image", True):
        result["edited_image"] = _encode_image(session.edited_image)
    if params.get("run"):
        result["run"] = _run_simulation(session.edited_image, params,
                                        configure=session.configure_edited)
    return result


def _op_verify(server, params):
    from repro.verify import verify_workload

    name = params.get("workload")
    image = _workload_image(name)
    server.note_warm(name)
    tool, mode = _checked_tool(params, image.arch)

    # Identical concurrent verifies coalesce: the leader runs the full
    # lints+cosim pass (memoizing a clean verdict), losers re-check and
    # land on the warm verdict.
    def _verify():
        try:
            result = verify_workload(name, tool=tool, mode=mode,
                                     stdin_text=params.get("stdin", ""),
                                     use_memo=params.get("use_memo", True))
        except ValueError as error:
            raise OpError(E_BAD_REQUEST, str(error))
        return {"ok": result.ok, "memoized": result.memoized,
                "text": result.render()}

    return server.coalesce("verify:%s:%s:%s" % (name, tool, mode), _verify)


def _op_stats(server, params):
    """The server's report, narrowed to ``sections`` when given — the
    one check both the daemon and the fleet gateway apply."""
    report = server.build_report()
    sections = params.get("sections")
    if sections is not None:
        if not isinstance(sections, list) \
                or not all(isinstance(s, str) for s in sections):
            raise OpError(E_BAD_REQUEST,
                          "'sections' must be a list of section names")
        unknown = [s for s in sections if s not in report]
        if unknown:
            raise OpError(E_BAD_REQUEST,
                          "unknown report sections: %s (have: %s)"
                          % (", ".join(unknown),
                             ", ".join(sorted(report))))
        report = {key: report[key] for key in ("schema", *sections)}
    return {"report": report, "server": server.describe()}


def _op_top(server, params):
    """Live fleet introspection: incremental snapshot for ``repro top``."""
    cursor = params.get("cursor")
    if cursor is not None and not isinstance(cursor, int):
        raise OpError(E_BAD_REQUEST, "'cursor' must be an integer")
    return server.top_snapshot(cursor)


def _op_handoff(server, params):
    """Warm-state snapshot for a hot-restart replacement.

    Returns the workload names this daemon has analyzed recently (its
    warm key set, newest last).  A replacement shard pre-warms from
    this list via the ``warm`` op before the old process drains, so a
    rolling restart never serves cold.
    """
    return {"workloads": server.warm_workloads(),
            "shard": server.config.shard_id}


def _op_warm(server, params):
    """Pre-analyze a list of workloads (the hot-restart pre-warm path).

    Best-effort by design: a workload that fails to build or analyze
    is skipped rather than failing the whole warm-up — a replacement
    shard with a partial cache still beats a cold one.
    """
    names = params.get("workloads")
    if not isinstance(names, list) \
            or not all(isinstance(n, str) for n in names):
        raise OpError(E_BAD_REQUEST,
                      "'workloads' must be a list of workload names")
    warmed = 0
    skipped = 0
    for name in names:
        try:
            _analyzed(server, _workload_image(name))
            server.note_warm(name)
            warmed += 1
        except Exception:
            skipped += 1
    return {"warmed": warmed, "skipped": skipped}


HANDLERS = {
    "ping": _op_ping,
    "routines": _op_routines,
    "disasm": _op_disasm,
    "run": _op_run,
    "instrument": _op_instrument,
    "verify": _op_verify,
    "stats": _op_stats,
    "top": _op_top,
    "handoff": _op_handoff,
    "warm": _op_warm,
}


def dispatch(server, op, params):
    """Execute *op*; the worker's single entry point."""
    handler = HANDLERS.get(op)
    if handler is None:
        raise OpError(E_UNKNOWN_OP, "unknown op %r (have: %s)"
                      % (op, ", ".join(sorted(HANDLERS))))
    with _span("serve.op", op=op):
        try:
            return handler(server, params)
        except (OpError, WorkerDeath):
            raise
        except OSError as error:
            # Cache-directory races and other filesystem flakes are the
            # canonical transient class; a clean retry usually lands.
            raise OpError(E_INTERNAL, "transient I/O failure: %s" % error,
                          retry_after=server.config.retry_after_s)
        except Exception as error:
            raise OpError(E_INTERNAL, "%s: %s"
                          % (type(error).__name__, error))
