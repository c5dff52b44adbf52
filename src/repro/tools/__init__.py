"""Tools built on EEL: the applications from the paper's sections 1 and 5.

* :mod:`repro.tools.branch_count` — the Figures 1-2 branch-counting tool;
* :mod:`repro.tools.qpt` — qpt2, the EEL-based profiler (Ball-Larus edge
  counting with spanning-tree placement);
* :mod:`repro.tools.qpt_classic` — the ad-hoc baseline profiler ("old
  qpt") used in the Table 1 comparison;
* :mod:`repro.tools.active_memory` — cache simulation by inserted
  access tests (Lebeck & Wood's Active Memory);
* :mod:`repro.tools.blizzard` — fine-grain access control for
  distributed shared memory (Blizzard-S);
* :mod:`repro.tools.sfi` — software fault isolation (sandboxing);
* :mod:`repro.tools.elsie` — a direct-execution simulator that replaces
  loads/stores with simulator calls.

Tools are also dispatchable by name through :func:`instrument_image`,
the registry surface shared by ``repro verify`` and the edit-serving
daemon (``repro serve``): both accept a tool name over their interface
and must resolve it to an edit session the same way.
"""

import collections

EditSession = collections.namedtuple(
    "EditSession", "executable edited_image configure_edited tool name")

# name -> (sparc_only, factory).  Factories are resolved lazily so that
# importing repro.tools stays cheap for callers that never edit.
_SPARC_ONLY = ("sfi", "elsie", "active_memory")


def tool_names():
    """Names accepted by :func:`instrument_image` (stable order)."""
    return ("qpt", "sfi", "elsie", "active_memory")


def instrument_image(image, tool, mode="edge", cache_size=8192,
                     only_routines=None):
    """Instrument *image* with the tool named *tool*.

    The single dispatch point for "edit this image with that tool":
    returns an :class:`EditSession` whose ``executable`` is the
    finished editing session, ``edited_image`` the rewritten image,
    ``configure_edited`` an optional hook preparing a simulator with
    the tool's host-side runtime state, and ``tool`` the tool instance
    itself (for tool-specific post-run queries such as qpt's count
    reconstruction).

    *only_routines* restricts the edit to the named routines (the rest
    stay in place, uninstrumented); a name missing from the image
    raises ``ValueError``.  With a warm analysis cache, a restricted
    edit touches only those routines' analyses.
    """
    if tool not in tool_names():
        raise ValueError("unknown tool %r (have: %s)"
                         % (tool, ", ".join(tool_names())))
    if tool in _SPARC_ONLY and image.arch != "sparc":
        raise ValueError("tool %r supports only sparc images" % tool)
    if tool == "qpt":
        from repro.tools.qpt import QptProfiler

        profiler = QptProfiler(image, mode=mode,
                               only_routines=only_routines).run()
        return EditSession(profiler.exec, profiler.edited_image(), None,
                           profiler, tool)
    if tool == "sfi":
        from repro.tools.sfi import Sandboxer

        sandboxer = Sandboxer(image, only_routines=only_routines)
        sandboxer.instrument()
        return EditSession(sandboxer.exec, sandboxer.edited_image(), None,
                           sandboxer, tool)
    if tool == "elsie":
        from repro.tools.elsie import ElsieSimulatorBuilder

        builder = ElsieSimulatorBuilder(image, only_routines=only_routines)
        builder.instrument()
        return EditSession(builder.exec, builder.edited_image(),
                           builder.configure_simulator, builder, tool)
    from repro.tools.active_memory import ActiveMemory

    memory = ActiveMemory(image, cache_size=cache_size,
                          only_routines=only_routines)
    memory.instrument()
    return EditSession(memory.exec, memory.edited_image(), None,
                       memory, tool)
