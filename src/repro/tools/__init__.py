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

Every tool but ``qpt_classic`` (which does not edit through
:class:`~repro.core.Executable`) edits through the shared loop of
:mod:`repro.tools.common` and has one entry in :data:`REGISTRY`: its
name, the architectures it edits, a factory ``(image, mode,
only_routines) -> tool`` returning the finished edit, and a host hook
``(tool, simulator) -> state`` that installs the tool's host-side
runtime on a simulator of the edited image (None when it needs none).
:func:`instrument_image`, ``repro verify``, the fuzz campaign, the
serve ``instrument`` and ``verify`` ops and the CLI's ``--tool``
choices all read that one table.
"""

import collections
import functools

EditSession = collections.namedtuple(
    "EditSession", "executable edited_image configure_edited tool name")

ToolEntry = collections.namedtuple("ToolEntry", "name arches factory host")

MODES = ("edge", "block")  # qpt's profiling modes

_BOTH = ("sparc", "mips")
_SPARC = ("sparc",)


# Factories import their tool on first use, so that importing
# repro.tools stays cheap for callers that never edit.
def _qpt(image, mode, only_routines):
    from repro.tools.qpt import QptProfiler

    return QptProfiler(image, mode=mode, only_routines=only_routines).run()


def _sfi(image, mode, only_routines):
    from repro.tools.sfi import Sandboxer

    return Sandboxer(image, only_routines=only_routines).instrument()


def _elsie(image, mode, only_routines):
    from repro.tools.elsie import ElsieSimulatorBuilder

    return ElsieSimulatorBuilder(
        image, only_routines=only_routines).instrument()


def _active_memory(image, mode, only_routines):
    from repro.tools.active_memory import ActiveMemory

    return ActiveMemory(image, only_routines=only_routines).instrument()


def _blizzard(image, mode, only_routines):
    from repro.tools.blizzard import BlizzardAccessControl

    return BlizzardAccessControl(
        image, only_routines=only_routines).instrument()


def _branch_count(image, mode, only_routines):
    from repro.tools.branch_count import BranchCounter

    return BranchCounter(image, only_routines=only_routines).run()


def _host_runtime(tool, simulator):
    """Elsie's memory traps, Active Memory's cache handler, Blizzard-S's
    protocol stand-in: what the tool's own ``run`` installs."""
    return tool.configure_simulator(simulator)


# qpt, sfi and elsie come first: the fuzz campaign edits in this order
# and reports the first tool whose edit fails.
REGISTRY = {entry.name: entry for entry in (
    ToolEntry("qpt", _BOTH, _qpt, None),
    ToolEntry("sfi", _SPARC, _sfi, None),
    ToolEntry("elsie", _SPARC, _elsie, _host_runtime),
    ToolEntry("active_memory", _SPARC, _active_memory, _host_runtime),
    ToolEntry("blizzard", _SPARC, _blizzard, _host_runtime),
    ToolEntry("branch_count", _BOTH, _branch_count, None),
)}


def tool_names(arch=None):
    """Registered tool names (stable order); with *arch*, those that
    edit images of that architecture."""
    return tuple(name for name, entry in REGISTRY.items()
                 if arch is None or arch in entry.arches)


def check_tool(tool, arch, mode="edge"):
    """The registry entry for *tool*, once *tool* is known, edits *arch*
    images and *mode* is valid; otherwise ``ValueError`` says which."""
    entry = REGISTRY.get(tool)
    if entry is None:
        raise ValueError("unknown tool %r (have: %s)"
                         % (tool, ", ".join(REGISTRY)))
    if arch not in entry.arches:
        raise ValueError("tool %r supports only %s images"
                         % (tool, " and ".join(entry.arches)))
    if mode not in MODES:
        raise ValueError("mode must be 'edge' or 'block'")
    return entry


def instrument_image(image, tool, mode="edge", only_routines=None):
    """Instrument *image* with the tool named *tool*.

    The single dispatch point for "edit this image with that tool":
    returns an :class:`EditSession` whose ``executable`` is the
    finished editing session, ``edited_image`` the rewritten image,
    ``configure_edited`` the entry's host hook bound to the tool (or
    None), preparing a simulator with the tool's host-side runtime
    state, and ``tool`` the tool instance itself (for tool-specific
    post-run queries such as qpt's count reconstruction).

    *only_routines* restricts the edit to the named routines (the rest
    stay in place, uninstrumented); a name missing from the image
    raises ``ValueError``.  With a warm analysis cache, a restricted
    edit touches only those routines' analyses.
    """
    entry = check_tool(tool, image.arch, mode)
    edit = entry.factory(image, mode, only_routines)
    configure = None if entry.host is None \
        else functools.partial(entry.host, edit)
    return EditSession(edit.exec, edit.edited_image(), configure, edit,
                       tool)
