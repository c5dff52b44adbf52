"""Per-layer self time of the edit pipeline, measured from outside.

A traced run wraps the entry points of each pipeline layer -- module
functions and class methods of the program -- with a timer that keeps
a stack of open layer spans.  A layer's self time is the duration of
its spans minus the part covered by spans nested inside them, so the
self times of all layers plus the benchmark's own share add up to the
time of the edits.  The program itself is not changed, and an untraced
run installs no wrapper, so end-to-end figures carry no tracing cost.
"""

import functools
import importlib
import sys
import time

# Layer -> entry points, "module:function" or "module:Class.method".
# A layer entered from inside itself (the CFG build slicing an indirect
# jump) simply nests.  Refinement, metadata trust and cache restore are
# one layer, the way analysis state reaches the editor; the workloads
# tell them apart, so no layer reads zero on any workload.
LAYERS = {
    "read": ("repro.binfmt.serialize:read_image",),
    "analysis": (
        "repro.core.executable:Executable.read_contents",
        "repro.core.symtab_refine:refine_symbol_table",
        "repro.core.trust:attempt",
        "repro.cache:load_analysis",
        "repro.cache:store_analysis",
        "repro.core.facts.rules:assert_routines",
    ),
    "cfg": (
        "repro.core.cfg:CFG.__init__",
        "repro.core.analysis.indirect:analyze_indirect_jump",
    ),
    "liveness": ("repro.core.analysis.liveness:LivenessAnalysis.__init__",),
    "instrument": ("repro.tools:instrument_image",),
    "regalloc": ("repro.core.regalloc:allocate_snippet",),
    "layout": (
        "repro.core.layout:lay_out_routine",
        "repro.core.layout:finalize_image",
    ),
    "write": ("repro.binfmt.serialize:write_image",),
    "simulate": ("repro.sim.machine:Simulator.run",),
    "verify": ("repro.verify:verify_session",),
    "lints": ("repro.verify.lints:run_lints",),
    "cosim": ("repro.verify.cosim:CosimOracle.run",),
}

# Time inside an edit that no layer above claims: the benchmark's glue.
UNATTRIBUTED = "unattributed"


class LayerTimer:
    """Accumulates per-layer self time while its wrappers are installed."""

    def __init__(self):
        self.self_time = dict.fromkeys(list(LAYERS) + [UNATTRIBUTED], 0.0)
        self._stack = []  # [layer, start, time of nested spans]

    def _enter(self, layer):
        self._stack.append([layer, time.perf_counter(), 0.0])

    def _exit(self):
        layer, start, nested = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.self_time[layer] += elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed

    def timed(self, layer, func):
        """*func* wrapped in a span of *layer*."""
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            self._enter(layer)
            try:
                return func(*args, **kwargs)
            finally:
                self._exit()
        return wrapper

    def install(self):
        """Wrap every entry point in :data:`LAYERS`.

        A module function is rebound in every loaded ``repro`` module
        that holds it, under any name, so ``from x import f`` call
        sites are timed too.
        """
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, path = target.partition(":")
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    setattr(owner, attr,
                            self.timed(layer, owner.__dict__[attr]))
                    continue
                original = getattr(module, attr)
                wrapped = self.timed(layer, original)
                for loaded in list(sys.modules.values()):
                    if not getattr(loaded, "__name__", "").startswith(
                            "repro"):
                        continue
                    for name, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, name, wrapped)
