"""qpt2: the EEL-based profiler (paper sections 1, 3.3, and 5).

Two profiling modes:

* **block** — a counter at the head of every normal basic block;
* **edge** — Ball-Larus optimal placement: counters only on edges *off*
  a maximum spanning tree of the CFG; the remaining edge counts are
  reconstructed by flow conservation afterwards.  Uneditable edges are
  forced onto the spanning tree (they cannot be instrumented), which is
  exactly why EEL builds CFGs for profiling (paper section 3.3).

Reconstruction yields per-edge and per-block execution counts that the
test suite compares against simulator ground truth.
"""

from itertools import compress

from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span
from repro.tools import MODES
from repro.tools.common import CounterArray, RoutineEditor, counter_snippet

_UNEDITABLE_WEIGHT = 1 << 30
# Static heuristic by edge kind: prefer keeping fall-through edges
# uncounted.  Any other kind weighs 1.
_EDGE_WEIGHT = {"fall": 4, "creturn": 3, "uncond": 2}

_C_COUNTERS = _metrics.counter("qpt.counters_placed")
_C_SKIPPED = _metrics.counter("qpt.uninstrumentable_edges")


class RoutineProfile:
    """Instrumentation record for one routine (edge mode)."""

    def __init__(self, routine):
        self.routine = routine
        self.edges = []  # all CFG edges (stable order)
        self.measured = {}  # edge position -> counter index
        self.tree = set()  # edge positions on the spanning tree
        self.blocks = []  # the CFG's blocks (kept alive by the edges)
        self.virtual_edge = None  # (exit id, entry id) circulation edge


class QptProfiler(RoutineEditor):
    """Instrument a program for profiling; reconstruct counts after a run."""

    def __init__(self, image_or_path, mode="edge", only_routines=None):
        if mode not in MODES:
            raise ValueError("mode must be 'edge' or 'block'")
        self.mode = mode
        super().__init__(image_or_path, only_routines)
        self.counters = CounterArray(self.exec, "__qpt_counts", 16384)
        self.profiles = {}  # routine name -> RoutineProfile
        self.block_counters = {}  # (routine, block start) -> counter index

    # ------------------------------------------------------------------
    def instrument(self):
        with _span("qpt.instrument", mode=self.mode) as sp:
            super().instrument()
            sp.set(counters=self.counters.used)
        _C_COUNTERS.inc(self.counters.used)
        return self

    run = instrument

    def edit_cfg(self, routine, cfg):
        if self.mode == "block":
            self._instrument_blocks(routine, cfg)
        else:
            self._instrument_edges(routine, cfg)

    def _instrument_blocks(self, routine, cfg):
        for block in cfg.normal_blocks():
            index = self.counters.allocate((routine.name, block.start))
            self.block_counters[(routine.name, block.start)] = index
            block.add_code_before(
                0, counter_snippet(self.exec, self.counters.address(index),
                                   tag=("qpt.block", routine.name,
                                        block.start))
            )

    # -- edge mode ---------------------------------------------------------
    def _instrument_edges(self, routine, cfg):
        profile = RoutineProfile(routine)
        profile.blocks = cfg.blocks
        edges = cfg.all_edges()
        profile.edges = edges
        profile.virtual_edge = (cfg.exit.id, cfg.entry.id)

        on_tree = _spanning_tree(cfg, edges)
        profile.tree = set(compress(range(len(edges)), on_tree))
        counters = self.counters
        for position, edge in enumerate(edges):
            if on_tree[position]:
                continue
            if not edge.editable:
                # Cannot instrument and not on the tree: counts for this
                # routine cannot be fully reconstructed; fall back to
                # counting what we can.
                _C_SKIPPED.inc()
                continue
            src, dst = edge.src.id, edge.dst.id
            index = counters.allocate((routine.name, src, dst))
            profile.measured[position] = index
            edge.add_code_along(
                counter_snippet(self.exec, counters.address(index),
                                tag=("qpt.edge", routine.name, src, dst))
            )
        self.profiles[routine.name] = profile

    # ------------------------------------------------------------------
    # Count reconstruction (edge mode)
    # ------------------------------------------------------------------
    def block_counts(self, simulator):
        """{(routine name, block start): executions} after a run."""
        values = self.counters.read(simulator)
        if self.mode == "block":
            return {
                key: values[index]
                for key, index in self.block_counters.items()
            }
        counts = {}
        for name, profile in self.profiles.items():
            edge_flow = self._reconstruct(profile, values)
            if edge_flow is None:
                continue
            for block in profile.blocks:
                if block.kind != "normal" or block.start is None:
                    continue
                total = sum(
                    flow for (src, dst), flow in edge_flow.items()
                    if dst == block.id
                )
                counts[(name, block.start)] = total
        return counts

    def edge_counts(self, simulator):
        """{(routine, src block id, dst block id): count} after a run."""
        values = self.counters.read(simulator)
        out = {}
        for name, profile in self.profiles.items():
            edge_flow = self._reconstruct(profile, values)
            if edge_flow is None:
                continue
            for (src, dst), flow in edge_flow.items():
                out[(name, src, dst)] = flow
        return out

    def _reconstruct(self, profile, values):
        """Solve tree-edge flows by conservation at each vertex."""
        flows = {}  # (src id, dst id) keyed by edge position
        unknown = []
        incident = {}
        for position, edge in enumerate(profile.edges):
            key = (edge.src.id, edge.dst.id, position)
            if position in profile.measured:
                flows[key] = values[profile.measured[position]]
            elif position in profile.tree:
                flows[key] = None
                unknown.append(key)
            else:
                # Uninstrumentable off-tree edge: reconstruction impossible.
                return None
        # Virtual circulation edge exit->entry, always on the tree.
        virtual = (profile.virtual_edge[0], profile.virtual_edge[1], -1)
        flows[virtual] = None
        unknown.append(virtual)

        for key in flows:
            src, dst, _ = key
            incident.setdefault(src, []).append(key)
            incident.setdefault(dst, []).append(key)

        # Leaf elimination over the conservation equations.
        pending = set(unknown)
        progress = True
        while pending and progress:
            progress = False
            for vertex, keys in incident.items():
                unknown_here = [k for k in keys if flows[k] is None]
                if len(unknown_here) != 1:
                    continue
                missing = unknown_here[0]
                inflow = sum(flows[k] for k in keys
                             if k[1] == vertex and flows[k] is not None)
                outflow = sum(flows[k] for k in keys
                              if k[0] == vertex and flows[k] is not None)
                if missing[1] == vertex:  # missing edge flows in
                    flows[missing] = outflow - inflow
                else:
                    flows[missing] = inflow - outflow
                pending.discard(missing)
                progress = True
        if pending:
            return None
        result = {}
        for (src, dst, position), flow in flows.items():
            if position == -1:
                continue
            result[(src, dst)] = result.get((src, dst), 0) + flow
        return result


def profile(image, mode="edge", stdin_text=""):
    """Convenience: instrument, run, and return (tool, simulator)."""
    from repro.sim import run_image

    tool = QptProfiler(image, mode=mode).run()
    simulator = run_image(tool.edited_image(), stdin_text=stdin_text)
    return tool, simulator


def _spanning_tree(cfg, edges):
    """Per edge position, whether the edge is on a maximum spanning tree
    (undirected) over the block ids -- Kruskal over integer lists.

    Uneditable edges get maximal weight so they always join the tree;
    the virtual exit->entry circulation edge is implicitly on the tree
    (it is never a real edge).
    """
    parent = list(range(len(cfg.blocks)))
    # The virtual edge joins exit and entry first.
    parent[cfg.exit.id] = cfg.entry.id
    weights = [-_EDGE_WEIGHT.get(edge.kind, 1) if edge.editable
               else -_UNEDITABLE_WEIGHT for edge in edges]
    order = sorted(range(len(edges)), key=weights.__getitem__)
    on_tree = [False] * len(edges)
    for position in order:
        edge = edges[position]
        a = edge.src.id
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        b = edge.dst.id
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b
            on_tree[position] = True
    return on_tree
