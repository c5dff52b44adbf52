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

from repro.core import Executable
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span
from repro.tools.common import CounterArray, counter_snippet, routine_filter

_UNEDITABLE_WEIGHT = 1 << 30

_C_COUNTERS = _metrics.counter("qpt.counters_placed")
_C_SKIPPED = _metrics.counter("qpt.uninstrumentable_edges")


class RoutineProfile:
    """Instrumentation record for one routine (edge mode)."""

    def __init__(self, routine):
        self.routine = routine
        self.edges = []  # all CFG edges (stable order)
        self.measured = {}  # edge position -> counter index
        self.tree = set()  # edge positions on the spanning tree
        self.blocks = []  # block ids and start addrs
        self.virtual_edge = None  # (exit id, entry id) circulation edge


class QptProfiler:
    """Instrument a program for profiling; reconstruct counts after a run."""

    def __init__(self, image_or_path, mode="edge", only_routines=None):
        if mode not in ("edge", "block"):
            raise ValueError("mode must be 'edge' or 'block'")
        self.mode = mode
        self.exec = Executable(image_or_path)
        self.exec.read_contents()
        self.only = routine_filter(self.exec, only_routines)
        self.counters = CounterArray(self.exec, "__qpt_counts", 16384)
        self.profiles = {}  # routine name -> RoutineProfile
        self.block_counters = {}  # (routine, block start) -> counter index

    def _selected(self, routine):
        return self.only is None or routine.name in self.only

    # ------------------------------------------------------------------
    def run(self):
        with _span("qpt.instrument", mode=self.mode) as sp:
            for routine in self.exec.routines():
                if self._selected(routine):
                    self._instrument(routine)
            hidden = self.exec.hidden_routines()
            while not hidden.is_empty():
                routine = hidden.first()
                hidden.remove(routine)
                if self._selected(routine):
                    self._instrument(routine)
                self.exec.routines().add(routine)
            sp.set(counters=self.counters.used)
        _C_COUNTERS.inc(self.counters.used)
        return self

    def _instrument(self, routine):
        if routine.control_flow_graph().cti_in_slot:
            # Paper §3.1: a branch occupying a delay slot cannot be
            # edited — leave the routine in place, unprofiled.
            routine.delete_control_flow_graph()
            return
        if self.mode == "block":
            self._instrument_blocks(routine)
        else:
            self._instrument_edges(routine)
        routine.produce_edited_routine()
        routine.delete_control_flow_graph()

    def _instrument_blocks(self, routine):
        cfg = routine.control_flow_graph()
        for block in cfg.normal_blocks():
            index = self.counters.allocate((routine.name, block.start))
            self.block_counters[(routine.name, block.start)] = index
            block.add_code_before(
                0, counter_snippet(self.exec, self.counters.address(index),
                                   tag=("qpt.block", routine.name,
                                        block.start))
            )

    # -- edge mode ---------------------------------------------------------
    def _instrument_edges(self, routine):
        cfg = routine.control_flow_graph()
        profile = RoutineProfile(routine)
        profile.blocks = [(b.id, b.start, b.kind) for b in cfg.blocks]
        edges = cfg.all_edges()
        profile.edges = edges
        profile.virtual_edge = (cfg.exit.id, cfg.entry.id)

        tree = self._spanning_tree(cfg, edges)
        profile.tree = tree
        for position, edge in enumerate(edges):
            if position in tree:
                continue
            if not edge.editable:
                # Cannot instrument and not on the tree: counts for this
                # routine cannot be fully reconstructed; fall back to
                # counting what we can.
                _C_SKIPPED.inc()
                continue
            index = self.counters.allocate(
                (routine.name, edge.src.id, edge.dst.id)
            )
            profile.measured[position] = index
            edge.add_code_along(
                counter_snippet(self.exec, self.counters.address(index),
                                tag=("qpt.edge", routine.name,
                                     edge.src.id, edge.dst.id))
            )
        self.profiles[routine.name] = profile

    def _spanning_tree(self, cfg, edges):
        """Maximum spanning tree (undirected) over block ids.

        Uneditable edges get maximal weight so they always join the tree;
        the virtual exit->entry circulation edge is implicitly on the
        tree (it is never a real edge).
        """
        parent = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra == rb:
                return False
            parent[ra] = rb
            return True

        # The virtual edge joins exit and entry first.
        union(cfg.exit.id, cfg.entry.id)
        weighted = sorted(
            range(len(edges)),
            key=lambda pos: -( _UNEDITABLE_WEIGHT if not edges[pos].editable
                               else self._edge_weight(edges[pos])),
        )
        tree = set()
        for position in weighted:
            edge = edges[position]
            if union(edge.src.id, edge.dst.id):
                tree.add(position)
        return tree

    @staticmethod
    def _edge_weight(edge):
        # Static heuristic: prefer keeping fall-through edges uncounted.
        return {"fall": 4, "creturn": 3, "uncond": 2}.get(edge.kind, 1)

    # ------------------------------------------------------------------
    def edited_image(self):
        image = self.exec.edited_image()
        image.entry = self.exec.edited_addr(self.exec.start_address())
        return image

    def write(self, path):
        entry = self.exec.edited_addr(self.exec.start_address())
        return self.exec.write_edited_executable(path, entry)

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
            for block_id, start, kind in profile.blocks:
                if kind != "normal" or start is None:
                    continue
                total = sum(
                    flow for (src, dst), flow in edge_flow.items()
                    if dst == block_id
                )
                counts[(name, start)] = total
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
