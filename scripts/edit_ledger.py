#!/usr/bin/env python
"""Work ledger of the edit pipeline: calls per steady-state edit, by layer.

A wall-clock figure on a shared machine moves with the neighbours'
load; the work an edit does does not.  This script counts it.  It
prepares the inputs of one perfbench workload exactly as
``perfbench/run.py`` does, edits every input once to warm the
process's caches, then edits every input once more with a
``sys.setprofile`` hook installed and counts, per edit:

* the Python function calls and the C function calls made inside each
  layer of ``perfbench/layers.py`` -- a call counts against the layer
  whose entry point is innermost on the stack when it is made (the
  entry point's own call counts against the layer it enters), and a
  call outside every layer against ``unattributed``, the benchmark's
  glue;
* the objects the cyclic collector reclaims after the edit (the
  collector is off during the edit, so it cannot run inside it).

The edit is perfbench's: read the image, instrument it with qpt, write
the result.  The counts are deterministic -- the same in every process,
under every hash seed -- so two ledgers differ only when the program's
work does.

Usage, from the repository root:

    python3 scripts/edit_ledger.py --workload warm --seed 3
    python3 scripts/edit_ledger.py --workload cold --seed 3 --json \
        --only fib --only mips_fib

``--only`` restricts the ledger to the named inputs (the others are
still built, as perfbench's set-up builds them all); ``--json`` prints
the ledger as one JSON object instead of a table.
"""

import argparse
import gc
import importlib
import json
import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PERFBENCH = os.path.join(ROOT, "perfbench")


def _layer_entry_points(layers):
    """Code object of every layer entry point -> its layer."""
    entries = {}
    for layer, targets in layers.LAYERS.items():
        for target in targets:
            module_name, _, path = target.partition(":")
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            func = getattr(module, owner_name).__dict__[attr] \
                if owner_name else getattr(module, attr)
            entries[func.__code__] = layer
    return entries


class CallCounter:
    """A ``sys.setprofile`` hook that counts calls by innermost layer."""

    def __init__(self, entries, layer_names):
        self.entries = entries
        self.python = dict.fromkeys(layer_names, 0)
        self.c = dict.fromkeys(layer_names, 0)
        self.outer = layer_names[-1]
        self._stack = []  # [(layer, frame of its entry point)]

    def hook(self, frame, event, arg):
        if event == "call":
            layer = self.entries.get(frame.f_code)
            if layer is not None:
                self._stack.append((layer, frame))
            else:
                layer = self._stack[-1][0] if self._stack else self.outer
            self.python[layer] += 1
        elif event == "c_call":
            self.c[self._stack[-1][0] if self._stack else self.outer] += 1
        elif event == "return" and self._stack \
                and self._stack[-1][1] is frame:
            self._stack.pop()


def ledger(workload, seed, only=None):
    """{layer: {"python", "c", "calls"}} per steady-state edit, plus
    ``gc_reclaimed`` and ``edits``, for *workload* at *seed*."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, PERFBENCH)
    layers = importlib.import_module("layers")
    perfbench = importlib.import_module("run")

    cache_mode, with_meta = perfbench.WORKLOADS[workload]
    os.environ["REPRO_CACHE"] = cache_mode
    os.environ["REPRO_TRUST_META"] = "on"
    os.environ.pop("REPRO_SIM_ENGINE", None)
    scratch = tempfile.mkdtemp(prefix="edit-ledger-")
    try:
        _, inputs = perfbench._set_up(seed, with_meta,
                                      os.path.join(scratch, "setup"))
        paths = [path for name, path, _ in inputs
                 if only is None or name in only]
        if not paths:
            raise SystemExit("edit_ledger: no input named %s"
                             % ", ".join(sorted(only)))
        out_path = os.path.join(scratch, "edited.eelf")
        for path in paths:
            perfbench._edit(path, out_path, False)
        names = list(layers.LAYERS) + [layers.UNATTRIBUTED]
        counter = CallCounter(_layer_entry_points(layers), names)
        reclaimed = 0
        for path in paths:
            gc.collect()
            gc.disable()
            sys.setprofile(counter.hook)
            try:
                perfbench._edit(path, out_path, False)
            finally:
                sys.setprofile(None)
                gc.enable()
            reclaimed += gc.collect()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    edits = len(paths)
    result = {name: {"python": counter.python[name] / edits,
                     "c": counter.c[name] / edits,
                     "calls": (counter.python[name]
                               + counter.c[name]) / edits}
              for name in names}
    result["gc_reclaimed"] = reclaimed / edits
    result["edits"] = edits
    return result


def render(result, title):
    lines = [title,
             "%-14s %10s %10s %10s" % ("layer", "python", "c", "calls")]
    total = {"python": 0.0, "c": 0.0, "calls": 0.0}
    for name, counts in result.items():
        if not isinstance(counts, dict):
            continue
        lines.append("%-14s %10.1f %10.1f %10.1f"
                     % (name, counts["python"], counts["c"],
                        counts["calls"]))
        for key in total:
            total[key] += counts[key]
    lines.append("%-14s %10.1f %10.1f %10.1f"
                 % ("total", total["python"], total["c"], total["calls"]))
    lines.append("gc_reclaimed   %10.1f objects per edit over %d edits"
                 % (result["gc_reclaimed"], result["edits"]))
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("cold", "trusted", "warm"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--only", action="append", default=None,
                        metavar="NAME", help="count only this input "
                        "(repeatable)")
    parser.add_argument("--json", action="store_true",
                        help="print the ledger as one JSON object")
    args = parser.parse_args(argv)
    result = ledger(args.workload, args.seed,
                    None if args.only is None else set(args.only))
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        print(render(result, "calls per steady-state edit, workload %s, "
                     "seed %d" % (args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
