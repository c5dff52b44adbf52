"""Benchmark of the EEL edit pipeline, end to end and layer by layer.

The pipeline takes an executable image on disk to an instrumented
image that has been written, simulated and verified:

    read -> analysis (refinement, metadata trust or cache restore)
         -> CFG build (delay-slot hoisting, indirect-jump slicing)
         -> liveness -> qpt instrumentation -> register scavenging
         -> layout -> write -> simulate -> lints + cosim

The inputs are the workload corpus, built from source (15 minic
programs compiled for SPARC, 3 MIPS assembly programs), plus programs
from the fuzz generator drawn with ``--seed``; the seed also orders the
edits.  The three workloads differ only in how analysis state reaches
the editor, so each one exercises one entry path and bypasses the
other two:

* ``cold``    -- no metadata, analysis cache off: full refinement;
* ``trusted`` -- every image carries ``.eel.meta``: verify-and-trust;
* ``warm``    -- analysis cache filled during set-up: cache restore.

With ``--trace 0`` the run edits the inputs over and over, simulating
and verifying each input's first edit, and reports the end-to-end
metrics: ``edit_ms``, the latency from image on disk to instrumented
image on disk, as the geometric mean over the inputs of each input's
fastest edit, and ``setup_s``, the median of several set-ups (building
the inputs from source and preparing the workload's analysis state),
spread over the measured period.  The
fastest, not the median, edit: an edit's work is deterministic, and
on a shared machine other tenants slow it by up to half in bursts of
milliseconds to seconds; the fastest of many short edits estimates the
uncontended latency, where medians and long operations (a cosim run
takes up to 0.7 s) move with the neighbours' load.  For the same
reason each pass over the inputs first moves the run to the CPU that
runs a fixed loop fastest at that moment.  With ``--trace 1``
every edit is simulated and verified, every layer's entry points are
wrapped (``layers.py``), and the run reports each layer's self time
and the program's own work counters per edit.

Every edit is checked: analysis must have taken the workload's entry
path, and the edited image must be byte-identical to the input's
verified edit, whose program output and exit status equal those of the
original on the handwritten reference simulator and which passes
cosim.  Generated inputs are also checked against the generator's
ground-truth manifest.

Usage, from the repository root:

    python3 perfbench/run.py --workload cold --seed 1 --seconds 20 --trace 0

The program is imported from ``src/``; everything the run writes goes
to a scratch directory under ``perfbench/`` that is removed on exit.
"""

import argparse
import contextlib
import json
import math
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
import traceback

from layers import UNATTRIBUTED, LayerTimer

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# Generated inputs per run.  Few, so that the seed changes which
# programs are edited more than how much work they are: a generated
# program's edit cost varies 2x from seed to seed, which moves the
# geometric mean over the inputs.
GENERATED = 3
GEN_SHAPE = {"arch": "sparc", "min_routines": 10, "max_routines": 10}
# setup_s is the median of this many set-ups.
SETUPS = 5

# Workload -> (REPRO_CACHE, images carry .eel.meta).
WORKLOADS = {
    "cold": ("off", False),
    "trusted": ("off", True),
    "warm": ("on", False),
}

# Per-layer work counts: metric name -> the program's counter.
COUNTERS = {
    "cfg_builds": "cfg.builds",
    "cfgs_restored": "cache.restored_cfgs",
    "facts_derived": "facts.derived",
    "cache_hits": "cache.hits",
    "meta_trusted": "meta.trusted",
    "routines_laid_out": "layout.routines",
    "snippets_allocated": "regalloc.allocations",
    "counters_placed": "qpt.counters_placed",
    "insns_simulated": "sim.instructions",
    "blocks_compiled": "sim.blocks.compiles",
}


def _build_inputs(seed):
    """Every input as (name, image, manifest or None), built from source."""
    from repro.asm import assemble
    from repro.binfmt import link
    from repro.fuzz.gen import GenConfig, generate
    from repro.minic import compile_to_image
    from repro.minic.runtime import MIPS_CRT0
    from repro.workloads.mips_programs import MIPS_PROGRAMS
    from repro.workloads.programs import PROGRAMS

    inputs = [(name, compile_to_image(PROGRAMS[name]), None)
              for name in sorted(PROGRAMS)]
    for name in sorted(MIPS_PROGRAMS):
        image = link([assemble(MIPS_CRT0, "mips"),
                      assemble(MIPS_PROGRAMS[name][0], "mips")])
        inputs.append((name, image, None))
    rng = random.Random(seed)
    shape = GenConfig(**GEN_SHAPE)
    for _ in range(GENERATED):
        program = generate(rng.randrange(1 << 31), shape)
        inputs.append(("gen%d" % program.seed, program.image,
                       program.manifest))
    return inputs


def _set_up(seed, with_meta, directory):
    """Build every input into *directory* and prepare the workload's
    analysis state, selecting the analysis cache in *directory*;
    returns (seconds taken, [(name, path, manifest)])."""
    from repro.binfmt.meta import attach_meta
    from repro.binfmt.serialize import write_image
    from repro.cache import enabled as cache_enabled
    from repro.core.executable import Executable
    from repro.core.trust import meta_from_executable

    started = time.perf_counter()
    os.makedirs(directory)
    os.environ["REPRO_CACHE_DIR"] = os.path.join(directory, "cache")
    prepared = []
    for name, image, manifest in _build_inputs(seed):
        if with_meta:
            analyzed = Executable(image).read_contents(trust_meta=False)
            attach_meta(image, meta_from_executable(analyzed))
        elif cache_enabled():
            Executable(image).read_contents()
        path = os.path.join(directory, name + ".eelf")
        write_image(image, path)
        prepared.append((name, path, manifest))
    return time.perf_counter() - started, prepared


def _reference(path):
    """(output, exit code) of the unedited image on the handwritten
    simulator, which shares no code with the editor."""
    from repro.binfmt.serialize import read_image
    from repro.sim import Simulator

    simulator = Simulator(read_image(path), engine="handwritten")
    simulator.run()
    return simulator.output, simulator.exit_code


def _manifest_problem(path, manifest):
    """Disagreements of a generated input's analysis with its ground
    truth, or None."""
    from repro.binfmt.serialize import read_image
    from repro.core.executable import Executable
    from repro.fuzz.check import check_manifest

    executable = Executable(read_image(path)).read_contents()
    mismatches = check_manifest(executable, manifest)
    return "manifest mismatch %s" % mismatches[:3] if mismatches else None


def _path_problem(workload, executable, cache_hits):
    """Why the edit's analysis did not take the workload's path, or None."""
    if workload == "warm":
        return None if cache_hits else "analysis cache missed"
    expected = ("trusted", None) if workload == "trusted" \
        else ("absent", None)
    if executable.meta_status != expected:
        return "metadata status %r" % (executable.meta_status,)
    return None


def _edit(path, out_path, check):
    """One edit, then, if *check*, a simulated and verified run of its
    result; returns (seconds to the written image, edit session,
    edited-image simulator or None, verify result or None)."""
    from repro import tools, verify
    from repro.binfmt import serialize
    from repro.sim import machine

    started = time.perf_counter()
    image = serialize.read_image(path)
    session = tools.instrument_image(image, "qpt")
    serialize.write_image(session.edited_image, out_path)
    elapsed = time.perf_counter() - started
    if not check:
        return elapsed, session, None, None
    simulator = machine.Simulator(session.edited_image)
    simulator.run()
    verdict = verify.verify_session(session.executable,
                                    session.edited_image, use_memo=False)
    return elapsed, session, simulator, verdict


def _loop_seconds():
    started = time.perf_counter()
    total = 0
    for value in range(20000):
        total += value * value
    return time.perf_counter() - started


def _pin_to_quietest(cpus):
    """Bind this process to the CPU of *cpus* on which a fixed loop runs
    fastest now.  Other tenants load the host's cores unevenly, and
    unevenly over time, so the run repeats this every pass."""
    timings = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        timings.append((min(_loop_seconds() for _ in range(3)), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def _geomean_of_minima(samples):
    return math.exp(statistics.fmean(math.log(min(values))
                                     for values in samples.values()))


def run(workload, seed, seconds, trace, scratch):
    """One benchmark run; returns the result object."""
    from repro.obs import metrics

    cache_mode, with_meta = WORKLOADS[workload]
    os.environ["REPRO_CACHE"] = cache_mode
    os.environ["REPRO_TRUST_META"] = "on"
    os.environ.pop("REPRO_SIM_ENGINE", None)

    setup_dir = os.path.join(scratch, "setup%d")
    spent, inputs = _set_up(seed, with_meta, setup_dir % 0)
    setup_times = [spent]
    cache_dir = os.environ["REPRO_CACHE_DIR"]

    def set_up_again():
        # Repeated only to be timed; the edits keep the first set-up.
        spent, _ = _set_up(seed, with_meta, setup_dir % len(setup_times))
        setup_times.append(spent)
        os.environ["REPRO_CACHE_DIR"] = cache_dir

    problems = []
    references = {}
    for name, path, manifest in inputs:
        references[name] = _reference(path)
        if manifest is not None:
            problem = _manifest_problem(path, manifest)
            if problem:
                problems.append("%s: %s" % (name, problem))

    timer = LayerTimer() if trace else None
    edit = _edit
    if timer is not None:
        timer.install()
        edit = timer.timed(UNATTRIBUTED, _edit)
    hits = metrics.counter("cache.hits")
    before = {name: metrics.counter(counter).value
              for name, counter in COUNTERS.items()}
    out_path = os.path.join(scratch, "edited.eelf")
    edit_s = {name: [] for name, _, _ in inputs}
    verified = {}  # input -> bytes of its verified edited image
    attempted = failed = 0
    order = list(inputs)
    rng = random.Random(seed)
    started = time.perf_counter()
    deadline = started + seconds
    # An untraced run repeats the set-up at even intervals of the
    # measured period, so that the median of the set-ups does not hang
    # on one burst of contention from other tenants.
    setups_due = [] if trace else [started + seconds * k / SETUPS
                                   for k in range(1, SETUPS)]
    cpus = sorted(os.sched_getaffinity(0))
    first_pass = True
    while first_pass or time.perf_counter() < deadline:
        if setups_due and time.perf_counter() >= setups_due[0]:
            setups_due.pop(0)
            set_up_again()
        _pin_to_quietest(cpus)
        rng.shuffle(order)
        for name, path, _ in order:
            if not first_pass and time.perf_counter() >= deadline:
                break
            attempted += 1
            hits_before = hits.value
            try:
                elapsed, session, simulator, verdict = edit(
                    path, out_path, trace or name not in verified)
                with open(out_path, "rb") as handle:
                    written = handle.read()
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            problem = _path_problem(workload, session.executable,
                                    hits.value - hits_before)
            if problem is None and verdict is None:
                if written != verified[name]:
                    problem = "edited image differs from the verified one"
            elif problem is None:
                if (simulator.output, simulator.exit_code) \
                        != references[name]:
                    problem = "edited program output differs"
                elif not verdict.ok:
                    problem = verdict.render()
                else:
                    verified.setdefault(name, written)
            if problem:
                print("%s: %s" % (name, problem), file=sys.stderr)
                failed += 1
                continue
            edit_s[name].append(elapsed)
        first_pass = False
    for _ in setups_due:
        set_up_again()

    for problem in problems:
        print(problem, file=sys.stderr)
    for name in sorted(edit_s):
        if edit_s[name]:
            print("%-16s %4d edits  best %8.2f ms  median %8.2f ms"
                  % (name, len(edit_s[name]), 1000 * min(edit_s[name]),
                     1000 * statistics.median(edit_s[name])),
                  file=sys.stderr)
    result = {"correct": not failed and not problems,
              "attempted": attempted, "failed": failed}
    if trace:
        total = sum(timer.self_time.values())
        per_edit = {"%s_ms" % layer: {"value": 1000 * spent / attempted,
                                      "unit": "ms"}
                    for layer, spent in timer.self_time.items()}
        per_edit["explained_pct"] = {
            "value": 100 * (1 - timer.self_time[UNATTRIBUTED] / total),
            "unit": "%"}
        for name, counter in COUNTERS.items():
            done = metrics.counter(counter).value - before[name]
            per_edit[name] = {"value": done / attempted,
                              "unit": "count/edit"}
        result["metrics"] = per_edit
    elif all(edit_s.values()):
        result["metrics"] = {
            "edit_ms": {"value": 1000 * _geomean_of_minima(edit_s),
                        "unit": "ms"},
            "setup_s": {"value": statistics.median(setup_times),
                        "unit": "s"},
        }
    else:
        result["correct"] = False
        result["metrics"] = {}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("perfbench: program source not found at %s" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    scratch = tempfile.mkdtemp(prefix=".run-", dir=HERE)
    try:
        # Anything printed during the run goes to stderr, so the result
        # stays the last line of stdout.
        with contextlib.redirect_stdout(sys.stderr):
            result = run(args.workload, args.seed, args.seconds, args.trace,
                         scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
