#!/usr/bin/env python
"""Compare a fresh BENCH_RESULTS.json with the parent commit's results.

The fresh file uses the ``repro.obs.bench/2`` schema: each record is
``{name, value, unit, better}``, where ``better`` is ``"higher"`` or
``"lower"`` (see ``repro.obs.report``).  The baseline is the same bench
files' results at the parent commit, run on the same machine in the
same job; it may still be in the older ``repro.obs.bench/1`` schema,
whose records carry no direction, so the fresh record's ``better``
decides.  Every record present in both files is compared, and a change
that is *worse* by more than the threshold (default 25%) is a
regression and fails the run.

Usage::

    python scripts/bench_diff.py \
        --baseline PARENT/benchmarks/BENCH_RESULTS.json \
        [--fresh benchmarks/BENCH_RESULTS.json] [--threshold 0.25]

Records present on only one side are listed as informational (bench
coverage changes with the benchmark set that ran), not failed.
"""

import argparse
import json
import math
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMAS = ("repro.obs.bench/1", "repro.obs.bench/2")
SIGN = {"higher": 1, "lower": -1}


def relative_change(old, new):
    """``(new - old) / |old|``; any move away from a zero is infinite."""
    if old:
        return (new - old) / abs(old)
    return math.copysign(math.inf, new) if new else 0.0


def load_results(path, schemas=SCHEMAS):
    """``{name: record}`` from a results file in one of *schemas*."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("schema") not in schemas:
        raise ValueError("%s: unexpected schema %r"
                         % (path, payload.get("schema")))
    return {record["name"]: record for record in payload.get("results", ())}


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="fail on >threshold benchmark regressions")
    parser.add_argument("--fresh",
                        default=os.path.join(ROOT, "benchmarks",
                                             "BENCH_RESULTS.json"))
    parser.add_argument("--baseline", required=True,
                        help="the parent commit's BENCH_RESULTS.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        metavar="FRACTION",
                        help="relative worsening that fails the run "
                             "(default: 0.25)")
    args = parser.parse_args(argv)

    for path in (args.fresh, args.baseline):
        if not os.path.exists(path):
            print("bench-diff: missing %s" % path, file=sys.stderr)
            return 1
    fresh = load_results(args.fresh, schemas=SCHEMAS[1:])
    baseline = load_results(args.baseline)

    regressions, improvements = [], []
    compared = 0
    for name in sorted(set(fresh) & set(baseline)):
        new_value = fresh[name]["value"]
        old_value = baseline[name]["value"]
        if not isinstance(new_value, (int, float)) \
                or not isinstance(old_value, (int, float)):
            continue
        compared += 1
        change = relative_change(old_value, new_value)
        sign = SIGN[fresh[name]["better"]]
        line = "%-52s %12.4g -> %-12.4g (%+.1f%%, %s is better)" \
            % (name, old_value, new_value, change * 100,
               fresh[name]["better"])
        if sign * change < -args.threshold:
            regressions.append(line)
        elif sign * change > args.threshold:
            improvements.append(line)

    only_fresh = sorted(set(fresh) - set(baseline))
    only_baseline = sorted(set(baseline) - set(fresh))
    print("bench-diff: compared %d shared metric(s) "
          "(threshold %.0f%%, %d fresh-only, %d baseline-only)"
          % (compared, args.threshold * 100, len(only_fresh),
             len(only_baseline)))
    if improvements:
        print("improvements (>%d%%):" % (args.threshold * 100))
        for line in improvements:
            print("  " + line)
    if regressions:
        print("REGRESSIONS (worse by >%d%%):" % (args.threshold * 100),
              file=sys.stderr)
        for line in regressions:
            print("  " + line, file=sys.stderr)
        return 1
    print("bench-diff: PASS (no metric worse by >%d%%)"
          % (args.threshold * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
