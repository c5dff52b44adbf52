"""Differential verification of edited executables (DESIGN.md §5e).

EEL's core promise (paper §3, §3.5) is that an edited executable
behaves identically to the original.  This subsystem checks that
promise per edit session instead of assuming it:

* :mod:`repro.verify.lints` — machine-independent structural
  invariants over the rewritten image;
* :mod:`repro.verify.cosim` — lockstep co-simulation of the original
  and edited image with live-register, syscall-trace, output, and
  final-memory comparison;
* :mod:`repro.verify.inject` — deliberate edit corruption proving the
  two detectors actually detect.

Clean verdicts are memoized in the analysis cache (keyed by both
images' content hashes), so re-verifying an unchanged edit is a
cache-file read.  ``repro verify <workload>`` drives all of it from
the command line.
"""

import hashlib
import struct

from repro.cache.store import (
    enabled as _cache_enabled,
    image_cache_key as _image_cache_key,
    load_verdict as _load_verdict,
    store_verdict as _store_verdict,
)
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span
from repro.verify.context import Finding, VerifyContext
from repro.verify.cosim import CosimOracle
from repro.verify.lints import run_lints

__all__ = [
    "Finding",
    "VerifyContext",
    "VerifyResult",
    "corpus_names",
    "instrument_workload",
    "verify_session",
    "verify_workload",
    "workload_image",
]

# Bump when verify semantics change: old verdicts stop matching.
# 2: cosim sync points compare the dataflow live-in, not the
#    window-augmented scavenging set (false positives in leaf callees).
VERIFY_VERSION = 2

_C_RUNS = _metrics.counter("verify.runs")
_C_PASSED = _metrics.counter("verify.passed")
_C_FAILED = _metrics.counter("verify.failed")
_C_MEMO_HITS = _metrics.counter("verify.memo_hits")
_C_MEMO_MISSES = _metrics.counter("verify.memo_misses")


class VerifyResult:
    """Outcome of verifying one edit session."""

    def __init__(self, label, findings=(), cosim=None, memoized=False):
        self.label = label
        self.findings = list(findings)
        self.cosim = cosim  # CosimReport or None (memoized runs)
        self.memoized = memoized

    @property
    def errors(self):
        return [finding for finding in self.findings
                if finding.severity == "error"]

    @property
    def ok(self):
        if self.memoized:
            return True
        return not self.errors and (self.cosim is None or self.cosim.ok)

    @property
    def syncs(self):
        return self.cosim.syncs if self.cosim is not None else 0

    def render(self):
        if self.memoized:
            return "%s: PASS (memoized verdict)" % self.label
        lines = []
        if self.ok:
            lines.append("%s: PASS (%d lint findings, %d cosim syncs)"
                         % (self.label, len(self.findings), self.syncs))
        else:
            lines.append("%s: FAIL" % self.label)
        for finding in self.findings:
            lines.append("  %s" % finding)
        if self.cosim is not None and not self.cosim.ok:
            for line in self.cosim.divergence.render().splitlines():
                lines.append("  %s" % line)
        return "\n".join(lines)


def _verdict_key(original_image, edited_image):
    digest = hashlib.sha256()
    digest.update(b"EELV")
    digest.update(struct.pack(">H", VERIFY_VERSION))
    digest.update(_image_cache_key(original_image)
                  .encode("ascii"))
    digest.update(_image_cache_key(edited_image)
                  .encode("ascii"))
    return digest.hexdigest()


def verify_session(executable, edited_image=None, stdin_text="",
                   configure_edited=None, use_memo=True, label="edit"):
    """Lints + co-simulation for one edit session.

    *executable* is the (post-edit) editing session; *edited_image*
    defaults to its finalized image.  *configure_edited* lets tools
    with host-side runtime state (elsie's memory hooks, sfi's fault
    handler) prepare the edited simulator.  Clean verdicts are
    memoized by image content unless *use_memo* is off.
    """
    with _span("verify.run", label=label):
        _C_RUNS.inc()
        context = VerifyContext(executable, edited_image)
        key = None
        if use_memo and _cache_enabled():
            key = _verdict_key(context.original_image, context.edited_image)
            verdict = _load_verdict(key)
            if verdict is not None and verdict.get("ok"):
                _C_MEMO_HITS.inc()
                _C_PASSED.inc()
                return VerifyResult(label, memoized=True)
            _C_MEMO_MISSES.inc()
        with _span("verify.lints"):
            findings = run_lints(context)
        with _span("verify.cosim"):
            cosim = CosimOracle(context, stdin_text=stdin_text,
                                configure_edited=configure_edited).run()
        result = VerifyResult(label, findings, cosim)
        if result.ok:
            _C_PASSED.inc()
            if key is not None:
                _store_verdict(key, {
                    "ok": True,
                    "version": VERIFY_VERSION,
                    "label": label,
                    "syncs": cosim.syncs,
                })
        else:
            _C_FAILED.inc()
        return result


# ----------------------------------------------------------------------
# Workload drivers (used by the CLI, the serve ops and the test suite).


def corpus_names():
    """Every SPARC and MIPS workload name."""
    from repro.workloads import builder

    return list(builder.program_names()) + list(builder.mips_program_names())


def workload_image(name):
    """The built image of corpus workload *name*."""
    from repro.workloads import builder

    if name in builder.mips_program_names():
        return builder.build_mips_image(name)
    if name in builder.program_names():
        return builder.build_image(name)
    raise ValueError("unknown workload %r (have: %s)"
                     % (name, ", ".join(corpus_names())))


def instrument_workload(name, tool="qpt", mode="edge"):
    """Build *name*, instrument it with *tool*, and return
    (executable session, edited image, configure_edited hook)."""
    from repro.tools import instrument_image

    session = instrument_image(workload_image(name), tool, mode=mode)
    return session.executable, session.edited_image, session.configure_edited


def verify_workload(name, tool="qpt", mode="edge", stdin_text="",
                    use_memo=True):
    """Instrument workload *name* with *tool* and verify the edit."""
    executable, edited_image, configure = instrument_workload(
        name, tool=tool, mode=mode)
    return verify_session(executable, edited_image, stdin_text=stdin_text,
                          configure_edited=configure, use_memo=use_memo,
                          label="%s[%s]" % (name, tool))


def _verify_worker(payload):
    """Verify one workload: ``(name, ok, text)``, never raising (the
    ``repro verify --jobs`` pool worker, see :func:`repro.pool.fan_out`).
    """
    name, tool, mode, use_memo, stdin_text = payload
    try:
        result = verify_workload(name, tool=tool, mode=mode,
                                 use_memo=use_memo, stdin_text=stdin_text)
        return name, result.ok, result.render()
    except Exception as error:
        return name, False, "%s: ERROR %s" % (name, error)
