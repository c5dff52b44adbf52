"""Campaign driver: generate -> analyze -> edit -> verify -> classify.

Each seed becomes one generated executable which is pushed through the
entire pipeline and classified:

* ``clean`` — analysis matched the manifest and every tool's edit
  verified (lints + lockstep co-simulation);
* ``mismatch:<category>`` — the analysis disagreed with ground truth
  (categories from :mod:`repro.fuzz.check`: extent, hidden, entries,
  leader, transfer, call, table, live, incomplete);
* ``verify:<tool>`` — instrumentation succeeded but differential
  verification found an error;
* ``meta-reject:<reason>`` — the image carried ``.eel.meta`` (the
  ``meta_mode`` campaigns) and the trust checks rejected it with that
  typed reason (see :mod:`repro.core.trust`);
* ``crash:<stage>:<Exception>`` — some pipeline stage raised.

Campaigns fan out across processes through :func:`repro.pool.fan_out`,
the helper ``repro verify --jobs`` uses too: it merges every counter a
pool child counted back into the parent, so ``--stats-json`` reports
the same counters at any ``--jobs``.

A campaign's exit status is decided against the reproducer corpus
(:mod:`repro.fuzz.corpus`): failure classes with a triaged ``xfail``
entry are *known* and do not fail the run; any other non-clean class is
shrunk to a minimal reproducer, stored with status ``new``, and fails
the campaign until triaged.
"""

import collections
import os
import time
from time import perf_counter

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.trace import span as _span
from repro.pool import fan_out

from repro.fuzz import corpus as _corpus
from repro.fuzz.gen import GenConfig, build_plan, plan_to_program

_C_SEEDS = _metrics.counter("fuzz.seeds")
_C_CLEAN = _metrics.counter("fuzz.clean")
_C_MISMATCH = _metrics.counter("fuzz.mismatches")
_C_VERIFY = _metrics.counter("fuzz.verify_failures")
_C_CRASH = _metrics.counter("fuzz.crashes")
_C_KNOWN = _metrics.counter("fuzz.known_failures")
_C_STORED = _metrics.counter("fuzz.reproducers_stored")
_C_META_REJECT = _metrics.counter("fuzz.meta_rejects")

Outcome = collections.namedtuple("Outcome", "seed status detail")


# ----------------------------------------------------------------------
# Classification
# ----------------------------------------------------------------------


class _Timed:
    """``with _Timed(timings, "gen"):`` — record a stage's wall time.

    Records on every exit path (including raises), so crash outcomes
    still carry the timings of the stage that crashed.
    """

    __slots__ = ("timings", "stage", "_start")

    def __init__(self, timings, stage):
        self.timings = timings
        self.stage = stage

    def __enter__(self):
        self._start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        if self.timings is not None:
            self.timings[self.stage] = round(
                perf_counter() - self._start, 6)
        return False


def _adoptable_facts(executable):
    """The donor a later, closely related analysis (the shrinker's
    delta candidates) seeds its fact store from — see
    :func:`repro.core.facts.rules.donor` — or None when this plan's
    analysis fails to populate."""
    from repro.core.facts import rules as fact_rules

    try:
        return fact_rules.donor(executable)
    except Exception:
        return None


def classify_plan(plan, label="fuzz", timings=None, adopt=None,
                  capture=None, meta_mode=None):
    """Run one plan through the full pipeline; return (status, detail).

    *timings*, when a dict, is filled with per-stage wall-clock seconds
    (``gen``, ``analyze``, ``check``, ``instrument:<tool>``,
    ``verify:<tool>``) — the per-seed breakdown the campaign writes to
    its event log.

    *adopt* passes a parent plan's surviving facts (see
    :func:`_adoptable_facts`) into analysis: byte-identical routines
    restore their CFGs instead of rebuilding, which is what makes the
    shrinker's long delta chains cheap.  *capture*, when a dict, gets
    a ``"facts"`` entry holding this plan's adoptable facts for the
    next delta.

    *meta_mode* turns the generator into a metadata producer:
    ``"emit"`` attaches a ``.eel.meta`` table derived from the plan's
    ground-truth manifest (analysis must trust it and still classify
    ``clean``); ``"corrupt"`` additionally applies one seeded lie (see
    :mod:`repro.fuzz.meta`) and the outcome must be reject-or-caught —
    a trust rejection returns ``meta-reject:<reason>``.
    """
    from repro.core.executable import Executable
    from repro.tools import instrument_image, tool_names
    from repro.verify import verify_session

    with _span("fuzz.seed", seed=plan.get("seed")):
        _C_SEEDS.inc()
        try:
            with _Timed(timings, "gen"):
                program = plan_to_program(plan)
                if meta_mode:
                    mutation = _attach_fuzz_meta(program, meta_mode)
                    if capture is not None:
                        capture["meta_mutation"] = mutation
        except Exception as error:
            _C_CRASH.inc()
            return "crash:gen:%s" % type(error).__name__, str(error)
        try:
            with _Timed(timings, "analyze"):
                executable = Executable(program.image)
                executable.read_contents(adopt=adopt,
                                         trust_meta=True if meta_mode
                                         else None)
        except Exception as error:
            _C_CRASH.inc()
            return "crash:analyze:%s" % type(error).__name__, str(error)
        if meta_mode and executable.meta_status[0] == "rejected":
            _C_META_REJECT.inc()
            return ("meta-reject:%s" % executable.meta_status[1],
                    executable.meta_reject_detail or "")
        if capture is not None:
            capture["facts"] = _adoptable_facts(executable)

        from repro.fuzz.check import check_manifest

        try:
            with _Timed(timings, "check"):
                codes = check_manifest(executable, program.manifest)
        except Exception as error:
            _C_CRASH.inc()
            return "crash:check:%s" % type(error).__name__, str(error)
        if codes:
            _C_MISMATCH.inc()
            category = codes[0].split(":", 1)[0]
            return "mismatch:%s" % category, "; ".join(codes)

        for tool in tool_names(plan["arch"]):
            try:
                with _Timed(timings, "instrument:%s" % tool):
                    session = instrument_image(program.image, tool)
            except Exception as error:
                _C_CRASH.inc()
                return ("crash:instrument-%s:%s" % (tool,
                                                    type(error).__name__),
                        str(error))
            try:
                with _Timed(timings, "verify:%s" % tool):
                    result = verify_session(
                        session.executable, session.edited_image,
                        configure_edited=session.configure_edited,
                        use_memo=False, label="%s-%s" % (label, tool))
            except Exception as error:
                _C_CRASH.inc()
                return ("crash:verify-%s:%s" % (tool, type(error).__name__),
                        str(error))
            if not result.ok:
                _C_VERIFY.inc()
                return "verify:%s" % tool, result.render()
        _C_CLEAN.inc()
        return "clean", ""


def _attach_fuzz_meta(program, meta_mode):
    """Attach manifest-derived metadata to a generated image; returns
    the mutation kind applied (None in plain ``emit`` mode)."""
    from repro.binfmt.meta import attach_meta
    from repro.fuzz.meta import corrupt_meta, meta_from_manifest

    meta = meta_from_manifest(program.manifest, program.image)
    mutation = None
    if meta_mode == "corrupt":
        meta, mutation = corrupt_meta(meta, program.plan["seed"])
    attach_meta(program.image, meta)
    return mutation


def classify_seed(seed, config=None, timings=None, meta_mode=None):
    config = config or GenConfig()
    return classify_plan(build_plan(seed, config), label="fuzz-%d" % seed,
                         timings=timings, meta_mode=meta_mode)


# ----------------------------------------------------------------------
# Process-pool fan-out
# ----------------------------------------------------------------------


def _campaign_worker(payload):
    """Pool worker: classify one seed, ``(seed, status, detail,
    timings)``."""
    seed, config_dict, meta_mode = payload
    timings = {}
    try:
        status, detail = classify_seed(seed, GenConfig(**config_dict),
                                       timings=timings,
                                       meta_mode=meta_mode)
    except Exception as error:  # classify itself must not raise
        status, detail = "crash:driver:%s" % type(error).__name__, str(error)
    return seed, status, detail, timings


def _outcomes(payloads, jobs, out_of_time=None):
    """Classify *payloads* in seed order, logging one ``fuzz.seed``
    event each.

    Generated images are all distinct, so persisting their analyses
    would only churn the cache directory: seeds classify cache-off
    (pool children inherit the setting), and the caller's setting is
    restored afterwards.
    """
    saved = os.environ.get("REPRO_CACHE")
    os.environ["REPRO_CACHE"] = "off"
    try:
        for seed, status, detail, timings in fan_out(
                _campaign_worker, payloads, jobs, out_of_time):
            _events.emit("fuzz.seed", seed=seed, status=status,
                         timings=timings)
            yield Outcome(seed, status, detail)
    finally:
        if saved is None:
            os.environ.pop("REPRO_CACHE", None)
        else:
            os.environ["REPRO_CACHE"] = saved


class CampaignResult:
    """Everything a campaign learned, plus corpus bookkeeping."""

    def __init__(self):
        self.outcomes = []
        self.skipped = 0  # seeds dropped by the time budget
        self.stored = []  # paths of newly stored reproducers
        self.known = []  # non-clean outcomes explained by xfail entries
        self.unexplained = []  # non-clean outcomes that fail the run

    @property
    def clean(self):
        return sum(1 for o in self.outcomes if o.status == "clean")

    @property
    def ok(self):
        return not self.unexplained

    def by_class(self):
        classes = collections.OrderedDict()
        for outcome in self.outcomes:
            if outcome.status != "clean":
                classes.setdefault(outcome.status, []).append(outcome)
        return classes

    def render(self):
        lines = ["fuzz: %d seeds, %d clean, %d skipped (time budget)"
                 % (len(self.outcomes), self.clean, self.skipped)]
        for status, outcomes in self.by_class().items():
            seeds = ", ".join(str(o.seed) for o in outcomes[:5])
            more = "" if len(outcomes) <= 5 else ", ..."
            tag = "known" if any(o in self.known for o in outcomes) \
                else "NEW"
            lines.append("  %-28s %4d seed(s) [%s]: %s%s"
                         % (status, len(outcomes), tag, seeds, more))
        for path in self.stored:
            lines.append("  stored reproducer: %s" % path)
        if self.ok:
            lines.append("fuzz: PASS (no unexplained failures)")
        else:
            lines.append("fuzz: FAIL (%d unexplained failure class(es) — "
                         "triage the stored reproducers)"
                         % len({o.status for o in self.unexplained}))
        return "\n".join(lines)


def run_campaign(seeds, base_seed=0, jobs=1, config=None,
                 time_budget=None, corpus_dir=None, shrink=True,
                 progress=None, meta_mode=None):
    """Classify ``base_seed .. base_seed+seeds-1``; triage via corpus.

    *progress*, when given, is called with each :class:`Outcome` as it
    arrives.  *meta_mode* (``"emit"``/``"corrupt"``) makes every
    generated image carry manifest-derived ``.eel.meta`` — see
    :func:`classify_plan`.  Returns a :class:`CampaignResult`.
    """
    config = config or GenConfig()
    result = CampaignResult()
    started = time.monotonic()
    payloads = [(base_seed + i, config.to_dict(), meta_mode)
                for i in range(seeds)]

    def out_of_time():
        return (time_budget is not None
                and time.monotonic() - started > time_budget)

    _events.emit("campaign.begin", seeds=seeds, base_seed=base_seed,
                 jobs=jobs, time_budget_s=time_budget)
    with _span("fuzz.campaign", seeds=seeds, jobs=jobs):
        for outcome in _outcomes(payloads, jobs, out_of_time):
            result.outcomes.append(outcome)
            if progress:
                progress(outcome)
        result.skipped = len(payloads) - len(result.outcomes)
        _triage(result, config, corpus_dir, shrink, meta_mode=meta_mode)
    _events.emit("campaign.end", seeds=len(result.outcomes),
                 clean=result.clean, skipped=result.skipped,
                 known=len(result.known),
                 unexplained=len(result.unexplained),
                 stored=len(result.stored), ok=result.ok,
                 elapsed_s=round(time.monotonic() - started, 3))
    return result


# ----------------------------------------------------------------------
# Triage against the corpus
# ----------------------------------------------------------------------


def _triage(result, config, corpus_dir, shrink, meta_mode=None):
    known = (_corpus.known_failures(corpus_dir)
             if corpus_dir is not None else set())
    new_classes = collections.OrderedDict()  # status -> first Outcome
    for outcome in result.outcomes:
        if outcome.status == "clean":
            continue
        if outcome.status in known:
            _C_KNOWN.inc()
            result.known.append(outcome)
        else:
            result.unexplained.append(outcome)
            new_classes.setdefault(outcome.status, outcome)
    if corpus_dir is None:
        return
    for status, outcome in new_classes.items():
        plan = build_plan(outcome.seed, config)
        if shrink:
            from repro.fuzz.shrink import shrink_plan

            # Each accepted delta becomes the next candidates' donor:
            # routines the delta left byte-identical adopt the parent's
            # CFG/liveness facts instead of re-deriving them.
            parent = {"facts": None}

            def _reproduces(candidate, status=status, parent=parent):
                captured = {}
                matched = classify_plan(
                    candidate, label="shrink", adopt=parent["facts"],
                    capture=captured, meta_mode=meta_mode)[0] == status
                if matched and captured.get("facts"):
                    parent["facts"] = captured["facts"]
                return matched

            plan = shrink_plan(plan, _reproduces)
        entry = _corpus.make_entry(status, outcome.detail, outcome.seed,
                                   plan, status="new")
        result.stored.append(_corpus.save_entry(corpus_dir, entry))
        _C_STORED.inc()


# ----------------------------------------------------------------------
# Corpus replay (`repro fuzz --corpus-only`)
# ----------------------------------------------------------------------


class ReplayResult:
    def __init__(self):
        self.passed = []  # (entry_id, note)
        self.failed = []  # (entry_id, note)

    @property
    def ok(self):
        return not self.failed

    def render(self):
        lines = []
        for entry_id, note in self.passed:
            lines.append("  %-40s %s" % (entry_id, note))
        for entry_id, note in self.failed:
            lines.append("  %-40s FAIL: %s" % (entry_id, note))
        lines.append("corpus: %d replayed, %d failed%s"
                     % (len(self.passed) + len(self.failed),
                        len(self.failed), "" if self.failed else " — PASS"))
        return "\n".join(lines)


def replay_corpus(corpus_dir, progress=None):
    """Replay every stored reproducer against its triage status."""
    result = ReplayResult()
    with _span("fuzz.replay"):
        for entry in _corpus.load_corpus(corpus_dir):
            status, _ = classify_plan(entry["plan"],
                                      label="replay-%s" % entry["id"])
            record = _judge_replay(entry, status)
            (result.passed if record[0] else result.failed).append(record[1:])
            if progress:
                progress(entry, record)
    return result


# ----------------------------------------------------------------------
# Metadata-corruption campaign (`repro fuzz --corrupt-meta`)
# ----------------------------------------------------------------------


class MetaCampaignResult:
    """Reject-or-caught bookkeeping for a corruption campaign."""

    def __init__(self):
        self.rejected = []  # Outcome: trust checks refused the table
        self.caught = []  # Outcome: lie trusted, divergence caught later
        self.silent = []  # Outcome: corrupted seed classified clean

    @property
    def ok(self):
        return not self.silent

    def render(self):
        total = len(self.rejected) + len(self.caught) + len(self.silent)
        by_reason = collections.Counter(
            o.status for o in self.rejected + self.caught)
        lines = ["meta-fuzz: %d corrupted seed(s), %d rejected, "
                 "%d caught downstream, %d silent"
                 % (total, len(self.rejected), len(self.caught),
                    len(self.silent))]
        for status, count in sorted(by_reason.items()):
            lines.append("  %-28s %4d seed(s)" % (status, count))
        for outcome in self.silent:
            lines.append("  SILENT LIE seed %d: corrupted metadata "
                         "classified clean" % outcome.seed)
        lines.append("meta-fuzz: %s" % ("PASS (every lie rejected or "
                                        "caught)" if self.ok
                                        else "FAIL (silent wrong "
                                        "answers)"))
        return "\n".join(lines)


def run_meta_corruption_campaign(seeds, base_seed=0, jobs=1, config=None,
                                 progress=None):
    """Corrupt every seed's metadata; assert reject-or-caught.

    Each seed's image carries a ground-truth ``.eel.meta`` table with
    one seeded lie applied (:func:`repro.fuzz.meta.corrupt_meta`).  A
    seed passes if the trust checks reject the table
    (``meta-reject:<reason>``) or any downstream stage flags the
    divergence (mismatch/verify/crash); a ``clean`` classification
    means the lie silently survived and fails the campaign.
    """
    config = config or GenConfig()
    result = MetaCampaignResult()
    payloads = [(base_seed + i, config.to_dict(), "corrupt")
                for i in range(seeds)]
    _events.emit("meta_campaign.begin", seeds=seeds, base_seed=base_seed,
                 jobs=jobs)
    with _span("fuzz.meta_campaign", seeds=seeds, jobs=jobs):
        for outcome in _outcomes(payloads, jobs):
            if outcome.status.startswith("meta-reject:"):
                result.rejected.append(outcome)
            elif outcome.status == "clean":
                result.silent.append(outcome)
            else:
                result.caught.append(outcome)
            if progress:
                progress(outcome)
    _events.emit("meta_campaign.end", seeds=seeds,
                 rejected=len(result.rejected), caught=len(result.caught),
                 silent=len(result.silent), ok=result.ok)
    return result


def _judge_replay(entry, status):
    """(ok, entry_id, note) for one replayed entry."""
    expected = entry["failure"]
    if entry["status"] == "fixed":
        if status == "clean":
            return True, entry["id"], "clean (fixed, regression guard)"
        return False, entry["id"], ("regressed: %s reappeared as %s"
                                    % (expected, status))
    # xfail and new both must still reproduce the recorded class; new
    # additionally fails the replay because nobody has triaged it yet.
    if status == "clean":
        return False, entry["id"], ("unexpectedly fixed: flip status to "
                                    "'fixed' if intentional")
    if status != expected:
        return False, entry["id"], ("failure class changed: %s -> %s"
                                    % (expected, status))
    if entry["status"] == "new":
        return False, entry["id"], ("reproduces %s but is untriaged: "
                                    "fix it or mark it xfail" % status)
    return True, entry["id"], "xfail reproduces %s" % status
