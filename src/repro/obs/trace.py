"""Nestable tracing spans timed with ``perf_counter``.

The tracer is a module-level singleton.  Call sites write

    with span("refine.symtab", routine="main"):
        ...

and pay **one attribute lookup** when tracing is disabled: ``span``
checks ``Tracer.enabled`` and returns a shared no-op context manager,
so instrumented code has effectively zero cost by default.

When enabled, spans record wall time, parent/child hierarchy, and
arbitrary per-span attributes.  The finished forest is exported by
:mod:`repro.obs.report` in a stable JSON schema.
"""

import threading
from time import perf_counter

from repro.obs import context as _context
from repro.obs import metrics as _metrics

# Span names whose durations also feed a latency histogram, so the
# report quotes p50/p95/p99 per pipeline phase.  The module that opens
# a span declares it here with :func:`phase`.  The observation happens
# in ``Span.__exit__`` — only while tracing is enabled — so the
# disabled fast path is untouched.
PHASE_SPANS = {}


def phase(span_name, histogram=None):
    """Feed *span_name*'s durations to the histogram *histogram*
    (default ``"phase." + span_name``)."""
    PHASE_SPANS[span_name] = histogram or "phase." + span_name


class _NullSpan:
    """Shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        return self


_NULL_SPAN = _NullSpan()


class Span:
    """One timed region; children are spans opened while it is active.

    While a :class:`~repro.obs.context.TraceContext` is attached to the
    opening thread, the span additionally records its request identity:
    ``trace_id``, a fresh ``span_id``, and ``parent_span_id`` (the
    enclosing span, or the context's remote parent for the outermost
    span of a thread).  A *detached* span nests children normally but
    never roots in the tracer's global forest — the serve daemon uses
    this for per-request trees that are serialized into the durable
    event log instead of accumulating in process memory.
    """

    __slots__ = ("tracer", "name", "attrs", "start", "duration", "children",
                 "trace_id", "span_id", "parent_span_id", "detached")

    def __init__(self, tracer, name, attrs, detached=False):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.start = None
        self.duration = None
        self.children = []
        self.trace_id = None
        self.span_id = None
        self.parent_span_id = None
        self.detached = detached

    def set(self, **attrs):
        """Attach attributes to the span; returns the span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        tracer = self.tracer
        stack = tracer._stack
        parent = stack[-1] if stack else None
        ctx = _context.current()
        if ctx is not None:
            self.trace_id = ctx.trace_id
            self.span_id = _context.new_span_id()
            self.parent_span_id = parent.span_id if parent is not None \
                else ctx.span_id
        if parent is not None:
            parent.children.append(self)
        elif not self.detached:
            tracer.roots.append(self)
        stack.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.duration = perf_counter() - self.start
        stack = self.tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        histogram_name = PHASE_SPANS.get(self.name)
        if histogram_name is not None:
            _metrics.histogram(histogram_name).observe(self.duration)
        return False

    def to_dict(self):
        node = {
            "name": self.name,
            "duration_s": self.duration,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }
        if self.trace_id is not None:
            node["trace_id"] = self.trace_id
            node["span_id"] = self.span_id
            if self.parent_span_id is not None:
                node["parent_span_id"] = self.parent_span_id
        return node

    def __repr__(self):
        return "Span(%s %.6fs)" % (
            self.name, self.duration if self.duration is not None else -1.0,
        )


class Tracer:
    """Singleton holder of the span forest; disabled by default."""

    def __init__(self):
        self.enabled = False
        self.roots = []
        # The open-span stack is per thread: the serve daemon records
        # spans from many worker threads at once, and a shared stack
        # would interleave their hierarchies (and strand entries, since
        # __exit__ only pops its own span).  Each thread's outermost
        # spans root in the shared forest; appends are GIL-atomic.
        self._tls = threading.local()

    @property
    def _stack(self):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def span(self, name, **attrs):
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, attrs)

    def request_span(self, name, **attrs):
        """A *detached* span: times and nests children like any other,
        but never joins ``roots`` — the caller owns serialization (the
        daemon writes it to the event log, then drops it)."""
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, attrs, detached=True)

    def enable(self):
        self.enabled = True

    def disable(self):
        self.enabled = False

    def reset(self):
        """Drop all recorded spans (keeps the enabled flag)."""
        self.roots = []
        self._tls = threading.local()

    def tree(self):
        """The completed span forest as plain dicts."""
        return [root.to_dict() for root in self.roots]

    def render(self, min_duration=0.0):
        """Human-readable span tree, one line per span."""
        lines = []

        def emit(node, depth):
            duration = node.duration if node.duration is not None else 0.0
            if duration < min_duration and node.children:
                pass  # still show parents of slow children
            attrs = "".join(
                " %s=%s" % (key, value)
                for key, value in sorted(node.attrs.items())
            )
            lines.append("%s%-*s %10.3fms%s" % (
                "  " * depth, max(1, 40 - 2 * depth), node.name,
                duration * 1e3, attrs,
            ))
            for child in node.children:
                emit(child, depth + 1)

        for root in self.roots:
            emit(root, 0)
        return "\n".join(lines)


TRACER = Tracer()

# Bound once so a call site pays: global load + call + one attribute
# lookup (``self.enabled``) when disabled.
span = TRACER.span


def enable():
    TRACER.enable()


def disable():
    TRACER.disable()


def is_enabled():
    return TRACER.enabled


def reset():
    TRACER.reset()
