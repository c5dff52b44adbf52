"""Admission: a bounded queue with two priority classes.

Interactive traffic (``run``, ``disasm``, ``instrument`` — a human or
tool waiting on the answer) dispatches ahead of bulk traffic
(``verify`` and fuzz-campaign sweeps that care about throughput, not
latency).  Strict priority alone would let a steady interactive
stream starve bulk work forever, so the queue enforces a bound: after
``starvation_limit`` consecutive interactive dispatches while bulk
work waited, the next dispatch is bulk regardless.  The worst-case
bulk wait is therefore ``starvation_limit`` interactive requests —
bounded, and tested (``test_fleet.py``).

The fleet gateway admits by class; a daemon passes ``bulk_ops=()``, so
every job lands in one class and its queue is plain FIFO (a shard
behind a gateway must not reorder what the gateway already ordered).

The queue is bounded as a whole (both classes share one budget);
``put`` returning False is the server's ``overloaded`` signal.
"""

import threading
from collections import deque
from time import monotonic

# Ops whose requester is throughput-oriented; everything else is
# interactive.  Fuzz sweeps arrive as verify ops, so one class covers
# both bulk producers named by the design.
BULK_OPS = frozenset({"verify"})


def priority_class(op):
    """``"bulk"`` or ``"interactive"`` for an op name."""
    return "bulk" if op in BULK_OPS else "interactive"


class AdmissionQueue:
    """Bounded two-class queue with aged (bounded-starvation) dispatch."""

    def __init__(self, maxsize, starvation_limit=8, bulk_ops=BULK_OPS):
        self.maxsize = maxsize
        self.starvation_limit = starvation_limit
        self.bulk_ops = bulk_ops
        self._interactive = deque()
        self._bulk = deque()
        self._lock = threading.Lock()
        self._nonempty = threading.Condition(self._lock)
        # Consecutive interactive dispatches since the last bulk one
        # (counted only while bulk work was actually waiting).
        self._streak = 0

    # ------------------------------------------------------------------
    def put(self, item, op=None):
        """Admit *item* under *op*'s class; False when the queue is full."""
        bulk = op in self.bulk_ops
        with self._nonempty:
            if len(self._interactive) + len(self._bulk) >= self.maxsize:
                return False
            (self._bulk if bulk else self._interactive).append(item)
            self._nonempty.notify()
            return True

    def put_control(self, item):
        """Admit a control item (executor STOP sentinel) past the bound,
        at the front — shutdown must never block on a full queue."""
        with self._nonempty:
            self._interactive.appendleft(item)
            self._nonempty.notify()

    def get(self, timeout=None):
        """Next item by priority policy, or None on timeout."""
        with self._nonempty:
            deadline = monotonic() + timeout if timeout is not None \
                else None
            while not self._interactive and not self._bulk:
                remaining = None if deadline is None \
                    else deadline - monotonic()
                if remaining is not None and remaining <= 0:
                    return None
                self._nonempty.wait(remaining)
            if self._bulk and (not self._interactive
                               or self._streak >= self.starvation_limit):
                self._streak = 0
                return self._bulk.popleft()
            # The streak ages bulk work only while it is waiting;
            # interactive dispatches from an empty bulk queue are not
            # starving anyone.
            self._streak = self._streak + 1 if self._bulk else 0
            return self._interactive.popleft()

    # ------------------------------------------------------------------
    def depths(self):
        """``(interactive, bulk)`` queue depths (racy, for telemetry)."""
        with self._lock:
            return len(self._interactive), len(self._bulk)

    def __len__(self):
        with self._lock:
            return len(self._interactive) + len(self._bulk)
