"""Counters, gauges, and histograms for the edit/simulate pipeline.

Metric objects are interned by name in a module-level :class:`Registry`
so hot call sites can hold a direct reference.  The module that
produces a metric declares it, and any ratio over it, beside the code
that counts:

    _HITS = metrics.counter("tool.hits")
    _MISSES = metrics.counter("tool.misses")
    metrics.ratio("tool.hit_rate", (_HITS,), (_HITS, _MISSES))
    ...
    _HITS.inc()

``Registry.reset()`` zeroes values **in place** — interned references
stay valid across resets, which is what lets the CLI take a clean
measurement without reloading modules.

Counters are cheap enough to leave unconditional everywhere except the
simulator's fetch/execute loop, which keeps a separate untelemetered
fast path (see ``repro.sim.machine``).
"""

import random as _random
import zlib as _zlib


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = 0

    def inc(self, amount=1):
        self.value += amount

    def reset(self):
        self.value = 0

    def snapshot(self):
        return self.value


class Gauge:
    """Last-write-wins measurement."""

    __slots__ = ("name", "value")

    def __init__(self, name):
        self.name = name
        self.value = None

    def set(self, value):
        self.value = value

    def reset(self):
        self.value = None

    def snapshot(self):
        return self.value


class Histogram:
    """Streaming summary plus a bounded reservoir for percentiles.

    The first ``capacity`` observations are kept verbatim; after that,
    classic reservoir sampling keeps a uniform sample of everything
    seen so far, so :meth:`percentile` stays accurate at fixed memory
    no matter how long the process runs.  The sampler's RNG is seeded
    from the metric name, keeping runs reproducible.
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum",
                 "capacity", "_reservoir", "_rng")

    DEFAULT_CAPACITY = 512

    def __init__(self, name, capacity=DEFAULT_CAPACITY):
        self.name = name
        self.capacity = capacity
        self._rng = _random.Random(_zlib.crc32(name.encode("utf-8")))
        self.reset()

    def observe(self, value):
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        reservoir = self._reservoir
        if len(reservoir) < self.capacity:
            reservoir.append(value)
        else:
            slot = self._rng.randrange(self.count)
            if slot < self.capacity:
                reservoir[slot] = value

    def percentile(self, q):
        """The *q*-quantile (0.0..1.0) of the sampled distribution,
        linearly interpolated; None before any observation."""
        reservoir = self._reservoir
        if not reservoir:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile %r outside [0, 1]" % (q,))
        ordered = sorted(reservoir)
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def reset(self):
        self.count = 0
        self.total = 0
        self.minimum = None
        self.maximum = None
        self._reservoir = []

    def snapshot(self):
        mean = self.total / self.count if self.count else None
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class Ratio:
    """The share of one sum of counters in another.

    *complement* reports the rest instead: ``(whole - part) / whole``.
    The report's ``derived`` section holds the value of every declared
    ratio whose whole is non-zero.
    """

    __slots__ = ("name", "part", "whole", "complement")

    def __init__(self, name, part, whole, complement=False):
        self.name = name
        self.part = tuple(counter.name for counter in part)
        self.whole = tuple(counter.name for counter in whole)
        self.complement = complement

    def denominator(self, counters):
        return sum(counters.get(name, 0) for name in self.whole)

    def value(self, counters):
        """The ratio over a counter snapshot; None when the whole is 0."""
        whole = self.denominator(counters)
        if not whole:
            return None
        part = sum(counters.get(name, 0) for name in self.part)
        return (whole - part if self.complement else part) / whole


class Registry:
    """Interning store for all metric instruments and ratio declarations."""

    def __init__(self):
        self.counters = {}
        self.gauges = {}
        self.histograms = {}
        self.ratios = {}

    def _intern(self, table, factory, name):
        instrument = table.get(name)
        if instrument is None:
            instrument = table[name] = factory(name)
        return instrument

    def counter(self, name):
        return self._intern(self.counters, Counter, name)

    def gauge(self, name):
        return self._intern(self.gauges, Gauge, name)

    def histogram(self, name):
        return self._intern(self.histograms, Histogram, name)

    def ratio(self, name, part, whole, complement=False):
        """Declare the ratio *name* over the counters *part* and *whole*."""
        self.ratios[name] = Ratio(name, part, whole, complement)
        return self.ratios[name]

    def derived(self, counters):
        """Every declared ratio with a non-zero whole, over *counters*."""
        values = {}
        for name, ratio in sorted(self.ratios.items()):
            value = ratio.value(counters)
            if value is not None:
                values[name] = value
        return values

    def reset(self):
        """Zero every instrument in place (references stay valid)."""
        for table in (self.counters, self.gauges, self.histograms):
            for instrument in table.values():
                instrument.reset()

    def snapshot(self):
        """All current values as plain (JSON-ready) dicts."""
        return {
            "counters": {name: c.snapshot()
                         for name, c in sorted(self.counters.items())},
            "gauges": {name: g.snapshot()
                       for name, g in sorted(self.gauges.items())
                       if g.value is not None},
            "histograms": {name: h.snapshot()
                           for name, h in sorted(self.histograms.items())
                           if h.count},
        }


REGISTRY = Registry()

counter = REGISTRY.counter
gauge = REGISTRY.gauge
histogram = REGISTRY.histogram
ratio = REGISTRY.ratio


def reset():
    REGISTRY.reset()


def snapshot():
    return REGISTRY.snapshot()
