"""repro.pool: ordered fan-out that survives a broken pool."""

import os

from repro.obs import metrics
from repro.pool import fan_out


def _tenfold_unless_child_two(payload):
    """Pool worker: a pool child handed value 2 dies outright."""
    parent, value = payload
    if value == 2 and os.getpid() != parent:
        os._exit(1)
    return value * 10


def test_broken_pool_finishes_serially_in_order():
    """A child that dies breaks the pool; the payloads without a result
    run in the parent, in order, and the fallback is counted once."""
    fallbacks = metrics.counter("pool.fallbacks")
    before = fallbacks.value
    payloads = [(os.getpid(), value) for value in range(5)]
    assert list(fan_out(_tenfold_unless_child_two, payloads, jobs=2)) == \
        [0, 10, 20, 30, 40]
    assert fallbacks.value == before + 1


def test_serial_fan_out_stops_when_out_of_time():
    calls = []

    def out_of_time():
        calls.append(None)
        return len(calls) > 2

    payloads = [(os.getpid(), value) for value in range(5)]
    assert list(fan_out(_tenfold_unless_child_two, payloads,
                        out_of_time=out_of_time)) == [0, 10]
