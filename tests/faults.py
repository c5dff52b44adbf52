"""Fault-injection ops for the serving tests.

Production daemons ship no deliberate-failure ops.  The serving tests
register these handlers in :data:`repro.serve.ops.HANDLERS`: in process
through the ``fault_ops`` fixture (``tests/conftest.py``), or in a
daemon subprocess started as ``python tests/faults.py serve ...``,
which registers them and then runs ``repro.cli.main`` with the
remaining arguments.

``die`` and ``oserror`` fail every time by default; with ``times=N``
they fail only the first N requests naming the same ``key`` (counted
per process), which makes them transient faults a retrying client
gets past.
"""

import os
import sys
import threading
import time

from repro.serve import ops

_lock = threading.Lock()
_failures = {}


def _should_fail(params):
    times = params.get("times")
    if times is None:
        return True
    key = params.get("key", "default")
    with _lock:
        _failures[key] = _failures.get(key, 0) + 1
        return _failures[key] <= int(times)


def _op_sleep(server, params):
    seconds = float(params.get("seconds", 0.1))
    time.sleep(seconds)
    return {"slept": seconds}


def _op_die(server, params):
    if _should_fail(params):
        raise ops.WorkerDeath("injected worker death")
    return {"survived": True}


def _op_oserror(server, params):
    if _should_fail(params):
        raise OSError("injected I/O failure")
    return {"recovered": True}


FAULT_OPS = {"sleep": _op_sleep, "die": _op_die, "oserror": _op_oserror}


def register():
    ops.HANDLERS.update(FAULT_OPS)


def unregister():
    for name in FAULT_OPS:
        ops.HANDLERS.pop(name, None)
    with _lock:
        _failures.clear()


def shard_launcher(directory):
    """An executable for ``FleetConfig(python=...)``: shard daemons
    spawned through it (as ``<it> -m repro.cli serve ...``) run this
    launcher, so they serve the fault ops too."""
    path = os.path.join(str(directory), "shard-python")
    with open(path, "w") as handle:
        handle.write('#!/bin/sh\nshift 2\nexec "%s" "%s" "$@"\n'
                     % (sys.executable, os.path.abspath(__file__)))
    os.chmod(path, 0o755)
    return path


if __name__ == "__main__":
    register()
    from repro.cli import main

    sys.exit(main(sys.argv[1:]))
