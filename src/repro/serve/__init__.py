"""repro.serve — the long-lived edit-serving daemon.

The paper frames EEL as a *library* many tools link against (qpt,
EELsie, SFI); the CLI re-imports the toolchain, re-opens the analysis
cache, and re-reads the image on every invocation.  This package turns
the library into a service: ``repro serve`` keeps analyzed executables
and their cached summaries warm in one process and answers
edit/instrument/disasm/run/verify requests over a local socket using a
line-delimited JSON protocol (one request object per line, one
response object per line).

Layers:

* :mod:`repro.serve.config`    — ``ServeConfig``: knobs from CLI flags
  and defensively parsed ``REPRO_SERVE_*`` environment variables;
* :mod:`repro.serve.protocol`  — wire format: framing, error codes,
  request/response builders;
* :mod:`repro.serve.ops`       — request handlers (tool dispatch by
  name, warm-analysis coalescing);
* :mod:`repro.serve.admission` — the bounded admission queue (one
  FIFO class for a daemon, interactive/bulk for the fleet gateway);
* :mod:`repro.serve.frontdoor` — what the daemon and the fleet gateway
  share: listener, intake, admission, per-request timeouts, in-flight
  accounting, graceful drain, and the foreground runner;
* :mod:`repro.serve.daemon`    — ``EditServer``: the worker pool with
  its restart budget and degraded serial fallback;
* :mod:`repro.serve.client`    — ``ServeClient`` (the stack's only
  retrier) plus the ``repro client`` command.

Failure semantics (the contract the tests pin):

* queue full        -> ``overloaded`` error with ``retry_after``; the
  admission queue is bounded, it never grows without limit;
* request too slow  -> ``timeout`` error; the worker's result, if it
  ever arrives, is dropped;
* transient faults  -> a handler's ``OSError`` (cache races) and the
  death of the worker running a request answer ``internal`` with
  ``retry_after``; the daemon fails fast and the *client* retries;
* worker death      -> the worker is restarted from a bounded restart
  budget; with no live workers left the daemon *degrades* to serial
  in-process execution instead of going dark;
* SIGTERM           -> drain: finish in-flight requests, reject new
  ones with ``draining``, flush ``serve.*`` counters/spans through
  :mod:`repro.obs`, exit 0.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.config import ServeConfig
from repro.serve.daemon import EditServer, serve_main

__all__ = ["EditServer", "ServeClient", "ServeConfig", "ServeError",
           "serve_main"]
