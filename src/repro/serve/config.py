"""Daemon configuration: CLI flags over ``REPRO_SERVE_*`` env vars.

Every environment knob goes through :mod:`repro.env`, so a malformed
value (``REPRO_SERVE_QUEUE=1e3``, an empty string) can never crash the
daemon or a client — it warns once and uses the default, the same
contract ``REPRO_CACHE_MAX`` follows.
"""

import os
import tempfile

from repro.env import env_float, env_int


def default_socket_path():
    """Per-user default rendezvous point for daemon and clients."""
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), "repro-serve-%d.sock" % uid)


class ServeConfig:
    """Validated daemon/client settings.

    Attributes mirror the constructor arguments; anything left None
    falls back to its ``REPRO_SERVE_*`` variable, then to the default.
    """

    def __init__(self, socket_path=None, jobs=None, queue_size=None,
                 timeout_s=None, retry_after_s=None, drain_timeout_s=None,
                 events_path=None, shard_id=None):
        env = os.environ
        self.socket_path = socket_path or env.get("REPRO_SERVE_SOCKET") \
            or default_socket_path()
        # Identity within a repro.fleet: stamped onto responses, events,
        # and the request span so fleet telemetry is per-shard.  None
        # means a standalone daemon.
        self.shard_id = shard_id if shard_id is not None \
            else env_int("REPRO_SERVE_SHARD", None, minimum=0)
        # Durable event log (repro.events/1 JSONL); no log by default.
        self.events_path = events_path \
            if events_path is not None \
            else env.get("REPRO_SERVE_EVENTS") or None
        self.jobs = jobs if jobs is not None \
            else env_int("REPRO_SERVE_JOBS", 2, minimum=1)
        self.queue_size = queue_size if queue_size is not None \
            else env_int("REPRO_SERVE_QUEUE", 32, minimum=1)
        self.timeout_s = timeout_s if timeout_s is not None \
            else env_float("REPRO_SERVE_TIMEOUT", 60.0, minimum=0.01)
        self.retry_after_s = retry_after_s if retry_after_s is not None \
            else env_float("REPRO_SERVE_RETRY_AFTER", 0.1, minimum=0.0)
        self.drain_timeout_s = drain_timeout_s \
            if drain_timeout_s is not None \
            else env_float("REPRO_SERVE_DRAIN_TIMEOUT", 30.0, minimum=0.1)
