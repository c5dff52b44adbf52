"""Fleet configuration: gateway address, shard count, and knobs.

Follows the :class:`repro.serve.config.ServeConfig` contract — every
environment knob goes through :mod:`repro.env`, so a malformed value
warns once and falls back rather than crashing the gateway.  Shard
daemons are real child processes; their sockets and event logs live
under ``run_dir`` (``shard-<i>-g<gen>.sock``, ``events-shard<i>.jsonl``)
so one directory holds one fleet's whole on-disk footprint.
"""

import os
import sys
import tempfile

from repro.env import env_float, env_int


def default_gateway_path():
    """Per-user default rendezvous point for the fleet gateway."""
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), "repro-fleet-%d.sock" % uid)


class FleetConfig:
    """Validated gateway/shard-manager settings."""

    def __init__(self, address=None, shards=None, run_dir=None,
                 shard_jobs=None, queue_size=None, starvation_limit=None,
                 forwarders=None, retry_after_s=None,
                 health_interval_s=None, respawn_limit=None,
                 shard_timeout_s=None, spawn_timeout_s=None,
                 drain_timeout_s=None, events_path=None,
                 shard_events=None, python=None):
        env = os.environ
        # Gateway listen address: a Unix socket path, or tcp://host:port.
        self.address = address or env.get("REPRO_FLEET_ADDRESS") \
            or default_gateway_path()
        self.shards = shards if shards is not None \
            else env_int("REPRO_FLEET_SHARDS", 2, minimum=1)
        self.run_dir = run_dir or env.get("REPRO_FLEET_DIR") \
            or os.path.join(tempfile.gettempdir(),
                            "repro-fleet-%d" % os.getpid())
        # Worker threads inside each shard daemon.
        self.shard_jobs = shard_jobs if shard_jobs is not None \
            else env_int("REPRO_FLEET_SHARD_JOBS", 2, minimum=1)
        # Gateway admission queue bound (both classes together).
        self.queue_size = queue_size if queue_size is not None \
            else env_int("REPRO_FLEET_QUEUE", 256, minimum=1)
        # After this many consecutive interactive dispatches while bulk
        # work waits, one bulk job is dispatched — the starvation bound.
        self.starvation_limit = starvation_limit \
            if starvation_limit is not None \
            else env_int("REPRO_FLEET_STARVATION", 8, minimum=1)
        # Forwarding threads: concurrent requests in flight to shards.
        self.forwarders = forwarders if forwarders is not None \
            else env_int("REPRO_FLEET_FORWARDERS", 8, minimum=1)
        self.retry_after_s = retry_after_s if retry_after_s is not None \
            else env_float("REPRO_FLEET_RETRY_AFTER", 0.1, minimum=0.0)
        self.health_interval_s = health_interval_s \
            if health_interval_s is not None \
            else env_float("REPRO_FLEET_HEALTH_INTERVAL", 1.0, minimum=0.05)
        # Automatic respawns per slot before the slot is left dark.
        self.respawn_limit = respawn_limit if respawn_limit is not None \
            else env_int("REPRO_FLEET_RESPAWNS", 5, minimum=0)
        # Per-request timeout the shard daemons enforce.
        self.shard_timeout_s = shard_timeout_s \
            if shard_timeout_s is not None \
            else env_float("REPRO_FLEET_SHARD_TIMEOUT", 60.0, minimum=0.01)
        # How long a freshly spawned shard gets to answer its first ping.
        self.spawn_timeout_s = spawn_timeout_s \
            if spawn_timeout_s is not None \
            else env_float("REPRO_FLEET_SPAWN_TIMEOUT", 30.0, minimum=0.1)
        self.drain_timeout_s = drain_timeout_s \
            if drain_timeout_s is not None \
            else env_float("REPRO_FLEET_DRAIN_TIMEOUT", 30.0, minimum=0.1)
        # Gateway's own durable event log (fleet.* + request.* events).
        self.events_path = events_path if events_path is not None \
            else env.get("REPRO_FLEET_EVENTS") or None
        # Give each shard a derived event log under run_dir.  On by
        # default whenever the gateway itself logs events.
        self.shard_events = shard_events if shard_events is not None \
            else bool(self.events_path)
        # Interpreter used to spawn shard daemons.
        self.python = python or sys.executable

    def shard_socket(self, index, generation):
        return os.path.join(self.run_dir,
                            "shard-%d-g%d.sock" % (index, generation))

    def shard_events_path(self, index):
        if not self.shard_events:
            return None
        return os.path.join(self.run_dir, "events-shard%d.jsonl" % index)
