"""The fleet gateway: one front door, N warm shard daemons behind it.

The gateway speaks the same ``repro.serve/1`` protocol as a single
daemon — a client cannot tell the difference except that answers carry
a ``shard`` field — through the same
:class:`~repro.serve.frontdoor.FrontDoor`.  Admitted requests enter the
two-class :class:`~repro.serve.admission.AdmissionQueue` (interactive
ahead of bulk, starvation-bounded); forwarder threads route each
request by content key over the rendezvous ring to the shard that
holds that executable's warm analysis state, and relay the shard's
response unchanged.

The gateway forwards each request once.  A transport failure reports
the shard (respawn path) and answers ``unavailable`` with
``retry_after``; the client's retry then routes to the key's next live
shard.  A shard's own ``draining`` or ``overloaded`` answer already
carries ``retry_after`` and is relayed as is — which is how a
hot-restart looks like one short backoff from the outside.

A few ops never reach a shard: ``ping``, ``stats``, ``top``, and
``shutdown`` describe or control the fleet itself, and ``hot_restart``
triggers a rolling replacement.  ``stats`` and ``top`` carry the live
shard table under ``shards``, which is what gives ``repro export`` its
per-shard labels and ``repro top`` its shard rows.
"""

import os
import time

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.serve import ops, protocol
from repro.serve.admission import AdmissionQueue
from repro.serve.client import ServeError
from repro.serve.frontdoor import FrontDoor
from repro.fleet import ring
from repro.fleet.config import FleetConfig
from repro.fleet.shards import ShardManager

_C_REQUESTS = _metrics.counter("fleet.requests")
_C_FORWARDED = _metrics.counter("fleet.forwarded")
_C_REROUTED = _metrics.counter("fleet.rerouted")
_C_REJECTED = _metrics.counter("fleet.rejected")
_metrics.ratio("fleet.forward_rate", (_C_FORWARDED,), (_C_REQUESTS,))
_G_Q_INTERACTIVE = _metrics.gauge("fleet.queue.interactive")
_G_Q_BULK = _metrics.gauge("fleet.queue.bulk")

# A requester waits one shard timeout plus this margin, so a hung shard
# reaches the client as the gateway's typed answer, not as the client's
# own I/O timeout.
_WAIT_MARGIN_S = 10.0


class FleetGateway(FrontDoor):
    """Front process: admission, routing, forwarding, fleet control."""

    name = "fleet"
    drain_event = "fleet.drain"
    counters = {"requests": _C_REQUESTS, "overloaded": _C_REJECTED,
                "draining": _C_REJECTED}
    local_ops = frozenset({"ping", "stats", "top", "hot_restart"})
    shutdown_result = {"draining": True, "fleet": True}

    def __init__(self, config=None):
        config = config or FleetConfig()
        super().__init__(config, config.address,
                         AdmissionQueue(config.queue_size,
                                        config.starvation_limit),
                         config.shard_timeout_s + _WAIT_MARGIN_S)
        self.manager = ShardManager(config)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def _open(self):
        self.manager.start()
        for index in range(self.config.forwarders):
            self._spawn_executor(self._executor_loop,
                                 "fleet-forward-%d" % index)
        _events.emit("fleet.start", pid=os.getpid(),
                     address=self.config.address,
                     shards=self.config.shards,
                     forwarders=self.config.forwarders)

    def _close_backend(self):
        self.manager.stop()
        return {}

    def banner(self):
        return "gateway on %s (%d shards, %d forwarders, pid %d)" % (
            self.config.address, self.config.shards,
            self.config.forwarders, os.getpid())

    def summary(self, report):
        counters = report["counters"]
        return ("drained (%d requests, %d forwarded, %d rerouted, "
                "%d hot restarts)"
                % (counters["fleet.requests"], counters["fleet.forwarded"],
                   counters["fleet.rerouted"],
                   counters["fleet.hot_restarts"]))

    def shard_table(self):
        return self.manager.shard_table()

    def describe(self):
        interactive, bulk = self.queue.depths()
        return {
            "pid": os.getpid(),
            "fleet": True,
            "address": self.config.address,
            "shards": self.config.shards,
            "live": sorted(self.manager.live_slots()),
            "forwarders": self.config.forwarders,
            "queue_depth": interactive + bulk,
            "queues": {"interactive": interactive, "bulk": bulk},
            "draining": self._drain_requested.is_set(),
            "uptime_s": time.monotonic() - self.started_at
            if self.started_at is not None else 0.0,
        }

    def _note_depths(self):
        interactive, bulk = self.queue.depths()
        _G_Q_INTERACTIVE.set(interactive)
        _G_Q_BULK.set(bulk)

    # ------------------------------------------------------------------
    # Local ops (fleet state and control)
    # ------------------------------------------------------------------

    def _local_op(self, request_id, op, params):
        """Answer *op* in the gateway.  ``stats`` and ``top`` run the
        daemon's own handlers against the gateway, so both servers
        validate a request the same way."""
        handler = {"ping": FleetGateway._ping,
                   "hot_restart": FleetGateway._hot_restart}.get(op) \
            or ops.HANDLERS[op]
        try:
            return protocol.ok_response(request_id, handler(self, params))
        except ops.OpError as error:
            return protocol.error_response(request_id, error.code,
                                           error.message)
        except Exception as error:
            return protocol.error_response(
                request_id, protocol.E_INTERNAL,
                "%s: %s" % (type(error).__name__, error))

    def _ping(self, params):
        return {"pong": True, "protocol": protocol.PROTOCOL,
                "pid": os.getpid(),
                "fleet": {"shards": self.config.shards,
                          "live": len(self.manager.live_slots())}}

    def _hot_restart(self, params):
        shard = params.get("shard")
        if shard is None:
            return {"restarted": self.manager.rolling_restart()}
        if not isinstance(shard, int) \
                or not 0 <= shard < self.config.shards:
            raise ops.OpError(protocol.E_BAD_REQUEST,
                              "no such shard %r" % (shard,))
        return {"restarted": [self.manager.hot_restart(
            self.manager.slots[shard])]}

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------

    def _execute(self, job):
        """Route and relay one request, once."""
        self._note_depths()
        key = ring.content_key(job.op, job.params) \
            or "req:%s:%s" % (job.op, job.id)
        slot_index = ring.route(key, self.config.shards,
                                live=self.manager.live_slots())
        if slot_index is None:
            return protocol.error_response(
                job.id, protocol.E_UNAVAILABLE,
                "no live shards (fleet of %d)" % self.config.shards,
                retry_after=self.config.retry_after_s)
        slot = self.manager.slots[slot_index]
        with slot.lock:
            slot.requests += 1
        with _trace.TRACER.span("fleet.forward",
                                shard=slot_index) as forward_span:
            if isinstance(forward_span, _trace.Span) \
                    and forward_span.span_id:
                wire = job.context.child(forward_span.span_id)
            else:
                wire = job.context
            params = dict(job.params)
            params["trace"] = wire.to_wire()
            generation, client = slot.checkout(self.config.shard_timeout_s)
            try:
                response = client.roundtrip(job.op, **params)
            except (OSError, ServeError, protocol.ProtocolError):
                client.close()
                with slot.lock:
                    slot.rerouted_away += 1
                _C_REROUTED.inc()
                _events.emit("fleet.reroute", shard=slot_index, op=job.op,
                             key=key)
                # Reporting marks the shard dead (or ignores a superseded
                # generation), so the client's retry routes elsewhere.
                self.manager.report_failure(slot, generation)
                return protocol.error_response(
                    job.id, protocol.E_UNAVAILABLE,
                    "shard %d unreachable" % slot_index,
                    retry_after=self.config.retry_after_s)
            slot.checkin(generation, client)
        # Relay: the response is the shard's, the identity is ours.
        response["id"] = job.id
        response["shard"] = slot_index
        with slot.lock:
            if response.get("ok"):
                slot.ok += 1
            else:
                slot.errors += 1
        if response.get("ok"):
            slot.note_recent(job.params.get("workload"))
        _C_FORWARDED.inc()
        return response


def fleet_main(config, stats_json=None, trace=False):
    """Run a gateway (and its shard fleet) in the foreground; see
    :meth:`FrontDoor.run`."""
    return FleetGateway(config).run(stats_json=stats_json, trace=trace)
