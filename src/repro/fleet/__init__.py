"""repro.fleet — sharded multi-process serving behind one gateway.

The paper's tool/library split scales past one process here: N shard
daemons (each a full :mod:`repro.serve` daemon with its own warm
in-memory analysis state) sit behind one gateway that speaks the same
``repro.serve/1`` protocol, routes by executable content so warm state
is never split across shards, prioritizes interactive work over bulk
sweeps, and replaces shards — crash or deliberate hot-restart —
without clients seeing a failure.  See DESIGN.md §5j.
"""

from repro.fleet.config import FleetConfig, default_gateway_path
from repro.fleet.gateway import FleetGateway, fleet_main
from repro.fleet.ring import content_key, preference, route
from repro.fleet.shards import ShardManager, ShardSlot
from repro.serve.admission import AdmissionQueue, priority_class

__all__ = [
    "AdmissionQueue",
    "FleetConfig",
    "FleetGateway",
    "ShardManager",
    "ShardSlot",
    "content_key",
    "default_gateway_path",
    "fleet_main",
    "preference",
    "priority_class",
    "route",
]
