"""Gateway + worker-shard topology for :mod:`repro.serve`.

The single-process service is GIL-bound: no matter how many sessions
connect, aggregate steps/sec plateaus at roughly one core.  This
package multiplies it across processes while keeping the wire protocol
unchanged:

* :mod:`~repro.serve.shard.ring` — deterministic consistent hashing of
  session ids onto shard indices (stable across processes and runs);
* :mod:`~repro.serve.shard.worker` — shard subprocesses, each running
  the existing :class:`~repro.serve.server.SimulationService` stack
  (session manager, batch scheduler, journal) on a per-shard UNIX
  socket with a per-shard journal directory;
* :mod:`~repro.serve.shard.gateway` — the client-facing asyncio server:
  NDJSON in, NDJSON out, sessions routed to shards by consistent hash,
  live migration over PR 5's pickle-free snapshot bytes, and
  journal-based recovery of a crashed shard's sessions onto survivors.
"""

from .gateway import (
    GatewayConfig,
    ShardGateway,
    gateway_forever,
    start_gateway_in_thread,
)
from .ring import HashRing
from .worker import ShardProcess, ShardSupervisor

__all__ = [
    "GatewayConfig",
    "HashRing",
    "ShardGateway",
    "ShardProcess",
    "ShardSupervisor",
    "gateway_forever",
    "start_gateway_in_thread",
]
