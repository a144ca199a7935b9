"""Multi-session simulation service (the ROADMAP's serving layer).

The paper's dynamic precision tuning is an online, per-application
control loop; this package runs many such loops concurrently as a
long-lived service.  Each client session owns a
:class:`~repro.physics.World` with its own precision control register
(and optionally its own :class:`~repro.tuning.PrecisionController`);
concurrent step requests coalesce into fixed-tick batches dispatched
across a worker pool; admission control bounds every queue and evicts
sessions that blow their step budget; session snapshots are
:func:`~repro.robustness.serialize_checkpoint` bytes, so a restored
session — in place or into a fresh world — continues bit-identically.

Layers:

* :mod:`~repro.serve.protocol` — the NDJSON wire protocol + error codes;
* :mod:`~repro.serve.session` — ``Session`` / ``SessionManager``
  lifecycle (create / step / snapshot / restore / close);
* :mod:`~repro.serve.admission` — bounded queues, backpressure,
  step budgets;
* :mod:`~repro.serve.scheduler` — the fixed-tick ``BatchScheduler``
  over a thread pool;
* :mod:`~repro.serve.resilience` — per-session snapshot journals,
  digest-verified restart recovery, and the degraded/lost outcomes of
  the server-side recovery ladder;
* :mod:`~repro.serve.frontend` — ``FrameServer``, the one NDJSON
  front end both the service and the gateway run on: listener,
  framing, dispatch, accounting, drain, and the signal run loop;
* :mod:`~repro.serve.server` — the single-process service (journal
  recovery on start, idempotent request replay, a drain that journals
  every session);
* :mod:`~repro.serve.client` — the thin synchronous ``Client``, the
  retrying/reconnecting ``ResilientClient``, and the one in-thread
  harness (``ServerHandle``) for the service and the gateway;
* :mod:`~repro.serve.bench` — the ``repro serve-bench`` load harness
  and its ``--chaos`` fault drill;
* :mod:`~repro.serve.shard` — the scale-out topology: a client-facing
  gateway routing sessions by consistent hash over N worker-shard
  subprocesses, with live digest-verified session migration and
  journal-based recovery of crashed shards.

Everything is observable: requests, batches, evictions, recoveries,
and drains count through :mod:`repro.obs.metrics`, and with a tracer
attached they stream as schema-v6 ``serve.*`` events on the same JSONL
timeline as the step telemetry.
"""

from .admission import AdmissionController, AdmissionPolicy
from .bench import ServeBenchConfig, render_serve_summary, run_serve_bench
from .client import (
    Client,
    ClientTimeoutError,
    ConnectionLost,
    ResilientClient,
    RetryPolicy,
    ServeClientError,
    ServerHandle,
    start_in_thread,
)
from .protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    ServiceError,
    decode_frame,
    encode_frame,
)
from .resilience import (
    JournalStore,
    RecoveredSession,
    SessionDegraded,
    SessionJournal,
    SessionLost,
    read_journal,
    recover_sessions,
)
from .scheduler import BatchScheduler
from .server import ServiceConfig, SimulationService, serve_forever
from .session import Session, SessionConfig, SessionManager, state_digest
# Imported last: shard modules import from .server/.client above.
from .shard import (
    GatewayConfig,
    HashRing,
    ShardGateway,
    ShardProcess,
    ShardSupervisor,
    gateway_forever,
    start_gateway_in_thread,
)

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "BatchScheduler",
    "Client",
    "ClientTimeoutError",
    "ConnectionLost",
    "ERROR_CODES",
    "GatewayConfig",
    "HashRing",
    "JournalStore",
    "MAX_FRAME_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "RecoveredSession",
    "ResilientClient",
    "RetryPolicy",
    "ServeBenchConfig",
    "ServeClientError",
    "ServerHandle",
    "ServiceConfig",
    "ServiceError",
    "Session",
    "SessionConfig",
    "SessionDegraded",
    "SessionJournal",
    "SessionLost",
    "SessionManager",
    "ShardGateway",
    "ShardProcess",
    "ShardSupervisor",
    "SimulationService",
    "decode_frame",
    "encode_frame",
    "gateway_forever",
    "read_journal",
    "recover_sessions",
    "render_serve_summary",
    "run_serve_bench",
    "serve_forever",
    "start_gateway_in_thread",
    "start_in_thread",
    "state_digest",
]
