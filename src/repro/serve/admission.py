"""Admission control: bounded queues, backpressure, step budgets.

The service must degrade predictably under load, not buffer without
bound.  Three independent limits, each mapping to one wire error code:

* **Session capacity** (``server_full``) — the session table holds at
  most ``max_sessions`` live worlds; further ``create`` requests are
  rejected outright.
* **Queue bounds** (``busy``) — at most ``max_pending_per_session``
  requests may be queued for one session and at most
  ``max_queue_depth`` across the whole service.  A rejected request was
  never queued: the client owns the retry policy (backpressure, not
  buffering).
* **Step budgets** (``budget_exceeded``) — a step request that exceeds
  its wall budget retires its session (respawned from its journal
  mark, or evicted with reason ``budget``); the worker thread stops at
  the next step boundary, so a runaway world cannot absorb the worker
  pool.

Rejections are counted per reason in the metrics registry (the front
end's, or a private one) so a dashboard can tell "clients are too
eager" from "worlds are too slow".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..obs.metrics import MetricsRegistry
from .protocol import ServiceError

__all__ = ["AdmissionPolicy", "AdmissionController"]


@dataclass(frozen=True)
class AdmissionPolicy:
    max_sessions: int = 32
    max_pending_per_session: int = 4
    max_queue_depth: int = 256
    #: default per-step-request wall budget (seconds); a session's
    #: ``step_budget`` config overrides it.
    step_budget: float = 30.0
    #: expected scheduler tick period (seconds) — only used to derive
    #: the ``retry_after_ms`` hint on ``busy`` rejections.
    tick_period: float = 0.002


class AdmissionController:
    """Tracks in-flight work and refuses what would exceed the bounds."""

    def __init__(self, policy: Optional[AdmissionPolicy] = None,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.policy = policy or AdmissionPolicy()
        self._pending: Dict[str, int] = {}
        self._depth = 0
        self.rejected_total = 0
        registry = MetricsRegistry() if registry is None else registry
        self._registry = registry
        self._m_admitted = registry.counter("serve.admitted")
        self._g_depth = registry.gauge("serve.queue_depth")

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self._depth

    def pending_for(self, session_id: str) -> int:
        return self._pending.get(session_id, 0)

    def budget_for(self, session) -> float:
        """The step budget a session runs under."""
        if session.config.step_budget is not None:
            return session.config.step_budget
        return self.policy.step_budget

    def retry_after_ms(self) -> int:
        """How long a rejected client should wait before retrying.

        One scheduler tick drains at most one request per session, so
        the backlog clears in roughly ``queue_depth`` ticks; the hint
        scales with the depth that caused the rejection, floored at one
        tick.  It is advice, not a reservation — the client's retry
        policy still owns jitter and bounds.
        """
        ticks = max(1, self._depth)
        return max(1, int(ticks * self.policy.tick_period * 1000))

    # ------------------------------------------------------------------
    def admit(self, session_id: str) -> None:
        """Reserve one queue slot for ``session_id`` or raise ``busy``.

        The caller must pair every successful ``admit`` with exactly one
        :meth:`release` (the scheduler does this when the request
        resolves, times out, or fails).  ``busy`` rejections carry a
        ``retry_after_ms`` hint derived from queue depth and tick
        period.
        """
        hint = {"retry_after_ms": self.retry_after_ms()}
        if self._depth >= self.policy.max_queue_depth:
            self._reject("queue_full")
            raise ServiceError(
                "busy", f"service queue full "
                        f"({self.policy.max_queue_depth} requests)",
                extra=hint)
        if self._pending.get(session_id, 0) >= \
                self.policy.max_pending_per_session:
            self._reject("session_backlog")
            raise ServiceError(
                "busy", f"session {session_id} already has "
                        f"{self.policy.max_pending_per_session} requests "
                        f"queued", extra=hint)
        self._pending[session_id] = self._pending.get(session_id, 0) + 1
        self._depth += 1
        self._m_admitted.inc()
        self._g_depth.set(self._depth)

    def release(self, session_id: str) -> None:
        count = self._pending.get(session_id, 0)
        if count <= 1:
            self._pending.pop(session_id, None)
        else:
            self._pending[session_id] = count - 1
        self._depth = max(0, self._depth - 1)
        self._g_depth.set(self._depth)

    def _reject(self, reason: str) -> None:
        self.rejected_total += 1
        self._registry.counter("serve.rejected", reason=reason).inc()
