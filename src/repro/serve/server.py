"""The asyncio simulation service: sessions behind an NDJSON socket.

:class:`SimulationService` wires the pieces together — a
:class:`~repro.serve.session.SessionManager` (the session table), an
:class:`~repro.serve.admission.AdmissionController` (bounded queues),
a :class:`~repro.serve.scheduler.BatchScheduler` (fixed-tick dispatch
over a worker pool), and an optional
:class:`~repro.serve.resilience.JournalStore` (crash durability) —
and speaks the :mod:`~repro.serve.protocol` over TCP or a UNIX socket
through the shared :class:`~repro.serve.frontend.FrameServer`.  Every
request, batch, eviction and recovery is counted through the front
end's observer and, when that observer is a caller's tracer, streamed
as schema-v6 ``serve.*`` events alongside the ordinary step telemetry.

Ops that touch a session's world (``step``, ``snapshot``, ``restore``)
are serialized through the scheduler so they always observe a step
boundary; control-plane ops (``create``, ``close``, ``ping``,
``stats``) run directly on the event loop.

Crash safety: with ``journal_dir`` set, :meth:`SimulationService.start`
replays every journal on disk and reinstalls the sessions it finds —
digest-verified, so a recovered world is bit-identical to the one that
was journaled or it is reported as failed.  Mutating requests that
carry a client ``id`` are idempotent: a retry of an already-executed
``(session, id)`` pair replays the recorded response (marked
``"replayed": true``) instead of stepping the world twice — which is
what makes the client's retry-after-reconnect loop safe.

Shutdown is a *drain*, not a teardown: :meth:`SimulationService.drain`
stops accepting connections, answers new work with a retryable
``draining`` error, lets in-flight batches complete, writes a final
journal entry for every live session, and only then stops — so a
SIGTERM'd service restarts with zero session loss.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .admission import AdmissionController, AdmissionPolicy
from .frontend import FrameServer
from .protocol import (
    GATEWAY_OPS,
    PROTOCOL_VERSION,
    ServiceError,
    ok_response,
)
from .resilience import JournalStore
from .scheduler import BatchScheduler
from .session import SessionConfig, SessionManager

__all__ = ["ServiceConfig", "SimulationService", "serve_forever"]

#: Replayable responses retained for idempotent retry, service-wide.
REPLAY_CACHE_SIZE = 1024

#: Served design-query payloads retained, keyed on the canonical query.
DESIGN_CACHE_SIZE = 128


@dataclass(frozen=True)
class ServiceConfig:
    """Everything ``python -m repro serve`` exposes as flags."""

    host: str = "127.0.0.1"
    port: int = 7070
    #: serve on a UNIX socket instead of TCP when set
    unix_path: Optional[str] = None
    max_sessions: int = 32
    workers: Optional[int] = None
    batch_window: float = 0.002
    max_pending_per_session: int = 4
    max_queue_depth: int = 256
    step_budget: float = 30.0
    #: directory for per-session snapshot journals; None disables
    #: durability (sessions die with the process)
    journal_dir: Optional[str] = None
    #: steps a session may advance before its next journal entry
    journal_every: int = 32
    #: seconds the drain path waits for in-flight batches
    drain_grace: float = 10.0
    #: permit fault-drill session fields (inject_rate, chaos_slow_*)
    allow_chaos: bool = False
    #: coalesce compatible same-tick step requests into one vectorized
    #: :class:`~repro.physics.WorldBatch` pass (bit-identical)
    fleet_step: bool = True


class SimulationService(FrameServer):
    """Session manager + admission + scheduler behind one socket."""

    # Gateway ops keep their ``bad_request`` answer while draining.
    draining_ops = frozenset(("ping", "stats", "close") + GATEWAY_OPS)
    kind = "service"

    def __init__(self, config: Optional[ServiceConfig] = None,
                 observer=None) -> None:
        super().__init__(config or ServiceConfig(), observer)
        self.journal = (JournalStore(self.config.journal_dir,
                                     on_error=self._journal_failed)
                        if self.config.journal_dir else None)
        #: the event loop serving requests, set by :meth:`_open`
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.manager = SessionManager(self.config.max_sessions,
                                      observer=self.observer,
                                      journal=self.journal)
        self.admission = AdmissionController(
            AdmissionPolicy(
                max_sessions=self.config.max_sessions,
                max_pending_per_session=self.config.max_pending_per_session,
                max_queue_depth=self.config.max_queue_depth,
                step_budget=self.config.step_budget,
                tick_period=max(self.config.batch_window, 0.001),
            ),
            registry=self.registry)
        self.scheduler = BatchScheduler(
            self.manager, self.admission, workers=self.config.workers,
            batch_window=self.config.batch_window,
            journal_every=self.config.journal_every,
            incidents=self.incidents,
            fleet_step=self.config.fleet_step)
        self._replay: "OrderedDict" = OrderedDict()
        #: canonical query key -> design payload (LRU, single-flight)
        self._design_cache: "OrderedDict" = OrderedDict()
        self._design_inflight: dict = {}
        self.designs_total = 0
        self.design_cache_hits = 0
        #: per-journal recovery summaries from the last :meth:`start`
        self.recovered: List[dict] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def _open(self) -> None:
        """Recover journaled sessions and start ticking."""
        self._loop = asyncio.get_running_loop()
        if self.journal is not None:
            self.recovered = self.manager.recover_from(self.journal)
            for entry in self.recovered:
                if not entry.get("ok"):
                    self.incidents.detection(
                        entry.get("step") or 0, "serve",
                        f"journal recovery failed for "
                        f"{entry['session']}: {entry.get('error')}")
        self.scheduler.start()

    def _journal_failed(self, session_id: str, exc: OSError,
                        first: bool) -> None:
        """A journal write failed (called on the journal's writer
        thread): count it, and record an incident on a session's first
        failure, both on the event loop that owns the registry and the
        incident log."""
        def note():
            self.registry.counter("serve.journal.append_errors").inc()
            if first:
                self.incidents.detection(
                    0, "serve",
                    f"journal write for {session_id} failed "
                    f"({type(exc).__name__}: {exc}); the session is no "
                    f"longer durable")

        # A loop already closed has nobody left to tell.
        with contextlib.suppress(RuntimeError):
            self._loop.call_soon_threadsafe(note)

    def _banner(self) -> List[str]:
        lines = [f"listening on {self._where()} "
                 f"(max {self.config.max_sessions} sessions, "
                 f"{self.scheduler.workers} workers)"]
        recovered_ok = [r for r in self.recovered if r.get("ok")]
        if self.recovered:
            failed = len(self.recovered) - len(recovered_ok)
            lines.append(
                f"recovered {len(recovered_ok)} session(s) from "
                f"{self.config.journal_dir}"
                + (f" ({failed} failed digest/rebuild)" if failed else ""))
        return lines

    def _live_sessions(self) -> int:
        return len(self.manager)

    async def _drain_work(self) -> Tuple[int, bool]:
        """Let in-flight batches finish, then journal every live session."""
        completed = await self.scheduler.quiesce(
            timeout=self.config.drain_grace)
        journaled = 0
        for session in self.manager.sessions():
            if session.state == "active" and \
                    self.manager.journal_session(session):
                journaled += 1
        if self.journal is not None:
            self.journal.flush()
        return journaled, completed

    async def _close(self) -> None:
        await self.scheduler.stop()
        # Journals survive close_all: stopping the service must leave
        # every session recoverable by the next one.
        self.manager.close_all()
        if self.journal is not None:
            self.journal.close()

    # ------------------------------------------------------------------
    def _replay_key(self, op: str, frame: dict):
        """Cache key for idempotent retry, or ``None``.

        Only ops that mutate a session are cached — a replayed ``step``
        must not advance the world a second time.  Reads (``snapshot``,
        ``stats``, ``ping``) are naturally idempotent.
        """
        rid = frame.get("id")
        if rid is None or op not in ("step", "restore", "close"):
            return None
        session = frame.get("session")
        if not isinstance(session, str):
            return None
        return (session, str(rid))

    def _remember(self, key, response: dict) -> None:
        self._replay[key] = dict(response)
        while len(self._replay) > REPLAY_CACHE_SIZE:
            self._replay.popitem(last=False)

    async def _execute(self, op: str, frame: dict,
                       connection: dict) -> dict:
        key = self._replay_key(op, frame)
        if key is not None:
            cached = self._replay.get(key)
            if cached is not None:
                self.registry.counter("serve.replays").inc()
                response = dict(cached)
                response["replayed"] = True
                return response
        # After the replay lookup: a retry of work that already ran
        # gets its answer even from a draining service.
        self._refuse_while_draining(op)
        response = await self._execute_op(op, frame)
        if key is not None:
            self._remember(key, response)
        return response

    async def _execute_op(self, op: str, frame: dict) -> dict:
        if op == "ping":
            return ok_response(frame, protocol=PROTOCOL_VERSION,
                               server="repro-serve",
                               sessions=len(self.manager),
                               draining=self._draining)
        if op == "create":
            config = SessionConfig.from_frame(
                frame, allow_chaos=self.config.allow_chaos)
            # The sharded gateway assigns globally-unique ids up front
            # so a session keeps its identity across shard migrations.
            session = self.manager.create(config,
                                          session_id=frame.get("session_id"))
            return ok_response(frame, **session.describe())
        if op == "stats":
            return ok_response(frame, **self._stats())
        if op == "design":
            return await self._design(frame)
        if op in GATEWAY_OPS:
            raise ServiceError(
                "bad_request",
                f"op {op!r} is answered by the sharded gateway "
                f"(repro serve --shards N), not a single-process server")

        session = self.manager.get(frame["session"])
        if op == "close":
            closed = self.manager.close(session.id)
            return ok_response(frame, session=closed.id,
                               steps_run=closed.steps_run)
        if op == "step":
            steps = int(frame.get("steps", 1))
            result = await self.scheduler.submit(
                session, lambda: session.step(steps), steps=steps)
            return ok_response(frame, **result)
        if op == "snapshot":
            result = await self.scheduler.submit(session, session.snapshot)
            result = dict(result)
            result["data"] = base64.b64encode(
                result.pop("data")).decode("ascii")
            return ok_response(frame, **result)
        if op == "restore":
            data = frame.get("data")
            if data is not None:
                try:
                    data = base64.b64decode(data, validate=True)
                except (ValueError, TypeError):
                    raise ServiceError(
                        "bad_request",
                        "'data' must be base64 snapshot bytes") from None
            precisions = frame.get("precisions")

            def _restore() -> dict:
                result = session.restore(frame.get("snapshot"), data,
                                         precisions)
                # Re-journal before the reply: the previous mark
                # describes a pre-restore trajectory, so a crash, a
                # rung-1 rollback or a respawn after the reply would
                # otherwise resurrect state the client just rewound
                # away.  This is also what makes a migrated session
                # durable on its target shard from the first request.
                # The flush waits in the batch's worker thread, so the
                # event loop, and with it which requests share the next
                # tick, is not held up.
                if self.manager.journal_session(session):
                    self.journal.flush()
                return result

            result = await self.scheduler.submit(session, _restore)
            return ok_response(frame, **result)
        raise ServiceError("unknown_op", f"unhandled op {op!r}")

    # ------------------------------------------------------------------
    # Design-space queries (schema v6)
    # ------------------------------------------------------------------
    async def _design(self, frame: dict) -> dict:
        """One design-space query: canonicalize, admit, search, cache.

        The search itself is CPU-bound and runs in a worker thread (its
        sweep fans out over processes), so the event loop keeps
        answering cheap ops.  Results are cached by canonical query key
        — a repeated query is answered without re-searching, and
        concurrent duplicates coalesce onto one in-flight search.
        Invalid queries surface as ``bad_request`` with the same typed
        detail the CLI prints.
        """
        from ..design import DesignQuery, DesignSpaceError, run_search

        start = time.perf_counter()
        try:
            query = DesignQuery.from_mapping(frame["query"])
        except DesignSpaceError as exc:
            raise ServiceError(
                "bad_request", f"design query: {exc.detail}") from None
        key = query.cache_key()
        self.designs_total += 1

        def _respond(payload: dict, cached: bool) -> dict:
            wall = time.perf_counter() - start
            if cached:
                self.design_cache_hits += 1
            self.observer.serve_design(key, cached, True,
                                       payload["result"]["front_size"],
                                       wall)
            return ok_response(frame, cached=cached, design=payload)

        cached = self._design_cache.get(key)
        if cached is not None:
            self._design_cache.move_to_end(key)
            return _respond(cached, True)
        inflight = self._design_inflight.get(key)
        if inflight is not None:
            # Coalesce onto the running search; this request triggered
            # no new work, so it counts as cache-served.
            payload = await asyncio.shield(inflight)
            return _respond(payload, True)

        # Admission: design searches share the bounded-queue budget so
        # a burst of distinct queries backpressures with ``busy``
        # instead of buffering unbounded CPU work.
        admit_key = f"design:{key}"
        self.admission.admit(admit_key)
        loop = asyncio.get_running_loop()
        future = loop.create_future()
        self._design_inflight[key] = future
        try:
            result = await loop.run_in_executor(
                None,
                lambda: run_search(query, workers=self.config.workers))
            payload = result.payload()
            self._design_cache[key] = payload
            while len(self._design_cache) > DESIGN_CACHE_SIZE:
                self._design_cache.popitem(last=False)
            future.set_result(payload)
        except BaseException as exc:
            future.set_exception(exc)
            # Coalesced waiters got the exception; nobody else will.
            if not future.cancelled():
                with contextlib.suppress(BaseException):
                    future.exception()
            self.observer.serve_design(key, False, False, 0,
                                       time.perf_counter() - start)
            raise
        finally:
            self._design_inflight.pop(key, None)
            self.admission.release(admit_key)
        return _respond(payload, False)

    def _stats(self) -> dict:
        return {
            "uptime": round(time.time() - self.started_at, 3),
            "sessions": [s.describe() for s in self.manager.sessions()],
            "active_sessions": len(self.manager),
            "created_total": self.manager.created_total,
            "evicted_total": self.manager.evicted_total,
            "respawned_total": self.manager.respawned_total,
            "recovered_total": self.manager.recovered_total,
            "recoveries": self.scheduler.recoveries_total,
            "journal_writes": self.scheduler.journal_writes,
            "journal_append_errors": (self.journal.append_errors
                                      if self.journal is not None else 0),
            "incidents": len(self.incidents.records),
            "draining": self._draining,
            "requests_total": self.requests_total,
            "designs_total": self.designs_total,
            "design_cache_hits": self.design_cache_hits,
            "design_cache_size": len(self._design_cache),
            "queue_depth": self.admission.queue_depth,
            "rejected_total": self.admission.rejected_total,
            "batches": self.scheduler.batches_dispatched,
            "steps_dispatched": self.scheduler.steps_dispatched,
            "fleet_batches": self.scheduler.fleet_batches,
            "fleet_sessions": self.scheduler.fleet_sessions,
            "workers": self.scheduler.workers,
            "metrics": self.registry.snapshot(),
        }


async def serve_forever(config: ServiceConfig, observer=None) -> None:
    """Run the service until SIGTERM/SIGINT, then drain gracefully
    (the CLI entry point; see :meth:`FrameServer.run_until_signal`)."""
    await SimulationService(config, observer=observer).run_until_signal()
