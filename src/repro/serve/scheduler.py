"""Fixed-tick batch dispatch of session work over a worker pool.

Concurrent clients produce a stream of step/snapshot/restore requests.
Dispatching each one the moment it arrives would interleave worlds
arbitrarily and thrash the pool; instead the scheduler runs a **tick
loop**: it sleeps until work exists, waits one ``batch_window`` for
stragglers to coalesce, then dispatches one batch — at most one request
per session, fanned across a thread pool sized by the same
``workers``/``REPRO_WORKERS`` resolution the sweep engine uses
(:func:`repro.perf.sweep.resolve_workers`).  The batch is a barrier:
the next tick starts when every member resolved, which keeps
per-session request order trivially correct (a session's second queued
request can only run in a later tick) and makes the ``serve.batch``
trace event a meaningful unit of service time.

Threads, not processes: worlds are live object graphs that do not cross
a pickle boundary, and the step loop spends its time in numpy kernels
that release the GIL.

Step requests of compatible sessions coalesce into one fleet task
(:class:`~repro.physics.WorldBatch`); a solo request is a group of one,
so one coroutine runs, times out, respawns and answers both.

A request that exceeds its admission budget is abandoned — its future
fails with ``budget_exceeded``.  When the session has a journal mark
the scheduler *respawns* it (fresh world rewound to the last journaled
checkpoint, digest-verified) so a single stuck step does not lose the
session; otherwise it is evicted with reason ``budget`` (a step that
raises is evicted with reason ``error``).  Python cannot interrupt the
worker thread, but the retired session is no longer active, so the
worker stops at its next step boundary and frees its pool slot.

Durability rides the tick loop: after each batch barrier the scheduler
journals every batched session that has advanced ``journal_every``
steps since its last entry through
:meth:`~repro.serve.session.SessionManager.journal_session` —
checkpoint capture happens here on the event loop (the session is
guaranteed idle at the barrier and captures are deep copies), while
serialization and the disk append run on the journal store's writer
thread, off the hot path.  Recovery-ladder events recorded by sessions
on worker threads are drained here too and reported through the
observer's ``serve_recover`` hook, keeping all observer calls on the
loop thread.
"""

from __future__ import annotations

import asyncio
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..perf.sweep import resolve_workers
from .protocol import ServiceError

__all__ = ["BatchScheduler", "WorkItem"]


def _fleet_of(group):
    """The :class:`~repro.physics.WorldBatch` of a planned fleet, or
    ``None`` when a member closed after planning or the worlds cannot
    form one (the group then runs as solo items)."""
    from ..physics.batch import BatchIncompatible, WorldBatch

    if any(item.session.state != "active" for item in group):
        return None
    try:
        return WorldBatch([item.session.world for item in group])
    except BatchIncompatible:
        return None


def _fleet_step_fn(fleet, sessions, steps: int):
    """Advance a fleet on one worker thread and describe its members.

    Bit-identical to per-session stepping, but each phase runs as one
    stacked-array pass over every member world.  Like
    :meth:`~repro.serve.session.Session.step`, it stops at the next step
    boundary once no member is active (the fleet overran its budget and
    every member was respawned or evicted).
    """
    for _ in range(steps):
        fleet.step()
        if all(session.state != "active" for session in sessions):
            raise ServiceError("session_closed",
                               "every session of the fleet is retired")
    results = []
    for session in sessions:
        session.fleet_step(steps)
        results.append(session.describe())
    return results


@dataclass
class WorkItem:
    """One queued unit of session work."""

    session: object
    fn: Callable[[], object]
    #: simulation steps this item advances (0 for snapshot/restore)
    steps: int
    budget: float
    future: "asyncio.Future" = field(repr=False, default=None)
    enqueued_at: float = 0.0


class BatchScheduler:
    """Coalesces queued work into per-tick batches."""

    def __init__(self, manager, admission, workers: Optional[int] = None,
                 batch_window: float = 0.002, journal_every: int = 32,
                 incidents=None, fleet_step: bool = True) -> None:
        self.manager = manager
        self.admission = admission
        #: coalesce compatible same-tick step requests into one
        #: vectorized :class:`~repro.physics.WorldBatch` pass
        self.fleet_step = fleet_step
        #: optional :class:`~repro.robustness.IncidentLog`
        self.incidents = incidents
        self.workers = resolve_workers(workers)
        self.batch_window = batch_window
        #: counts and reports through the session table's observer
        self.observer = manager.observer
        self._m_fleet_batches = self.observer.registry.counter(
            "serve.fleet.batches")
        self._m_fleet_sessions = self.observer.registry.counter(
            "serve.fleet.sessions")
        #: steps a session may advance before its next journal entry
        self.journal_every = max(1, journal_every)
        self._queue: List[WorkItem] = []
        self._wakeup: Optional[asyncio.Event] = None
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-serve")
        self._task: Optional[asyncio.Task] = None
        self._in_flight = 0
        self._idle: Optional[asyncio.Event] = None
        self.batches_dispatched = 0
        self.steps_dispatched = 0
        self.journal_writes = 0
        self.recoveries_total = 0
        self.fleet_batches = 0
        self.fleet_sessions = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin the tick loop on the running event loop."""
        self._wakeup = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="repro-serve-scheduler")

    async def quiesce(self, timeout: float = 30.0) -> bool:
        """Wait until the queue is empty and no batch is in flight.

        The drain path calls this after admission has been shut off, so
        the backlog is finite.  Returns ``False`` on timeout.
        """
        deadline = time.perf_counter() + timeout
        while self._queue or self._in_flight:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                return False
            try:
                await asyncio.wait_for(self._idle.wait(),
                                       timeout=min(remaining, 0.05))
            except asyncio.TimeoutError:
                pass
        return True

    async def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
        for item in self._queue:
            if not item.future.done():
                # "draining" (not "session_closed"): the session still
                # exists and is journaled — a resilient client should
                # retry against the restarted service.
                item.future.set_exception(
                    ServiceError("draining", "service stopping"))
            self.admission.release(item.session.id)
        self._queue.clear()
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    async def submit(self, session, fn: Callable[[], object],
                     steps: int = 0):
        """Queue one unit of work for a session and await its result.

        Admission control runs *here*, before anything is queued — a
        ``busy`` rejection therefore never consumes queue space.
        """
        self.admission.admit(session.id)
        item = WorkItem(
            session=session, fn=fn, steps=steps,
            budget=self.admission.budget_for(session),
            future=asyncio.get_running_loop().create_future(),
            enqueued_at=time.perf_counter())
        self._queue.append(item)
        self._wakeup.set()
        return await item.future

    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            await self._wakeup.wait()
            self._wakeup.clear()
            if not self._queue:
                continue
            # Let one window of stragglers coalesce into this tick.
            if self.batch_window > 0:
                await asyncio.sleep(self.batch_window)
            batch = self._take_batch()
            if batch:
                await self._dispatch(batch)
            if self._queue:
                # Leftovers (second requests for batched sessions, or
                # arrivals during dispatch) seed the next tick.
                self._wakeup.set()

    def _take_batch(self) -> List[WorkItem]:
        """At most one queued item per session, preserving FIFO order."""
        batch: List[WorkItem] = []
        seen: set = set()
        remaining: List[WorkItem] = []
        for item in self._queue:
            if item.session.id in seen:
                remaining.append(item)
            else:
                seen.add(item.session.id)
                batch.append(item)
        self._queue = remaining
        return batch

    def _plan(self, batch: List[WorkItem]) -> List[List[WorkItem]]:
        """Split a tick's batch into run groups: solo items, then fleets.

        Step requests whose sessions share a :meth:`fleet_key` and step
        count coalesce into one fleet group; everything else
        (snapshots, restores, guarded or otherwise ineligible sessions,
        groups of one) is a group of one.
        """
        if not self.fleet_step:
            return [[item] for item in batch]
        groups: Dict[tuple, List[WorkItem]] = {}
        singles: List[List[WorkItem]] = []
        for item in batch:
            key = item.session.fleet_key() if item.steps > 0 else None
            if key is None:
                singles.append([item])
            else:
                groups.setdefault((key, item.steps), []).append(item)
        fleets = []
        for members in groups.values():
            if len(members) >= 2:
                fleets.append(members)
            else:
                singles.append(members)
        return singles + fleets

    async def _dispatch(self, batch: List[WorkItem]) -> None:
        start = time.perf_counter()
        self._in_flight = len(batch)
        self._idle.clear()
        try:
            await asyncio.gather(*(self._run_group(group)
                                   for group in self._plan(batch)))
        finally:
            self._in_flight = 0
            self._idle.set()
        wall = time.perf_counter() - start
        self.batches_dispatched += 1
        steps = sum(item.steps for item in batch)
        self.steps_dispatched += steps
        self.observer.serve_batch(
            batch=self.batches_dispatched, sessions=len(batch),
            steps=steps, wall=wall)
        self._after_batch(batch)

    def _after_batch(self, batch: List[WorkItem]) -> None:
        """Post-barrier housekeeping: recovery events and journaling.

        Runs on the event loop while every batched session is idle —
        the only point where a session's world can be captured and its
        worker-thread recovery records read without a lock.
        """
        for item in batch:
            # The table entry may be a respawned replacement; events
            # and journal marks belong to whatever is live now.
            session = self.manager._sessions.get(item.session.id,
                                                 item.session)
            for event in session.drain_recovery_events():
                self._emit_recovery(event)
            if item.session is not session:
                for event in item.session.drain_recovery_events():
                    self._emit_recovery(event)
            if session.state != "active" or item.steps <= 0:
                continue
            if session.steps_since_journal >= self.journal_every or \
                    session.last_journal is None:
                if self.manager.journal_session(session):
                    self.journal_writes += 1

    def _emit_recovery(self, event: dict) -> None:
        self.recoveries_total += 1
        if self.incidents is not None:
            self.incidents.recovery(
                event["step"], event["rung"], event["outcome"],
                f"session {event['session']}: {event['reason']}")
        self.observer.serve_recover(**event)

    async def _run_group(self, group: List[WorkItem]) -> None:
        """Run one group on a worker thread and answer its futures.

        A solo item runs its own ``fn``; a fleet steps its members'
        worlds as one :class:`~repro.physics.WorldBatch`
        (:func:`_fleet_step_fn`), or runs its members as solo items
        when they cannot form one.  A task that overruns its budget or
        raises leaves its worlds mid-step, so every member is respawned
        from its journal (or evicted) and answered as a failed step.
        """
        fleet = _fleet_of(group) if len(group) > 1 else None
        if fleet is None and len(group) > 1:
            await asyncio.gather(*(self._run_group([item])
                                   for item in group))
            return
        work = group[0].fn if fleet is None else functools.partial(
            _fleet_step_fn, fleet, [item.session for item in group],
            group[0].steps)
        loop = asyncio.get_running_loop()
        budget = max(item.budget for item in group)
        try:
            for item in group:
                if item.session.state != "active":
                    raise ServiceError(
                        "session_closed",
                        f"session {item.session.id} is "
                        f"{item.session.state}")
            result = await asyncio.wait_for(
                loop.run_in_executor(self._executor, work),
                timeout=budget)
            if fleet is None:
                result = [result]
            else:  # counted only once a WorldBatch has stepped
                self.fleet_batches += 1
                self.fleet_sessions += len(group)
                self._m_fleet_batches.inc()
                self._m_fleet_sessions.inc(len(group))
            for item, answer in zip(group, result):
                if not item.future.done():
                    item.future.set_result(answer)
        except asyncio.TimeoutError:
            reason = f"step budget of {budget:.3f}s exceeded"
            for item in group:
                outcome = self._respawn_or_evict(item, reason, "budget")
                _fail(item, ServiceError(
                    "budget_exceeded",
                    f"{reason}; session {item.session.id} {outcome}"))
        except ServiceError as exc:
            for item in group:
                _fail(item, exc)
        except Exception as exc:  # noqa: BLE001 - marshal to the client
            detail = f"{type(exc).__name__}: {exc}"
            for item in group:
                outcome = self._respawn_or_evict(item, detail, "error")
                if outcome.startswith("respawned"):
                    step = self.manager._sessions[
                        item.session.id].world.step_count
                    _fail(item, ServiceError(
                        "session_degraded",
                        f"step failed ({detail}); session respawned at "
                        f"journaled step {step}",
                        extra={"session": item.session.id, "step": step}))
                else:
                    _fail(item, ServiceError(
                        "internal", f"{detail}; session "
                                    f"{item.session.id} evicted"))
        finally:
            for item in group:
                self.admission.release(item.session.id)

    def _respawn_or_evict(self, item: WorkItem, reason: str,
                          eviction: str) -> str:
        """Recover a failed/stuck session from its journal, or evict it
        with reason ``eviction`` (``budget`` or ``error``).

        Returns a short outcome string for the client-facing detail.
        The respawn retires the wedged world, whose worker stops at its
        next step boundary, and installs a digest-verified replacement
        rewound to the last journal entry.
        """
        start = time.perf_counter()
        fresh = self.manager.respawn(item.session.id)
        if fresh is None:
            self.manager.evict(item.session.id, eviction)
            return "evicted"
        self._emit_recovery({
            "session": item.session.id,
            "rung": 1,
            "outcome": "respawned",
            "reason": reason,
            "wall": time.perf_counter() - start,
            "step": fresh.world.step_count,
        })
        return f"respawned at step {fresh.world.step_count}"


def _fail(item: WorkItem, error: ServiceError) -> None:
    if not item.future.done():
        item.future.set_exception(error)
