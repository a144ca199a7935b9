"""Sessions: one independently-tuned simulation per client.

A :class:`Session` owns a :class:`~repro.physics.World` plus the
per-session precision machinery the paper argues for — its own
:class:`~repro.fp.FPContext` control register and (opt-in) its own
:class:`~repro.tuning.PrecisionController` or guarded-recovery ladder.
The :class:`SessionManager` is the service's session table: create /
step / snapshot / restore / close, with snapshots stored as
:func:`~repro.robustness.serialize_checkpoint` bytes so the same blob
that restores in place can travel over the wire and seed a fresh
session bit-identically.

Resilience (this is where the paper's deception-needs-detection
argument meets the service): a ``guarded`` session steps under the
phase-boundary invariant guards with a **server-side recovery
ladder** — a step that raises, trips a guard, or blows its soft
deadline is (0) re-executed at full precision from the pre-step
checkpoint, then (1) rolled back to the session's last journal entry
(the client gets a structured ``session_degraded`` response carrying
the step it resumed at), then (2) quarantined with a ``session_lost``
response — instead of poisoning the batch or tearing down the
connection.  These are rungs of the shared
:class:`~repro.robustness.ladder.RecoveryLadder`, so a recovery buys
the same cooldown as everywhere: the next ``5 × (rung + 1)`` steps.
Every journal entry goes through :meth:`SessionManager.journal_session`,
which marks the session's step boundary in memory as its rung-1
rollback and respawn target and appends it to the manager's
:class:`~repro.serve.resilience.JournalStore` when there is one: at
create (with a store or guards), at batch barriers, after every
restore and at drain.  So every session is reconstructible after a
crash, and one whose worker thread is stuck can be *respawned* from
its last mark; the retired session stops stepping at its next step
boundary.

Threading contract: the manager's table is only mutated from the
service event loop; a session's world is only touched by one scheduler
worker at a time (the :class:`~repro.serve.scheduler.BatchScheduler`
serializes per-session work), so sessions need no locks of their own.
Recovery events recorded on a worker thread are drained by the
scheduler after the batch barrier, on the event loop.
"""

from __future__ import annotations

import hashlib
import re
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from ..fp.context import FPContext
from ..fp.rounding import FULL_PRECISION
from ..obs.tracer import Tracer
from ..robustness.checkpoint import (
    capture_world,
    deserialize_checkpoint,
    restore_world,
    serialize_checkpoint,
)
from ..robustness.guards import PhaseGuards
from ..robustness.injector import FaultInjector
from ..robustness.ladder import (
    RecoveryLadder,
    RecoveryPolicy,
    describe_failure,
)
from ..tuning import ControlledSimulation, PrecisionController
from ..workloads import build
from .protocol import ServiceError
from .resilience import SessionDegraded, SessionLost, recover_sessions

__all__ = ["SessionConfig", "Session", "SessionManager", "state_digest"]

#: Snapshots retained per session before the oldest is dropped.
MAX_SNAPSHOTS = 8

_SESSION_ID = re.compile(r"^s(\d+)$")


def state_digest(world) -> str:
    """Deterministic hex digest of the mutable simulation state.

    Two worlds on the same trajectory produce the same digest; any
    single-bit divergence in body or cloth state changes it.  This is
    the service's bit-identity check for snapshot/restore round-trips
    and for journal recovery after a restart.
    """
    bodies = world.bodies
    n = bodies.count
    h = hashlib.sha256()
    h.update(str(world.step_count).encode())
    for name in ("pos", "quat", "linvel", "angvel"):
        h.update(getattr(bodies, name)[:n].tobytes())
    for cloth in world.cloths:
        h.update(cloth.pos.tobytes())
        h.update(cloth.vel.tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class SessionConfig:
    """Everything needed to (re)build one session's world."""

    scenario: str
    scale: float = 1.0
    seed: Optional[int] = None
    precision: Dict[str, int] = field(default_factory=dict)
    mode: str = "jam"
    #: run the per-session dynamic precision controller
    adaptive: bool = False
    #: per-step wall budget override (None = service default)
    step_budget: Optional[float] = None
    #: step under phase guards with the server-side recovery ladder
    guarded: bool = False
    #: soft per-step deadline (seconds); a slower step triggers the
    #: ladder (distinct from ``step_budget``, which evicts/respawns)
    step_deadline: Optional[float] = None
    #: seeded soft-error injection rate (fault drills; requires the
    #: service's ``allow_chaos``)
    inject_rate: float = 0.0
    #: chaos drill: sleep ``chaos_slow_s`` before every Nth step
    chaos_slow_every: int = 0
    chaos_slow_s: float = 0.0

    @classmethod
    def from_frame(cls, frame: dict,
                   allow_chaos: bool = False) -> "SessionConfig":
        """Build from a ``create`` request, validating field types."""
        scenario = frame.get("scenario")
        if not isinstance(scenario, str):
            raise ServiceError("bad_request",
                               "'create' needs a string 'scenario'")
        # JSON booleans are ints to Python (isinstance(True, int)), and
        # float()/int() take them: refuse them where a number is due.
        precision = frame.get("precision") or {}
        if not isinstance(precision, dict) or not all(
                isinstance(k, str) and isinstance(v, int)
                and not isinstance(v, bool)
                for k, v in precision.items()):
            raise ServiceError(
                "bad_request",
                "'precision' must map phase names to integer bits")
        for name in ("scale", "seed", "step_budget", "step_deadline",
                     "inject_rate", "chaos_slow_every", "chaos_slow_s"):
            if isinstance(frame.get(name), bool):
                raise ServiceError(
                    "bad_request", f"'{name}' must be a number, not a "
                                   "boolean")
        for phase, bits in precision.items():
            if not 0 <= bits <= FULL_PRECISION:
                raise ServiceError(
                    "bad_request",
                    f"'precision' bits must be in [0, {FULL_PRECISION}], "
                    f"got {phase}={bits}")
        for name in ("step_budget", "step_deadline", "inject_rate",
                     "chaos_slow_s"):
            value = frame.get(name)
            if value is not None and not isinstance(value, (int, float)):
                raise ServiceError("bad_request",
                                   f"'{name}' must be a number")
        # A zero budget evicts on the first step, a zero deadline trips
        # the ladder on every step, and a negative sleep raises inside it.
        for name in ("step_budget", "step_deadline"):
            value = frame.get(name)
            if value is not None and not value > 0:
                raise ServiceError("bad_request",
                                   f"'{name}' must be > 0")
        value = frame.get("chaos_slow_s")
        if value is not None and not value >= 0:
            raise ServiceError("bad_request", "'chaos_slow_s' must be >= 0")
        if not allow_chaos and (frame.get("inject_rate")
                                or frame.get("chaos_slow_every")):
            raise ServiceError(
                "bad_request",
                "fault-drill fields (inject_rate, chaos_slow_every) "
                "need the service started with --allow-chaos")
        try:
            step_budget = frame.get("step_budget")
            step_deadline = frame.get("step_deadline")
            return cls(
                scenario=scenario,
                scale=float(frame.get("scale", 1.0)),
                seed=(int(frame["seed"]) if frame.get("seed") is not None
                      else None),
                precision={k: v for k, v in precision.items()
                           if v < FULL_PRECISION},
                mode=str(frame.get("mode", "jam")),
                adaptive=bool(frame.get("adaptive", False)),
                step_budget=(float(step_budget)
                             if step_budget is not None else None),
                guarded=bool(frame.get("guarded", False)),
                step_deadline=(float(step_deadline)
                               if step_deadline is not None else None),
                inject_rate=float(frame.get("inject_rate", 0.0) or 0.0),
                chaos_slow_every=int(frame.get("chaos_slow_every", 0)
                                     or 0),
                chaos_slow_s=float(frame.get("chaos_slow_s", 0.0)
                                   or 0.0),
            )
        except (TypeError, ValueError) as exc:
            raise ServiceError("bad_request", str(exc)) from None

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe form for the journal's config record: every field,
        so :meth:`from_dict` rebuilds an equal config."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SessionConfig":
        """Rebuild from a journal config record (unknown keys ignored)."""
        fields = {f: data[f] for f in cls.__dataclass_fields__
                  if f in data}
        precision = fields.get("precision") or {}
        fields["precision"] = {str(k): int(v)
                               for k, v in precision.items()}
        return cls(**fields)


class Session:
    """One live simulation: world + per-session precision control."""

    def __init__(self, session_id: str, config: SessionConfig) -> None:
        self.id = session_id
        self.config = config
        ctx = FPContext(dict(config.precision), mode=config.mode,
                        census=False)
        # UnknownScenarioError propagates to the create handler, which
        # maps it onto a bad_request response listing the valid names.
        self.world = build(config.scenario, ctx=ctx, scale=config.scale,
                           seed=config.seed)
        self.controller = None
        if config.adaptive and config.precision:
            self.controller = PrecisionController(ctx,
                                                  dict(config.precision))
        self.guards = None
        self.injector = None
        #: steps this session; None steps the bare world
        self.ladder: Optional[RecoveryLadder] = None
        if config.guarded or config.inject_rate > 0:
            self.guards = PhaseGuards()
            if config.inject_rate > 0:
                self.injector = FaultInjector(rate=config.inject_rate,
                                              seed=config.seed or 0)
            # One retry, then the journal (not a checkpoint ring) is the
            # rung-1 rollback target.
            self.ladder = RecoveryLadder(
                self.world,
                RecoveryPolicy(max_retries=1, rollback_depth=0),
                guards=self.guards, injector=self.injector,
                controller=self.controller,
                trigger=(self._deadline
                         if config.step_deadline is not None else None),
                rungs=(self._rollback, self._quarantine),
                on_event=self._event)
        elif self.controller is not None:
            self.ladder = ControlledSimulation(self.world,
                                               self.controller).ladder
        self.state = "active"
        self.steps_run = 0
        self._snapshots: "OrderedDict[str, bytes]" = OrderedDict()
        self._snapshot_seq = 0
        #: (WorldCheckpoint, step, state_digest) of the last journal
        #: entry — the rung-1 rollback target and the respawn substrate.
        self._last_journal: Optional[Tuple] = None
        self.steps_since_journal = 0
        self._recovery_events: List[dict] = []
        self._chaos_counter = 0
        self._slept = 0.0
        self._detected_at = 0.0

    # ------------------------------------------------------------------
    def step(self, steps: int = 1) -> dict:
        """Advance ``steps`` timesteps; runs on a scheduler worker.

        Raises ``session_closed`` at the first step boundary at which
        the session is not active: a worker whose request overran its
        budget stops there once the scheduler has retired the session.
        """
        self._require_active()
        stepper = self.world if self.ladder is None else self.ladder
        for _ in range(steps):
            if self.guards is not None:
                self._chaos_delay()
            stepper.step()
            self.steps_run += 1
            self.steps_since_journal += 1
            self._require_active()
        return self.describe()

    def _require_active(self) -> None:
        if self.state != "active":
            raise ServiceError("session_closed",
                               f"session {self.id} is {self.state}")

    def fleet_key(self) -> Optional[Tuple]:
        """Coalescing key for fleet-batched stepping (None = ineligible).

        Sessions sharing a key run their queued steps as one
        :class:`~repro.physics.WorldBatch` — a single vectorized pass
        over every member world.  Anything stateful beyond the plain
        step loop (guards, adaptive control, fault drills) opts out, as
        does any world the batch layer itself cannot take
        (:func:`~repro.physics.fleet_ineligibility`).  The key reads
        the live precision register, which a ``restore`` with
        ``precisions`` rewrites, as the batch layer's own check does.
        """
        config = self.config
        if (self.state != "active" or config.adaptive or config.guarded
                or config.inject_rate > 0 or config.chaos_slow_every > 0):
            return None
        from ..physics.batch import fleet_ineligibility

        if fleet_ineligibility(self.world) is not None:
            return None
        ctx = self.world.ctx
        return (config.scenario, config.scale, ctx.mode,
                tuple(sorted(ctx.phase_precision.items())))

    def fleet_step(self, steps: int) -> None:
        """Bookkeeping for steps advanced by a fleet batch."""
        self.steps_run += steps
        self.steps_since_journal += steps

    def describe(self) -> dict:
        records = self.world.monitor.records
        return {
            "session": self.id,
            "step": self.world.step_count,
            "energy": (round(float(records[-1].total), 6)
                       if records else None),
            "contacts": int(self.world.last_contact_count),
            "digest": state_digest(self.world),
            "state": self.state,
        }

    # ------------------------------------------------------------------
    # The server-side recovery ladder (guarded sessions)
    # ------------------------------------------------------------------
    def _chaos_delay(self) -> None:
        """Fault drill: sleep before every Nth step; the deadline counts it."""
        self._chaos_counter += 1
        every = self.config.chaos_slow_every
        start = time.perf_counter()
        if every > 0 and self._chaos_counter % every == 0:
            time.sleep(self.config.chaos_slow_s)
        self._slept = time.perf_counter() - start

    def _deadline(self, primary: bool, elapsed: float) -> List[str]:
        """Trigger: a first attempt ran long (a retry must make progress)."""
        elapsed += self._slept
        deadline = self.config.step_deadline
        if primary and elapsed > deadline:
            return [f"step deadline exceeded "
                    f"({elapsed:.4f}s > {deadline:.4f}s)"]
        return []

    def _rollback(self, failure: list) -> list:
        """Rung 1: roll back to the last journal entry; the client is
        told the step it resumed at and owns the replay."""
        if self._last_journal is None:
            return failure
        checkpoint, journal_step, _ = self._last_journal
        restore_world(self.world, checkpoint)
        self.ladder.recovered(1)
        self._event(journal_step, 1, "degraded", "", failure)
        raise SessionDegraded(
            self.id, journal_step,
            f"rolled back to journaled step {journal_step} "
            f"after: {describe_failure(failure)}")

    def _quarantine(self, failure: list) -> list:
        """Rung 2: quarantine the session instead of poisoning the batch."""
        self.state = "quarantined"
        self._event(self.ladder.failed_step, 2, "lost", "", failure)
        raise SessionLost(self.id,
                          f"ladder exhausted: {describe_failure(failure)}")

    def _event(self, step: int, rung: int, outcome: str, detail: str,
               failure: list) -> None:
        """Record a ladder transition for the scheduler to drain."""
        if outcome == "detected":
            self._detected_at = time.perf_counter()
        elif outcome != "failed":  # a failed retry escalates; no event
            self._recovery_events.append({
                "session": self.id,
                "rung": rung,
                "outcome": outcome,
                "reason": describe_failure(failure),
                "wall": time.perf_counter() - self._detected_at,
                "step": step,
            })

    def drain_recovery_events(self) -> List[dict]:
        """Hand recorded ladder transitions to the scheduler (post-batch,
        on the event loop) for tracing/metrics."""
        events, self._recovery_events = self._recovery_events, []
        return events

    # ------------------------------------------------------------------
    # Journal integration
    # ------------------------------------------------------------------
    def capture_for_journal(self) -> Tuple:
        """``(checkpoint, step, state_digest)`` at the current boundary."""
        checkpoint = capture_world(self.world)
        return checkpoint, self.world.step_count, state_digest(self.world)

    def mark_journaled(self, checkpoint, step: int, state: str) -> None:
        """Record the checkpoint that now backs rung-1 rollback/respawn."""
        self._last_journal = (checkpoint, step, state)
        self.steps_since_journal = 0

    @property
    def last_journal(self) -> Optional[Tuple]:
        return self._last_journal

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Capture the current step boundary as wire-ready bytes."""
        self._require_active()
        blob = serialize_checkpoint(capture_world(self.world))
        self._snapshot_seq += 1
        snap_id = f"{self.id}.c{self._snapshot_seq}"
        self._snapshots[snap_id] = blob
        while len(self._snapshots) > MAX_SNAPSHOTS:
            self._snapshots.popitem(last=False)
        return {
            "session": self.id,
            "snapshot": snap_id,
            "step": self.world.step_count,
            "bytes": len(blob),
            "data": blob,
            "precisions": dict(self.world.ctx.phase_precision),
        }

    def restore(self, snapshot_id: Optional[str] = None,
                data: Optional[bytes] = None,
                precisions: Optional[Dict[str, int]] = None) -> dict:
        """Rewind to a held snapshot id, or to caller-supplied bytes."""
        self._require_active()
        if data is None:
            if snapshot_id is None:
                raise ServiceError("bad_request",
                                   "restore needs 'snapshot' or 'data'")
            data = self._snapshots.get(snapshot_id)
            if data is None:
                raise ServiceError("unknown_snapshot",
                                   f"no snapshot {snapshot_id!r} held "
                                   f"for session {self.id}")
        try:
            checkpoint = deserialize_checkpoint(data)
        except ValueError as exc:
            raise ServiceError("bad_request", str(exc)) from None
        n_bodies = len(checkpoint.body_state["pos"])
        if n_bodies != self.world.bodies.count + 1 or \
                len(checkpoint.cloth_state) != len(self.world.cloths):
            raise ServiceError(
                "bad_request",
                "snapshot does not match this session's scenario/scale")
        restore_world(self.world, checkpoint)
        if precisions:
            for phase, bits in precisions.items():
                self.world.ctx.set_precision(phase, int(bits))
        return self.describe()

    def close(self, state: str = "closed") -> None:
        self.state = state
        self._snapshots.clear()


class SessionManager:
    """The session table: lifecycle, capacity, journals, recovery."""

    def __init__(self, max_sessions: int = 32,
                 observer: Optional[Tracer] = None,
                 journal=None) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = max_sessions
        self.observer = observer or Tracer()
        #: optional :class:`~repro.serve.resilience.JournalStore`
        self.journal = journal
        self._sessions: Dict[str, Session] = {}
        self._seq = 0
        self.created_total = 0
        self.evicted_total = 0
        self.respawned_total = 0
        self.recovered_total = 0
        self._g_active = self.observer.registry.gauge("serve.sessions")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._sessions)

    def sessions(self) -> List[Session]:
        return list(self._sessions.values())

    def create(self, config: SessionConfig,
               session_id: Optional[str] = None) -> Session:
        if len(self._sessions) >= self.max_sessions:
            raise ServiceError(
                "server_full",
                f"session table full ({self.max_sessions}); close a "
                f"session or raise --max-sessions")
        if session_id is None:
            self._seq += 1
            session_id = f"s{self._seq}"
        elif session_id in self._sessions:
            # Gateway-assigned ids must never silently replace a live
            # session (a routing bug would otherwise corrupt both).
            raise ServiceError(
                "bad_request", f"session id {session_id!r} already exists")
        session = Session(session_id, config)
        self._sessions[session.id] = session
        self.created_total += 1
        self._track()
        if self.journal is not None:
            self.journal.open_session(
                session.id, {"session": session.id,
                             "config": config.to_dict()})
        # Seed the rollback/respawn substrate: guarded sessions always
        # get a mark; a store makes every session durable from create.
        if self.journal is not None or session.guards is not None:
            self.journal_session(session)
        return session

    def journal_session(self, session: Session) -> bool:
        """Mark the session's current step boundary as its rung-1
        rollback and respawn target, and append it to the store.

        Runs where the session is idle: on the event loop at a batch
        barrier, or on the worker that just ran its request.  Returns
        whether an entry was appended (``False`` without a store).
        """
        checkpoint, step, state = session.capture_for_journal()
        session.mark_journaled(checkpoint, step, state)
        if self.journal is None:
            return False
        self.journal.append_snapshot(session.id, checkpoint, step, state)
        return True

    def get(self, session_id: str) -> Session:
        session = self._sessions.get(session_id)
        if session is None:
            raise ServiceError("unknown_session",
                               f"no session {session_id!r}")
        return session

    def close(self, session_id: str) -> Session:
        session = self.get(session_id)
        del self._sessions[session_id]
        session.close()
        self._track()
        if self.journal is not None:
            # Clean close: nothing left to recover.
            self.journal.discard(session_id)
        return session

    def evict(self, session_id: str, reason: str) -> None:
        """Forcibly remove a session (budget blown, step crashed).

        The journal file is deliberately retained: an evicted session
        is recoverable after a service restart.
        """
        session = self._sessions.pop(session_id, None)
        if session is None:
            return
        session.close(state="evicted")
        self.evicted_total += 1
        self._track()
        self.observer.serve_evict(session_id, reason,
                                  session.world.step_count)

    def respawn(self, session_id: str) -> Optional[Session]:
        """Replace a wedged session with a fresh world rewound to its
        last journaled checkpoint.

        The stuck worker thread keeps the *old* world (Python cannot
        interrupt it), which is retired here, so the worker stops at
        its next step boundary; the table entry now points at a
        verified replacement.  Returns ``None`` when there is nothing
        to respawn from (no journal mark, or the restored state fails
        its digest check).
        """
        old = self._sessions.get(session_id)
        if old is None or old.last_journal is None:
            return None
        checkpoint, step, state = old.last_journal
        try:
            fresh = Session(session_id, old.config)
            restore_world(fresh.world, checkpoint)
        except Exception:  # noqa: BLE001 - fall back to eviction
            return None
        if state and state_digest(fresh.world) != state:
            return None
        fresh.mark_journaled(checkpoint, step, state)
        fresh.steps_run = old.steps_run
        old.close(state="evicted")
        self._sessions[session_id] = fresh
        self.respawned_total += 1
        return fresh

    def recover_from(self, store) -> List[dict]:
        """Rebuild every journaled session after a restart.

        Each recovered world is verified against the state digest
        recorded at capture time — recovery is bit-identical or it is
        reported as failed (the journal is left on disk for forensics).
        Returns one summary dict per journal file.
        """
        summary: List[dict] = []
        for rec in recover_sessions(store.directory):
            entry = {"session": rec.session_id, "ok": False,
                     "step": rec.step}
            if len(self._sessions) >= self.max_sessions:
                entry["error"] = "session table full"
                summary.append(entry)
                continue
            try:
                config = SessionConfig.from_dict(rec.config)
                session = Session(rec.session_id, config)
                if rec.checkpoint is not None:
                    restore_world(session.world, rec.checkpoint)
            except Exception as exc:  # noqa: BLE001 - reported per file
                entry["error"] = f"{type(exc).__name__}: {exc}"
                summary.append(entry)
                continue
            digest = state_digest(session.world)
            if rec.state and digest != rec.state:
                entry["error"] = "state digest mismatch"
                summary.append(entry)
                continue
            checkpoint = rec.checkpoint
            if checkpoint is None:
                checkpoint, _, digest = session.capture_for_journal()
            session.mark_journaled(checkpoint,
                                   session.world.step_count, digest)
            self._sessions[session.id] = session
            match = _SESSION_ID.match(session.id)
            if match:
                self._seq = max(self._seq, int(match.group(1)))
            self.recovered_total += 1
            self._track()
            # Compact the recovered journal to config + the verified
            # snapshot so record counts restart from a known state.
            store.compact(session.id,
                          {"session": session.id,
                           "config": config.to_dict()},
                          checkpoint, session.world.step_count, digest)
            entry.update(ok=True, step=session.world.step_count,
                         digest=digest)
            summary.append(entry)
        return summary

    def close_all(self) -> None:
        """Shut every session down — journals are deliberately kept.

        This is the *service* going away, not clients closing cleanly,
        so the on-disk journals must survive for restart recovery.
        """
        for session_id, session in list(self._sessions.items()):
            del self._sessions[session_id]
            session.close()
        self._track()

    def _track(self) -> None:
        self._g_active.set(len(self._sessions))
