"""The client-facing gateway of the sharded topology.

Clients speak the exact same NDJSON protocol they spoke to the
single-process service; the gateway owns *placement*, not simulation:

* ``create`` assigns a globally-unique session id, picks a shard by
  consistent hash (:class:`~repro.serve.shard.ring.HashRing`) and
  forwards the create with the id pinned (``session_id``);
* session ops (``step``/``snapshot``/``restore``/``close``) are
  forwarded over a per-connection upstream socket to the session's
  shard, so per-connection request ordering is preserved end to end;
* ``migrate``/``drain_shard``/``rebalance``/``topology`` are the admin
  plane: live migration quiesces the session's in-flight work, moves
  PR 5's pickle-free snapshot bytes to the target shard, verifies the
  restored :func:`~repro.serve.session.state_digest`, closes the source
  copy and atomically repoints the routing entry — requests arriving
  mid-migration wait on the migration event and land on the new shard;
* a dead shard (crash, OOM-kill) is detected by a health task or a
  failed forward; its sessions are rebuilt from its journal directory
  onto surviving shards (digest-verified, exactly the restart-recovery
  path PR 6 built, but cross-process), the shard is respawned, and any
  session the journal could not recover is reported ``session_lost``.

The gateway holds no simulation state: everything it needs to survive
its own restart is in the shard journals, which it re-reads at start.
A drain stops the health loop before any shard, so a graceful SIGTERM
keeps every shard's journals for the next gateway.  Listening, framing,
dispatch, accounting and the drain order come from the shared
:class:`~repro.serve.frontend.FrameServer`.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from ...robustness.checkpoint import serialize_checkpoint
from ..client import ServerHandle, run_in_thread
from ..frontend import FrameServer
from ..protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ServiceError,
    decode_frame,
    encode_frame,
    ok_response,
)
from ..resilience import recover_sessions
from ..server import ServiceConfig
from .ring import HashRing
from .worker import ShardSupervisor

__all__ = ["GatewayConfig", "ShardGateway", "gateway_forever",
           "start_gateway_in_thread"]

#: Fields of a create frame that are routing envelope, not session
#: configuration — everything else is kept for migration re-creates.
_CREATE_ENVELOPE = ("op", "id", "session_id")


@dataclass(frozen=True)
class GatewayConfig:
    """Everything ``python -m repro serve --shards N`` exposes."""

    host: str = "127.0.0.1"
    port: int = 7070
    #: serve the gateway itself on a UNIX socket instead of TCP
    unix_path: Optional[str] = None
    shards: int = 2
    #: shard sockets + per-shard journal dirs live here; when unset the
    #: gateway makes a temp dir and removes it at stop (only a dir
    #: passed in survives for a restarted gateway to recover from)
    runtime_dir: Optional[str] = None
    #: per-shard session capacity (the gateway total is shards ×  this)
    max_sessions: int = 32
    workers: Optional[int] = None
    batch_window: float = 0.002
    step_budget: float = 30.0
    journal_every: int = 32
    drain_grace: float = 10.0
    allow_chaos: bool = False
    #: seconds between shard liveness checks
    health_interval: float = 0.5
    #: seconds one gateway->shard control request may take
    request_timeout: float = 60.0
    #: seconds a migration may wait for in-flight requests to finish
    migrate_grace: float = 10.0

    def shard_service_config(self) -> ServiceConfig:
        """The per-shard ServiceConfig (socket/journal paths added by
        the supervisor)."""
        return ServiceConfig(
            max_sessions=self.max_sessions,
            workers=self.workers,
            batch_window=self.batch_window,
            step_budget=self.step_budget,
            journal_every=self.journal_every,
            drain_grace=self.drain_grace,
            allow_chaos=self.allow_chaos,
        )


class _ShardLink:
    """The gateway's own control connection to one shard.

    Admin traffic (migration, recovery, stats fan-out) must not share a
    socket with forwarded client frames — a lock serializes the
    request/response pairing.
    """

    def __init__(self, socket_path: str) -> None:
        self.socket_path = socket_path
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None
        self.lock = asyncio.Lock()

    async def request(self, frame: dict, timeout: float) -> dict:
        async with self.lock:
            if self.writer is None or self.writer.is_closing():
                self.reader, self.writer = await asyncio.wait_for(
                    asyncio.open_unix_connection(
                        self.socket_path, limit=MAX_FRAME_BYTES),
                    timeout)
            self.writer.write(encode_frame(frame))
            await self.writer.drain()
            line = await asyncio.wait_for(self.reader.readline(), timeout)
            if not line:
                raise ConnectionResetError("shard closed control link")
            return decode_frame(line)

    def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            self.reader = self.writer = None


class ShardGateway(FrameServer):
    """Routes NDJSON sessions over N shard subprocesses."""

    draining_ops = frozenset(("ping", "topology", "stats"))
    kind = "gateway"
    drain_banner = "draining shards"

    def __init__(self, config: Optional[GatewayConfig] = None,
                 observer=None) -> None:
        super().__init__(config or GatewayConfig(), observer)
        #: a temp runtime dir this gateway made goes at stop: no later
        #: gateway can find the journals in it
        self._owns_runtime_dir = not self.config.runtime_dir
        runtime = self.config.runtime_dir or tempfile.mkdtemp(
            prefix="repro-gateway-")
        self.runtime_dir = Path(runtime)
        self.supervisor = ShardSupervisor(
            self.config.shards, self.runtime_dir,
            self.config.shard_service_config())
        #: shards taking *new* placements (drained shards leave; crashed
        #: shards leave until respawned)
        self.ring = HashRing()
        self.active: Set[int] = set()
        #: authoritative session -> shard map (every live session)
        self.routes: Dict[str, int] = {}
        #: create-frame fields per session (migration re-creates)
        self.session_config: Dict[str, dict] = {}
        self._migrating: Dict[str, asyncio.Event] = {}
        self._inflight: Dict[str, int] = {}
        self._links: Dict[int, _ShardLink] = {}
        self._crash_locks: Dict[int, asyncio.Lock] = {}
        self._seq = 0
        self.migrations_total = 0
        self.sessions_lost_total = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def _open(self) -> None:
        """Spawn shards, learn any journal-recovered sessions, start the
        health loop."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.supervisor.start_all)
        for shard in self.supervisor:
            self.ring.add(shard.index)
            self.active.add(shard.index)
            self._links[shard.index] = _ShardLink(str(shard.socket_path))
            self._crash_locks[shard.index] = asyncio.Lock()
        await self._learn_routes()
        self._background.append(asyncio.ensure_future(self._health_loop()))

    async def _learn_routes(self) -> None:
        """Rebuild the routing table from what the shards recovered.

        Shards replay their journals in :meth:`SimulationService.start`;
        a restarted gateway only has to ask who lives where.
        """
        for shard in self.supervisor:
            stats = await self._control(shard.index, {"op": "stats"})
            for described in stats.get("sessions", ()):
                sid = described.get("session")
                if not sid:
                    continue
                self.routes[sid] = shard.index
                self._bump_seq(sid)
                self.observer.serve_route(sid, shard.index, "recover")

    def _bump_seq(self, sid: str) -> None:
        if sid.startswith("g") and sid[1:].isdigit():
            self._seq = max(self._seq, int(sid[1:]))

    def _banner(self) -> List[str]:
        lines = [f"gateway on {self._where()} "
                 f"({self.config.shards} shards under {self.runtime_dir}, "
                 f"max {self.config.max_sessions} sessions/shard)"]
        if self.routes:
            lines.append(f"re-learned {len(self.routes)} session route(s) "
                         f"from shard journals")
        return lines

    def _live_sessions(self) -> int:
        return len(self.routes)

    async def _drain_work(self) -> Tuple[int, bool]:
        """SIGTERM the shards: each one journals every session it holds."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.supervisor.stop_all)
        return len(self.routes), True

    async def _close(self) -> None:
        for link in self._links.values():
            link.close()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.supervisor.stop_all)
        if self._owns_runtime_dir:
            shutil.rmtree(self.runtime_dir, ignore_errors=True)

    def _release_connection(self, connection: dict) -> None:
        for _, up_writer in connection.values():
            up_writer.close()

    # ------------------------------------------------------------------
    # Health / crash recovery
    # ------------------------------------------------------------------
    async def _health_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.health_interval)
            for index in self.supervisor.dead_shards():
                with contextlib.suppress(Exception):
                    await self._handle_shard_crash(index)

    async def _handle_shard_crash(self, index: int) -> None:
        """Recover a dead shard's sessions onto survivors, respawn it.

        A draining gateway stops its shards on purpose: recovering them
        would re-place sessions on shards that are stopping too, count
        them lost and unlink their journals.
        """
        if self._draining:
            return
        async with self._crash_locks[index]:
            shard = self.supervisor[index]
            if shard.alive:
                return  # another caller already recovered it
            self.ring.remove(index)
            self.active.discard(index)
            self._links[index].close()
            survivors = sorted(self.active)
            victims = sorted(sid for sid, owner in self.routes.items()
                             if owner == index)
            loop = asyncio.get_running_loop()
            recovered = await loop.run_in_executor(
                None, recover_sessions, shard.journal_dir)
            by_id = {rec.session_id: rec for rec in recovered}
            for sid in victims:
                rec = by_id.get(sid)
                placed = False
                if rec is not None and survivors:
                    target = self.ring.lookup(sid)
                    placed = await self._place_recovered(rec, target)
                if placed:
                    self.routes[sid] = target
                    # The target re-journaled it; drop the stale journal
                    # so the respawned shard does not resurrect a copy.
                    await loop.run_in_executor(
                        None, self._unlink_journal, shard, sid)
                    self.observer.serve_route(sid, target, "recover")
                else:
                    self.routes.pop(sid, None)
                    self.session_config.pop(sid, None)
                    self.sessions_lost_total += 1
                    await loop.run_in_executor(
                        None, self._unlink_journal, shard, sid)
            self.registry.counter("serve.shard_crashes").inc()
            # Respawn with a (now clean) journal dir and rejoin the ring.
            await loop.run_in_executor(None, shard.restart)
            await loop.run_in_executor(None, shard.wait_ready)
            self.ring.add(index)
            self.active.add(index)

    @staticmethod
    def _unlink_journal(shard, sid: str) -> None:
        for suffix in (".journal", ".corrupt"):
            path = shard.journal_dir / f"{sid}{suffix}"
            path.unlink(missing_ok=True)

    async def _place_recovered(self, rec, target: int) -> bool:
        """Create + restore one journal-recovered session on ``target``;
        digest-verified.  Returns False when the session is lost."""
        sid = rec.session_id
        fields = {k: v for k, v in rec.config.items() if v is not None}
        create = dict(fields, op="create", session_id=sid)
        try:
            await self._control(target, create)
            if rec.checkpoint is not None:
                blob = serialize_checkpoint(rec.checkpoint)
                restored = await self._control(target, {
                    "op": "restore", "session": sid,
                    "data": base64.b64encode(blob).decode("ascii"),
                })
                if rec.state and restored.get("digest") != rec.state:
                    await self._control_quiet(
                        target, {"op": "close", "session": sid})
                    return False
            self.session_config.setdefault(sid, fields)
            return True
        except (ServiceError, ConnectionError, OSError,
                asyncio.TimeoutError):
            return False

    # ------------------------------------------------------------------
    # Shard control requests
    # ------------------------------------------------------------------
    async def _control(self, index: int, frame: dict) -> dict:
        """One admin request to a shard over the gateway's own link."""
        if "id" not in frame:
            frame = dict(frame, id=f"gw{index}-{time.monotonic_ns()}")
        link = self._links[index]
        response = await link.request(frame, self.config.request_timeout)
        if not response.get("ok"):
            raise ServiceError(response.get("error", "internal"),
                               response.get("detail", ""),
                               extra={k: v for k, v in response.items()
                                      if k not in ("ok", "error",
                                                   "detail", "id")})
        return response

    async def _control_quiet(self, index: int, frame: dict) -> None:
        with contextlib.suppress(ServiceError, ConnectionError, OSError,
                                 asyncio.TimeoutError):
            await self._control(index, frame)

    # ------------------------------------------------------------------
    # Request dispatch (``upstreams`` is the connection's shard sockets)
    # ------------------------------------------------------------------
    async def _execute(self, op: str, frame: dict,
                       upstreams: Dict[int, tuple]) -> dict:
        self._refuse_while_draining(op)
        if op == "ping":
            return ok_response(frame, protocol=PROTOCOL_VERSION,
                               server="repro-serve-gateway",
                               shards=len(self.supervisor),
                               sessions=len(self.routes),
                               draining=self._draining)
        if op == "topology":
            return ok_response(frame, **self._topology())
        if op == "stats":
            return ok_response(frame, **await self._stats())
        if op == "migrate":
            target = frame.get("target")
            result = await self.migrate(frame["session"], target)
            return ok_response(frame, **result)
        if op == "drain_shard":
            result = await self.drain_shard(int(frame["shard"]))
            return ok_response(frame, **result)
        if op == "rebalance":
            result = await self.rebalance()
            return ok_response(frame, **result)
        if op == "create":
            return await self._create(frame, upstreams)
        if op == "design":
            return await self._design(frame, upstreams)
        # step / snapshot / restore / close — forward to the owner.
        return await self._forward_session_op(op, frame, upstreams)

    # ------------------------------------------------------------------
    # Create + forwarding
    # ------------------------------------------------------------------
    async def _design(self, frame: dict,
                      upstreams: Dict[int, tuple]) -> dict:
        """Route a design query to the shard that owns its canonical
        key, so repeats of the same query always hit the same shard's
        server-side cache.  Invalid queries are refused here — the
        gateway gives the same ``bad_request`` a shard would, without
        burning a forward."""
        from ...design import DesignQuery, DesignSpaceError

        try:
            key = DesignQuery.from_mapping(frame["query"]).cache_key()
        except DesignSpaceError as exc:
            raise ServiceError(
                "bad_request", f"design query: {exc.detail}") from None
        if not self.active:
            raise ServiceError(
                "shard_down", "no shard accepts design queries",
                extra={"retry_after_ms": 1000})
        shard = self.ring.lookup(f"design:{key}")
        # Stateless + cached server-side, so the crash-retry loop in
        # _forward is safe: a re-sent query just re-hits the cache.
        return await self._forward(shard, frame, upstreams)


    async def _create(self, frame: dict,
                      upstreams: Dict[int, tuple]) -> dict:
        if not self.active:
            raise ServiceError("shard_down", "no shard accepts sessions",
                               extra={"retry_after_ms": 1000})
        self._seq += 1
        sid = f"g{self._seq}"
        shard = self.ring.lookup(sid)
        forwarded = dict(frame, session_id=sid)
        response = await self._forward(shard, forwarded, upstreams,
                                       session=sid)
        if response.get("ok"):
            self.routes[sid] = shard
            self.session_config[sid] = {
                k: v for k, v in frame.items()
                if k not in _CREATE_ENVELOPE}
            self.observer.serve_route(sid, shard, "create")
        return response

    async def _forward_session_op(self, op: str, frame: dict,
                                  upstreams: Dict[int, tuple]) -> dict:
        sid = frame["session"]
        await self._await_migration(sid)
        shard = self.routes.get(sid)
        if shard is None:
            # Unknown to the gateway: let the ring owner answer with a
            # deterministic unknown_session.
            shard = self.ring.lookup(sid) if self.active else None
            if shard is None:
                raise ServiceError("unknown_session",
                                   f"no session {sid!r}")
        response = await self._forward(shard, frame, upstreams,
                                       session=sid)
        if op == "close" and response.get("ok"):
            self.routes.pop(sid, None)
            self.session_config.pop(sid, None)
        return response

    async def _await_migration(self, sid: str) -> None:
        while True:
            event = self._migrating.get(sid)
            if event is None:
                return
            await event.wait()

    async def _upstream(self, shard: int,
                        upstreams: Dict[int, tuple]) -> tuple:
        pair = upstreams.get(shard)
        if pair is None or pair[1].is_closing():
            pair = await asyncio.wait_for(
                asyncio.open_unix_connection(
                    str(self.supervisor[shard].socket_path),
                    limit=MAX_FRAME_BYTES),
                self.config.request_timeout)
            upstreams[shard] = pair
        return pair

    async def _forward(self, shard: int, frame: dict,
                       upstreams: Dict[int, tuple],
                       session: Optional[str] = None) -> dict:
        """Forward one frame; survives a stale socket or a shard crash.

        After a crash the session may have been journal-recovered onto
        another shard — the route is re-resolved and the forward retried
        once, so a client request that raced the crash still lands.
        """
        for attempt in range(3):
            if session is not None:
                await self._await_migration(session)
                shard = self.routes.get(session, shard)
            try:
                reader, writer = await self._upstream(shard, upstreams)
                if session is not None:
                    if session in self._migrating:
                        continue  # migration started while connecting
                    self._inflight[session] = \
                        self._inflight.get(session, 0) + 1
                try:
                    writer.write(encode_frame(frame))
                    await writer.drain()
                    line = await reader.readline()
                finally:
                    if session is not None:
                        self._inflight[session] -= 1
                        if not self._inflight[session]:
                            self._inflight.pop(session, None)
                if not line:
                    raise ConnectionResetError("shard hung up")
                return decode_frame(line)
            except (ConnectionError, OSError, asyncio.TimeoutError):
                pair = upstreams.pop(shard, None)
                if pair is not None:
                    pair[1].close()
                if not self.supervisor[shard].alive:
                    await self._handle_shard_crash(shard)
                # else: stale socket from an earlier respawn — retry.
        raise ServiceError(
            "shard_down", f"shard {shard} unreachable",
            extra={"retry_after_ms": 500, "shard": shard})

    # ------------------------------------------------------------------
    # Admin plane
    # ------------------------------------------------------------------
    async def migrate(self, sid: str,
                      target: Optional[int] = None) -> dict:
        """Live-migrate ``sid`` to ``target`` (or the best other shard)."""
        source = self.routes.get(sid)
        if source is None:
            raise ServiceError("unknown_session", f"no session {sid!r}")
        if target is None:
            target = self._pick_target(exclude=source)
        if not 0 <= target < len(self.supervisor):
            raise ServiceError("bad_request",
                               f"no shard {target} (0.."
                               f"{len(self.supervisor) - 1})")
        if target == source:
            return {"session": sid, "source": source, "target": target,
                    "moved": False, "detail": "already on target"}
        if not self.supervisor[target].alive:
            raise ServiceError("shard_down",
                               f"target shard {target} is down")
        start = time.perf_counter()
        event = asyncio.Event()
        self._migrating[sid] = event
        step = -1
        try:
            await self._quiesce(sid)
            # Snapshot at a step boundary, then read the digest the
            # restored copy must reproduce (steps=0 is a pure describe).
            snap = await self._control(
                source, {"op": "snapshot", "session": sid})
            probe = await self._control(
                source, {"op": "step", "session": sid, "steps": 0})
            step = int(probe.get("step", -1))
            fields = await self._create_fields(sid, source)
            await self._control(
                target, dict(fields, op="create", session_id=sid))
            restore = {"op": "restore", "session": sid,
                       "data": snap["data"]}
            if snap.get("precisions"):
                restore["precisions"] = snap["precisions"]
            try:
                restored = await self._control(target, restore)
            except (ServiceError, ConnectionError, OSError,
                    asyncio.TimeoutError) as exc:
                await self._control_quiet(
                    target, {"op": "close", "session": sid})
                raise ServiceError(
                    "internal",
                    f"migration restore failed on shard {target}: "
                    f"{exc}") from exc
            if restored.get("digest") != probe.get("digest"):
                # The source copy is untouched; abandon the target copy.
                await self._control_quiet(
                    target, {"op": "close", "session": sid})
                self.observer.serve_migrate(sid, source, target, step,
                                            False,
                                            time.perf_counter() - start)
                raise ServiceError(
                    "internal",
                    f"migration digest mismatch for {sid} "
                    f"({source} -> {target}); session kept on source")
            await self._control_quiet(
                source, {"op": "close", "session": sid})
            self.routes[sid] = target
            self.session_config.setdefault(sid, fields)
            self.migrations_total += 1
            self.observer.serve_migrate(sid, source, target, step, True,
                                        time.perf_counter() - start)
            self.observer.serve_route(sid, target, "migrate")
            return {"session": sid, "source": source, "target": target,
                    "step": step, "digest": restored.get("digest"),
                    "moved": True,
                    "wall": round(time.perf_counter() - start, 6)}
        finally:
            event.set()
            self._migrating.pop(sid, None)

    async def _quiesce(self, sid: str) -> None:
        """Wait out in-flight forwards for ``sid`` (new ones are already
        gated on the migration event)."""
        deadline = time.monotonic() + self.config.migrate_grace
        while self._inflight.get(sid, 0):
            if time.monotonic() > deadline:
                raise ServiceError(
                    "busy", f"session {sid} would not quiesce for "
                            f"migration", extra={"retry_after_ms": 500})
            await asyncio.sleep(0.005)

    async def _create_fields(self, sid: str, source: int) -> dict:
        """The create-frame fields for ``sid`` — cached, or read back
        from the source shard's journal (gateway restarts drop the
        cache; the journal always has the config record)."""
        fields = self.session_config.get(sid)
        if fields is not None:
            return fields
        loop = asyncio.get_running_loop()
        recovered = await loop.run_in_executor(
            None, recover_sessions, self.supervisor[source].journal_dir)
        for rec in recovered:
            if rec.session_id == sid:
                return {k: v for k, v in rec.config.items()
                        if v is not None}
        raise ServiceError(
            "internal", f"no config on record for session {sid!r}")

    def _pick_target(self, exclude: int) -> int:
        """Least-loaded live shard other than ``exclude``."""
        counts: Dict[int, int] = {
            index: 0 for index in self.active if index != exclude}
        if not counts:
            raise ServiceError("bad_request",
                               "no other shard to migrate to")
        for owner in self.routes.values():
            if owner in counts:
                counts[owner] += 1
        return min(sorted(counts), key=counts.get)

    async def drain_shard(self, index: int) -> dict:
        """Move every session off shard ``index`` and stop routing new
        sessions to it (the process stays up, empty)."""
        if not 0 <= index < len(self.supervisor):
            raise ServiceError("bad_request", f"no shard {index}")
        self.ring.remove(index)
        self.active.discard(index)
        if not self.active:
            # Undo: a topology with zero placeable shards is worse.
            self.ring.add(index)
            self.active.add(index)
            raise ServiceError("bad_request",
                               "cannot drain the last active shard")
        victims = sorted(sid for sid, owner in self.routes.items()
                         if owner == index)
        moved, failed = 0, []
        for sid in victims:
            try:
                await self.migrate(sid, self.ring.lookup(sid))
                moved += 1
            except ServiceError as exc:
                failed.append({"session": sid, "error": exc.code,
                               "detail": exc.detail})
        return {"shard": index, "moved": moved, "failed": failed,
                "remaining": sum(1 for owner in self.routes.values()
                                 if owner == index)}

    async def rebalance(self) -> dict:
        """Repoint every session to its ring-preferred shard.

        After a crash piles sessions onto survivors, this walks them
        back to the consistent-hash placement.
        """
        moved, failed, checked = 0, [], 0
        for sid in sorted(self.routes):
            owner = self.routes.get(sid)
            if owner is None:
                continue
            checked += 1
            want = self.ring.lookup(sid)
            if want == owner:
                continue
            try:
                await self.migrate(sid, want)
                moved += 1
            except ServiceError as exc:
                failed.append({"session": sid, "error": exc.code,
                               "detail": exc.detail})
        return {"sessions": checked, "moved": moved, "failed": failed}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _topology(self) -> dict:
        per_shard: Dict[int, int] = {
            shard.index: 0 for shard in self.supervisor}
        for owner in self.routes.values():
            per_shard[owner] = per_shard.get(owner, 0) + 1
        return {
            "shards": [
                {
                    "shard": shard.index,
                    "alive": shard.alive,
                    "active": shard.index in self.active,
                    "sessions": per_shard.get(shard.index, 0),
                    "restarts": shard.restarts,
                    "pid": shard.pid,
                    "socket": str(shard.socket_path),
                }
                for shard in self.supervisor
            ],
            "routes": dict(self.routes),
            "sessions": len(self.routes),
            "migrations": self.migrations_total,
            "sessions_lost": self.sessions_lost_total,
        }

    async def _stats(self) -> dict:
        shards: Dict[str, dict] = {}
        sessions: List[dict] = []
        for shard in self.supervisor:
            if not shard.alive:
                shards[str(shard.index)] = {"alive": False}
                continue
            try:
                stats = await self._control(shard.index, {"op": "stats"})
            except (ServiceError, ConnectionError, OSError,
                    asyncio.TimeoutError) as exc:
                shards[str(shard.index)] = {"alive": True,
                                            "error": str(exc)}
                continue
            stats.pop("ok", None)
            stats.pop("id", None)
            shards[str(shard.index)] = stats
            sessions.extend(stats.get("sessions", ()))
        return {
            "uptime": round(time.time() - self.started_at, 3),
            "gateway": self._topology(),
            "sessions": sessions,
            "active_sessions": len(self.routes),
            "requests_total": self.requests_total,
            "incidents": len(self.incidents.records),
            "draining": self._draining,
            "shards": shards,
            "metrics": self.registry.snapshot(),
        }


# ----------------------------------------------------------------------
# CLI + harness entry points (mirrors repro.serve.server/client)
# ----------------------------------------------------------------------
async def gateway_forever(config: GatewayConfig, observer=None) -> None:
    """Run the gateway until SIGTERM/SIGINT, then drain gracefully."""
    await ShardGateway(config, observer=observer).run_until_signal()


def start_gateway_in_thread(config: Optional[GatewayConfig] = None,
                            observer=None,
                            timeout: float = 120.0) -> ServerHandle:
    """Start a gateway + shards on a background thread; returns once
    every shard socket accepts and the gateway is bound."""
    return run_in_thread(ShardGateway(config or GatewayConfig(port=0),
                                      observer=observer), timeout)
