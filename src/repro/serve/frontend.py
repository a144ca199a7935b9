"""One NDJSON front end for the service and the gateway.

:class:`FrameServer` owns what
:class:`~repro.serve.server.SimulationService` and
:class:`~repro.serve.shard.gateway.ShardGateway` do the same way:
listen, frame, dispatch, count, record incidents, drain and stop, plus
the one signal run loop behind ``repro serve``.  A subclass adds its
ops, what it readies before the bind and releases after the stop, and
the middle of its drain.

A front end always holds an observer, the caller's
:class:`~repro.obs.tracer.Tracer` or a metrics-only one of its own,
and hands it to everything below it that counts: the observer's
``serve_*`` hooks are the serve layer's one accounting path, so
:attr:`FrameServer.registry` counts the same ``serve.*`` metrics
whether or not a trace is written.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import time
from typing import Dict, List, Optional, Tuple

from ..obs.tracer import Tracer
from ..robustness.incidents import IncidentLog
from ..workloads import UnknownScenarioError
from .protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    ServiceError,
    decode_frame,
    encode_frame,
    error_response,
    parse_request,
)

__all__ = ["FrameServer", "ListenError"]


class ListenError(OSError):
    """The listener could not bind its configured address."""


class FrameServer:
    """Listener, framing, dispatch, accounting, drain and stop.

    ``config`` needs ``host``, ``port`` and ``unix_path``; ``observer``
    is the tracer to stream to (``None`` counts without a stream).
    Each connection carries a dict for the subclass's state (the
    gateway pools its upstream shard sockets there).
    """

    #: ops still answered while draining; every other op gets the
    #: retryable ``draining`` error
    draining_ops: frozenset = frozenset()
    #: what the ``draining`` error calls this front end
    kind = "front end"
    #: what the run loop says it does once a shutdown signal arrives
    drain_banner = "draining"

    def __init__(self, config, observer: Optional[Tracer] = None) -> None:
        self.config = config
        self.observer = observer or Tracer()
        self.registry = self.observer.registry
        self.incidents = IncidentLog()
        self._server: Optional[asyncio.AbstractServer] = None
        #: each open connection's handler task and writer
        self._connections: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        #: tasks that must end before the drain work starts
        self._background: List[asyncio.Task] = []
        self._draining = False
        self.started_at = 0.0
        self.requests_total = 0

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    async def _open(self) -> None:
        """Ready everything the listener serves (runs before the bind)."""
        raise NotImplementedError

    async def _execute(self, op: str, frame: dict,
                       connection: dict) -> dict:
        """Answer one parsed request; raise ``ServiceError`` to refuse."""
        raise NotImplementedError

    async def _drain_work(self) -> Tuple[int, bool]:
        """The middle of a drain; returns ``(journaled, completed)``."""
        raise NotImplementedError

    async def _close(self) -> None:
        """Release what :meth:`_open` acquired (runs last in stop)."""
        raise NotImplementedError

    def _live_sessions(self) -> int:
        raise NotImplementedError

    def _banner(self) -> List[str]:
        """Lines the run loop prints once the front end is bound."""
        raise NotImplementedError

    def _release_connection(self, connection: dict) -> None:
        """Free the state a connection carried when it ends."""

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Ready the front end, then bind the socket."""
        await self._open()
        # The stream limit must fit a whole frame: restore requests can
        # carry base64 snapshot payloads far beyond the 64 KiB default.
        try:
            if self.config.unix_path:
                self._server = await asyncio.start_unix_server(
                    self._accept, path=self.config.unix_path,
                    limit=MAX_FRAME_BYTES)
            else:
                self._server = await asyncio.start_server(
                    self._accept, host=self.config.host,
                    port=self.config.port, limit=MAX_FRAME_BYTES)
        except OSError as exc:
            reason = os.strerror(exc.errno) if exc.errno else str(exc)
            raise ListenError(
                f"cannot listen on {self._where()}: {reason}") from exc
        self.started_at = time.time()

    @property
    def address(self):
        """Bound address: ``(host, port)`` for TCP, the path for UNIX."""
        if self.config.unix_path:
            return self.config.unix_path
        sock = self._server.sockets[0]
        return sock.getsockname()[:2]

    def _where(self) -> str:
        """The address for humans: bound once started, else configured."""
        if self._server is None:
            return (self.config.unix_path
                    or f"{self.config.host}:{self.config.port}")
        address = self.address
        return (address if isinstance(address, str)
                else f"{address[0]}:{address[1]}")

    async def drain(self) -> dict:
        """Graceful shutdown: new work is refused, the listener closes,
        background tasks end, the subclass's drain work runs, the drain
        is recorded, then stop.  Returns a summary for the caller to log.
        """
        if self._draining:
            return {"sessions": self._live_sessions(), "journaled": 0,
                    "completed": True, "wall": 0.0}
        self._draining = True
        start = time.perf_counter()
        # No new connections; established ones keep being answered
        # (with ``draining`` errors for new work).
        await self._close_listener()
        await self._stop_background()
        journaled, completed = await self._drain_work()
        summary = {
            "sessions": self._live_sessions(),
            "journaled": journaled,
            "completed": completed,
            "wall": round(time.perf_counter() - start, 6),
        }
        self.observer.serve_drain(**summary)
        await self.stop()
        return summary

    async def stop(self) -> None:
        """Stop everything; safe on a front end that never started."""
        await self._stop_background()
        await self._close_listener()
        # A handler still awaiting its request would be destroyed
        # pending once the loop closes: end each one here.
        handlers = dict(self._connections)
        for task, writer in handlers.items():
            writer.close()
            task.cancel()
        await asyncio.gather(*handlers, return_exceptions=True)
        await self._close()

    async def _close_listener(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _stop_background(self) -> None:
        tasks, self._background = self._background, []
        for task in tasks:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task

    def _refuse_while_draining(self, op: str) -> None:
        """The drain gate: raise ``draining`` for work a draining front
        end no longer takes."""
        if self._draining and op not in self.draining_ops:
            raise ServiceError(
                "draining", f"{self.kind} is draining; retry after restart",
                extra={"retry_after_ms": 1000})

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _accept(self, reader: asyncio.StreamReader,
                writer: asyncio.StreamWriter) -> None:
        """Serve a new connection on a task of the front end's own,
        which :meth:`stop` can cancel (asyncio 3.11 reports a handler
        coroutine it started that ends cancelled as an error)."""
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer))
        self._connections[task] = writer
        task.add_done_callback(self._connections.pop)

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        connection: dict = {}
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, ValueError):
                    # reset, or a line beyond the stream limit — there
                    # is no way to resync a torn NDJSON stream; drop it.
                    break
                if not line:
                    break
                try:
                    frame = decode_frame(line)
                except ProtocolError as exc:
                    response = error_response(exc.code, exc.detail)
                else:
                    response = await self.handle_request(frame, connection)
                writer.write(encode_frame(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._release_connection(connection)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    # ------------------------------------------------------------------
    # Request dispatch
    # ------------------------------------------------------------------
    async def handle_request(self, frame: dict,
                             connection: Optional[dict] = None) -> dict:
        """Execute one request frame; always returns a response frame.

        ``connection`` is the calling connection's state; a call without
        one gets a fresh dict of its own.
        """
        start = time.perf_counter()
        self.requests_total += 1
        op = frame.get("op") if isinstance(frame.get("op"), str) else None
        session_id = (frame.get("session")
                      if isinstance(frame.get("session"), str) else None)
        try:
            op = parse_request(frame)
            response = await self._execute(
                op, frame, {} if connection is None else connection)
            ok, error = True, None
        except ServiceError as exc:
            response = error_response(exc.code, exc.detail, frame,
                                      extra=exc.extra)
            ok, error = False, exc.code
        except UnknownScenarioError as exc:
            response = error_response("bad_request", str(exc), frame)
            ok, error = False, "bad_request"
        except Exception as exc:  # noqa: BLE001 - never kill the server
            # The connection survives, but the failure must not vanish:
            # an unexpected exception here is a server bug by definition.
            self.incidents.detection(
                0, "serve",
                f"internal error on {op or 'invalid'!r}: "
                f"{type(exc).__name__}: {exc}")
            self.registry.counter("serve.internal_errors").inc()
            response = error_response(
                "internal", f"{type(exc).__name__}: {exc}", frame)
            ok, error = False, "internal"
        wall = time.perf_counter() - start
        self.registry.histogram("serve.request.seconds").observe(wall)
        self.observer.serve_request(op or "invalid",
                                    response.get("session", session_id),
                                    ok, wall, error)
        return response

    # ------------------------------------------------------------------
    # The signal run loop
    # ------------------------------------------------------------------
    async def run_until_signal(self) -> None:
        """Serve until SIGTERM/SIGINT, then drain gracefully.

        Signal handlers are installed on the running loop when possible
        (main thread); elsewhere the caller cancels the coroutine
        instead.  The front end is stopped on every exit path, a failed
        :meth:`start` included.
        """
        loop = asyncio.get_running_loop()
        drain_requested = asyncio.Event()
        installed = []
        try:
            await self.start()
            for line in self._banner():
                print(f"repro-serve: {line}")
            for sig in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(sig, drain_requested.set)
                    installed.append(sig)
                except (NotImplementedError, RuntimeError, ValueError):
                    # Not the main thread or unsupported platform: fall
                    # back to cancellation-driven shutdown.
                    pass
            if not installed:
                await self._server.serve_forever()
                return
            wait = loop.create_task(drain_requested.wait())
            forever = loop.create_task(self._server.serve_forever())
            await asyncio.wait({wait, forever},
                               return_when=asyncio.FIRST_COMPLETED)
            for task in (wait, forever):
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
            if drain_requested.is_set():
                print(f"repro-serve: shutdown signal received; "
                      f"{self.drain_banner}")
                summary = await self.drain()
                print(f"repro-serve: drained "
                      f"({summary['sessions']} session(s) journaled, "
                      f"{summary['wall']:.2f}s)")
        finally:
            for sig in installed:
                with contextlib.suppress(Exception):
                    loop.remove_signal_handler(sig)
            await self.stop()
