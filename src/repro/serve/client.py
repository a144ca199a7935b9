"""Clients for the simulation service: a thin one and a resilient one.

:class:`Client` is deliberately dumb: one socket, one request on the
wire at a time, blocking reads.  It does distinguish the three ways a
request can fail, because conflating them makes retry logic impossible
to write correctly:

* :class:`ServeClientError` — the server answered ``ok: false``; the
  request *was* processed (or refused) and the error code says how.
* :class:`ClientTimeoutError` — the socket timed out; the request may
  or may not have executed.  It carries the pending request ``id`` so
  a caller can retry idempotently.
* :class:`ConnectionLost` — the connection died (reset, broken pipe,
  server hangup); same ambiguity, same remedy.

Every request is stamped with a client-unique ``id`` (unless the
caller set one), which the server uses both for correlation and for
idempotent replay — retrying a timed-out ``step`` with the same id
returns the recorded response instead of stepping the world twice.

:class:`ResilientClient` layers policy on top: bounded retry with
exponential backoff + jitter on ``busy``/``draining``, automatic
reconnect through a caller-supplied address provider (so a restarted
server on a new port is transparent), and resume-from-last-acked-step
— if the server came back from its journal slightly behind, the client
replays the gap so the caller-observed step counter never goes
backwards.

:func:`run_in_thread` runs a front end — a :class:`SimulationService`
through :func:`start_in_thread`, a sharded gateway through
:func:`~repro.serve.shard.gateway.start_gateway_in_thread` — on a
background event-loop thread and returns a :class:`ServerHandle` with
the bound address; the serve-bench harness, the tests, and the CI smoke
job all drive a real socket through it.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import itertools
import random
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Union

from .frontend import FrameServer
from .protocol import decode_frame, encode_frame
from .server import ServiceConfig, SimulationService

__all__ = ["ServeClientError", "ClientTimeoutError", "ConnectionLost",
           "Client", "RetryPolicy", "ResilientClient", "ServerHandle",
           "run_in_thread", "start_in_thread"]


class ServeClientError(RuntimeError):
    """A request the server answered with ``ok: false``."""

    def __init__(self, response: dict) -> None:
        self.code = response.get("error", "internal")
        self.detail = response.get("detail", "")
        self.response = response
        super().__init__(f"{self.code}: {self.detail}")


class ClientTimeoutError(TimeoutError):
    """The socket timed out waiting for a response.

    Distinct from :class:`ServeClientError`: the server said nothing —
    the request identified by ``request_id`` may or may not have
    executed, so the safe remedy is an idempotent retry with the same
    id, not a blind re-issue.
    """

    def __init__(self, request_id, timeout: float) -> None:
        self.request_id = request_id
        self.timeout = timeout
        super().__init__(
            f"no response within {timeout:.1f}s "
            f"(pending request id {request_id!r})")


class ConnectionLost(ConnectionError):
    """The transport died mid-conversation (reset, hangup, broken pipe)."""


class Client:
    """Blocking NDJSON client over TCP or a UNIX socket."""

    _seq = itertools.count(1)  # next() is atomic; no lock needed

    def __init__(self, host: Optional[str] = None,
                 port: Optional[int] = None,
                 unix_path: Optional[str] = None,
                 timeout: float = 60.0) -> None:
        self._timeout = timeout
        if unix_path:
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            self._sock.settimeout(timeout)
            self._sock.connect(unix_path)
        else:
            self._sock = socket.create_connection(
                (host or "127.0.0.1", port or 7070), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    @classmethod
    def _next_id(cls) -> str:
        return f"c{next(cls._seq)}"

    # ------------------------------------------------------------------
    def request(self, frame: dict) -> dict:
        """Send one frame, block for its response.

        A missing ``id`` is filled in automatically.  Responses whose
        ``id`` does not match are stale leftovers from a previously
        timed-out request on this socket and are skipped — the caller
        always gets the answer to *this* request.

        Raises :class:`ServeClientError` on an error response,
        :class:`ClientTimeoutError` on socket timeout, and
        :class:`ConnectionLost` when the transport dies.
        """
        if "id" not in frame:
            frame = dict(frame)
            frame["id"] = self._next_id()
        rid = frame["id"]
        try:
            self._file.write(encode_frame(frame))
            self._file.flush()
            while True:
                line = self._file.readline()
                if not line:
                    raise ConnectionLost("server closed the connection")
                response = decode_frame(line)
                if "id" in response and response["id"] != rid:
                    continue
                break
        except socket.timeout:
            # A timed-out buffered reader refuses all further reads;
            # rebuild it so the connection stays usable (the stale
            # response, once it lands, is skipped by the id check).
            self._file = self._sock.makefile("rwb")
            raise ClientTimeoutError(rid, self._timeout) from None
        except (ConnectionResetError, BrokenPipeError) as exc:
            raise ConnectionLost(str(exc)) from None
        if not response.get("ok"):
            raise ServeClientError(response)
        return response

    # ------------------------------------------------------------------
    # Convenience wrappers (one per protocol op)
    # ------------------------------------------------------------------
    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def create(self, scenario: str, **options) -> str:
        """Create a session; returns its id."""
        frame = {"op": "create", "scenario": scenario}
        frame.update(options)
        return self.request(frame)["session"]

    def step(self, session: str, steps: int = 1) -> dict:
        return self.request({"op": "step", "session": session,
                             "steps": steps})

    def snapshot(self, session: str, decode: bool = True) -> dict:
        """Snapshot a session; ``data`` is bytes when ``decode``."""
        response = self.request({"op": "snapshot", "session": session})
        if decode:
            response["data"] = base64.b64decode(response["data"])
        return response

    def restore(self, session: str, snapshot: Optional[str] = None,
                data: Optional[bytes] = None,
                precisions: Optional[Dict[str, int]] = None) -> dict:
        frame = {"op": "restore", "session": session}
        if snapshot is not None:
            frame["snapshot"] = snapshot
        if data is not None:
            frame["data"] = base64.b64encode(data).decode("ascii")
        if precisions is not None:
            frame["precisions"] = dict(precisions)
        return self.request(frame)

    def close_session(self, session: str) -> dict:
        return self.request({"op": "close", "session": session})

    def stats(self) -> dict:
        return self.request({"op": "stats"})

    def design(self, query: dict, timeout: Optional[float] = None) -> dict:
        """One design-space query; returns the full response (the
        ``design`` field holds the versioned front payload, ``cached``
        says whether the server-side cache answered it).  Searches can
        far outlast the default socket timeout, so this op takes its
        own."""
        if timeout is not None:
            previous = self._sock.gettimeout()
            self._sock.settimeout(timeout)
            try:
                return self.request({"op": "design", "query": query})
            finally:
                self._sock.settimeout(previous)
        return self.request({"op": "design", "query": query})

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def kill(self) -> None:
        """Abort the connection without the courtesy of a FIN drain.

        Chaos-harness hook: ``SO_LINGER 0`` makes the close an RST, so
        the server sees a genuine reset mid-conversation rather than a
        clean EOF.
        """
        try:
            self._sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER,
                b"\x01\x00\x00\x00\x00\x00\x00\x00")
        except OSError:
            pass
        self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter.

    ``retry_codes`` are the server responses worth waiting out —
    ``busy`` (backpressure), ``draining`` (restart imminent) and
    ``shard_down`` (the gateway is recovering a crashed shard); every
    other error code is a real answer and is raised immediately.
    """

    max_attempts: int = 6
    base_delay: float = 0.05
    max_delay: float = 2.0
    #: multiplicative jitter: the delay is scaled by 1..(1+jitter)
    jitter: float = 0.5
    retry_codes: tuple = ("busy", "draining", "shard_down")

    def delay(self, attempt: int, rng: random.Random,
              hint_s: Optional[float] = None) -> float:
        base = hint_s if hint_s else min(
            self.max_delay, self.base_delay * (2 ** attempt))
        return min(self.max_delay,
                   base * (1.0 + self.jitter * rng.random()))


#: Accepted address forms: ``(host, port)``, a UNIX socket path, or a
#: kwargs dict for :class:`Client` — or a zero-arg callable returning
#: any of those (re-resolved on every reconnect, so a restarted server
#: on a fresh port is found automatically).
AddressLike = Union[tuple, str, dict, Callable[[], Union[tuple, str,
                                                         dict]]]


class ResilientClient:
    """A :class:`Client` wrapper that survives the server's bad days.

    * transparently reconnects (through the address provider) on
      :class:`ConnectionLost`/:class:`ClientTimeoutError`/refusal;
    * retries ``busy``/``draining`` with backoff + jitter, honouring
      the server's ``retry_after_ms`` hint;
    * stamps every logical request with one idempotency id that is
      *reused* across retries, so a step never executes twice;
    * tracks the last acked step per session and, when a recovered
      server comes back slightly behind its journal, replays the gap —
      including turning a ``session_degraded`` rollback into the steps
      needed to reach the caller's target.
    """

    def __init__(self, address: AddressLike,
                 policy: Optional[RetryPolicy] = None,
                 timeout: float = 60.0,
                 seed: Optional[int] = None) -> None:
        self._address = address
        self.policy = policy or RetryPolicy()
        self._timeout = timeout
        self._rng = random.Random(seed)
        self._client: Optional[Client] = None
        self._acked: Dict[str, int] = {}
        self.retries = 0
        self.reconnects = 0

    # ------------------------------------------------------------------
    def _resolve(self) -> dict:
        address = self._address() if callable(self._address) \
            else self._address
        if isinstance(address, dict):
            return dict(address)
        if isinstance(address, str):
            return {"unix_path": address}
        host, port = address
        return {"host": host, "port": port}

    def _connect(self) -> Client:
        if self._client is None:
            self._client = Client(timeout=self._timeout,
                                  **self._resolve())
            self.reconnects += 1
        return self._client

    def _drop(self) -> None:
        if self._client is not None:
            try:
                self._client.close()
            except OSError:
                pass
            self._client = None

    def call(self, frame: dict) -> dict:
        """One logical request: retry/reconnect until answered or out
        of attempts.  The idempotency id survives every retry."""
        if "id" not in frame:
            frame = dict(frame)
            frame["id"] = Client._next_id()
        last_exc: Optional[BaseException] = None
        for attempt in range(self.policy.max_attempts):
            try:
                return self._connect().request(frame)
            except ServeClientError as exc:
                if exc.code not in self.policy.retry_codes:
                    raise
                last_exc = exc
                hint = exc.response.get("retry_after_ms")
                hint_s = hint / 1000.0 if hint else None
                time.sleep(self.policy.delay(attempt, self._rng,
                                             hint_s))
            except (ClientTimeoutError, ConnectionError,
                    OSError) as exc:
                last_exc = exc
                self._drop()
                time.sleep(self.policy.delay(attempt, self._rng))
            self.retries += 1
        raise last_exc

    # ------------------------------------------------------------------
    # Session ops with acked-step tracking
    # ------------------------------------------------------------------
    def create(self, scenario: str, **options) -> str:
        response = self.call(dict({"op": "create",
                                   "scenario": scenario}, **options))
        self._acked[response["session"]] = response["step"]
        return response["session"]

    def step(self, session: str, steps: int = 1) -> dict:
        """Advance ``steps`` past the last *acked* step, replaying any
        gap a server-side rollback or journal recovery opened."""
        acked = self._acked.get(session)
        target = None if acked is None else acked + steps
        response = self._step_once(session, steps)
        now = response.get("step")
        # Top up: a degraded/recovered session resumed behind target.
        guard = self.policy.max_attempts
        while target is not None and now is not None and now < target \
                and guard > 0:
            guard -= 1
            response = self._step_once(session, target - now)
            now = response.get("step")
        if now is not None:
            self._acked[session] = now
        return response

    def _step_once(self, session: str, steps: int) -> dict:
        try:
            return self.call({"op": "step", "session": session,
                              "steps": steps})
        except ServeClientError as exc:
            if exc.code != "session_degraded" or \
                    exc.response.get("step") is None:
                raise
            # The rollback frame tells us where the session resumed;
            # report it as a zero-progress response so the caller's
            # top-up loop replays the lost steps.
            return {"ok": True, "session": session,
                    "step": exc.response["step"], "degraded": True}

    def snapshot(self, session: str, decode: bool = True) -> dict:
        response = self.call({"op": "snapshot", "session": session})
        if decode:
            response["data"] = base64.b64decode(response["data"])
        return response

    def close_session(self, session: str) -> dict:
        response = self.call({"op": "close", "session": session})
        self._acked.pop(session, None)
        return response

    def stats(self) -> dict:
        return self.call({"op": "stats"})

    def ping(self) -> dict:
        return self.call({"op": "ping"})

    def acked_step(self, session: str) -> Optional[int]:
        return self._acked.get(session)

    def kill_connection(self) -> None:
        """Chaos hook: RST the live connection; the next call reconnects."""
        if self._client is not None:
            self._client.kill()
            self._client = None

    def close(self) -> None:
        self._drop()

    def __enter__(self) -> "ResilientClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ServerHandle:
    """A front end (service or gateway) on a background event-loop
    thread; ``frontend`` is the running :class:`FrameServer`."""

    def __init__(self, frontend: FrameServer,
                 loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread) -> None:
        self.frontend = frontend
        self._loop = loop
        self._thread = thread
        address = frontend.address
        if isinstance(address, str):
            self.unix_path: Optional[str] = address
            self.host = self.port = None
        else:
            self.unix_path = None
            self.host, self.port = address

    def connect(self, timeout: float = 60.0) -> Client:
        return Client(host=self.host, port=self.port,
                      unix_path=self.unix_path, timeout=timeout)

    def address(self) -> dict:
        """Kwargs for :class:`Client`/:class:`ResilientClient`."""
        if self.unix_path:
            return {"unix_path": self.unix_path}
        return {"host": self.host, "port": self.port}

    def run(self, coro, timeout: float = 120.0):
        """Run a coroutine on the front end's loop (admin helpers)."""
        return asyncio.run_coroutine_threadsafe(
            coro, self._loop).result(timeout)

    def drain(self, timeout: float = 60.0) -> dict:
        """Graceful shutdown; returns the drain summary."""
        summary = self.run(self.frontend.drain(), timeout)
        self._end_loop(timeout)
        return summary

    def stop(self, timeout: float = 60.0) -> None:
        self.run(self.frontend.stop(), timeout)
        self._end_loop(timeout)

    def _end_loop(self, timeout: float) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout)


def run_in_thread(frontend: FrameServer,
                  timeout: float = 30.0) -> ServerHandle:
    """Start ``frontend`` on its own event-loop thread; returns once it
    is bound.  A front end whose start fails is stopped before the
    error is raised here."""
    ready = threading.Event()
    box: dict = {}

    def _run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(frontend.start())
        except Exception as exc:  # noqa: BLE001 - surfaced to caller
            box["error"] = exc
            with contextlib.suppress(Exception):
                loop.run_until_complete(frontend.stop())
            loop.close()
            ready.set()
            return
        box["loop"] = loop
        ready.set()
        try:
            loop.run_forever()
        finally:
            loop.close()

    thread = threading.Thread(target=_run, name="repro-serve-loop",
                              daemon=True)
    thread.start()
    if not ready.wait(timeout):
        raise TimeoutError("front end did not start in time")
    if "error" in box:
        raise box["error"]
    return ServerHandle(frontend, box["loop"], thread)


def start_in_thread(config: Optional[ServiceConfig] = None,
                    observer=None,
                    timeout: float = 30.0) -> ServerHandle:
    """Start a service on its own thread; returns once it is bound.

    Pass ``port=0`` (the default via ``ServiceConfig``) to bind an
    ephemeral TCP port, or ``unix_path`` for a socket file.
    """
    return run_in_thread(SimulationService(config or ServiceConfig(port=0),
                                           observer=observer), timeout)
