"""Crash-safe sessions: snapshot journals and recovery plumbing.

The service's sessions are long-lived worlds owned by remote clients —
one bad step, stuck batch, or process crash must not lose them.  This
module supplies the durability half of that contract:

* **Journal framing** — an append-only per-session file of the
  pickle-free :func:`~repro.robustness.serialize_checkpoint` blobs.
  Each record is ``magic | header-length | JSON header | payload`` with
  a sha256 digest of the payload in the header, so a reader verifies
  every blob it trusts and a torn tail (the crash case) is simply
  ignored.  The first record is the session's config, so a journal is
  self-contained: a restarted service rebuilds the world from the
  config record and rewinds it to the last verified snapshot.
* :class:`SessionJournal` — one session's file, with **atomic
  rotation**: when the record count exceeds the cap the journal is
  rewritten (config + latest snapshot) to a temp file and
  ``os.replace``d into place, so readers never observe a half-written
  file.
* :class:`JournalStore` — the directory of journals plus a single
  background writer thread, so journal appends happen off the
  scheduler's hot path and stay ordered per session.
* :func:`recover_sessions` / :class:`RecoveredSession` — scan a journal
  directory after a restart and hand back everything needed to
  reconstruct each session bit-identically (the recovered state digest
  is re-verified against the one recorded at capture time).
* :class:`SessionDegraded` / :class:`SessionLost` — the structured
  outcomes of the server-side recovery ladder
  (:meth:`repro.serve.session.Session.step`): a degraded session was
  rolled back to its last journal entry and carries the step it
  resumed at; a lost session exhausted the ladder and was quarantined.

The journaled snapshot bytes are the same blobs the wire protocol
ships, which is deliberate: they are the live-migration primitive the
gateway/worker-shard architecture (ROADMAP item 1) will move between
processes.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ..robustness.checkpoint import (
    WorldCheckpoint,
    deserialize_checkpoint,
    serialize_checkpoint,
)
from .protocol import ServiceError

__all__ = ["SessionDegraded", "SessionLost", "JournalRecord",
           "SessionJournal", "JournalStore", "RecoveredSession",
           "read_journal", "recover_sessions"]

#: Per-record magic; distinct from the checkpoint codec's ``RPROCKPT``
#: so a journal is never mistaken for a bare snapshot blob.
_RECORD_MAGIC = b"RJN1"
_JOURNAL_SUFFIX = ".journal"


class SessionDegraded(ServiceError):
    """The ladder recovered the session by rolling back to its journal.

    The session is still live — the client should resume from
    ``step`` (carried in the response) and replay what it lost.
    """

    def __init__(self, session_id: str, step: int, detail: str) -> None:
        super().__init__("session_degraded", detail,
                         extra={"session": session_id, "step": step})
        self.session_id = session_id
        self.step = step


class SessionLost(ServiceError):
    """The ladder ran out — the session is quarantined, not silently gone.

    Its journal (if any) is retained for post-mortem or manual restart.
    """

    def __init__(self, session_id: str, detail: str) -> None:
        super().__init__("session_lost", detail,
                         extra={"session": session_id})
        self.session_id = session_id


# ----------------------------------------------------------------------
# Record framing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JournalRecord:
    """One verified journal record (header fields + payload bytes)."""

    kind: str  # "config" | "snapshot"
    step: int
    state: str  # state_digest at capture ("" for config records)
    payload: bytes


def _encode_record(kind: str, payload: bytes, step: int = 0,
                   state: str = "") -> bytes:
    header = {
        "kind": kind,
        "len": len(payload),
        "sha": hashlib.sha256(payload).hexdigest(),
        "step": step,
        "state": state,
    }
    head = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return b"".join((_RECORD_MAGIC, struct.pack("<I", len(head)), head,
                     payload))


def _iter_records(data: bytes):
    """Yield verified records; stop silently at the first torn/bad one.

    A crash mid-append leaves a truncated or digest-mismatched tail —
    that is the expected failure mode, not corruption worth raising
    over, so iteration simply ends at the last intact record.
    """
    offset = 0
    magic_len = len(_RECORD_MAGIC)
    while offset + magic_len + 4 <= len(data):
        if data[offset:offset + magic_len] != _RECORD_MAGIC:
            return
        (head_len,) = struct.unpack_from("<I", data, offset + magic_len)
        head_start = offset + magic_len + 4
        head_end = head_start + head_len
        if head_end > len(data):
            return
        try:
            header = json.loads(data[head_start:head_end])
        except (json.JSONDecodeError, UnicodeDecodeError):
            return
        payload_len = int(header.get("len", -1))
        payload_end = head_end + payload_len
        if payload_len < 0 or payload_end > len(data):
            return
        payload = data[head_end:payload_end]
        if hashlib.sha256(payload).hexdigest() != header.get("sha"):
            return
        yield JournalRecord(
            kind=str(header.get("kind", "")),
            step=int(header.get("step", 0)),
            state=str(header.get("state", "")),
            payload=payload,
        )
        offset = payload_end


def read_journal(path) -> tuple:
    """Read one journal file.

    Returns ``(config_dict, last_snapshot_record, record_count)`` —
    ``config_dict`` is ``None`` for a file with no intact config record
    (unrecoverable), ``last_snapshot_record`` is ``None`` when the
    session crashed before its first snapshot (recover at step 0).
    """
    data = Path(path).read_bytes()
    config: Optional[dict] = None
    snapshot: Optional[JournalRecord] = None
    count = 0
    for record in _iter_records(data):
        count += 1
        if record.kind == "config":
            try:
                config = json.loads(record.payload)
            except json.JSONDecodeError:
                continue
        elif record.kind == "snapshot":
            snapshot = record
    return config, snapshot, count


# ----------------------------------------------------------------------
# Per-session journal file
# ----------------------------------------------------------------------
class SessionJournal:
    """Append-only snapshot journal for one session.

    Appends go through :meth:`append_config` / :meth:`append_snapshot`;
    when the record count passes ``max_records`` the file is compacted
    to ``config + latest snapshot`` via write-temp-then-``os.replace``
    (atomic on POSIX), so recovery never reads a half-rotated file.
    """

    def __init__(self, path, max_records: int = 64,
                 fsync: bool = False) -> None:
        self.path = Path(path)
        self.max_records = max(2, max_records)
        self.fsync = fsync
        self.records = 0
        self._config_blob: Optional[bytes] = None
        self._fh = None

    def _open(self):
        if self._fh is None:
            self._fh = open(self.path, "ab")
        return self._fh

    def _write(self, blob: bytes) -> None:
        fh = self._open()
        fh.write(blob)
        fh.flush()
        if self.fsync:
            os.fsync(fh.fileno())
        self.records += 1

    def append_config(self, config: dict) -> None:
        payload = json.dumps(config, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        self._config_blob = _encode_record("config", payload)
        self._write(self._config_blob)

    def append_snapshot(self, blob: bytes, step: int, state: str) -> None:
        record = _encode_record("snapshot", blob, step=step, state=state)
        if self.records + 1 > self.max_records and \
                self._config_blob is not None:
            self._rotate(record)
        else:
            self._write(record)

    def _rotate(self, latest: bytes) -> None:
        """Compact to config + latest snapshot, atomically."""
        self.close()
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        with open(tmp, "wb") as fh:
            fh.write(self._config_blob)
            fh.write(latest)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self.records = 2

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def discard(self) -> None:
        """Close and delete (clean session close — nothing to recover)."""
        self.close()
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# The journal directory
# ----------------------------------------------------------------------
class JournalStore:
    """All session journals under one directory, one writer thread.

    Appends are scheduled onto a single background thread: the
    scheduler's tick loop never blocks on the filesystem, and a single
    thread keeps every journal's records ordered.  :meth:`flush` is the
    barrier — it returns once everything scheduled so far is on disk.
    A write that fails with ``OSError`` leaves its session running,
    counts in :attr:`append_errors` and, with ``on_error``, is reported
    on the writer thread as ``on_error(session_id, exc, first)``, where
    ``first`` marks the session's first failure.
    """

    def __init__(self, directory, max_records: int = 64,
                 fsync: bool = False, on_error=None) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_records = max_records
        self.fsync = fsync
        self._journals: Dict[str, SessionJournal] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-journal")
        self.append_errors = 0
        self.on_error = on_error
        self._failed_sessions = set()

    # ------------------------------------------------------------------
    def path_for(self, session_id: str) -> Path:
        return self.directory / f"{session_id}{_JOURNAL_SUFFIX}"

    def _journal(self, session_id: str) -> SessionJournal:
        journal = self._journals.get(session_id)
        if journal is None:
            journal = SessionJournal(self.path_for(session_id),
                                     max_records=self.max_records,
                                     fsync=self.fsync)
            self._journals[session_id] = journal
        return journal

    def _submit(self, session_id: str, fn, *args) -> None:
        def _guarded():
            try:
                fn(*args)
            except OSError as exc:
                self.append_errors += 1
                first = session_id not in self._failed_sessions
                self._failed_sessions.add(session_id)
                if self.on_error is not None:
                    self.on_error(session_id, exc, first)

        self._executor.submit(_guarded)

    # ------------------------------------------------------------------
    def open_session(self, session_id: str, config: dict) -> None:
        """Start a journal with the session's config record."""
        self._submit(session_id, self._journal(session_id).append_config,
                     config)

    def append_snapshot(self, session_id: str,
                        checkpoint: WorldCheckpoint, step: int,
                        state: str) -> None:
        """Schedule one snapshot append (serialization happens on the
        writer thread, off the scheduler's hot path)."""

        def _append():
            blob = serialize_checkpoint(checkpoint)
            self._journal(session_id).append_snapshot(blob, step, state)

        self._submit(session_id, _append)

    def discard(self, session_id: str) -> None:
        """Clean close: delete the journal (nothing left to recover)."""
        journal = self._journals.pop(session_id, None)
        if journal is not None:
            self._submit(session_id, journal.discard)
        else:
            path = self.path_for(session_id)
            self._submit(session_id, lambda: path.unlink(missing_ok=True))

    def compact(self, session_id: str, config: dict,
                checkpoint: WorldCheckpoint, step: int,
                state: str) -> None:
        """Rewrite a journal from scratch (post-recovery compaction)."""
        journal = self._journal(session_id)

        def _rewrite():
            journal.discard()
            journal.records = 0
            journal.append_config(config)
            journal.append_snapshot(serialize_checkpoint(checkpoint),
                                    step, state)

        self._submit(session_id, _rewrite)

    # ------------------------------------------------------------------
    def flush(self, timeout: float = 30.0) -> None:
        """Block until every scheduled append has hit the filesystem."""
        self._executor.submit(lambda: None).result(timeout)

    def close(self) -> None:
        self._executor.shutdown(wait=True)
        for journal in self._journals.values():
            journal.close()
        self._journals.clear()


# ----------------------------------------------------------------------
# Restart recovery
# ----------------------------------------------------------------------
@dataclass
class RecoveredSession:
    """Everything a restarted service needs to rebuild one session."""

    session_id: str
    config: dict
    checkpoint: Optional[WorldCheckpoint]
    step: int
    state: str  # digest recorded at capture; "" when checkpoint is None
    journal_records: int


def recover_sessions(directory) -> List[RecoveredSession]:
    """Scan a journal directory into recoverable session records.

    Files without an intact config record are skipped (renamed to
    ``*.corrupt`` for forensics); a verified config with no snapshot
    yields a step-0 recovery.  Results are ordered by session id so
    recovery is deterministic.
    """
    directory = Path(directory)
    recovered: List[RecoveredSession] = []
    if not directory.is_dir():
        return recovered
    for path in sorted(directory.glob(f"*{_JOURNAL_SUFFIX}")):
        config, snapshot, count = read_journal(path)
        if config is None or not isinstance(config, dict) \
                or "session" not in config:
            path.rename(path.with_suffix(".corrupt"))
            continue
        checkpoint = None
        step, state = 0, ""
        if snapshot is not None:
            try:
                checkpoint = deserialize_checkpoint(snapshot.payload)
                step, state = snapshot.step, snapshot.state
            except ValueError:
                checkpoint = None  # torn blob: fall back to step 0
        recovered.append(RecoveredSession(
            session_id=str(config["session"]),
            config=dict(config.get("config", {})),
            checkpoint=checkpoint,
            step=step,
            state=state,
            journal_records=count,
        ))
    return recovered
