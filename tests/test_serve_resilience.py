"""Tests for the crash-safe serve layer (``repro.serve.resilience``).

Covers the journal framing + rotation, digest-verified restart
recovery, the server-side recovery ladder (rung 0 retry, rung 1
rollback/respawn, rung 2 quarantine) and the restore that moves its
rung-1 target, graceful drain (in-process and via SIGTERM on a real
subprocess), the typed client errors, and the retrying/reconnecting
``ResilientClient``.
"""

import dataclasses
import json
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.physics import lcp
from repro.robustness.checkpoint import capture_world, restore_world
from repro.serve import (
    Client,
    ClientTimeoutError,
    ConnectionLost,
    JournalStore,
    ResilientClient,
    RetryPolicy,
    ServeClientError,
    ServiceConfig,
    SessionConfig,
    SessionDegraded,
    SessionLost,
    SessionManager,
    read_journal,
    recover_sessions,
    start_in_thread,
    state_digest,
)
from repro.serve.resilience import SessionJournal, _encode_record, \
    _iter_records
from repro.serve.session import Session
from repro.workloads import build


def _server(**overrides):
    observer = overrides.pop("observer", None)
    defaults = dict(port=0, max_sessions=8)
    defaults.update(overrides)
    return start_in_thread(ServiceConfig(**defaults), observer=observer)


# ----------------------------------------------------------------------
# Journal framing
# ----------------------------------------------------------------------
class TestJournalFraming:
    def test_record_round_trip(self):
        blob = _encode_record("snapshot", b"payload-bytes", step=7,
                              state="abc")
        records = list(_iter_records(blob))
        assert len(records) == 1
        assert records[0].kind == "snapshot"
        assert records[0].step == 7
        assert records[0].state == "abc"
        assert records[0].payload == b"payload-bytes"

    def test_torn_tail_is_ignored_not_fatal(self):
        good = _encode_record("config", b'{"a": 1}')
        torn = _encode_record("snapshot", b"x" * 100, step=1)[:-40]
        records = list(_iter_records(good + torn))
        assert [r.kind for r in records] == ["config"]

    def test_corrupted_payload_digest_stops_iteration(self):
        first = _encode_record("config", b'{"a": 1}')
        second = bytearray(_encode_record("snapshot", b"y" * 64, step=2))
        second[-1] ^= 0xFF  # flip one payload bit
        after = _encode_record("snapshot", b"z" * 64, step=3)
        records = list(_iter_records(first + bytes(second) + after))
        # Iteration stops at the bad record; later records are not
        # trusted (offsets can no longer be believed).
        assert [r.kind for r in records] == ["config"]

    def test_session_journal_rotation_compacts_atomically(self, tmp_path):
        path = tmp_path / "s1.journal"
        journal = SessionJournal(path, max_records=4)
        journal.append_config({"session": "s1", "config": {}})
        for step in range(1, 10):
            journal.append_snapshot(b"blob%d" % step, step,
                                    "d%d" % step)
        journal.close()
        config, snapshot, count = read_journal(path)
        assert config["session"] == "s1"
        assert snapshot.step == 9 and snapshot.payload == b"blob9"
        assert count <= 4
        assert not path.with_suffix(".journal.tmp").exists()

    def test_read_journal_without_snapshot_recovers_step_zero(
            self, tmp_path):
        path = tmp_path / "s1.journal"
        journal = SessionJournal(path)
        journal.append_config({"session": "s1", "config": {}})
        journal.close()
        config, snapshot, count = read_journal(path)
        assert config is not None and snapshot is None and count == 1

    def test_store_append_flush_and_discard(self, tmp_path):
        store = JournalStore(tmp_path)
        world = build("continuous", scale=0.4, seed=3)
        store.open_session("s1", {"session": "s1", "config": {}})
        store.append_snapshot("s1", capture_world(world),
                              world.step_count, state_digest(world))
        store.flush()
        assert store.path_for("s1").exists()
        config, snapshot, _ = read_journal(store.path_for("s1"))
        assert config["session"] == "s1"
        assert snapshot is not None
        store.discard("s1")
        store.flush()
        assert not store.path_for("s1").exists()
        store.close()

    def test_recover_sessions_renames_corrupt_files(self, tmp_path):
        (tmp_path / "bad.journal").write_bytes(b"not a journal at all")
        journal = SessionJournal(tmp_path / "good.journal")
        journal.append_config({"session": "good", "config": {
            "scenario": "continuous", "scale": 0.4}})
        journal.close()
        recovered = recover_sessions(tmp_path)
        assert [r.session_id for r in recovered] == ["good"]
        assert (tmp_path / "bad.corrupt").exists()
        assert not (tmp_path / "bad.journal").exists()


class TestSessionConfigRoundTrip:
    """A journaled config comes back equal, every field included."""

    CONFIG = SessionConfig(
        scenario="ragdoll", scale=0.4, seed=3,
        precision={"lcp": 9, "narrow": 11}, mode="rn", adaptive=True,
        step_budget=2.5, guarded=True, step_deadline=0.25,
        inject_rate=0.01, chaos_slow_every=4, chaos_slow_s=0.05)

    def test_dict_round_trip(self):
        for f in dataclasses.fields(SessionConfig):
            default = (f.default_factory()
                       if f.default_factory is not dataclasses.MISSING
                       else f.default)
            assert getattr(self.CONFIG, f.name) != default, f.name
        assert SessionConfig.from_dict(self.CONFIG.to_dict()) == self.CONFIG

    def test_a_new_field_is_journaled(self):
        @dataclasses.dataclass(frozen=True)
        class Extended(SessionConfig):
            extra: int = 0

        config = Extended(scenario="continuous", extra=5)
        assert Extended.from_dict(config.to_dict()) == config

    def test_journal_round_trip(self, tmp_path):
        store = JournalStore(tmp_path)
        store.open_session("s1", {"session": "s1",
                                  "config": self.CONFIG.to_dict()})
        store.flush()
        store.close()
        [recovered] = recover_sessions(tmp_path)
        assert SessionConfig.from_dict(recovered.config) == self.CONFIG


# ----------------------------------------------------------------------
# The recovery ladder (unit level, no server)
# ----------------------------------------------------------------------
def _guarded_config(**overrides):
    fields = dict(scenario="continuous", scale=0.4, seed=11,
                  precision={"narrow": 10, "lcp": 10}, guarded=True)
    fields.update(overrides)
    return SessionConfig(**fields)


class TestRecoveryLadder:
    def test_injected_faults_recover_at_rung_zero(self):
        session = Session("s1", _guarded_config(inject_rate=0.2))
        for _ in range(25):
            session.step(1)
        assert session.state == "active"
        events = session.drain_recovery_events()
        assert events, "a 0.2 inject rate must trip the guards"
        assert {e["outcome"] for e in events} == {"recovered"}
        assert all(e["rung"] == 0 for e in events)
        assert all(e["session"] == "s1" for e in events)
        assert session.drain_recovery_events() == []

    def test_deadline_violation_recovers_without_the_delay(self):
        session = Session("s1", _guarded_config(
            chaos_slow_every=1, chaos_slow_s=0.03, step_deadline=0.005))
        session.step(1)
        events = session.drain_recovery_events()
        assert len(events) == 1
        assert events[0]["outcome"] == "recovered"
        assert "deadline" in events[0]["reason"]

    def test_persistent_failure_rolls_back_to_journal(self, monkeypatch):
        session = Session("s1", _guarded_config())
        session.mark_journaled(*session.capture_for_journal())
        journal_step = session.world.step_count
        session.step(3)  # move past the journal point
        monkeypatch.setattr(
            session.world.__class__, "step",
            lambda self: (_ for _ in ()).throw(RuntimeError("boom")),
            raising=True)
        with pytest.raises(SessionDegraded) as err:
            session.step(1)
        assert err.value.code == "session_degraded"
        assert err.value.extra["step"] == journal_step
        assert session.state == "active"  # degraded, not dead
        monkeypatch.undo()
        assert session.world.step_count == journal_step
        events = session.drain_recovery_events()
        assert events[-1]["outcome"] == "degraded"
        assert events[-1]["rung"] == 1

    def test_no_journal_means_quarantine(self, monkeypatch):
        session = Session("s1", _guarded_config())
        assert session.last_journal is None
        monkeypatch.setattr(
            session.world.__class__, "step",
            lambda self: (_ for _ in ()).throw(RuntimeError("boom")),
            raising=True)
        with pytest.raises(SessionLost) as err:
            session.step(1)
        assert err.value.code == "session_lost"
        assert session.state == "quarantined"
        events = session.drain_recovery_events()
        assert events[-1]["outcome"] == "lost"
        with pytest.raises(Exception):
            session.step(1)  # quarantined sessions refuse work

    def test_recovered_step_stays_on_reference_trajectory(self):
        """Rung 0 is the paper's fail-safe: after a full-precision
        re-execution the state must equal an uninjected full-precision
        step from the same boundary."""
        config = _guarded_config(inject_rate=0.0)
        a = Session("a", config)
        b = Session("b", config)
        for _ in range(5):
            a.step(1)
            b.step(1)
        assert state_digest(a.world) == state_digest(b.world)


# ----------------------------------------------------------------------
# Manager respawn + restart recovery
# ----------------------------------------------------------------------
class TestManagerRecovery:
    def test_respawn_rebuilds_from_journal_mark(self, tmp_path):
        store = JournalStore(tmp_path)
        manager = SessionManager(journal=store)
        session = manager.create(SessionConfig(
            scenario="continuous", scale=0.4, seed=5))
        session.step(4)
        checkpoint, step, state = session.capture_for_journal()
        session.mark_journaled(checkpoint, step, state)
        session.step(2)  # past the mark; a respawn rewinds these
        fresh = manager.respawn(session.id)
        assert fresh is not None and fresh is not session
        assert fresh.world.step_count == step
        assert state_digest(fresh.world) == state
        assert manager.get(session.id) is fresh
        assert session.state == "evicted"
        assert manager.respawned_total == 1
        store.close()

    def test_respawn_without_journal_mark_returns_none(self):
        manager = SessionManager()
        session = manager.create(SessionConfig(
            scenario="continuous", scale=0.4))
        assert session.last_journal is None
        assert manager.respawn(session.id) is None

    def test_recover_from_store_is_bit_identical(self, tmp_path):
        store = JournalStore(tmp_path)
        manager = SessionManager(journal=store)
        session = manager.create(SessionConfig(
            scenario="continuous", scale=0.4, seed=9,
            precision={"narrow": 12}))
        session.step(6)
        checkpoint, step, state = session.capture_for_journal()
        store.append_snapshot(session.id, checkpoint, step, state)
        store.flush()
        store.close()

        store2 = JournalStore(tmp_path)
        manager2 = SessionManager(journal=store2)
        summary = manager2.recover_from(store2)
        store2.flush()
        assert [s["ok"] for s in summary] == [True]
        recovered = manager2.get(session.id)
        assert recovered.world.step_count == step
        assert state_digest(recovered.world) == state
        assert recovered.config.precision == {"narrow": 12}
        # Session-id sequence resumes past recovered ids.
        another = manager2.create(SessionConfig(scenario="continuous",
                                                scale=0.4))
        assert another.id != session.id
        store2.close()

    def test_recovery_rejects_digest_mismatch(self, tmp_path):
        store = JournalStore(tmp_path)
        manager = SessionManager(journal=store)
        session = manager.create(SessionConfig(
            scenario="continuous", scale=0.4, seed=2))
        session.step(3)
        checkpoint, step, _ = session.capture_for_journal()
        store.append_snapshot(session.id, checkpoint, step,
                              "0" * 64)  # a digest that cannot match
        store.flush()
        store.close()
        store2 = JournalStore(tmp_path)
        summary = SessionManager(journal=store2).recover_from(store2)
        assert summary[0]["ok"] is False
        assert "digest" in summary[0]["error"]
        store2.close()


# ----------------------------------------------------------------------
# Service level: restart, respawn-on-stuck, drain, idempotency
# ----------------------------------------------------------------------
class TestServiceResilience:
    def test_restart_recovers_sessions_bit_identically(self, tmp_path):
        journal_dir = str(tmp_path / "journals")
        handle = _server(journal_dir=journal_dir, journal_every=1)
        try:
            with handle.connect() as client:
                session = client.create("continuous", scale=0.4, seed=4)
                digest = client.step(session, 5)["digest"]
        finally:
            handle.stop()  # no drain: the crash surrogate

        handle2 = _server(journal_dir=journal_dir, journal_every=1)
        try:
            assert [r["ok"] for r in handle2.frontend.recovered] == [True]
            with handle2.connect() as client:
                stats = client.stats()
                [entry] = [s for s in stats["sessions"]
                           if s["session"] == session]
                assert entry["digest"] == digest
                assert entry["step"] == 5
                # The recovered session keeps stepping.
                assert client.step(session)["step"] == 6
        finally:
            handle2.stop()

    def test_restore_reply_means_its_journal_entry_is_written(
            self, tmp_path, monkeypatch):
        """A restore is answered only once its re-journal is on disk,
        however slow the journal writer: a crash right after the reply
        (a migration target killed at once) recovers the restored step.
        """
        import repro.serve.resilience as resilience

        serialize = resilience.serialize_checkpoint

        def slow_serialize(checkpoint):
            time.sleep(0.05)
            return serialize(checkpoint)

        monkeypatch.setattr(resilience, "serialize_checkpoint",
                            slow_serialize)
        journal_dir = tmp_path / "journals"
        handle = _server(journal_dir=str(journal_dir), journal_every=1)
        try:
            with handle.connect() as client:
                session = client.create("continuous", scale=0.4, seed=4)
                client.step(session, 2)
                snap = client.snapshot(session)
                client.step(session, 3)
                restored = client.restore(session,
                                          snapshot=snap["snapshot"])
                [rec] = recover_sessions(journal_dir)
                assert restored["step"] == 2
                assert (rec.step, rec.state) == (2, restored["digest"])
        finally:
            handle.stop()

    def test_stuck_step_respawns_instead_of_evicting(self, tmp_path):
        handle = _server(journal_dir=str(tmp_path / "j"),
                         journal_every=1)
        try:
            with handle.connect() as client:
                session = client.create("continuous", scale=0.4,
                                        step_budget=1e-4)
                retired = handle.frontend.manager.get(session).world
                with pytest.raises(ServeClientError) as err:
                    client.step(session, 200)
                at_reply = retired.step_count
                assert err.value.code == "budget_exceeded"
                assert "respawned" in err.value.detail
                # The respawn retired the old world: its worker stops at
                # the next step boundary instead of running out the
                # request on a world nobody serves.
                time.sleep(0.5)
                assert retired.step_count <= at_reply + 1
                # The session survived — unlike the journal-less path.
                response = client.request({"op": "stats"})
                assert response["respawned_total"] == 1
                assert session in {s["session"]
                                   for s in response["sessions"]}
        finally:
            handle.stop()

    def test_drain_flushes_journals_and_refuses_new_work(self, tmp_path):
        journal_dir = tmp_path / "journals"
        handle = _server(journal_dir=str(journal_dir), journal_every=50)
        client = handle.connect()
        session = client.create("continuous", scale=0.4, seed=8)
        digest = client.step(session, 3)["digest"]
        summary = handle.drain()
        assert summary["completed"] is True
        assert summary["journaled"] == 1
        client.close()
        # journal_every=50 means the only snapshot past create is the
        # drain's final flush — and it must carry the latest state.
        [rec] = recover_sessions(journal_dir)
        assert rec.step == 3
        world = build("continuous", scale=0.4, seed=8)
        world.bodies.ensure_world_row()
        restore_world(world, rec.checkpoint)
        assert state_digest(world) == digest == rec.state

    def test_draining_flag_rejects_work_with_retry_hint(self):
        handle = _server()
        try:
            with handle.connect() as client:
                session = client.create("continuous", scale=0.4)
                handle.frontend._draining = True
                with pytest.raises(ServeClientError) as err:
                    client.step(session)
                assert err.value.code == "draining"
                assert err.value.response["retry_after_ms"] >= 1
                assert client.ping()["draining"] is True
        finally:
            handle.frontend._draining = False
            handle.stop()

    def test_idempotent_request_id_replays_not_reexecutes(self):
        handle = _server()
        try:
            with handle.connect() as client:
                session = client.create("continuous", scale=0.4)
                frame = {"op": "step", "session": session, "steps": 2,
                         "id": "once"}
                first = client.request(frame)
                again = client.request(frame)
                assert first["step"] == again["step"] == 2
                assert again["replayed"] is True
                assert "replayed" not in first
                # A fresh id executes for real.
                assert client.step(session)["step"] == 3
        finally:
            handle.stop()

    def test_failing_journal_disk_is_visible(self, tmp_path, monkeypatch):
        def disk_full(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(SessionJournal, "append_snapshot", disk_full)
        handle = _server(journal_dir=str(tmp_path / "journals"),
                         journal_every=1)
        try:
            with handle.connect() as client:
                session = client.create("continuous", scale=0.4)
                assert client.step(session, 3)["step"] == 3
                handle.frontend.journal.flush()
                stats = client.stats()
            errors = stats["journal_append_errors"]
            assert errors >= 1
            metric = stats["metrics"]["serve.journal.append_errors"]
            assert metric["value"] == errors
            [incident] = handle.frontend.incidents.records
            assert session in incident.detail
            assert "No space left on device" in incident.detail
        finally:
            handle.stop()

    def test_internal_error_logs_an_incident(self):
        handle = _server()
        try:
            with handle.connect() as client:
                client.create("continuous", scale=0.4)
                original = handle.frontend.manager.get
                handle.frontend.manager.get = \
                    lambda *a: (_ for _ in ()).throw(RuntimeError("bug"))
                try:
                    with pytest.raises(ServeClientError) as err:
                        client.step("s1")
                    assert err.value.code == "internal"
                finally:
                    handle.frontend.manager.get = original
                assert client.stats()["incidents"] == 1
                incidents = handle.frontend.incidents.records
                assert "RuntimeError: bug" in incidents[0].detail
        finally:
            handle.stop()

    def test_guarded_session_recovers_over_the_wire(self):
        handle = _server(allow_chaos=True)
        try:
            with handle.connect() as client:
                session = client.create(
                    "continuous", scale=0.4, seed=3,
                    precision={"narrow": 10, "lcp": 10},
                    guarded=True, inject_rate=0.2)
                response = client.step(session, 25)
                assert response["step"] == 25
                stats = client.stats()
                assert stats["recoveries"] > 0
        finally:
            handle.stop()

    def test_chaos_fields_require_allow_chaos(self):
        handle = _server()  # allow_chaos defaults off
        try:
            with handle.connect() as client:
                with pytest.raises(ServeClientError) as err:
                    client.create("continuous", scale=0.4,
                                  inject_rate=0.5)
                assert err.value.code == "bad_request"
                assert "allow-chaos" in err.value.detail
        finally:
            handle.stop()


class TestRestoreMarksTheRecoveryTarget:
    """A restore is what a later rung-1 rollback or respawn rewinds to,
    with or without a journal directory."""

    @pytest.mark.parametrize("recovery", ["rollback", "respawn"])
    def test_recovery_lands_on_the_restored_state(self, monkeypatch,
                                                  recovery):
        armed = threading.Event()
        targets = set()  # ids of the recovering session's body store
        solve_worlds = lcp.solve_worlds

        def solve(ctx, stores, rows_list, params):
            if armed.is_set() and id(stores[0]) in targets:
                if recovery == "rollback":  # the retry fails too
                    raise RuntimeError("solver fault")
                deadline = time.perf_counter() + 5.0
                while armed.is_set() and time.perf_counter() < deadline:
                    time.sleep(0.01)
            return solve_worlds(ctx, stores, rows_list, params)
        monkeypatch.setattr(lcp, "solve_worlds", solve)

        handle = _server()  # no journal dir: the marks live in memory
        try:
            with handle.connect() as client:
                donor = client.create("continuous", scale=0.4, seed=5)
                client.step(donor, 6)
                data = client.snapshot(donor)["data"]
                options = ({"guarded": True} if recovery == "rollback"
                           else {"step_budget": 0.5})
                session = client.create("continuous", scale=0.4, seed=5,
                                        **options)
                client.step(session, 2)
                restored = client.restore(session, data=data)
                targets.add(id(handle.frontend.manager.get(session)
                               .world.bodies))
                armed.set()
                with pytest.raises(ServeClientError) as err:
                    client.step(session, 3)
                armed.clear()
                now = client.step(session, 0)
        finally:
            handle.stop()
        assert err.value.code == ("session_degraded"
                                  if recovery == "rollback"
                                  else "budget_exceeded")
        assert restored["step"] == 6
        assert (now["step"], now["digest"]) == (6, restored["digest"])


class TestFleetFailures:
    """A fleet step that fails answers and recovers every member as a
    failed solo step does: the scheduler has one run path for both."""

    @staticmethod
    def _step_together(handle, sessions, steps=1):
        """Step every session from its own client at once; returns each
        session's response or :class:`ServeClientError`."""
        barrier = threading.Barrier(len(sessions))
        answers = {}

        def _run(session):
            with handle.connect() as client:
                barrier.wait(timeout=30.0)
                try:
                    answers[session] = client.step(session, steps)
                except ServeClientError as exc:
                    answers[session] = exc

        threads = [threading.Thread(target=_run, args=(session,))
                   for session in sessions]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        return answers

    def _drive(self, tmp_path, monkeypatch, fleet_step, fault, **create):
        """Two sessions step 3 together, then once with ``fault(armed)``
        called before the constraint solve, then once more after
        ``armed`` is cleared."""
        armed = threading.Event()
        targets = set()  # ids of this test's body stores
        widths = []
        solve_worlds = lcp.solve_worlds

        def solve(ctx, stores, rows_list, params):
            # Worker threads orphaned by other tests may still be
            # stepping their own worlds; leave those alone.
            if armed.is_set() and id(stores[0]) in targets:
                widths.append(len(stores))
                fault(armed)
            return solve_worlds(ctx, stores, rows_list, params)
        monkeypatch.setattr(lcp, "solve_worlds", solve)

        handle = _server(journal_dir=str(tmp_path / "j"), journal_every=1,
                         batch_window=0.2, fleet_step=fleet_step)
        try:
            with handle.connect() as client:
                sessions = [client.create("continuous", scale=0.4, seed=5,
                                          **create) for _ in range(2)]
            self._step_together(handle, sessions, 3)
            targets.update(id(handle.frontend.manager.get(session)
                              .world.bodies) for session in sessions)
            armed.set()
            failed = self._step_together(handle, sessions)
            armed.clear()
            after = self._step_together(handle, sessions)
            with handle.connect() as client:
                stats = client.stats()
        finally:
            handle.stop()
        # One fleet task over both worlds, or one solo task per world.
        assert sorted(widths) == ([2] if fleet_step else [1, 1])
        assert stats["respawned_total"] == 2
        for session in sessions:
            assert after[session]["step"] == 4
        return sessions, failed

    @pytest.mark.parametrize("fleet_step", [True, False],
                             ids=["fleet", "solo"])
    def test_raising_step_degrades_and_respawns_each_member(
            self, tmp_path, monkeypatch, fleet_step):
        def crash(armed):
            raise RuntimeError("solver fault")

        sessions, failed = self._drive(tmp_path, monkeypatch, fleet_step,
                                       crash)
        for session in sessions:
            error = failed[session]
            assert isinstance(error, ServeClientError)
            assert error.code == "session_degraded"
            assert error.detail == (
                "step failed (RuntimeError: solver fault); session "
                "respawned at journaled step 3")
            assert error.response["step"] == 3

    @pytest.mark.parametrize("fleet_step", [True, False],
                             ids=["fleet", "solo"])
    def test_overrunning_step_answers_budget_exceeded(
            self, tmp_path, monkeypatch, fleet_step):
        def stall(armed):
            # Wedge the worker until the faulty step is over.
            deadline = time.perf_counter() + 5.0
            while armed.is_set() and time.perf_counter() < deadline:
                time.sleep(0.01)

        sessions, failed = self._drive(tmp_path, monkeypatch, fleet_step,
                                       stall, step_budget=0.5)
        for session in sessions:
            error = failed[session]
            assert isinstance(error, ServeClientError)
            assert error.code == "budget_exceeded"
            assert error.detail == (
                f"step budget of 0.500s exceeded; session {session} "
                f"respawned at step 3")


class TestSigtermDrain:
    @pytest.mark.parametrize("flags, sessions", [
        (["--journal-dir", "journals"], 1),
        (["--shards", "2", "--runtime-dir", "runtime"], 4),
    ], ids=["service", "gateway"])
    def test_sigterm_drains_a_real_server_process(self, tmp_path, flags,
                                                  sessions):
        """``python -m repro serve`` must drain on SIGTERM (journals
        flushed, exit 0), not die with a traceback — for the service
        and for the sharded gateway."""
        sock_path = str(tmp_path / "serve.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent
                                / "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--unix", sock_path, "--journal-every", "1000"] + flags,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=tmp_path)
        try:
            deadline = time.time() + 60
            while not os.path.exists(sock_path):
                assert proc.poll() is None, proc.stdout.read()
                assert time.time() < deadline, "server never bound"
                time.sleep(0.05)
            with Client(unix_path=sock_path, timeout=30.0) as client:
                sids = [client.create("continuous", scale=0.4, seed=6)
                        for _ in range(sessions)]
                for sid in sids:
                    client.step(sid, 3)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert proc.returncode == 0, out
        assert "draining" in out
        assert "Traceback" not in out
        # journal_every=1000: only the drain flush can have journaled
        # the stepped state.
        journal_dirs = {path.parent for path in tmp_path.rglob("*.journal")}
        steps = {rec.session_id: rec.step for directory in journal_dirs
                 for rec in recover_sessions(directory)}
        assert steps == {sid: 3 for sid in sids}


# ----------------------------------------------------------------------
# Client: typed errors, retry policy, resilient client
# ----------------------------------------------------------------------
class TestClientErrors:
    def test_timeout_is_typed_and_carries_request_id(self):
        handle = _server()
        slow = None
        try:
            with handle.connect() as client:
                session = client.create("continuous", scale=0.4)
            slow = handle.connect(timeout=0.005)
            with pytest.raises(ClientTimeoutError) as err:
                slow.request({"op": "step", "session": session,
                              "steps": 40, "id": "pending-1"})
            assert err.value.request_id == "pending-1"
            assert isinstance(err.value, TimeoutError)
            assert not isinstance(err.value, ServeClientError)
            # After the timeout, the stale response is skipped and the
            # connection keeps correlating correctly.
            slow._sock.settimeout(30.0)
            assert slow.ping()["ok"]
        finally:
            if slow is not None:
                slow.close()
            handle.stop()

    def test_server_hangup_is_connection_lost(self):
        handle = _server()
        client = handle.connect()
        client.ping()
        handle.stop()
        with pytest.raises(ConnectionLost):
            client.ping()
        client.close()

    def test_requests_get_automatic_ids(self):
        handle = _server()
        try:
            with handle.connect() as client:
                response = client.ping()
                assert "id" in response  # echoed, therefore assigned
        finally:
            handle.stop()


class TestRetryPolicy:
    def test_backoff_grows_and_is_bounded(self):
        policy = RetryPolicy(base_delay=0.1, max_delay=1.0, jitter=0.0)
        rng = random.Random(0)
        delays = [policy.delay(a, rng) for a in range(8)]
        assert delays[0] == pytest.approx(0.1)
        assert delays[1] == pytest.approx(0.2)
        assert all(d <= 1.0 for d in delays)
        assert delays == sorted(delays)

    def test_server_hint_overrides_backoff(self):
        policy = RetryPolicy(base_delay=0.1, jitter=0.0)
        rng = random.Random(0)
        assert policy.delay(5, rng, hint_s=0.02) == pytest.approx(0.02)

    def test_jitter_spreads_delays(self):
        policy = RetryPolicy(base_delay=0.1, jitter=1.0)
        rng = random.Random(1)
        delays = {policy.delay(0, rng) for _ in range(16)}
        assert len(delays) > 1
        assert all(0.1 <= d <= 0.2 for d in delays)

    def test_busy_rejection_carries_retry_after_ms(self):
        from repro.serve import AdmissionController, AdmissionPolicy
        from repro.serve.protocol import ServiceError

        admission = AdmissionController(AdmissionPolicy(
            max_pending_per_session=1, tick_period=0.01))
        admission.admit("s1")
        with pytest.raises(ServiceError) as err:
            admission.admit("s1")
        assert err.value.code == "busy"
        assert err.value.extra["retry_after_ms"] >= 1


class TestResilientClient:
    def test_reconnects_across_a_server_restart(self, tmp_path):
        journal_dir = str(tmp_path / "journals")

        def config():
            return ServiceConfig(port=0, max_sessions=8,
                                 journal_dir=journal_dir,
                                 journal_every=1)

        holder = {"handle": start_in_thread(config())}
        client = ResilientClient(
            lambda: holder["handle"].address(),
            policy=RetryPolicy(max_attempts=10, base_delay=0.05,
                               max_delay=0.5),
            seed=0)
        try:
            session = client.create("continuous", scale=0.4, seed=12)
            client.step(session, 4)
            holder["handle"].stop()  # crash, new port on restart
            holder["handle"] = start_in_thread(config())
            response = client.step(session, 2)
            assert response["step"] == 6
            assert client.acked_step(session) == 6
            assert client.reconnects >= 2
        finally:
            client.close()
            holder["handle"].stop()

    def test_killed_connection_is_transparent(self):
        handle = _server()
        client = ResilientClient(handle.address(), seed=0)
        try:
            session = client.create("continuous", scale=0.4)
            client.step(session, 2)
            client.kill_connection()
            assert client.step(session)["step"] == 3
        finally:
            client.close()
            handle.stop()

    def test_degraded_session_gap_is_replayed(self, tmp_path):
        """A rollback response turns into extra steps, so the caller's
        view of progress never goes backwards."""
        handle = _server(journal_dir=str(tmp_path / "j"),
                         journal_every=100, allow_chaos=True)
        client = ResilientClient(handle.address(), seed=0)
        try:
            session = client.create("continuous", scale=0.4, seed=1,
                                    precision={"narrow": 10, "lcp": 10},
                                    guarded=True)
            client.step(session, 5)
            # Poison the world so both the primary step and the rung-0
            # full-precision retry fail, forcing a rung-1 rollback to
            # the only journal mark (step 0, journal_every=100); the
            # fault then clears and the client replays the gap.
            service_session = handle.frontend.manager.get(session)
            real_step = service_session.world.__class__.step
            calls = {"n": 0}

            def poisoned(world_self):
                calls["n"] += 1
                if calls["n"] <= 2:
                    raise RuntimeError("transient corruption")
                return real_step(world_self)

            service_session.world.__class__.step = poisoned
            try:
                response = client.step(session, 1)
            finally:
                service_session.world.__class__.step = real_step
            assert response["step"] == 6
            assert client.acked_step(session) == 6
        finally:
            client.close()
            handle.stop()
