"""Tests for the multi-session simulation service (``repro.serve``)."""

import asyncio
import base64
import gc
import logging
import threading

import pytest

from repro.obs import NullSink, Tracer, validate_events
from repro.physics import WorldBatch
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    Client,
    ServeBenchConfig,
    ServeClientError,
    ServiceConfig,
    ProtocolError,
    ServiceError,
    SimulationService,
    decode_frame,
    encode_frame,
    render_serve_summary,
    run_serve_bench,
    start_in_thread,
    state_digest,
)
from repro.serve.protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    error_response,
    ok_response,
    parse_request,
)
from repro.serve.session import SessionConfig, SessionManager
from repro.workloads import build


def _capture_tracer():
    """A tracer whose sink appends every event to a shared list."""
    captured = []
    sink = NullSink()
    sink.write = lambda event: captured.append(event)
    return Tracer(sink), captured


def _server(**overrides):
    observer = overrides.pop("observer", None)
    defaults = dict(port=0, max_sessions=8)
    defaults.update(overrides)
    return start_in_thread(ServiceConfig(**defaults), observer=observer)


class TestProtocol:
    def test_frame_round_trip(self):
        frame = {"op": "step", "session": "s1", "steps": 3}
        assert decode_frame(encode_frame(frame)) == frame

    def test_encoded_frame_is_one_line(self):
        raw = encode_frame({"op": "ping"})
        assert raw.endswith(b"\n") and raw.count(b"\n") == 1

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            decode_frame(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_frame(b"[1, 2, 3]\n")  # not an object
        with pytest.raises(ProtocolError):
            decode_frame(b"   \n")  # empty

    def test_decode_rejects_oversized_frame(self):
        blob = b'{"op": "' + b"x" * MAX_FRAME_BYTES + b'"}\n'
        with pytest.raises(ProtocolError):
            decode_frame(blob)

    def test_parse_request_validates_envelope(self):
        assert parse_request({"op": "ping"}) == "ping"
        with pytest.raises(ServiceError) as err:
            parse_request({"op": "warp"})
        assert err.value.code == "unknown_op"
        with pytest.raises(ServiceError) as err:
            parse_request({"op": "step"})  # session required
        assert err.value.code == "bad_request"
        with pytest.raises(ServiceError):
            parse_request({"op": "step", "session": "s1", "steps": -1})
        with pytest.raises(ServiceError):
            parse_request({"steps": 1})  # op missing

    def test_responses_echo_correlation_id(self):
        request = {"op": "ping", "id": "xyz"}
        assert ok_response(request, pong=True)["id"] == "xyz"
        assert error_response("busy", "later", request)["id"] == "xyz"
        assert "id" not in ok_response({"op": "ping"})

    def test_error_codes_cover_service_errors(self):
        for code in ("busy", "server_full", "budget_exceeded"):
            assert code in ERROR_CODES


class TestSessionConfig:
    def test_from_frame_defaults(self):
        config = SessionConfig.from_frame({"op": "create",
                                           "scenario": "continuous"})
        assert config.scenario == "continuous"
        assert config.scale == 1.0 and config.seed is None
        assert config.precision == {} and not config.adaptive

    def test_from_frame_requires_scenario_string(self):
        with pytest.raises(ServiceError) as err:
            SessionConfig.from_frame({"op": "create"})
        assert err.value.code == "bad_request"
        with pytest.raises(ServiceError):
            SessionConfig.from_frame({"op": "create", "scenario": 7})

    def test_from_frame_validates_precision_map(self):
        with pytest.raises(ServiceError):
            SessionConfig.from_frame(
                {"scenario": "continuous", "precision": {"lcp": "six"}})
        config = SessionConfig.from_frame(
            {"scenario": "continuous",
             "precision": {"lcp": 8, "narrow": 23}})
        # full-precision (23-bit) entries are dropped, like the CLI
        assert config.precision == {"lcp": 8}

    def test_from_frame_validates_step_budget(self):
        with pytest.raises(ServiceError):
            SessionConfig.from_frame(
                {"scenario": "continuous", "step_budget": "fast"})
        config = SessionConfig.from_frame(
            {"scenario": "continuous", "step_budget": 2})
        assert config.step_budget == 2.0


class TestCreateValidation:
    """``create`` refuses fields that would break the session or its
    ladder."""

    @pytest.mark.parametrize("field,value", [
        ("step_deadline", 0), ("step_budget", 0), ("step_budget", -5),
        ("chaos_slow_s", -1), ("precision", {"narrow": 9, "lcp": -3}),
        ("precision", {"lcp": 24}), ("precision", {"lcp": 99}),
        # JSON booleans are not numbers
        ("precision", {"lcp": False, "narrow": True}), ("seed", True),
        ("scale", True), ("step_budget", True), ("step_deadline", True),
        ("inject_rate", True), ("chaos_slow_every", True),
        ("chaos_slow_s", True)])
    def test_bad_request_names_the_field(self, field, value):
        service = SimulationService(ServiceConfig(allow_chaos=True))
        frame = {"op": "create", "scenario": "continuous", "scale": 0.4,
                 "guarded": True, "chaos_slow_every": 1, field: value}
        reply = asyncio.run(service.handle_request(frame))
        assert reply["ok"] is False
        assert reply["error"] == "bad_request"
        assert field in reply["detail"]
        assert len(service.manager) == 0


class TestSessionManager:
    def _config(self):
        return SessionConfig(scenario="continuous", scale=0.4, seed=3)

    def test_lifecycle(self):
        manager = SessionManager(max_sessions=2)
        session = manager.create(self._config())
        assert len(manager) == 1
        assert manager.get(session.id) is session
        result = session.step(2)
        assert result["step"] == 2 and session.steps_run == 2
        manager.close(session.id)
        assert len(manager) == 0
        with pytest.raises(ServiceError) as err:
            manager.get(session.id)
        assert err.value.code == "unknown_session"

    def test_capacity_rejected_as_server_full(self):
        manager = SessionManager(max_sessions=1)
        manager.create(self._config())
        with pytest.raises(ServiceError) as err:
            manager.create(self._config())
        assert err.value.code == "server_full"

    def test_closed_session_refuses_work(self):
        manager = SessionManager(max_sessions=1)
        session = manager.create(self._config())
        manager.close(session.id)
        with pytest.raises(ServiceError) as err:
            session.step()
        assert err.value.code == "session_closed"

    def test_evict_marks_and_notifies(self):
        tracer, captured = _capture_tracer()
        manager = SessionManager(max_sessions=1, observer=tracer)
        session = manager.create(self._config())
        manager.evict(session.id, "budget_exceeded")
        assert session.state == "evicted"
        assert manager.evicted_total == 1
        manager.evict(session.id, "budget_exceeded")  # idempotent
        assert manager.evicted_total == 1
        evicts = [e for e in captured if e["kind"] == "serve.evict"]
        assert len(evicts) == 1
        assert evicts[0]["reason"] == "budget_exceeded"

    def test_snapshot_restore_in_place(self):
        manager = SessionManager(max_sessions=1)
        session = manager.create(self._config())
        session.step(5)
        snap = session.snapshot()
        digest_before = session.describe()["digest"]
        session.step(5)
        assert session.describe()["digest"] != digest_before
        session.restore(snapshot_id=snap["snapshot"])
        assert session.describe()["digest"] == digest_before

    def test_restore_rejects_unknown_snapshot_and_bad_bytes(self):
        manager = SessionManager(max_sessions=1)
        session = manager.create(self._config())
        with pytest.raises(ServiceError) as err:
            session.restore(snapshot_id="nope")
        assert err.value.code == "unknown_snapshot"
        with pytest.raises(ServiceError) as err:
            session.restore(data=b"garbage")
        assert err.value.code == "bad_request"

    def test_restore_rejects_mismatched_scenario(self):
        manager = SessionManager(max_sessions=2)
        small = manager.create(self._config())
        big = manager.create(SessionConfig(scenario="ragdoll", scale=0.4))
        snap = small.snapshot()
        with pytest.raises(ServiceError) as err:
            big.restore(data=snap["data"])
        assert err.value.code == "bad_request"

    def test_snapshot_ring_is_bounded(self):
        from repro.serve.session import MAX_SNAPSHOTS

        manager = SessionManager(max_sessions=1)
        session = manager.create(self._config())
        first = session.snapshot()["snapshot"]
        for _ in range(MAX_SNAPSHOTS):
            session.snapshot()
        with pytest.raises(ServiceError) as err:
            session.restore(snapshot_id=first)  # oldest was dropped
        assert err.value.code == "unknown_snapshot"


class TestStateDigest:
    def test_same_trajectory_same_digest(self):
        a = build("continuous", scale=0.4, seed=11)
        b = build("continuous", scale=0.4, seed=11)
        for _ in range(5):
            a.step()
            b.step()
        assert state_digest(a) == state_digest(b)

    def test_divergence_changes_digest(self):
        a = build("continuous", scale=0.4, seed=11)
        b = build("continuous", scale=0.4, seed=11)
        b.apply_impulse(0, [0, 1e-4, 0])
        a.step()
        b.step()
        assert state_digest(a) != state_digest(b)


class TestAdmissionController:
    def test_per_session_backlog_rejected_busy(self):
        admission = AdmissionController(
            AdmissionPolicy(max_pending_per_session=2, max_queue_depth=10))
        admission.admit("s1")
        admission.admit("s1")
        with pytest.raises(ServiceError) as err:
            admission.admit("s1")
        assert err.value.code == "busy"
        assert admission.rejected_total == 1
        admission.admit("s2")  # other sessions unaffected

    def test_global_queue_depth_rejected_busy(self):
        admission = AdmissionController(
            AdmissionPolicy(max_pending_per_session=10, max_queue_depth=2))
        admission.admit("s1")
        admission.admit("s2")
        with pytest.raises(ServiceError) as err:
            admission.admit("s3")
        assert err.value.code == "busy"

    def test_release_frees_capacity(self):
        admission = AdmissionController(
            AdmissionPolicy(max_pending_per_session=1, max_queue_depth=1))
        admission.admit("s1")
        admission.release("s1")
        admission.admit("s1")  # no raise
        assert admission.queue_depth == 1
        assert admission.pending_for("s1") == 1

    def test_budget_override_per_session(self):
        admission = AdmissionController(AdmissionPolicy(step_budget=9.0))
        default = SessionConfig(scenario="continuous")
        custom = SessionConfig(scenario="continuous", step_budget=0.5)

        class Holder:
            def __init__(self, config):
                self.config = config

        assert admission.budget_for(Holder(default)) == 9.0
        assert admission.budget_for(Holder(custom)) == 0.5


class TestServiceOverTheWire:
    def test_ping_create_step_close(self):
        handle = _server()
        try:
            with handle.connect() as client:
                pong = client.ping()
                assert pong["protocol"] == 1 and pong["sessions"] == 0
                session = client.create("continuous", scale=0.4, seed=3)
                result = client.step(session, 5)
                assert result["step"] == 5
                assert result["contacts"] >= 0
                stats = client.stats()
                assert stats["active_sessions"] == 1
                assert stats["created_total"] == 1
                closed = client.close_session(session)
                assert closed["steps_run"] == 5
                with pytest.raises(ServeClientError) as err:
                    client.step(session)
                assert err.value.code == "unknown_session"
        finally:
            handle.stop()

    def test_unknown_scenario_lists_valid_names(self):
        handle = _server()
        try:
            with handle.connect() as client:
                with pytest.raises(ServeClientError) as err:
                    client.create("nosuch")
                assert err.value.code == "bad_request"
                assert "valid scenarios" in err.value.detail
                assert "continuous" in err.value.detail
        finally:
            handle.stop()

    def test_malformed_frame_keeps_connection_alive(self):
        handle = _server()
        try:
            with handle.connect() as client:
                client._file.write(b"this is not json\n")
                client._file.flush()
                response = decode_frame(client._file.readline())
                assert response["ok"] is False
                assert response["error"] == "bad_frame"
                assert client.ping()["ok"]  # connection survived
        finally:
            handle.stop()

    def test_server_full_create(self):
        handle = _server(max_sessions=1)
        try:
            with handle.connect() as client:
                client.create("continuous", scale=0.4)
                with pytest.raises(ServeClientError) as err:
                    client.create("continuous", scale=0.4)
                assert err.value.code == "server_full"
        finally:
            handle.stop()

    def test_budget_blown_evicts_session(self):
        handle = _server()
        try:
            with handle.connect() as client:
                session = client.create("continuous", scale=0.4,
                                        step_budget=1e-4)
                with pytest.raises(ServeClientError) as err:
                    client.step(session, 50)
                assert err.value.code == "budget_exceeded"
                with pytest.raises(ServeClientError) as err:
                    client.step(session)
                assert err.value.code == "unknown_session"
                assert client.stats()["evicted_total"] == 1
        finally:
            handle.stop()

    def test_snapshot_restore_bit_identity_over_wire(self):
        """The acceptance-criteria property, end to end on the socket."""
        handle = _server()
        opts = dict(scale=0.4, seed=7)
        try:
            with handle.connect() as client:
                straight = client.create("continuous", **opts)
                digest_straight = client.step(straight, 20)["digest"]

                snapped = client.create("continuous", **opts)
                client.step(snapped, 10)
                snap = client.snapshot(snapped)
                assert snap["step"] == 10 and len(snap["data"]) > 0
                digest_snapped = client.step(snapped, 10)["digest"]

                fresh = client.create("continuous", **opts)
                restored = client.restore(fresh, data=snap["data"],
                                          precisions=snap["precisions"])
                assert restored["step"] == 10
                digest_fresh = client.step(fresh, 10)["digest"]

                client.restore(snapped, snapshot=snap["snapshot"])
                digest_rewound = client.step(snapped, 10)["digest"]

                assert digest_straight == digest_snapped
                assert digest_straight == digest_fresh
                assert digest_straight == digest_rewound
        finally:
            handle.stop()

    def test_restore_rejects_bad_base64(self):
        handle = _server()
        try:
            with handle.connect() as client:
                session = client.create("continuous", scale=0.4)
                with pytest.raises(ServeClientError) as err:
                    client.request({"op": "restore", "session": session,
                                    "data": "!!! not base64 !!!"})
                assert err.value.code == "bad_request"
        finally:
            handle.stop()

    def test_adaptive_session_steps(self):
        handle = _server()
        try:
            with handle.connect() as client:
                session = client.create("continuous", scale=0.4,
                                        precision={"lcp": 8},
                                        adaptive=True)
                assert client.step(session, 5)["step"] == 5
        finally:
            handle.stop()


class TestConcurrentSessionsTraced:
    def test_three_sessions_with_snapshot_restore_emit_valid_events(self):
        """The CI smoke scenario: 3 concurrent clients, 20 steps each,
        one snapshot/restore, with every serve.* event schema-valid."""
        tracer, captured = _capture_tracer()
        handle = start_in_thread(ServiceConfig(port=0, max_sessions=8),
                                 observer=tracer)
        digests = {}
        errors = []

        def _drive(tag):
            try:
                with handle.connect() as client:
                    session = client.create("continuous", scale=0.4,
                                            seed=5)
                    client.step(session, 10)
                    snap = client.snapshot(session)
                    client.step(session, 10)
                    client.restore(session, snapshot=snap["snapshot"])
                    digests[tag] = client.step(session, 10)["digest"]
                    client.close_session(session)
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(f"{tag}: {exc}")

        threads = [threading.Thread(target=_drive, args=(i,))
                   for i in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        handle.stop()

        assert not errors
        # identical configs on identical trajectories agree
        assert len(set(digests.values())) == 1

        serve_events = [e for e in captured
                        if e["kind"].startswith("serve.")]
        requests = [e for e in serve_events
                    if e["kind"] == "serve.request"]
        batches = [e for e in serve_events if e["kind"] == "serve.batch"]
        assert all(e["ok"] for e in requests)
        ops = {e["op"] for e in requests}
        assert {"create", "step", "snapshot", "restore",
                "close"} <= ops
        assert batches and all(e["sessions"] >= 1 for e in batches)
        assert sum(e["steps"] for e in batches) == 3 * 30
        invalid, problems = validate_events(serve_events)
        assert invalid == 0, problems

    def test_registry_counts_requests_and_batches(self):
        handle = _server()
        try:
            with handle.connect() as client:
                session = client.create("continuous", scale=0.4)
                client.step(session, 3)
                stats = client.stats()
            metrics = stats["metrics"]
            assert metrics["serve.requests{op=create}"]["value"] == 1
            assert metrics["serve.requests{op=step}"]["value"] == 1
            assert metrics["serve.sessions"]["value"] == 1
            assert stats["batches"] >= 1
            assert stats["steps_dispatched"] == 3
        finally:
            handle.stop()


    @pytest.mark.parametrize("traced", [False, True])
    def test_request_counted_once(self, traced):
        observer = Tracer(NullSink()) if traced else None
        service = SimulationService(ServiceConfig(), observer=observer)
        reply = asyncio.run(service.handle_request({"op": "ping"}))
        assert reply["ok"] is True
        assert service.registry.counter("serve.requests",
                                        op="ping").value == 1


class TestServeBench:
    def test_bench_smoke_payload(self, tmp_path):
        payload = run_serve_bench(ServeBenchConfig(
            clients=2, steps_per_client=3, scale=0.4,
            fidelity_steps=3, output_dir=str(tmp_path)))
        assert payload["ok"] is True
        bench = payload["serve_bench"]
        assert bench["requests_ok"] == 6
        assert bench["sessions_dropped"] == 0
        assert bench["steps_per_sec"] > 0
        assert bench["p95_ms"] >= bench["p50_ms"] >= 0
        assert bench["fidelity"]["bit_identical"] is True
        written = list(tmp_path.glob("BENCH_*_serve.json"))
        assert len(written) == 1

    def test_render_summary_mentions_the_gates(self, tmp_path):
        payload = run_serve_bench(ServeBenchConfig(
            clients=2, steps_per_client=2, scale=0.4,
            fidelity_steps=2, output_dir=str(tmp_path)))
        text = render_serve_summary(payload)
        assert "steps/s aggregate" in text
        assert "p50" in text and "p95" in text
        assert "bit-identical" in text
        assert text.strip().endswith(payload["path"].split("/")[-1])


class TestSnapshotWireEncoding:
    def test_snapshot_payload_is_base64_on_the_wire(self):
        handle = _server()
        try:
            with handle.connect() as client:
                session = client.create("continuous", scale=0.4)
                client.step(session, 2)
                raw = client.request({"op": "snapshot",
                                      "session": session})
                blob = base64.b64decode(raw["data"], validate=True)
                assert blob[:8] == b"RPROCKPT"
        finally:
            handle.stop()


class FramingFaults:
    """Torn and garbage frames stay contained to their connection.

    Collected through subclasses that provide a ``frontend`` fixture (a
    running :class:`~repro.serve.client.ServerHandle`): the service
    below, the sharded gateway in ``test_serve_shard``.
    """

    def test_torn_partial_frame_then_eof_drops_only_that_connection(
            self, frontend):
        with frontend.connect() as good:
            session = good.create("continuous", scale=0.4)
            bad = frontend.connect()
            # Half a frame, no newline, then a hard close: the server
            # cannot resync a torn NDJSON stream and must simply drop
            # the connection.
            bad._file.write(b'{"op": "step", "session": "s1"')
            bad._file.flush()
            bad._sock.close()
            # The healthy connection is unaffected.
            assert good.step(session)["step"] == 1
            assert good.ping()["ok"]
            good.close_session(session)

    def test_binary_garbage_line_gets_bad_frame_not_a_hangup(
            self, frontend):
        with frontend.connect() as client:
            client._file.write(b"\x00\xff\xfe garbage \xba\xad\n")
            client._file.flush()
            response = decode_frame(client._file.readline())
            assert response["ok"] is False
            assert response["error"] == "bad_frame"
            assert client.ping()["ok"]


class TestConnectionFaults(FramingFaults):
    """Torn frames and mid-batch disconnects must stay contained: the
    one bad connection drops, its session stays recoverable via the
    journal, and everyone else keeps batching."""

    @pytest.fixture
    def frontend(self):
        handle = _server()
        yield handle
        handle.stop()

    def test_mid_batch_disconnect_keeps_batching_and_journal(
            self, tmp_path):
        journal_dir = tmp_path / "journals"
        handle = _server(journal_dir=str(journal_dir), journal_every=1)
        try:
            survivor = handle.connect()
            victim = handle.connect()
            s_keep = survivor.create("continuous", scale=0.4, seed=1)
            s_drop = victim.create("continuous", scale=0.4, seed=2)
            survivor.step(s_keep, 2)
            victim.step(s_drop, 2)
            # Fire a step and RST the connection before reading the
            # response — the server is mid-batch when the socket dies.
            victim._file.write(encode_frame(
                {"op": "step", "session": s_drop, "steps": 1}))
            victim._file.flush()
            victim.kill()
            # The other session keeps batching.
            for i in range(3, 6):
                assert survivor.step(s_keep)["step"] == i
            stats = survivor.stats()
            sessions = {s["session"] for s in stats["sessions"]}
            assert {s_keep, s_drop} <= sessions  # nothing evicted
            survivor.close()
        finally:
            handle.stop()
        # The dropped client's session is recoverable from its journal.
        from repro.serve import recover_sessions

        recovered = {r.session_id for r in recover_sessions(journal_dir)}
        assert s_drop in recovered


class TestStopEndsConnectionHandlers:
    """``stop`` cancels and awaits every connection's handler, so none
    is left pending when the front end's loop closes."""

    def test_stop_with_a_request_in_flight(self, caplog):
        handle = _server()
        client = handle.connect()
        started, release = threading.Event(), threading.Event()

        def held_step():
            started.set()
            release.wait(30)

        try:
            sid = client.create("continuous", scale=0.4)
            handle.frontend.manager.get(sid).world.step = held_step
            client._file.write(encode_frame(
                {"op": "step", "session": sid, "steps": 1}))
            client._file.flush()
            assert started.wait(30)  # the step is on a worker thread
            with caplog.at_level(logging.ERROR, logger="asyncio"):
                handle.stop()
                del handle  # the loop and its tasks become garbage
                gc.collect()
        finally:
            release.set()
            client.close()
        assert not [record for record in caplog.records
                    if "destroyed but it is pending" in record.getMessage()]
        assert not [record for record in caplog.records
                    if record.name == "asyncio"]


class TestFleetStepping:
    """Coalescing compatible sessions into one WorldBatch pass must be
    invisible except in the stats counters."""

    def _drive(self, handle, clients, steps):
        digests = {}
        errors = []
        barrier = threading.Barrier(clients)

        def _run(tag):
            try:
                with handle.connect() as client:
                    session = client.create("continuous", scale=0.4,
                                            seed=5)
                    barrier.wait(timeout=30.0)
                    for _ in range(steps - 1):
                        client.step(session, 1)
                    digests[tag] = client.step(session, 1)["digest"]
                    client.close_session(session)
            except Exception as exc:  # noqa: BLE001 - collected
                errors.append(f"{tag}: {exc}")

        threads = [threading.Thread(target=_run, args=(i,))
                   for i in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        return digests

    def test_fleet_digests_match_unbatched_server(self):
        # A wide batch window makes each tick collect every pending
        # request, so the fleet path actually engages.
        fleet = _server(batch_window=0.05)
        try:
            fleet_digests = self._drive(fleet, clients=6, steps=10)
            with fleet.connect() as client:
                fleet_stats = client.stats()
        finally:
            fleet.stop()
        plain = _server(batch_window=0.05, fleet_step=False)
        try:
            plain_digests = self._drive(plain, clients=6, steps=10)
            with plain.connect() as client:
                plain_stats = client.stats()
        finally:
            plain.stop()

        # Identical configs on identical trajectories: every session
        # lands on one digest, the same one with and without fleets.
        assert len(set(fleet_digests.values())) == 1
        assert set(fleet_digests.values()) == set(plain_digests.values())
        assert fleet_stats["fleet_batches"] > 0
        assert fleet_stats["fleet_sessions"] >= \
            2 * fleet_stats["fleet_batches"]
        assert plain_stats["fleet_batches"] == 0
        assert plain_stats["fleet_sessions"] == 0

    @pytest.mark.parametrize("restored", [{"lcp": 9}, {"lcp": 7}],
                             ids=["same-register", "rewritten-register"])
    def test_fleets_key_on_the_live_register(self, monkeypatch, restored):
        # A restore with precisions rewrites the live register, which is
        # what WorldBatch compares; the stats count only fleets that
        # stepped as a WorldBatch.
        fleet_steps = []
        step = WorldBatch.step

        def counted(batch):
            fleet_steps.append(len(batch.worlds))
            return step(batch)
        monkeypatch.setattr(WorldBatch, "step", counted)

        handle = _server(batch_window=0.2)
        try:
            with handle.connect() as client:
                sessions = [client.create("continuous", scale=0.4, seed=5,
                                          precision={"lcp": 9})
                            for _ in range(2)]
                snap = client.snapshot(sessions[1])
                client.restore(sessions[1], snapshot=snap["snapshot"],
                               precisions=restored)
            barrier = threading.Barrier(2)
            errors = []

            def _run(session):
                try:
                    with handle.connect() as client:
                        barrier.wait(timeout=30.0)
                        for _ in range(5):
                            client.step(session, 1)
                except Exception as exc:  # noqa: BLE001 - collected
                    errors.append(exc)

            threads = [threading.Thread(target=_run, args=(session,))
                       for session in sessions]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
            with handle.connect() as client:
                stats = client.stats()
        finally:
            handle.stop()
        assert not errors
        assert stats["fleet_batches"] == len(fleet_steps)
        assert stats["fleet_sessions"] == sum(fleet_steps)
        if restored == {"lcp": 7}:
            assert stats["fleet_batches"] == 0
        else:
            assert stats["fleet_batches"] > 0

    def test_guarded_session_never_joins_a_fleet(self):
        handle = _server(batch_window=0.05, allow_chaos=True)
        try:
            with handle.connect() as client:
                guarded = client.create("continuous", scale=0.4, seed=5,
                                        guarded=True)
                client.step(guarded, 5)
            session = handle.frontend.manager.get(guarded)
            assert session.fleet_key() is None
        finally:
            handle.stop()

    def test_serve_bench_fleet_compare_payload(self, tmp_path):
        payload = run_serve_bench(ServeBenchConfig(
            clients=2, steps_per_client=3, scale=0.4,
            fidelity_steps=2, fleet_compare=True,
            output_dir=str(tmp_path)))
        fleet = payload["fleet"]
        assert fleet["unbatched"]["fleet_batches"] == 0
        assert fleet["unbatched"]["fleet_step"] is False
        assert payload["serve_bench"]["fleet_step"] is True
        assert fleet["ok"] is True
        assert "fleet stepping" in render_serve_summary(payload)
