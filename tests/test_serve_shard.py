"""Tests for the gateway + worker-shard topology (``repro.serve.shard``).

Covers the consistent-hash ring (determinism, spread, minimal
remapping), gateway routing and error forwarding over real shard
subprocesses, live migration under concurrent load (the migrated
session's next steps must stay bit-identical to an unmigrated
control), ``drain_shard``/``rebalance``, and journal-based recovery of
a SIGKILLed shard onto the survivors, and that both front ends count
the same metrics with and without a trace.

The gateway fixture is module-scoped: spawning shard subprocesses
re-imports numpy per shard, so one 2-shard topology serves the whole
module (the crash test runs last and restores the topology it
perturbs).
"""

import asyncio
import threading
import time

import pytest

from repro.serve import (
    Client,
    GatewayConfig,
    RetryPolicy,
    ServeClientError,
    ServiceConfig,
    ShardGateway,
    recover_sessions,
    start_gateway_in_thread,
    start_in_thread,
)
from repro.serve.shard.ring import HashRing, stable_hash

from .test_serve import FramingFaults, _capture_tracer

SCENARIO = "continuous"
OPTS = dict(scale=0.3, seed=11)


# ----------------------------------------------------------------------
# Consistent hashing
# ----------------------------------------------------------------------
class TestHashRing:
    def test_stable_hash_is_process_independent(self):
        # Pinned: placement must survive restarts and cross processes
        # (builtin hash() is salted per process).
        assert stable_hash("g1") == 4907432730037124645

    def test_lookup_deterministic_across_instances(self):
        a, b = HashRing(range(4)), HashRing([3, 1, 0, 2])
        for i in range(100):
            assert a.lookup(f"g{i}") == b.lookup(f"g{i}")

    def test_every_shard_gets_keys(self):
        ring = HashRing(range(4))
        counts = ring.distribution([f"g{i}" for i in range(200)])
        assert set(counts) == {0, 1, 2, 3}
        assert all(count > 0 for count in counts.values())

    def test_removal_only_remaps_the_removed_shards_keys(self):
        ring = HashRing(range(4))
        keys = [f"g{i}" for i in range(200)]
        before = {key: ring.lookup(key) for key in keys}
        ring.remove(2)
        for key in keys:
            after = ring.lookup(key)
            if before[key] != 2:
                assert after == before[key]
            else:
                assert after != 2

    def test_add_restores_original_placement(self):
        ring = HashRing(range(4))
        keys = [f"g{i}" for i in range(100)]
        before = {key: ring.lookup(key) for key in keys}
        ring.remove(1)
        ring.add(1)
        assert {key: ring.lookup(key) for key in keys} == before

    def test_empty_ring_raises(self):
        with pytest.raises(LookupError):
            HashRing().lookup("g1")


# ----------------------------------------------------------------------
# Gateway over real shard subprocesses
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def gateway():
    handle = start_gateway_in_thread(GatewayConfig(
        port=0, shards=2, max_sessions=16,
        batch_window=0.001, journal_every=1, health_interval=0.2))
    yield handle
    handle.stop()


def _create(client: Client, **overrides) -> str:
    options = dict(OPTS)
    options.update(overrides)
    return client.create(SCENARIO, **options)


class TestGatewayRouting:
    def test_sessions_get_gateway_ids_and_ring_placement(self, gateway):
        with gateway.connect() as client:
            sids = [_create(client) for _ in range(4)]
            assert all(sid.startswith("g") for sid in sids)
            routes = client.request({"op": "topology"})["routes"]
            ring = HashRing(range(2))
            for sid in sids:
                assert routes[sid] == ring.lookup(sid)
            for sid in sids:
                client.close_session(sid)

    def test_same_config_sessions_step_identically_across_shards(
            self, gateway):
        with gateway.connect() as client:
            a, b = _create(client), _create(client)
            routes = client.request({"op": "topology"})["routes"]
            if routes[a] == routes[b]:
                # Force the pair onto different shards.
                client.request({"op": "migrate", "session": b,
                                "target": 1 - routes[a]})
                routes = client.request({"op": "topology"})["routes"]
            assert routes[a] != routes[b]
            assert (client.step(a, 10)["digest"]
                    == client.step(b, 10)["digest"])
            client.close_session(a)
            client.close_session(b)

    def test_step_counts_per_session_are_independent(self, gateway):
        with gateway.connect() as client:
            a, b = _create(client), _create(client)
            client.step(a, 3)
            assert client.step(a, 0)["step"] == 3
            assert client.step(b, 0)["step"] == 0
            client.close_session(a)
            client.close_session(b)

    def test_ping_and_topology_shapes(self, gateway):
        with gateway.connect() as client:
            ping = client.ping()
            assert ping["server"] == "repro-serve-gateway"
            assert ping["shards"] == 2
            topology = client.request({"op": "topology"})
            assert [s["shard"] for s in topology["shards"]] == [0, 1]
            assert all(s["alive"] for s in topology["shards"])

    def test_stats_fans_out_over_shards(self, gateway):
        with gateway.connect() as client:
            sid = _create(client)
            stats = client.stats()
            assert set(stats["shards"]) == {"0", "1"}
            assert any(s.get("active_sessions", 0) >= 1
                       for s in stats["shards"].values())
            assert stats["active_sessions"] >= 1
            client.close_session(sid)


class TestGatewayErrorForwarding:
    def test_unknown_session_code_forwarded(self, gateway):
        with gateway.connect() as client:
            with pytest.raises(ServeClientError) as excinfo:
                client.step("g999999", 1)
            assert excinfo.value.code == "unknown_session"

    def test_bad_scenario_detail_forwarded_from_shard(self, gateway):
        with gateway.connect() as client:
            with pytest.raises(ServeClientError) as excinfo:
                client.create("no_such_scenario", scale=0.3)
            assert excinfo.value.code == "bad_request"
            # The shard's scenario list survives the forwarding hop.
            assert "valid scenarios" in str(excinfo.value)

    def test_migrate_unknown_session(self, gateway):
        with gateway.connect() as client:
            with pytest.raises(ServeClientError) as excinfo:
                client.request({"op": "migrate", "session": "g424242"})
            assert excinfo.value.code == "unknown_session"

    def test_migrate_to_invalid_shard(self, gateway):
        with gateway.connect() as client:
            sid = _create(client)
            with pytest.raises(ServeClientError) as excinfo:
                client.request({"op": "migrate", "session": sid,
                                "target": 9})
            assert excinfo.value.code == "bad_request"
            client.close_session(sid)

    def test_shard_down_is_a_client_retry_code(self):
        assert "shard_down" in RetryPolicy().retry_codes

    def test_internal_error_logs_an_incident(self, tmp_path):
        """An unexpected gateway exception answers ``internal`` and is
        recorded in the gateway's incident log, as the service does."""
        # Never started: the constructor spawns no shard.
        gateway = ShardGateway(GatewayConfig(runtime_dir=str(tmp_path)))

        async def broken(*args):
            raise RuntimeError("bug")

        gateway._execute = broken
        reply = asyncio.run(gateway.handle_request({"op": "ping", "id": 7}))
        assert reply == {"ok": False, "error": "internal",
                         "detail": "RuntimeError: bug", "id": 7}
        records = gateway.incidents.records
        assert len(records) == 1
        assert "internal error on 'ping': RuntimeError: bug" in \
            records[0].detail
        del gateway._execute
        stats = asyncio.run(gateway.handle_request({"op": "stats"}))
        assert stats["incidents"] == 1

    def test_plain_server_refuses_gateway_ops(self):
        handle = start_in_thread(ServiceConfig(port=0, max_sessions=4))
        try:
            with handle.connect() as client:
                for frame in ({"op": "topology"},
                              {"op": "rebalance"},
                              {"op": "drain_shard", "shard": 0},
                              {"op": "migrate", "session": "s1"}):
                    with pytest.raises(ServeClientError) as excinfo:
                        client.request(frame)
                    assert excinfo.value.code == "bad_request"
                    assert "gateway" in str(excinfo.value)
        finally:
            handle.stop()


class TestGatewayConnectionFaults(FramingFaults):
    """The service's torn and garbage frame cases, through the gateway."""

    @pytest.fixture
    def frontend(self, gateway):
        return gateway


class TestLiveMigration:
    def test_migrate_under_load_stays_bit_identical(self, gateway):
        """The ISSUE's gate: drain -> snapshot -> restore -> repoint,
        then 20 further steps identical to an unmigrated control."""
        with gateway.connect() as client:
            mig = _create(client, seed=77)
            ctrl = _create(client, seed=77)
            noise_stop = threading.Event()

            def _noise():
                with gateway.connect() as other:
                    sid = _create(other, seed=5)
                    while not noise_stop.is_set():
                        other.step(sid, 1)
                    other.close_session(sid)

            noise = threading.Thread(target=_noise, name="migrate-noise")
            noise.start()
            try:
                client.step(mig, 5)
                client.step(ctrl, 5)
                source = client.request({"op": "topology"})["routes"][mig]
                target = 1 - source
                moved = client.request({"op": "migrate", "session": mig,
                                        "target": target})
                assert moved["moved"] is True
                assert moved["source"] == source
                assert moved["target"] == target
                assert moved["step"] == 5
                digest_mig = client.step(mig, 20)["digest"]
                digest_ctrl = client.step(ctrl, 20)["digest"]
                assert digest_mig == digest_ctrl
                routes = client.request({"op": "topology"})["routes"]
                assert routes[mig] == target
            finally:
                noise_stop.set()
                noise.join(timeout=60.0)
            client.close_session(mig)
            client.close_session(ctrl)

    def test_migrate_without_target_picks_another_shard(self, gateway):
        with gateway.connect() as client:
            sid = _create(client)
            source = client.request({"op": "topology"})["routes"][sid]
            moved = client.request({"op": "migrate", "session": sid})
            assert moved["moved"] is True
            assert moved["target"] != source
            client.close_session(sid)

    def test_migrated_session_survives_target_crash(self, gateway):
        """Migration re-journals on the target: kill the target right
        after the move and the session must recover at the same step."""
        with gateway.connect() as client:
            sid = _create(client, seed=99)
            client.step(sid, 7)
            digest_before = client.step(sid, 0)["digest"]
            source = client.request({"op": "topology"})["routes"][sid]
            target = 1 - source
            client.request({"op": "migrate", "session": sid,
                            "target": target})
            gateway.frontend.supervisor[target].kill()
            described = client.step(sid, 0)
            assert described["step"] == 7
            assert described["digest"] == digest_before
            client.close_session(sid)
            _wait_all_alive(gateway)


class TestAdminOps:
    def test_drain_shard_empties_it_and_blocks_new_placements(
            self, gateway):
        with gateway.connect() as client:
            sids = [_create(client) for _ in range(4)]
            drained = client.request({"op": "drain_shard", "shard": 0})
            assert drained["remaining"] == 0
            assert not drained["failed"]
            routes = client.request({"op": "topology"})["routes"]
            assert all(routes[sid] == 1 for sid in sids)
            # New sessions can only land on the surviving active shard.
            extra = _create(client)
            routes = client.request({"op": "topology"})["routes"]
            assert routes[extra] == 1
            # Draining the last active shard must be refused.
            with pytest.raises(ServeClientError) as excinfo:
                client.request({"op": "drain_shard", "shard": 1})
            assert excinfo.value.code == "bad_request"
            # Rebalance walks sessions back to ring placement (shard 0
            # rejoins the ring when it is re-added by rebalance's ring).
            gateway.run(_reactivate(gateway.frontend, 0))
            rebalanced = client.request({"op": "rebalance"})
            assert not rebalanced["failed"]
            ring = HashRing(range(2))
            routes = client.request({"op": "topology"})["routes"]
            for sid in sids + [extra]:
                assert routes[sid] == ring.lookup(sid)
            for sid in sids + [extra]:
                client.close_session(sid)


async def _reactivate(gw, index: int) -> None:
    gw.ring.add(index)
    gw.active.add(index)


def _wait_all_alive(gateway, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not gateway.frontend.supervisor.dead_shards():
            return
        time.sleep(0.05)
    raise TimeoutError("shards did not come back alive")


class TestShardCrashRecovery:
    def test_killed_shard_sessions_recover_on_survivor(self, gateway):
        with gateway.connect() as client:
            sids = [_create(client, seed=123) for _ in range(4)]
            for sid in sids:
                client.step(sid, 6)
            digests = {sid: client.step(sid, 0)["digest"]
                       for sid in sids}
            routes = client.request({"op": "topology"})["routes"]
            victims = [sid for sid in sids if routes[sid] == 0]
            assert victims, "expected at least one session on shard 0"

            gateway.frontend.supervisor[0].kill()
            # journal_every=1 in the fixture: recovery is exact — same
            # step, same digest, no session loss.
            for sid in sids:
                described = client.step(sid, 0)
                assert described["step"] == 6
                assert described["digest"] == digests[sid]
            topology = client.request({"op": "topology"})
            assert topology["sessions_lost"] == 0
            for sid in victims:
                assert topology["routes"][sid] == 1
            _wait_all_alive(gateway)
            assert all(s["alive"] for s in
                       client.request({"op": "topology"})["shards"])
            for sid in sids:
                client.close_session(sid)


class TestGatewayDrain:
    def test_drain_keeps_every_session_journal(self, tmp_path):
        """A graceful drain stops the health loop before the shards, so
        no shard it SIGTERMs is taken for crashed: nothing is lost,
        nothing respawns, and every journal survives at the drained
        step."""
        handle = start_gateway_in_thread(GatewayConfig(
            port=0, shards=2, runtime_dir=str(tmp_path), journal_every=1,
            health_interval=0.02))
        gateway = handle.frontend
        try:
            with handle.connect() as client:
                sids = [_create(client, scale=0.4) for _ in range(4)]
                for sid in sids:
                    client.step(sid, 3)
                routes = client.request({"op": "topology"})["routes"]
        except BaseException:
            handle.stop()
            raise
        assert sorted(routes.values()) == [0, 0, 1, 1]
        summary = handle.drain()
        assert summary["sessions"] == 4
        assert gateway.sessions_lost_total == 0
        assert [shard.restarts for shard in gateway.supervisor] == [0, 0]
        # No observer attached: the drain still counts, as the service's.
        assert gateway.registry.counter("serve.drains").value == 1
        steps = {rec.session_id: rec.step
                 for index in (0, 1)
                 for rec in recover_sessions(tmp_path / f"journal-{index}")}
        assert steps == {"g1": 3, "g2": 3, "g3": 3, "g4": 3}


# ----------------------------------------------------------------------
# One accounting path, traced or not
# ----------------------------------------------------------------------
def _service_script(client: Client) -> None:
    """Ok ops, an unknown scenario, an unknown session and a budget
    overrun with nothing to respawn from."""
    sid = client.create(SCENARIO, **OPTS)
    client.step(sid, 2)
    snap = client.snapshot(sid)
    client.restore(sid, snapshot=snap["snapshot"])
    client.close_session(sid)
    with pytest.raises(ServeClientError) as err:
        client.create("no_such_scenario", scale=0.3)
    assert err.value.code == "bad_request"
    with pytest.raises(ServeClientError) as err:
        client.step("s999", 1)
    assert err.value.code == "unknown_session"
    stuck = client.create(SCENARIO, step_budget=1e-4, **OPTS)
    with pytest.raises(ServeClientError) as err:
        client.step(stuck, 200)
    assert err.value.code == "budget_exceeded"
    assert err.value.detail.endswith(f"session {stuck} evicted")


def _gateway_script(client: Client) -> None:
    """A routed create, one live migration and an unknown session."""
    sid = client.create(SCENARIO, **OPTS)
    client.step(sid, 2)
    moved = client.request({"op": "migrate", "session": sid})
    assert moved["moved"] is True
    client.step(sid, 1)
    with pytest.raises(ServeClientError) as err:
        client.step("g999999", 1)
    assert err.value.code == "unknown_session"


class TestOneAccountingPath:
    """A front end counts through its observer whether or not the
    caller traces it: an untraced run's registry names and counts what
    a traced run's does."""

    @staticmethod
    def _run(topology, script, observer, tmp_path):
        if topology == "service":
            handle = start_in_thread(ServiceConfig(port=0),
                                     observer=observer)
        else:
            handle = start_gateway_in_thread(
                GatewayConfig(port=0, shards=2, runtime_dir=str(tmp_path)),
                observer=observer)
        try:
            with handle.connect() as client:
                script(client)
        finally:
            handle.stop()
        return handle.frontend.registry.snapshot()

    @pytest.mark.parametrize("topology,script", [
        ("service", _service_script), ("gateway", _gateway_script)],
        ids=["service", "gateway"])
    def test_untraced_registry_counts_what_a_traced_one_does(
            self, tmp_path, topology, script):
        tracer, events = _capture_tracer()
        traced = self._run(topology, script, tracer, tmp_path / "traced")
        untraced = self._run(topology, script, None, tmp_path / "plain")
        assert set(untraced) == set(traced)

        def counts(snapshot):
            # How many batches a tick coalesces depends on timing.
            return {name: metric["value"]
                    for name, metric in snapshot.items()
                    if metric["type"] == "counter"
                    and name != "serve.batches"}

        assert counts(untraced) == counts(traced)
        if topology == "service":
            for snapshot in (traced, untraced):
                assert snapshot["serve.evictions{reason=budget}"][
                    "value"] == 1
                assert snapshot["serve.rejections"]["value"] == 3
            [evict] = [e for e in events if e["kind"] == "serve.evict"]
            assert evict["reason"] == "budget"
        else:
            for snapshot in (traced, untraced):
                assert snapshot["serve.routes{reason=create}"][
                    "value"] == 1
                assert snapshot["serve.routes{reason=migrate}"][
                    "value"] == 1
                assert snapshot["serve.migrations{outcome=ok}"][
                    "value"] == 1
