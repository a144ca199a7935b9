"""``python -m repro serve-bench`` — service throughput/latency harness.

Starts a real :class:`~repro.serve.server.SimulationService` on a
background thread, drives it with N concurrent synthetic clients over
the actual socket protocol, and reports:

* per-request step latency percentiles (p50/p95/max, milliseconds);
* aggregate steps/sec across all sessions (the serving-layer figure of
  merit — batching should keep it close to the single-session rate
  times the worker count for independent worlds);
* the drop count (evictions + client-visible errors), which the
  acceptance gate requires to be zero;
* a snapshot → restore → continue fidelity check: the restored
  trajectory must be bit-identical to an unsnapshotted run of the same
  session config (the digest triple in the payload).

The payload lands next to the perf harness's snapshots as
``BENCH_<stamp>_serve.json`` so the CI bench artifact carries both.

Chaos mode (``repro serve-bench --chaos``) is the service-level fault
drill the resilience layer is gated on: guarded sessions run with the
PR 1 soft-error injector enabled, every client periodically RSTs its
own connection, one session runs deliberately slow against a per-step
deadline, and halfway through the run the whole server is stopped
without warning and restarted from its journals.  The gate is zero
unrecovered session loss — every session is journal-recovered
bit-identically (``state_digest`` match), every client reaches its
target step count through reconnect/replay — plus a bounded p95
recovery time, all recorded in the same ``BENCH_<stamp>_serve.json``
payload.

Sharded mode (``repro serve-bench --shards N``) benchmarks the
gateway + worker-shard topology instead: the same client load runs
against an N-shard gateway (and, unless disabled, a 1-shard gateway
baseline for the scaling ratio), with forced live migrations during
the load — the migrated session's next 20 steps must stay
bit-identical to an unmigrated control — and the usual zero-drop and
snapshot-fidelity gates, all through the gateway socket.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from ..experiments.runcache import bench_stamp, write_json_atomic
from ..obs.tracer import Tracer
from .client import (
    Client,
    ResilientClient,
    RetryPolicy,
    ServeClientError,
    start_in_thread,
)
from .server import ServiceConfig

__all__ = ["ServeBenchConfig", "run_serve_bench", "render_serve_summary"]


@dataclass(frozen=True)
class ServeBenchConfig:
    clients: int = 8
    steps_per_client: int = 30
    scenario: str = "continuous"
    scale: float = 0.5
    seed: int = 7
    workers: Optional[int] = None
    batch_window: float = 0.002
    #: steps on each side of the fidelity snapshot
    fidelity_steps: int = 10
    output_dir: str = "results"
    # --- fleet-batched stepping (WorldBatch coalescing) ---
    #: coalesce compatible same-tick step requests into one vectorized
    #: WorldBatch pass
    fleet_step: bool = True
    #: also run the load with fleet stepping disabled and report the
    #: batched/unbatched speedup ratio
    fleet_compare: bool = False
    #: minimum batched/unbatched steps/sec ratio when comparing
    #: (0 = report, don't gate — shared CI runners make scaling gates
    #: flaky)
    fleet_min_speedup: float = 0.0
    # --- sharded mode (``--shards N``) ---
    #: 0 = single-process service; N >= 1 = gateway over N shards
    shards: int = 0
    #: also run a 1-shard gateway baseline and report the scaling ratio
    shard_baseline: bool = True
    #: minimum N-shard/1-shard steps/sec ratio (0 = report, don't gate —
    #: shared CI runners make scaling gates flaky)
    shard_min_scaling: float = 0.0
    #: forced live migrations while the load is running
    shard_migrations: int = 1
    # --- chaos mode ---
    chaos: bool = False
    #: seeded soft-error rate for the guarded chaos sessions
    chaos_inject_rate: float = 0.02
    #: each client RSTs its own connection every N steps (0 = never)
    chaos_kill_every: int = 10
    #: journal cadence under chaos (tight, so rollbacks stay cheap)
    chaos_journal_every: int = 8
    #: p95 recovery-time gate (seconds) over all ladder transitions
    chaos_recovery_p95_s: float = 5.0


def _percentile(sorted_values: List[float], q: float) -> float:
    """Exact order-statistic percentile of a sorted sample."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def _client_load(handle, config: ServeBenchConfig, barrier,
                 latencies: List[float], errors: List[str]) -> None:
    """One synthetic client: create, step N times, close."""
    try:
        with handle.connect() as client:
            session = client.create(config.scenario, scale=config.scale,
                                    seed=config.seed)
            # A client that died before its create() breaks the barrier
            # for everyone (timeout) instead of deadlocking the bench.
            barrier.wait(timeout=60.0)
            for _ in range(config.steps_per_client):
                start = time.perf_counter()
                client.step(session, 1)
                latencies.append(time.perf_counter() - start)
            client.close_session(session)
    except (ServeClientError, ConnectionError, OSError,
            threading.BrokenBarrierError) as exc:
        errors.append(f"{type(exc).__name__}: {exc}")


def _fidelity_check(handle, config: ServeBenchConfig) -> dict:
    """Snapshot → restore → continue must match the straight-line run."""
    k = config.fidelity_steps
    opts = dict(scale=config.scale, seed=config.seed)
    with handle.connect() as client:
        # Straight line: 2k steps, no snapshot anywhere.
        ref = client.create(config.scenario, **opts)
        digest_ref = client.step(ref, 2 * k)["digest"]
        client.close_session(ref)
        # Snapshotted: k steps, snapshot, k more.
        snapped = client.create(config.scenario, **opts)
        client.step(snapped, k)
        snap = client.snapshot(snapped)
        digest_snapped = client.step(snapped, k)["digest"]
        # Restored into a *fresh* session from the wire payload.
        fresh = client.create(config.scenario, **opts)
        client.restore(fresh, data=snap["data"],
                       precisions=snap["precisions"])
        digest_restored = client.step(fresh, k)["digest"]
        # Rewind the snapshotted session via the server-held id too.
        client.restore(snapped, snapshot=snap["snapshot"])
        digest_rewound = client.step(snapped, k)["digest"]
        client.close_session(snapped)
        client.close_session(fresh)
    return {
        "steps_each_side": k,
        "digest_straight": digest_ref,
        "digest_snapshotted": digest_snapped,
        "digest_restored_fresh": digest_restored,
        "digest_rewound": digest_rewound,
        "bit_identical": (digest_ref == digest_snapped
                          == digest_restored == digest_rewound),
    }


class _CaptureSink:
    """Trace sink that keeps events in memory (shared across the
    pre- and post-restart service instances in chaos mode)."""

    def __init__(self) -> None:
        self.events: List[dict] = []

    def write(self, event: dict) -> None:
        self.events.append(event)

    def close(self) -> None:
        pass


def _chaos_client(provider, config: ServeBenchConfig, index: int,
                  barrier, latencies: List[float], errors: List[str],
                  finished: List[dict]) -> None:
    """One chaos client: guarded + injected session, periodic RSTs.

    Client 0 additionally runs a deliberately slow world against a
    per-step deadline so the deadline rung of the ladder is exercised.
    """
    policy = RetryPolicy(max_attempts=10, base_delay=0.05,
                         max_delay=1.0, jitter=0.5)
    client = ResilientClient(provider, policy=policy, timeout=30.0,
                             seed=index)
    try:
        # Tuned precisions matter: injected faults ride the reduced-
        # precision op path, so an untuned session would see none.
        options = dict(scale=config.scale, seed=config.seed + index,
                       precision={"narrow": 12, "lcp": 12},
                       guarded=True,
                       inject_rate=config.chaos_inject_rate)
        if index == 0:
            options.update(chaos_slow_every=7, chaos_slow_s=0.03,
                           step_deadline=0.02)
        session = client.create(config.scenario, **options)
        barrier.wait(timeout=60.0)
        for i in range(config.steps_per_client):
            start = time.perf_counter()
            client.step(session, 1)
            latencies.append(time.perf_counter() - start)
            if config.chaos_kill_every and \
                    (i + 1) % config.chaos_kill_every == 0:
                client.kill_connection()
        finished.append({"session": session,
                         "final_step": client.acked_step(session),
                         "retries": client.retries,
                         "reconnects": client.reconnects})
    except Exception as exc:  # noqa: BLE001 - any escape fails the gate
        errors.append(f"client {index}: {type(exc).__name__}: {exc}")
    finally:
        client.close()


def _run_chaos_bench(config: ServeBenchConfig) -> dict:
    """The chaos drill: injected faults, killed connections, slow
    steps, and one abrupt mid-run server restart recovered from the
    journals.  Returns the ``chaos`` payload section plus gate fields.
    """
    journal_dir = tempfile.mkdtemp(prefix="repro-serve-journal-")
    sink = _CaptureSink()
    tracer = Tracer(sink=sink)

    def service_config() -> ServiceConfig:
        return ServiceConfig(
            port=0,
            max_sessions=max(32, config.clients + 4),
            workers=config.workers,
            batch_window=config.batch_window,
            journal_dir=journal_dir,
            journal_every=config.chaos_journal_every,
            allow_chaos=True,
            # Generous absolute budget: the slow session must trip its
            # *deadline* (ladder), not the eviction budget.
            step_budget=20.0,
        )

    holder = {"handle": start_in_thread(service_config(),
                                        observer=tracer)}

    def provider() -> dict:
        return holder["handle"].address()

    latencies: List[float] = []
    errors: List[str] = []
    finished: List[dict] = []
    barrier = threading.Barrier(config.clients)
    threads = [
        threading.Thread(
            target=_chaos_client,
            args=(provider, config, i, barrier, latencies, errors,
                  finished),
            name=f"serve-chaos-client-{i}")
        for i in range(config.clients)
    ]
    load_start = time.perf_counter()
    for thread in threads:
        thread.start()

    # Mid-run crash: once half the total steps have been served, stop
    # the server with no drain and restart it from the journals.
    total_expected = config.clients * config.steps_per_client
    deadline = time.perf_counter() + 120.0
    while len(latencies) < total_expected // 2 and \
            any(t.is_alive() for t in threads) and \
            time.perf_counter() < deadline:
        time.sleep(0.01)
    old = holder["handle"]
    sessions_at_crash = len(old.frontend.manager)
    old.stop()
    restart_start = time.perf_counter()
    new_handle = start_in_thread(service_config(), observer=tracer)
    restart_wall = time.perf_counter() - restart_start
    holder["handle"] = new_handle
    recovered = list(new_handle.frontend.recovered)

    for thread in threads:
        thread.join(timeout=180.0)
    load_wall = time.perf_counter() - load_start

    try:
        with new_handle.connect() as client:
            stats = client.stats()
    finally:
        new_handle.stop()
        shutil.rmtree(journal_dir, ignore_errors=True)

    recover_events = [e for e in sink.events
                      if e.get("kind") == "serve.recover"]
    recovery_walls = sorted(e["wall"] for e in recover_events)
    lost = [e for e in recover_events if e["outcome"] == "lost"]
    recovery_failed = [r for r in recovered if not r.get("ok")]
    p95_recovery_s = _percentile(recovery_walls, 0.95)
    unrecovered = len(lost) + len(recovery_failed) + \
        (config.clients - len(finished))
    chaos = {
        "journal_dir": journal_dir,
        "inject_rate": config.chaos_inject_rate,
        "kill_every": config.chaos_kill_every,
        "journal_every": config.chaos_journal_every,
        "sessions_at_crash": sessions_at_crash,
        "restart_recovered_ok": len(recovered) - len(recovery_failed),
        "restart_recovery_failed": [dict(r) for r in recovery_failed],
        "restart_wall_s": round(restart_wall, 4),
        "recover_events": len(recover_events),
        "recoveries_by_outcome": {
            outcome: sum(1 for e in recover_events
                         if e["outcome"] == outcome)
            for outcome in ("recovered", "degraded", "respawned",
                            "lost")
        },
        "p95_recovery_ms": round(p95_recovery_s * 1e3, 3),
        "p95_recovery_budget_ms": round(
            config.chaos_recovery_p95_s * 1e3, 3),
        "client_retries": sum(f["retries"] for f in finished),
        "client_reconnects": sum(f["reconnects"] for f in finished),
        "clients_finished": len(finished),
        "unrecovered_sessions": unrecovered,
        "steps_served": len(latencies),
        "wall": round(load_wall, 4),
        "errors": errors,
        "stats": {k: stats[k] for k in
                  ("recovered_total", "respawned_total", "recoveries",
                   "journal_writes", "journal_append_errors",
                   "evicted_total", "incidents")},
    }
    chaos["ok"] = (unrecovered == 0 and not errors
                   and len(latencies) == total_expected
                   and p95_recovery_s <= config.chaos_recovery_p95_s
                   and all(f["final_step"] is not None
                           for f in finished))
    return chaos


def _run_gateway_load(config: ServeBenchConfig, shards: int,
                      migrations: int = 0) -> dict:
    """Drive the standard client load against a gateway topology.

    With ``migrations > 0`` a probe session pair (migrated vs control,
    identical config) runs *during* the load: the migrated session must
    stay bit-identical to the control for 20 steps after each move —
    the ISSUE's migrate-under-load gate.
    """
    from .shard import GatewayConfig, start_gateway_in_thread

    gateway_config = GatewayConfig(
        port=0,
        shards=shards,
        max_sessions=max(32, config.clients + 8),
        workers=config.workers,
        batch_window=config.batch_window,
    )
    handle = start_gateway_in_thread(gateway_config)
    try:
        latencies: List[float] = []
        errors: List[str] = []
        barrier = threading.Barrier(config.clients + 1)
        threads = [
            threading.Thread(
                target=_client_load,
                args=(handle, config, barrier, latencies, errors),
                name=f"serve-shard-client-{i}")
            for i in range(config.clients)
        ]
        for thread in threads:
            thread.start()
        migration = None
        with handle.connect() as probe:
            mig = probe.create(config.scenario, scale=config.scale,
                               seed=config.seed + 1000)
            ctrl = probe.create(config.scenario, scale=config.scale,
                                seed=config.seed + 1000)
            barrier.wait(timeout=60.0)
            load_start = time.perf_counter()
            # Every client created its session before the barrier, so
            # this snapshot shows the consistent-hash placement.
            placement = {
                str(entry["shard"]): entry["sessions"]
                for entry in probe.request({"op": "topology"})["shards"]}
            if migrations and shards > 1:
                migration = _migration_probe(
                    handle, probe, mig, ctrl, migrations)
            for thread in threads:
                thread.join(timeout=600.0)
            load_wall = time.perf_counter() - load_start
            probe.close_session(mig)
            probe.close_session(ctrl)
            topology = probe.request({"op": "topology"})
        fidelity = (_fidelity_check(handle, config)
                    if migrations else None)
    finally:
        handle.stop()

    total_steps = len(latencies)
    latencies.sort()
    result = {
        "shards": shards,
        "requests_ok": total_steps,
        "steps_per_sec": (round(total_steps / load_wall, 3)
                          if load_wall > 0 else 0.0),
        "wall": round(load_wall, 4),
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "p95_ms": round(_percentile(latencies, 0.95) * 1e3, 3),
        "max_ms": round((latencies[-1] if latencies else 0.0) * 1e3, 3),
        "sessions_per_shard": placement,
        "migrations_total": topology["migrations"],
        "sessions_lost": topology["sessions_lost"],
        "client_errors": errors,
    }
    if migration is not None:
        result["migration"] = migration
    if fidelity is not None:
        result["fidelity"] = fidelity
    return result


def _migration_probe(handle, probe, mig: str, ctrl: str,
                     migrations: int) -> dict:
    """Live-migrate ``mig`` while the load runs; ``ctrl`` never moves.

    After every move both sessions advance 20 steps and their digests
    must stay identical — migration may not perturb a single bit.
    """
    moves = []
    identical = True
    probe.step(mig, 5)
    probe.step(ctrl, 5)
    for _ in range(migrations):
        moved = handle.run(handle.frontend.migrate(mig))
        digest_mig = probe.step(mig, 20)["digest"]
        digest_ctrl = probe.step(ctrl, 20)["digest"]
        identical = identical and digest_mig == digest_ctrl
        moves.append({
            "source": moved["source"],
            "target": moved["target"],
            "step": moved["step"],
            "wall": moved["wall"],
            "digest_migrated": digest_mig,
            "digest_control": digest_ctrl,
        })
    return {
        "moves": moves,
        "steps_after_each_move": 20,
        "bit_identical": identical,
    }


def _run_shard_bench(config: ServeBenchConfig) -> dict:
    """The ``--shards N`` topology benchmark: N-shard gateway load
    (with forced live migration), optional 1-shard baseline, scaling
    ratio, and the fidelity check through the gateway."""
    sharded = _run_gateway_load(config, config.shards,
                                migrations=config.shard_migrations)
    baseline = None
    scaling = None
    if config.shard_baseline and config.shards > 1:
        baseline = _run_gateway_load(config, 1, migrations=0)
        if baseline["steps_per_sec"]:
            scaling = round(sharded["steps_per_sec"]
                            / baseline["steps_per_sec"], 3)
    migration = sharded.get("migration")
    fidelity = sharded.get("fidelity")
    dropped = sharded["sessions_lost"] + len(sharded["client_errors"])
    expected = config.clients * config.steps_per_client
    ok = (dropped == 0
          and sharded["requests_ok"] == expected
          and (migration is None or migration["bit_identical"])
          and (fidelity is None or fidelity["bit_identical"])
          and (scaling is None
               or config.shard_min_scaling <= 0
               or scaling >= config.shard_min_scaling))
    section = {
        "topology": sharded,
        "baseline_1shard": baseline,
        "scaling_x": scaling,
        "min_scaling_gate": config.shard_min_scaling,
        "dropped": dropped,
        "ok": ok,
    }
    return section


def _run_service_load(config: ServeBenchConfig,
                      fleet_step: bool) -> dict:
    """One full client-load pass against a fresh single-process
    service; returns the ``serve_bench`` payload section."""
    service_config = ServiceConfig(
        port=0,
        max_sessions=max(32, config.clients + 4),
        workers=config.workers,
        batch_window=config.batch_window,
        fleet_step=fleet_step,
    )
    handle = start_in_thread(service_config)
    try:
        latencies: List[float] = []
        errors: List[str] = []
        barrier = threading.Barrier(config.clients)
        threads = [
            threading.Thread(
                target=_client_load,
                args=(handle, config, barrier, latencies, errors),
                name=f"serve-bench-client-{i}")
            for i in range(config.clients)
        ]
        load_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        load_wall = time.perf_counter() - load_start

        fidelity = _fidelity_check(handle, config)
        with handle.connect() as client:
            stats = client.stats()
        workers = handle.frontend.scheduler.workers
    finally:
        handle.stop()

    total_steps = len(latencies)
    latencies.sort()
    dropped = stats["evicted_total"] + len(errors)
    return {
        "clients": config.clients,
        "steps_per_client": config.steps_per_client,
        "scenario": config.scenario,
        "scale": config.scale,
        "workers": workers,
        "batch_window": config.batch_window,
        "fleet_step": fleet_step,
        "requests_ok": total_steps,
        "steps_per_sec": (round(total_steps / load_wall, 3)
                          if load_wall > 0 else 0.0),
        "wall": round(load_wall, 4),
        "p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "p95_ms": round(_percentile(latencies, 0.95) * 1e3, 3),
        "max_ms": round((latencies[-1] if latencies else 0.0) * 1e3, 3),
        "batches": stats["batches"],
        "avg_batch_size": (round(stats["steps_dispatched"]
                                 / stats["batches"], 3)
                           if stats["batches"] else 0.0),
        "fleet_batches": stats["fleet_batches"],
        "fleet_sessions": stats["fleet_sessions"],
        "sessions_created": stats["created_total"],
        "sessions_dropped": dropped,
        "rejected_total": stats["rejected_total"],
        "client_errors": errors,
        "fidelity": fidelity,
    }


def run_serve_bench(config: Optional[ServeBenchConfig] = None) -> dict:
    """Run the serving benchmark; returns the written payload."""
    config = config or ServeBenchConfig()
    if config.shards:
        section = _run_shard_bench(config)
        stamp = bench_stamp()
        payload = {
            "kind": "repro-serve-bench",
            "stamp": stamp,
            "ok": section["ok"],
            "shards": section,
        }
        out_dir = Path(config.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"BENCH_{stamp}_serve.json"
        write_json_atomic(path, payload)
        payload["path"] = str(path)
        return payload
    serve_bench = _run_service_load(config, config.fleet_step)
    dropped = serve_bench["sessions_dropped"]
    errors = serve_bench["client_errors"]
    fidelity = serve_bench["fidelity"]
    total_steps = serve_bench["requests_ok"]
    fleet = None
    if config.fleet_compare and config.fleet_step:
        unbatched = _run_service_load(config, False)
        speedup = (round(serve_bench["steps_per_sec"]
                         / unbatched["steps_per_sec"], 3)
                   if unbatched["steps_per_sec"] else None)
        fleet = {
            "unbatched": unbatched,
            "speedup_x": speedup,
            "min_speedup_gate": config.fleet_min_speedup,
            "ok": (unbatched["sessions_dropped"] == 0
                   and not unbatched["client_errors"]
                   and unbatched["fidelity"]["bit_identical"]
                   and (config.fleet_min_speedup <= 0
                        or (speedup is not None
                            and speedup >= config.fleet_min_speedup))),
        }
    chaos = _run_chaos_bench(config) if config.chaos else None
    ok = (dropped == 0 and not errors
          and total_steps == config.clients * config.steps_per_client
          and fidelity["bit_identical"]
          and (fleet is None or fleet["ok"])
          and (chaos is None or chaos["ok"]))
    stamp = bench_stamp()
    payload = {
        "kind": "repro-serve-bench",
        "stamp": stamp,
        "ok": ok,
        "serve_bench": serve_bench,
    }
    if fleet is not None:
        payload["fleet"] = fleet
    if chaos is not None:
        payload["chaos"] = chaos
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{stamp}_serve.json"
    write_json_atomic(path, payload)
    payload["path"] = str(path)
    return payload


def _render_shard_summary(payload: dict) -> str:
    section = payload["shards"]
    topo = section["topology"]
    lines = [
        f"repro serve-bench — gateway over {topo['shards']} shard(s)",
        f"  throughput: {topo['steps_per_sec']:.1f} steps/s aggregate "
        f"over {topo['wall']:.2f}s",
        f"  step latency: p50 {topo['p50_ms']:.2f} ms, "
        f"p95 {topo['p95_ms']:.2f} ms, max {topo['max_ms']:.2f} ms",
        f"  placement: "
        + ", ".join(f"shard {k}: {v}"
                    for k, v in sorted(topo["sessions_per_shard"]
                                       .items())),
    ]
    baseline = section["baseline_1shard"]
    if baseline is not None:
        gate = section["min_scaling_gate"]
        lines.append(
            f"  scaling: {section['scaling_x']}x over the 1-shard "
            f"gateway ({baseline['steps_per_sec']:.1f} steps/s)"
            + (f", gate >= {gate}x" if gate > 0 else ""))
    migration = topo.get("migration")
    if migration is not None:
        walls = ", ".join(f"{m['source']}->{m['target']} "
                          f"{m['wall'] * 1e3:.0f}ms"
                          for m in migration["moves"])
        lines.append(
            f"  live migration under load: {len(migration['moves'])} "
            f"move(s) [{walls}], next "
            f"{migration['steps_after_each_move']} steps "
            + ("bit-identical to the unmigrated control"
               if migration["bit_identical"] else "DIVERGED"))
    fidelity = topo.get("fidelity")
    if fidelity is not None:
        lines.append("  snapshot fidelity (through gateway): "
                     + ("bit-identical" if fidelity["bit_identical"]
                        else "DIVERGED"))
    lines.append(f"  dropped: {section['dropped']} "
                 f"(sessions lost {topo['sessions_lost']}, "
                 f"client errors {len(topo['client_errors'])})")
    for error in topo["client_errors"]:
        lines.append(f"  client error: {error}")
    lines.append(("OK" if payload["ok"] else "FAILED")
                 + f" — written: {Path(payload['path']).name}")
    return "\n".join(lines)


def render_serve_summary(payload: dict) -> str:
    """Human-readable serve-bench report for the CLI."""
    if "shards" in payload:
        return _render_shard_summary(payload)
    bench = payload["serve_bench"]
    fidelity = bench["fidelity"]
    lines = [
        f"repro serve-bench — {bench['clients']} clients x "
        f"{bench['steps_per_client']} steps on '{bench['scenario']}' "
        f"({bench['workers']} workers)",
        f"  throughput: {bench['steps_per_sec']:.1f} steps/s aggregate "
        f"over {bench['wall']:.2f}s",
        f"  step latency: p50 {bench['p50_ms']:.2f} ms, "
        f"p95 {bench['p95_ms']:.2f} ms, max {bench['max_ms']:.2f} ms",
        f"  batching: {bench['batches']} batches, "
        f"{bench['avg_batch_size']:.2f} steps/batch, "
        f"{bench['fleet_batches']} fleet batches covering "
        f"{bench['fleet_sessions']} sessions",
        f"  sessions: {bench['sessions_created']} created, "
        f"{bench['sessions_dropped']} dropped, "
        f"{bench['rejected_total']} rejected",
        f"  snapshot fidelity: "
        + ("bit-identical" if fidelity["bit_identical"]
           else "DIVERGED"),
    ]
    for error in bench["client_errors"]:
        lines.append(f"  client error: {error}")
    fleet = payload.get("fleet")
    if fleet is not None:
        gate = fleet["min_speedup_gate"]
        lines.append(
            f"  fleet stepping: {fleet['speedup_x']}x over the "
            f"unbatched run "
            f"({fleet['unbatched']['steps_per_sec']:.1f} steps/s)"
            + (f", gate >= {gate}x" if gate > 0 else ""))
    chaos = payload.get("chaos")
    if chaos is not None:
        outcomes = chaos["recoveries_by_outcome"]
        lines += [
            f"  chaos drill: {chaos['steps_served']} steps under "
            f"inject_rate={chaos['inject_rate']}, connection kills "
            f"every {chaos['kill_every']} steps, 1 mid-run restart",
            f"    restart: {chaos['restart_recovered_ok']}/"
            f"{chaos['sessions_at_crash']} sessions recovered from "
            f"journal in {chaos['restart_wall_s']:.2f}s",
            f"    ladder: {chaos['recover_events']} recoveries "
            f"(rung0 {outcomes['recovered']}, rollback "
            f"{outcomes['degraded']}, respawn {outcomes['respawned']}, "
            f"lost {outcomes['lost']}), "
            f"p95 {chaos['p95_recovery_ms']:.1f} ms "
            f"(budget {chaos['p95_recovery_budget_ms']:.0f} ms)",
            f"    clients: {chaos['client_reconnects']} reconnects, "
            f"{chaos['client_retries']} retries, "
            f"{chaos['unrecovered_sessions']} unrecovered sessions",
        ]
        for error in chaos["errors"]:
            lines.append(f"    chaos error: {error}")
    lines.append(("OK" if payload["ok"] else "FAILED")
                 + f" — written: {Path(payload['path']).name}")
    return "\n".join(lines)
