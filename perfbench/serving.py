"""``serve``: one in-process ``SimulationService`` under closed-loop load.

At small scenes the served path dominates: codec, dispatch, admission,
the batch window, ``WorldBatch`` fleets, digests and the journal.  Eight
client coroutines on one event loop (no sockets) each call the public
``handle_request`` with frames passed through ``encode_frame`` /
``decode_frame``, and send their next request only when the reply has
arrived -- callers that wait for each step reply make a closed loop.

The mix is fixed at 8 sessions at scale 0.4: four ``continuous`` and
two ``periodic`` (two fleet groups), one ``adaptive`` ``ragdoll`` and
one ``deformable``.  Six of eight step requests can coalesce into a
fleet batch; that share is ``serve.fleet_share``.  Every session also
takes a snapshot every ``SNAPSHOT_EVERY`` requests and one restore
(from its latest snapshot's bytes) at a seeded request index.  The
workload seed fixes the session order, the scene seeds, the snapshot
phase and the restore index.

Each tick batches every session's outstanding request, so the batch
count and the fleet share repeat exactly for a given seed -- the traced
run asserts both equal the untraced run's.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Dict, List, Optional, Tuple

from harness import (CheckFailed, end_to_end, host_info, peak_rss_mb,
                     scratch_dir, setup_samples, worker_count)
from layers import instrument_physics, per_layer, physics_accum
from layers import physics_metrics
from spans import Patcher, SpanRecorder
from stats import MIN_BEYOND, percentile

__all__ = ["MIX", "plan", "replay", "run", "setup_only"]

SCALE = 0.4
#: The service's thread pool (capped at the host's CPUs).
SERVE_WORKERS = 2
#: (scenario, adaptive) per session.
MIX = ((("continuous", False),) * 4 + (("periodic", False),) * 2
       + (("ragdoll", True), ("deformable", False)))
SNAPSHOT_EVERY = 25
#: Requests per client per second of ``--seconds`` (a 2-vCPU host
#: serves roughly 150 steps/s to this mix).
ROUNDS_PER_SECOND = 15
#: Enough step requests for a p99 with ten samples beyond it.
MIN_ROUNDS = 140
WARMUP_ROUNDS = 2 * SNAPSHOT_EVERY
SETUP_REPEATS = 4

Plan = List[Tuple[dict, List[str]]]


def plan(seed: int, rounds: int) -> Plan:
    """(create frame, request ops) per session, derived from ``seed``."""
    from repro.experiments.table1 import PRESET_PRECISIONS

    rng = random.Random(f"perfbench-serve:{seed}")
    mix = list(MIX)
    rng.shuffle(mix)
    sessions = []
    for scenario, adaptive in mix:
        create = {"op": "create", "scenario": scenario, "scale": SCALE,
                  "seed": rng.randrange(1 << 16),
                  "precision": dict(PRESET_PRECISIONS[scenario]),
                  "adaptive": adaptive}
        offset = rng.randrange(SNAPSHOT_EVERY)
        restore_at = rng.randrange(rounds // 2, 3 * rounds // 4)
        ops = ["snapshot" if i % SNAPSHOT_EVERY == offset else "step"
               for i in range(rounds)]
        ops[restore_at] = "restore"  # >= SNAPSHOT_EVERY: one was taken
        ops[-1] = "step"  # every client ends on a digest-bearing reply
        sessions.append((create, ops))
    return sessions


def replay(sessions: Plan) -> List[str]:
    """Each session's final digest, stepped directly in-process."""
    from repro.serve import Session, SessionConfig, state_digest

    digests = []
    for index, (create, ops) in enumerate(sessions):
        session = Session(f"replay{index}", SessionConfig.from_frame(create))
        data = None
        for op in ops:
            if op == "step":
                session.step(1)
            elif op == "snapshot":
                data = session.snapshot()["data"]
            else:
                session.restore(None, data)
        digests.append(state_digest(session.world))
    return digests


class Service:
    """A started service plus the sessions of one plan."""

    def __init__(self, sessions: Plan, name: str) -> None:
        from repro.serve import ServiceConfig, SimulationService

        self.plan = sessions
        self.service = SimulationService(ServiceConfig(
            workers=worker_count(SERVE_WORKERS),
            max_sessions=len(sessions),
            journal_dir=str(scratch_dir(f"journal-{name}"))))
        self.ids: List[str] = []
        #: seconds per encode+decode of one frame
        self.codec: List[float] = []

    async def call(self, frame: dict) -> dict:
        """One request through the codec both ways, as a client sees it."""
        from repro.serve import decode_frame, encode_frame

        clock = time.perf_counter
        t0 = clock()
        request = decode_frame(encode_frame(frame))
        t1 = clock()
        reply = await self.service.handle_request(request)
        t2 = clock()
        reply = decode_frame(encode_frame(reply))
        self.codec += [t1 - t0, clock() - t2]
        return reply

    async def start(self) -> None:
        """Start dispatching (no socket) and create every session."""
        self.service.scheduler.start()
        for create, _ in self.plan:
            reply = await self.call(create)
            if not reply.get("ok"):
                raise CheckFailed(f"serve: create failed: {reply}")
            self.ids.append(reply["session"])

    async def load(self) -> dict:
        """Run every client's ops closed-loop; return what was served."""
        latencies: List[float] = []
        final: Dict[int, str] = {}
        errors: List[dict] = []

        async def client(index: int) -> None:
            sid, ops = self.ids[index], self.plan[index][1]
            data = None
            for n, op in enumerate(ops):
                frame = {"op": op, "session": sid, "id": f"{index}.{n}"}
                if op == "step":
                    frame["steps"] = 1
                elif op == "restore":
                    frame["data"] = data
                start = time.perf_counter()
                reply = await self.call(frame)
                elapsed = time.perf_counter() - start
                if not reply.get("ok"):
                    errors.append(reply)
                elif op == "snapshot":
                    data = reply["data"]
                else:
                    final[index] = reply["digest"]
                    if op == "step":
                        latencies.append(elapsed)

        start = time.perf_counter()
        await asyncio.gather(*(client(i) for i in range(len(self.ids))))
        wall = time.perf_counter() - start
        stats = await self.call({"op": "stats"})
        return {"wall": wall, "latencies": latencies, "errors": errors,
                "final": [final.get(i) for i in range(len(self.ids))],
                "requests": sum(len(ops) for _, ops in self.plan),
                "stats": stats}

    async def stop(self) -> None:
        await self.service.stop()


async def _served(sessions: Plan, name: str) -> Tuple[Service, float]:
    """A started service; returns it with its start+create seconds."""
    start = time.perf_counter()
    service = Service(sessions, name)
    await service.start()
    return service, time.perf_counter() - start


async def _warm_up(seed: int) -> None:
    service, _ = await _served(plan(seed, WARMUP_ROUNDS), "warmup")
    try:
        await service.load()
    finally:
        await service.stop()


def setup_only(seed: int, started: float) -> float:
    """Set-up alone: the imports, service start and session creates."""
    async def go() -> float:
        service, _ = await _served(plan(seed, MIN_ROUNDS), "setup")
        setup_s = time.perf_counter() - started
        await service.stop()
        return setup_s

    return asyncio.run(go())


def _check(result: dict, expected: List[str], label: str) -> None:
    if result["errors"]:
        raise CheckFailed(f"serve ({label}): {len(result['errors'])} "
                          f"failed requests, first {result['errors'][0]}")
    for index, (got, want) in enumerate(zip(result["final"], expected)):
        if got != want:
            raise CheckFailed(
                f"serve ({label}): session {index} ended on digest "
                f"{str(got)[:16]}, direct replay {want[:16]}")


def fleet_share(result: dict, sessions: Plan) -> float:
    """Share of step requests served inside a fleet batch."""
    steps = sum(ops.count("step") for _, ops in sessions)
    return result["stats"]["fleet_sessions"] / steps


def run(seed: int, seconds: float, trace: bool, started: float,
        expected: Dict) -> tuple:
    """One run: returns (metrics, attempted, host)."""
    rounds = max(MIN_ROUNDS, round(seconds * ROUNDS_PER_SECOND))
    sessions = plan(seed, rounds)
    host = host_info(serve_workers=worker_count(SERVE_WORKERS))
    imported = time.perf_counter() - started

    async def untraced() -> Tuple[dict, float]:
        await _warm_up(seed)
        service, setup_s = await _served(sessions, "timed")
        try:
            return await service.load(), imported + setup_s
        finally:
            await service.stop()

    plain, setup_s = asyncio.run(untraced())
    digests = replay(sessions)
    _check(plain, digests, "untraced")
    if not trace:
        latencies = plain["latencies"]
        metrics = end_to_end(
            len(latencies) / plain["wall"], len(latencies), latencies,
            [setup_s] + setup_samples("serve", seed, SETUP_REPEATS),
            peak_rss_mb(), 1)
        return metrics, plain["requests"], host

    traced, layer = asyncio.run(_traced_load(sessions))
    _check(traced, digests, "traced")
    for name, a, b in (
            ("fleet share", fleet_share(plain, sessions),
             fleet_share(traced, sessions)),
            ("batch count", plain["stats"]["batches"],
             traced["stats"]["batches"])):
        if a != b:
            raise CheckFailed(f"serve: traced {name} {b} differs from "
                              f"untraced {a}: tracing changed the program")
    values, samples = layer
    values["bench.trace_overhead_pct"] = 100.0 * (
        traced["wall"] / plain["wall"] - 1.0)
    samples["bench.trace_overhead_pct"] = 2
    return per_layer(values, samples), plain["requests"] \
        + traced["requests"], host


async def _traced_load(sessions: Plan) -> Tuple[dict, tuple]:
    """The same load on a fresh service with every layer wrapped."""
    import repro.serve.resilience as resilience
    import repro.serve.session as session_mod
    from repro.physics.batch import WorldBatch
    from repro.serve import BatchScheduler, Session
    from repro.tuning import PrecisionController

    recorder = SpanRecorder()
    clock = time.perf_counter
    submitted: Dict[str, float] = {}
    waits: List[float] = []
    actions = [0]
    world_session: Dict[int, str] = {}

    def served(session_id: Optional[str]) -> None:
        """Work for this session starts: its queue wait ends."""
        t = submitted.pop(session_id, None)
        if t is not None:
            waits.append(clock() - t)

    submit = BatchScheduler.submit

    async def timed_submit(self, session, fn, steps=0):
        submitted[session.id] = clock()
        return await submit(self, session, fn, steps)

    def session_work(name: str):
        traced = recorder.wrap(getattr(Session, name), f"serve.{name}")

        def call(self, *args, **kwargs):
            served(self.id)
            return traced(self, *args, **kwargs)

        return call

    observe = PrecisionController.observe

    def counted_observe(self, relative_difference, step,
                        reexecuted=False):
        before, violations = dict(self.ctx.phase_precision), self.violations
        observe(self, relative_difference, step, reexecuted)
        if (self.violations != violations
                or dict(self.ctx.phase_precision) != before):
            actions[0] += 1

    with Patcher() as patcher:
        instrument_physics(recorder, patcher)
        fleet_step = WorldBatch.step

        def fleet_started(self):
            for world in self.worlds:
                served(world_session.get(id(world)))
            return fleet_step(self)

        patcher.replace(WorldBatch, "step", fleet_started)
        patcher.replace(BatchScheduler, "submit", timed_submit)
        for name in ("step", "snapshot", "restore"):
            patcher.replace(Session, name, session_work(name))
        patcher.wrap(recorder, Session, "capture_for_journal",
                     "serve.journal_capture")
        patcher.wrap(recorder, session_mod, "state_digest", "serve.digest")
        patcher.wrap(recorder, session_mod, "build", "workloads.build")
        for owner in (session_mod, resilience):
            patcher.wrap(recorder, owner, "serialize_checkpoint",
                         "robustness.serialize")
        patcher.replace(PrecisionController, "observe", counted_observe)

        service, _ = await _served(sessions, "traced")
        try:
            world_session.update({id(s.world): s.id for s in
                                  service.service.manager.sessions()})
            result = await service.load()
        finally:
            await service.stop()

    stats = result["stats"]
    batch_hist = stats["metrics"]["serve.batch.seconds"]
    spans = {name: [s.duration for s in recorder.named(name)]
             for name in ("serve.snapshot", "serve.restore", "serve.digest",
                          "serve.journal_capture", "robustness.serialize",
                          "workloads.build")}
    values = physics_metrics(physics_accum(recorder))
    samples = {name: values["physics.steps"] for name in values}
    samples["physics.batch_step_ms"] = len(recorder.named("batch.step"))

    def put(name: str, value: float, n: int) -> None:
        values[name] = value
        samples[name] = n

    put("serve.codec_us", 1e6 * sum(service.codec) / len(service.codec),
        len(service.codec))
    put("serve.digest_us", 1e6 * _mean(spans["serve.digest"]),
        len(spans["serve.digest"]))
    put("serve.queue_wait_ms.p50", 1e3 * percentile(waits, 50), len(waits))
    put("serve.queue_wait_ms.p99",
        1e3 * percentile(waits, 99, MIN_BEYOND), len(waits))
    put("serve.execute_ms", 1e3 * batch_hist["total"] / batch_hist["count"],
        batch_hist["count"])
    put("serve.batch_size", result["requests"] / stats["batches"],
        stats["batches"])
    put("serve.fleet_share", fleet_share(result, sessions),
        stats["fleet_batches"])
    put("serve.batches", stats["batches"], 1)
    put("serve.snapshot_ms.p50", 1e3 * percentile(spans["serve.snapshot"],
                                                   50),
        len(spans["serve.snapshot"]))
    put("serve.restore_ms.p50", 1e3 * percentile(spans["serve.restore"], 50),
        len(spans["serve.restore"]))
    put("robustness.serialize_ms", 1e3 * _mean(spans["robustness.serialize"]),
        len(spans["robustness.serialize"]))
    put("serve.journal_capture_ms",
        1e3 * _mean(spans["serve.journal_capture"]),
        len(spans["serve.journal_capture"]))
    put("tuning.controller_actions", actions[0], 1)
    put("workloads.build_ms", 1e3 * _mean(spans["workloads.build"]),
        len(spans["workloads.build"]))
    return result, (values, samples)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0
