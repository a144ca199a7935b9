"""The shared recovery ladder (``repro.robustness.ladder``).

``GuardedSimulation`` and the guarded served ``Session`` compose the same
ladder, so a rung-r recovery must buy the same cooldown in both: exactly
the next ``backoff_steps × (r + 1)`` steps at full precision with
injection off (5 is the documented default).
"""

import pytest

from repro.fp import FPContext
from repro.fp.rounding import FULL_PRECISION
from repro.physics import World
from repro.robustness import FaultInjector, GuardedSimulation
from repro.serve import Session, SessionConfig, SessionDegraded
from repro.tuning import ControlledSimulation, PrecisionController

FAILED_STEP = 3
BACKOFF_STEPS = 5


def _instrument(guards, injector, fails):
    """Fail the first ``fails`` attempts of ``FAILED_STEP``.

    Returns the attempt log: ``(step, cool)`` per attempt, where ``cool``
    means it ran at full precision with injection off.
    """
    attempts = []
    calls = []
    after_narrow = guards.after_narrow
    after_integrate = guards.after_integrate

    def narrow(world, contacts):
        after_narrow(world, contacts)
        full = world.ctx.precision_for("lcp") == FULL_PRECISION
        attempts.append((world.step_count, full and not injector.enabled))

    def integrate(world, record):
        after_integrate(world, record)
        if world.step_count == FAILED_STEP:
            calls.append(world.step_count)
            if len(calls) <= fails:
                guards._report(FAILED_STEP, "integrate", "forced",
                               "forced failure", (0,))

    guards.after_narrow = narrow
    guards.after_integrate = integrate
    return attempts


def _guarded_sim(rung):
    """Steps after a rung-``rung`` recovery of step 3 (GuardedSimulation).

    Rung 0 needs the first attempt to fail, rung 1 also both retries,
    rung 2 also the ring replay's re-run of step 3.
    """
    ctx = FPContext({"narrow": 10, "lcp": 10}, census=False)
    world = World(ctx=ctx)
    world.add_ground_plane(0.0)
    world.add_sphere([0, 0.3, 0], 0.3, 1.0)
    world.add_sphere([1.2, 0.3, 0], 0.3, 1.0)
    injector = FaultInjector(rate=0.0)
    sim = GuardedSimulation(world, injector=injector)
    attempts = _instrument(sim.guards, injector, fails=(1, 3, 4)[rung])
    sim.run(FAILED_STEP + 1)
    recovered = [r.rung for r in sim.log.records
                 if r.kind == "recovery" and r.outcome == "recovered"]
    assert recovered == [rung]
    resumed = len(attempts)
    sim.run(20)
    return attempts[resumed:]


def _session(rung):
    """Steps after a rung-``rung`` recovery of step 3 (served session).

    Rung 1 rolls back to the journal mark at step 0, so the steps after
    the ``session_degraded`` reply start there.
    """
    session = Session("s1", SessionConfig(
        scenario="continuous", scale=0.4, seed=11,
        precision={"narrow": 10, "lcp": 10}, guarded=True,
        inject_rate=1e-12))
    session.mark_journaled(*session.capture_for_journal())
    attempts = _instrument(session.guards, session.injector,
                           fails=rung + 1)
    session.step(FAILED_STEP)
    if rung == 0:
        session.step(1)
    else:
        with pytest.raises(SessionDegraded) as reply:
            session.step(1)
        assert reply.value.extra["step"] == 0
    assert [e["rung"] for e in session.drain_recovery_events()] == [rung]
    resumed = len(attempts)
    for _ in range(20):
        session.step(1)
    assert session.injector.injected == 0
    return attempts[resumed:]


class TestCooldown:
    @pytest.mark.parametrize("composition,rung", [
        ("guarded", 0), ("guarded", 1), ("guarded", 2),
        ("session", 0), ("session", 1)])
    def test_next_backoff_times_rung_plus_one_steps(self, composition,
                                                    rung):
        compose = {"guarded": _guarded_sim, "session": _session}
        after = compose[composition](rung)
        first = after[0][0]
        window = BACKOFF_STEPS * (rung + 1)
        assert [step for step, _ in after] == \
            list(range(first, first + len(after)))  # no further failures
        assert len(after) > window
        assert [step for step, cool in after if cool] == \
            list(range(first, first + window))


class TestUnguardedExceptions:
    def test_a_crash_without_guards_propagates(self, monkeypatch):
        ctx = FPContext()
        world = World(ctx=ctx)
        world.add_ground_plane(0.0)
        world.add_sphere([0, 1.0, 0], 0.3, 1.0)
        controller = PrecisionController(ctx, {"lcp": 8})
        sim = ControlledSimulation(world, controller)
        sim.step()

        def boom(self):
            raise RuntimeError("boom")

        monkeypatch.setattr(World, "step", boom)
        with pytest.raises(RuntimeError, match="boom"):
            sim.step()
        assert controller.reexecutions == 0
        assert len(controller.history) == 1
