"""Failure-injection tests: the system's behaviour when things go wrong."""

import math

import numpy as np
import pytest

from repro.fp import FPContext
from repro.fp.rounding import FULL_PRECISION
from repro.physics import SolverParams, World
from repro.robustness import (
    FaultInjector,
    GuardConfig,
    GuardedSimulation,
    PhaseGuards,
    RecoveryPolicy,
    SimulationAborted,
    capture_world,
    restore_world,
)
from repro.tuning import ControlledSimulation, PrecisionController
from repro.workloads import build


class TestNumericalAbuse:
    def test_extreme_mass_ratio_stays_finite(self):
        world = World(ctx=FPContext(census=False))
        world.add_ground_plane(0.0)
        world.add_box([0, 0.5, 0], [0.5, 0.5, 0.5], 1000.0)
        world.add_sphere([0, 1.3, 0], 0.3, 0.001)
        for _ in range(60):
            world.step()
        assert np.isfinite(world.bodies.pos[:2]).all()

    def test_deep_initial_penetration_resolves(self):
        world = World(ctx=FPContext(census=False))
        world.add_ground_plane(0.0)
        world.add_sphere([0, -0.2, 0], 0.5, 1.0)  # buried in the ground
        for _ in range(150):
            world.step()
        assert world.bodies.pos[0, 1] > 0.3
        # bias clamping prevents a popcorn launch
        assert world.bodies.pos[0, 1] < 2.0

    def test_coincident_spheres_do_not_nan(self):
        world = World(ctx=FPContext(census=False))
        world.add_sphere([0, 1, 0], 0.3, 1.0)
        world.add_sphere([0, 1, 0], 0.3, 1.0)  # exactly coincident
        for _ in range(30):
            world.step()
        assert np.isfinite(world.bodies.pos[:2]).all()

    def test_one_bit_precision_does_not_crash(self):
        world = World(ctx=FPContext({"lcp": 1, "narrow": 1},
                                    census=False))
        world.add_ground_plane(0.0)
        world.add_box([0, 0.8, 0], [0.4, 0.4, 0.4], 2.0)
        for _ in range(40):
            world.step()  # results may be absurd; they must be defined

    def test_huge_velocity_capped_by_believability_check(self):
        from repro.tuning.believability import (
            BelievabilityCriteria,
            energy_trace,
        )
        # a criteria with a tiny max speed flags an ordinary scene
        criteria = BelievabilityCriteria(max_speed=0.001)
        trace = energy_trace("highspeed", steps=5, scale=0.4,
                             criteria=criteria)
        assert trace.blew_up

    def test_zero_sized_world_monitor(self):
        world = World(ctx=FPContext(census=False))
        record = world.monitor.measure(world, 0)
        assert record.total == 0.0


class TestControllerFailSafe:
    def _sim(self, register, **kwargs):
        ctx = FPContext()
        world = World(ctx=ctx)
        world.add_ground_plane(0.0)
        world.add_sphere([0, 1.2, 0], 0.3, 1.0)
        controller = PrecisionController(ctx, register, **kwargs)
        return world, controller, ControlledSimulation(world, controller)

    def test_snapshot_restore_roundtrip(self):
        world, controller, sim = self._sim({"lcp": 8})
        for _ in range(5):
            world.step()
        snapshot = capture_world(world)
        pos_before = world.bodies.pos[:1].copy()
        world.step()
        world.monitor.measure(world, 99)  # extra record to pop
        restore_world(world, snapshot)
        assert np.array_equal(world.bodies.pos[:1], pos_before)
        assert world.step_count == 5

    def test_reexecution_bounds_state(self):
        world, controller, sim = self._sim({"lcp": 1, "narrow": 1},
                                           blowup_threshold=0.5)
        sim.run(30)
        assert np.isfinite(world.bodies.pos[0]).all()
        assert len(world.monitor.records) == 30

    def test_violation_history_monotone_steps(self):
        world, controller, sim = self._sim({"lcp": 6, "narrow": 6})
        sim.run(10)
        steps = [log.step for log in controller.history]
        assert steps == sorted(steps)

    def test_controller_reaches_register_floor(self):
        world, controller, sim = self._sim({"lcp": 20, "narrow": 20})
        sim.run(20)
        # quiet scene: precision should sit at the floor by the end
        assert controller.current_precision("lcp") == 20


class TestGuardedRecovery:
    """Recovery-path coverage for the robustness escalation ladder."""

    def _resting_world(self, phase_precision=None):
        ctx = FPContext(dict(phase_precision or {}), census=False)
        world = World(ctx=ctx)
        world.add_ground_plane(0.0)
        world.add_sphere([0, 0.3, 0], 0.3, 1.0)  # resting contact
        world.add_sphere([1.2, 0.3, 0], 0.3, 1.0)
        return world

    def test_injected_nan_in_narrowphase_triggers_retry(self):
        world = self._resting_world({"narrow": 10})
        injector = FaultInjector(rate={"narrow": 0.02}, seed=11,
                                 kind_weights={"nan": 1.0})
        sim = GuardedSimulation(world, injector=injector)
        sim.run(25)

        assert injector.injected > 0
        assert sim.detections > 0
        retries = [r for r in sim.log.records
                   if r.action == "retry-full-precision"
                   and r.outcome == "recovered"]
        assert retries, "NaN faults must be healed by full-precision retry"
        n = world.bodies.count
        assert np.isfinite(world.bodies.pos[:n]).all()
        assert np.isfinite(world.bodies.linvel[:n]).all()
        # the retry re-executed the faulted step; the step stream is gapless
        assert len(world.monitor.records) == 25

    def test_repeated_island_blowup_quarantines_only_that_island(self):
        world = self._resting_world()
        runaway = world.add_sphere([6.0, 2.0, 0], 0.3, 1.0,
                                   linvel=[5.0, 0.0, 0.0])
        # A ceiling the runaway body violates even at full precision, so
        # rungs 0/1 cannot help and the ladder must escalate to rung 2.
        guards = PhaseGuards(GuardConfig(max_speed=1.0))
        sim = GuardedSimulation(
            world, guards=guards,
            policy=RecoveryPolicy(max_retries=1, rollback_depth=1))
        sim.run(10)

        assert world.quarantined == {runaway}
        quarantines = [r for r in sim.log.records
                       if r.action == "quarantine-island"
                       and r.outcome == "recovered"]
        assert quarantines
        # the healthy resting island keeps simulating, un-quarantined
        assert not world.bodies.asleep[0] or 0 not in world.quarantined
        assert world.step_count == 10
        report = sim.health_report("two-islands")
        assert report.status == "DEGRADED"
        assert report.quarantined_bodies == 1

    def test_escalation_ladder_terminates(self):
        world = self._resting_world()
        # An unsatisfiable invariant: every step "violates", with no
        # offending bodies to attribute, so quarantine cannot apply and
        # the ladder must reach the abort rung in bounded attempts.
        guards = PhaseGuards(GuardConfig(max_energy_delta=-1.0))
        policy = RecoveryPolicy(max_retries=2, rollback_depth=2)
        sim = GuardedSimulation(world, guards=guards, policy=policy)
        with pytest.raises(SimulationAborted) as excinfo:
            sim.run(50)
        # bounded: initial attempts + retries + rollback replays, not 50
        assert sim.step_attempts <= 12
        assert sim.aborted
        assert sim.log.records[-1].outcome == "aborted"
        assert "Incident history" in excinfo.value.post_mortem()

    def test_same_seed_produces_identical_incident_logs(self):
        def campaign():
            world = self._resting_world({"narrow": 10, "lcp": 8})
            injector = FaultInjector(rate=5e-3, seed=23)
            sim = GuardedSimulation(world, injector=injector)
            sim.run(30)
            return sim.log.lines(), list(injector.events)

        lines_a, events_a = campaign()
        lines_b, events_b = campaign()
        assert lines_a == lines_b
        assert events_a == events_b
        assert events_a, "campaign must actually inject faults"

    def test_backoff_suspends_injection_after_recovery(self):
        world = self._resting_world({"narrow": 10})
        injector = FaultInjector(rate={"narrow": 0.05}, seed=3,
                                 kind_weights={"nan": 1.0})
        policy = RecoveryPolicy(backoff_steps=4)
        sim = GuardedSimulation(world, injector=injector, policy=policy)
        sim.run(20)
        assert sim.recoveries > 0
        # recovered steps plus their cool-down windows run fault-free, so
        # fewer steps carry faults than were simulated
        faulted_steps = {e.step for e in injector.events}
        assert len(faulted_steps) < 20


class TestInjectionOnFusedPasses:
    """Faults reach the results of the whole-array kernels' ops."""

    RATE = 2e-4
    PRECISION = {"narrow": 12, "lcp": 10}

    def _campaign(self):
        ctx = FPContext(dict(self.PRECISION), census=False)
        world = build("ragdoll", ctx=ctx, scale=0.5, seed=5)
        injector = FaultInjector(rate=self.RATE, seed=5)
        sim = GuardedSimulation(world, injector=injector)
        sim.run(30)
        return sim, injector

    def test_guarded_ragdoll_faults_follow_the_rate_and_window(self):
        sim, injector = self._campaign()
        assert injector.injected > 0
        # Every offered element is an independent Bernoulli(rate) draw.
        sigma = math.sqrt(self.RATE * (1 - self.RATE) / injector.offered)
        fraction = injector.injected / injector.offered
        assert abs(fraction - self.RATE) <= 4 * sigma
        for event in injector.events:
            if event.kind == "bitflip":
                kept = self.PRECISION[event.phase]
                assert FULL_PRECISION - kept <= event.bit < FULL_PRECISION
        again, again_injector = self._campaign()
        assert again.log.lines() == sim.log.lines()
        assert again_injector.events == injector.events


class TestDegenerateSolverInput:
    def test_all_static_scene(self):
        world = World(ctx=FPContext(census=False))
        world.add_ground_plane(0.0)
        world.add_box([0, 0.5, 0], [0.5, 0.5, 0.5], 0.0)  # static box
        for _ in range(10):
            world.step()
        assert world.last_contact_count >= 0  # plane/static filtered

    def test_zero_cfm_guarded_by_mass_splitting(self):
        world = World(ctx=FPContext(census=False),
                      solver=SolverParams(cfm=0.0))
        world.add_ground_plane(0.0)
        world.add_sphere([0, 0.4, 0], 0.5, 1.0)
        for _ in range(30):
            world.step()
        assert np.isfinite(world.bodies.linvel[0]).all()

    def test_contact_with_sleeping_neighbour(self):
        world = World(ctx=FPContext(census=False))
        world.add_ground_plane(0.0)
        world.add_box([0, 0.499, 0], [0.5, 0.5, 0.5], 1.0)
        for _ in range(80):
            world.step()  # box falls asleep
        world.add_box([0, 1.6, 0], [0.5, 0.5, 0.5], 1.0)  # lands on it
        for _ in range(80):
            world.step()
        ys = world.bodies.pos[:2, 1]
        assert ys[1] > ys[0]  # stacked, not merged
        assert np.isfinite(ys).all()
