"""Tests for believability evaluation and the dynamic precision
controller."""

import numpy as np
import pytest

from repro.experiments.table1 import compute_table1
from repro.fp import FPContext
from repro.fp.rounding import FULL_PRECISION
from repro.physics import World
from repro.tuning import (
    BelievabilityCriteria,
    ControlledSimulation,
    EnergyTrace,
    PrecisionController,
    deviation,
    energy_trace,
    is_believable,
    minimum_precision,
)
from repro.tuning import believability


class TestDeviation:
    def _trace(self, values, blew_up=False, penetration=0.0):
        return EnergyTrace(np.array(values, dtype=float), blew_up,
                           penetration)

    def test_identical_traces(self):
        ref = self._trace([10, 11, 12])
        assert deviation(ref, self._trace([10, 11, 12])) == 0.0

    def test_blow_up_infinite(self):
        ref = self._trace([10, 11, 12])
        assert deviation(ref, self._trace([10, 11, 12], blew_up=True)) == \
            float("inf")

    def test_truncated_test_trace_infinite(self):
        ref = self._trace([10, 11, 12])
        assert deviation(ref, self._trace([10, 11])) == float("inf")

    def test_normalized_by_dynamic_range(self):
        ref = self._trace([100.0, 104.0, 100.0])  # range 4
        test = self._trace([100.0, 104.0, 101.0])  # off by 1
        assert deviation(ref, test) == pytest.approx(0.25)

    def test_floor_prevents_zero_scale(self):
        ref = self._trace([5.0, 5.0, 5.0])
        test = self._trace([5.0, 5.0, 5.4])
        assert deviation(ref, test) == pytest.approx(0.4)

    def test_believable_within_tolerance(self):
        ref = self._trace([0.0, 10.0, 0.0])
        test = self._trace([0.0, 10.5, 0.0])
        assert is_believable(ref, test)

    def test_unbelievable_beyond_tolerance(self):
        ref = self._trace([0.0, 10.0, 0.0])
        test = self._trace([0.0, 13.0, 0.0])
        assert not is_believable(ref, test)

    def test_penetration_criterion(self):
        ref = self._trace([0.0, 10.0, 0.0], penetration=0.01)
        bad = self._trace([0.0, 10.0, 0.0], penetration=0.5)
        assert not is_believable(ref, bad)
        ok = self._trace([0.0, 10.0, 0.0], penetration=0.05)
        assert is_believable(ref, ok)


class TestEnergyTrace:
    def test_full_precision_trace(self):
        trace = energy_trace("continuous", steps=15, scale=0.4)
        assert trace.steps == 15
        assert not trace.blew_up
        assert np.isfinite(trace.conserved).all()

    def test_reduced_trace_runs(self):
        trace = energy_trace("continuous", {"lcp": 5, "narrow": 8},
                             steps=15, scale=0.4)
        assert trace.steps == 15

    def test_deterministic(self):
        t1 = energy_trace("ragdoll", {"lcp": 8}, steps=10, scale=0.4)
        t2 = energy_trace("ragdoll", {"lcp": 8}, steps=10, scale=0.4)
        assert np.array_equal(t1.conserved, t2.conserved)


class TestMinimumPrecision:
    def test_monotone_output_range(self):
        bits = minimum_precision("continuous", phases=("lcp",),
                                 steps=20, scale=0.4)
        assert 1 <= bits <= FULL_PRECISION

    def test_full_precision_always_believable(self):
        trace_ref = energy_trace("periodic", steps=15, scale=0.4)
        trace_full = energy_trace("periodic", {"lcp": 23}, steps=15,
                                  scale=0.4)
        assert is_believable(trace_ref, trace_full)


class TestPrecisionController:
    def _ctx(self):
        return FPContext({"lcp": 23, "narrow": 23})

    def test_starts_at_register_minimum(self):
        ctx = self._ctx()
        PrecisionController(ctx, {"lcp": 6, "narrow": 10})
        assert ctx.precision_for("lcp") == 6
        assert ctx.precision_for("narrow") == 10

    def test_violation_throttles_to_full(self):
        ctx = self._ctx()
        controller = PrecisionController(ctx, {"lcp": 6}, threshold=0.10)
        controller.observe(0.5, step=0)
        assert ctx.precision_for("lcp") == FULL_PRECISION
        assert controller.violations == 1

    def test_stable_steps_decay_one_bit(self):
        ctx = self._ctx()
        controller = PrecisionController(ctx, {"lcp": 6})
        controller.observe(0.5, step=0)  # throttle to 23
        controller.observe(0.01, step=1)
        assert ctx.precision_for("lcp") == 22
        controller.observe(0.01, step=2)
        assert ctx.precision_for("lcp") == 21

    def test_decay_stops_at_register(self):
        ctx = self._ctx()
        controller = PrecisionController(ctx, {"lcp": 21})
        controller.observe(0.5, step=0)
        for step in range(1, 10):
            controller.observe(0.0, step=step)
        assert ctx.precision_for("lcp") == 21

    def test_none_signal_counts_as_stable(self):
        ctx = self._ctx()
        controller = PrecisionController(ctx, {"lcp": 6})
        controller.observe(None, step=0)
        assert controller.violations == 0

    def test_history_recorded(self):
        ctx = self._ctx()
        controller = PrecisionController(ctx, {"lcp": 6})
        controller.observe(0.01, step=0)
        controller.observe(0.9, step=1)
        assert len(controller.history) == 2
        assert not controller.history[0].violation
        assert controller.history[1].violation


class TestControlledSimulation:
    def _world(self, register):
        ctx = FPContext()
        world = World(ctx=ctx)
        world.add_ground_plane(0.0)
        world.add_sphere([0, 1.0, 0], 0.3, 1.0)
        controller = PrecisionController(ctx, register)
        return world, controller

    def test_runs_at_register_precision(self):
        world, controller = self._world({"lcp": 8, "narrow": 8})
        sim = ControlledSimulation(world, controller)
        sim.run(20)
        assert world.step_count == 20
        assert controller.current_precision("lcp") <= 8 or \
            controller.violations > 0

    def test_fail_safe_reexecutes_on_blowup(self):
        world, controller = self._world({"lcp": 1, "narrow": 1})
        sim = ControlledSimulation(world, controller)
        # Force an artificial blow-up threshold so any motion triggers it.
        controller.blowup_threshold = 1e-12
        sim.step()
        sim.step()
        assert controller.reexecutions >= 1
        # state stayed finite thanks to the full-precision redo
        assert np.isfinite(world.bodies.pos[0]).all()

    def test_energy_series_consistent_after_reexecution(self):
        world, controller = self._world({"lcp": 2, "narrow": 2})
        controller.blowup_threshold = 1e-12
        sim = ControlledSimulation(world, controller)
        sim.run(5)
        assert len(world.monitor.records) == 5

    def test_throttle_then_decay_cycle(self):
        world, controller = self._world({"lcp": 5, "narrow": 5})
        controller.threshold = 1e-9  # everything is a violation
        sim = ControlledSimulation(world, controller)
        sim.run(3)
        assert controller.current_precision("lcp") == FULL_PRECISION
        controller.threshold = 10.0  # nothing is a violation
        sim.run(4)
        assert controller.current_precision("lcp") == FULL_PRECISION - 4


class TestThresholdAblationFailSafe:
    """The fail-safe where a blow-up really fires: explosions at 10 %.

    Both retries still exceed ``blowup_threshold``, so this pins that the
    retried step stands, with one retry and no cooldown.
    """

    def test_counts_and_reexecuted_steps(self, monkeypatch):
        from repro.experiments import ablation

        controllers = []

        class Recording(PrecisionController):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                controllers.append(self)

        monkeypatch.setattr(ablation, "PrecisionController", Recording)
        (result,) = ablation.threshold_ablation(thresholds=(0.10,))
        assert result.violations == 7
        assert result.reexecutions == 2
        assert result.mean_lcp_precision == pytest.approx(613 / 60)
        (controller,) = controllers
        assert [log.step for log in controller.history
                if log.reexecuted] == [52, 53]


class TestObserveSequences:
    """Explicit action sequences through the controller state machine."""

    def test_none_signal_decays_to_floor(self):
        ctx = FPContext({"lcp": 23})
        controller = PrecisionController(ctx, {"lcp": 20})
        controller.observe(0.5, step=0)  # throttle to full
        for step in range(1, 6):
            controller.observe(None, step=step)
        # 23 -> 22 -> 21 -> 20, then held at the register floor.
        assert ctx.precision_for("lcp") == 20
        bits = [log.precisions["lcp"] for log in controller.history]
        assert bits == [23, 22, 21, 20, 20, 20]

    def test_throttle_on_violation_sequence(self):
        ctx = FPContext({"lcp": 23, "narrow": 23})
        controller = PrecisionController(ctx, {"lcp": 6, "narrow": 10},
                                         threshold=0.10)
        signals = [0.01, 0.5, 0.01, None, 0.2]
        for step, signal in enumerate(signals):
            controller.observe(signal, step=step)
        violations = [log.violation for log in controller.history]
        assert violations == [False, True, False, False, True]
        assert controller.violations == 2
        # Each violation snaps every controlled phase to full precision.
        assert controller.history[1].precisions == \
            {"lcp": 23, "narrow": 23}
        assert ctx.precision_for("lcp") == 23

    def test_observe_at_floor_holds(self):
        ctx = FPContext({"lcp": 23})
        controller = PrecisionController(ctx, {"lcp": 6})
        controller.observe(0.01, step=0)
        assert ctx.precision_for("lcp") == 6
        assert not controller.history[0].violation


class TestReferenceCacheCriteria:
    """Regression: the reference cache must key on the criteria.

    ``max_speed`` changes blow-up detection *inside* ``energy_trace``,
    so two criteria can classify the same configuration's reference run
    differently; a criteria-blind cache key hands the second caller the
    first caller's verdict.
    """

    def test_criteria_change_reference_classification(self):
        from repro.tuning.believability import _reference

        lenient = BelievabilityCriteria()
        # Any motion at all exceeds this speed limit -> "blow-up".
        strict = BelievabilityCriteria(max_speed=1e-9)
        ref_lenient = _reference("continuous", 10, 0.4, lenient)
        ref_strict = _reference("continuous", 10, 0.4, strict)
        assert not ref_lenient.blew_up
        assert ref_strict.blew_up

    def test_criteria_cached_separately(self):
        from repro.tuning.believability import _REFERENCE_CACHE, _reference

        lenient = BelievabilityCriteria()
        strict = BelievabilityCriteria(max_speed=1e-9)
        a = _reference("continuous", 10, 0.4, lenient)
        b = _reference("continuous", 10, 0.4, lenient)
        c = _reference("continuous", 10, 0.4, strict)
        assert a is b          # same criteria still hits the cache
        assert c is not a      # different criteria gets its own entry
        keys = [k for k in _REFERENCE_CACHE
                if k[0] == "continuous" and k[1] == 10 and k[2] == 0.4]
        assert len(keys) >= 2


class TestControllerFloorRecovery:
    """Regression: a phase below the register floor must recover."""

    def test_below_floor_recovers_to_minimum(self):
        ctx = FPContext({"lcp": 23})
        controller = PrecisionController(ctx, {"lcp": 8})
        # External write (or partial register update) under the floor.
        ctx.set_precision("lcp", 3)
        controller.observe(0.01, step=0)
        assert ctx.precision_for("lcp") == 8

    def test_recovery_is_logged_as_recover_action(self):
        events = []

        class Spy:
            def controller_event(self, **kw):
                events.append(kw)

        ctx = FPContext({"lcp": 23})
        controller = PrecisionController(ctx, {"lcp": 8})
        controller.observer = Spy()
        ctx.set_precision("lcp", 3)
        controller.observe(None, step=0)
        assert events[0]["action"] == "recover"
        assert events[0]["precisions"]["lcp"] == 8

    def test_below_floor_never_persists(self):
        ctx = FPContext({"lcp": 23})
        controller = PrecisionController(ctx, {"lcp": 8})
        ctx.set_precision("lcp", 1)
        for step in range(3):
            controller.observe(0.0, step=step)
            assert ctx.precision_for("lcp") >= 8


class TestRestoreThroughSetPrecision:
    """Regression: the fail-safe restore must use set_precision."""

    def test_reexecution_restores_via_set_precision(self):
        ctx = FPContext()
        world = World(ctx=ctx)
        world.add_ground_plane(0.0)
        world.add_sphere([0, 1.0, 0], 0.3, 1.0)
        controller = PrecisionController(ctx, {"lcp": 4, "narrow": 4})
        controller.blowup_threshold = 1e-12  # any motion "blows up"
        sim = ControlledSimulation(world, controller)

        calls = []
        original = ctx.set_precision

        def spy(phase, bits):
            calls.append((phase, bits))
            return original(phase, bits)

        ctx.set_precision = spy
        try:
            sim.step()  # first step has no energy delta yet
            sim.step()
        finally:
            ctx.set_precision = original
        assert controller.reexecutions >= 1
        # Throttle to full, then the restore of the saved bits — all
        # through the validated setter.
        assert ("lcp", FULL_PRECISION) in calls
        assert ("lcp", 4) in calls
        assert calls.index(("lcp", 4)) > calls.index(
            ("lcp", FULL_PRECISION))


class TestColdSearchAccounting:
    """``stats`` and ``Table1Result.probes`` count exactly the widths the
    search simulated (``perfbench`` reports the latter as
    ``tuning.probes``)."""

    STEPS, SCALE = 20, 0.4

    @pytest.fixture
    def probes(self, monkeypatch):
        """Every believability probe run, as (scenario, precision).  A
        probe passes a precision map; the full-precision reference run
        passes ``None`` and is not a probe."""
        calls = []
        original = believability.energy_trace

        def spy(scenario, precision=None, *args, **kwargs):
            if precision is not None:
                calls.append((scenario, tuple(sorted(precision.items()))))
            return original(scenario, precision, *args, **kwargs)

        monkeypatch.setattr(believability, "energy_trace", spy)
        return calls

    def _search(self, scenario, phase):
        stats = {}
        bits = minimum_precision(scenario, phases=(phase,),
                                 steps=self.STEPS, scale=self.SCALE,
                                 stats=stats)
        return bits, stats

    def test_minimum_of_one_is_a_single_probe(self, probes):
        bits, stats = self._search("continuous", "lcp")
        assert bits == 1
        assert stats == {"bits": 1, "probes": 1}
        assert probes == [("continuous", (("lcp", 1),))]

    def test_probes_count_distinct_widths(self, probes):
        bits, stats = self._search("deformable", "lcp")
        assert bits > 1
        assert stats["bits"] == bits
        widths = [dict(precision)["lcp"] for _, precision in probes]
        assert len(set(widths)) == len(widths), "a width ran twice"
        assert stats["probes"] == len(widths) > 1
        assert bits in widths and 1 in widths
        # Width 1, then the bisection's midpoints in order: a midpoint
        # at or above the answer was believable (it became ``hi``), one
        # below it was not.
        midpoints, lo, hi = [1], 1, FULL_PRECISION
        while hi - lo > 1:
            mid = (lo + hi) // 2
            midpoints.append(mid)
            lo, hi = (lo, mid) if mid >= bits else (mid, hi)
        assert widths == midpoints

    def test_table1_probes_equal_simulated_widths(self, probes):
        result = compute_table1(scenarios=["continuous"], steps=self.STEPS,
                                scale=self.SCALE, use_cache=False,
                                workers=1)
        assert result.probes == len(probes) > 0
        assert {scenario for scenario, _ in probes} == {"continuous"}
