"""Tests for the observability layer (``repro.obs``)."""

import json

import pytest

from repro.fp import FPContext
from repro.obs import (
    JsonlWriter,
    MetricsRegistry,
    NullSink,
    Tracer,
    read_events,
    render_summary,
    summarize,
    summarize_file,
    validate_event,
    validate_events,
)
from repro.obs.metrics import Gauge, Histogram
from repro.physics import World
from repro.tuning import ControlledSimulation, PrecisionController


def _traced_world(sink, precision=None, census=True):
    ctx = FPContext(dict(precision or {"lcp": 8, "narrow": 8}),
                    census=census)
    world = World(ctx=ctx)
    world.add_ground_plane(0.0)
    world.add_sphere([0.0, 1.0, 0.0], 0.3, 1.0)
    world.add_box([1.5, 0.6, 0.0], [0.3, 0.3, 0.3], 2.0)
    tracer = Tracer(sink)
    tracer.attach(world=world)
    return world, tracer


class TestMetricsRegistry:
    def test_counter_math(self):
        reg = MetricsRegistry()
        reg.counter("ops").inc()
        reg.counter("ops").inc(4)
        assert reg.counter("ops").value == 5
        with pytest.raises(ValueError):
            reg.counter("ops").inc(-1)

    def test_labels_key_distinct_metrics(self):
        reg = MetricsRegistry()
        reg.counter("hits", phase="lcp").inc(2)
        reg.counter("hits", phase="narrow").inc(3)
        snap = reg.snapshot()
        assert snap["hits{phase=lcp}"]["value"] == 2
        assert snap["hits{phase=narrow}"]["value"] == 3

    def test_type_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_gauge_envelope(self):
        gauge = Gauge()
        for value in (5.0, 2.0, 9.0):
            gauge.set(value)
        assert gauge.value == 9.0
        assert gauge.min == 2.0 and gauge.max == 9.0
        assert gauge.updates == 3

    def test_histogram_quantiles_bracket_observations(self):
        hist = Histogram(edges=(1.0, 2.0, 4.0, 8.0))
        for value in (0.5, 1.5, 1.6, 3.0, 7.0):
            hist.observe(value)
        assert hist.count == 5
        assert hist.min == 0.5 and hist.max == 7.0
        assert 0.5 <= hist.quantile(0.5) <= 4.0
        assert hist.quantile(0.0) == pytest.approx(0.5, abs=1.0)
        assert hist.quantile(1.0) == pytest.approx(7.0, abs=1.0)
        assert hist.mean == pytest.approx(sum((0.5, 1.5, 1.6, 3.0, 7.0)) / 5)

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram(edges=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(edges=())

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("ops").inc(2)
        b.counter("ops").inc(3)
        b.counter("only_b").inc(1)
        a.histogram("t", edges=(1.0, 2.0)).observe(0.5)
        b.histogram("t", edges=(1.0, 2.0)).observe(1.5)
        a.merge(b)
        assert a.counter("ops").value == 5
        assert a.counter("only_b").value == 1
        assert a.histogram("t", edges=(1.0, 2.0)).count == 2

    def test_merge_rejects_mismatched_edges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("t", edges=(1.0,)).observe(0.5)
        b.histogram("t", edges=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b)


class TestJsonlRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = tmp_path / "t.jsonl"
        events = [{"kind": "meta", "schema": 1, "i": i} for i in range(5)]
        with JsonlWriter(path) as writer:
            for event in events:
                writer.write(event)
            assert writer.events == 5
        back, skipped = read_events(path)
        assert skipped == 0
        assert back == events

    def test_torn_tail_and_garbage_skipped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlWriter(path) as writer:
            writer.write({"kind": "step", "step": 1})
        with open(path, "a") as handle:
            handle.write("not json\n")
            handle.write('{"kind": "step", "step"')  # torn tail
        back, skipped = read_events(path)
        assert len(back) == 1 and back[0]["step"] == 1
        assert skipped == 2

    def test_append_preserves_existing_stream(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlWriter(path) as writer:
            writer.write({"kind": "a"})
        with JsonlWriter(path) as writer:
            writer.write({"kind": "b"})
        back, _ = read_events(path)
        assert [e["kind"] for e in back] == ["a", "b"]

    def test_closed_writer_refuses(self, tmp_path):
        writer = JsonlWriter(tmp_path / "t.jsonl")
        writer.close()
        with pytest.raises(ValueError):
            writer.write({"kind": "a"})


class TestSchema:
    def test_unknown_kind_rejected(self):
        assert validate_event({"kind": "nope"})

    def test_missing_field_reported(self):
        errors = validate_event({"kind": "controller", "step": 1})
        assert any("missing" in e for e in errors)

    def test_bad_controller_action_reported(self):
        errors = validate_event({
            "kind": "controller", "step": 1, "action": "explode",
            "violation": False, "reexecuted": False, "precisions": {}})
        assert any("action" in e for e in errors)

    def test_validate_events_counts(self):
        good = {"kind": "detection", "step": 1, "phase": "lcp",
                "detail": "x"}
        bad = {"kind": "detection", "step": 1}
        invalid, messages = validate_events([good, bad, bad])
        assert invalid == 2
        assert messages


class TestSchemaV2BackCompat:
    """Schema bumps (v1 -> ... -> v5) must not invalidate old streams."""

    def test_current_version_is_6_and_older_still_supported(self):
        from repro.obs import SCHEMA_VERSION, SUPPORTED_SCHEMA_VERSIONS

        assert SCHEMA_VERSION == 6
        assert set(SUPPORTED_SCHEMA_VERSIONS) == {1, 2, 3, 4, 5, 6}

    @staticmethod
    def _meta(schema):
        return {"kind": "meta", "schema": schema,
                "scenario": "continuous", "steps": 8,
                "precision": {"lcp": 8}, "mode": "jam", "census": True}

    def test_v_previous_meta_still_validates(self):
        assert validate_event(self._meta(1)) == []
        assert validate_event(self._meta(2)) == []
        assert validate_event(self._meta(3)) == []
        assert validate_event(self._meta(4)) == []
        assert validate_event(self._meta(5)) == []
        assert validate_event(self._meta(99))

    def test_recover_action_is_valid_in_v5(self):
        assert validate_event({
            "kind": "controller", "step": 1, "action": "recover",
            "violation": False, "reexecuted": False,
            "precisions": {"lcp": 8}}) == []

    def test_v1_trace_stream_still_validates(self, tmp_path):
        """A stream written under schema 1 (no serve.* kinds) passes the
        v2 validator untouched."""
        path = tmp_path / "v1.jsonl"
        v1_events = [
            self._meta(1),
            {"kind": "detection", "step": 3, "phase": "lcp",
             "detail": "nan"},
            {"kind": "controller", "step": 3, "action": "throttle",
             "violation": True, "reexecuted": False,
             "precisions": {"lcp": 23}},
        ]
        with JsonlWriter(path) as writer:
            for event in v1_events:
                writer.write(event)
        events, skipped = read_events(path)
        invalid, messages = validate_events(events)
        assert (skipped, invalid) == (0, 0), messages

    def test_serve_kinds_are_v2(self):
        from repro.obs.schema import EVENT_KINDS, KINDS_SINCE

        v2_kinds = KINDS_SINCE[2]
        assert set(v2_kinds) <= set(EVENT_KINDS)
        assert all(kind.startswith("serve.") for kind in v2_kinds)

    def test_resilience_kinds_are_v3(self):
        from repro.obs.schema import EVENT_KINDS, KINDS_SINCE

        v2_kinds, v3_kinds = KINDS_SINCE[2], KINDS_SINCE[3]
        assert set(v3_kinds) <= set(EVENT_KINDS)
        assert not set(v3_kinds) & set(v2_kinds)
        assert all(kind.startswith("serve.") for kind in v3_kinds)

    def test_every_kind_has_one_introducing_version(self):
        from repro.obs.schema import (EVENT_KINDS, KINDS_SINCE,
                                      SUPPORTED_SCHEMA_VERSIONS)

        listed = [kind for kinds in KINDS_SINCE.values() for kind in kinds]
        assert sorted(listed) == sorted(EVENT_KINDS)
        assert set(KINDS_SINCE) <= set(SUPPORTED_SCHEMA_VERSIONS)

    def test_serve_recover_event_validates(self):
        good = {"kind": "serve.recover", "session": "s1", "rung": 1,
                "outcome": "degraded", "reason": "guard tripped",
                "wall": 0.02, "step": 40}
        assert validate_event(good) == []
        assert validate_event(dict(good, outcome="vanished"))
        assert validate_event({"kind": "serve.recover", "session": "s1"})

    def test_serve_drain_event_validates(self):
        good = {"kind": "serve.drain", "sessions": 3, "journaled": 3,
                "completed": True, "wall": 0.5}
        assert validate_event(good) == []
        assert validate_event({"kind": "serve.drain", "sessions": 3})

    def test_serve_request_event_validates(self):
        good = {"kind": "serve.request", "op": "step", "session": "s1",
                "ok": True, "wall": 0.01}
        assert validate_event(good) == []
        # session may be None (e.g. a rejected create)
        assert validate_event(dict(good, session=None)) == []
        assert validate_event(dict(good, op="warp"))  # unknown op
        assert validate_event({"kind": "serve.request", "op": "step"})

    def test_serve_batch_and_evict_validate(self):
        assert validate_event({"kind": "serve.batch", "batch": 1,
                               "sessions": 3, "steps": 9,
                               "wall": 0.02}) == []
        assert validate_event({"kind": "serve.evict", "session": "s1",
                               "reason": "budget_exceeded",
                               "step": 40}) == []
        assert validate_event({"kind": "serve.evict", "session": "s1"})


class TestTracerStepEvents:
    def test_step_events_are_schema_valid(self, tmp_path):
        path = tmp_path / "t.jsonl"
        world, tracer = _traced_world(JsonlWriter(path))
        for _ in range(5):
            world.step()
        tracer.close()
        events, skipped = read_events(path)
        assert skipped == 0
        steps = [e for e in events if e["kind"] == "step"]
        assert len(steps) == 5
        invalid, messages = validate_events(events)
        assert invalid == 0, messages

    def test_step_event_contents(self):
        sink = NullSink()
        captured = []
        sink.write = lambda e: captured.append(e)
        world, tracer = _traced_world(sink)
        for _ in range(3):
            world.step()
        steps = [e for e in captured if e["kind"] == "step"]
        assert [e["step"] for e in steps] == [0, 1, 2]
        event = steps[-1]
        assert event["phases"]["lcp"]["bits"] == 8
        assert event["phases"]["narrow"]["bits"] == 8
        for name in ("integrate", "broad", "narrow", "islands", "lcp"):
            assert event["phases"][name]["seconds"] >= 0.0
        assert event["wall"] > 0.0
        # Census totals are per-step deltas, not cumulative.
        total_ops = sum(e["census"]["total"] for e in steps)
        assert total_ops == sum(
            c.total for c in world.ctx.stats.values())
        assert event["energy"]["delta_rel"] is not None

    def test_first_step_energy_delta_is_null(self):
        sink = NullSink()
        captured = []
        sink.write = lambda e: captured.append(e)
        world, tracer = _traced_world(sink)
        world.step()
        step0 = [e for e in captured if e["kind"] == "step"][0]
        assert step0["energy"]["delta_rel"] is None
        assert step0["energy"]["violation"] is False

    def test_lut_hits_counted_below_coverage_width(self):
        sink = NullSink()
        captured = []
        sink.write = lambda e: captured.append(e)
        world, tracer = _traced_world(sink, precision={"lcp": 4,
                                                       "narrow": 4})
        for _ in range(3):
            world.step()
        steps = [e for e in captured if e["kind"] == "step"]
        census = steps[-1]["census"]
        # At 4 bits every non-trivial add/sub/mul is LUT-covered.
        assert census["lut_hits"] > 0
        assert census["lut_hits"] <= census["nontrivial"]

    def test_census_free_context_reports_zero_census(self):
        sink = NullSink()
        captured = []
        sink.write = lambda e: captured.append(e)
        world, tracer = _traced_world(sink, census=False)
        world.step()
        step0 = [e for e in captured if e["kind"] == "step"][0]
        assert step0["census"]["total"] == 0

    def test_metrics_registry_updated(self):
        world, tracer = _traced_world(NullSink())
        for _ in range(4):
            world.step()
        assert tracer.registry.counter("steps").value == 4
        assert tracer.registry.histogram("step.seconds").count == 4
        snap = tracer.registry.snapshot()
        assert snap["phase.bits{phase=lcp}"]["value"] == 8

    def test_detached_world_has_zero_overhead_hooks(self):
        world, tracer = _traced_world(NullSink())
        world.observer = None  # detach
        world.step()
        assert tracer.registry.counter("steps").value == 0


class TestControllerEvents:
    def test_throttle_and_decay_stream(self):
        captured = []
        sink = NullSink()
        sink.write = lambda e: captured.append(e)
        ctx = FPContext({"lcp": 23})
        controller = PrecisionController(ctx, {"lcp": 6})
        Tracer(sink).attach(controller=controller)
        controller.observe(0.5, step=0)     # violation -> throttle
        controller.observe(0.01, step=1)    # stable -> decay
        controller.observe(None, step=2)    # no signal -> decay
        actions = [e["action"] for e in captured
                   if e["kind"] == "controller"]
        assert actions == ["throttle", "decay", "decay"]
        assert captured[0]["precisions"]["lcp"] == 23
        assert captured[1]["precisions"]["lcp"] == 22

    def test_hold_at_register_floor(self):
        captured = []
        sink = NullSink()
        sink.write = lambda e: captured.append(e)
        ctx = FPContext({"lcp": 23})
        controller = PrecisionController(ctx, {"lcp": 6})
        Tracer(sink).attach(controller=controller)
        controller.observe(0.0, step=0)  # already at the floor
        assert captured[-1]["action"] == "hold"


class TestRecoveryEvents:
    def test_incident_log_streams_through_observer(self):
        from repro.robustness import IncidentLog

        captured = []
        sink = NullSink()
        sink.write = lambda e: captured.append(e)
        log = IncidentLog()
        Tracer(sink).attach(log=log)
        log.detection(3, "lcp", "nan in velocities")
        log.recovery(3, 0, "recovered", "attempt 1")
        kinds = [e["kind"] for e in captured]
        assert kinds == ["detection", "recovery"]
        assert captured[1]["rung"] == 0
        assert captured[1]["action"] == "retry-full-precision"
        assert captured[1]["outcome"] == "recovered"

    def test_guarded_campaign_trace_is_schema_valid(self, tmp_path):
        from repro.robustness import run_campaign

        path = tmp_path / "campaign.jsonl"
        tracer = Tracer(JsonlWriter(path))
        run_campaign("continuous", steps=10, scale=0.4,
                     inject_rate=0.02, seed=13, observer=tracer)
        tracer.close()
        events, skipped = read_events(path)
        assert skipped == 0
        invalid, messages = validate_events(events)
        assert invalid == 0, messages
        assert any(e["kind"] == "step" for e in events)


class TestSummarize:
    def test_summarize_controlled_run(self, tmp_path):
        path = tmp_path / "t.jsonl"
        ctx = FPContext({"lcp": 8, "narrow": 8})
        world = World(ctx=ctx)
        world.add_ground_plane(0.0)
        world.add_sphere([0.0, 1.0, 0.0], 0.3, 1.0)
        controller = PrecisionController(ctx, {"lcp": 8, "narrow": 8})
        tracer = Tracer(JsonlWriter(path))
        tracer.meta(scenario="unit", steps=6, precision={"lcp": 8},
                    mode="jam", census=True)
        tracer.attach(world=world, controller=controller)
        ControlledSimulation(world, controller).run(6)
        tracer.close()

        summary = summarize_file(path)
        assert summary["steps"] >= 6
        assert summary["invalid_events"] == 0
        assert summary["step_seconds"]["p95"] >= \
            summary["step_seconds"]["p50"] > 0
        assert summary["phase_bits"]["lcp"]
        assert summary["controller_actions"]
        text = render_summary(summary)
        assert "step time" in text
        assert "precision histogram" in text
        assert "unit" in text

    def test_summarize_tolerates_empty_stream(self):
        summary = summarize([])
        assert summary["steps"] == 0
        assert "step time" in render_summary(summary)

    def test_summarize_reports_schema_problems(self):
        summary = summarize([{"kind": "step", "step": 1}])
        assert summary["invalid_events"] == 1
        assert summary["schema_problems"]
