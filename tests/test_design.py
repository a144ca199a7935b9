"""Tests for the design-space optimizer (``repro.design``).

The search fixtures run tiny workloads (12 steps at 0.4 scale) so the
whole module stays inside the tier-1 budget; results are shared through
the module-scoped fixture and the run-cache, so the expensive cold
searches execute once.
"""

import json
import pathlib
import random
import uuid

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.__main__ import main
from repro.design import (
    ARTIFACT_VERSION,
    DESIGN_CHOICES,
    Budgets,
    DesignPoint,
    DesignQuery,
    DesignSpace,
    DesignSpaceError,
    ParetoFront,
    design_by_name,
    dominates,
    paper_points,
    run_search,
)
from repro.experiments.runcache import cached_json
from repro.obs import NullSink, Tracer


SMALL = {"scenario": "continuous", "steps": 12, "scale": 0.4,
         "trace_length": 2000, "generations": 2, "population": 8,
         "seed": 7, "budget_area": 4.0, "budget_energy": 1.0}


def _capture_tracer():
    captured = []
    sink = NullSink()
    sink.write = lambda event: captured.append(event)
    return Tracer(sink), captured


@pytest.fixture(scope="module")
def small_result():
    """One small seeded search, shared by every test that reads a front."""
    return run_search(DesignQuery.from_mapping(SMALL), workers=1)


class TestDominance:
    def test_strictly_better_dominates(self):
        assert dominates((1.0, 1.0, -2.0, -3), (2.0, 1.0, -2.0, -3))

    def test_equal_vectors_do_not_dominate(self):
        v = (1.0, 2.0, -3.0, -4)
        assert not dominates(v, v)

    def test_tradeoff_is_incomparable(self):
        a, b = (1.0, 5.0, -1.0, -1), (2.0, 1.0, -1.0, -1)
        assert not dominates(a, b) and not dominates(b, a)

    @given(st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5),
                  st.integers(-5, 0), st.integers(-5, 0)),
        min_size=1, max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_front_never_holds_a_dominated_member(self, vectors):
        front = ParetoFront()
        for i, vec in enumerate(vectors):
            entry = _FakeEval(key=f"p{i}", vec=tuple(float(x) for x in vec))
            front.add(entry)
        members = front.members()
        assert members, "a non-empty input always leaves a front"
        for a in members:
            for b in members:
                assert not dominates(a.objectives(), b.objectives())
        # every input vector is covered by (equal to or dominated by)
        # something on the front
        for vec in vectors:
            assert front.covers(tuple(float(x) for x in vec))


class _FakeEval:
    """Minimal duck-typed front entry for property tests."""

    def __init__(self, key, vec):
        self._key, self._vec = key, vec
        self.point = self

    def key(self):
        return self._key

    def objectives(self):
        return self._vec


class TestValidation:
    def test_negative_area_rejected(self):
        with pytest.raises(DesignSpaceError) as err:
            DesignQuery.from_mapping({**SMALL, "budget_area": -1.0})
        assert "budget_area" in err.value.detail

    def test_zero_generations_rejected(self):
        with pytest.raises(DesignSpaceError) as err:
            DesignQuery.from_mapping({**SMALL, "generations": 0})
        assert "generations" in err.value.detail

    def test_unknown_design_lists_valid_names(self):
        with pytest.raises(DesignSpaceError) as err:
            design_by_name("bogus")
        detail = err.value.detail
        assert "bogus" in detail
        for name in DESIGN_CHOICES:
            assert name in detail

    def test_unknown_query_field_rejected(self):
        with pytest.raises(DesignSpaceError) as err:
            DesignQuery.from_mapping({**SMALL, "frobnicate": 1})
        assert "frobnicate" in err.value.detail

    def test_surrogate_id_is_always_null(self):
        """The v1 query keeps ``surrogate_id`` (its key hashes it), but
        searches are cold, so only null is accepted."""
        query = DesignQuery.from_mapping({"surrogate_id": None})
        assert query.canonical()["surrogate_id"] is None
        with pytest.raises(DesignSpaceError) as err:
            DesignQuery.from_mapping({"surrogate_id": "0123abcd"})
        assert err.value.field == "surrogate_id"

    def test_budgets_validate(self):
        with pytest.raises(DesignSpaceError):
            Budgets(area_mm2=-2.0).validate()
        Budgets(area_mm2=1.0, energy_nj=None).validate()

    def test_cli_exit_2_with_typed_messages(self, capsys, tmp_path):
        cases = [
            (["design", "continuous", "--budget-area", "-1"],
             "budget_area"),
            (["design", "continuous", "--generations", "0"],
             "generations"),
            (["design", "continuous", "--designs", "bogus"],
             "conjoin"),  # message lists the valid designs
        ]
        for argv, needle in cases:
            assert main(argv + ["--out", str(tmp_path)]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and needle in err


class TestSearch:
    def test_front_is_valid_and_verified(self, small_result):
        front = small_result.front
        assert front.members(), "small search must find a feasible front"
        assert front.validate() == []
        for member in front.members():
            assert member.verified, "front members are cold-search verified"
            assert member.believable

    def test_front_respects_budgets(self, small_result):
        budgets = Budgets(area_mm2=SMALL["budget_area"],
                          energy_nj=SMALL["budget_energy"])
        for member in small_result.front.members():
            assert budgets.admits(member.area_mm2, member.energy_nj)

    def test_paper_points_on_or_dominated(self, small_result):
        statuses = {p["status"] for p in small_result.paper}
        assert statuses <= {"on_front", "dominated", "infeasible"}
        # the conjoined design at the paper's preset precisions is the
        # strongest fixed point; it must never be left uncovered
        assert any(p["status"] in ("on_front", "dominated")
                   for p in small_result.paper)

    def test_workers_do_not_change_the_front(self, small_result):
        again = run_search(DesignQuery.from_mapping(SMALL), workers=2)
        assert again.payload() == small_result.payload()

    def test_front_stable_under_member_order_shuffle(self, small_result):
        members = list(small_result.front.members())
        rng = random.Random(13)
        for _ in range(5):
            shuffled = members[:]
            rng.shuffle(shuffled)
            front = ParetoFront()
            for member in shuffled:
                front.add(member)
            assert [m.point.key() for m in front.members()] == \
                [m.point.key() for m in small_result.front.members()]

    def test_paper_points_match_table8_presets(self):
        points = paper_points("continuous")
        names = [p.design for p in points]
        assert "conjoin" in names and "mini_fpu_1" in names
        for p in points:
            assert p.cores_per_fpu == 4

    def test_mutate_and_crossover_stay_in_space(self):
        space = DesignSpace(scenario="continuous", steps=12, scale=0.4,
                            trace_length=2000)
        rng = random.Random(3)
        point = space.sample(rng, 1)[0]
        for _ in range(50):
            other = space.sample(rng, 1)[0]
            for child in (space.mutate(point, rng),
                          space.crossover(point, other, rng)):
                assert child.design in space.designs
                assert child.cores_per_fpu in space.sharing
                assert space.bits_lo <= child.lcp_bits <= space.bits_hi
                assert space.bits_lo <= child.narrow_bits <= space.bits_hi
            point = other

    def test_artifact_round_trip(self, small_result, tmp_path):
        path = pathlib.Path(small_result.write_artifact(tmp_path))
        assert path.name.startswith("DESIGN_") and path.suffix == ".json"
        payload = json.loads(path.read_text())
        assert payload["version"] == ARTIFACT_VERSION
        assert payload == small_result.payload()

    def test_query_canonicalization_is_stable(self):
        sparse = DesignQuery.from_mapping(
            {"scenario": "continuous", "seed": 7})
        full = DesignQuery.from_mapping(sparse.canonical())
        assert sparse.cache_key() == full.cache_key()

    def test_point_round_trip(self):
        point = DesignPoint(design="conjoin", cores_per_fpu=4,
                            lcp_bits=3, narrow_bits=6)
        assert DesignPoint.from_dict(point.to_dict()) == point


class TestRunCache:
    def test_cached_json_memoizes(self):
        calls = []

        def compute():
            calls.append(1)
            return {"x": len(calls)}

        # unique per run: the disk layer outlives the process, and a
        # stale entry would satisfy the lookup without calling compute
        params = {"probe": f"design-test-memo-{uuid.uuid4().hex}"}
        first = cached_json("design_test", params, compute)
        second = cached_json("design_test", params, compute)
        assert first == second == {"x": 1}
        assert len(calls) == 1

    def test_no_cache_recomputes(self):
        calls = []

        def compute():
            calls.append(1)
            return {"x": len(calls)}

        params = {"probe": f"design-test-nocache-{uuid.uuid4().hex}"}
        cached_json("design_test", params, compute, use_cache=False)
        cached_json("design_test", params, compute, use_cache=False)
        assert len(calls) == 2


class TestServeDesign:
    def test_served_query_matches_cli_artifact_and_caches(self, tmp_path):
        from repro.serve import Client, ServiceConfig, start_in_thread
        from repro.serve.client import ServeClientError

        tracer, events = _capture_tracer()
        handle = start_in_thread(ServiceConfig(port=0, workers=1),
                                 observer=tracer)
        try:
            with Client("127.0.0.1", handle.port) as client:
                first = client.design(SMALL, timeout=180)
                repeat = client.design(SMALL, timeout=180)
                assert first["ok"] and not first["cached"]
                assert repeat["ok"] and repeat["cached"]
                assert repeat["design"] == first["design"]
                with pytest.raises(ServeClientError) as err:
                    client.design({**SMALL, "budget_area": -1}, timeout=30)
                assert err.value.code == "bad_request"
                stats = client.request({"op": "stats"})
                assert stats["designs_total"] == 2
                assert stats["design_cache_hits"] == 1
        finally:
            handle.stop()

        # the served payload is byte-identical to the CLI artifact
        result = run_search(DesignQuery.from_mapping(SMALL), workers=1)
        path = result.write_artifact(tmp_path)
        assert first["design"] == json.loads(
            pathlib.Path(path).read_text())

        design_events = [e for e in events if e["kind"] == "serve.design"]
        assert [e["cached"] for e in design_events] == [False, True]
        assert all(e["ok"] and e["front"] > 0 for e in design_events)
        assert len({e["query"] for e in design_events}) == 1
