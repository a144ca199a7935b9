"""Integration tests for the experiment pipelines (tiny configurations)."""

import numpy as np
import pytest

from repro.experiments import (
    common,
    figure5,
    figure6,
    figure7,
    figure8,
    report,
    runcache,
    table1,
    table4,
    table5,
    table8,
)

from .engine_goldens import engine_fingerprint
from .engine_goldens import load as load_goldens

TINY = dict(steps=12, scale=0.4)


@pytest.fixture(scope="module")
def tiny_workloads():
    tuned = {name: {"lcp": 6, "narrow": 8}
             for name in ("continuous", "highspeed")}
    return common.all_workloads(scenarios=list(tuned), tuned_map=tuned,
                                **TINY)


class TestRunCache:
    def test_census_returns_stats(self):
        # Ragdolls have joint rows from step 0, guaranteeing LCP work.
        stats = runcache.census_stats("ragdoll", {"lcp": 6}, "jam",
                                      steps=8, scale=0.4)
        assert any(phase == "lcp" for phase, _op in stats)

    def test_cache_hit_is_identical(self, monkeypatch):
        first = runcache.census_stats("continuous", {"lcp": 6}, "jam",
                                      steps=8, scale=0.4)
        monkeypatch.setattr(runcache, "build", None)  # a miss would fail
        second = runcache.census_stats("continuous", {"lcp": 6}, "jam",
                                       steps=8, scale=0.4)
        assert second == first
        assert second is not first  # each call owns its counters

    def test_disk_roundtrip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runcache._JSON_CACHE.clear()
        first = runcache.census_stats("continuous", None, "jam", steps=5,
                                      scale=0.4)
        runcache._JSON_CACHE.clear()
        second = runcache.census_stats("continuous", None, "jam", steps=5,
                                       scale=0.4)
        key = next(iter(second))
        assert second[key].total == first[key].total

    def test_engine_fingerprint_matches_goldens(self):
        fingerprint = engine_fingerprint(load_goldens())
        assert runcache.ENGINE_FINGERPRINT == fingerprint, (
            f"the engine goldens changed: set runcache.ENGINE_FINGERPRINT "
            f"= {fingerprint!r}")

    def test_entries_miss_under_another_fingerprint(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        builds = []

        def build(*args, **kwargs):
            builds.append(args[0])
            return real_build(*args, **kwargs)
        real_build = runcache.build
        monkeypatch.setattr(runcache, "build", build)
        for fingerprint in ("a" * 16, "a" * 16, "b" * 16):
            monkeypatch.setattr(runcache, "ENGINE_FINGERPRINT", fingerprint)
            runcache._JSON_CACHE.clear()  # answer from the files
            runcache.census_stats("continuous", None, "jam", steps=2,
                                  scale=0.4)
        assert builds == ["continuous", "continuous"]
        assert len(list(tmp_path.glob("census_*.json"))) == 2

    def test_memo_run_collects_memo_stats(self):
        stats = runcache.census_stats("continuous", {"lcp": 4}, "rn",
                                      steps=8, scale=0.4, memo=True)
        lookups = sum(c.memo_lookups for c in stats.values())
        assert lookups > 0


class TestBenchStamp:
    """Collision-proof bench filenames (parallel CI jobs, same second)."""

    def test_stamps_are_unique_within_a_second(self):
        stamps = {runcache.bench_stamp() for _ in range(50)}
        assert len(stamps) == 50

    def test_stamp_format_keeps_baseline_globs_working(self):
        import fnmatch
        import os
        import re

        stamp = runcache.bench_stamp()
        # <date>_<time>_p<pid>n<counter> — sortable date prefix, pid +
        # per-process counter suffix.
        assert re.fullmatch(
            rf"\d{{8}}_\d{{6}}_p{os.getpid()}n\d+", stamp)
        assert fnmatch.fnmatch(f"BENCH_{stamp}.json", "BENCH_*.json")
        assert fnmatch.fnmatch(f"BENCH_{stamp}_serve.json",
                               "BENCH_*_serve.json")
        # The perf gate's exclusion of serve payloads still holds.
        assert not f"BENCH_{stamp}.json".endswith("_serve.json")


class TestWorkloadAssembly:
    def test_shapes(self, tiny_workloads):
        for scenario, phases in tiny_workloads.items():
            for phase in ("lcp", "narrow"):
                wl = phases[phase]
                shares = sum(p.share for p in wl.ops.values())
                assert shares == pytest.approx(1.0, abs=1e-6) or \
                    shares == 0.0
                for profile in wl.ops.values():
                    assert 0 <= profile.conv_trivial_rate <= 1
                    assert 0 <= profile.ext_trivial_rate <= 1

    def test_fp_fraction_from_paper(self, tiny_workloads):
        wl = tiny_workloads["highspeed"]["lcp"]
        assert wl.fp_fraction == 0.31
        assert tiny_workloads["highspeed"]["narrow"].fp_fraction == 0.13


class TestTable1:
    def test_preset_covers_all_scenarios(self):
        from repro.workloads import SCENARIO_NAMES
        assert set(table1.PRESET_PRECISIONS) == set(SCENARIO_NAMES)
        for phases in table1.PRESET_PRECISIONS.values():
            assert 1 <= phases["lcp"] <= 23
            assert 1 <= phases["narrow"] <= 23

    def test_paper_table_complete(self):
        from repro.workloads import SCENARIO_NAMES
        assert set(table1.PAPER_TABLE1) == set(SCENARIO_NAMES)

    def test_tuned_precisions_fallback(self):
        tuned = table1.tuned_precisions()
        assert tuned == table1.PRESET_PRECISIONS
        tuned["breakable"]["lcp"] = -1  # mutation must not leak
        assert table1.PRESET_PRECISIONS["breakable"]["lcp"] > 0

    def test_compute_small_grid(self):
        result = table1.compute_table1(steps=10, scale=0.4,
                                       scenarios=["continuous"],
                                       use_cache=False)
        bits = result.independent["continuous"]["lcp"]
        assert set(bits) == {"rn", "jam", "trunc"}
        assert all(1 <= b <= 23 for b in bits.values())
        assert 1 <= result.narrow_combined["continuous"] <= 23


class TestTable4:
    def test_compute_rows(self):
        tuned = {"continuous": {"lcp": 4, "narrow": 8}}
        rows = table4.compute_table4(scenarios=["continuous"],
                                     tuned_map=tuned, steps=10, scale=0.4)
        row = rows["continuous"]
        assert 0 <= row.trivial_add_full <= 100
        # reduced precision + new conditions never lose trivialization
        assert row.trivial_add_reduced >= row.trivial_add_full - 10
        rendered = table4.render(rows)
        assert "Con" in rendered

    def test_paper_values_present(self):
        from repro.workloads import SCENARIO_NAMES
        assert set(table4.PAPER_TABLE4) == set(SCENARIO_NAMES)


class TestTable5:
    def test_result_fields(self):
        result = table5.compute_table5()
        assert result.area_reduction == pytest.approx(0.77, abs=0.01)
        assert result.mul_exact_fraction > 0.95
        assert result.add_exact_fraction > 0.5
        assert result.add_max_ulp <= 2.0
        assert "77%" in table5.render(result)


class TestFigures:
    def test_figure5_grid(self, tiny_workloads):
        result = figure5.compute_figure5(workloads=tiny_workloads,
                                         trace_length=2000)
        key = (1.5, "lookup_triv", 4)
        assert key in result.improvement["lcp"]
        # conjoin at private FPU is the baseline by construction
        assert result.improvement["lcp"][(1.5, "conjoin", 1)] == \
            pytest.approx(0.0, abs=1e-9)
        assert "Figure 5" in figure5.render(result, "lcp")
        assert "paper" in figure5.paper_summary(result)

    def test_figure6_cores(self):
        counts = figure6.compute_core_counts()
        assert counts[(1.5, "conjoin", 1)] == 128
        assert counts[(1.5, "conjoin", 8)] > 160
        assert counts[(1.0, "mini_fpu_1", 4)] < \
            counts[(1.0, "lookup_triv", 4)]
        assert "Figure 6a" in figure6.render_cores(counts)

    def test_figure6_energy(self, tiny_workloads):
        result = figure6.compute_energy(workloads=tiny_workloads)
        for phase in ("lcp", "narrow"):
            c = result.energy_reduction[phase]["conv_triv"]
            r = result.energy_reduction[phase]["reduced_triv"]
            lut = result.energy_reduction[phase]["lookup_triv"]
            assert c <= r <= lut
        assert "Figure 6b" in figure6.render_energy(result)

    def test_figure7(self, tiny_workloads):
        result = figure7.compute_figure7(workloads=tiny_workloads,
                                         trace_length=2000)
        # mini shared by 4 requires L2 sharing >= 4
        assert (1.5, "mini_fpu_4", 2) not in result.improvement["lcp"]
        assert (1.5, "mini_fpu_4", 4) in result.improvement["lcp"]
        assert "Figure 7" in figure7.render(result, "lcp")

    def test_figure8(self, tiny_workloads):
        result = figure8.compute_figure8(workloads=tiny_workloads,
                                         trace_length=2000)
        series = result.improvement["lcp"]
        # more latency always hurts
        for area in (1.5, 0.375):
            assert series[(area, 1)] > series[(area, 4)]
        assert "Figure 8" in figure8.render(result, "lcp")


class TestTable8:
    def test_rows(self, tiny_workloads):
        rows = table8.compute_table8(workloads=tiny_workloads,
                                     trace_length=2000)
        names = [row.design for row in rows]
        assert names == ["conjoin", "conv_triv", "reduced_triv",
                         "lookup_triv", "mini_fpu_1"]
        ipcs = [row.lcp_ipc for row in rows]
        assert ipcs == sorted(ipcs)  # monotone improvement, as in paper
        assert "Table 8" in table8.render(rows)


class TestReport:
    def test_render_table_alignment(self):
        text = report.render_table(["a", "bb"], [[1, 2], [333, 4]],
                                   title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert len(lines) == 5

    def test_format_percent(self):
        assert report.format_percent(0.5) == "+50.0%"
        assert report.format_percent(0.5, signed=False) == "50.0%"
