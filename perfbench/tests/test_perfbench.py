"""Tests for the benchmark's own code (not for the program it measures).

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import engine  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import paper  # noqa: E402
import serving  # noqa: E402
from spans import SpanRecorder, covered, self_time  # noqa: E402
from stats import geomean, median, percentile, samples_beyond  # noqa: E402

harness.import_repro()


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 1001))
        assert percentile(values, 99) == 990
        assert percentile(values, 50) == 500
        assert percentile(values, 100) == 1000
        assert percentile([3.0, 1.0, 2.0], 50) == 2.0

    def test_value_is_a_sample(self):
        values = [0.5, 10.0, 2.5, 7.0]
        assert percentile(values, 75) in values

    def test_samples_beyond(self):
        assert samples_beyond(1000, 99) == 10
        assert samples_beyond(999, 99) == 9
        assert samples_beyond(1024, 99) == 10
        assert samples_beyond(10, 50) == 5

    def test_tail_needs_ten_samples_beyond(self):
        assert percentile(range(1000), 99, min_beyond=10) == 989
        with pytest.raises(ValueError):
            percentile(range(999), 99, min_beyond=10)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)

    def test_median(self):
        assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
        assert median([5.0]) == 5.0


class TestGeomean:
    def test_values(self):
        assert geomean([1.0, 100.0]) == pytest.approx(10.0)
        assert geomean([4.0, 4.0, 4.0]) == pytest.approx(4.0)

    def test_each_value_counts_equally(self):
        # Doubling any one of n values scales the mean by 2 ** (1/n).
        base = geomean([30.0, 60.0, 300.0, 500.0])
        assert geomean([60.0, 60.0, 300.0, 500.0]) == \
            pytest.approx(base * 2 ** 0.25)
        assert geomean([30.0, 60.0, 300.0, 1000.0]) == \
            pytest.approx(base * 2 ** 0.25)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            geomean([1.0, 0.0])
        with pytest.raises(ValueError):
            geomean([])


def _recorder(times):
    ticks = iter(times)
    return SpanRecorder(clock=lambda: next(ticks))


class TestSelfTime:
    def test_nested_spans(self):
        rec = _recorder([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 10.0])
        outer = rec.open("outer")
        a = rec.open("a")
        leaf = rec.open("leaf")
        rec.close(leaf)
        rec.close(a)
        b = rec.open("b")
        rec.close(b)
        rec.close(outer)
        kids = rec.children()
        assert [s.name for s in kids[id(outer)]] == ["a", "b"]
        assert self_time(outer, kids[id(outer)]) == pytest.approx(6.0)
        assert self_time(a, kids[id(a)]) == pytest.approx(1.5)
        assert self_time(leaf, []) == pytest.approx(0.5)
        assert leaf.parent is a and a.parent is outer

    def test_covered_is_a_union_clipped_to_the_span(self):
        assert covered(0.0, 10.0, [(1, 4), (2, 5), (8, 12)]) == 6.0
        assert covered(0.0, 10.0, []) == 0.0

    def test_wrap_records_and_counts(self):
        rec = SpanRecorder()

        def pairs(n):
            return list(range(n))

        def count(span, result):
            span.count = len(result)

        traced = rec.wrap(pairs, "broad", count)
        assert traced(3) == [0, 1, 2]
        (span,) = rec.named("broad")
        assert span.count == 3 and span.duration >= 0

    def test_phases_and_other_add_up_to_the_step(self):
        rec = _recorder([0.0, 1.0, 3.0, 4.0, 7.0, 9.0])
        step = rec.open("world.step")
        narrow = rec.open("narrow")
        rec.close(narrow)
        solve = rec.open("lcp.solve")
        rec.close(solve)
        rec.close(step)
        accum = layers.physics_accum(rec)
        metrics = layers.physics_metrics(accum)
        parts = sum(metrics[f"physics.{p}_ms"] for p in layers.PHASES)
        assert parts + metrics["physics.step_other_ms"] == \
            pytest.approx(metrics["physics.step_ms"])
        assert metrics["physics.narrow_ms"] == pytest.approx(2000.0)
        assert metrics["physics.step_other_ms"] == pytest.approx(4000.0)


class TestServePlan:
    def test_one_seed_one_plan(self):
        assert serving.plan(7, 60) == serving.plan(7, 60)
        assert serving.plan(7, 60) != serving.plan(8, 60)

    def test_mix_is_fixed(self):
        for seed in range(5):
            sessions = serving.plan(seed, 60)
            kinds = collections.Counter(
                (c["scenario"], c["adaptive"]) for c, _ in sessions)
            assert kinds == collections.Counter(serving.MIX)

    def test_request_sequence(self):
        for create, ops in serving.plan(3, serving.MIN_ROUNDS):
            assert len(ops) == serving.MIN_ROUNDS
            assert ops.count("restore") == 1
            assert "snapshot" in ops[:ops.index("restore")]
            assert ops[-1] == "step"


class TestOutputChecks:
    def test_tampered_engine_digest_fails(self):
        recorded = json.loads((HERE / "expected.json").read_text())["engine"]
        world = engine.setup(5)["deformable"]
        engine.window(world, engine.settle(world), [])
        engine.check("deformable", world, recorded, 5)
        tampered = {"deformable": {"5": "0" * 64}}
        with pytest.raises(harness.CheckFailed):
            engine.check("deformable", world, tampered, 5)

    def test_table4_tolerances(self):
        row = {c: 50.0 for c in paper.TRIVIAL_COLUMNS + paper.HITRATE_COLUMNS}
        expected = {"table4": {s: dict(row) for s in layers.SCENES}}
        output = {s: dict(row) for s in layers.SCENES}
        output["ragdoll"]["memo_add_hitrate_reduced"] = 51.5
        paper.check("table4", output, expected)
        output["ragdoll"]["memo_add_hitrate_reduced"] = 52.5
        with pytest.raises(harness.CheckFailed):
            paper.check("table4", output, expected)
        output["ragdoll"]["memo_add_hitrate_reduced"] = 50.0
        output["periodic"]["trivial_mul_full"] = 50.000001
        with pytest.raises(harness.CheckFailed):
            paper.check("table4", output, expected)


def _checkout(tmp_path, with_source=True):
    """A minimal checkout: the benchmark, and the package unless not."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    if with_source:
        (tmp_path / "src").symlink_to(HERE.parent / "src")
    return tmp_path


def _run(root, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=root,
        capture_output=True, text=True, timeout=170)


class TestCommand:
    def test_tampered_digest_exits_nonzero_without_a_result(self, tmp_path):
        root = _checkout(tmp_path)
        expected_path = root / "perfbench" / "expected.json"
        expected = json.loads(expected_path.read_text())
        expected["engine"]["breakable"]["0"] = "0" * 64
        expected_path.write_text(json.dumps(expected))
        proc = _run(root, "--workload", "engine", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
        assert proc.returncode == 1
        assert "check failed" in proc.stderr
        assert '"correct"' not in proc.stdout

    def test_without_source_exits_nonzero(self, tmp_path):
        root = _checkout(tmp_path, with_source=False)
        proc = _run(root, "--workload", "serve", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
        assert proc.returncode == 2
        assert proc.stdout == ""


class TestDeclaration:
    def test_benchmark_json_lists_what_runs_print(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
            layers.PER_LAYER
        assert {w["name"] for w in spec["workloads"]} == \
            {"engine", "serve", "paper"}
        names = [m["name"] for m in spec["end_to_end"]]
        printed = harness.end_to_end(1.0, 1, [0.001] * 1000, [0.1], 50.0, 1)
        assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
            [(name, unit) for name, (_, unit, _) in printed.items()]
        assert "setup_s" in names
        assert len(set(names + [n for n, _ in layers.PER_LAYER])) == \
            len(names) + len(layers.PER_LAYER)

    def test_exact_counts_are_per_layer_metrics(self):
        assert layers.EXACT <= {name for name, _ in layers.PER_LAYER}
