"""Tests for the perf subsystem: sweep runner, reduced ops, bench.

The census-free ops (round both operands, execute, round the result, in
one fused pass) must be *bit-exact* against the same composition of the
guarded :func:`reduce_array` — any divergence would silently change
every Table 1 number — and the parallel sweep paths must return results
identical to serial execution.
"""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.fp.context import FPContext
from repro.fp.rounding import FULL_PRECISION, RoundingMode, reduce_array
from repro.memo.memo_table import MemoTable
from repro.perf.bench import BenchProtocol, render_summary, run_bench
from repro.perf.sweep import (
    SweepJob,
    SweepOutcome,
    SweepRunner,
    resolve_workers,
)

MODES = (RoundingMode.NEAREST, RoundingMode.JAMMING,
         RoundingMode.TRUNCATION)


OPS = {"add": np.add, "sub": np.subtract, "mul": np.multiply}


def _bits(arr):
    return np.asarray(arr, dtype=np.float32).reshape(-1).view(np.uint32)


def _table1(ufunc, a, b, precision, mode):
    """``round(round(a) ufunc round(b))`` from the guarded rounding."""
    return reduce_array(ufunc(reduce_array(a, precision, mode),
                              reduce_array(b, precision, mode)),
                        precision, mode)


def _census_free(precision, mode):
    ctx = FPContext({"lcp": precision}, mode=mode, census=False)
    ctx.phase = "lcp"
    return ctx


# ----------------------------------------------------------------------
# module-level workers (must pickle across the process boundary)
# ----------------------------------------------------------------------
def _square(x):
    return x * x


def _square_outcome(x):
    return SweepOutcome(x * x, ops=1)


def _boom(x):
    raise ValueError(f"bad cell {x}")


class TestReduceArrayEquivalence:
    """Census-free ``ctx.add``/``sub``/``mul`` against the Table 1
    composition of the guarded :func:`reduce_array`."""

    @pytest.mark.parametrize("mode", MODES)
    def test_bit_exact_all_precisions(self, mode):
        rng = np.random.default_rng(11)
        # Normals, zeros and infinities, paired so that no op makes a
        # NaN or a denormal: the ops' unguarded rounding differs from
        # reduce_array only there.
        a = np.concatenate([
            rng.standard_normal(512).astype(np.float32),
            (rng.standard_normal(64) * 1e15).astype(np.float32),
            (rng.standard_normal(64) * 1e-15).astype(np.float32),
            np.array([0.0, -0.0, np.inf, -np.inf, 1.0, -1.0],
                     dtype=np.float32),
        ])
        b = np.concatenate([
            rng.standard_normal(512).astype(np.float32),
            (rng.standard_normal(64) * 1e15).astype(np.float32),
            (rng.standard_normal(64) * 1e-15).astype(np.float32),
            np.array([2.5, -1.5, 3.0, 0.75, 0.0, -0.0], dtype=np.float32),
        ])
        for precision in range(FULL_PRECISION + 1):
            ctx = _census_free(precision, mode)
            for name, ufunc in OPS.items():
                got = getattr(ctx, name)(a, b)
                want = _table1(ufunc, a, b, precision, mode)
                assert _bits(got).tolist() == _bits(want).tolist(), (
                    f"{name} mode={mode} precision={precision}")

    @pytest.mark.parametrize("mode", MODES)
    def test_nan_stays_nan_all_precisions(self, mode):
        # inf + -inf, inf - inf, 0 x inf and NaN operands, beside
        # finite lanes that must keep their bits.
        a = np.array([np.inf, -np.inf, np.inf, 0.0, np.inf, np.nan, 1.5,
                      -2.25, 3.0], dtype=np.float32)
        b = np.array([-np.inf, np.inf, np.inf, np.inf, 0.0, 3.0, np.nan,
                      0.75, 1e-3], dtype=np.float32)
        for precision in range(FULL_PRECISION + 1):
            ctx = _census_free(precision, mode)
            kern = ctx.kernel()
            for name, ufunc in OPS.items():
                with np.errstate(invalid="ignore"):
                    want = _table1(ufunc, a, b, precision, mode)
                    into = np.empty_like(a)
                    kern.binop_at(ufunc, kern.enter(a), kern.enter(b), into)
                    gots = (getattr(ctx, name)(a, b), into)
                nan = np.isnan(want)
                assert nan.any(), name
                for got in gots:
                    where = f"{name} mode={mode} precision={precision}"
                    assert np.isnan(got).tolist() == nan.tolist(), where
                    assert (_bits(got[~nan]).tolist()
                            == _bits(want[~nan]).tolist()), where


class TestFusedKernels:
    """Every way into the census-free kernel rounds the same bits."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("precision", [0, 3, 9, 17, 22])
    def test_fused_binop_bit_exact(self, mode, precision):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((40, 3)).astype(np.float32)
        b = rng.standard_normal((40, 3)).astype(np.float32)
        ctx = _census_free(precision, mode)
        kern = ctx.kernel()
        for name, ufunc in OPS.items():
            want = _bits(_table1(ufunc, a, b, precision, mode)).tolist()
            entered = kern.binop(ufunc, kern.enter(a), kern.enter(b))
            into = np.empty_like(a)
            kern.binop_at(ufunc, kern.enter(a), kern.enter(b), into)
            for got in (getattr(ctx, name)(a, b), kern.apply(ufunc, a, b),
                        entered, into):
                assert _bits(got).tolist() == want, name

    def test_fused_binop_broadcast_and_scalar(self):
        mode = RoundingMode.JAMMING
        ctx = _census_free(9, mode)
        grid = np.arange(6, dtype=np.float32).reshape(2, 3) * np.float32(0.3)
        row = np.array([1.1, -2.2, 3.3], dtype=np.float32)
        for a, b in ((np.float32(1.7), grid), (grid, 1.7), (row, grid),
                     (grid, row[:, None][:2])):
            for name, ufunc in OPS.items():
                got = getattr(ctx, name)(a, b)
                want = _table1(ufunc, a, b, 9, mode)
                assert got.shape == (2, 3)
                assert _bits(got).tolist() == _bits(want).tolist(), name

    def test_fused_binop_leaves_inputs_unmutated(self):
        a = np.full(8, 1.2345678, dtype=np.float32)
        b = np.full(8, 2.3456789, dtype=np.float32)
        sa, sb = a.copy(), b.copy()
        ctx = _census_free(5, RoundingMode.TRUNCATION)
        for name in OPS:
            getattr(ctx, name)(a, b)
            getattr(ctx, name)(a[:1], b)  # broadcast
        assert np.array_equal(a, sa) and np.array_equal(b, sb)


class TestMemoBudgetRestore:
    """Satellite: ``reset_stats`` restores the configured memo budget."""

    def test_budget_restored(self):
        ctx = FPContext({"lcp": 9}, memo_budget=123)
        ctx.memo_budget = 4  # drawn down by probes
        ctx.reset_stats()
        assert ctx.memo_budget == 123

    def test_unlimited_budget_stays_none(self):
        ctx = FPContext({"lcp": 9})
        ctx.reset_stats()
        assert ctx.memo_budget is None


class TestProbeBatch:
    """Satellite: vectorized probe path ≡ sequential lookups."""

    def test_hit_count_matches_sequential(self):
        rng = np.random.default_rng(3)
        # Narrow operand space so pairs repeat and the table actually
        # hits (32 x 32 = 1024 distinct pairs across 4000 probes).
        abits = rng.integers(0, 32, size=4000).astype(np.uint32) << 18
        bbits = rng.integers(0, 32, size=4000).astype(np.uint32) << 18
        seq = MemoTable()
        seq_hits = sum(seq.lookup(int(a), int(b))
                       for a, b in zip(abits, bbits))
        batch = MemoTable()
        batch_hits = batch.probe_batch(abits, bbits)
        assert seq_hits == batch_hits > 0
        assert batch.stats.lookups == seq.stats.lookups == 4000
        assert batch.stats.hits == seq.stats.hits


class TestSweepRunner:
    def test_serial_matches_parallel(self):
        jobs = [SweepJob(key=(i,), fn=_square, args=(i,))
                for i in range(7)]
        serial = SweepRunner(1).run(jobs)
        parallel = SweepRunner(4).run(jobs)
        assert [r.value for r in serial] == [r.value for r in parallel]
        assert [r.key for r in serial] == [r.key for r in parallel]
        assert all(r.ok for r in parallel)

    def test_outcome_ops_metrics(self):
        runner = SweepRunner(1)
        results = runner.run([SweepJob(key=(i,), fn=_square_outcome,
                                       args=(i,)) for i in range(5)])
        assert [r.value for r in results] == [0, 1, 4, 9, 16]
        assert runner.last_metrics.ops == 5
        assert runner.last_metrics.jobs == 5

    def test_errors_marshalled_and_reraised(self):
        jobs = [SweepJob(key=("ok",), fn=_square, args=(2,)),
                SweepJob(key=("bad",), fn=_boom, args=(9,))]
        results = SweepRunner(1).run(jobs, reraise=False)
        assert results[0].ok and not results[1].ok
        assert "bad cell 9" in results[1].error
        with pytest.raises(RuntimeError, match="bad"):
            SweepRunner(1).run(jobs)

    def test_resolve_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert resolve_workers(5) == 5
        assert resolve_workers(5, jobs=2) == 2
        assert resolve_workers(0) == 1
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert resolve_workers() == 3
        assert resolve_workers(None, jobs=10) == 3
        monkeypatch.setenv("REPRO_WORKERS", "nope")
        with pytest.raises(ValueError):
            resolve_workers()


class TestBench:
    PROTOCOL = BenchProtocol(census_free_warmup=1, census_free_steps=2,
                             census_warmup=1, census_steps=1)

    def test_run_bench_writes_payload(self, tmp_path):
        payload = run_bench(scenarios=["continuous"],
                            protocol=self.PROTOCOL,
                            output_dir=str(tmp_path), obs_overhead=False)
        bench_files = list(tmp_path.glob("BENCH_*.json"))
        assert len(bench_files) == 1
        on_disk = json.loads(bench_files[0].read_text())
        assert on_disk["kind"] == "repro-bench"
        row = on_disk["scenarios"]["continuous"]
        assert row["census_free_steps_per_sec"] > 0
        assert row["census_steps_per_sec"] > 0
        # perfbench owns the kernel rate, phase times and spreads.
        for section in ("kernel", "phase_breakdown", "sweep", "baseline",
                        "speedup_vs_baseline", "warnings"):
            assert section not in on_disk, section
        assert "workers" not in on_disk["host"]
        assert set(on_disk["protocol"]) == {"census_free", "census"}
        summary = render_summary(payload)
        assert "continuous" in summary
        assert "phases[" not in summary and "kernel:" not in summary

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown"):
            run_bench(scenarios=["nope"], protocol=self.PROTOCOL,
                      output_dir=str(tmp_path))

    def test_cli_bench_smoke(self, tmp_path, capsys):
        assert main(["bench", "--scenarios", "continuous",
                     "--steps", "2", "--census-steps", "1",
                     "--no-obs-overhead",
                     "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "steps/s" in out
        assert list(tmp_path.glob("BENCH_*.json"))

    def test_cli_health_multi_seed(self, capsys):
        assert main(["health", "continuous", "--steps", "8",
                     "--scale", "0.4", "--inject-rate", "0.001",
                     "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "aggregate:" in out and "2/2 seeds finite" in out


class TestObsOverhead:
    def test_traced_loop_streams_every_step(self, tmp_path):
        from repro.obs import read_events
        from repro.perf.bench import _time_step_loop

        trace = tmp_path / "t.jsonl"
        assert _time_step_loop("continuous", False, 1, 2, trace) > 0
        events, _ = read_events(trace)
        assert sum(e["kind"] == "step" for e in events) == 3

    def test_overhead_payload_shape(self, tmp_path):
        from repro.perf.bench import _obs_overhead

        protocol = BenchProtocol(obs_scenario="continuous",
                                 obs_warmup=1, obs_steps=3,
                                 obs_rounds=1)
        result = _obs_overhead(protocol)
        assert result["scenario"] == "continuous"
        assert result["plain_steps_per_sec"] > 0
        assert result["traced_steps_per_sec"] > 0
        assert isinstance(result["ok"], bool)
        assert result["budget_pct"] == 10.0

    def test_overhead_reported_in_payload_and_summary(self, tmp_path):
        protocol = BenchProtocol(
            census_free_warmup=1, census_free_steps=2, census_warmup=1,
            census_steps=1, obs_scenario="continuous", obs_warmup=1,
            obs_steps=3, obs_rounds=1)
        payload = run_bench(scenarios=["continuous"], protocol=protocol,
                            output_dir=str(tmp_path))
        assert "obs_overhead" in payload
        text = render_summary(payload)
        assert "metrics overhead:" in text
        assert ("OK" in text) or ("REGRESSED" in text)
