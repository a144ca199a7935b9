"""Tests for the per-phase FPContext."""

import numpy as np
import pytest

from repro.fp import FPContext, RoundingMode
from repro.fp.census import CensusKernel
from repro.fp.ops import reduced_add, reduced_div, reduced_mul, reduced_sub
from repro.fp.rounding import FULL_PRECISION, ReducedKernel, reduce_array
from repro.memo.memo_table import MemoBank

UFUNCS = {"add": np.add, "sub": np.subtract, "mul": np.multiply}
ORACLES = {"add": reduced_add, "sub": reduced_sub, "mul": reduced_mul}


def arr(*values):
    return np.array(values, dtype=np.float32)


def bits(values):
    return np.asarray(values, dtype=np.float32).reshape(-1).view(
        np.uint32).tolist()


class TestPhasePlumbing:
    def test_default_full_precision(self):
        ctx = FPContext()
        assert ctx.precision == FULL_PRECISION

    def test_phase_precision_applies(self):
        ctx = FPContext({"lcp": 4})
        with ctx.in_phase("lcp"):
            assert ctx.precision == 4
        assert ctx.precision == FULL_PRECISION

    def test_in_phase_restores_on_exception(self):
        ctx = FPContext({"lcp": 4})
        with pytest.raises(RuntimeError):
            with ctx.in_phase("lcp"):
                raise RuntimeError("boom")
        assert ctx.phase == "other"

    def test_nested_phases(self):
        ctx = FPContext({"lcp": 4, "narrow": 9})
        with ctx.in_phase("narrow"):
            assert ctx.precision == 9
            with ctx.in_phase("lcp"):
                assert ctx.precision == 4
            assert ctx.precision == 9

    def test_set_precision(self):
        ctx = FPContext()
        ctx.set_precision("lcp", 7)
        assert ctx.precision_for("lcp") == 7

    def test_set_precision_validates(self):
        ctx = FPContext()
        with pytest.raises(ValueError):
            ctx.set_precision("lcp", 24)

    @pytest.mark.parametrize("bits", [-3, 24, 99])
    def test_constructor_validates(self, bits):
        with pytest.raises(ValueError, match="out of range"):
            FPContext({"narrow": 9, "lcp": bits})

    def test_mode_parse_in_constructor(self):
        assert FPContext(mode="rn").mode is RoundingMode.NEAREST


class TestOperations:
    def test_results_reduced_in_phase(self):
        ctx = FPContext({"lcp": 3})
        with ctx.in_phase("lcp"):
            result = ctx.mul(arr(1.23), arr(2.47))
        mantissa_bits = np.frombuffer(result.tobytes(), dtype=np.uint32)[0]
        assert mantissa_bits & ((1 << 20) - 1) == 0

    def test_census_and_fast_numerics_match_at_full_precision(self):
        a = arr(1.5, -2.25, 0.0)
        b = arr(0.25, 4.0, 9.0)
        census = FPContext()
        fast = FPContext(census=False)
        for op in ("add", "sub", "mul", "div"):
            assert np.array_equal(getattr(census, op)(a, b),
                                  getattr(fast, op)(a, b))

    def test_sqrt_full_precision(self):
        ctx = FPContext({"lcp": 3})
        with ctx.in_phase("lcp"):
            assert ctx.sqrt(arr(2.0))[0] == np.float32(np.sqrt(2.0))

    def test_div_full_precision(self):
        ctx = FPContext({"lcp": 3})
        with ctx.in_phase("lcp"):
            assert ctx.div(arr(1.0), arr(3.0))[0] == np.float32(1.0 / 3.0)


def operands(kind):
    rng = np.random.default_rng(17)
    if kind == "scalar":
        return 1.3, np.float32(-2.1)
    if kind == "0-d":
        return np.array(1.3, np.float32), np.array(-2.1, np.float32)
    if kind == "broadcast":
        return (rng.standard_normal((4, 1)).astype(np.float32),
                rng.standard_normal(3).astype(np.float32))
    return tuple(np.asfortranarray(rng.standard_normal((3, 4)),
                                   dtype=np.float32) for _ in range(2))


class TestOperandShapes:
    """Both kernels and the context's ops give the broadcast shape (0-d
    stays 0-d) and the reference bits, whatever the operands' layout."""

    @pytest.mark.parametrize("census", [False, True],
                             ids=["census-free", "census"])
    @pytest.mark.parametrize("precision", [9, FULL_PRECISION])
    @pytest.mark.parametrize("kind", ["scalar", "0-d", "broadcast",
                                      "fortran"])
    def test_shapes_and_bits(self, kind, precision, census):
        a, b = operands(kind)
        shape = np.broadcast_shapes(np.shape(a), np.shape(b))
        ctx = FPContext({"lcp": precision}, census=census)
        mode = ctx.mode
        with ctx.in_phase("lcp"):
            kern = ctx.kernel()
            assert isinstance(kern, CensusKernel if census
                              else ReducedKernel)
            for name, ufunc in UFUNCS.items():
                if census:
                    want = ORACLES[name](a, b, precision, mode)[0]
                else:
                    want = reduce_array(
                        ufunc(reduce_array(a, precision, mode),
                              reduce_array(b, precision, mode)),
                        precision, mode)
                for got in (getattr(ctx, name)(a, b),
                            kern.apply(ufunc, a, b),
                            kern.binop(ufunc, kern.enter(a),
                                       kern.enter(b))):
                    assert np.shape(got) == shape, name
                    assert bits(got) == bits(want), name
            want = reduced_div(a, b)[0]
            for got in (ctx.div(a, b), kern.div(a, b)):
                assert np.shape(got) == shape
                assert bits(got) == bits(want)


class _Recorder:
    """Fault injector stand-in: records what it is handed."""

    def __init__(self):
        self.seen = []

    def corrupt(self, phase, op, result, precision):
        self.seen.append((phase, op, precision))
        return result


class TestKernelCache:
    """``kernel()`` hands back kernels it holds, keyed by everything a
    census-free kernel is built from."""

    def test_same_kernel_per_precision(self):
        ctx = FPContext({"lcp": 9, "narrow": 9}, census=False)
        with ctx.in_phase("lcp"):
            kern = ctx.kernel()
            assert ctx.kernel() is kern
        with ctx.in_phase("narrow"):
            assert ctx.kernel() is kern
        assert ctx.kernel().precision == FULL_PRECISION

    def test_precision_change_takes_effect(self):
        ctx = FPContext({"lcp": 9}, census=False)
        ctx.phase = "lcp"
        ctx.kernel()
        ctx.set_precision("lcp", 4)
        assert ctx.kernel().precision == 4
        ctx.phase_precision["lcp"] = 6
        assert ctx.kernel().precision == 6

    def test_mode_and_guard_bits_changes_take_effect(self):
        ctx = FPContext({"lcp": 9}, census=False)
        ctx.phase = "lcp"
        kern = ctx.kernel()
        ctx.mode = "trunc"
        assert ctx.mode is RoundingMode.TRUNCATION
        assert ctx.kernel().mode is RoundingMode.TRUNCATION
        ctx.jam_guard_bits = 1
        assert ctx.kernel().guard_bits == 1
        assert ctx.kernel() is not kern

    def test_injector_install_and_removal_take_effect(self):
        ctx = FPContext({"lcp": 9}, census=False)
        ctx.phase = "lcp"
        ctx.add(arr(1.0), arr(2.0))
        ctx.injector = recorder = _Recorder()
        ctx.add(arr(1.0), arr(2.0))
        ctx.kernel().binop(np.multiply, arr(1.0), arr(2.0))
        assert recorder.seen == [("lcp", "add", 9), ("lcp", "mul", 9)]
        ctx.injector = None
        ctx.add(arr(1.0), arr(2.0))
        assert len(recorder.seen) == 2


class TestCensus:
    def test_counts_accumulate_per_phase(self):
        ctx = FPContext()
        with ctx.in_phase("lcp"):
            ctx.add(arr(1.0, 2.0), arr(3.0, 4.0))
            ctx.mul(arr(1.0), arr(3.0))
        with ctx.in_phase("narrow"):
            ctx.add(arr(1.0), arr(3.0))
        assert ctx.counter("lcp", "add").total == 2
        assert ctx.counter("lcp", "mul").total == 1
        assert ctx.counter("narrow", "add").total == 1

    def test_trivial_counted(self):
        ctx = FPContext()
        with ctx.in_phase("lcp"):
            ctx.mul(arr(1.0, 3.3), arr(5.0, 2.2))
        counter = ctx.counter("lcp", "mul")
        assert counter.conventional_trivial == 1
        assert counter.total == 2

    def test_sqrt_counted_as_div(self):
        ctx = FPContext()
        with ctx.in_phase("lcp"):
            ctx.sqrt(arr(4.0, 9.0))
        assert ctx.counter("lcp", "div").total == 2

    def test_phase_totals_merge(self):
        ctx = FPContext()
        with ctx.in_phase("lcp"):
            ctx.add(arr(1.0), arr(2.0))
            ctx.mul(arr(1.0), arr(2.0))
        assert ctx.phase_totals("lcp").total == 2

    def test_reset(self):
        ctx = FPContext()
        ctx.add(arr(1.0), arr(2.0))
        ctx.reset_stats()
        assert ctx.stats == {}

    def test_census_off_keeps_no_stats(self):
        ctx = FPContext(census=False)
        ctx.add(arr(1.0), arr(2.0))
        assert ctx.stats == {}


class TestMemoIntegration:
    def test_memo_streams_nontrivial_ops(self):
        ctx = FPContext({"lcp": 8}, memo=MemoBank())
        with ctx.in_phase("lcp"):
            ctx.add(arr(1.37, 1.37), arr(2.21, 2.21))
        counter = ctx.counter("lcp", "add")
        assert counter.memo_lookups == 2
        assert counter.memo_hits == 1  # identical pair repeats

    def test_trivial_filtered_from_memo(self):
        ctx = FPContext({"lcp": 8}, memo=MemoBank())
        with ctx.in_phase("lcp"):
            ctx.add(arr(0.0), arr(2.21))
        assert ctx.counter("lcp", "add").memo_lookups == 0

    def test_memo_budget_caps_probes(self):
        ctx = FPContext({"lcp": 8}, memo=MemoBank(), memo_budget=3)
        with ctx.in_phase("lcp"):
            ctx.add(arr(*np.linspace(1.01, 1.9, 10)),
                    arr(*np.linspace(2.01, 2.9, 10)))
        assert ctx.counter("lcp", "add").memo_lookups == 3

    def test_div_not_memoized(self):
        ctx = FPContext({"lcp": 8}, memo=MemoBank())
        with ctx.in_phase("lcp"):
            ctx.div(arr(1.3), arr(2.7))
        assert ctx.counter("lcp", "div").memo_lookups == 0


class TestCounterRegistration:
    def test_counter_registers_unseen_keys(self):
        # Regression: counter() used to hand back a detached OpCounter
        # for keys with no recorded ops, so mutations silently vanished.
        ctx = FPContext({"lcp": 8})
        counter = ctx.counter("lcp", "add")
        counter.total += 7
        assert ctx.counter("lcp", "add").total == 7
        assert ctx.stats[("lcp", "add")] is counter
        assert ctx.phase_totals("lcp").total == 7

    def test_counter_returns_existing_instance(self):
        ctx = FPContext({"lcp": 8})
        with ctx.in_phase("lcp"):
            ctx.add(arr(1.5), arr(2.5))
        before = ctx.counter("lcp", "add").total
        assert before > 0
        assert ctx.counter("lcp", "add") is ctx.stats[("lcp", "add")]
