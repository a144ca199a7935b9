"""Unit + property tests for mantissa precision reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp.bits import (
    MANTISSA_BITS,
    float_to_bits,
    mantissa_field,
    to_float32,
)
from repro.fp.rounding import (
    FULL_PRECISION,
    ReducedKernel,
    RoundingMode,
    reduce_array,
    reduce_bits,
    reduce_scalar,
)

MODES = list(RoundingMode)

finite_floats = st.floats(
    min_value=-(2.0 ** 100), max_value=2.0 ** 100, allow_nan=False,
    allow_infinity=False, width=32,
).filter(lambda x: x == 0.0 or abs(x) > 1e-30)

precisions = st.integers(min_value=0, max_value=MANTISSA_BITS)


class TestModeParsing:
    @pytest.mark.parametrize("alias,expected", [
        ("rn", RoundingMode.NEAREST),
        ("round-to-nearest", RoundingMode.NEAREST),
        ("JAM", RoundingMode.JAMMING),
        ("truncation", RoundingMode.TRUNCATION),
        ("round-to-zero", RoundingMode.TRUNCATION),
    ])
    def test_aliases(self, alias, expected):
        assert RoundingMode.parse(alias) is expected

    def test_identity(self):
        assert RoundingMode.parse(RoundingMode.JAMMING) is \
            RoundingMode.JAMMING

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            RoundingMode.parse("bananas")


class TestKnownValues:
    def test_truncate_five_bits(self):
        # 1.2345678 -> mantissa 00111100..., keep 5 bits -> 1.21875
        assert reduce_scalar(1.2345678, 5, RoundingMode.TRUNCATION) == \
            1.21875

    def test_nearest_five_bits(self):
        assert reduce_scalar(1.2345678, 5, RoundingMode.NEAREST) == 1.25

    def test_jam_sets_lsb(self):
        # 1.0 + 2^-7 has a zero kept LSB but a one in the guard window
        # (three bits immediately below the LSB) at 5-bit precision.
        value = to_float32(1.0 + 2.0 ** -7)
        jammed = reduce_scalar(value, 5, RoundingMode.JAMMING)
        assert jammed == 1.0 + 2.0 ** -5

    def test_jam_only_inspects_three_guards(self):
        # A one *below* the guard window is dropped entirely.
        value = to_float32(1.0 + 2.0 ** -10)
        assert reduce_scalar(value, 5, RoundingMode.JAMMING) == 1.0

    def test_jam_keeps_set_lsb(self):
        value = 1.0 + 2.0 ** -5  # LSB already one, no guards
        assert reduce_scalar(value, 5, RoundingMode.JAMMING) == value

    def test_nearest_carries_into_exponent(self):
        # 1.1111111... rounds up to 2.0
        value = to_float32(2.0 - 2.0 ** -12)
        assert reduce_scalar(value, 4, RoundingMode.NEAREST) == 2.0


class TestSpecialValues:
    @pytest.mark.parametrize("mode", MODES)
    def test_zero_unchanged(self, mode):
        assert reduce_scalar(0.0, 3, mode) == 0.0

    @pytest.mark.parametrize("mode", MODES)
    def test_negative_zero_unchanged(self, mode):
        result = reduce_scalar(-0.0, 3, mode)
        assert result == 0.0 and math.copysign(1, result) == -1

    @pytest.mark.parametrize("mode", MODES)
    def test_infinity_unchanged(self, mode):
        assert reduce_scalar(math.inf, 3, mode) == math.inf

    @pytest.mark.parametrize("mode", MODES)
    def test_nan_stays_nan(self, mode):
        assert math.isnan(reduce_scalar(math.nan, 3, mode))

    @pytest.mark.parametrize("mode", MODES)
    def test_denormal_unchanged(self, mode):
        tiny = 1e-40  # denormal in binary32
        assert reduce_scalar(tiny, 3, mode) == to_float32(tiny)

    def test_precision_out_of_range(self):
        with pytest.raises(ValueError):
            reduce_bits(0, 24, RoundingMode.JAMMING)
        with pytest.raises(ValueError):
            reduce_bits(0, -1, RoundingMode.JAMMING)


class TestProperties:
    @given(finite_floats, precisions, st.sampled_from(MODES))
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, value, precision, mode):
        once = reduce_scalar(value, precision, mode)
        assert reduce_scalar(once, precision, mode) == once

    @given(finite_floats, precisions, st.sampled_from(MODES))
    @settings(max_examples=300, deadline=None)
    def test_mantissa_bits_cleared(self, value, precision, mode):
        reduced = reduce_scalar(value, precision, mode)
        bits = float_to_bits(reduced)
        if math.isfinite(reduced) and abs(reduced) > 1e-30:
            drop = MANTISSA_BITS - precision
            assert mantissa_field(bits) & ((1 << drop) - 1) == 0

    @given(finite_floats, precisions)
    @settings(max_examples=300, deadline=None)
    def test_truncation_shrinks_magnitude(self, value, precision):
        reduced = reduce_scalar(value, precision, RoundingMode.TRUNCATION)
        assert abs(reduced) <= abs(to_float32(value))

    @given(finite_floats, precisions)
    @settings(max_examples=300, deadline=None)
    def test_jamming_never_below_truncation(self, value, precision):
        jam = reduce_scalar(value, precision, RoundingMode.JAMMING)
        trunc = reduce_scalar(value, precision, RoundingMode.TRUNCATION)
        assert abs(jam) >= abs(trunc)

    @given(finite_floats, st.integers(min_value=1, max_value=22),
           st.sampled_from(MODES))
    @settings(max_examples=300, deadline=None)
    def test_relative_error_bounded(self, value, precision, mode):
        if value == 0:
            return
        reduced = reduce_scalar(value, precision, mode)
        if not math.isfinite(reduced):
            return  # nearest may round up to inf near the top of range
        # Error at most ~2 ulps at the reduced precision.
        assert abs(reduced - to_float32(value)) <= \
            2.0 * abs(value) * 2.0 ** -precision

    @given(finite_floats, st.integers(min_value=1, max_value=22))
    @settings(max_examples=200, deadline=None)
    def test_full_precision_is_identity(self, value, precision):
        assert reduce_scalar(value, FULL_PRECISION,
                             RoundingMode.JAMMING) == to_float32(value)

    @given(finite_floats, precisions, st.sampled_from(MODES))
    @settings(max_examples=200, deadline=None)
    def test_sign_preserved(self, value, precision, mode):
        reduced = reduce_scalar(value, precision, mode)
        if reduced != 0:
            assert math.copysign(1, reduced) == math.copysign(1, value)

    @given(st.lists(finite_floats, min_size=1, max_size=40),
           precisions, st.sampled_from(MODES))
    @settings(max_examples=150, deadline=None)
    def test_array_matches_scalar(self, values, precision, mode):
        arr = np.array(values, dtype=np.float32)
        vec = reduce_array(arr, precision, mode)
        for x, y in zip(arr, vec):
            assert reduce_scalar(float(x), precision, mode) == float(y)

    @given(st.lists(finite_floats, min_size=1, max_size=40),
           st.integers(min_value=0, max_value=22),
           st.sampled_from(MODES))
    @settings(max_examples=150, deadline=None)
    def test_fast_path_matches_exact_for_normals(self, values, precision,
                                                 mode):
        arr = np.array(values, dtype=np.float32)
        # The op kernels' unguarded in-place rounding deviates only on
        # denormals/NaN payloads; strip them.
        normal = (np.abs(arr) > 1.2e-38) | (arr == 0.0)
        arr = arr[normal]
        if len(arr) == 0:
            return
        exact = reduce_array(arr, precision, mode)
        fast = ReducedKernel(precision, mode).enter(arr)
        assert np.array_equal(exact.view(np.uint32), fast.view(np.uint32))


class TestJammingGuardWidths:
    """The op kernels' in-place jamming equals :func:`reduce_array` at
    every guard width the ablation sweeps, not only the paper's 3."""

    @staticmethod
    def _words(precision: int, guard_bits: int) -> np.ndarray:
        """Normal words with every combination of the kept LSB, the
        guard field and the sticky bits below it (none, lowest, highest,
        all), over a few signs, exponents and upper mantissas; then
        random normal words."""
        drop = MANTISSA_BITS - precision
        width = min(guard_bits, drop)
        sticky_width = drop - width
        sticky = {0, (1 << sticky_width) - 1}
        if sticky_width:
            sticky |= {1, 1 << (sticky_width - 1)}
        low = np.array([(lsb << drop) | (guards << sticky_width) | rest
                        for lsb in (0, 1)
                        for guards in range(1 << width)
                        for rest in sorted(sticky)], dtype=np.uint32)
        bases = np.array([0x3F800000, 0xBF800000, 0x00800000, 0x7F000000,
                          0x42FFFFFF & ~((2 << drop) - 1) & 0xFFFFFFFF],
                         dtype=np.uint32)
        patterned = (bases[:, None] | low[None, :]).reshape(-1)
        rng = np.random.default_rng(precision * 8 + guard_bits)
        random = rng.integers(0, 2 ** 32, 4000, dtype=np.uint64).astype(
            np.uint32)
        exponent = (random >> np.uint32(23)) & np.uint32(0xFF)
        random = random[(exponent != 0) & (exponent != 0xFF)]
        return np.concatenate([patterned, random])

    @pytest.mark.parametrize("guard_bits", [0, 1, 2, 3, 4, 6])
    def test_kernel_enter_matches_reduce_array(self, guard_bits):
        for precision in range(MANTISSA_BITS):
            values = self._words(precision, guard_bits).view(np.float32)
            exact = reduce_array(values, precision, RoundingMode.JAMMING,
                                 guard_bits=guard_bits)
            fast = ReducedKernel(precision, "jam",
                                 guard_bits=guard_bits).enter(values)
            mismatch = exact.view(np.uint32) != fast.view(np.uint32)
            assert not mismatch.any(), (
                precision, values.view(np.uint32)[mismatch][:4])


class TestBiasDirection:
    """The paper picks jamming for its zero-mean error (Section 4.1.1)."""

    def test_truncation_negative_bias(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.5, 2.0, 4000).astype(np.float32)
        reduced = reduce_array(values, 8, RoundingMode.TRUNCATION)
        assert (reduced - values).mean() < -1e-5

    def test_jamming_mean_near_zero(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.5, 2.0, 4000).astype(np.float32)
        trunc_bias = abs(
            (reduce_array(values, 8, RoundingMode.TRUNCATION)
             - values).mean())
        jam_bias = abs(
            (reduce_array(values, 8, RoundingMode.JAMMING)
             - values).mean())
        assert jam_bias < trunc_bias / 3

    def test_nearest_mean_near_zero(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0.5, 2.0, 4000).astype(np.float32)
        trunc_bias = abs(
            (reduce_array(values, 8, RoundingMode.TRUNCATION)
             - values).mean())
        rn_bias = abs(
            (reduce_array(values, 8, RoundingMode.NEAREST)
             - values).mean())
        assert rn_bias < trunc_bias / 3
