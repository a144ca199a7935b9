"""Mantissa precision reduction with the paper's three rounding modes.

Section 4.1.1 evaluates three ways of removing low-order mantissa bits:

* **round-to-nearest** — IEEE style, best accuracy, but costly to apply to
  both operands before execution;
* **jamming** (Burks/Goldstine/von Neumann; Fang et al.) — the kept LSB is
  ORed with the three guard bits immediately below it; zero-mean error with
  trivially cheap logic;
* **truncation** (round-to-zero) — cheapest, but negatively biased, which the
  paper shows inflates the precision requirement.

"Denormal handling remains unchanged": denormals, infinities and NaNs pass
through unmodified.  Reduction keeps ``precision`` mantissa bits,
``0 <= precision <= 23``; 23 keeps the full binary32 significand.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from typing import Optional, Union

import numpy as np

from .bits import (
    EXPONENT_MASK,
    MANTISSA_BITS,
    SIGN_MASK,
    array_to_bits,
    bits_to_array,
    bits_to_float,
    float_to_bits,
)

__all__ = [
    "RoundingMode",
    "FULL_PRECISION",
    "DEFAULT_GUARD_BITS",
    "reduce_bits",
    "reduce_scalar",
    "reduce_array",
    "ReducedKernel",
]

#: Mantissa width at which reduction is the identity.
FULL_PRECISION = MANTISSA_BITS


class RoundingMode(enum.Enum):
    """Rounding mode used when dropping mantissa bits."""

    NEAREST = "rn"
    JAMMING = "jam"
    TRUNCATION = "trunc"

    @classmethod
    def parse(cls, value: Union[str, "RoundingMode"]) -> "RoundingMode":
        """Accept a mode instance or one of its string aliases."""
        if isinstance(value, cls):
            return value
        aliases = {
            "rn": cls.NEAREST,
            "nearest": cls.NEAREST,
            "round-to-nearest": cls.NEAREST,
            "jam": cls.JAMMING,
            "jamming": cls.JAMMING,
            "trunc": cls.TRUNCATION,
            "truncation": cls.TRUNCATION,
            "round-to-zero": cls.TRUNCATION,
        }
        try:
            return aliases[str(value).lower()]
        except KeyError:
            raise ValueError(f"unknown rounding mode: {value!r}") from None


def _check_precision(precision: int) -> None:
    if not 0 <= precision <= MANTISSA_BITS:
        raise ValueError(
            f"precision must be in [0, {MANTISSA_BITS}], got {precision}"
        )


#: The paper's jamming inspects the three guard bits below the kept LSB.
DEFAULT_GUARD_BITS = 3


def reduce_bits(bits: int, precision: int, mode: RoundingMode,
                guard_bits: int = DEFAULT_GUARD_BITS) -> int:
    """Reduce the binary32 encoding ``bits`` to ``precision`` mantissa bits.

    Non-finite values and denormals are returned unchanged.  Round-to-nearest
    uses ties-to-even and may carry into the exponent (saturating to
    infinity, as hardware would).  ``guard_bits`` widens/narrows the OR
    window jamming inspects (an ablation knob; the paper uses 3).
    """
    _check_precision(precision)
    if precision == MANTISSA_BITS:
        return bits
    exp_field = bits & EXPONENT_MASK
    if exp_field == EXPONENT_MASK or exp_field == 0:
        return bits  # inf / NaN / zero / denormal untouched
    drop = MANTISSA_BITS - precision
    drop_mask = (1 << drop) - 1
    if mode is RoundingMode.TRUNCATION:
        return bits & ~drop_mask
    if mode is RoundingMode.NEAREST:
        half_minus_1 = (1 << (drop - 1)) - 1
        lsb = (bits >> drop) & 1
        return (bits + lsb + half_minus_1) & ~drop_mask & 0xFFFFFFFF
    if mode is RoundingMode.JAMMING:
        if drop >= MANTISSA_BITS:
            # No mantissa LSB remains to jam into; degrade to truncation.
            return bits & ~drop_mask
        guard_width = min(guard_bits, drop)
        kept = bits & ~drop_mask
        if guard_width <= 0:
            return kept
        guards = (bits >> (drop - guard_width)) & ((1 << guard_width) - 1)
        return kept | (1 << drop) if guards else kept
    raise ValueError(f"unknown rounding mode: {mode!r}")


def reduce_scalar(value: float, precision: int, mode: RoundingMode,
                  guard_bits: int = DEFAULT_GUARD_BITS) -> float:
    """Reduce a Python float (via binary32) to ``precision`` mantissa bits."""
    return bits_to_float(
        reduce_bits(float_to_bits(value), precision, mode, guard_bits))


def reduce_array(
    values: np.ndarray, precision: int, mode: RoundingMode,
    guard_bits: int = DEFAULT_GUARD_BITS,
) -> np.ndarray:
    """Vectorized :func:`reduce_scalar` over a float array.

    Returns a new ``float32`` array of the same shape.
    """
    _check_precision(precision)
    arr = np.asarray(values, dtype=np.float32)
    if precision == MANTISSA_BITS:
        return arr
    bits = array_to_bits(arr).copy()
    exp_field = bits & np.uint32(EXPONENT_MASK)
    normal = (exp_field != np.uint32(EXPONENT_MASK)) & (exp_field != 0)

    keep_mask, lsb_shift, lsb_bit, guard_shift, guard_mask, half_minus_1 = \
        _round_params(precision, mode, guard_bits)[:6]
    if mode is RoundingMode.TRUNCATION:
        rounded = bits & keep_mask
    elif mode is RoundingMode.NEAREST:
        lsb = (bits >> lsb_shift) & np.uint32(1)
        rounded = (bits + lsb + half_minus_1) & keep_mask
    elif mode is RoundingMode.JAMMING:
        if not lsb_bit:
            rounded = bits & keep_mask  # nothing to jam; truncate
        else:
            guards = (bits >> guard_shift) & guard_mask
            rounded = np.where(guards != 0, (bits & keep_mask) | lsb_bit,
                               bits & keep_mask)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown rounding mode: {mode!r}")

    out = np.where(normal, rounded, bits)
    result = bits_to_array(out.astype(np.uint32))
    return result.reshape(arr.shape)


# ----------------------------------------------------------------------
# In-place uint32 rounding, shared by every reduced op.
#
# The op kernels below and the census kernel round whole arrays with
# wrapping uint32 arithmetic, reusing one parameter tuple per
# ``(precision, mode, guard_bits)`` and writing in place.
# ----------------------------------------------------------------------
_ROUND_PARAMS = {}


def _constant(value) -> np.ndarray:
    """A read-only 0-d uint32 array.  As a ufunc operand it dispatches
    faster than a numpy scalar, which most reduced ops' small arrays
    feel: each rounding pass is mostly dispatch."""
    arr = np.array(value, dtype=np.uint32)
    arr.flags.writeable = False
    return arr


_ONE = _constant(1)


def _round_params(precision: int, mode: RoundingMode, guard_bits: int):
    key = (precision, mode, guard_bits)
    params = _ROUND_PARAMS.get(key)
    if params is None:
        drop = MANTISSA_BITS - precision
        keep_mask = np.uint32(~((1 << drop) - 1) & 0xFFFFFFFF)
        lsb_shift = np.uint32(drop)
        lsb_bit = np.uint32(1 << drop) if drop < MANTISSA_BITS else np.uint32(
            0)
        guard_width = max(min(guard_bits, drop), 0)
        if guard_width == 0:
            lsb_bit = np.uint32(0)  # nothing to jam; behaves as truncation
        guard_shift = np.uint32(drop - guard_width)
        guard_mask = np.uint32((1 << guard_width) - 1)
        half_minus_1 = np.uint32((1 << (drop - 1)) - 1) if drop else np.uint32(
            0)
        # Derived constants for the in-place rounding: the guard test
        # without the shift, and the carry trick turning "any guard bit
        # set" into the kept-LSB jam bit in pure integer arithmetic.
        guard_test = np.uint32(int(guard_mask) << int(guard_shift))
        jam_carry = np.uint32(int(lsb_bit) - 1) if lsb_bit else np.uint32(0)
        params = tuple(_constant(c) for c in (
            keep_mask, lsb_shift, lsb_bit, guard_shift, guard_mask,
            half_minus_1, guard_test, jam_carry))
        _ROUND_PARAMS[key] = params
    return params


def _reduce_bits_inplace(bits: np.ndarray, mode: RoundingMode,
                         params, scratch: Optional[np.ndarray] = None
                         ) -> None:
    """Mantissa-reduce a uint32 bit array in place.

    Identical to :func:`reduce_array` for normal numbers, zeros and
    infinities.  There is no special-value guard: denormals are rounded
    like tiny normals instead of passing through, and NaN payloads may
    change.  At precisions 1-23 the quiet bit is kept, so the NaNs that
    arithmetic makes (quiet bit, no other payload) stay NaNs in every
    mode; at precision 0 no mantissa bit is kept, so
    :class:`ReducedKernel` rounds with :func:`_reduce_bits_keep_nan`.

    ``scratch``, a uint32 array shaped like ``bits``, receives the one
    temporary the nearest and jamming modes need; without it that
    temporary is allocated.
    """
    keep_mask = params[0]
    if mode is RoundingMode.TRUNCATION:
        np.bitwise_and(bits, keep_mask, out=bits)
    elif mode is RoundingMode.NEAREST:
        half_minus_1 = params[5]
        tmp = np.right_shift(bits, params[1], out=scratch)
        np.bitwise_and(tmp, _ONE, out=tmp)
        np.add(tmp, half_minus_1, out=tmp)
        np.add(bits, tmp, out=bits)
        np.bitwise_and(bits, keep_mask, out=bits)
    else:  # JAMMING
        if params[2]:
            # (bits | (guards + (lsb_bit - 1))) & keep_mask: the guard
            # field lies strictly below lsb_bit, so the add carries into
            # the lsb position exactly when a guard bit is set, and it
            # sets no bit above it; the mask clears what it set below.
            guards = np.bitwise_and(bits, params[6], out=scratch)
            np.add(guards, params[7], out=guards)
            np.bitwise_or(bits, guards, out=bits)
            np.bitwise_and(bits, keep_mask, out=bits)
        else:
            np.bitwise_and(bits, keep_mask, out=bits)


_MAGNITUDE = np.uint32(~SIGN_MASK & 0xFFFFFFFF)
_INFINITY = np.uint32(EXPONENT_MASK)


def _reduce_bits_keep_nan(bits: np.ndarray, mode: RoundingMode,
                          params, scratch: Optional[np.ndarray] = None
                          ) -> None:
    """:func:`_reduce_bits_inplace` for precision 0, where dropping
    every mantissa bit would turn a NaN into an infinity (or carry it
    into a zero when rounding to nearest): NaN lanes keep their bits,
    as in :func:`reduce_array`."""
    nan = np.bitwise_and(bits, _MAGNITUDE) > _INFINITY
    kept = bits[nan]
    _reduce_bits_inplace(bits, mode, params, scratch)
    bits[nan] = kept


_OP_NAMES = {np.add: "add", np.subtract: "sub", np.multiply: "mul"}


class ReducedKernel:
    """Census-free op kernel: the paper's Table 1 error model.

    Every reduced op computes ``round(round(a) op round(b))``.
    :meth:`apply` takes operands of any origin and rounds copies of both
    on every call (at full precision it rounds nothing); the
    :class:`~repro.fp.FPContext`'s ``add``/``sub``/``mul`` run through
    it.  The engine's passes (every module of :mod:`repro.physics`) use
    the rest of the interface: all three rounding modes are idempotent
    (``round(round(x)) == round(x)``), so a pass enters each input once
    (:meth:`enter`) and chains :meth:`binop` on kernel results, rounding
    only each new result, with the same bits at a fraction of the ufunc
    dispatch.  Such a pass is responsible for the invariant: every
    operand passed to :meth:`binop` / :meth:`binop_at` /
    :meth:`add_waves` must have come from :meth:`enter` or from a
    previous result of this kernel (a sign flip or ``abs`` of one
    included).  Another phase's results, :meth:`div`/:meth:`sqrt`
    results and inexact constants must be entered.
    ``tests/test_kernel_operands.py`` checks the invariant on every
    engine pass.

    The census-taking :class:`~repro.fp.census.CensusKernel` offers the
    same methods.  ``deliver``, when given, receives every op result as
    ``deliver(op, result)`` (the context's fault-injection hook, which
    corrupts a contiguous float32 result in place).
    """

    #: Ops are not counted: work whose values nothing reads may be skipped.
    counts = False

    __slots__ = ("precision", "mode", "guard_bits", "full", "_params",
                 "_reduce", "_deliver")

    def __init__(self, precision: int, mode: RoundingMode,
                 guard_bits: int = DEFAULT_GUARD_BITS,
                 deliver=None) -> None:
        _check_precision(precision)
        self.precision = precision
        self.mode = RoundingMode.parse(mode)
        self.guard_bits = guard_bits
        self.full = precision == MANTISSA_BITS
        self._params = None if self.full else _round_params(
            precision, self.mode, guard_bits)
        self._reduce = (_reduce_bits_keep_nan if precision == 0
                        else _reduce_bits_inplace)
        self._deliver = deliver

    def _round(self, arr: np.ndarray) -> np.ndarray:
        """Mantissa-reduce a contiguous float32 array in place."""
        if not self.full:
            self._reduce(arr.reshape(-1).view(np.uint32), self.mode,
                         self._params)
        return arr

    def enter(self, values) -> np.ndarray:
        """Reduced, contiguous float32 copy of ``values``."""
        return self._round(np.array(values, dtype=np.float32, order="C"))

    def apply(self, ufunc, a, b) -> np.ndarray:
        """``round(round(a) ufunc round(b))`` (add, subtract or multiply)
        for operands of any origin; the inputs are never mutated."""
        if self.full:
            out = ufunc(np.asarray(a, dtype=np.float32),
                        np.asarray(b, dtype=np.float32))
        else:
            ra, rb = self.enter(a), self.enter(b)
            # Into ``ra`` when it can hold the result: no allocation, and
            # 0-d operands give a 0-d array, not a scalar.
            out = self._round(ufunc(ra, rb, out=ra) if ra.shape == rb.shape
                              else ufunc(ra, rb))
        if self._deliver is not None:
            out = self._deliver(_OP_NAMES[ufunc], out)
        return out

    def binop(self, ufunc, a, b) -> np.ndarray:
        """``round(a ufunc b)`` (add, subtract or multiply) for
        already-reduced operands."""
        # asarray, not ascontiguousarray, which would make a 0-d result 1-d
        out = self._round(np.asarray(ufunc(a, b), order="C"))
        if self._deliver is not None:
            out = self._deliver(_OP_NAMES[ufunc], out)
        return out

    def binop_at(self, ufunc, a, b, out: np.ndarray) -> np.ndarray:
        """Like :meth:`binop` but into a preallocated contiguous buffer."""
        ufunc(a, b, out=out)
        if not self.full:
            self._reduce(out.reshape(-1).view(np.uint32), self.mode,
                         self._params)
        if self._deliver is not None:
            self._deliver(_OP_NAMES[ufunc], out)  # corrupts in place
        return out

    def add_waves(self, waves) -> None:
        """In-place ``acc += inc`` for each ``(acc, bits, inc, scratch)``
        wave, in order.

        ``bits`` is the uint32 view of the contiguous ``acc`` and
        ``scratch`` a uint32 buffer shaped like it for the rounding's
        temporary, so a hot loop builds its views once.
        """
        for acc, bits, inc, scratch in waves:
            np.add(acc, inc, out=acc)
            if not self.full:
                self._reduce(bits, self.mode, self._params, scratch)
            if self._deliver is not None:
                self._deliver("add", acc)

    def div(self, a, b) -> np.ndarray:
        """Full-precision divide (divides are never reduced)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            result = np.divide(np.asarray(a, dtype=np.float32),
                               np.asarray(b, dtype=np.float32))
        if self._deliver is not None:
            result = self._deliver("div", result)
        return result

    def sqrt(self, a) -> np.ndarray:
        """Full-precision square root."""
        with np.errstate(invalid="ignore"):
            return np.sqrt(np.asarray(a, dtype=np.float32))

    @contextmanager
    def record(self):
        """Nothing to record: only the census kernel counts ops."""
        yield ()

    def replay(self, charges) -> None:
        """Nothing to count again."""
