"""The census kernel: the bypass arithmetic, taking the census.

:class:`CensusKernel` offers the methods of
:class:`~repro.fp.rounding.ReducedKernel` -- ``apply``, ``enter``,
``binop``, ``binop_at``, the wave adds, ``div`` and ``sqrt`` -- with the
semantics of :mod:`repro.fp.ops` (which stays the readable definition
and the test oracle): round both operands (denormals, NaN and Inf pass
through), classify the lanes (:mod:`repro.fp.trivial`), compute, round
the result, and let the trivial lanes bypass the FPU with the surviving
operand at full precision.  Bypass lanes carry unreduced values, so
:meth:`CensusKernel.enter` returns raw values and every op rounds its
operands itself: ``binop`` and ``apply`` are one method.

Counts go to the context's :class:`~repro.fp.context.OpCounter` for the
active ``(phase, op)``; the reduced encodings of non-trivial operand
pairs are queued, in op order and within the memo budget, for the
context's next :meth:`~repro.fp.context.FPContext.flush`.

An op runs as a few whole-array passes over both operands stacked in
one buffer: one in-place uint32 rounding, and masks built from shared
magnitude and exponent fields.  That shortcut assumes every nonzero
operand is a normal number far enough from both ends of the exponent
range that neither the rounding nor the op can produce a denormal or
an infinity; an op with any operand outside that window (denormals,
NaN, Inf, extreme magnitudes) runs :mod:`repro.fp.ops` instead.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from .ops import reduced_add, reduced_div, reduced_mul, reduced_sub
from .rounding import (DEFAULT_GUARD_BITS, FULL_PRECISION,
                       _reduce_bits_inplace, _round_params)

__all__ = ["CensusKernel"]

_ABS = np.uint32(0x7FFFFFFF)
_MANTISSA = np.uint32(0x007FFFFF)
_ONE = np.uint32(0x3F800000)
_EXP_SHIFT = np.uint32(23)


def _window(lowest: int, highest: int):
    """Bounds on ``magnitude - 1`` (zero wraps to the top, and passes)
    and on ``magnitude`` for biased exponents ``lowest..highest``."""
    return np.uint32((lowest << 23) - 1), np.uint32((highest + 1) << 23)


#: Add/sub: operands at or above 2^-103 are multiples of 2^-126, so a
#: difference is zero or normal; at or below 2^126 a sum of rounded
#: operands stays finite through the result rounding.
_SUM_WINDOW = _window(24, 252)
#: Multiply: between 2^-63 and 2^62 a product of rounded operands is
#: normal and stays finite through the result rounding.
_PRODUCT_WINDOW = _window(64, 188)

_OPS = {np.add: "add", np.subtract: "sub", np.multiply: "mul"}
_ORACLE = {"add": reduced_add, "sub": reduced_sub, "mul": reduced_mul}


class CensusKernel:
    """Census-taking op kernel bound to one :class:`FPContext`.

    Ops read the context's active phase, precision and rounding mode
    when they run.  Rounding uses the paper's three jamming guard bits,
    as :mod:`repro.fp.ops` does.  A pass that hoists loop-invariant ops
    out of its loop computes them once under :meth:`record`, then
    replays their census (:meth:`replay`) in every later iteration,
    where the loop would have executed them.
    """

    #: Ops are counted, so work a pass could skip must still reach
    #: :meth:`discarded_adds`.
    counts = True

    __slots__ = ("ctx", "_log")

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self._log = None

    # ------------------------------------------------------------------
    # The fused-pass interface
    # ------------------------------------------------------------------
    def enter(self, values) -> np.ndarray:
        """Raw contiguous float32 copy: every op rounds its operands."""
        return np.array(values, dtype=np.float32, order="C")

    def binop(self, ufunc, a, b) -> np.ndarray:
        """``a ufunc b`` (add, subtract or multiply) with the census."""
        return self._op(_OPS[ufunc], a, b)

    #: Every op rounds its own operands, so raw ones need nothing more.
    apply = binop

    def binop_at(self, ufunc, a, b, out: np.ndarray) -> np.ndarray:
        """Like :meth:`binop` but into ``out`` (which may alias ``a``)."""
        out[...] = self._op(_OPS[ufunc], a, b)
        return out

    def add_waves(self, waves) -> None:
        """In-place ``acc += inc`` for each ``(acc, bits, inc, scratch)``
        wave, in order (``bits``/``scratch`` serve the reduced kernel)."""
        for acc, _bits, inc, _scratch in waves:
            acc[...] = self._op("add", acc, inc)

    def discarded_adds(self, start, source, index, sizes) -> None:
        """Adds whose sums nothing reads, counted in waves.

        Chain ``c`` starts at ``start[c]``; wave ``k`` adds the next
        increment to the first ``sizes[k]`` chains, the increments being
        ``source[index]`` in wave order.
        """
        acc = np.array(start, dtype=np.float32)
        incs = np.take(source, index, axis=0)
        pos = 0
        for size in sizes:
            acc[:size] = self._op("add", acc[:size], incs[pos:pos + size])
            pos += size

    def div(self, a, b) -> np.ndarray:
        """Full-precision divide, screened for trivial cases."""
        result, sample = reduced_div(a, b)
        self._charge("div", sample.total, sample.conventional_trivial,
                     sample.extended_trivial, None)
        return self.ctx._deliver("div", result)

    def sqrt(self, a) -> np.ndarray:
        """Full-precision square root, counted in the divide class."""
        arr = np.asarray(a, dtype=np.float32)
        self._charge("div", int(arr.size), 0, 0, None)
        with np.errstate(invalid="ignore"):
            return np.sqrt(arr)

    @contextmanager
    def record(self):
        """Collect the census of the ops run inside the block, for
        :meth:`replay`."""
        self._log = []
        try:
            yield self._log
        finally:
            self._log = None

    def replay(self, charges) -> None:
        """Count recorded ops again, as if they ran once more here: the
        same counts, and their memo operands queued again (within the
        budget)."""
        for charge in charges:
            self._charge(*charge)

    # ------------------------------------------------------------------
    # One counted op
    # ------------------------------------------------------------------
    def _op(self, op: str, a, b) -> np.ndarray:
        ctx = self.ctx
        a = np.asarray(a, dtype=np.float32)
        b = np.asarray(b, dtype=np.float32)
        shape = (a.shape if a.shape == b.shape
                 else np.broadcast_shapes(a.shape, b.shape))
        raw = np.empty((2,) + shape, dtype=np.float32)
        raw[0] = a
        if op == "sub":
            # raw[1, ...] is an array even when raw[1] is a 0-d scalar
            np.negative(b, out=raw[1, ...])
        else:
            raw[1] = b
        raw = raw.reshape(2, -1)
        precision = ctx.precision
        collect = ctx.memo is not None and (ctx.memo_budget is None
                                            or ctx.memo_budget > 0)

        rbits = raw.view(np.uint32)
        mag = np.bitwise_and(rbits, _ABS)
        low, high = _PRODUCT_WINDOW if op == "mul" else _SUM_WINDOW
        if (raw.shape[1] == 0 or mag.max() >= high
                or np.subtract(mag, np.uint32(1), out=mag).min() < low):
            result, sample = _ORACLE[op](a, b, precision, ctx.mode, collect)
            pairs = items = None
            if collect:
                pairs = np.stack(sample.nontrivial_operands)
                items = self._items(sample.nontrivial_lanes, shape)
            self._charge(op, sample.total, sample.conventional_trivial,
                         sample.extended_trivial, pairs, items)
            return ctx._deliver(op, result)

        bits = rbits.copy()
        params = None
        if precision != FULL_PRECISION:
            params = _round_params(precision, ctx.mode, DEFAULT_GUARD_BITS)
            _reduce_bits_inplace(bits.reshape(-1), ctx.mode, params)
        values = bits.view(np.float32)
        mag = np.bitwise_and(bits, _ABS)
        zero = mag == 0
        if op == "mul":
            one = mag == _ONE
            # Mantissa all zeros: zero or, every operand being normal, ±2^E.
            pow2 = np.bitwise_and(bits, _MANTISSA) == 0
            conventional = np.logical_or(zero, one)
            conventional = conventional[0] | conventional[1]
            extended = pow2[0] | pow2[1]
            result = np.multiply(values[0], values[1])
        else:
            exps = np.right_shift(mag, _EXP_SHIFT)
            conventional = zero[0] | zero[1]
            # |Ea - Eb| > precision + 1 as one unsigned compare: the
            # offset difference wraps to a huge value when Eb is larger.
            spread = np.subtract(exps[0], exps[1])
            spread += np.uint32(precision + 1)
            shifted = np.greater(spread, np.uint32(2 * precision + 2))
            np.greater(shifted, conventional, out=shifted)  # both nonzero
            extended = conventional | shifted
            result = np.add(values[0], values[1])
        if params is not None:
            _reduce_bits_inplace(result.view(np.uint32), ctx.mode, params)

        n_extended = int(np.count_nonzero(extended))
        if n_extended and op == "mul":
            # Zero lanes need no fix-up: zero times a finite normal is
            # already the correctly signed zero.  The other bypass lanes
            # keep one raw operand, scaled by the other's ±2^E; an exact
            # ±1 outranks a reduced ±2^E.
            zero_result = zero[0] | zero[1]
            use_a = np.greater(pow2[1], one[0])
            use_a |= one[1]
            np.greater(use_a, zero_result, out=use_a)
            use_b = np.greater(extended, zero_result)
            np.greater(use_b, use_a, out=use_b)
            np.multiply(raw[0], values[1], out=result, where=use_a)
            np.multiply(values[0], raw[1], out=result, where=use_b)
        elif n_extended:
            # The surviving operand, raw: the nonzero one, or the larger.
            use_a = shifted & (exps[0] > exps[1])
            use_a |= zero[1]
            np.copyto(result, raw[0], where=use_a)
            np.copyto(result, raw[1], where=np.greater(extended, use_a))
        pairs = items = None
        if collect:
            kept = ~extended
            pairs = bits[:, kept]
            if ctx.memo_items is not None:
                items = self._items(np.flatnonzero(kept), shape)
        self._charge(op, raw.shape[1], int(np.count_nonzero(conventional)),
                     n_extended, pairs, items)
        return ctx._deliver(op, result.reshape(shape))

    def _items(self, lanes, shape):
        """Memo items of result lanes: ``memo_items`` indexes the
        leading axis of the result."""
        owner = self.ctx.memo_items
        if owner is None:
            return None
        if not shape or shape[0] != len(owner):
            raise ValueError(f"memo_items of length {len(owner)} cannot "
                             f"index an op result of shape {shape}")
        return owner[lanes // max(int(np.prod(shape[1:])), 1)]

    def _charge(self, op, total, conventional, extended, pairs,
                items=None) -> None:
        ctx = self.ctx
        if self._log is not None:
            self._log.append((op, total, conventional, extended, pairs,
                              items))
        counter = ctx._counter(op)
        counter.total += total
        counter.conventional_trivial += conventional
        counter.extended_trivial += extended
        if pairs is None:
            return
        take = pairs.shape[1]
        if ctx.memo_budget is not None:
            take = min(take, ctx.memo_budget)
            ctx.memo_budget -= take
        if take:
            ctx._queue_probe(op, counter, pairs[:, :take],
                             None if items is None else items[:take])
