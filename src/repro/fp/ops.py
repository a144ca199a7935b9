"""Reduced-precision vector FP operations with trivial-operation bypass.

The paper's methodology (Section 3): "Precision reduction is modeled by
rounding both operands, executing the operation, and then rounding the
result."  Add, subtract and multiply are reduced; divide is not (Section
4.3.1), although divides are still screened for trivial cases.

Trivial elements bypass the normal path and keep **full precision** of the
surviving operand, exactly as the paper's hardware would ("Full precision
of the non-trivial operand can be used to minimize injected error").

Every operation returns the numeric result plus an :class:`OpSample`
carrying the trivialization census that the memoization tables, the
architectural model, and Table 4 consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .bits import array_to_bits
from .rounding import FULL_PRECISION, RoundingMode, reduce_array
from .trivial import (
    TrivialMasks,
    add_trivial_masks,
    div_trivial_masks,
    mul_trivial_masks,
)

__all__ = ["OpSample", "reduced_add", "reduced_sub", "reduced_mul",
           "reduced_div", "inject_bitflip"]

_SIGN = np.uint32(0x80000000)


def inject_bitflip(values: np.ndarray, lane: int, bit: int) -> None:
    """Flip one IEEE-754 bit of one lane in place (soft-error model).

    ``values`` must be a contiguous ``float32`` array.  ``bit`` indexes
    the 32-bit encoding (0 = mantissa LSB ... 22 = mantissa MSB); the
    fault injector confines flips to the mantissa window the reduced FPU
    keeps, modelling a particle strike in the area-efficient datapath.
    """
    flat = values.reshape(-1)
    word = flat[lane:lane + 1].view(np.uint32)
    word ^= np.uint32(1) << np.uint32(bit)


@dataclass
class OpSample:
    """Census of one vector FP operation.

    ``nontrivial_operands`` is only populated when the caller requests it
    (memoization runs): a pair of flattened ``uint32`` arrays holding the
    reduced encodings of the non-trivial elements, in element order, and
    ``nontrivial_lanes`` their flat element indices.
    """

    op: str
    total: int = 0
    conventional_trivial: int = 0
    extended_trivial: int = 0
    nontrivial_operands: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, repr=False
    )
    nontrivial_lanes: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def nontrivial(self) -> int:
        """Element count that would still need an FPU (or table)."""
        return self.total - self.extended_trivial


def _prepare(a, b) -> Tuple[np.ndarray, np.ndarray]:
    a32 = np.asarray(a, dtype=np.float32)
    b32 = np.asarray(b, dtype=np.float32)
    a32, b32 = np.broadcast_arrays(a32, b32)
    return a32, b32


def _census(op: str, masks: TrivialMasks, abits, bbits,
            collect_operands: bool) -> OpSample:
    sample = OpSample(
        op=op,
        total=int(masks.extended.size),
        conventional_trivial=int(np.count_nonzero(masks.conventional)),
        extended_trivial=int(np.count_nonzero(masks.extended)),
    )
    if collect_operands:
        keep = ~masks.extended.ravel()
        sample.nontrivial_operands = (
            abits.ravel()[keep].copy(),
            bbits.ravel()[keep].copy(),
        )
        sample.nontrivial_lanes = np.flatnonzero(keep)
    return sample


def reduced_add(
    a,
    b,
    precision: int = FULL_PRECISION,
    mode: RoundingMode = RoundingMode.JAMMING,
    collect_operands: bool = False,
) -> Tuple[np.ndarray, OpSample]:
    """Elementwise ``a + b`` at ``precision`` mantissa bits.

    Returns ``(result, sample)`` where ``result`` is ``float32`` of the
    broadcast shape.
    """
    a32, b32 = _prepare(a, b)
    ra = reduce_array(a32, precision, mode)
    rb = reduce_array(b32, precision, mode)
    abits = array_to_bits(ra)
    bbits = array_to_bits(rb)
    masks = add_trivial_masks(abits, bbits, precision)

    result = reduce_array(ra + rb, precision, mode)
    if masks.extended.any():
        # Bypass lanes keep the surviving operand at full precision.
        result = np.where(masks.use_a, a32, result)
        result = np.where(masks.use_b, b32, result)
    sample = _census("add", masks, abits, bbits, collect_operands)
    return result.astype(np.float32, copy=False), sample


def reduced_sub(
    a,
    b,
    precision: int = FULL_PRECISION,
    mode: RoundingMode = RoundingMode.JAMMING,
    collect_operands: bool = False,
) -> Tuple[np.ndarray, OpSample]:
    """Elementwise ``a - b``; identical census semantics to addition.

    Subtraction is addition of the negated operand — negation flips only
    the sign bit, so the trivial conditions (which inspect exponents and
    mantissas) are unaffected.
    """
    b32 = np.asarray(b, dtype=np.float32)
    result, sample = reduced_add(a, -b32, precision, mode, collect_operands)
    sample.op = "sub"
    return result, sample


def reduced_mul(
    a,
    b,
    precision: int = FULL_PRECISION,
    mode: RoundingMode = RoundingMode.JAMMING,
    collect_operands: bool = False,
) -> Tuple[np.ndarray, OpSample]:
    """Elementwise ``a * b`` at ``precision`` mantissa bits."""
    a32, b32 = _prepare(a, b)
    ra = reduce_array(a32, precision, mode)
    rb = reduce_array(b32, precision, mode)
    abits = array_to_bits(ra)
    bbits = array_to_bits(rb)
    masks = mul_trivial_masks(abits, bbits, precision)

    result = reduce_array(ra * rb, precision, mode)
    if masks.extended.any():
        zero_result = masks.extended & ~masks.use_a & ~masks.use_b
        if zero_result.any():
            sign = (abits ^ bbits) & _SIGN
            signed_zero = sign.view(np.float32)
            result = np.where(zero_result, signed_zero, result)
        # ±2^E lanes: exponent/sign logic runs, the other operand's mantissa
        # passes through at full precision.  Multiplying by an exact power
        # of two reproduces this bit-for-bit.
        result = np.where(masks.use_a, a32 * rb, result)
        result = np.where(masks.use_b, ra * b32, result)
    sample = _census("mul", masks, abits, bbits, collect_operands)
    return result.astype(np.float32, copy=False), sample


def reduced_div(
    a,
    b,
    precision: int = FULL_PRECISION,
    mode: RoundingMode = RoundingMode.JAMMING,
    collect_operands: bool = False,
) -> Tuple[np.ndarray, OpSample]:
    """Elementwise ``a / b`` — never precision-reduced, only screened.

    ``precision``/``mode`` are accepted for interface symmetry; the paper's
    error-tolerance study covers add/sub/mul only, so divides execute at
    full precision.
    """
    del precision, mode
    a32, b32 = _prepare(a, b)
    abits = array_to_bits(a32)
    bbits = array_to_bits(b32)
    masks = div_trivial_masks(abits, bbits)
    with np.errstate(divide="ignore", invalid="ignore"):
        result = (a32 / b32).astype(np.float32, copy=False)
    sample = _census("div", masks, abits, bbits, collect_operands)
    return result, sample
