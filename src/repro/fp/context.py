"""Floating-point execution context with per-phase dynamic precision.

This is the software analogue of the paper's hardware/software co-design
(Section 4.2): the application sets a *control register* holding the
minimum mantissa width for the currently executing region, and every FP
add/sub/mul in that region is performed at that width.  Here the "control
register" is :attr:`FPContext.phase_precision` plus the active
:attr:`FPContext.phase` label, which the physics engine switches as it
moves through its pipeline (``narrow`` → ``lcp`` → ``integrate``).

The context also keeps the trivialization census per ``(phase, op)`` that
Table 4 and the architectural model consume, and can optionally stream
non-trivial operand pairs through :class:`~repro.memo.memo_table.MemoBank`
to measure memoization hit rates.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from .ops import reduced_add, reduced_div, reduced_mul, reduced_sub
from .rounding import (
    DEFAULT_GUARD_BITS,
    FULL_PRECISION,
    ReducedKernel,
    RoundingMode,
    fused_axpy,
    fused_binop,
)

__all__ = ["OpCounter", "FPContext"]


@dataclass
class OpCounter:
    """Aggregate census for one ``(phase, op)`` bucket."""

    total: int = 0
    conventional_trivial: int = 0
    extended_trivial: int = 0
    memo_lookups: int = 0
    memo_hits: int = 0

    @property
    def nontrivial(self) -> int:
        return self.total - self.extended_trivial

    def merge(self, other: "OpCounter") -> None:
        self.total += other.total
        self.conventional_trivial += other.conventional_trivial
        self.extended_trivial += other.extended_trivial
        self.memo_lookups += other.memo_lookups
        self.memo_hits += other.memo_hits


class FPContext:
    """Executes vector FP operations at the active phase's precision.

    Parameters
    ----------
    phase_precision:
        Mapping from phase name to mantissa bits (0-23).  Phases absent
        from the map run at full precision.
    mode:
        Rounding mode for precision reduction (default jamming, the mode
        the paper selects for all architecture results).
    memo:
        Optional :class:`~repro.memo.memo_table.MemoBank`; when present,
        non-trivial add/mul operands are streamed through it to measure
        reuse (Table 4, right half).
    memo_budget:
        Cap on the number of per-element memoization probes, since memo
        simulation is inherently sequential.  ``None`` = unlimited.
    census:
        When False, skip the trivialization census *and* the trivial
        bypass: operations follow the paper's pure Table 1 error model
        ("rounding both operands, executing the operation, and then
        rounding the result") at a fraction of the cost.  Believability
        searches use this; census runs feed Table 4 and the architecture
        model.
    """

    def __init__(
        self,
        phase_precision: Optional[Mapping[str, int]] = None,
        mode: Union[str, RoundingMode] = RoundingMode.JAMMING,
        memo=None,
        memo_budget: Optional[int] = None,
        census: bool = True,
        jam_guard_bits: int = DEFAULT_GUARD_BITS,
    ) -> None:
        self.phase_precision: Dict[str, int] = dict(phase_precision or {})
        self.mode = RoundingMode.parse(mode)
        self.memo = memo
        self.memo_budget = memo_budget
        #: configured cap, restored by :meth:`reset_stats` (the live
        #: :attr:`memo_budget` is drawn down as probes are spent)
        self._memo_budget_config = memo_budget
        self.census = census
        #: jamming OR-window width (ablation knob; the paper uses 3).
        #: Applies on the census-free fast path.
        self.jam_guard_bits = jam_guard_bits
        self.phase: str = "other"
        self.stats: Dict[Tuple[str, str], OpCounter] = {}
        #: optional :class:`~repro.robustness.FaultInjector`; when set,
        #: every op result passes through it (soft-error campaigns).
        self.injector = None

    # ------------------------------------------------------------------
    # Phase / precision plumbing
    # ------------------------------------------------------------------
    def precision_for(self, phase: str) -> int:
        """Mantissa bits in effect for ``phase`` (23 when untuned)."""
        return self.phase_precision.get(phase, FULL_PRECISION)

    @property
    def precision(self) -> int:
        """Mantissa bits in effect for the *current* phase."""
        return self.precision_for(self.phase)

    def set_precision(self, phase: str, bits: int) -> None:
        """Write the control register for ``phase``."""
        if not 0 <= bits <= FULL_PRECISION:
            raise ValueError(f"precision out of range: {bits}")
        self.phase_precision[phase] = bits

    @contextmanager
    def in_phase(self, phase: str):
        """Scope the active phase label (restores the previous one)."""
        previous = self.phase
        self.phase = phase
        try:
            yield self
        finally:
            self.phase = previous

    # ------------------------------------------------------------------
    # Census
    # ------------------------------------------------------------------
    def _counter(self, op: str) -> OpCounter:
        key = (self.phase, op)
        counter = self.stats.get(key)
        if counter is None:
            counter = self.stats[key] = OpCounter()
        return counter

    def reset_stats(self) -> None:
        """Clear the census and restore the configured memo budget.

        Without the budget restore, a second run on the same context
        would silently collect no memoization samples (the budget having
        been exhausted by the first run).
        """
        self.stats.clear()
        self.memo_budget = self._memo_budget_config

    def counter(self, phase: str, op: str) -> OpCounter:
        """Census for ``(phase, op)``, registered in :attr:`stats`.

        A bucket that never executed is created zeroed *and recorded*,
        so a caller that read-modifies the returned counter (merging
        sweep shards, restoring a cached census) mutates the census the
        context will later report.  The old behaviour returned a
        detached ``OpCounter()`` for unseen keys: updates to it were
        silently dropped and Table 4 underreported never-hit buckets.
        """
        key = (phase, op)
        counter = self.stats.get(key)
        if counter is None:
            counter = self.stats[key] = OpCounter()
        return counter

    def phase_totals(self, phase: str) -> OpCounter:
        """Merged census across all op types of one phase."""
        merged = OpCounter()
        for (ph, _op), counter in self.stats.items():
            if ph == phase:
                merged.merge(counter)
        return merged

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def _record(self, sample, collectable: bool) -> None:
        counter = self._counter(sample.op)
        counter.total += sample.total
        counter.conventional_trivial += sample.conventional_trivial
        counter.extended_trivial += sample.extended_trivial
        if collectable and sample.nontrivial_operands is not None:
            abits, bbits = sample.nontrivial_operands
            n = len(abits)
            if self.memo_budget is not None:
                n = min(n, self.memo_budget)
                self.memo_budget -= n
            if n:
                hits = self.memo.probe(sample.op, abits[:n], bbits[:n])
                counter.memo_lookups += n
                counter.memo_hits += hits

    def _collecting(self, op: str) -> bool:
        if self.memo is None or op not in ("add", "sub", "mul"):
            return False
        return self.memo_budget is None or self.memo_budget > 0

    def _deliver(self, op: str, result: np.ndarray) -> np.ndarray:
        """Hand an op result to the installed fault injector, if any."""
        injector = self.injector
        if injector is not None:
            return injector.corrupt(self.phase, op, result, self.precision)
        return result

    def fast_kernel(self) -> Optional[ReducedKernel]:
        """Reduced-domain kernel for the current phase, or ``None``.

        ``None`` means the caller must take its legacy op-for-op path:
        the census counts per-element samples in call order, and a fault
        injector consumes RNG per delivered op, so both are sensitive to
        the *call structure*, not just the values.  Whole-array fast
        paths are only value-preserving, hence only allowed when neither
        is active.
        """
        if self.census or self.injector is not None:
            return None
        return ReducedKernel(self.precision, self.mode, self.jam_guard_bits)

    def _fast_binop(self, ufunc, a, b) -> np.ndarray:
        """Census-free path: pure round-op-round (Table 1 error model)."""
        precision = self.precision
        if precision == FULL_PRECISION:
            return ufunc(
                np.asarray(a, dtype=np.float32),
                np.asarray(b, dtype=np.float32),
            )
        return fused_binop(ufunc, a, b, precision, self.mode,
                           self.jam_guard_bits)

    def axpy(self, a, x, y) -> np.ndarray:
        """``a * x + y`` at the active precision.

        Bit-identical to ``add(y, mul(a, x))`` (FP addition commutes);
        the census-free path runs one fused kernel instead of two ops.
        Wherever :meth:`fast_kernel` is ``None`` (census and
        fault-injection runs) it falls back to the two-op sequence so op
        counters, memo operand order, and corruption points are exactly
        what the unfused code produced.
        """
        if self.fast_kernel() is None:
            return self.add(y, self.mul(a, x))
        precision = self.precision
        if precision == FULL_PRECISION:
            t = np.multiply(np.asarray(a, dtype=np.float32),
                            np.asarray(x, dtype=np.float32))
            return np.add(t, np.asarray(y, dtype=np.float32))
        return fused_axpy(a, x, y, precision, self.mode,
                          self.jam_guard_bits)

    def add(self, a, b) -> np.ndarray:
        if not self.census:
            return self._deliver("add", self._fast_binop(np.add, a, b))
        collect = self._collecting("add")
        result, sample = reduced_add(a, b, self.precision, self.mode, collect)
        self._record(sample, collect)
        return self._deliver("add", result)

    def sub(self, a, b) -> np.ndarray:
        if not self.census:
            return self._deliver("sub", self._fast_binop(np.subtract, a, b))
        collect = self._collecting("sub")
        result, sample = reduced_sub(a, b, self.precision, self.mode, collect)
        self._record(sample, collect)
        return self._deliver("sub", result)

    def mul(self, a, b) -> np.ndarray:
        if not self.census:
            return self._deliver("mul", self._fast_binop(np.multiply, a, b))
        collect = self._collecting("mul")
        result, sample = reduced_mul(a, b, self.precision, self.mode, collect)
        self._record(sample, collect)
        return self._deliver("mul", result)

    def div(self, a, b) -> np.ndarray:
        if not self.census:
            with np.errstate(divide="ignore", invalid="ignore"):
                result = np.divide(
                    np.asarray(a, dtype=np.float32),
                    np.asarray(b, dtype=np.float32),
                )
            return self._deliver("div", result)
        result, sample = reduced_div(a, b)
        self._record(sample, False)
        return self._deliver("div", result)

    def sqrt(self, a) -> np.ndarray:
        """Full-precision square root, censused in the divide class.

        The paper's cores implement sqrt/div on the same long-latency
        non-pipelined unit; neither is precision-reduced.
        """
        arr = np.asarray(a, dtype=np.float32)
        if self.census:
            counter = self._counter("div")
            counter.total += int(arr.size)
        with np.errstate(invalid="ignore"):
            return np.sqrt(arr)
