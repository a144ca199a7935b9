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
to measure memoization hit rates.  Every op runs on the kernel that
:meth:`FPContext.kernel` returns: a
:class:`~repro.fp.rounding.ReducedKernel` census-free, a
:class:`~repro.fp.census.CensusKernel` under the census.  The context's
own ops run on it, and so do the engine's whole-array passes, so census
and fault-injection runs execute the same code as every other run.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

import numpy as np

from .census import CensusKernel
from .rounding import (
    DEFAULT_GUARD_BITS,
    FULL_PRECISION,
    ReducedKernel,
    RoundingMode,
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

    :meth:`add`/:meth:`sub`/:meth:`mul` round both operands on every
    call, so they take operands of any origin.  Engine passes take
    :meth:`kernel` instead, enter their inputs once and chain its
    ``binop`` on its results (the same bits, rounding only results).

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
        reuse (Table 4, right half).  Operands queue in op order and
        probe the tables at :meth:`flush` (``World.step`` flushes once
        per step; reading :attr:`stats` flushes too).
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
        self.phase_precision: Dict[str, int] = {}
        for phase, bits in (phase_precision or {}).items():
            self.set_precision(phase, bits)
        self.mode = mode
        self.memo = memo
        self.memo_budget = memo_budget
        #: configured cap, restored by :meth:`reset_stats` (the live
        #: :attr:`memo_budget` is drawn down as probes are spent)
        self._memo_budget_config = memo_budget
        self.census = census
        self.jam_guard_bits = jam_guard_bits
        self.phase: str = "other"
        self._stats: Dict[Tuple[str, str], OpCounter] = {}
        #: memo table -> queued (counter, (2, k) operand bits, items)
        self._probes: Dict[str, list] = {"add": [], "mul": []}
        #: inside :meth:`memo_by_item`, the item of each index along the
        #: leading axis of the ops' results
        self.memo_items: Optional[np.ndarray] = None
        self._census = CensusKernel(self)
        self.injector = None

    # ------------------------------------------------------------------
    # What the census-free kernels are built from.  Setting any of these
    # drops the kernels built so far; the phase precision keys the rest.
    # ------------------------------------------------------------------
    @property
    def mode(self) -> RoundingMode:
        """Rounding mode of every reduced op."""
        return self._mode

    @mode.setter
    def mode(self, value: Union[str, RoundingMode]) -> None:
        self._mode = RoundingMode.parse(value)
        self._kernels: Dict[int, ReducedKernel] = {}

    @property
    def jam_guard_bits(self) -> int:
        """Jamming OR-window width of the census-free ops (ablation
        knob; the paper, and the census kernel, use 3)."""
        return self._jam_guard_bits

    @jam_guard_bits.setter
    def jam_guard_bits(self, value: int) -> None:
        self._jam_guard_bits = value
        self._kernels = {}

    @property
    def injector(self):
        """Optional :class:`~repro.robustness.FaultInjector`; when set,
        every op result passes through it (soft-error campaigns)."""
        return self._injector

    @injector.setter
    def injector(self, value) -> None:
        self._injector = value
        self._kernels = {}

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
    @property
    def stats(self) -> Dict[Tuple[str, str], OpCounter]:
        """Census per ``(phase, op)``, queued memo probes included."""
        self.flush()
        return self._stats

    def _counter(self, op: str, phase: Optional[str] = None) -> OpCounter:
        key = (self.phase if phase is None else phase, op)
        counter = self._stats.get(key)
        if counter is None:
            counter = self._stats[key] = OpCounter()
        return counter

    def _queue_probe(self, op: str, counter: OpCounter,
                     pairs: np.ndarray, items=None) -> None:
        """Queue non-trivial operand pairs (already drawn from the memo
        budget and counted as lookups) for :meth:`flush`."""
        counter.memo_lookups += pairs.shape[1]
        self._probes["mul" if op == "mul" else "add"].append(
            (counter, pairs, items))

    @contextmanager
    def memo_by_item(self):
        """Queue the memo operands of the block's ops item by item.

        A pass that runs the same ops for many independent items (box
        pairs, say) executes them op by op over all items at once; its
        memo operands then reach the tables item by item, in op order
        within an item, as running the items one after another would
        probe them.  Inside the block, set :attr:`memo_items` to the
        item of each index along the leading axis of the results of the
        ops that follow.
        """
        marks = {table: len(queue) for table, queue in self._probes.items()}
        try:
            yield
        finally:
            self.memo_items = None
            for table, queue in self._probes.items():
                queue[marks[table]:] = _item_major(queue[marks[table]:])

    def flush(self) -> None:
        """Probe the memo tables with every queued operand pair.

        One probe per table in queue order, so hits match probing op by
        op; each op's hits go back to its ``(phase, op)`` counter.
        """
        for table, queue in self._probes.items():
            if not queue:
                continue
            pairs = np.concatenate([p for _, p, _ in queue], axis=1)
            ends = np.cumsum([p.shape[1] for _, p, _ in queue]).tolist()
            hits = self.memo.probe(table, pairs[0], pairs[1], ends=ends)
            for (counter, _, _), count in zip(queue, hits):
                counter.memo_hits += count
            queue.clear()

    def reset_stats(self) -> None:
        """Clear the census and restore the configured memo budget.

        Queued probes still reach the memo tables first.  Without the
        budget restore, a second run on the same context would silently
        collect no memoization samples (the budget having been exhausted
        by the first run).
        """
        self.flush()
        self._stats.clear()
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
        self.flush()
        return self._counter(op, phase)

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
    def _deliver(self, op: str, result: np.ndarray) -> np.ndarray:
        """Hand an op result to the installed fault injector, if any."""
        injector = self._injector
        if injector is not None:
            return injector.corrupt(self.phase, op, result, self.precision)
        return result

    def kernel(self):
        """Op kernel for the current phase: the one place the census
        switch is read.

        Census-free, a :class:`~repro.fp.rounding.ReducedKernel` at the
        phase's precision (the Table 1 error model), built once per
        precision; under the census, the context's
        :class:`~repro.fp.census.CensusKernel` (the HFPU's trivial
        bypass, counted).  Either hands every op result to the fault
        injector.
        """
        if self.census:
            return self._census
        precision = self.phase_precision.get(self.phase, FULL_PRECISION)
        kern = self._kernels.get(precision)
        if kern is None:
            kern = self._kernels[precision] = ReducedKernel(
                precision, self._mode, self._jam_guard_bits,
                None if self._injector is None else self._deliver)
        return kern

    def add(self, a, b) -> np.ndarray:
        return self.kernel().apply(np.add, a, b)

    def sub(self, a, b) -> np.ndarray:
        return self.kernel().apply(np.subtract, a, b)

    def mul(self, a, b) -> np.ndarray:
        return self.kernel().apply(np.multiply, a, b)

    def div(self, a, b) -> np.ndarray:
        """Full-precision divide; the census screens it for trivial
        cases."""
        return self.kernel().div(a, b)

    def sqrt(self, a) -> np.ndarray:
        """Full-precision square root, censused in the divide class.

        The paper's cores implement sqrt/div on the same long-latency
        non-pipelined unit; neither is precision-reduced.
        """
        return self.kernel().sqrt(a)


def _item_major(entries: list) -> list:
    """Queue entries regrouped item by item (stable: op order within an
    item), as runs of consecutive pairs of one entry."""
    if not entries:
        return entries
    pairs = np.concatenate([p for _, p, _ in entries], axis=1)
    entry = np.repeat(np.arange(len(entries)),
                      [p.shape[1] for _, p, _ in entries])
    order = np.argsort(np.concatenate([i for _, _, i in entries]),
                       kind="stable")
    pairs = pairs[:, order]
    entry = entry[order]
    bounds = [0, *(np.flatnonzero(np.diff(entry)) + 1).tolist(), len(entry)]
    return [(entries[entry[lo]][0], pairs[:, lo:hi], None)
            for lo, hi in zip(bounds[:-1], bounds[1:])]
