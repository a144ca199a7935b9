"""Deterministic fault injection for the reduced-precision FPU model.

Reduced-mantissa FPUs are exactly where soft errors bite: the paper's
area-efficient datapath keeps only the top ``precision`` mantissa bits, so
a particle strike flips a bit *that the narrow FPU actually latches*.  The
injector models this by corrupting results of precision-tuned phases as
they leave the :class:`~repro.fp.FPContext` — single-bit flips inside the
kept mantissa window, plus rarer NaN/Inf poisoning to model control-path
upsets.

Everything is driven by one seeded :class:`numpy.random.Generator`; the
simulation itself is deterministic, so two campaigns with the same seed
produce bit-identical fault streams and therefore identical incident
logs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..fp.ops import inject_bitflip
from ..fp.rounding import FULL_PRECISION

__all__ = ["FaultEvent", "FaultInjector"]

#: Default mix: mostly datapath bit flips, rare control-path poison.
DEFAULT_KIND_WEIGHTS = {"bitflip": 0.85, "nan": 0.10, "inf": 0.05}


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (deterministic given the campaign seed)."""

    step: int
    phase: str
    op: str
    kind: str  # "bitflip" | "nan" | "inf"
    lane: int
    bit: int  # flipped mantissa bit position, -1 for nan/inf

    def describe(self) -> str:
        where = f"{self.phase}/{self.op}[{self.lane}]"
        if self.kind == "bitflip":
            return f"bitflip m{self.bit} in {where}"
        return f"{self.kind} in {where}"


class FaultInjector:
    """Seedable per-phase fault source hooked into an ``FPContext``.

    Parameters
    ----------
    rate:
        Per-element fault probability, either one float for every
        targeted phase or a ``{phase: rate}`` mapping.
    seed:
        Campaign seed; same seed + same workload = same fault stream.
    phases:
        Phases eligible for injection (default: the two precision-tuned
        phases, modelling the area-efficient FPU).
    kind_weights:
        Relative probabilities of ``bitflip`` / ``nan`` / ``inf``.
    """

    def __init__(
        self,
        rate: Union[float, Mapping[str, float]] = 1e-4,
        seed: int = 0,
        phases: Tuple[str, ...] = ("narrow", "lcp"),
        kind_weights: Optional[Mapping[str, float]] = None,
    ) -> None:
        if isinstance(rate, Mapping):
            self.rates: Dict[str, float] = dict(rate)
        else:
            self.rates = {phase: float(rate) for phase in phases}
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        weights = dict(kind_weights or DEFAULT_KIND_WEIGHTS)
        self._kinds = tuple(weights)
        total = sum(weights.values())
        self._kind_p = np.array([weights[k] / total for k in self._kinds])
        self.enabled = True
        #: current simulation step, stamped by the harness for event logs
        self.step = 0
        self.events: List[FaultEvent] = []
        #: result elements offered while injecting (the rate's base)
        self.offered = 0

    # ------------------------------------------------------------------
    @property
    def injected(self) -> int:
        return len(self.events)

    def reset(self) -> None:
        """Rewind the fault stream to the campaign start."""
        self.rng = np.random.default_rng(self.seed)
        self.events.clear()
        self.step = 0
        self.offered = 0

    # ------------------------------------------------------------------
    def corrupt(self, phase: str, op: str, result: np.ndarray,
                precision: int) -> np.ndarray:
        """Possibly corrupt an op result; called by the FP context.

        A bit flip hits a mantissa bit the register keeps, and NaN and
        Inf have no dropped bits either, so at precisions 1-23 a
        corrupted result is still a fixed point of the rounding: an
        engine pass that chains it into the next op without re-entering
        it computes what rounding it again would.  At precision 0 the
        register keeps no mantissa bit and the flip lands on bit 22,
        which a chained op carries on unrounded (as the LCP solve's
        chained ops always have).  No test or campaign injects at
        precision 0.
        """
        rate = self.rates.get(phase, 0.0)
        if not self.enabled or rate <= 0.0:
            return result
        out = np.ascontiguousarray(result, dtype=np.float32)
        n = out.size
        if n == 0:
            return result
        self.offered += n
        hits = int(self.rng.binomial(n, min(rate, 1.0)))
        if hits == 0:
            return out
        lanes = np.sort(self.rng.choice(n, size=hits, replace=False))
        kinds = self.rng.choice(len(self._kinds), size=hits, p=self._kind_p)
        flat = out.reshape(-1)
        kept = max(1, min(precision, FULL_PRECISION))
        for lane, kind_idx in zip(lanes, kinds):
            kind = self._kinds[int(kind_idx)]
            bit = -1
            if kind == "bitflip":
                # A bit the reduced FPU actually keeps: the top ``kept``
                # mantissa bits occupy positions [23-kept, 22].
                bit = int(self.rng.integers(FULL_PRECISION - kept,
                                            FULL_PRECISION))
                inject_bitflip(flat, int(lane), bit)
            elif kind == "nan":
                flat[lane] = np.nan
            else:
                flat[lane] = np.inf
            self.events.append(
                FaultEvent(self.step, phase, op, kind, int(lane), bit))
        return out
