"""Believability evaluation and minimum-precision search (Table 1).

Follows the methodology of Yeh et al. [34] ("Fool Me Twice"): the
difference in total simulation energy is a reliable predictor of
believability, so a reduced-precision run is *believable* when its energy
trajectory tracks the full-precision reference within a tolerance (the
paper adopts 10 %) and never blows up.

External injections (explosions, scripted impulses) are subtracted before
comparison — "this energy conservation takes into account externally
injected energy by the player or the game scenario."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

import numpy as np

from ..fp.context import FPContext
from ..fp.rounding import FULL_PRECISION, RoundingMode
from ..workloads import build, default_steps

__all__ = [
    "BelievabilityCriteria",
    "EnergyTrace",
    "energy_trace",
    "is_believable",
    "deviation",
    "minimum_precision",
]


@dataclass(frozen=True)
class BelievabilityCriteria:
    """Thresholds deciding whether a run is perceptually believable.

    Energy is the primary signal (Yeh et al. [34] found it a reliable
    predictor); the same study examined gap/penetration errors, so runs
    with grossly deeper interpenetration than the reference are also
    rejected — contact failure is visually obvious even when energy
    stays bounded.
    """

    #: maximum tolerated relative energy deviation (the paper's 10 %)
    energy_tolerance: float = 0.10
    #: test penetration may exceed reference by at most this factor...
    penetration_factor: float = 3.0
    #: ...with this much absolute slack (metres) always granted
    penetration_slack: float = 0.05
    #: any body speed beyond this is a blow-up regardless of energy
    max_speed: float = 500.0


@dataclass
class EnergyTrace:
    """Per-step conserved-energy series plus blow-up flags from one run."""

    conserved: np.ndarray
    blew_up: bool
    #: worst contact penetration depth seen over the run
    max_penetration: float = 0.0

    @property
    def steps(self) -> int:
        return len(self.conserved)


def energy_trace(
    scenario: str,
    phase_precision: Optional[Mapping[str, int]] = None,
    mode: Union[str, RoundingMode] = RoundingMode.JAMMING,
    steps: Optional[int] = None,
    scale: float = 1.0,
    criteria: Optional[BelievabilityCriteria] = None,
    solver=None,
    seed: Optional[int] = None,
) -> EnergyTrace:
    """Simulate ``scenario`` and return its conserved-energy trajectory.

    Uses the census-free context (the paper's pure Table 1 error model:
    round operands, execute, round result — no architectural bypasses).
    ``seed`` threads through scenario construction (``None`` keeps the
    historical default layout).
    """
    criteria = criteria or BelievabilityCriteria()
    steps = default_steps() if steps is None else steps
    ctx = FPContext(phase_precision, mode=mode, census=False)
    world = build(scenario, ctx=ctx, scale=scale, solver=solver, seed=seed)

    blew_up = False
    for _ in range(steps):
        world.step()
        n = world.bodies.count
        state = world.bodies.pos[:n]
        speed = world.bodies.linvel[:n]
        if not np.isfinite(state).all() or not np.isfinite(speed).all():
            blew_up = True
            break
        if n and float(np.abs(speed).max()) > criteria.max_speed:
            blew_up = True
            break

    conserved = world.monitor.conserved_series()
    if not np.isfinite(conserved).all():
        blew_up = True
    # Running max: exact even if the windowed series has evicted early
    # samples (it never does at experiment step counts).
    penetration = world.penetration_series.maximum(default=0.0)
    return EnergyTrace(conserved=conserved, blew_up=blew_up,
                       max_penetration=penetration)


def deviation(reference: EnergyTrace, test: EnergyTrace) -> float:
    """Maximum relative deviation of the test energy from the reference.

    Normalized by the reference trajectory's *dynamic range* (with a
    small floor): total energy carries an arbitrary potential-energy
    offset from the height datum, so normalizing by its absolute
    magnitude would let low-amplitude scenarios (a pendulum barely
    exchanging a few joules) absorb errors larger than all the motion in
    the scene.  The dynamic range is the energy actually in play.
    """
    if test.blew_up:
        return float("inf")
    n = min(reference.steps, test.steps)
    if n == 0 or test.steps < reference.steps:
        return float("inf")
    ref = reference.conserved[:n]
    tst = test.conserved[:n]
    scale = max(
        float(np.ptp(ref)),
        0.02 * float(np.abs(ref).max()),
        1.0,
    )
    return float(np.abs(tst - ref).max()) / scale


def is_believable(
    reference: EnergyTrace,
    test: EnergyTrace,
    criteria: Optional[BelievabilityCriteria] = None,
) -> bool:
    """Whether ``test`` stays within the believability envelope."""
    criteria = criteria or BelievabilityCriteria()
    if deviation(reference, test) > criteria.energy_tolerance:
        return False
    allowed = (criteria.penetration_factor * reference.max_penetration
               + criteria.penetration_slack)
    return test.max_penetration <= allowed


# Reference (full-precision) traces are expensive; cache per config.
# The criteria belong in the key: ``max_speed`` changes blow-up
# detection *inside* energy_trace, so two criteria can classify the
# same configuration's reference run differently.
_REFERENCE_CACHE: Dict[Tuple, EnergyTrace] = {}


def _reference(scenario: str, steps: int, scale: float,
               criteria: BelievabilityCriteria, solver=None,
               seed: Optional[int] = None) -> EnergyTrace:
    scheme = getattr(solver, "scheme", None)
    key = (scenario, steps, scale, scheme, seed, criteria)
    trace = _REFERENCE_CACHE.get(key)
    if trace is None:
        trace = energy_trace(scenario, None, RoundingMode.JAMMING, steps,
                             scale, criteria, solver=solver, seed=seed)
        _REFERENCE_CACHE[key] = trace
    return trace


def minimum_precision(
    scenario: str,
    phases: Iterable[str] = ("lcp",),
    mode: Union[str, RoundingMode] = RoundingMode.JAMMING,
    steps: Optional[int] = None,
    scale: float = 1.0,
    criteria: Optional[BelievabilityCriteria] = None,
    fixed_precision: Optional[Mapping[str, int]] = None,
    solver=None,
    seed: Optional[int] = None,
    stats: Optional[Dict] = None,
) -> int:
    """Minimum mantissa bits for believable results (one Table 1 cell).

    Binary-searches the precision applied to ``phases`` (all set to the
    same width, matching the paper's per-phase exploration); other phases
    may be pinned via ``fixed_precision`` for the combined-tuning
    (parenthesised) Table 1 numbers.  Returns ``FULL_PRECISION`` when even
    23 - 1 bits break believability.

    The search probes width 1, then each midpoint of the interval
    between the widest failing and the narrowest believable width, one
    :func:`energy_trace` per probe.  Callers that want several searches
    at once spread whole searches over a
    :class:`~repro.perf.sweep.SweepRunner` (Table 1, the design search).

    ``stats``, when given a dict, is filled with ``bits`` (the result)
    and ``probes`` (the distinct candidate widths simulated; the
    full-precision reference run is not a probe).
    """
    criteria = criteria or BelievabilityCriteria()
    steps = default_steps() if steps is None else steps
    mode = RoundingMode.parse(mode)
    phases = tuple(phases)
    reference = _reference(scenario, steps, scale, criteria, solver, seed)
    probes = 0

    def believable(bits: int) -> bool:
        nonlocal probes
        probes += 1
        precision = dict(fixed_precision or {})
        for phase in phases:
            precision[phase] = bits
        trace = energy_trace(scenario, precision, mode, steps, scale,
                             criteria, solver=solver, seed=seed)
        return is_believable(reference, trace, criteria)

    lo, hi = 1, FULL_PRECISION  # hi is always believable (identity)
    if believable(lo):
        hi = lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if believable(mid):
            hi = mid
        else:
            lo = mid
    if stats is not None:
        stats.update(bits=hi, probes=probes)
    return hi
