"""Evaluating one design point: area, energy, throughput, margin.

Reuses the paper-reproduction models end to end — census runs feed
:class:`~repro.arch.trace.PhaseWorkload`, the cycle simulator
(:func:`~repro.arch.throughput.evaluate_config`) prices throughput, and
:mod:`repro.arch.energy`/:mod:`repro.arch.area` price the physical
objectives.  The believability axis comes from
:func:`~repro.tuning.believability.minimum_precision`:

* during the search, a candidate policy's per-phase minimum believable
  bits are *estimated* by a cached uncoupled cold search shared across
  all policies of a scenario;
* front members are then *verified*: each phase is cold-searched with
  the other phase pinned at the policy's bits (the paper's
  combined-tuning methodology), so the reported front is measured, not
  predicted.

Every evaluation is a pure function of (point, workload digest,
verified) and is memoized through the process-safe run cache
(:func:`repro.experiments.runcache.cached_json`), so repeated DSE
sweeps and served design queries skip re-simulation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..arch.area import per_core_area_mm2
from ..arch.energy import phase_energy
from ..arch.throughput import evaluate_config
from ..arch.trace import PhaseWorkload
from ..experiments.runcache import cached_json, census_stats
from ..tuning.believability import minimum_precision
from .space import PHASES, DesignPoint, DesignSpace

__all__ = ["DesignEval", "evaluate_point", "min_bits_for"]


@dataclass(frozen=True)
class DesignEval:
    """One priced design point.

    ``min_bits`` maps each phase to its minimum believable mantissa
    width (estimated or, when ``verified``, cold-search measured with
    the other phase pinned); ``margin`` is the worst-case headroom the
    policy keeps above those minimums — negative means the policy is
    not believable.  ``objectives`` is the minimized tuple dominance
    works on; ``feasible`` additionally applies the space's budgets.
    """

    point: DesignPoint
    area_mm2: float
    energy_nj: float
    #: mean throughput improvement over the 128-private-FPU baseline
    throughput: float
    min_bits: Tuple[Tuple[str, int], ...]
    margin: int
    believable: bool
    verified: bool
    feasible: bool
    #: per-phase detail {phase: {ipc, throughput, improvement, energy_nj}}
    phases: Tuple[Tuple[str, dict], ...] = ()

    def objectives(self) -> Tuple[float, float, float, float]:
        """Minimized: (area, energy, -throughput, -margin)."""
        return (self.area_mm2, self.energy_nj, -self.throughput,
                -float(self.margin))

    def to_dict(self) -> dict:
        return {
            "point": self.point.to_dict(),
            "area_mm2": self.area_mm2,
            "energy_nj": self.energy_nj,
            "throughput": self.throughput,
            "min_bits": dict(self.min_bits),
            "margin": self.margin,
            "believable": self.believable,
            "verified": self.verified,
            "feasible": self.feasible,
            "objectives": list(self.objectives()),
            "phases": dict(self.phases),
        }

    @classmethod
    def from_dict(cls, payload: Mapping,
                  feasible: Optional[bool] = None) -> "DesignEval":
        return cls(
            point=DesignPoint.from_dict(payload["point"]),
            area_mm2=float(payload["area_mm2"]),
            energy_nj=float(payload["energy_nj"]),
            throughput=float(payload["throughput"]),
            min_bits=tuple(sorted(
                (phase, int(bits))
                for phase, bits in payload["min_bits"].items())),
            margin=int(payload["margin"]),
            believable=bool(payload["believable"]),
            verified=bool(payload["verified"]),
            feasible=bool(payload["feasible"] if feasible is None
                          else feasible),
            phases=tuple(sorted(payload.get("phases", {}).items())),
        )


def min_bits_for(
    space: DesignSpace,
    phase: str,
    policy: Mapping[str, int],
    verify: bool = False,
    use_cache: bool = True,
) -> int:
    """Minimum believable mantissa bits for ``phase`` under ``policy``.

    ``verify=True`` pins the *other* phases at the policy's bits (the
    combined-tuning coupling); otherwise the estimate drops the pins so
    one cached cold :func:`minimum_precision` search serves every
    candidate policy of the scenario.
    """
    # Uncoupled estimate unless verifying: shared across all policies.
    fixed = ({p: int(policy[p]) for p in PHASES if p != phase}
             if verify else {})

    def compute() -> dict:
        return {"bits": minimum_precision(
            space.scenario, phases=(phase,), mode=space.mode,
            steps=space.steps, scale=space.scale,
            fixed_precision=fixed or None)}

    result = cached_json(
        "design_minbits",
        {"scenario": space.scenario, "phase": phase, "mode": space.mode,
         "steps": space.steps, "scale": space.scale,
         "fixed": dict(sorted(fixed.items()))},
        compute, use_cache=use_cache)
    return int(result["bits"])


def _phase_workload(space: DesignSpace, policy: Mapping[str, int],
                    phase: str) -> PhaseWorkload:
    full = census_stats(space.scenario, None, space.mode, space.steps,
                        space.scale)
    reduced = census_stats(space.scenario, dict(policy), space.mode,
                           space.steps, space.scale)
    return PhaseWorkload.from_censuses(phase, int(policy[phase]), full,
                                       reduced)


def evaluate_point(
    space: DesignSpace,
    point: DesignPoint,
    verify: bool = False,
    use_cache: bool = True,
) -> DesignEval:
    """Price one design point (pure function, run-cache memoized).

    The cache key is (point, workload digest, verify) —
    budgets deliberately stay out of it, so tightening a budget reuses
    every prior simulation and only re-derives feasibility.
    """
    design = point.l1_design()
    policy = point.policy

    def compute() -> dict:
        # Believability first: estimated (uncoupled cold) during
        # search, coupled cold-searched for verification.
        min_bits = {
            phase: min_bits_for(space, phase, policy, verify=verify,
                                use_cache=use_cache)
            for phase in PHASES}
        margin = min(int(policy[phase]) - min_bits[phase]
                     for phase in PHASES)

        trace_seed = zlib.crc32(space.scenario.encode())
        phases: Dict[str, dict] = {}
        for phase in PHASES:
            workload = _phase_workload(space, policy, phase)
            config = evaluate_config(
                workload, design, space.fpu_area_mm2,
                point.cores_per_fpu, trace_length=space.trace_length,
                seed=trace_seed)
            energy = phase_energy(workload, design)
            phases[phase] = {
                "ipc": config.per_core_ipc,
                "throughput": config.throughput,
                "improvement": config.improvement,
                "energy_nj": energy.total_nj,
            }
        return {
            "area_mm2": per_core_area_mm2(
                space.fpu_area_mm2, point.cores_per_fpu, design),
            "energy_nj": (sum(p["energy_nj"] for p in phases.values())
                          / len(phases)),
            "throughput": (sum(p["improvement"] for p in phases.values())
                           / len(phases)),
            "min_bits": min_bits,
            "margin": margin,
            "believable": margin >= 0,
            "phases": phases,
        }

    payload = cached_json(
        "design_eval",
        {"point": point.to_dict(),
         "workload": space.workload_digest(),
         "verified": verify},
        compute, use_cache=use_cache)
    believable = bool(payload["believable"])
    feasible = believable and space.budgets.admits(
        float(payload["area_mm2"]), float(payload["energy_nj"]))
    return DesignEval.from_dict(
        {**payload, "point": point.to_dict(), "verified": verify,
         "feasible": feasible})
