"""The HFPU design space: typed points, budgets, and seeded variation.

The paper evaluates a handful of fixed design points (Table 8: five L1
alternatives at 4 cores per L2 FPU, each at the Table 1 tuned
precisions).  This module turns those axes into a searchable space:

* **sharing degree** — cores per shared L2 FPU, the Figure 5/7 axis
  (:data:`SHARING_DEGREES`, bounded by the paper's interconnect model);
* **L1 FPU design** — :data:`repro.arch.l1fpu.ALL_DESIGNS` plus the
  mini-FPU variants (:data:`DESIGN_CHOICES`);
* **per-phase precision policy** — the mantissa widths the LCP and
  narrow-phase run at, i.e. the Table 1 knob treated as a design axis.

A :class:`DesignPoint` is one coordinate; a :class:`DesignSpace` binds
the axes to a workload (scenario, steps, scale, mode) and to typed
:class:`Budgets`, and owns the seeded enumeration plus the
mutate/crossover operators the evolutionary loop
(:mod:`repro.design.optimizer`) applies.  Everything is deterministic
for a fixed seed and independent of evaluation order, which is what
makes the emitted Pareto fronts bit-reproducible across worker counts.

Validation failures raise :class:`DesignSpaceError` — the CLI maps it
to exit code 2 and the serve layer to a ``bad_request`` response, so
both boundaries reject nonsense budgets with the same typed message.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..arch import params
from ..arch.l1fpu import ALL_DESIGNS, L1Design, mini_fpu
from ..fp.rounding import FULL_PRECISION, RoundingMode
from ..workloads import SCENARIO_NAMES

__all__ = [
    "DesignSpaceError",
    "DESIGN_CHOICES",
    "SHARING_DEGREES",
    "PHASES",
    "design_by_name",
    "DesignPoint",
    "Budgets",
    "DesignSpace",
    "DesignQuery",
    "paper_points",
]

PHASES = ("lcp", "narrow")

#: L2 sharing degrees the interconnect model covers (Table 7).
SHARING_DEGREES: Tuple[int, ...] = tuple(sorted(params.INTERCONNECT_LATENCY))

#: Every searchable L1 alternative by name: the paper's four
#: (:data:`~repro.arch.l1fpu.ALL_DESIGNS`) plus the mini-FPU sharing
#: variants.
DESIGN_CHOICES: Dict[str, L1Design] = {
    **{design.name: design for design in ALL_DESIGNS},
    **{mini_fpu(n).name: mini_fpu(n) for n in (1, 2, 4)},
}


class DesignSpaceError(ValueError):
    """An invalid design-space input (budget, axis, or query field).

    ``field`` names the offending input so boundaries can report it
    structurally; the message is already user-ready.
    """

    def __init__(self, field: str, detail: str) -> None:
        super().__init__(detail)
        self.field = field
        self.detail = detail


def design_by_name(name: str) -> L1Design:
    """Resolve an L1 design name or raise with the valid list."""
    try:
        return DESIGN_CHOICES[name]
    except KeyError:
        raise DesignSpaceError(
            "designs",
            f"unknown L1 design {name!r}; valid designs: "
            f"{', '.join(sorted(DESIGN_CHOICES))}") from None


def _require_number(field_name: str, value, *, positive: bool = True,
                    integer: bool = False, minimum=None):
    """One typed numeric check shared by every boundary."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DesignSpaceError(
            field_name, f"{field_name} must be a number, got {value!r}")
    if integer:
        if float(value) != int(value):
            raise DesignSpaceError(
                field_name, f"{field_name} must be an integer, "
                            f"got {value!r}")
        value = int(value)
    else:
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            raise DesignSpaceError(
                field_name, f"{field_name} must be finite, got {value!r}")
    if positive and value <= 0:
        raise DesignSpaceError(
            field_name, f"{field_name} must be positive, got {value!r}")
    if minimum is not None and value < minimum:
        raise DesignSpaceError(
            field_name, f"{field_name} must be >= {minimum}, "
                        f"got {value!r}")
    return value


@dataclass(frozen=True)
class DesignPoint:
    """One coordinate of the search space.

    ``design`` is an L1 design name (:data:`DESIGN_CHOICES` key) so
    points serialize to JSON and hash across process boundaries;
    :meth:`l1_design` resolves the model object.
    """

    design: str
    cores_per_fpu: int
    lcp_bits: int
    narrow_bits: int

    def l1_design(self) -> L1Design:
        return design_by_name(self.design)

    @property
    def policy(self) -> Dict[str, int]:
        """The per-phase precision policy as ``FPContext`` expects it."""
        return {"lcp": self.lcp_bits, "narrow": self.narrow_bits}

    def key(self) -> Tuple:
        """Canonical identity (sort key, cache key component)."""
        return (self.design, self.cores_per_fpu, self.lcp_bits,
                self.narrow_bits)

    def to_dict(self) -> dict:
        return {"design": self.design, "cores_per_fpu": self.cores_per_fpu,
                "lcp_bits": self.lcp_bits, "narrow_bits": self.narrow_bits}

    @classmethod
    def from_dict(cls, payload: Mapping) -> "DesignPoint":
        return cls(design=str(payload["design"]),
                   cores_per_fpu=int(payload["cores_per_fpu"]),
                   lcp_bits=int(payload["lcp_bits"]),
                   narrow_bits=int(payload["narrow_bits"]))


@dataclass(frozen=True)
class Budgets:
    """User-supplied constraints a feasible design must satisfy.

    ``area_mm2`` caps the *per-core* area (core + router + its share of
    the L2 FPU + L1 overhead — the quantity
    :func:`repro.arch.area.per_core_area_mm2` models); ``energy_nj``
    caps the average per-FP-op energy across the studied phases.
    ``None`` leaves a dimension unconstrained.
    """

    area_mm2: Optional[float] = None
    energy_nj: Optional[float] = None

    def validate(self) -> "Budgets":
        area = (None if self.area_mm2 is None
                else _require_number("budget_area", self.area_mm2))
        energy = (None if self.energy_nj is None
                  else _require_number("budget_energy", self.energy_nj))
        return Budgets(area_mm2=area, energy_nj=energy)

    def admits(self, area_mm2: float, energy_nj: float) -> bool:
        if self.area_mm2 is not None and area_mm2 > self.area_mm2:
            return False
        if self.energy_nj is not None and energy_nj > self.energy_nj:
            return False
        return True

    def to_dict(self) -> dict:
        return {"area_mm2": self.area_mm2, "energy_nj": self.energy_nj}


def paper_points(scenario: str,
                 tuned: Optional[Mapping[str, int]] = None
                 ) -> List[DesignPoint]:
    """The paper's fixed design points, as search-space coordinates.

    Table 8 evaluates five L1 alternatives at 4 cores per L2 FPU; each
    runs at the scenario's Table 1 tuned precisions (the
    :data:`~repro.experiments.table1.PRESET_PRECISIONS` this
    reproduction measured).  These seed every search so the emitted
    front provably covers the paper's own configurations.
    """
    if tuned is None:
        from ..experiments.table1 import PRESET_PRECISIONS

        tuned = PRESET_PRECISIONS.get(scenario, {})
    lcp = int(tuned.get("lcp", FULL_PRECISION))
    narrow = int(tuned.get("narrow", FULL_PRECISION))
    names = ("conjoin", "conv_triv", "reduced_triv", "lookup_triv",
             "mini_fpu_1")
    return [DesignPoint(name, 4, lcp, narrow) for name in names]


@dataclass(frozen=True)
class DesignSpace:
    """The search problem: axes x workload x budgets.

    ``steps``/``scale``/``mode`` parameterize the believability runs
    exactly as :func:`repro.tuning.believability.minimum_precision`
    does; ``fpu_area_mm2`` is the full L2 FPU size the area/energy
    models scale from; ``trace_length`` feeds the cycle simulator.
    """

    scenario: str = "continuous"
    steps: int = 30
    scale: float = 1.0
    mode: str = "jam"
    fpu_area_mm2: float = 1.5
    trace_length: int = 4000
    budgets: Budgets = field(default_factory=Budgets)
    designs: Tuple[str, ...] = tuple(sorted(DESIGN_CHOICES))
    sharing: Tuple[int, ...] = SHARING_DEGREES
    bits_lo: int = 1
    bits_hi: int = FULL_PRECISION

    def validate(self) -> "DesignSpace":
        """Normalize and type-check every field; raises
        :class:`DesignSpaceError` with a user-ready message."""
        if self.scenario not in SCENARIO_NAMES:
            raise DesignSpaceError(
                "scenario",
                f"unknown scenario {self.scenario!r}; valid scenarios: "
                f"{', '.join(SCENARIO_NAMES)}")
        steps = _require_number("steps", self.steps, integer=True,
                                minimum=1)
        scale = _require_number("scale", self.scale)
        try:
            mode = RoundingMode.parse(self.mode).value
        except ValueError as exc:
            raise DesignSpaceError("mode", str(exc)) from None
        fpu_area = _require_number("fpu_area", self.fpu_area_mm2)
        trace_length = _require_number("trace_length", self.trace_length,
                                       integer=True, minimum=100)
        budgets = self.budgets.validate()
        if not self.designs:
            raise DesignSpaceError("designs",
                                   "the design axis cannot be empty")
        designs = tuple(sorted(design_by_name(d).name
                               for d in self.designs))
        if not self.sharing:
            raise DesignSpaceError("sharing",
                                   "the sharing axis cannot be empty")
        sharing = []
        for degree in self.sharing:
            degree = _require_number("sharing", degree, integer=True)
            if degree not in SHARING_DEGREES:
                raise DesignSpaceError(
                    "sharing",
                    f"unsupported sharing degree {degree}; the "
                    f"interconnect model covers "
                    f"{', '.join(map(str, SHARING_DEGREES))}")
            sharing.append(degree)
        bits_lo = _require_number("bits_lo", self.bits_lo, integer=True,
                                  minimum=1)
        bits_hi = _require_number("bits_hi", self.bits_hi, integer=True,
                                  minimum=1)
        if bits_lo > bits_hi or bits_hi > FULL_PRECISION:
            raise DesignSpaceError(
                "bits",
                f"precision bounds must satisfy 1 <= lo <= hi <= "
                f"{FULL_PRECISION}, got [{bits_lo}, {bits_hi}]")
        return replace(
            self, steps=steps, scale=scale, mode=mode,
            fpu_area_mm2=fpu_area, trace_length=trace_length,
            budgets=budgets, designs=designs,
            sharing=tuple(sorted(set(sharing))),
            bits_lo=bits_lo, bits_hi=bits_hi)

    # ------------------------------------------------------------------
    # Deterministic enumeration + variation
    # ------------------------------------------------------------------
    def clamp(self, point: DesignPoint) -> DesignPoint:
        """Snap a point onto the space's axes (post mutate/crossover)."""
        def _bits(bits: int) -> int:
            return max(self.bits_lo, min(self.bits_hi, int(bits)))

        sharing = min(self.sharing, key=lambda s: (abs(s - point.cores_per_fpu), s))
        design = (point.design if point.design in self.designs
                  else self.designs[0])
        return DesignPoint(design, sharing, _bits(point.lcp_bits),
                           _bits(point.narrow_bits))

    def seed_points(self) -> List[DesignPoint]:
        """The paper's fixed points, clamped onto this space's axes."""
        seen = set()
        points = []
        for point in paper_points(self.scenario):
            point = self.clamp(point)
            if point.key() not in seen:
                seen.add(point.key())
                points.append(point)
        return points

    def sample(self, rng: random.Random, count: int) -> List[DesignPoint]:
        """``count`` seeded-random points (duplicates possible)."""
        points = []
        for _ in range(count):
            points.append(DesignPoint(
                design=rng.choice(self.designs),
                cores_per_fpu=rng.choice(self.sharing),
                lcp_bits=rng.randint(self.bits_lo, self.bits_hi),
                narrow_bits=rng.randint(self.bits_lo, self.bits_hi),
            ))
        return points

    def mutate(self, point: DesignPoint,
               rng: random.Random) -> DesignPoint:
        """Perturb one axis (precision moves are small, local steps)."""
        axis = rng.randrange(4)
        if axis == 0:
            design = rng.choice(self.designs)
            point = replace(point, design=design)
        elif axis == 1:
            point = replace(point, cores_per_fpu=rng.choice(self.sharing))
        elif axis == 2:
            point = replace(point,
                            lcp_bits=point.lcp_bits + rng.choice(
                                (-3, -2, -1, 1, 2, 3)))
        else:
            point = replace(point,
                            narrow_bits=point.narrow_bits + rng.choice(
                                (-3, -2, -1, 1, 2, 3)))
        return self.clamp(point)

    def crossover(self, a: DesignPoint, b: DesignPoint,
                  rng: random.Random) -> DesignPoint:
        """Uniform crossover over the three axes."""
        return self.clamp(DesignPoint(
            design=rng.choice((a.design, b.design)),
            cores_per_fpu=rng.choice((a.cores_per_fpu, b.cores_per_fpu)),
            lcp_bits=rng.choice((a.lcp_bits, b.lcp_bits)),
            narrow_bits=rng.choice((a.narrow_bits, b.narrow_bits)),
        ))

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def workload_digest(self) -> str:
        """Hash of everything that shapes one point's evaluation
        *other than the point itself* — the trace/believability inputs.
        The run cache keys on (point, this digest, verified)."""
        blob = json.dumps({
            "scenario": self.scenario,
            "steps": self.steps,
            "scale": self.scale,
            "mode": self.mode,
            "fpu_area": self.fpu_area_mm2,
            "trace_length": self.trace_length,
        }, sort_keys=True)
        return hashlib.sha1(blob.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "steps": self.steps,
            "scale": self.scale,
            "mode": self.mode,
            "fpu_area": self.fpu_area_mm2,
            "trace_length": self.trace_length,
            "budgets": self.budgets.to_dict(),
            "designs": list(self.designs),
            "sharing": list(self.sharing),
            "bits": [self.bits_lo, self.bits_hi],
        }


@dataclass(frozen=True)
class DesignQuery:
    """One canonicalized design request — the unit the serve layer
    caches on and the CLI artifact records.

    :meth:`from_mapping` is the single validation boundary: the CLI
    builds a mapping from flags, the service takes the request's
    ``query`` object verbatim, and both get identical
    :class:`DesignSpaceError` messages for identical mistakes.
    """

    space: DesignSpace
    generations: int = 3
    population: int = 12
    seed: int = 0

    _FIELDS = ("scenario", "budget_area", "budget_energy", "generations",
               "population", "seed", "steps", "scale", "mode",
               "fpu_area", "trace_length", "designs", "sharing",
               "surrogate_id")

    @classmethod
    def from_mapping(cls, query: Mapping) -> "DesignQuery":
        if not isinstance(query, Mapping):
            raise DesignSpaceError(
                "query", "design query must be a JSON object")
        unknown = sorted(set(query) - set(cls._FIELDS))
        if unknown:
            raise DesignSpaceError(
                "query",
                f"unknown design query field(s) {', '.join(unknown)}; "
                f"valid fields: {', '.join(cls._FIELDS)}")
        budgets = Budgets(area_mm2=query.get("budget_area"),
                          energy_nj=query.get("budget_energy"))
        space = DesignSpace(
            scenario=query.get("scenario", "continuous"),
            steps=query.get("steps", 30),
            scale=query.get("scale", 1.0),
            mode=query.get("mode", "jam"),
            fpu_area_mm2=query.get("fpu_area", 1.5),
            trace_length=query.get("trace_length", 4000),
            budgets=budgets,
            designs=tuple(query.get("designs")
                          or sorted(DESIGN_CHOICES)),
            sharing=tuple(query.get("sharing") or SHARING_DEGREES),
        ).validate()
        generations = _require_number(
            "generations", query.get("generations", 3), integer=True,
            minimum=1)
        population = _require_number(
            "population", query.get("population", 12), integer=True,
            minimum=2)
        seed = _require_number("seed", query.get("seed", 0),
                               integer=True, positive=False)
        # A repro.design.v1 field kept so payloads and query keys stay
        # stable; every search is cold, so null is its only value.
        if query.get("surrogate_id") is not None:
            raise DesignSpaceError(
                "surrogate_id", "surrogate_id must be null (searches "
                                "are always cold)")
        return cls(space=space, generations=generations,
                   population=population, seed=seed)

    def canonical(self) -> dict:
        """The normalized query — every default filled in, stable key
        order — that two equivalent requests reduce to."""
        space = self.space
        return {
            "scenario": space.scenario,
            "budget_area": space.budgets.area_mm2,
            "budget_energy": space.budgets.energy_nj,
            "generations": self.generations,
            "population": self.population,
            "seed": self.seed,
            "steps": space.steps,
            "scale": space.scale,
            "mode": space.mode,
            "fpu_area": space.fpu_area_mm2,
            "trace_length": space.trace_length,
            "designs": list(space.designs),
            "sharing": list(space.sharing),
            "surrogate_id": None,
        }

    def cache_key(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True)
        return hashlib.sha1(blob.encode()).hexdigest()[:16]
