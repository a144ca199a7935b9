"""Table 1 — minimum mantissa bits for believable results.

Reproduces the paper's per-scenario, per-rounding-mode, per-phase minimum
precision search (Section 4.1.1), including the combined-tuning column:
with LCP pinned at its independently found minimum, narrow-phase is
re-searched, because "the error injected in one phase will impact the
precision tolerance of the other phase" (the paper's parenthesised
values).

Results are persisted in the experiment cache; the paper's own Table 1 is
included for side-by-side comparison in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..fp.rounding import RoundingMode
from ..perf.sweep import SweepJob, SweepOutcome, SweepRunner
from ..tuning.believability import minimum_precision
from ..workloads import SCENARIO_NAMES, default_steps
from .report import render_table
from .runcache import cached_json

__all__ = [
    "PAPER_TABLE1",
    "PRESET_PRECISIONS",
    "compute_table1",
    "tuned_precisions",
    "render",
]

#: The paper's Table 1 (RN / J / T per phase; combined narrow in parens).
PAPER_TABLE1 = {
    "breakable": {"lcp": (8, 17, 13), "narrow": (17, 10, 23),
                  "narrow_combined": 21},
    "continuous": {"lcp": (4, 4, 4), "narrow": (9, 9, 9),
                   "narrow_combined": 9},
    "deformable": {"lcp": (3, 4, 8), "narrow": (9, 9, 9),
                   "narrow_combined": 9},
    "everything": {"lcp": (10, 10, 23), "narrow": (18, 10, 19),
                   "narrow_combined": 17},
    "explosions": {"lcp": (11, 13, 9), "narrow": (21, 14, 13),
                   "narrow_combined": 14},
    "highspeed": {"lcp": (3, 3, 8), "narrow": (9, 9, 9),
                  "narrow_combined": 9},
    "periodic": {"lcp": (13, 14, 23), "narrow": (22, 21, 23),
                 "narrow_combined": 23},
    "ragdoll": {"lcp": (5, 5, 9), "narrow": (9, 9, 9),
                "narrow_combined": 21},
}

#: Measured minimums for this reproduction (jamming; full-size scenes, 90
#: steps; LCP at its independent minimum, narrow-phase at the
#: combined-tuning minimum).  Tests and quick benchmark modes use these
#: instead of re-running the ~10 minute search; the Table 1 benchmark
#: recomputes them.  Regenerate with ``compute_table1()``.
PRESET_PRECISIONS: Dict[str, Dict[str, int]] = {
    "breakable": {"lcp": 9, "narrow": 6},
    "continuous": {"lcp": 3, "narrow": 6},
    "deformable": {"lcp": 8, "narrow": 4},
    "everything": {"lcp": 9, "narrow": 9},
    "explosions": {"lcp": 11, "narrow": 21},
    "highspeed": {"lcp": 8, "narrow": 10},
    "periodic": {"lcp": 10, "narrow": 8},
    "ragdoll": {"lcp": 9, "narrow": 9},
}

_MODES = (RoundingMode.NEAREST, RoundingMode.JAMMING,
          RoundingMode.TRUNCATION)


@dataclass
class Table1Result:
    """All measured minimum precisions."""

    #: scenario -> phase -> mode value -> bits
    independent: Dict[str, Dict[str, Dict[str, int]]]
    #: scenario -> combined-tuning narrow-phase bits (jamming)
    narrow_combined: Dict[str, int]
    steps: int
    scale: float
    #: total candidate widths simulated across every search cell (the
    #: sum of each cold search's ``stats["probes"]``; ``None`` when the
    #: grid came from the cache)
    probes: Optional[int] = None


def _search_cell(*args, **kwargs) -> SweepOutcome:
    """One grid cell, reporting its probe count through ``ops``."""
    stats: Dict = {}
    bits = minimum_precision(*args, stats=stats, **kwargs)
    return SweepOutcome(bits, ops=stats["probes"])


def compute_table1(
    steps: Optional[int] = None,
    scale: float = 1.0,
    scenarios=None,
    use_cache: bool = True,
    workers: Optional[int] = None,
) -> Table1Result:
    """Run (or load) the full minimum-precision grid.

    The 48 independent (scenario, phase, mode) searches fan out over a
    :class:`~repro.perf.sweep.SweepRunner`; the combined-tuning searches
    follow as a second stage because each depends on its scenario's
    jamming LCP minimum.  Results are identical to the serial order.
    """
    steps = default_steps() if steps is None else steps
    scenarios = list(scenarios or SCENARIO_NAMES)
    computed = {}

    def search() -> dict:
        runner = SweepRunner(workers)
        grid = [SweepJob(
            key=(scenario, phase, mode.value),
            fn=_search_cell,
            args=(scenario,),
            kwargs=dict(phases=(phase,), mode=mode, steps=steps,
                        scale=scale),
        ) for scenario in scenarios
            for phase in ("lcp", "narrow")
            for mode in _MODES]
        results = runner.run(grid)
        probes = sum(r.ops for r in results)
        bits_by_key = {r.key: r.value for r in results}

        independent: Dict[str, Dict[str, Dict[str, int]]] = {}
        for scenario in scenarios:
            independent[scenario] = {
                phase: {mode.value: bits_by_key[(scenario, phase,
                                                 mode.value)]
                        for mode in _MODES}
                for phase in ("lcp", "narrow")}

        # Combined tuning: pin LCP at its jamming minimum, re-search
        # narrow.
        combined = [SweepJob(
            key=(scenario, "narrow_combined"),
            fn=_search_cell,
            args=(scenario,),
            kwargs=dict(
                phases=("narrow",), mode=RoundingMode.JAMMING,
                steps=steps, scale=scale,
                fixed_precision={
                    "lcp": independent[scenario]["lcp"][
                        RoundingMode.JAMMING.value]}),
        ) for scenario in scenarios]
        combined_results = runner.run(combined)
        computed["probes"] = probes + sum(r.ops for r in combined_results)
        return {"independent": independent,
                "narrow_combined": {r.key[0]: r.value
                                    for r in combined_results}}

    if set(scenarios) == set(SCENARIO_NAMES):
        data = cached_json("table1", {"steps": steps, "scale": scale},
                           search, use_cache=use_cache)
    else:  # a partial grid is not cached
        data = search()
    return Table1Result(data["independent"], data["narrow_combined"], steps,
                        scale, probes=computed.get("probes"))


def tuned_precisions(
    result: Optional[Table1Result] = None,
) -> Dict[str, Dict[str, int]]:
    """Per-scenario tuned precision registers {phase: bits} (jamming).

    Uses the Table 1 combined methodology: LCP at its independent
    minimum, narrow-phase at the combined-tuning minimum.  Falls back to
    :data:`PRESET_PRECISIONS` when no measured result is supplied.
    """
    if result is None:
        return {k: dict(v) for k, v in PRESET_PRECISIONS.items()}
    tuned = {}
    for scenario, phases in result.independent.items():
        tuned[scenario] = {
            "lcp": phases["lcp"][RoundingMode.JAMMING.value],
            "narrow": result.narrow_combined[scenario],
        }
    return tuned


def render(result: Table1Result) -> str:
    """Paper-style Table 1 with measured and published values."""
    headers = ["Benchmark",
               "LCP RN", "LCP J", "LCP T",
               "NP RN", "NP J(comb)", "NP T",
               "paper LCP RN/J/T", "paper NP RN/J(comb)/T"]
    rows = []
    for scenario in SCENARIO_NAMES:
        ours = result.independent[scenario]
        paper = PAPER_TABLE1[scenario]
        rows.append([
            scenario,
            ours["lcp"]["rn"], ours["lcp"]["jam"], ours["lcp"]["trunc"],
            ours["narrow"]["rn"],
            f"{ours['narrow']['jam']} ({result.narrow_combined[scenario]})",
            ours["narrow"]["trunc"],
            "/".join(str(b) for b in paper["lcp"]),
            (f"{paper['narrow'][0]}/{paper['narrow'][1]} "
             f"({paper['narrow_combined']})/{paper['narrow'][2]}"),
        ])
    return render_table(
        headers, rows,
        title="Table 1: minimum mantissa bits for believable results")
