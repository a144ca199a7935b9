"""Engine goldens: trajectory digests and census counts, and their recorder.

The goldens pin what the engine computes, census-free and under the
trivialization census, so that the hot loops can be restructured with
no op-for-op copy left to compare against:

* ``census_free`` -- per scene, the state digest after each of 20 steps
  at ``PRESET_PRECISIONS``, full scale;
* ``census`` -- per scene at scale 0.25 for 12 steps (explosions
  detonates at step 10), Table 4's two arms (round-to-nearest at full
  and at tuned precision, memoization on) and the jamming arm Figures
  5-8 read: per-step digests and every ``(phase, op)`` counter;
* ``solver`` -- one Gauss-Seidel and one warm-started census run;
* ``scatter`` and ``box_jumble`` -- the parametrized cases of
  ``tests/test_scatter_plan.py`` and of ``test_narrowphase``'s stacked
  box-box epilogue test, census-free and under the census.

The digests are float bits, which hold for numpy's AVX2+FMA3 dispatch
on x86-64 (``perfbench/README.md`` has the same condition); the data
file records the numpy version and CPU features it was made with, and
the tests skip elsewhere.  Record from the repository root with::

    PYTHONPATH=src python -m tests.engine_goldens

and only from a commit whose engine output is the intended reference.
It prints the new ``ENGINE_FINGERPRINT`` for the run cache's keys.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.experiments.table1 import PRESET_PRECISIONS
from repro.fp import FPContext
from repro.memo.memo_table import MemoBank
from repro.perf.sweep import SweepJob, SweepRunner
from repro.physics import SolverParams
from repro.workloads import SCENARIO_NAMES, build

GOLDENS_PATH = Path(__file__).with_name("data") / "engine_goldens.json"

TRAJECTORY_STEPS = 20
CENSUS_STEPS = 12
CENSUS_SCALE = 0.25
#: ``runcache.census_stats``'s memo budget: the Table 4 arms use it.
MEMO_BUDGET = 400_000
#: Memo hit rates may move this many points when the probe order changes.
HIT_RATE_POINTS = 2.0

#: arm -> (tuned precision?, rounding mode, memoization on?)
CENSUS_ARMS = {
    "rn_full": (False, "rn", True),
    "rn_tuned": (True, "rn", True),
    "jam_tuned": (True, "jam", False),
}
#: variant -> (scene, SolverParams overrides); jamming at tuned
#: precision with memoization on.
SOLVER_VARIANTS = {
    "gauss_seidel": ("ragdoll", {"scheme": "gauss_seidel"}),
    "warm_start": ("breakable", {"warm_start": True}),
}
#: Census jobs run on this many processes (the file's runtime budget).
WORKERS = 2


def simd_features() -> Dict[str, bool]:
    """The CPU features numpy dispatches to that the recorded bits need."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return {name: bool(__cpu_features__.get(name, False))
            for name in ("AVX2", "FMA3")}


def host() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine(),
            "python": platform.python_version(), **simd_features()}


def _host_matches() -> bool:
    features = simd_features()
    return (platform.machine().lower() in ("x86_64", "amd64")
            and features["AVX2"] and features["FMA3"])


#: Marks a test that compares against the recorded float bits.
requires_golden_host = pytest.mark.skipif(
    not _host_matches(),
    reason="engine goldens are float bits recorded with numpy's "
           "AVX2+FMA3 dispatch on x86-64; this numpy lacks it")


def load() -> dict:
    with GOLDENS_PATH.open() as handle:
        return json.load(handle)


def engine_fingerprint(goldens: dict) -> str:
    """``runcache.ENGINE_FINGERPRINT`` for these goldens: the first 16
    hex digits of the sha256 of their canonical JSON, ``host`` left
    out, so it names what the engine computes and not where."""
    blob = json.dumps({k: v for k, v in goldens.items() if k != "host"},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# What is recorded
# ----------------------------------------------------------------------
def world_digest(world) -> str:
    """Hash every mutable simulation array (world row included)."""
    bodies = world.bodies
    bodies.ensure_world_row()
    h = hashlib.sha256()
    h.update(str(world.step_count).encode())
    for name in ("pos", "quat", "linvel", "angvel", "asleep"):
        h.update(bodies.view(name).tobytes())
    for cloth in world.cloths:
        h.update(cloth.pos.tobytes())
        h.update(cloth.vel.tobytes())
    return h.hexdigest()


def bytes_digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def census_counts(stats) -> Dict[str, List[int]]:
    """``{"phase/op": [total, conventional, extended, lookups, hits]}``."""
    return {f"{phase}/{op}": [c.total, c.conventional_trivial,
                              c.extended_trivial, c.memo_lookups,
                              c.memo_hits]
            for (phase, op), c in sorted(stats.items())}


def census_free_trajectory(scene: str) -> List[str]:
    ctx = FPContext(dict(PRESET_PRECISIONS[scene]), census=False)
    world = build(scene, ctx=ctx)
    digests = []
    for _ in range(TRAJECTORY_STEPS):
        world.step()
        digests.append(world_digest(world))
    return digests


def census_run(scene: str, tuned: bool, mode: str, memo: bool,
               solver: Optional[dict] = None) -> dict:
    """Per-step digests and the census of one scaled-down census run."""
    precision = dict(PRESET_PRECISIONS[scene]) if tuned else None
    ctx = FPContext(precision, mode=mode,
                    memo=MemoBank() if memo else None,
                    memo_budget=MEMO_BUDGET if memo else None, census=True)
    world = build(scene, ctx=ctx, scale=CENSUS_SCALE,
                  solver=SolverParams(**solver) if solver else None)
    digests = []
    for _ in range(CENSUS_STEPS):
        world.step()
        digests.append(world_digest(world))
    return {"digests": digests, "counts": census_counts(ctx.stats),
            "memo_exhausted": memo and ctx.memo_budget == 0}


def census_jobs() -> List[SweepJob]:
    jobs = [SweepJob(key=("census", scene, arm), fn=census_run,
                     args=(scene,) + CENSUS_ARMS[arm])
            for scene in SCENARIO_NAMES for arm in CENSUS_ARMS]
    jobs += [SweepJob(key=("solver", variant), fn=census_run,
                      args=(scene, True, "jam", True, overrides))
             for variant, (scene, overrides) in SOLVER_VARIANTS.items()]
    return jobs


def run_census_jobs() -> Dict[tuple, dict]:
    results = SweepRunner(WORKERS).run(census_jobs())
    return {result.key: result.value for result in results}


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def _hit_rates(counts) -> Dict[str, float]:
    """Memo hit rate in points per (phase, table); add and sub share."""
    sums: Dict[str, List[int]] = {}
    for key, (_, _, _, lookups, hits) in counts.items():
        phase, op = key.split("/")
        table = f"{phase}/{'mul' if op == 'mul' else 'add'}"
        acc = sums.setdefault(table, [0, 0])
        acc[0] += lookups
        acc[1] += hits
    return {table: 100.0 * hits / lookups
            for table, (lookups, hits) in sums.items() if lookups}


def assert_census_matches(got: dict, want: dict) -> None:
    """Digests and trivialization counts exactly; memo lookups exactly
    unless the run spent its whole budget (then which ops got probes
    follows the probe order, and only the total holds); memo hit rates
    within ``HIT_RATE_POINTS``."""
    assert got["digests"] == want["digests"]
    counts, recorded = got["counts"], want["counts"]
    assert sorted(counts) == sorted(recorded)
    for key, (total, conv, ext, lookups, _) in recorded.items():
        assert counts[key][:3] == [total, conv, ext], key
        if not want["memo_exhausted"]:
            assert counts[key][3] == lookups, key
    assert (sum(c[3] for c in counts.values())
            == sum(c[3] for c in recorded.values()))
    rates, recorded_rates = _hit_rates(counts), _hit_rates(recorded)
    assert sorted(rates) == sorted(recorded_rates)
    for table, rate in recorded_rates.items():
        assert abs(rates[table] - rate) <= HIT_RATE_POINTS, table


# ----------------------------------------------------------------------
# Recording
# ----------------------------------------------------------------------
def record() -> dict:
    from tests import test_narrowphase, test_scatter_plan

    census = run_census_jobs()
    scatter = {}
    for layout in sorted(test_scatter_plan.LAYOUTS):
        for mode in ("rn", "jam", "trunc"):
            for precision in (9, 23):
                free = test_scatter_plan.solve(layout, precision, mode)
                vel, lam, stats = test_scatter_plan.solve(
                    layout, precision, mode, census=True)
                scatter[f"{layout}-{mode}-{precision}"] = {
                    "free": bytes_digest([free[0].tobytes(),
                                          free[1].tobytes()]),
                    "census": {"digest": bytes_digest([vel.tobytes(),
                                                       lam.tobytes()]),
                               "counts": census_counts(stats)}}
    jumble = {}
    for mode in ("rn", "jam", "trunc"):
        for precision in (8, 23):
            jumble[f"{mode}-{precision}"] = {
                "free": test_narrowphase.box_jumbles(mode, precision)[0],
                "census": dict(zip(
                    ("digest", "counts"),
                    test_narrowphase.box_jumbles(mode, precision,
                                                 census=True)))}
    return {
        "host": host(),
        "census_free": {scene: census_free_trajectory(scene)
                        for scene in SCENARIO_NAMES},
        "census": {scene: {arm: census[("census", scene, arm)]
                           for arm in CENSUS_ARMS}
                   for scene in SCENARIO_NAMES},
        "solver": {variant: census[("solver", variant)]
                   for variant in SOLVER_VARIANTS},
        "scatter": scatter,
        "box_jumble": jumble,
    }


def main() -> int:
    goldens = record()
    GOLDENS_PATH.parent.mkdir(exist_ok=True)
    GOLDENS_PATH.write_text(json.dumps(goldens, indent=1, sort_keys=True)
                            + "\n")
    print(f"wrote {GOLDENS_PATH}", file=sys.stderr)
    # The run cache keys on it: a changed value retires old entries.
    print(f"ENGINE_FINGERPRINT = {engine_fingerprint(goldens)!r} "
          f"(src/repro/experiments/runcache.py)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
