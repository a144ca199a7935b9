"""The Jacobi solve's impulse scatter against its goldens.

``solve_rows`` runs hand-built row sets census-free and under the
census.  The wave plan drops the adds on pinned slots and lays each wave
out as a contiguous prefix; velocities, impulses and census counts must
equal the goldens recorded from the op-for-op sweep
(``tests/engine_goldens.py``), bit for bit.
"""

import numpy as np
import pytest

from repro.fp.context import FPContext
from repro.physics import lcp

from .engine_goldens import (bytes_digest, census_counts, load,
                             requires_golden_host)

_BIG = np.float32(3.0e38)


def _rows(rng, ia, ib, n_normal):
    """Random rows: ``n_normal`` contact normals, one friction row per
    normal, and equality rows for the rest."""
    ia = np.asarray(ia, dtype=np.int32)
    ib = np.asarray(ib, dtype=np.int32)
    count = len(ia)
    assert 2 * n_normal <= count
    lo = np.full(count, -_BIG, dtype=np.float32)
    hi = np.full(count, _BIG, dtype=np.float32)
    mu = np.zeros(count, dtype=np.float32)
    normal_index = np.full(count, -1, dtype=np.int32)
    lo[:n_normal] = 0.0
    friction = np.arange(n_normal, 2 * n_normal)
    normal_index[friction] = np.arange(n_normal)
    lo[friction] = 0.0
    hi[friction] = 0.0
    mu[friction] = 0.6
    rows = lcp.ConstraintRows(
        ia=ia, ib=ib, jla=None, jaa=None, jlb=None, jab=None,
        rhs=rng.standard_normal(count).astype(np.float32),
        lo=lo, hi=hi, mu=mu, normal_index=normal_index)
    rows.jacobian = rng.standard_normal((count, 12)).astype(np.float32)
    rows.inv_mass_jt = (0.2 * rng.standard_normal((count, 12))).astype(
        np.float32)
    rows.inv_d = (0.05 + rng.random(count)).astype(np.float32)
    rows.lam = np.where(rng.random(count) < 0.3,
                        rng.random(count), 0.0).astype(np.float32)
    return rows


def _ground_heavy(rng):
    """Pinned slot 0 out-degrees every body: ground contacts."""
    ia = [0] * 24 + [1, 2, 3, 4, 1, 2]
    ib = [1 + k % 5 for k in range(24)] + [2, 3, 4, 5, 5, 5]
    return 7, [0], _rows(rng, ia, ib, n_normal=10)


def _merged_fleet(rng):
    """Three stacked worlds of five slots, each ending in its pinned
    world body, concatenated as ``WorldBatch`` does."""
    ia, ib, pinned = [], [], []
    for world in range(3):
        base = 5 * world
        local_a = [4, 4, 4, 0, 1, 0, 2]
        local_b = [0, 1, 2, 1, 2, 3, 3]
        ia += [base + a for a in local_a]
        ib += [base + b for b in local_b]
        pinned.append(base + 4)
    return 16, pinned, _rows(rng, ia, ib, n_normal=6)


def _busy_body(rng):
    """Dynamic body 3 sits in far more rows than anything else."""
    others = [1, 2, 4, 5, 6]
    ia = [3] * 40 + [0, 1, 2]
    ib = [others[k % 5] for k in range(40)] + [1, 2, 6]
    return 8, [0], _rows(rng, ia, ib, n_normal=15)


LAYOUTS = {"ground_heavy": _ground_heavy, "merged_fleet": _merged_fleet,
           "busy_body": _busy_body}


def solve(layout, precision, mode, census=False):
    """Velocities, impulses and census of one solve of ``layout``."""
    rng = np.random.default_rng(sorted(LAYOUTS).index(layout))
    n_slots, pinned, rows = LAYOUTS[layout](rng)
    # Nonzero pinned velocities: the first gather reads them; the last
    # slot is in no row and must keep its raw incoming velocity.
    vel = rng.standard_normal((n_slots, 6)).astype(np.float32)
    ctx = FPContext({"lcp": precision}, mode=mode, census=census)
    with ctx.in_phase("lcp"):
        lcp.solve_rows(ctx, vel, rows, lcp.SolverParams(),
                       np.array(pinned, dtype=np.int64))
    return vel, rows.lam, ctx.stats


@requires_golden_host
@pytest.mark.parametrize("precision", [9, 23])
@pytest.mark.parametrize("mode", ["rn", "jam", "trunc"])
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_fast_scatter_matches_op_for_op(layout, mode, precision):
    want = load()["scatter"][f"{layout}-{mode}-{precision}"]
    vel, lam, _ = solve(layout, precision, mode)
    assert np.isfinite(vel).all()
    assert bytes_digest([vel.tobytes(), lam.tobytes()]) == want["free"]
    vel, lam, stats = solve(layout, precision, mode, census=True)
    assert (bytes_digest([vel.tobytes(), lam.tobytes()])
            == want["census"]["digest"])
    assert census_counts(stats) == want["census"]["counts"]


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_layouts_exercise_the_plan(layout):
    """Each layout has the shape its name promises."""
    n_slots, pinned, rows = LAYOUTS[layout](np.random.default_rng(0))
    degree = np.bincount(np.concatenate([rows.ia, rows.ib]),
                         minlength=n_slots)
    dynamic = np.delete(degree, pinned)
    assert degree[n_slots - 1] == 0
    if layout == "ground_heavy":
        assert degree[pinned].max() > dynamic.max()
    elif layout == "merged_fleet":
        assert len(pinned) == 3 and (degree[pinned] > 0).all()
    else:
        assert dynamic.max() >= 4 * np.sort(dynamic)[-2]
