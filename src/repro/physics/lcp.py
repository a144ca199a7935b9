"""Mixed LCP constraint solver (the paper's "LCP" phase).

Contacts and joints are assembled into constraint rows and relaxed
iteratively, ODE-quickstep style: 20 iterations by default, velocity-level
with Baumgarte position stabilization.  We use projected *Jacobi with mass
splitting* instead of strict Gauss-Seidel so the whole row set updates as
vector operations through the :class:`~repro.fp.FPContext` — every
elementary add/sub/mul of the solve runs at the tuned ``lcp`` precision
(see DESIGN.md for why this substitution preserves the paper-relevant
behaviour: it is the same loosely-coupled relaxation structure).

Row convention: each row ``r`` couples bodies ``ia[r]``/``ib[r]`` with
Jacobian blocks (Jla, Jaa, Jlb, Jab) such that the constraint-space
velocity is ``J v = Jla.va + Jaa.wa + Jlb.vb + Jab.wb``; impulses apply as
``dv = invmass * J_lin * dlambda``, ``dw = I_world^-1 (J_ang * dlambda)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..fp.context import FPContext
from . import math3d
from .body import BodyStore
from .joints import JointStore
from .narrowphase import ContactSet

__all__ = ["ConstraintRows", "SolverParams", "ContactCache",
           "build_rows", "solve", "solve_worlds", "solve_rows",
           "solver_residual", "apply_warm_start_impulses"]

_BIG = np.float32(3.0e38)


@dataclass
class SolverParams:
    """Tunables of the relaxation (ODE-like defaults)."""

    iterations: int = 20
    #: Baumgarte factor (fraction of position error corrected per step)
    beta: float = 0.2
    #: penetration allowed before the bias kicks in
    slop: float = 0.005
    #: cap on bias velocity to avoid energy explosions
    max_bias_velocity: float = 4.0
    #: constraint force mixing (diagonal regularization)
    cfm: float = 1.0e-5
    #: relative normal speed below which restitution is ignored
    restitution_threshold: float = 0.25
    #: "jacobi" (mass-split, fully vectorized — the default) or
    #: "gauss_seidel" (ODE-quickstep-style sequential relaxation,
    #: realised as conflict-free colored batches)
    scheme: str = "jacobi"
    #: carry contact impulses across steps (persistent contacts); speeds
    #: convergence of resting stacks and strengthens cross-step value
    #: locality
    warm_start: bool = False
    #: fraction of the cached impulse applied on re-match
    warm_start_factor: float = 0.85


@dataclass
class ConstraintRows:
    """Struct-of-arrays for all rows of one step."""

    ia: np.ndarray
    ib: np.ndarray
    jla: np.ndarray
    jaa: np.ndarray
    jlb: np.ndarray
    jab: np.ndarray
    rhs: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    mu: np.ndarray
    normal_index: np.ndarray
    inv_d: np.ndarray = field(default=None)
    lam: np.ndarray = field(default=None)
    #: stacked Jacobian blocks (R, 12): [Jla | Jaa | Jlb | Jab]
    jacobian: np.ndarray = field(default=None, repr=False)
    #: M^-1 J^T blocks (R, 12), true (unsplit) masses
    inv_mass_jt: np.ndarray = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.rhs)

    @property
    def contact_normal_rows(self) -> np.ndarray:
        """Mask of unilateral (contact normal) rows."""
        return (self.lo == 0) & (self.normal_index < 0)


def _orthonormal_tangents(normals: np.ndarray):
    """Two unit tangents per normal (plain numpy; frame choice only).

    Degenerate normals (zero or non-finite, possible transiently at very
    low precisions) yield zero tangents: their friction rows apply no
    impulse instead of poisoning the solve with NaNs.
    """
    n = np.nan_to_num(normals.astype(np.float64))
    helper = np.where(
        (np.abs(n[:, 0]) < 0.9)[:, None],
        np.array([1.0, 0.0, 0.0])[None, :],
        np.array([0.0, 1.0, 0.0])[None, :],
    )
    t1 = np.cross(n, helper)
    lengths = np.linalg.norm(t1, axis=1, keepdims=True)
    t1 /= np.maximum(lengths, 1e-12)
    t1[lengths[:, 0] < 1e-9] = 0.0
    t2 = np.cross(n, t1)
    return t1.astype(np.float32), t2.astype(np.float32)


def build_rows(
    ctx: FPContext,
    bodies: BodyStore,
    contacts: ContactSet,
    joints: Optional[JointStore],
    dt: float,
    params: SolverParams,
) -> ConstraintRows:
    """Assemble contact (normal + 2 friction) and joint rows."""
    blocks = []

    if len(contacts):
        blocks.append(_contact_rows(ctx, bodies, contacts, dt, params))
    if joints is not None and len(joints):
        blocks.append(_joint_rows(ctx, bodies, joints, dt, params))
    if not blocks:
        empty3 = np.empty((0, 3), dtype=np.float32)
        empty = np.empty(0, dtype=np.float32)
        rows = ConstraintRows(
            ia=np.empty(0, dtype=np.int32), ib=np.empty(0, dtype=np.int32),
            jla=empty3, jaa=empty3, jlb=empty3, jab=empty3,
            rhs=empty, lo=empty, hi=empty, mu=empty,
            normal_index=np.empty(0, dtype=np.int32),
        )
        rows.inv_d = empty
        rows.lam = empty
        return rows

    offset = 0
    merged = {}
    for name in ("ia", "ib", "jla", "jaa", "jlb", "jab", "rhs", "lo",
                 "hi", "mu"):
        merged[name] = np.concatenate([blk[name] for blk in blocks])
    adjusted = []
    for blk in blocks:
        ni = blk["normal_index"].copy()
        ni[ni >= 0] += offset
        adjusted.append(ni)
        offset += len(blk["rhs"])
    merged["normal_index"] = np.concatenate(adjusted)

    rows = ConstraintRows(**merged)
    _finalize(ctx, bodies, rows, params)
    return rows


def _contact_rows(ctx, bodies, contacts, dt, params):
    """Normal + two friction rows per contact point."""
    m = len(contacts)
    pos = bodies.view("pos")
    linvel = bodies.view("linvel")
    angvel = bodies.view("angvel")

    kern = ctx.kernel()
    ia, ib = contacts.body_a, contacts.body_b
    n = contacts.normal
    nr = kern.enter(n)
    contact_pos = kern.enter(contacts.pos)
    ra = kern.binop(np.subtract, contact_pos, kern.enter(pos[ia]))
    rb = kern.binop(np.subtract, contact_pos, kern.enter(pos[ib]))

    t1, t2 = _orthonormal_tangents(n)

    # Negations are sign-bit flips (MIPS neg.s), not FPU multiplies, so
    # they intentionally bypass the context.
    jla_n, jaa_n = -n, -math3d.cross_r(kern, ra, nr)
    jlb_n, jab_n = n, math3d.cross_r(kern, rb, nr)

    # Pre-solve relative normal velocity for restitution.
    rel_n = (
        math3d.dot_r(kern, -nr, kern.enter(linvel[ia]))
        + math3d.dot_r(kern, jaa_n, kern.enter(angvel[ia]))
        + math3d.dot_r(kern, nr, kern.enter(linvel[ib]))
        + math3d.dot_r(kern, jab_n, kern.enter(angvel[ib]))
    ).astype(np.float32)

    bias = params.beta / dt * np.maximum(contacts.depth - params.slop, 0.0)
    bias = np.minimum(bias, params.max_bias_velocity)
    bounce = contacts.restitution * np.maximum(
        -rel_n - params.restitution_threshold, 0.0
    )
    rhs_n = (-np.maximum(bias, bounce)).astype(np.float32)

    def _friction_block(t):
        tr = kern.enter(t)
        return (-t, -math3d.cross_r(kern, ra, tr), t,
                math3d.cross_r(kern, rb, tr))

    jla_1, jaa_1, jlb_1, jab_1 = _friction_block(t1)
    jla_2, jaa_2, jlb_2, jab_2 = _friction_block(t2)

    zeros = np.zeros(m, dtype=np.float32)
    normal_idx = np.arange(m, dtype=np.int32)
    return {
        "ia": np.concatenate([ia, ia, ia]).astype(np.int32),
        "ib": np.concatenate([ib, ib, ib]).astype(np.int32),
        "jla": np.concatenate([jla_n, jla_1, jla_2]),
        "jaa": np.concatenate([jaa_n, jaa_1, jaa_2]),
        "jlb": np.concatenate([jlb_n, jlb_1, jlb_2]),
        "jab": np.concatenate([jab_n, jab_1, jab_2]),
        "rhs": np.concatenate([rhs_n, zeros, zeros]),
        "lo": np.concatenate([zeros, zeros, zeros]),  # friction lo set live
        "hi": np.concatenate([np.full(m, _BIG, np.float32), zeros, zeros]),
        "mu": np.concatenate([zeros, contacts.friction, contacts.friction]),
        "normal_index": np.concatenate(
            [np.full(m, -1, np.int32), normal_idx, normal_idx]
        ),
    }


def _joint_rows(ctx, bodies, joints, dt, params):
    """Three equality rows per ball joint; five per hinge.

    All joints run as one stacked pass, rows in per-joint order: ball
    point rows first, then per hinge three point rows followed by two
    axis rows.  Anchor geometry runs through elementwise context ops
    batched over the joint axis; only the hinge axis-misalignment rhs
    keeps a scalar loop, a float64 BLAS dot whose bits a float32 array
    pass would not reproduce.
    """
    pos = bodies.view("pos")
    rot = bodies.view("rot")
    world_index = bodies.world_index
    pk = joints.packed()

    n_ball = len(pk["ball_a"])
    n_hinge = len(pk["hinge_a"])
    ja = np.concatenate([pk["ball_a"], pk["hinge_a"]])
    jb = np.concatenate([pk["ball_b"], pk["hinge_b"]])
    ja = np.where(ja < 0, world_index, ja)
    jb = np.where(jb < 0, world_index, jb)
    la = np.concatenate([pk["ball_local_a"], pk["hinge_local_a"]])
    lb = np.concatenate([pk["ball_local_b"], pk["hinge_local_b"]])

    kern = ctx.kernel()
    ra = math3d.matvec(ctx, rot[ja], la)
    rb = math3d.matvec(ctx, rot[jb], lb)
    wa = kern.binop(np.add, kern.enter(pos[ja]), ra)
    wb = kern.binop(np.add, kern.enter(pos[jb]), rb)
    error = kern.binop(np.subtract, wb, wa)  # (J, 3), want -> 0

    eye = np.eye(3, dtype=np.float32)
    scale = np.float32(params.beta / dt)
    # Point-row Jacobian blocks per joint and axis, (J, 3, 3): plain
    # numpy, like the scalar builder's np.cross against basis vectors.
    jaa_pt = -np.cross(ra[:, None, :], eye[None, :, :]).astype(np.float32)
    jab_pt = np.cross(rb[:, None, :], eye[None, :, :]).astype(np.float32)
    rhs_pt = (scale * error).astype(np.float32)

    ia_ball = np.repeat(ja[:n_ball], 3)
    ib_ball = np.repeat(jb[:n_ball], 3)
    jla_ball = np.tile(-eye, (n_ball, 1))
    jaa_ball = jaa_pt[:n_ball].reshape(-1, 3)
    jlb_ball = np.tile(eye, (n_ball, 1))
    jab_ball = jab_pt[:n_ball].reshape(-1, 3)
    rhs_ball = rhs_pt[:n_ball].reshape(-1)

    if n_hinge:
        ha, hb = ja[n_ball:], jb[n_ball:]
        world_a = math3d.matvec(ctx, rot[ha], pk["hinge_axis_a"])
        world_b = math3d.matvec(ctx, rot[hb], pk["hinge_axis_b"])
        # Two directions perpendicular to each hinge axis of body A.
        p, q = _orthonormal_tangents(world_a)
        misalign = np.cross(world_a, world_b).astype(np.float32)
        rhs_p = np.empty(n_hinge, dtype=np.float32)
        rhs_q = np.empty(n_hinge, dtype=np.float32)
        for k in range(n_hinge):
            rhs_p[k] = scale * float(misalign[k] @ p[k])
            rhs_q[k] = scale * float(misalign[k] @ q[k])

        h_jla = np.zeros((n_hinge, 5, 3), dtype=np.float32)
        h_jla[:, :3, :] = -eye[None]
        h_jaa = np.zeros((n_hinge, 5, 3), dtype=np.float32)
        h_jaa[:, :3, :] = jaa_pt[n_ball:]
        h_jaa[:, 3, :] = -p
        h_jaa[:, 4, :] = -q
        h_jlb = np.zeros((n_hinge, 5, 3), dtype=np.float32)
        h_jlb[:, :3, :] = eye[None]
        h_jab = np.zeros((n_hinge, 5, 3), dtype=np.float32)
        h_jab[:, :3, :] = jab_pt[n_ball:]
        h_jab[:, 3, :] = p
        h_jab[:, 4, :] = q
        h_rhs = np.empty((n_hinge, 5), dtype=np.float32)
        h_rhs[:, :3] = rhs_pt[n_ball:]
        h_rhs[:, 3] = rhs_p
        h_rhs[:, 4] = rhs_q
        ia_h = np.repeat(ha, 5)
        ib_h = np.repeat(hb, 5)
        h_jla = h_jla.reshape(-1, 3)
        h_jaa = h_jaa.reshape(-1, 3)
        h_jlb = h_jlb.reshape(-1, 3)
        h_jab = h_jab.reshape(-1, 3)
        h_rhs = h_rhs.reshape(-1)
    else:
        empty3 = np.zeros((0, 3), dtype=np.float32)
        ia_h = ib_h = np.zeros(0, dtype=np.int64)
        h_jla = h_jaa = h_jlb = h_jab = empty3
        h_rhs = np.zeros(0, dtype=np.float32)

    count = 3 * n_ball + 5 * n_hinge
    return {
        "ia": np.concatenate([ia_ball, ia_h]).astype(np.int32),
        "ib": np.concatenate([ib_ball, ib_h]).astype(np.int32),
        "jla": np.concatenate([jla_ball, h_jla]).astype(np.float32),
        "jaa": np.concatenate([jaa_ball, h_jaa]).astype(np.float32),
        "jlb": np.concatenate([jlb_ball, h_jlb]).astype(np.float32),
        "jab": np.concatenate([jab_ball, h_jab]).astype(np.float32),
        "rhs": np.concatenate([rhs_ball, h_rhs]).astype(np.float32),
        "lo": np.full(count, -_BIG, dtype=np.float32),
        "hi": np.full(count, _BIG, dtype=np.float32),
        "mu": np.zeros(count, dtype=np.float32),
        "normal_index": np.full(count, -1, dtype=np.int32),
    }


def _tree_sum(kern, arr: np.ndarray) -> np.ndarray:
    """Sum an (R, W) array of kernel results over axis 1 with reduced
    pairwise adds."""
    while arr.shape[1] > 1:
        width = arr.shape[1]
        half = width // 2
        summed = kern.binop(np.add, arr[:, :half], arr[:, half: 2 * half])
        if width % 2:
            summed = np.concatenate([summed, arr[:, -1:]], axis=1)
        arr = summed
    return arr[:, 0]


def _finalize(ctx, bodies, rows: ConstraintRows, params) -> None:
    """Stack Jacobians, compute M^-1 J^T and the mass-split diagonal."""
    invmass = bodies.view("invmass")
    inv_inertia = bodies.view("inv_inertia_world")
    n_slots = bodies.world_index + 1

    rows.jacobian = np.concatenate(
        [rows.jla, rows.jaa, rows.jlb, rows.jab], axis=1
    ).astype(np.float32)

    kern = ctx.kernel()
    jac = kern.enter(rows.jacobian)
    im_a = kern.enter(invmass[rows.ia])
    im_b = kern.enter(invmass[rows.ib])
    lin_a = math3d.scale_r(kern, jac[:, 0:3], im_a)
    ang_a = math3d.matvec_r(kern, kern.enter(inv_inertia[rows.ia]),
                            jac[:, 3:6])
    lin_b = math3d.scale_r(kern, jac[:, 6:9], im_b)
    ang_b = math3d.matvec_r(kern, kern.enter(inv_inertia[rows.ib]),
                            jac[:, 9:12])
    rows.inv_mass_jt = np.concatenate(
        [lin_a, ang_a, lin_b, ang_b], axis=1
    ).astype(np.float32)

    # Constraint degree per body: Jacobi mass splitting scales the
    # effective-mass diagonal up so simultaneous row updates contract.
    # Gauss-Seidel updates rows sequentially and needs no splitting.
    if params.scheme == "gauss_seidel":
        degree = np.ones(n_slots, dtype=np.float32)
    else:
        degree = np.zeros(n_slots, dtype=np.float32)
        np.add.at(degree, rows.ia, 1.0)
        np.add.at(degree, rows.ib, 1.0)
        degree = np.maximum(degree, 1.0)

    d_a = _tree_sum(kern, kern.binop(np.multiply, jac[:, :6],
                                     rows.inv_mass_jt[:, :6]))
    d_b = _tree_sum(kern, kern.binop(np.multiply, jac[:, 6:],
                                     rows.inv_mass_jt[:, 6:]))
    d = kern.binop(np.add,
                   kern.binop(np.multiply, d_a, kern.enter(degree[rows.ia])),
                   kern.binop(np.multiply, d_b, kern.enter(degree[rows.ib])))
    d = kern.binop(np.add, d, kern.enter(np.float32(params.cfm)))
    rows.inv_d = kern.div(np.float32(1.0), d)
    rows.lam = np.zeros(len(rows), dtype=np.float32)


def _color_rows(rows: ConstraintRows, world_index: int):
    """Partition rows into batches with no body shared inside a batch.

    Rows touching only the immovable world body never conflict through
    it (its velocity is pinned), so ground contacts parallelize freely.
    Within a batch the vectorized update has exact Gauss-Seidel
    semantics; batches execute sequentially in row order.
    """
    batches = []        # list of lists of row indices
    occupancy = []      # per batch: set of body ids
    for r in range(len(rows)):
        touched = {int(rows.ia[r]), int(rows.ib[r])} - {world_index}
        for color, bodies_in_batch in enumerate(occupancy):
            if not (touched & bodies_in_batch):
                batches[color].append(r)
                bodies_in_batch |= touched
                break
        else:
            batches.append([r])
            occupancy.append(set(touched))
    return [np.array(batch, dtype=np.int64) for batch in batches]


def solve(
    ctx: FPContext,
    bodies: BodyStore,
    rows: ConstraintRows,
    params: SolverParams,
) -> None:
    """Relax the mixed LCP, updating body velocities in place."""
    if len(rows) == 0:
        return
    if params.scheme == "gauss_seidel":
        _solve_gauss_seidel(ctx, bodies, rows, params)
        return
    if params.scheme != "jacobi":
        raise ValueError(f"unknown solver scheme: {params.scheme!r}")
    linvel = bodies.view("linvel")
    angvel = bodies.view("angvel")
    vel = np.concatenate([linvel, angvel], axis=1).astype(np.float32)
    pinned = np.array([bodies.world_index], dtype=np.int64)
    solve_rows(ctx, vel, rows, params, pinned)
    linvel[:] = vel[:, :3]
    angvel[:] = vel[:, 3:]


def solve_worlds(
    ctx: FPContext,
    stores: Sequence[BodyStore],
    rows_list: Sequence[ConstraintRows],
    params: SolverParams,
) -> None:
    """Relax the rows of K independent worlds: the K-world :func:`solve`.

    ``rows_list[k]`` holds world ``k``'s rows against ``stores[k]``.
    When more than one world has rows under the Jacobi scheme, the row
    sets are concatenated and relaxed in one :func:`solve_rows` call:
    world ``k``'s body slots are offset by the slot count of worlds
    ``0..k-1`` (``count + 1`` each, the virtual world body included),
    friction rows' normal indices by the running row count, and every
    world body is pinned.  The solver's stable incidence sort then
    applies each body's impulses in the order K separate solves would,
    so the result is the same bit for bit.  Otherwise each world is
    solved on its own.
    """
    active = list(zip(stores, rows_list))
    if len(active) > 1:
        active = [(bodies, rows) for bodies, rows in active if len(rows)]
    if (len(active) < 2 or params.scheme != "jacobi"
            or params.iterations <= 0):
        for bodies, rows in active:
            solve(ctx, bodies, rows, params)
        return

    slot_base = []
    vels = []
    base = 0
    for bodies, _ in active:
        slot_base.append(base)
        vels.append(np.concatenate(
            [bodies.view("linvel"), bodies.view("angvel")],
            axis=1).astype(np.float32))
        base += bodies.world_index + 1
    vel = np.concatenate(vels, axis=0)

    row_counts = [len(rows) for _, rows in active]
    row_base = np.concatenate(
        [[0], np.cumsum(row_counts[:-1])]).astype(np.int64)
    adjusted_ni = []
    for (_, rows), rbase in zip(active, row_base):
        ni = rows.normal_index.copy()
        ni[ni >= 0] += np.int32(rbase)
        adjusted_ni.append(ni)

    def _cat(attr):
        return np.concatenate([getattr(rows, attr) for _, rows in active])

    merged = ConstraintRows(
        ia=np.concatenate([rows.ia.astype(np.int64) + sbase
                           for (_, rows), sbase in zip(active, slot_base)]),
        ib=np.concatenate([rows.ib.astype(np.int64) + sbase
                           for (_, rows), sbase in zip(active, slot_base)]),
        jla=None, jaa=None, jlb=None, jab=None,
        rhs=_cat("rhs"), lo=_cat("lo"), hi=_cat("hi"), mu=_cat("mu"),
        normal_index=np.concatenate(adjusted_ni),
    )
    merged.inv_d = _cat("inv_d")
    merged.lam = _cat("lam")
    merged.jacobian = _cat("jacobian")
    merged.inv_mass_jt = _cat("inv_mass_jt")
    pinned = np.array([sbase + bodies.world_index
                       for (bodies, _), sbase in zip(active, slot_base)],
                      dtype=np.int64)

    solve_rows(ctx, vel, merged, params, pinned)

    for (bodies, rows), sbase, rbase, rcount in zip(
            active, slot_base, row_base, row_counts):
        sub = vel[sbase:sbase + bodies.world_index + 1]
        bodies.view("linvel")[:] = sub[:, :3]
        bodies.view("angvel")[:] = sub[:, 3:]
        rows.lam = merged.lam[rbase:rbase + rcount]


def solve_rows(
    ctx: FPContext,
    vel: np.ndarray,
    rows: ConstraintRows,
    params: SolverParams,
    pinned: np.ndarray,
) -> None:
    """Jacobi-relax ``rows`` against a ``(n_slots, 6)`` velocity array.

    ``vel`` is ``[linvel | angvel]`` per slot, updated in place;
    ``pinned`` lists slot indices held at zero velocity — one virtual
    world body per world, so :func:`solve_worlds` can solve the
    concatenated rows of K worlds in one call.
    """
    if len(rows) == 0 or params.iterations <= 0:
        return
    _solve_jacobi(ctx.kernel(), vel, rows, params, pinned)


class _WavePlan:
    """The impulse scatter of one Jacobi solve.

    The 2R (row, side) incidences are applied body by body in row order,
    all ``ia`` sides before all ``ib`` sides; wave ``k`` adds the k-th
    impulse of every body that has one, one kernel add per wave with no
    zero padding, so the census sees exactly the adds real hardware
    would execute.  Each wave is a few contiguous slices:

    * the bodies sit in :attr:`vel` by descending degree, so wave ``k``
      is the prefix ``vel[:n_k]`` plus one block of the wave-ordered
      increment buffer, and its float32 and uint32 views are built once;
    * incidences on ``pinned`` slots leave the waves: those velocities
      are zeroed after every iteration, before anything reads them.  A
      counting kernel still gets their adds, every iteration's chain
      stacked into one set of waves after the solve (:meth:`finish`).

    :attr:`vel` holds the entered velocities of the dynamic bodies, then
    of the pinned slots the rows touch (read by the first gather only).
    """

    def __init__(self, kern, rows: ConstraintRows, vel: np.ndarray,
                 pinned: np.ndarray) -> None:
        self.kern = kern
        n_rows = len(rows)
        is_pinned = np.zeros(vel.shape[0], dtype=bool)
        is_pinned[pinned] = True
        inc_body = np.concatenate([rows.ia, rows.ib]).astype(np.int64)
        # Incidence i is side i // R of row i % R, which the (2R, 6) view
        # of the (R, 12) per-row increments holds at 2 * (i % R) + i // R.
        inc_src = np.concatenate([np.arange(0, 2 * n_rows, 2),
                                  np.arange(1, 2 * n_rows, 2)])
        live = ~is_pinned[inc_body]
        self.dynamic, self._src, sizes = _wave_layout(inc_body[live],
                                                      inc_src[live])
        slots = np.concatenate([self.dynamic, np.unique(inc_body[~live])])
        compact = np.zeros(vel.shape[0], dtype=np.int64)
        compact[slots] = np.arange(len(slots))
        self._gather = np.empty(2 * n_rows, dtype=np.int64)
        self._gather[0::2] = compact[rows.ia]
        self._gather[1::2] = compact[rows.ib]

        n_dyn = len(self.dynamic)
        self.vel = kern.enter(vel[slots])
        self._pinned_tail = self.vel[n_dyn:]
        self._inc = np.empty((len(self._src), 6), dtype=np.float32)
        scratch = np.empty(6 * n_dyn, dtype=np.uint32)
        self._waves = []
        start = 0
        for size in sizes:
            prefix = self.vel[:size]
            self._waves.append((prefix, prefix.reshape(-1).view(np.uint32),
                                self._inc[start:start + size],
                                scratch[:6 * size]))
            start += size

        #: per iteration, the pinned-slot increments a counting kernel
        #: adds up in :meth:`finish`
        self._discarded = None
        if kern.counts and not live.all():
            self._pinned_slots, self._pinned_src, self._pinned_sizes = \
                _wave_layout(inc_body[~live], inc_src[~live])
            self._pinned_start = vel[self._pinned_slots]
            self._discarded = []

    def gather(self, out: np.ndarray) -> None:
        """``out[r] = [vel[ia[r]] | vel[ib[r]]]`` for an ``(R, 12)`` out."""
        # Every index is in range; mode="clip" only skips the buffered
        # copy numpy's default mode makes when given ``out``.
        np.take(self.vel, self._gather, axis=0, out=out.reshape(-1, 6),
                mode="clip")

    def scatter(self, dvw: np.ndarray) -> None:
        """Apply one iteration's ``(R, 12)`` per-row increments."""
        increments = dvw.reshape(-1, 6)
        np.take(increments, self._src, axis=0, out=self._inc,
                mode="clip")  # in range, as in gather()
        self.kern.add_waves(self._waves)
        if self._discarded is not None:
            self._discarded.append(np.take(increments, self._pinned_src,
                                           axis=0))
        self._pinned_tail[:] = 0.0

    def finish(self) -> None:
        """Hand a counting kernel the pinned slots' adds of every
        iteration: chain (slot, iteration) starts from the slot's
        incoming velocity in the first iteration and from zero after."""
        if not self._discarded:
            return
        iterations = len(self._discarded)
        per_iteration = len(self._pinned_src)
        n_slots = len(self._pinned_slots)
        start = np.zeros((n_slots, iterations, 6), dtype=np.float32)
        start[:, 0] = self._pinned_start
        offsets = np.concatenate(
            [[0], np.cumsum(self._pinned_sizes)[:-1]])
        steps = np.arange(iterations) * per_iteration
        index = np.concatenate(
            [(steps[None, :] + (offset + np.arange(size))[:, None]).ravel()
             for offset, size in zip(offsets, self._pinned_sizes)])
        self.kern.discarded_adds(start.reshape(-1, 6),
                                 np.concatenate(self._discarded), index,
                                 [iterations * size
                                  for size in self._pinned_sizes])


def _wave_layout(inc_body: np.ndarray, inc_src: np.ndarray):
    """Order incidences into waves.

    Returns the bodies by descending degree, the incidence sources in
    wave order (wave ``k`` holds the k-th incidence, in the given order,
    of every body of degree > k, bodies in that order) and the wave
    sizes.
    """
    order = np.argsort(inc_body, kind="stable")
    body = inc_body[order]
    src = inc_src[order]
    bodies, first, degree = np.unique(body, return_index=True,
                                      return_counts=True)
    by_degree = np.argsort(-degree, kind="stable")
    bodies = bodies[by_degree]
    rank = np.empty(len(bodies), dtype=np.int64)
    rank[by_degree] = np.arange(len(bodies))
    degree_hist = np.bincount(degree, minlength=1)
    sizes = len(bodies) - np.cumsum(degree_hist)[:-1]
    starts = np.concatenate([[0], np.cumsum(sizes)])
    position = np.arange(len(body)) - np.repeat(first, degree)
    wave_src = np.empty(len(body), dtype=np.int64)
    wave_src[starts[position] + rank[np.repeat(np.arange(len(first)),
                                               degree)]] = src
    return bodies, wave_src, sizes


def _solve_jacobi(kern, vel, rows, params, pinned):
    """Jacobi sweep executed through the context's kernel.

    Every solver input enters the kernel once: census-free, that
    pre-reduces it, and only op *results* are rounded afterwards
    (rounding is idempotent in all three modes, so ``round(op(round(a),
    round(b)))`` equals the fused round-a/round-b/op/round-result kernel
    bit for bit); under the census, inputs enter raw and every op rounds
    its operands, because bypass lanes keep unreduced values.  ``lam``
    keeps a raw master beside the entered shadow because its values can
    leave the reduced domain (``np.clip`` against unreduced bounds like
    ``_BIG``); the velocities live in the :class:`_WavePlan`, and slots
    no row touches keep their incoming raw values.  Operand order
    follows ``lam + (rel + rhs) * -inv_d``: it decides bypass ties and
    memo keys.
    """
    plan = _WavePlan(kern, rows, vel, pinned)
    jac = kern.enter(rows.jacobian)
    imjt = kern.enter(rows.inv_mass_jt)
    rhs = kern.enter(rows.rhs)
    # ctx.div does not round its result, so inv_d arrives raw.
    neg_inv_d = kern.enter(-rows.inv_d)

    friction_idx = np.nonzero(rows.normal_index >= 0)[0]
    friction_normals = rows.normal_index[friction_idx]
    mu_f = kern.enter(rows.mu[friction_idx])
    has_friction = len(friction_idx) > 0
    lo = rows.lo.copy()
    hi = rows.hi.copy()
    lam = rows.lam            # raw master (post-clip values)
    lamr = kern.enter(lam)    # entered shadow (what ops actually read)

    r_count = len(rows)
    gath = np.empty((r_count, 12), dtype=np.float32)
    prod = np.empty((r_count, 12), dtype=np.float32)
    t6 = np.empty((r_count, 6), dtype=np.float32)
    t3 = np.empty((r_count, 3), dtype=np.float32)
    t2 = np.empty(r_count, dtype=np.float32)
    acc = np.empty(r_count, dtype=np.float32)
    dvw = np.empty((r_count, 12), dtype=np.float32)

    for _ in range(params.iterations):
        plan.gather(gath)
        # J . v: elementwise multiply + the pairwise reduction tree
        # _tree_sum walks for width 12 (6, 3, then cols 0+1, then +2).
        kern.binop_at(np.multiply, jac, gath, prod)
        kern.binop_at(np.add, prod[:, :6], prod[:, 6:], t6)
        kern.binop_at(np.add, t6[:, :3], t6[:, 3:], t3)
        kern.binop_at(np.add, t3[:, 0], t3[:, 1], t2)
        kern.binop_at(np.add, t2, t3[:, 2], acc)

        if has_friction:
            # Coulomb box bounds follow the live normal impulses.
            bound = kern.binop(np.multiply, mu_f, lamr[friction_normals])
            lo[friction_idx] = -bound
            hi[friction_idx] = bound

        # lam + (rel + rhs) * -inv_d, then clip against the raw bounds.
        kern.binop_at(np.add, acc, rhs, acc)
        kern.binop_at(np.multiply, acc, neg_inv_d, acc)
        kern.binop_at(np.add, lamr, acc, acc)
        new_lam = np.clip(acc, lo, hi)
        new_lamr = kern.enter(new_lam)
        delta = kern.binop(np.subtract, new_lamr, lamr)
        lam = new_lam
        lamr = new_lamr

        kern.binop_at(np.multiply, imjt, delta[:, None], dvw)
        plan.scatter(dvw)

    plan.finish()
    rows.lam = lam
    vel[plan.dynamic] = plan.vel[:len(plan.dynamic)]
    vel[pinned] = 0.0


def solver_residual(bodies: BodyStore, rows: ConstraintRows) -> float:
    """Post-solve constraint violation on contact normal rows (m/s).

    The worst remaining approach velocity ``max(0, -(J v + rhs))`` over
    unilateral rows — a converged solve leaves this near zero, a diverged
    or corrupted one leaves it large (or non-finite).  Computed in plain
    float64 outside the precision-reduced context: this is the phase
    guards' diagnostic, part of the monitoring software, not the
    simulated hardware.
    """
    if rows is None or len(rows) == 0:
        return 0.0
    normal = rows.contact_normal_rows
    if not normal.any():
        return 0.0
    linvel = bodies.view("linvel").astype(np.float64)
    angvel = bodies.view("angvel").astype(np.float64)
    vel = np.concatenate([linvel, angvel], axis=1)
    ia = rows.ia[normal]
    ib = rows.ib[normal]
    jac = rows.jacobian[normal].astype(np.float64)
    gathered = np.concatenate([vel[ia], vel[ib]], axis=1)
    rel = np.einsum("ij,ij->i", jac, gathered)
    deficit = -(rel + rows.rhs[normal].astype(np.float64))
    worst = float(deficit.max())
    if not np.isfinite(worst):
        return worst
    return max(0.0, worst)


def _solve_gauss_seidel(
    ctx: FPContext,
    bodies: BodyStore,
    rows: ConstraintRows,
    params: SolverParams,
) -> None:
    """Sequential (ODE-quickstep-style) relaxation via colored batches."""
    world_index = bodies.world_index
    linvel = bodies.view("linvel")
    angvel = bodies.view("angvel")
    vel = np.concatenate([linvel, angvel], axis=1).astype(np.float32)

    if params.iterations > 0 and len(rows):
        batches = _color_rows(rows, world_index)
        _gs_sweep(ctx.kernel(), vel, rows, params, batches, world_index)

    linvel[:] = vel[:, :3]
    angvel[:] = vel[:, 3:]


def _gs_sweep(kern, vel, rows, params, batches, world_index):
    """Colored sweep through the context's kernel.

    Same raw-master/entered-shadow structure as :func:`_solve_jacobi`;
    the ``lamr`` shadow is updated batch by batch so later color batches
    read earlier batches' impulses exactly as the sequential relaxation
    does.  Bodies are unique within a batch except the pinned world
    body, whose adds run (and are counted) but are overwritten.
    """
    jac = kern.enter(rows.jacobian)
    imjt = kern.enter(rows.inv_mass_jt)
    rhs = kern.enter(rows.rhs)
    neg_inv_d = kern.enter(-rows.inv_d)
    mu = kern.enter(rows.mu)
    lam = rows.lam
    lamr = kern.enter(lam)
    lo = rows.lo.copy()
    hi = rows.hi.copy()
    velr = kern.enter(vel)

    batch_meta = []
    for batch in batches:
        friction = rows.normal_index[batch] >= 0
        f_rows = batch[friction]
        batch_meta.append((batch, rows.ia[batch], rows.ib[batch],
                           f_rows, rows.normal_index[f_rows]))

    for _ in range(params.iterations):
        for batch, ia, ib, f_rows, f_norm in batch_meta:
            gathered = np.concatenate([velr[ia], velr[ib]], axis=1)
            prod = kern.binop(np.multiply, jac[batch], gathered)
            t6 = kern.binop(np.add, prod[:, :6], prod[:, 6:])
            t3 = kern.binop(np.add, t6[:, :3], t6[:, 3:])
            t2 = kern.binop(np.add, t3[:, 0], t3[:, 1])
            rel = kern.binop(np.add, t2, t3[:, 2])

            if len(f_rows):
                bound = kern.binop(np.multiply, mu[f_rows], lamr[f_norm])
                lo[f_rows] = -bound
                hi[f_rows] = bound

            acc = kern.binop(np.add, rel, rhs[batch])
            acc = kern.binop(np.multiply, acc, neg_inv_d[batch])
            acc = kern.binop(np.add, lamr[batch], acc)
            new_lam = np.clip(acc, lo[batch], hi[batch])
            new_lamr = kern.enter(new_lam)
            delta = kern.binop(np.subtract, new_lamr, lamr[batch])
            lam[batch] = new_lam
            lamr[batch] = new_lamr

            dvw = kern.binop(np.multiply, imjt[batch], delta[:, None])
            velr[ia] = kern.binop(np.add, velr[ia], dvw[:, :6])
            velr[ib] = kern.binop(np.add, velr[ib], dvw[:, 6:])
            velr[world_index] = 0.0

    rows.lam = lam
    touched = np.unique(np.concatenate([rows.ia, rows.ib]))
    vel[touched] = velr[touched]
    vel[world_index] = 0.0


class ContactCache:
    """Persistent-contact impulse cache for warm starting.

    Contacts are matched across steps by body pair and world-space
    proximity (our narrow phase regenerates contact sets each step, so
    there are no stable feature ids to key on).  Matched contacts start
    the new solve from a fraction of last step's impulses — ODE-style
    warm starting, which both converges resting stacks faster and
    increases the cross-step value locality the paper's memoization
    leans on.
    """

    def __init__(self, match_tolerance: float = 0.08) -> None:
        self.match_tolerance = match_tolerance
        self._store = {}

    def warm_start(self, contacts: ContactSet, rows: ConstraintRows,
                   params: SolverParams) -> int:
        """Seed ``rows.lam`` from cached impulses; returns match count."""
        if not params.warm_start or not len(contacts):
            return 0
        m = len(contacts)
        matches = 0
        factor = np.float32(params.warm_start_factor)
        tol2 = self.match_tolerance ** 2
        for k in range(m):
            key = (int(contacts.body_a[k]), int(contacts.body_b[k]))
            cached = self._store.get(key)
            if not cached:
                continue
            best = None
            best_d2 = tol2
            for pos, impulses in cached:
                delta = contacts.pos[k] - pos
                d2 = float(delta @ delta)
                if d2 < best_d2:
                    best_d2 = d2
                    best = impulses
            if best is not None:
                # rows are laid out [normals | friction1 | friction2]
                rows.lam[k] = factor * best[0]
                rows.lam[m + k] = factor * best[1]
                rows.lam[2 * m + k] = factor * best[2]
                matches += 1
        return matches

    def store(self, contacts: ContactSet, rows: ConstraintRows) -> None:
        """Remember this step's converged impulses."""
        self._store.clear()
        m = len(contacts)
        for k in range(m):
            key = (int(contacts.body_a[k]), int(contacts.body_b[k]))
            self._store.setdefault(key, []).append((
                contacts.pos[k].copy(),
                (float(rows.lam[k]), float(rows.lam[m + k]),
                 float(rows.lam[2 * m + k])),
            ))


def apply_warm_start_impulses(
    ctx: FPContext,
    bodies: BodyStore,
    rows: ConstraintRows,
) -> None:
    """Apply the seeded ``rows.lam`` to body velocities before iterating.

    Warm starting only helps if the cached impulses act immediately;
    otherwise the first iterations re-derive them from scratch.
    """
    seeded = np.nonzero(rows.lam != 0)[0]
    if len(seeded) == 0:
        return
    vel = np.concatenate(
        [bodies.view("linvel"), bodies.view("angvel")], axis=1
    ).astype(np.float32)
    kern = ctx.kernel()
    imjt = kern.enter(rows.inv_mass_jt[seeded])
    lamr = kern.enter(rows.lam[seeded][:, None])
    dvw = kern.binop(np.multiply, imjt, lamr)
    # Wave-structured scatter, bit-identical to applying the rows one by
    # one: incidences are interleaved (row's ia side, then its ib side)
    # so the stable sort keeps each body's adds in row order; adds on
    # different bodies are independent.  The world body's adds run too.
    s = len(seeded)
    inc_body = np.empty(2 * s, dtype=np.int64)
    inc_body[0::2] = rows.ia[seeded]
    inc_body[1::2] = rows.ib[seeded]
    inc = np.empty((2 * s, 6), dtype=np.float32)
    inc[0::2] = dvw[:, :6]
    inc[1::2] = dvw[:, 6:]
    order = np.argsort(inc_body, kind="stable")
    inc = np.ascontiguousarray(inc[order])
    sorted_body = inc_body[order]
    counts = np.bincount(sorted_body, minlength=vel.shape[0])
    starts = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    velr = kern.enter(vel)
    for k in range(int(counts.max())):
        body_idx = np.nonzero(counts > k)[0]
        chunk = velr[body_idx]
        kern.binop_at(np.add, chunk, inc[starts[body_idx] + k], chunk)
        velr[body_idx] = chunk
    touched = np.unique(inc_body)
    vel[touched] = velr[touched]
    vel[bodies.world_index] = 0.0
    bodies.view("linvel")[:] = vel[:, :3]
    bodies.view("angvel")[:] = vel[:, 3:]
