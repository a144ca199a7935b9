"""Vector/quaternion math on the reduced-op kernel of an FPContext.

Every elementary add/sub/mul executed here runs at the precision of the
context's *current phase*, so the same code path serves full-precision
reference runs and reduced-precision experiments.  Shapes follow numpy
broadcasting with the geometric axis last: ``(..., 3)`` vectors and
``(..., 4)`` quaternions (w, x, y, z).

Each routine comes in two forms.  ``name(ctx, ...)`` takes operands of
any origin: it enters them into the phase's kernel (``ctx.kernel()``)
and runs ``name_r``.  ``name_r(kern, ...)`` takes operands that came
from ``kern.enter`` or from a result of ``kern``'s ops, and chains
``kern.binop`` on them, so an engine pass that already holds entered
arrays rounds each operand once.  Re-entering a kernel result is exact
(rounding is idempotent), so the two forms give the same bits.  Sign
flips and ``abs`` of kernel results stay kernel results; the results of
``div`` and ``sqrt`` (full precision) do not.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..fp.context import FPContext

__all__ = [
    "dot",
    "cross",
    "scale",
    "norm",
    "normalize",
    "matvec",
    "quat_mul",
    "quat_rotate_matrix",
    "quat_normalize",
    "quat_integrate",
    "dot_r",
    "cross_r",
    "scale_r",
    "norm_r",
    "normalize_r",
    "matvec_r",
    "quat_mul_r",
    "quat_rotate_matrix_r",
    "quat_normalize_r",
    "quat_integrate_r",
    "quat_to_matrix_f64",
    "skew_apply",
]


def _ops(kern):
    """The kernel's add, sub and mul on entered operands."""
    return (partial(kern.binop, np.add), partial(kern.binop, np.subtract),
            partial(kern.binop, np.multiply))


# ----------------------------------------------------------------------
# On entered operands
# ----------------------------------------------------------------------
def dot_r(kern, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner product over the last axis, one add at a time."""
    prod = kern.binop(np.multiply, a, b)
    acc = prod[..., 0]
    for k in range(1, prod.shape[-1]):
        acc = kern.binop(np.add, acc, prod[..., k])
    return acc


def cross_r(kern, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cross product of ``(..., 3)`` vectors."""
    _, sub, mul = _ops(kern)
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    cx = sub(mul(ay, bz), mul(az, by))
    cy = sub(mul(az, bx), mul(ax, bz))
    cz = sub(mul(ax, by), mul(ay, bx))
    return np.stack([cx, cy, cz], axis=-1)


def scale_r(kern, v: np.ndarray, s) -> np.ndarray:
    """Multiply vectors by (broadcast) scalars."""
    if s.ndim == v.ndim - 1:
        s = s[..., None]
    return kern.binop(np.multiply, v, s)


def norm_r(kern, v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis (sqrt at full precision)."""
    return kern.sqrt(dot_r(kern, v, v))


def normalize_r(kern, v: np.ndarray, eps: float = 1e-12):
    """``(unit vector, length)``; zero vectors stay zero."""
    length = norm_r(kern, v)
    safe = np.where(length > eps, length, np.float32(1.0))
    return kern.div(v, safe[..., None]), length


def matvec_r(kern, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Apply ``(..., 3, 3)`` matrices to ``(..., 3)`` vectors."""
    return np.stack([dot_r(kern, m[..., i, :], v) for i in range(3)],
                    axis=-1)


def quat_mul_r(kern, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Hamilton product of ``(..., 4)`` quaternions (w, x, y, z)."""
    add, _, mul = _ops(kern)
    qw, qx, qy, qz = (q[..., k] for k in range(4))
    pw, px, py, pz = (p[..., k] for k in range(4))

    def _sum4(t0, t1, t2, t3):
        return add(add(t0, t1), add(t2, t3))

    w = _sum4(mul(qw, pw), mul(-qx, px), mul(-qy, py), mul(-qz, pz))
    x = _sum4(mul(qw, px), mul(qx, pw), mul(qy, pz), mul(-qz, py))
    y = _sum4(mul(qw, py), mul(-qx, pz), mul(qy, pw), mul(qz, px))
    z = _sum4(mul(qw, pz), mul(qx, py), mul(-qy, px), mul(qz, pw))
    return np.stack([w, x, y, z], axis=-1)


def quat_normalize_r(kern, q: np.ndarray) -> np.ndarray:
    """Renormalize quaternions; degenerate ones reset to identity."""
    length = kern.sqrt(dot_r(kern, q, q))
    bad = length < 1e-12
    safe = np.where(bad, np.float32(1.0), length)
    out = kern.div(q, safe[..., None])
    if np.any(bad):
        out = out.copy()
        out[bad] = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.float32)
    return out


def quat_rotate_matrix_r(kern, q: np.ndarray) -> np.ndarray:
    """Rotation matrices ``(..., 3, 3)`` of unit quaternions."""
    add, sub, mul = _ops(kern)
    w, x, y, z = (q[..., k] for k in range(4))
    # Exact at every precision: no mantissa bit set.
    two = np.float32(2.0)
    one = np.float32(1.0)

    xx = mul(x, x)
    yy = mul(y, y)
    zz = mul(z, z)
    xy = mul(x, y)
    xz = mul(x, z)
    yz = mul(y, z)
    wx = mul(w, x)
    wy = mul(w, y)
    wz = mul(w, z)

    def _entry(d1, d2):  # 1 - 2*(d1 + d2)
        return sub(one, mul(two, add(d1, d2)))

    def _pair(p1, p2, sign):  # 2*(p1 +/- p2)
        inner = add(p1, p2) if sign > 0 else sub(p1, p2)
        return mul(two, inner)

    m00 = _entry(yy, zz)
    m11 = _entry(xx, zz)
    m22 = _entry(xx, yy)
    m01 = _pair(xy, wz, -1)
    m02 = _pair(xz, wy, +1)
    m10 = _pair(xy, wz, +1)
    m12 = _pair(yz, wx, -1)
    m20 = _pair(xz, wy, -1)
    m21 = _pair(yz, wx, +1)

    rows = np.stack(
        [
            np.stack([m00, m01, m02], axis=-1),
            np.stack([m10, m11, m12], axis=-1),
            np.stack([m20, m21, m22], axis=-1),
        ],
        axis=-2,
    )
    return rows


def quat_integrate_r(kern, q: np.ndarray, omega: np.ndarray,
                     dt: float) -> np.ndarray:
    """Advance unit quaternions by angular velocity ``omega`` over ``dt``.

    Uses the first-order update ``q' = normalize(q + dt/2 * (0, w) * q)``,
    the same scheme ODE's explicit integrator applies.
    """
    zeros = np.zeros_like(omega[..., 0])
    omega_q = np.stack([zeros, omega[..., 0], omega[..., 1], omega[..., 2]],
                       axis=-1)
    dq = quat_mul_r(kern, omega_q, q)
    half_dt = kern.enter(np.float32(0.5 * dt))
    stepped = kern.binop(np.add, q, kern.binop(np.multiply, dq, half_dt))
    return quat_normalize_r(kern, stepped)


# ----------------------------------------------------------------------
# On operands of any origin
# ----------------------------------------------------------------------
def dot(ctx: FPContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`dot_r` on entered copies of ``a`` and ``b``."""
    kern = ctx.kernel()
    return dot_r(kern, kern.enter(a), kern.enter(b))


def cross(ctx: FPContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`cross_r` on entered copies of ``a`` and ``b``."""
    kern = ctx.kernel()
    return cross_r(kern, kern.enter(a), kern.enter(b))


def scale(ctx: FPContext, v: np.ndarray, s) -> np.ndarray:
    """:func:`scale_r` on entered copies of ``v`` and ``s``."""
    kern = ctx.kernel()
    return scale_r(kern, kern.enter(v), kern.enter(s))


def norm(ctx: FPContext, v: np.ndarray) -> np.ndarray:
    """:func:`norm_r` on an entered copy of ``v``."""
    kern = ctx.kernel()
    return norm_r(kern, kern.enter(v))


def normalize(ctx: FPContext, v: np.ndarray, eps: float = 1e-12):
    """:func:`normalize_r` on an entered copy of ``v``."""
    kern = ctx.kernel()
    return normalize_r(kern, kern.enter(v), eps)


def matvec(ctx: FPContext, m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """:func:`matvec_r` on entered copies of ``m`` and ``v``."""
    kern = ctx.kernel()
    return matvec_r(kern, kern.enter(m), kern.enter(v))


def skew_apply(ctx: FPContext, w: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``w x r`` — angular velocity applied to a lever arm."""
    return cross(ctx, w, r)


def quat_mul(ctx: FPContext, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """:func:`quat_mul_r` on entered copies of ``q`` and ``p``."""
    kern = ctx.kernel()
    return quat_mul_r(kern, kern.enter(q), kern.enter(p))


def quat_normalize(ctx: FPContext, q: np.ndarray) -> np.ndarray:
    """:func:`quat_normalize_r` on an entered copy of ``q``."""
    kern = ctx.kernel()
    return quat_normalize_r(kern, kern.enter(q))


def quat_rotate_matrix(ctx: FPContext, q: np.ndarray) -> np.ndarray:
    """:func:`quat_rotate_matrix_r` on an entered copy of ``q``."""
    kern = ctx.kernel()
    return quat_rotate_matrix_r(kern, kern.enter(q))


def quat_integrate(
    ctx: FPContext, q: np.ndarray, omega: np.ndarray, dt: float
) -> np.ndarray:
    """:func:`quat_integrate_r` on entered copies of ``q`` and
    ``omega``."""
    kern = ctx.kernel()
    return quat_integrate_r(kern, kern.enter(q), kern.enter(omega), dt)


def quat_to_matrix_f64(quats: np.ndarray) -> np.ndarray:
    """``(..., 4)`` wxyz quaternions → ``(..., 3, 3)`` float64 matrices.

    Plain float64 outside the context: this is setup-time geometry
    (joint anchor resolution), not simulated-hardware math.  The
    expressions match the old per-component scalar unpacking operation
    for operation, so batching a whole quaternion array through it
    yields the exact bits the scalar loop produced.
    """
    q = np.asarray(quats, dtype=np.float64)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    out = np.empty(q.shape[:-1] + (3, 3), dtype=np.float64)
    out[..., 0, 0] = 1.0 - 2.0 * (y * y + z * z)
    out[..., 0, 1] = 2.0 * (x * y - w * z)
    out[..., 0, 2] = 2.0 * (x * z + w * y)
    out[..., 1, 0] = 2.0 * (x * y + w * z)
    out[..., 1, 1] = 1.0 - 2.0 * (x * x + z * z)
    out[..., 1, 2] = 2.0 * (y * z - w * x)
    out[..., 2, 0] = 2.0 * (x * z - w * y)
    out[..., 2, 1] = 2.0 * (y * z + w * x)
    out[..., 2, 2] = 1.0 - 2.0 * (x * x + y * y)
    return out
