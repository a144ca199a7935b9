"""Narrow-phase collision detection (contact generation).

This is the second collision-detection step the paper singles out: for
each candidate geom pair from the broad phase, determine the actual
contact points.  Every FP add/sub/mul here executes through the world's
:class:`~repro.fp.FPContext` in the ``narrow`` phase, so the whole contact
pipeline experiences the tuned precision — exactly the paper's setup for
Table 1's Narrow-phase column.

Supported pairs: sphere-sphere, sphere-plane, box-plane, sphere-box,
box-box (separating-axis test with reference-face clipping, the same
approach ODE's dBoxBox uses), and capsules against planes, spheres,
boxes and other capsules (segment closest-point tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

import numpy as np

from ..fp.context import FPContext
from . import math3d
from .body import BodyStore
from .shapes import Geom, GeomStore, ShapeType

__all__ = ["ContactSet", "generate_contacts"]

_MAX_CONTACTS_PER_PAIR = 4


@dataclass
class ContactSet:
    """Flat arrays of contact points feeding the LCP phase."""

    body_a: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32))
    body_b: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int32))
    pos: np.ndarray = field(
        default_factory=lambda: np.empty((0, 3), dtype=np.float32))
    #: unit normal pointing from body_a towards body_b
    normal: np.ndarray = field(
        default_factory=lambda: np.empty((0, 3), dtype=np.float32))
    depth: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float32))
    friction: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float32))
    restitution: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.float32))

    def __len__(self) -> int:
        return len(self.depth)


class _ContactAccumulator:
    """Collects per-pair contacts, then freezes them into a ContactSet."""

    def __init__(self) -> None:
        self._body_a: List[int] = []
        self._body_b: List[int] = []
        self._pos: List[np.ndarray] = []
        self._normal: List[np.ndarray] = []
        self._depth: List[float] = []
        self._friction: List[float] = []
        self._restitution: List[float] = []

    def emit(self, body_a, body_b, pos, normal, depth, geom_a: Geom,
             geom_b: Geom) -> None:
        # Guard against degenerate geometry at very low precisions: a
        # contact with a non-finite or near-zero normal is dropped.
        normal = np.asarray(normal, dtype=np.float32)
        if not np.isfinite(normal).all() or not np.isfinite(depth):
            return
        if float(normal @ normal) < 0.25:
            return
        self._body_a.append(int(body_a))
        self._body_b.append(int(body_b))
        self._pos.append(np.asarray(pos, dtype=np.float32))
        self._normal.append(np.asarray(normal, dtype=np.float32))
        self._depth.append(float(depth))
        self._friction.append(
            float(np.sqrt(geom_a.friction * geom_b.friction)))
        self._restitution.append(
            max(geom_a.restitution, geom_b.restitution))

    def freeze(self) -> ContactSet:
        if not self._depth:
            return ContactSet()
        return ContactSet(
            body_a=np.array(self._body_a, dtype=np.int32),
            body_b=np.array(self._body_b, dtype=np.int32),
            pos=np.stack(self._pos).astype(np.float32),
            normal=np.stack(self._normal).astype(np.float32),
            depth=np.array(self._depth, dtype=np.float32),
            friction=np.array(self._friction, dtype=np.float32),
            restitution=np.array(self._restitution, dtype=np.float32),
        )


def generate_contacts(
    ctx: FPContext,
    bodies: BodyStore,
    geoms: GeomStore,
    pairs: Sequence[Tuple[int, int]],
) -> ContactSet:
    """Run narrow-phase collision over the candidate ``pairs``."""
    acc = _ContactAccumulator()
    world = bodies.world_index
    pos = bodies.view("pos")
    rot = bodies.view("rot")

    # Bucket pairs by type so the common cases run vectorized.  The
    # stacked box passes probe the memo tables pair by pair.
    buckets: dict = {}
    for i, j in pairs:
        ga, gb = geoms[i], geoms[j]
        key = tuple(sorted((ga.shape.value, gb.shape.value)))
        if ga.shape.value > gb.shape.value:
            i, j = j, i  # canonical order: box < capsule < plane < sphere
        buckets.setdefault(key, []).append((i, j))

    for key, bucket in buckets.items():
        if key == ("sphere", "sphere"):
            _sphere_sphere(ctx, acc, geoms, bucket, pos)
        elif key == ("plane", "sphere"):
            _sphere_plane(ctx, acc, geoms, bucket, pos, world)
        elif key == ("box", "plane"):
            with ctx.memo_by_item():
                _box_plane(ctx, acc, geoms, bucket, pos, rot, world)
        elif key == ("box", "sphere"):
            for i, j in bucket:
                _sphere_box(ctx, acc, geoms[j], geoms[i], pos, rot)
        elif key == ("box", "box"):
            with ctx.memo_by_item():
                _box_box(ctx, acc, geoms, bucket, pos, rot)
        elif key == ("capsule", "plane"):
            for i, j in bucket:
                _capsule_plane(ctx, acc, geoms[i], geoms[j], pos, rot,
                               world)
        elif key == ("capsule", "sphere"):
            for i, j in bucket:
                _capsule_sphere(ctx, acc, geoms[i], geoms[j], pos, rot)
        elif key == ("capsule", "capsule"):
            for i, j in bucket:
                _capsule_capsule(ctx, acc, geoms[i], geoms[j], pos, rot)
        elif key == ("box", "capsule"):
            for i, j in bucket:
                _capsule_box(ctx, acc, geoms[j], geoms[i], pos, rot)
    return acc.freeze()


# ----------------------------------------------------------------------
# Sphere / sphere
# ----------------------------------------------------------------------
def _sphere_sphere(ctx, acc, geoms, bucket, pos) -> None:
    ia = np.array([geoms[i].body for i, _ in bucket])
    ib = np.array([geoms[j].body for _, j in bucket])
    ra = np.array([geoms[i].params[0] for i, _ in bucket], dtype=np.float32)
    rb = np.array([geoms[j].params[0] for _, j in bucket], dtype=np.float32)
    kern = ctx.kernel()
    ca = kern.enter(pos[ia])
    radius_a = kern.enter(ra)
    delta = kern.binop(np.subtract, kern.enter(pos[ib]), ca)
    unit, dist = math3d.normalize_r(kern, delta)
    depth = kern.binop(np.subtract,
                       kern.binop(np.add, radius_a, kern.enter(rb)),
                       kern.enter(dist))
    hit = (depth > 0) & (dist > 1e-9)
    if not hit.any():
        return
    # Contact sits on the midpoint of the overlap band.
    half = np.float32(0.5)  # exact at every precision
    offset = kern.binop(np.subtract, radius_a,
                        kern.binop(np.multiply, half, depth))
    point = kern.binop(np.add, ca,
                       math3d.scale_r(kern, kern.enter(unit), offset))
    for k in np.nonzero(hit)[0]:
        i, j = bucket[k]
        acc.emit(ia[k], ib[k], point[k], unit[k], depth[k],
                 geoms[i], geoms[j])


# ----------------------------------------------------------------------
# Sphere / plane
# ----------------------------------------------------------------------
def _sphere_plane(ctx, acc, geoms, bucket, pos, world) -> None:
    # canonical order gives (plane, sphere)
    ib = np.array([geoms[j].body for _, j in bucket])
    radius = np.array([geoms[j].params[0] for _, j in bucket],
                      dtype=np.float32)
    normals = np.stack([geoms[i].params for i, _ in bucket]).astype(
        np.float32)
    offsets = np.array([geoms[i].offset for i, _ in bucket],
                       dtype=np.float32)
    kern = ctx.kernel()
    normals_r = kern.enter(normals)
    centers = kern.enter(pos[ib])
    height = kern.binop(np.subtract, math3d.dot_r(kern, normals_r, centers),
                        kern.enter(offsets))
    depth = kern.binop(np.subtract, kern.enter(radius), height)
    hit = depth > 0
    if not hit.any():
        return
    point = kern.binop(np.subtract, centers,
                       math3d.scale_r(kern, normals_r, height))
    for k in np.nonzero(hit)[0]:
        i, j = bucket[k]
        # Normal must point from the plane (body_a = world) to the sphere.
        acc.emit(world, ib[k], point[k], normals[k], depth[k],
                 geoms[i], geoms[j])


# ----------------------------------------------------------------------
# Box / plane
# ----------------------------------------------------------------------
_CORNER_SIGNS = np.array(
    [[sx, sy, sz] for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)],
    dtype=np.float32,
)


def _box_plane(ctx, acc, geoms, bucket, pos, rot, world) -> None:
    """Corners below the plane, deepest four per pair, in one stacked
    pass over every (box, plane) pair (canonical order)."""
    body = np.array([geoms[i].body for i, _ in bucket], dtype=np.int64)
    half = np.stack([geoms[i].params for i, _ in bucket]).astype(np.float32)
    normals = np.stack([geoms[j].params for _, j in bucket]).astype(
        np.float32)
    offsets = np.array([geoms[j].offset for _, j in bucket],
                       dtype=np.float32)
    kern = ctx.kernel()
    ctx.memo_items = np.arange(len(bucket))
    # The corner signs are exact at every precision.
    local = kern.binop(np.multiply, _CORNER_SIGNS[None, :, :],
                       kern.enter(half[:, None, :]))  # (P,8,3)
    rotated = math3d.matvec_r(kern, kern.enter(rot[body][:, None, :, :]),
                              local)
    corners = kern.binop(np.add, kern.enter(pos[body][:, None, :]), rotated)
    height = kern.binop(
        np.subtract,
        math3d.dot_r(kern, kern.enter(normals[:, None, :]), corners),
        kern.enter(offsets[:, None]))
    depth = -height
    hit = depth > 0
    for p in np.nonzero(hit.any(axis=1))[0]:
        i, j = bucket[p]
        order = np.argsort(-depth[p])
        picked = [k for k in order if hit[p, k]][:_MAX_CONTACTS_PER_PAIR]
        for k in picked:
            acc.emit(world, body[p], corners[p, k], normals[p],
                     depth[p, k], geoms[j], geoms[i])


# ----------------------------------------------------------------------
# Sphere / box
# ----------------------------------------------------------------------
def _sphere_box(ctx, acc, sphere: Geom, box: Geom, pos, rot) -> None:
    kern = ctx.kernel()
    radius = float(sphere.params[0])
    box_pos = kern.enter(pos[box.body])
    box_rot = kern.enter(rot[box.body])
    rel = kern.binop(np.subtract, kern.enter(pos[sphere.body]), box_pos)
    # Into the box frame: local = R^T rel  (columns of R are box axes).
    local = math3d.matvec_r(kern, box_rot.T[None, :, :], rel[None, :])[0]
    half = box.params
    clamped = np.clip(local, -half, half)
    inside = np.all(np.abs(local) < half)
    if inside:
        # Push out along the axis of least penetration.
        margin = kern.binop(np.subtract, kern.enter(half), np.abs(local))
        axis = int(np.argmin(margin))
        local_n = np.zeros(3, dtype=np.float32)
        local_n[axis] = np.sign(local[axis]) or 1.0
        depth = float(margin[axis]) + radius
        surface_local = clamped.copy()
        surface_local[axis] = local_n[axis] * half[axis]
        world_n = math3d.matvec_r(kern, box_rot[None, :, :],
                                  kern.enter(local_n[None, :]))[0]
        point = kern.binop(
            np.add, box_pos,
            math3d.matvec_r(kern, box_rot[None, :, :],
                            kern.enter(surface_local[None, :]))[0])
        acc.emit(box.body, sphere.body, point, world_n, depth, box, sphere)
        return
    delta = kern.binop(np.subtract, local, kern.enter(clamped))
    dist = float(math3d.norm_r(kern, delta[None, :])[0])
    depth = radius - dist
    if depth <= 0 or dist < 1e-9:
        return
    local_n = kern.div(delta, np.float32(dist))
    world_n = math3d.matvec_r(kern, box_rot[None, :, :],
                              kern.enter(local_n[None, :]))[0]
    point = kern.binop(np.add, box_pos,
                       math3d.matvec_r(kern, box_rot[None, :, :],
                                       kern.enter(clamped[None, :]))[0])
    acc.emit(box.body, sphere.body, point, world_n, depth, box, sphere)


# ----------------------------------------------------------------------
# Box / box — separating axis test + reference face clipping
# ----------------------------------------------------------------------
def _box_box(ctx, acc, geoms, bucket, pos, rot) -> None:
    """Box-box pairs: separating-axis test + reference-face clipping.

    Every pair of a step runs in one batched SAT pass over its candidate
    axes: the 6 face normals and those of the 9 edge crosses that are
    not degenerate, so every projection the pass computes is one a
    per-pair test computes.  Prefer a face axis unless an edge axis is
    clearly (>5%) shallower, the usual SAT fudge for contact stability.
    Face clipping and edge contacts then run stacked over the surviving
    pairs (:func:`_clip_incident_faces`, :func:`_edge_midpoints`), and
    the contacts are emitted pair by pair in bucket order.
    """
    n_pairs = len(bucket)
    body_a = np.array([geoms[i].body for i, _ in bucket], dtype=np.int64)
    body_b = np.array([geoms[j].body for _, j in bucket], dtype=np.int64)
    ha = np.stack([geoms[i].params for i, _ in bucket]).astype(np.float32)
    hb = np.stack([geoms[j].params for _, j in bucket]).astype(np.float32)
    pa, pb = pos[body_a], pos[body_b]
    ra, rb = rot[body_a], rot[body_b]
    ra_t = np.ascontiguousarray(ra.transpose(0, 2, 1))
    rb_t = np.ascontiguousarray(rb.transpose(0, 2, 1))

    kern = ctx.kernel()
    ra_tr, rb_tr = kern.enter(ra_t), kern.enter(rb_t)
    ctx.memo_items = np.arange(n_pairs)
    delta = kern.binop(np.subtract, kern.enter(pb), kern.enter(pa))  # (P, 3)
    crosses = math3d.cross_r(kern, np.repeat(ra_tr, 3, axis=1),
                             np.tile(rb_tr, (1, 3, 1)))  # (P, 9, 3)
    lengths = np.linalg.norm(crosses.astype(np.float64), axis=2)
    good = lengths > 1e-6
    safe = np.where(good, lengths, 1.0)
    # float64 divide then downcast: the normalization is frame choice,
    # outside the reduced FPU.
    edge_axes = (crosses.astype(np.float64) / safe[:, :, None]).astype(
        np.float32)
    axes = np.concatenate([ra_t, rb_t, edge_axes], axis=1)  # (P, 15, 3)

    # The valid axes, flattened pair by pair, with their pair's boxes.
    valid = np.concatenate(
        [np.ones((n_pairs, 6), dtype=bool), good], axis=1)
    owner = np.nonzero(valid)[0]
    flat = kern.enter(axes[valid])  # (V, 3)
    ctx.memo_items = owner
    on_a = np.abs(math3d.dot_r(kern, flat[:, None, :], ra_tr[owner]))
    on_b = np.abs(math3d.dot_r(kern, flat[:, None, :], rb_tr[owner]))
    proj_a = math3d.dot_r(kern, on_a, kern.enter(ha[owner]))
    proj_b = math3d.dot_r(kern, on_b, kern.enter(hb[owner]))
    flat_separation = math3d.dot_r(kern, flat, delta[owner])
    separation = np.zeros((n_pairs, 15), dtype=np.float32)
    separation[valid] = flat_separation
    overlap = np.full((n_pairs, 15), np.inf, dtype=np.float32)
    overlap[valid] = kern.binop(np.subtract,
                                kern.binop(np.add, proj_a, proj_b),
                                np.abs(flat_separation))

    separated = np.any(overlap <= 0, axis=1)
    best_face = np.argmin(overlap[:, :6], axis=1)
    has_edge = good.any(axis=1)
    best_edge = 6 + np.argmin(overlap[:, 6:], axis=1)

    # Per surviving pair, in bucket order: (box_a, box_b, normal,
    # edge depth or None for a face contact, index into edges/faces).
    # Edges and faces end with their pair's index.
    emits, edges, faces = [], [], []
    for k in range(n_pairs):
        if separated[k]:
            continue
        i, j = bucket[k]
        box_a, box_b = geoms[i], geoms[j]
        best_index = int(best_face[k])
        if has_edge[k]:
            be = int(best_edge[k])
            if overlap[k, be] < 0.95 * overlap[k, best_index]:
                best_index = be
        best_axis = axes[k, best_index]
        if separation[k, best_index] < 0:
            best_axis = -best_axis
        normal = best_axis  # points from A towards B

        if best_index >= 6:
            emits.append((box_a, box_b, normal,
                          float(overlap[k, best_index]), len(edges)))
            edges.append((box_a, box_b, normal, k))
            continue
        emits.append((box_a, box_b, normal, None, len(faces)))
        if best_index < 3:
            faces.append((box_a, box_b, normal, k))
        else:
            faces.append((box_b, box_a, -normal, k))

    midpoints = _edge_midpoints(ctx, edges, pos, rot) if edges else None
    clipped = _clip_incident_faces(ctx, faces, pos, rot) if faces else None
    for box_a, box_b, normal, edge_depth, slot in emits:
        if edge_depth is not None:
            acc.emit(box_a.body, box_b.body, midpoints[slot], normal,
                     edge_depth, box_a, box_b)
            continue
        points, depths = clipped[slot]
        order = np.argsort(-depths)[:_MAX_CONTACTS_PER_PAIR]
        for m in order:
            acc.emit(box_a.body, box_b.body, points[m], normal,
                     depths[m], box_a, box_b)


#: Incident-face corner signs along the two tangents: the face's
#: corners in winding order.
_FACE_S0 = np.array([-1, 1, 1, -1], dtype=np.float32)
_FACE_S1 = np.array([-1, -1, 1, 1], dtype=np.float32)


def _face_basis(rot: np.ndarray, half, normal: np.ndarray):
    """Pick the box face most aligned with ``normal``.

    Returns (face axis index, sign, tangent axis indices).
    """
    alignment = rot.T @ normal
    axis = int(np.argmax(np.abs(alignment)))
    sign = 1.0 if alignment[axis] >= 0 else -1.0
    tangents = [k for k in range(3) if k != axis]
    return axis, sign, tangents


def _clip_incident_faces(ctx, faces, pos, rot):
    """Clip incident faces against reference faces, stacked over pairs.

    Each ``(ref, inc, ref_normal, pair)`` names the reference box, the
    incident box, the reference face normal pointing towards the
    incident box and the pair's memo item.  The incident face's 4 corners, clipped by the
    reference face's four side planes (Sutherland–Hodgman, keeping
    ``n . x <= d``), give the contact points that lie below the
    reference face.  The corner transform, the four clips and the final
    face distance run as stacked context ops over every pair's polygon,
    and of each clip only the crossing edges are computed; the face
    choice (:func:`_face_basis`) and the ``np.dot`` plane offsets stay
    per pair, and the crossing parameter ``t`` is a float64 quotient.
    Returns per pair the points below the reference face and their
    depths (float64), in polygon order.
    """
    n = len(faces)
    inc_body = np.empty(n, dtype=np.int64)
    corners = np.zeros((n, 4, 3), dtype=np.float32)
    plane_n = np.empty((4, n, 3), dtype=np.float32)
    plane_d = np.empty((4, n))
    face_n = np.empty((n, 3), dtype=np.float32)
    face_d = np.empty(n)
    pair = np.array([face[3] for face in faces], dtype=np.int64)
    for p, (ref_geom, inc_geom, ref_normal, _) in enumerate(faces):
        ref_rot, ref_pos = rot[ref_geom.body], pos[ref_geom.body]
        ref_half, inc_half = ref_geom.params, inc_geom.params
        inc_body[p] = inc_geom.body
        ref_axis, ref_sign, ref_tangents = _face_basis(
            ref_rot, ref_half, np.asarray(ref_normal))
        inc_axis, inc_sign, (t0, t1) = _face_basis(
            rot[inc_geom.body], inc_half, -np.asarray(ref_normal))
        corners[p, :, inc_axis] = inc_sign * inc_half[inc_axis]
        corners[p, :, t0] = _FACE_S0 * inc_half[t0]
        corners[p, :, t1] = _FACE_S1 * inc_half[t1]
        plane = 0
        for tangent in ref_tangents:
            axis_dir = ref_rot[:, tangent].astype(np.float32)
            offset = float(np.dot(ref_pos, axis_dir))
            for plane_sign in (1.0, -1.0):
                plane_n[plane, p] = plane_sign * axis_dir
                plane_d[plane, p] = plane_sign * offset + float(
                    ref_half[tangent])
                plane += 1
        normal = (ref_sign * ref_rot[:, ref_axis]).astype(np.float32)
        face_n[p] = normal
        face_d[p] = float(np.dot(ref_pos, normal)) + float(
            ref_half[ref_axis])

    kern = ctx.kernel()
    ctx.memo_items = pair
    verts = kern.binop(
        np.add, kern.enter(pos[inc_body][:, None, :]),
        math3d.matvec_r(kern, kern.enter(rot[inc_body][:, None, :, :]),
                        kern.enter(corners))).reshape(-1, 3)
    plane_n = kern.enter(plane_n)
    owner = np.repeat(np.arange(n), 4)
    for plane in range(4):
        ctx.memo_items = pair[owner]
        dist = (math3d.dot_r(kern, plane_n[plane][owner], verts)
                - plane_d[plane].astype(np.float32)[owner])
        length = np.bincount(owner, minlength=n)
        start = np.cumsum(length) - length
        nxt = np.arange(1, len(owner) + 1)
        wrap = nxt == (start + length)[owner]
        nxt[wrap] = start[owner[wrap]]
        d0 = dist.astype(np.float64)
        d1 = d0[nxt]
        inside = d0 <= 0
        # Non-finite distances (possible at very low precisions) pass
        # silently: they neither count as inside nor cross.
        with np.errstate(invalid="ignore", over="ignore"):
            crossing = (inside != (d1 <= 0)) & (np.abs(d0 - d1) > 1e-12)
            cur = np.nonzero(crossing)[0]
            t = (d0[cur] / (d0[cur] - d1[cur])).astype(np.float32)
        ctx.memo_items = pair[owner[cur]]
        edge = kern.binop(np.subtract, verts[nxt[cur]], verts[cur])
        cut = kern.binop(np.add, verts[cur],
                         kern.binop(np.multiply, edge,
                                    kern.enter(t[:, None])))
        # Each vertex emits itself if inside, then its edge's crossing.
        count = inside.astype(np.int64) + crossing
        first = np.cumsum(count) - count
        clipped = np.empty((int(count.sum()), 3), dtype=np.float32)
        clipped[first[inside]] = verts[inside]
        clipped[first[cur] + inside[cur]] = cut
        verts = clipped
        owner = np.repeat(owner, count)

    ctx.memo_items = pair[owner]
    dist = (math3d.dot_r(kern, kern.enter(face_n[owner]), verts)
            - face_d.astype(np.float32)[owner])
    below = dist < 0
    points = verts[below]
    depths = -dist[below].astype(np.float64)
    bounds = np.searchsorted(owner[below], np.arange(n + 1))
    return [(points[lo:hi], depths[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def _edge_midpoints(ctx, edges, pos, rot) -> np.ndarray:
    """Edge-edge contact points for many ``(a, b, normal, pair)``:
    midpoints of the support corners along ``+normal`` on ``a`` and
    ``-normal`` on ``b`` (``pair`` is the memo item).

    The support corners' signs stay per pair (a BLAS ``rot.T @ n``);
    the transforms of both boxes' corners and the midpoint run as
    stacked context ops.
    """
    body = np.array([a.body for a, _, _, _ in edges]
                    + [b.body for _, b, _, _ in edges], dtype=np.int64)
    local = np.stack(
        [_support_local(rot[a.body], a.params, np.asarray(normal))
         for a, _, normal, _ in edges]
        + [_support_local(rot[b.body], b.params, -np.asarray(normal))
           for _, b, normal, _ in edges])
    pair = np.array([edge[3] for edge in edges], dtype=np.int64)
    kern = ctx.kernel()
    ctx.memo_items = np.concatenate([pair, pair])
    support = kern.binop(np.add, kern.enter(pos[body]),
                         math3d.matvec(ctx, rot[body], local))
    count = len(edges)
    ctx.memo_items = pair
    return kern.binop(np.multiply,
                      kern.binop(np.add, support[:count], support[count:]),
                      np.float32(0.5))  # exact at every precision


def _support_local(rotm, half, direction) -> np.ndarray:
    """Box-frame corner furthest along ``direction`` (plain numpy)."""
    signs = np.sign(rotm.T @ direction)
    signs[signs == 0] = 1.0
    return (signs * np.asarray(half)).astype(np.float32)


# ----------------------------------------------------------------------
# Capsules — a segment with a radius; every test reduces to spheres at
# the closest point(s) on the segment
# ----------------------------------------------------------------------
def _capsule_segment(geom: Geom, pos, rot):
    """World endpoints of a capsule's inner segment (local y axis)."""
    center = pos[geom.body].astype(np.float64)
    axis = rot[geom.body][:, 1].astype(np.float64)
    half = float(geom.params[1])
    return center - axis * half, center + axis * half


def _closest_on_segment(p0, p1, point):
    """Closest point to ``point`` on segment p0-p1 (float64 geometry)."""
    d = p1 - p0
    denom = float(d @ d)
    if denom < 1e-12:
        return p0.copy()
    t = float((point - p0) @ d) / denom
    return p0 + d * min(max(t, 0.0), 1.0)


def _closest_between_segments(p0, p1, q0, q1):
    """Closest points between two segments (Ericson's algorithm)."""
    d1 = p1 - p0
    d2 = q1 - q0
    r = p0 - q0
    a = float(d1 @ d1)
    e = float(d2 @ d2)
    f = float(d2 @ r)
    if a < 1e-12 and e < 1e-12:
        return p0.copy(), q0.copy()
    if a < 1e-12:
        t = min(max(f / e, 0.0), 1.0)
        return p0.copy(), q0 + d2 * t
    c = float(d1 @ r)
    if e < 1e-12:
        s = min(max(-c / a, 0.0), 1.0)
        return p0 + d1 * s, q0.copy()
    b = float(d1 @ d2)
    denom = a * e - b * b
    s = min(max((b * f - c * e) / denom, 0.0), 1.0) if denom > 1e-12 \
        else 0.0
    t = (b * s + f) / e
    if t < 0.0:
        t = 0.0
        s = min(max(-c / a, 0.0), 1.0)
    elif t > 1.0:
        t = 1.0
        s = min(max((b - c) / a, 0.0), 1.0)
    return p0 + d1 * s, q0 + d2 * t


def _emit_sphere_pair(ctx, acc, body_a, body_b, center_a, radius_a,
                      center_b, radius_b, geom_a, geom_b):
    """Contact between two virtual spheres (shared capsule epilogue)."""
    kern = ctx.kernel()
    ca = kern.enter(np.asarray(center_a, dtype=np.float32)[None, :])
    cb = kern.enter(np.asarray(center_b, dtype=np.float32)[None, :])
    delta = kern.binop(np.subtract, cb, ca)
    unit, dist = math3d.normalize_r(kern, delta)
    depth = float(radius_a + radius_b - dist[0])
    if depth <= 0 or dist[0] < 1e-9:
        return
    offset = kern.enter(np.float32(radius_a - 0.5 * depth))
    point = kern.binop(np.add, ca,
                       math3d.scale_r(kern, kern.enter(unit), offset))
    acc.emit(body_a, body_b, point[0], unit[0], depth, geom_a, geom_b)


def _capsule_plane(ctx, acc, capsule: Geom, plane: Geom, pos, rot,
                   world) -> None:
    kern = ctx.kernel()
    radius = float(capsule.params[0])
    n = plane.params.astype(np.float32)
    nr = kern.enter(n[None, :])
    p0, p1 = _capsule_segment(capsule, pos, rot)
    for endpoint in (p0, p1):
        e = kern.enter(endpoint.astype(np.float32)[None, :])
        height = float(math3d.dot_r(kern, nr, e)[0]) - plane.offset
        depth = radius - height
        if depth > 0:
            foot = kern.binop(
                np.subtract, e,
                math3d.scale_r(kern, nr, kern.enter(np.float32(height))))
            acc.emit(world, capsule.body, foot[0], n, depth, plane,
                     capsule)


def _capsule_sphere(ctx, acc, capsule: Geom, sphere: Geom, pos,
                    rot) -> None:
    p0, p1 = _capsule_segment(capsule, pos, rot)
    center = pos[sphere.body].astype(np.float64)
    on_segment = _closest_on_segment(p0, p1, center)
    _emit_sphere_pair(ctx, acc, capsule.body, sphere.body,
                      on_segment, float(capsule.params[0]),
                      center, float(sphere.params[0]), capsule, sphere)


def _capsule_capsule(ctx, acc, cap_a: Geom, cap_b: Geom, pos,
                     rot) -> None:
    a0, a1 = _capsule_segment(cap_a, pos, rot)
    b0, b1 = _capsule_segment(cap_b, pos, rot)
    qa, qb = _closest_between_segments(a0, a1, b0, b1)
    _emit_sphere_pair(ctx, acc, cap_a.body, cap_b.body,
                      qa, float(cap_a.params[0]),
                      qb, float(cap_b.params[0]), cap_a, cap_b)


def _capsule_box(ctx, acc, capsule: Geom, box: Geom, pos, rot) -> None:
    """Capsule vs box via sampled spheres along the segment.

    Exact segment-box closest points need a case analysis we don't need
    at PhysicsBench fidelity; five samples (ends, quarters, middle)
    bound the error by an eighth of the segment length.
    """
    p0, p1 = _capsule_segment(capsule, pos, rot)
    kern = ctx.kernel()
    radius = float(capsule.params[0])
    box_pos = kern.enter(pos[box.body])
    box_rot = kern.enter(rot[box.body])
    half = box.params
    best = None
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        sample = (p0 + (p1 - p0) * t).astype(np.float32)
        rel = kern.binop(np.subtract, kern.enter(sample), box_pos)
        local = math3d.matvec_r(kern, box_rot.T[None, :, :],
                                rel[None, :])[0]
        clamped = np.clip(local, -half, half)
        delta = kern.binop(np.subtract, local, kern.enter(clamped))
        dist = float(math3d.norm_r(kern, delta[None, :])[0])
        if dist < 1e-9:
            continue  # sample center inside the box; neighbours cover it
        depth = radius - dist
        if depth > 0 and (best is None or depth > best[0]):
            local_n = kern.div(delta, np.float32(dist))
            world_n = math3d.matvec_r(kern, box_rot[None, :, :],
                                      kern.enter(local_n[None, :]))[0]
            point = kern.binop(
                np.add, box_pos,
                math3d.matvec_r(kern, box_rot[None, :, :],
                                kern.enter(clamped[None, :]))[0])
            best = (depth, point, world_n)
    if best is not None:
        depth, point, world_n = best
        acc.emit(box.body, capsule.body, point, world_n, depth, box,
                 capsule)
