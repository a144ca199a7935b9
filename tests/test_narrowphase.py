"""Tests for narrow-phase contact generation."""

import numpy as np
import pytest

from repro.fp import FPContext
from repro.physics import World

from .engine_goldens import (bytes_digest, census_counts, load,
                             requires_golden_host)


def make_world():
    return World(ctx=FPContext(census=False))


def contacts_of(world):
    """Run just the collision part of a step without dynamics."""
    from repro.physics import broadphase, narrowphase
    world.bodies.ensure_world_row()
    world.bodies.refresh_derived(world.ctx)
    aabbs = world.geoms.world_aabbs(world.bodies.view("pos"),
                                    world.bodies.view("rot"))
    pairs = broadphase.candidate_pairs(world.geoms, aabbs)
    return narrowphase.generate_contacts(world.ctx, world.bodies,
                                         world.geoms, pairs)


def box_jumbles(mode, precision, census=False):
    """Contacts of four random 14-box jumbles: their digest and summed
    census counts (empty census-free)."""
    chunks, counts = [], {}
    for seed in range(4):
        rng = np.random.default_rng(seed)
        world = World(ctx=FPContext({"narrow": precision}, mode=mode,
                                    census=census))
        for _ in range(14):
            quat = rng.standard_normal(4)
            world.add_box(rng.uniform(-0.9, 0.9, 3).tolist(),
                          rng.uniform(0.25, 0.6, 3).tolist(),
                          quat=(quat / np.linalg.norm(quat)).tolist())
        with world.ctx.in_phase("narrow"):
            contacts = contacts_of(world)
        chunks += [getattr(contacts, name).tobytes() for name in (
            "body_a", "body_b", "pos", "normal", "depth")]
        for key, values in census_counts(world.ctx.stats).items():
            counts[key] = [a + b for a, b in
                           zip(counts.get(key, [0] * len(values)), values)]
    return bytes_digest(chunks), counts


class TestSphereSphere:
    def test_overlap_detected(self):
        world = make_world()
        a = world.add_sphere([0, 0, 0], 0.5)
        b = world.add_sphere([0.8, 0, 0], 0.5)
        contacts = contacts_of(world)
        assert len(contacts) == 1
        assert contacts.depth[0] == pytest.approx(0.2, abs=1e-5)
        # normal points from a to b
        assert contacts.normal[0, 0] == pytest.approx(1.0, abs=1e-5)
        assert contacts.body_a[0] == a and contacts.body_b[0] == b

    def test_no_contact_when_separated(self):
        world = make_world()
        world.add_sphere([0, 0, 0], 0.5)
        world.add_sphere([1.2, 0, 0], 0.5)
        assert len(contacts_of(world)) == 0

    def test_contact_point_between_centers(self):
        world = make_world()
        world.add_sphere([0, 0, 0], 0.5)
        world.add_sphere([0.9, 0, 0], 0.5)
        contacts = contacts_of(world)
        assert 0.0 < contacts.pos[0, 0] < 0.9

    def test_friction_geometric_mean(self):
        world = make_world()
        world.add_sphere([0, 0, 0], 0.5, friction=0.25)
        world.add_sphere([0.8, 0, 0], 0.5, friction=1.0)
        contacts = contacts_of(world)
        assert contacts.friction[0] == pytest.approx(0.5, abs=1e-6)


class TestSpherePlane:
    def test_penetrating_sphere(self):
        world = make_world()
        world.add_ground_plane(0.0)
        b = world.add_sphere([0, 0.3, 0], 0.5)
        contacts = contacts_of(world)
        assert len(contacts) == 1
        assert contacts.depth[0] == pytest.approx(0.2, abs=1e-5)
        # normal points from the plane (world body) up to the sphere
        assert contacts.normal[0, 1] == pytest.approx(1.0)
        assert contacts.body_b[0] == b
        assert contacts.body_a[0] == world.bodies.world_index

    def test_hovering_sphere_no_contact(self):
        world = make_world()
        world.add_ground_plane(0.0)
        world.add_sphere([0, 0.6, 0], 0.5)
        assert len(contacts_of(world)) == 0

    def test_offset_plane(self):
        world = make_world()
        world.geoms.add_plane([0, 1, 0], 1.0)
        world.add_sphere([0, 1.4, 0], 0.5)
        contacts = contacts_of(world)
        assert contacts.depth[0] == pytest.approx(0.1, abs=1e-5)


class TestBoxPlane:
    def test_resting_box_four_corners(self):
        world = make_world()
        world.add_ground_plane(0.0)
        world.add_box([0, 0.45, 0], [0.5, 0.5, 0.5])
        contacts = contacts_of(world)
        assert len(contacts) == 4
        assert np.allclose(contacts.depth, 0.05, atol=1e-5)
        assert np.allclose(contacts.normal[:, 1], 1.0)

    def test_tilted_box_fewer_corners(self):
        world = make_world()
        world.add_ground_plane(0.0)
        angle = np.pi / 5
        quat = [np.cos(angle / 2), 0.0, 0.0, np.sin(angle / 2)]
        world.add_box([0, 0.6, 0], [0.5, 0.5, 0.5], quat=quat)
        contacts = contacts_of(world)
        assert 1 <= len(contacts) <= 2


class TestSphereBox:
    def test_face_contact(self):
        world = make_world()
        world.add_box([0, 0, 0], [0.5, 0.5, 0.5])
        world.add_sphere([0.9, 0, 0], 0.5)
        contacts = contacts_of(world)
        assert len(contacts) == 1
        assert contacts.depth[0] == pytest.approx(0.1, abs=1e-4)
        assert contacts.normal[0, 0] == pytest.approx(1.0, abs=1e-4)

    def test_corner_contact(self):
        world = make_world()
        world.add_box([0, 0, 0], [0.5, 0.5, 0.5])
        offset = 0.5 + 0.4 / np.sqrt(3)
        world.add_sphere([offset, offset, offset], 0.5)
        contacts = contacts_of(world)
        assert len(contacts) == 1
        n = contacts.normal[0]
        assert np.allclose(n, 1 / np.sqrt(3), atol=1e-3)

    def test_separated(self):
        world = make_world()
        world.add_box([0, 0, 0], [0.5, 0.5, 0.5])
        world.add_sphere([2.0, 0, 0], 0.5)
        assert len(contacts_of(world)) == 0

    def test_center_inside_box(self):
        world = make_world()
        world.add_box([0, 0, 0], [0.5, 0.5, 0.5])
        world.add_sphere([0.3, 0.0, 0.0], 0.25)
        contacts = contacts_of(world)
        assert len(contacts) == 1
        assert contacts.depth[0] > 0.25  # deep penetration


class TestBoxBox:
    def test_face_contact_stack(self):
        world = make_world()
        world.add_box([0, 0, 0], [0.5, 0.5, 0.5])
        world.add_box([0, 0.95, 0], [0.5, 0.5, 0.5])
        contacts = contacts_of(world)
        assert 1 <= len(contacts) <= 4
        # normal along +y (from lower body a to upper body b)
        assert abs(contacts.normal[0, 1]) == pytest.approx(1.0, abs=1e-4)
        assert np.all(contacts.depth > 0)

    def test_separated_boxes(self):
        world = make_world()
        world.add_box([0, 0, 0], [0.5, 0.5, 0.5])
        world.add_box([2.0, 0, 0], [0.5, 0.5, 0.5])
        assert len(contacts_of(world)) == 0

    def test_corner_overlap_detected(self):
        # Offset 0.9 on every axis still overlaps (all |d| < 1).
        world = make_world()
        world.add_box([0, 0, 0], [0.5, 0.5, 0.5])
        world.add_box([0.9, 0.9, 0.9], [0.5, 0.5, 0.5])
        assert len(contacts_of(world)) >= 1

    def test_separating_axis_diagonal(self):
        world = make_world()
        world.add_box([0, 0, 0], [0.5, 0.5, 0.5])
        world.add_box([1.05, 1.05, 1.05], [0.5, 0.5, 0.5])
        assert len(contacts_of(world)) == 0

    def test_rotated_overlap(self):
        world = make_world()
        world.add_box([0, 0, 0], [0.5, 0.5, 0.5])
        angle = np.pi / 4
        quat = [np.cos(angle / 2), 0.0, 0.0, np.sin(angle / 2)]
        world.add_box([0.95, 0, 0], [0.5, 0.5, 0.5], quat=quat)
        contacts = contacts_of(world)
        assert len(contacts) >= 1
        assert np.all(contacts.depth > 0)

    def test_depth_increases_with_overlap(self):
        depths = []
        for gap in (0.95, 0.9, 0.85):
            world = make_world()
            world.add_box([0, 0, 0], [0.5, 0.5, 0.5])
            world.add_box([gap, 0, 0], [0.5, 0.5, 0.5])
            contacts = contacts_of(world)
            depths.append(float(contacts.depth.max()))
        assert depths[0] < depths[1] < depths[2]

    def test_edge_edge_contact(self):
        world = make_world()
        world.add_box([0, 0, 0], [0.5, 0.5, 0.5])
        # rotate 45 deg about x and y so edges cross
        qx = np.array([np.cos(np.pi / 8), np.sin(np.pi / 8), 0, 0])
        world.add_box([0.98, 0.98, 0.0], [0.5, 0.5, 0.5],
                      quat=qx.tolist())
        contacts = contacts_of(world)
        # must either find a contact or legitimately separate; if found,
        # the depth must be small and positive
        if len(contacts):
            assert np.all(contacts.depth > 0)
            assert np.all(contacts.depth < 0.5)

    @requires_golden_host
    @pytest.mark.parametrize("precision", [8, 23])
    @pytest.mark.parametrize("mode", ["rn", "jam", "trunc"])
    def test_stacked_epilogue_matches_per_pair(self, mode, precision,
                                               monkeypatch):
        """The bucket clips faces and places edge contacts stacked over
        pairs; its contacts and census equal the goldens recorded from
        the per-pair functions, bit for bit."""
        from repro.physics import narrowphase

        stacked = {}
        for name in ("_clip_incident_faces", "_edge_midpoints"):
            original = getattr(narrowphase, name)

            def spy(ctx, pairs, *rest, _name=name, _original=original):
                stacked[_name] = stacked.get(_name, 0) + len(pairs)
                return _original(ctx, pairs, *rest)
            monkeypatch.setattr(narrowphase, name, spy)
        want = load()["box_jumble"][f"{mode}-{precision}"]
        assert box_jumbles(mode, precision) == (want["free"], {})
        assert stacked["_clip_incident_faces"] > 4
        assert stacked["_edge_midpoints"] > 1
        census = want["census"]
        assert box_jumbles(mode, precision, census=True) == (
            census["digest"], census["counts"])


class TestContactSetInvariants:
    def test_normals_unit_length(self):
        world = make_world()
        world.add_ground_plane(0.0)
        world.add_box([0, 0.4, 0], [0.5, 0.5, 0.5])
        world.add_sphere([0.2, 1.2, 0.1], 0.4)
        world.add_sphere([-0.2, 0.4, 0.0], 0.3)
        contacts = contacts_of(world)
        lengths = np.linalg.norm(contacts.normal.astype(np.float64), axis=1)
        assert np.allclose(lengths, 1.0, atol=1e-3)

    def test_positive_depths(self):
        world = make_world()
        world.add_ground_plane(0.0)
        for k in range(4):
            world.add_box([k * 0.9, 0.45, 0], [0.5, 0.5, 0.5])
        contacts = contacts_of(world)
        assert np.all(contacts.depth > 0)
