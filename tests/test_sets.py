import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varifoldlab.geometry import Plane, axis_plane, haar_sample
from varifoldlab.integrands import competitor_registry
from varifoldlab.quasimin import make_deformation
from varifoldlab.sets import (DEGENERATE_MEASURE, Ball, PointCloudSet, SimplicialSet, _clip,
                              _in_plane_corners, _nondegenerate, _pair_dot, _plane_rows,
                              _polygon_area, _rowdot, _simplex_measures,
                              _simplex_measures_and_frames, distance_to_set, load_set,
                              measure, restrict, save_set)
from varifoldlab.scenarios import (FAMILIES, cantor4_set, disk_set, scenario_sequence,
                                   segment_set, ycone_set)
from varifoldlab.varifold import DiscreteVarifold


def rescaled(e, x, r):
    """E mapped by y -> (y - x) / r."""
    return SimplicialSet(e.ambient_dim, e.dim, (e.vertices - x) / r, e.simplices)


def mc_area_in_ball(e, ball, rng, n=200_000):
    """Independent oracle for clipped area of an m=2 set: sample points on
    each triangle uniformly, count the inside fraction per triangle."""
    total = 0.0
    for i in range(len(e.simplices)):
        a, b, c = e.simplex_points(i)
        u = rng.random((n // len(e.simplices), 2))
        flip = u.sum(axis=1) > 1
        u[flip] = 1 - u[flip]
        pts = a + u[:, :1] * (b - a) + u[:, 1:] * (c - a)
        frac = ball.contains(pts).mean()
        total += e.simplex_measures[i] * frac
    return total


def unit_square_boundary():
    pts = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
    segs = [(pts[i], pts[(i + 1) % 4]) for i in range(4)]
    return SimplicialSet.from_segments(segs)


class TestConstruction:
    def test_degenerate_simplex_rejected(self):
        with pytest.raises(ValueError):
            SimplicialSet(2, 1, np.array([[0.0, 0], [0, 0]]), np.array([[0, 1]]))

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            SimplicialSet(2, 1, np.array([[0.0, 0], [1, 0]]), np.array([[0, 2]]))

    @pytest.mark.parametrize("build, message", [
        (lambda: SimplicialSet(2.7, 1, [[0.0, 0], [1, 0]], [[0, 1]]), "ambient_dim must be"),
        (lambda: SimplicialSet(2, 1.0, [[0.0, 0], [1, 0]], [[0, 1]]), "dim must be"),
        (lambda: SimplicialSet(2, 1, [[0.0, 0], [1, 0]], [[0, 1.5]]), "indices must be"),
        (lambda: SimplicialSet(2, 1, [[0.0, 0], [1, 0]], [[0.0, 1.0]]), "indices must be"),
        (lambda: PointCloudSet(2, 1.5, [[0.0, 0]], [1.0]), "dim must be"),
        (lambda: PointCloudSet(True, 1, [[0.0, 0]], [1.0]), "ambient_dim must be"),
        (lambda: DiscreteVarifold(2.0, 1, [[0.0, 0]], [[[1.0], [0]]], [1.0]),
         "ambient_dim must be"),
    ])
    def test_integral_fields_not_truncated(self, build, message):
        # a float dimension or vertex index was truncated to an int
        with pytest.raises(ValueError, match=message):
            build()

    def test_m3_unsupported(self):
        with pytest.raises(ValueError):
            SimplicialSet(4, 3, np.zeros((0, 4)), np.zeros((0, 4), dtype=np.int64))

    def test_tangent_planes_valid(self):
        e = ycone_set(8)
        for i in range(len(e.simplices)):
            pl = Plane(e.simplex_frames[i])
            pm = pl.projection
            assert np.max(np.abs(pm @ pm - pm)) < 1e-10

    def test_ball_leaves_callers_center_writable(self):
        c = np.zeros(2)
        ball = Ball(c, 1.0)
        c[0] = 5.0
        assert ball.center[0] == 0.0 and not ball.center.flags.writeable

    @pytest.mark.parametrize("center, radius, message", [
        ([0.0, 0.0], np.nan, "radius"), ([0.0, 0.0], np.inf, "radius"),
        ([np.nan, 0.0], 1.0, "centre"), ([0.0, -np.inf], 1.0, "centre"),
    ])
    def test_ball_rejects_non_finite(self, center, radius, message):
        with pytest.raises(ValueError, match=f"ball {message} must be finite"):
            Ball(np.array(center), radius)

    def test_pointcloud_validation(self):
        with pytest.raises(ValueError):
            PointCloudSet(2, 1, np.zeros((2, 2)), np.array([1.0, 0.0]))

    def test_simplicial_set_copies_callers_arrays(self):
        v, s = np.array([[0.0, 0], [1, 0]]), np.array([[0, 1]])
        e = SimplicialSet(2, 1, v, s)
        v[1, 0], s[0, 1] = 5.0, 0
        assert e.vertices[1, 0] == 1.0 and e.simplices[0, 1] == 1
        assert e.total_measure == 1.0 and v.flags.writeable

    def test_pointcloud_copies_callers_arrays(self):
        pts, w = np.zeros((2, 2)), np.array([0.5, 0.5])
        cloud = PointCloudSet(2, 0, pts, w)
        pts[0, 0], w[0] = 5.0, -3.0
        assert cloud.points[0, 0] == 0.0 and cloud.masses.min() == 0.5
        assert w.flags.writeable


class TestMeasure:
    def test_unit_segment(self):
        assert measure(segment_set(16)) == pytest.approx(1.0, abs=1e-12)

    def test_zigzag_sqrt2(self):
        for k in (1, 3, 8):
            zz = scenario_sequence("zigzag", k)
            assert measure(zz) == pytest.approx(np.sqrt(2), abs=1e-12)

    def test_square_boundary(self):
        assert measure(unit_square_boundary()) == pytest.approx(4.0, abs=1e-12)

    def test_additive_over_union(self):
        a = segment_set(4)
        b = SimplicialSet.from_polyline(segment_set(4).vertices + [0.0, 1.0])
        both = SimplicialSet.from_segments(
            [tuple(s.simplex_points(i)) for s in (a, b) for i in range(len(s.simplices))])
        assert measure(both) == pytest.approx(measure(a) + measure(b), abs=1e-12)


class TestRestrictSegments:
    def test_chord_through_center(self):
        pts = np.linspace(-2, 2, 9)[:, None] * np.array([1.0, 0.0])[None, :]
        line = SimplicialSet.from_polyline(pts)
        clipped = restrict(line, Ball(np.zeros(2), 1.0))
        assert measure(clipped) == pytest.approx(2.0, abs=1e-12)

    def test_half_segment(self):
        clipped = restrict(segment_set(8), Ball(np.zeros(2), 0.5))
        assert measure(clipped) == pytest.approx(0.5, abs=1e-12)

    def test_disjoint_empty(self):
        clipped = restrict(segment_set(4), Ball(np.array([5.0, 5.0]), 1.0))
        assert clipped.is_empty()
        assert measure(clipped) == 0.0

    def test_sphere_through_an_end_adds_no_degenerate_piece(self):
        # the sphere passes 1.7e-16 inside the end (3, 0) of a segment 1/64
        # long: the clipped parameter interval is above 1e-14, its length not
        e = scenario_sequence("escape", 2)
        ball = Ball(np.array([3.2082021104019276, 0.20820211040192776]), 0.29444224824510673)
        assert restrict(e, ball).is_empty()
        assert make_deformation("tangent_project", ball, e) is None

    def test_monotone_in_radius(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            pts = rng.standard_normal((6, 2))
            e = SimplicialSet.from_polyline(pts)
            x = rng.standard_normal(2) * 0.5
            r1, r2 = sorted(rng.random(2) * 2 + 0.1)
            m1 = measure(restrict(e, Ball(x, r1)))
            m2 = measure(restrict(e, Ball(x, r2)))
            assert m1 <= m2 + 1e-12


class TestRestrictTriangles:
    def test_fully_inside_unchanged(self):
        tri = np.array([[0.1, 0, 0], [0.3, 0.1, 0], [0.2, 0.25, 0.05]])
        e = SimplicialSet.from_triangles([tri])
        clipped = restrict(e, Ball(np.zeros(3), 2.0))
        assert measure(clipped) == pytest.approx(measure(e), abs=1e-15)

    def test_disjoint_plane_empty(self):
        tri = np.array([[5.0, 0, 0], [6, 0, 0], [5, 1, 0]])
        e = SimplicialSet.from_triangles([tri])
        assert restrict(e, Ball(np.zeros(3), 1.0)).is_empty()

    def test_clipped_area_vs_mc_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(5):
            tri = rng.standard_normal((3, 3))
            e = SimplicialSet.from_triangles([tri])
            ball = Ball(rng.standard_normal(3) * 0.3, 1.0)
            clipped = restrict(e, ball)
            got = measure(clipped)
            oracle = mc_area_in_ball(e, ball, np.random.default_rng(trial))
            assert got == pytest.approx(oracle, abs=0.02 * max(measure(e), 1.0))

    def test_error_budget_recorded(self):
        tri = np.array([[-2.0, -2, 0], [2, -2, 0], [0, 3, 0]])
        e = SimplicialSet.from_triangles([tri])
        clipped = restrict(e, Ball(np.zeros(3), 1.0))
        diag = clipped.diagnostics
        assert diag["clip_area_error_bound"] < 1e-6 * 1.0 ** 2
        assert diag["arc_points"] > 100
        # disk fully inside the triangle: area close to pi from below
        assert measure(clipped) < np.pi
        assert measure(clipped) == pytest.approx(np.pi, abs=2e-5)

    def test_in_plane_ball_2d(self):
        tri = np.array([[-3.0, -3], [3, -3], [0, 4]])
        e = SimplicialSet.from_triangles([tri])
        clipped = restrict(e, Ball(np.zeros(2), 1.0))
        assert measure(clipped) == pytest.approx(np.pi, abs=2e-5)


class TestRestrictPointCloud:
    def test_closed_ball_keeps_masses(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, -1.0], [1.0, 1.0], [-0.5, 0.0]])
        cloud = PointCloudSet(2, 1, pts, np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        clipped = restrict(cloud, Ball(np.zeros(2), 1.0))
        assert isinstance(clipped, PointCloudSet) and clipped.dim == 1
        # points on the sphere belong to the closed ball
        assert np.array_equal(clipped.points, pts[[0, 1, 2, 4]])
        assert np.array_equal(clipped.masses, [1.0, 2.0, 3.0, 5.0])

    def test_empty_result_shape(self):
        cloud = PointCloudSet(3, 1, np.ones((4, 3)), np.ones(4))
        clipped = restrict(cloud, Ball(np.full(3, 9.0), 1.0))
        assert clipped.points.shape == (0, 3)
        assert clipped.masses.shape == (0,)
        assert clipped.masses.sum() == 0.0

    def test_dimension_mismatch(self):
        cloud = PointCloudSet(3, 1, np.ones((4, 3)), np.ones(4))
        with pytest.raises(ValueError):
            restrict(cloud, Ball(np.zeros(2), 1.0))


class TestRescale:
    def test_scaling_law(self):
        e = segment_set(8)
        out = rescaled(e, np.zeros(2), measure(e))
        assert measure(out) == pytest.approx(1.0, abs=1e-12)

    def test_measure_scales_exactly(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            e = SimplicialSet.from_polyline(rng.standard_normal((5, 3)))
            x = rng.standard_normal(3)
            r = float(rng.random() * 3 + 0.1)
            direct = sum(
                np.linalg.norm((e.simplex_points(i)[1] - x) / r
                               - (e.simplex_points(i)[0] - x) / r)
                for i in range(len(e.simplices)))
            assert measure(rescaled(e, x, r)) == pytest.approx(direct, rel=1e-12)
            assert measure(rescaled(e, x, r)) == pytest.approx(measure(e) / r, rel=1e-12)

    def test_commutes_with_restrict(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            e = SimplicialSet.from_polyline(rng.standard_normal((6, 2)))
            x = rng.standard_normal(2) * 0.2
            r = float(rng.random() + 0.3)
            a = rescaled(restrict(e, Ball(x, r)), x, r)
            b = restrict(rescaled(e, x, r), Ball(np.zeros(2), 1.0))
            assert measure(a) == pytest.approx(measure(b), abs=1e-12)


class TestDistanceToSet:
    def test_segment_distances(self):
        e = segment_set(4)
        pts = np.array([[0.5, 0.3], [-1.0, 0.0], [2.0, 0.0], [0.25, 0.0]])
        expected = [0.3, 1.0, 1.0, 0.0]
        assert np.allclose(distance_to_set(pts, e), expected, atol=1e-12)

    def test_triangle_distances(self):
        tri = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        e = SimplicialSet.from_triangles([tri])
        pts = np.array([[0.2, 0.2, 0.5], [2.0, 0.0, 0.0], [-1.0, -1.0, 0.0]])
        expected = [0.5, 1.0, np.sqrt(2)]
        assert np.allclose(distance_to_set(pts, e), expected, atol=1e-12)

    def test_pointcloud(self):
        cloud = PointCloudSet(2, 1, np.array([[0.0, 0], [1, 0]]), np.array([1.0, 1]))
        d = distance_to_set(np.array([[0.5, 0.0]]), cloud)
        assert d[0] == pytest.approx(0.5)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pointcloud_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        for count in (1, 7, 300):
            cloud = PointCloudSet(n, 0, rng.standard_normal((count, n)), np.ones(count))
            pts = np.concatenate([rng.standard_normal((200, n)) * 3, cloud.points[:5]])
            diffs = pts[:, None, :] - cloud.points[None, :, :]
            want = np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs)).min(axis=1)
            np.testing.assert_allclose(distance_to_set(pts, cloud), want, rtol=1e-14, atol=0)
        empty = PointCloudSet(n, 0, np.zeros((0, n)), np.zeros(0))
        assert np.isinf(distance_to_set(pts, empty)).all()

    def test_pointcloud_builds_no_pairwise_array(self):
        # 2000 x 2000 points in R^3: the pairwise difference array would be 96 MB
        rng = np.random.default_rng(0)
        cloud = PointCloudSet(3, 0, rng.standard_normal((2000, 3)), np.ones(2000))
        pts = rng.standard_normal((2000, 3))
        tracemalloc.start()
        try:
            distance_to_set(pts, cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20


def ahlfors_ratios(e, x, radii):
    """measure(E ∩ B(x, r)) / r^m over the given radii."""
    return np.array([measure(restrict(e, Ball(x, r))) / r ** e.dim for r in radii])


class TestAhlforsRegularity:
    def test_segment_interior(self):
        e = segment_set(512)
        radii = [2.0 ** -j for j in range(2, 7)]
        ratios = ahlfors_ratios(e, np.array([0.5, 0.0]), radii)
        assert np.all(ratios >= 1 / 3 - 1e-12)
        assert np.all(ratios <= 3 + 1e-12)

    def test_ycone_vertex_and_arm(self):
        e = ycone_set(512)
        radii = [2.0 ** -j for j in range(2, 7)]
        for x in (np.zeros(2), 0.5 * np.array([0.0, 1.0])):
            ratios = ahlfors_ratios(e, x, radii)
            assert np.all(ratios >= 1 / 3 - 1e-12)
            assert np.all(ratios <= 3 + 1e-12)


class TestSerialization:
    def test_simplicial_roundtrip(self, tmp_path):
        e = ycone_set(8)
        path = tmp_path / "set.json"
        save_set(e, path)
        back = load_set(path)
        assert np.allclose(back.vertices, e.vertices)
        assert np.array_equal(back.simplices, e.simplices)
        with open(path) as fh:
            doc = json.load(fh)
        assert set(doc) == {"ambient_dim", "dim", "vertices", "simplices"}

    def test_pointcloud_roundtrip(self, tmp_path):
        cloud = cantor4_set(3)
        path = tmp_path / "cloud.json"
        save_set(cloud, path)
        back = load_set(path)
        assert isinstance(back, PointCloudSet)
        assert np.allclose(back.points, cloud.points)
        assert back.masses.sum() == pytest.approx(1.0)


class TestDiskSet:
    def test_area_close_to_pi(self):
        d = disk_set(radius=1.0, angular=256, ring_radii=[0.5, 1.0])
        assert measure(d) < np.pi
        assert measure(d) == pytest.approx(np.pi, abs=1e-3)

    def test_rings_aligned(self):
        d = disk_set(radius=1.0, angular=32, ring_radii=[0.25, 0.5, 1.0])
        radii = np.linalg.norm(d.vertices, axis=1)
        ok = np.zeros(len(radii), dtype=bool)
        for r in (0.0, 0.25, 0.5, 1.0):
            ok |= np.abs(radii - r) < 1e-12
        assert ok.all()


class TestRowdot:
    """The invariant every bit-exact batched kernel rests on: the stacked
    matmul row dot is the 1-D np.dot, and its square root the 1-D norm.
    A numpy or BLAS upgrade that breaks it fails here first."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
    def test_matches_one_row_dot_and_norm(self, seed, n):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.integers(-9, 9, (500, 1))
        edges = rng.standard_normal((500, 3, n)) * scale[:, :, None]
        x = rng.standard_normal((500, n)) * scale
        for a, b in ((x, edges[:, 1, :]), (edges[:, 0, :], edges[:, 2, :]),
                     (x[::3], edges[::3, 1, :])):
            assert np.array_equal(_rowdot(a, b), [np.dot(p, q) for p, q in zip(a, b)])
            assert np.array_equal(np.sqrt(_rowdot(a, a)), [np.linalg.norm(p) for p in a])
        # rows strided within: still np.dot's bits, but np.linalg.norm first
        # copies such a row to unit stride, which BLAS sums in another order
        f = np.asfortranarray(x)
        assert np.array_equal(_rowdot(f, x), [np.dot(p, q) for p, q in zip(f, x)])


class TestGroupedMatvec:
    """The invariant of the batched distance kernel: a stack of (2, k) @
    (k, 1) products, each row stacked on a copy of itself, gives each row
    the bits of the BLAS matrix-vector product ``rows @ vec`` over its
    group's rows (a group of one row as a duplicated two-row input). A
    one-row product takes the BLAS dot and differs on some rows, which is
    why each row is stacked on its copy. A numpy or BLAS upgrade that
    breaks it fails here first."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_padded_stack_matches_per_group_product(self, k):
        rng = np.random.default_rng(k)
        sizes = np.arange(1, 18)
        group = np.repeat(np.arange(len(sizes)), sizes)
        differs = 0
        for _ in range(100):
            x = rng.standard_normal((len(group), k)) * 10.0 ** rng.integers(-6, 6, (len(group), 1))
            vecs = rng.standard_normal((len(sizes), k))
            got = _pair_dot(x, vecs, group)
            for g, size in enumerate(sizes):
                rows = x[group == g]
                want = (rows if size > 1 else rows[[0, 0]]) @ vecs[g]
                assert np.array_equal(got[group == g], want[:size])
            one_row = np.array([(x[i:i + 1] @ vecs[g])[0] for i, g in enumerate(group)])
            differs += int((one_row != got).sum())
        assert differs > 0


def frames_oracle(vertices, simplices):
    """The per-triangle Gram-Schmidt loop that the batched frames replaced."""
    corners = vertices[simplices]
    e1, e2 = corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]
    frames = np.zeros((len(simplices), vertices.shape[1], 2))
    for i in range(len(simplices)):
        a, b = e1[i], e2[i]
        na = np.linalg.norm(a)
        if na == 0:
            continue
        u1 = a / na
        b2 = b - np.dot(b, u1) * u1
        nb = np.linalg.norm(b2)
        if nb == 0:
            continue
        frames[i, :, 0] = u1
        frames[i, :, 1] = b2 / nb
    return frames


class TestBatchedFrames:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4))
    def test_soups_with_degenerate_rows(self, seed, n):
        rng = np.random.default_rng(seed)
        tris = rng.standard_normal((60, 3, n)) * 10.0 ** rng.integers(-6, 4, (60, 1, 1))
        axis = np.zeros(n)
        axis[rng.integers(n)] = 1.0
        tris[:5, 1] = tris[:5, 0]                               # zero first edge
        tris[5:10, 1] = tris[5:10, 0] + axis                    # second edge exactly
        tris[5:10, 2] = tris[5:10, 0] + 3.0 * axis              # along the first
        tris[10:15, 2] = tris[10:15, 0] + 2.0 * (tris[10:15, 1] - tris[10:15, 0])
        tris[15:20] = tris[15:20, :1]                           # a point
        v = tris.reshape(-1, n)
        s = np.arange(len(v)).reshape(-1, 3)
        _, frames, _ = _simplex_measures_and_frames(v, s, 2)
        assert np.array_equal(frames, frames_oracle(v, s))

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_disk_sets(self, k):
        e = scenario_sequence("disk", k)
        assert np.array_equal(e.simplex_frames, frames_oracle(e.vertices, e.simplices))

    def test_restricted_disk(self):
        e = restrict(scenario_sequence("disk", 1), Ball(np.array([0.9, 0.0, 0.05]), 0.3))
        assert len(e.simplices) > 2000
        assert np.array_equal(e.simplex_frames, frames_oracle(e.vertices, e.simplices))


def plane_row_sets(name):
    rng = np.random.default_rng(11)
    if name in ("r3", "r4"):
        n = int(name[1])
        return [SimplicialSet.from_triangles(rng.standard_normal((200, 3, n))
                                             * 10.0 ** rng.integers(-3, 3, (200, 1, 1)))]
    if name == "disk":
        return [scenario_sequence("disk", 1)]
    planes = [axis_plane(3, [0, 1]), *haar_sample(3, 2, 2, rng),
              *haar_sample(4, 2, 1, rng)]
    return [e for t in planes for _, e in competitor_registry(t)]


def triangle_plane_basis_oracle(tri):
    """The per-triangle in-plane basis that batched code must reproduce:
    u along the first edge, v along the part of the second edge
    orthogonal to u, both by 1-D ``np.dot`` and ``np.linalg.norm``."""
    a, b, c = tri
    e1 = b - a
    u = e1 / np.linalg.norm(e1)
    w = (c - a) - np.dot(c - a, u) * u
    return a, u, w / np.linalg.norm(w)


class TestPlaneRows:
    """Ball clipping, the point-triangle kernel and the coplanar groups of
    a triangle union read each triangle's in-plane basis from the
    batched Gram-Schmidt rows; these must be the per-triangle basis bit
    for bit, with unit stride."""

    @pytest.mark.parametrize("name", ["r3", "r4", "disk", "competitors"])
    def test_rows_are_the_triangle_basis(self, name):
        for e in plane_row_sets(name):
            u, v = _plane_rows(e)
            assert u.strides[-1] == v.strides[-1] == u.itemsize
            for i in range(len(e.simplices)):
                _, bu, bv = triangle_plane_basis_oracle(e.simplex_points(i))
                assert u[i].tobytes() == bu.tobytes()
                assert v[i].tobytes() == bv.tobytes()


def height_field(n_grid, bend):
    """A triangulated sheet z = bend * x * y over [0, 1]^2 in R^3 (bend 0:
    flat), or the flat square in R^2 (bend None)."""
    g = np.linspace(0.0, 1.0, n_grid + 1)
    x, y = np.meshgrid(g, g, indexing="ij")
    pts = np.column_stack([x.ravel(), y.ravel()])
    if bend is not None:
        pts = np.column_stack([pts, bend * pts[:, 0] * pts[:, 1]])
    idx = np.arange((n_grid + 1) ** 2).reshape(n_grid + 1, n_grid + 1)
    a, b, c, d = idx[:-1, :-1].ravel(), idx[1:, :-1].ravel(), idx[1:, 1:].ravel(), idx[:-1, 1:].ravel()
    simplices = np.concatenate([np.column_stack([a, b, c]), np.column_stack([a, c, d])])
    return SimplicialSet(pts.shape[1], 2, pts, simplices)


MEETS_SETS = {
    "zigzag": lambda: scenario_sequence("zigzag", 4),
    "segment": lambda: segment_set(16),
    "flat_sheet": lambda: height_field(5, 0.0),
    "bent_sheet": lambda: height_field(5, 0.7),
    "square_2d": lambda: height_field(4, None),
}


def probe_balls(e, rng):
    """Random balls, balls tangent to or grazing the set (distance r
    exactly, or r times 1 +- 1e-12, from a point of it), tiny balls at
    vertices, and near misses beyond the far corner."""
    n = e.ambient_dim
    lo, hi = e.vertices.min(axis=0), e.vertices.max(axis=0)
    balls = [Ball(rng.uniform(lo - 0.3, hi + 0.3), rng.uniform(0.01, 0.6)) for _ in range(4)]
    normal = np.zeros(n)
    normal[-1] = 1.0
    for _ in range(4):
        i = rng.integers(len(e.simplices))
        w = rng.dirichlet(np.ones(e.dim + 1))
        foot = w @ e.simplex_points(i)
        r = rng.uniform(0.01, 0.3)
        for f in (1.0, 1.0 - 1e-12, 1.0 + 1e-12):
            balls.append(Ball(foot + f * r * normal, r))
    v = e.vertices[rng.integers(len(e.vertices))]
    balls.append(Ball(v, 1e-9))
    r = rng.uniform(0.01, 0.3)
    for f in (1.0 - 1e-12, 1.0, 1.0 + 1e-9):
        balls.append(Ball(hi + f * r * np.ones(n) / np.sqrt(n), r))
    return balls


class TestMeets:
    """``tangent_project`` applies to a ball exactly when the set meets
    it: when ``_clip`` yields a piece, which is when ``restrict`` is not
    empty."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(sorted(MEETS_SETS)))
    def test_agrees_with_restrict(self, seed, name):
        e = MEETS_SETS[name]()
        for ball in probe_balls(e, np.random.default_rng(seed)):
            skipped = make_deformation("tangent_project", ball, e) is None
            assert skipped == restrict(e, ball).is_empty()

    def test_polygon_of_slivers_adds_nothing(self):
        # a ball grazing a triangle's corner clips a polygon whose fan
        # triangles are all below the sliver threshold
        tri = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        e = SimplicialSet.from_triangles([tri])
        ball = Ball(np.array([-1e-7, -1e-7, 0.0]), 1.5e-7)
        assert make_deformation("tangent_project", ball, e) is None
        assert restrict(e, ball).is_empty()


def soup(rng, m, n, count=30):
    """Random segments or triangles at scales 1e-2 to 10."""
    corners = rng.standard_normal((count, m + 1, n)) * 10.0 ** rng.integers(-2, 2, (count, 1, 1))
    return (SimplicialSet.from_segments if m == 1 else SimplicialSet.from_triangles)(corners)


CLIP_SETS = {
    **{f"family_{name}": (lambda name=name: scenario_sequence(name, 2)) for name in FAMILIES},
    **{f"soup_m{m}_r{n}": (lambda m=m, n=n: soup(np.random.default_rng(10 * m + n), m, n))
       for m in (1, 2) for n in (2, 3, 4) if n >= m},
    # a large triangle with a neighbour: small balls in it clip whole disks
    "large_triangle": lambda: SimplicialSet.from_triangles(
        [[[-2.0, -2, 0], [2, -2, 0], [0, 3, 0]], [[2.0, -2, 0], [3, 3, 0.5], [0, 3, 0]]]),
}


def one_simplex_parts(e, ball):
    """The set's one-simplex subsets that can meet the ball, in simplex
    order: a simplex whose bounding box misses the ball's is left out, as
    its restriction is empty."""
    corners = e.vertices[e.simplices]
    near = ((corners.min(axis=1) <= ball.center + ball.radius).all(axis=1)
            & (corners.max(axis=1) >= ball.center - ball.radius).all(axis=1))
    return [SimplicialSet(e.ambient_dim, e.dim, e.vertices, e.simplices[i:i + 1])
            for i in np.flatnonzero(near)]


class TestClipIsPerSimplex:
    """``restrict`` decides all simplices at once; its result must be the
    concatenation of the restrictions of the set's one-simplex subsets, bit
    for bit, with their arc points and area defects summed in simplex
    order."""

    @pytest.mark.parametrize("name", sorted(CLIP_SETS))
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_one_simplex_restrictions(self, name, seed):
        e = CLIP_SETS[name]()
        rng = np.random.default_rng(seed)
        balls = probe_balls(e, rng)
        i = rng.integers(len(e.simplices))
        balls.append(Ball(e.simplex_points(i).mean(axis=0), rng.uniform(1e-3, 0.3)))
        for ball in balls:
            got = restrict(e, ball)
            parts = one_simplex_parts(e, ball)
            want = [restrict(part, ball).vertices for part in parts]
            assert got.vertices.tobytes() == np.concatenate([e.vertices[:0], *want]).tobytes()
            arcs, defect = 0, 0.0
            for part in parts:
                _, _, a, d = _clip(part, ball)
                arcs += a
                defect += d
            if not got.is_empty():
                assert got.diagnostics == {"clip_area_error_bound": defect, "arc_points": arcs}

    def test_array_trig_matches_scalar(self):
        # inscribed arcs take cos and sin of an angle array, where the loop
        # they replaced took one angle at a time; a numpy build whose array
        # and scalar paths differ fails here first
        ang = np.random.default_rng(0).uniform(-4.0, 10.0, 5000)
        assert np.array_equal(np.cos(ang), [np.cos(a) for a in ang])
        assert np.array_equal(np.sin(ang), [np.sin(a) for a in ang])

    def test_disk_inside_large_triangle(self):
        e = CLIP_SETS["large_triangle"]()
        ball = Ball(np.array([0.1, 0.2, 0.0]), 0.5)
        got = restrict(e, ball)
        assert got.diagnostics["arc_points"] > 1000
        want = restrict(SimplicialSet(3, 2, e.vertices, e.simplices[:1]), ball)
        assert got.vertices.tobytes() == want.vertices.tobytes()


class TestWhollyInside:
    """The batched wholly-inside decision keeps the bits of the
    per-triangle ``einsum("ij,ij->i")`` test against r^2 (1 + 1e-14), for
    corners at distances r (1 +- 1e-14) and a few ulps around the
    threshold. ``_clip`` keeps exactly the triangles it decides are wholly
    inside as pieces with their own corners; a cut triangle's pieces all
    start at the centroid of its clipped polygon."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_per_triangle_einsum(self, n):
        rng = np.random.default_rng(n)
        c, r = rng.standard_normal(n), 0.7
        dirs = rng.standard_normal((2000, 3, n))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        edge = np.sqrt(1 + 1e-14) * (1 + np.arange(-4, 5) * 2.0 ** -52)
        factors = np.r_[1 - 1e-14, 1.0, 1 + 1e-14, edge]
        tris = c + r * rng.choice(factors, (2000, 3))[:, :, None] * dirs
        e = SimplicialSet.from_triangles(tris)
        oracle = []
        for i in range(len(e.simplices)):
            rel = e.simplex_points(i) - c
            if (np.einsum("ij,ij->i", rel, rel) <= r * r * (1 + 1e-14)).all():
                oracle.append(i)
        pieces = {piece.tobytes() for piece in _clip(e, Ball(c, r))[0]}
        kept = [i for i in range(len(e.simplices)) if e.simplex_points(i).tobytes() in pieces]
        assert kept == oracle
        assert 0 < len(oracle) < len(e.simplices)


def thin_triangles(rng, n, count=400):
    """Triangles whose measure is just above DEGENERATE_MEASURE: tiny
    well-shaped ones, and unit slivers of relative height 1e-15 to 1e-12."""
    tiny = rng.standard_normal((count, 3, n))
    scale = np.sqrt(DEGENERATE_MEASURE * (1 + 10.0 ** rng.uniform(-3, 1, count))
                    / _simplex_measures(tiny, 2))
    tiny = tiny[:, :1] + (tiny - tiny[:, :1]) * scale[:, None, None]
    a, e1, normal = rng.standard_normal((3, count, n))
    normal -= (_rowdot(normal, e1) / _rowdot(e1, e1))[:, None] * e1
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    height = 10.0 ** rng.uniform(-15, -12, count) * np.linalg.norm(e1, axis=1)
    third = a + rng.uniform(-1, 2, (count, 1)) * e1 + height[:, None] * normal
    return np.concatenate([tiny, np.stack([a, a + e1, third], axis=1)])


class TestInPlaneOrientation:
    """Ball clipping walks each triangle's in-plane corners as a
    counter-clockwise polygon without checking: v points toward the third
    corner, so the signed area is positive."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_thin_triangles_and_soups(self, n):
        rng = np.random.default_rng(100 + n)
        tris = np.concatenate([thin_triangles(rng, n), rng.standard_normal((400, 3, n))
                               * 10.0 ** rng.integers(-6, 4, (400, 1, 1))])
        e = SimplicialSet.from_triangles(tris[_nondegenerate(tris, 2)])
        assert e.simplex_measures.min() < 2 * DEGENERATE_MEASURE
        self.assert_counter_clockwise(e)

    @pytest.mark.parametrize("name", ["r3", "r4", "disk", "competitors"])
    def test_plane_row_sets(self, name):
        for e in plane_row_sets(name):
            self.assert_counter_clockwise(e)

    @staticmethod
    def assert_counter_clockwise(e):
        u, v = _plane_rows(e)
        poly = _in_plane_corners(e.vertices[e.simplices], u, v)
        assert all(_polygon_area(p) > 0 for p in poly)


def needles(rng, n, count):
    """Triangles a, a + e1, a + s (e1 + 1e-16 nu) with a standard normal a,
    a unit e1, s in [0.2, 2] and a unit normal nu of e1: collinear to
    within the rounding of their corners, with a Gram-determinant area near
    1e-8 and a true area below 1e-15."""
    a, e1, normal = rng.standard_normal((3, count, n))
    e1 /= np.linalg.norm(e1, axis=1)[:, None]
    normal -= _rowdot(normal, e1)[:, None] * e1
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    s = rng.uniform(0.2, 2.0, (count, 1))
    return np.stack([a, a + e1, a + s * (e1 + 1e-16 * normal)], axis=1)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([2, 3, 4]))
def test_restrict_adds_no_measure_near_the_threshold(seed, n):
    """measure(restrict(e, ball)) <= measure(e) + the clip's recorded
    defect near the degeneracy threshold. Needles are rejected: a set that
    took them by their Gram area restricted a third of them to up to 1e9
    times that area. Tiny well-shaped triangles just above the threshold
    obey the bound."""
    rng = np.random.default_rng(seed)
    count = 60
    tris = needles(rng, n, count)
    assert not _nondegenerate(tris, 2).any()
    assert (_simplex_measures(tris, 2) > DEGENERATE_MEASURE).any()
    with pytest.raises(ValueError, match="degenerate"):
        SimplicialSet.from_triangles(tris[:1])
    tiny = thin_triangles(rng, n, count)[:count]
    size = np.linalg.norm(tiny - tiny.mean(axis=1, keepdims=True), axis=2).max(axis=1)
    centers = tiny.mean(axis=1) + 0.3 * size[:, None] * rng.standard_normal((count, n))
    for tri, center, radius in zip(tiny, centers, size * rng.uniform(0.3, 1.2, count)):
        e = SimplicialSet.from_triangles(tri[None])
        clipped = restrict(e, Ball(center, radius))
        defect = clipped.diagnostics.get("clip_area_error_bound", 0.0)
        assert measure(clipped) <= measure(e) + defect
