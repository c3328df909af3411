import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varifoldlab.unions import (interval_union_length, polygon_union_area,
                                segments_union_measure, triangle_union_area,
                                triangles_union_measure)


def grid_interval_oracle(intervals, resolution=200_001):
    """Independent oracle: rasterize the union on a dense grid."""
    iv = np.asarray(intervals, dtype=float)
    lo, hi = iv.min() - 0.1, iv.max() + 0.1
    xs = np.linspace(lo, hi, resolution)
    covered = np.zeros(resolution, dtype=bool)
    for a, b in iv:
        covered |= (xs >= min(a, b)) & (xs <= max(a, b))
    return covered.mean() * (hi - lo)


def raster_union_oracle(tris, resolution=900):
    """Independent oracle: rasterize the triangle union on a pixel grid."""
    tris = np.asarray(tris, dtype=float).reshape(-1, 3, 2)
    lo = tris.reshape(-1, 2).min(axis=0) - 0.05
    hi = tris.reshape(-1, 2).max(axis=0) + 0.05
    xs = np.linspace(lo[0], hi[0], resolution)
    ys = np.linspace(lo[1], hi[1], resolution)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    inside = np.zeros(len(pts), dtype=bool)
    for v0, v1, v2 in tris:
        den = ((v1[1] - v2[1]) * (v0[0] - v2[0]) + (v2[0] - v1[0]) * (v0[1] - v2[1]))
        if abs(den) < 1e-15:
            continue
        l1 = ((v1[1] - v2[1]) * (pts[:, 0] - v2[0]) + (v2[0] - v1[0]) * (pts[:, 1] - v2[1])) / den
        l2 = ((v2[1] - v0[1]) * (pts[:, 0] - v2[0]) + (v0[0] - v2[0]) * (pts[:, 1] - v2[1])) / den
        inside |= (l1 >= 0) & (l2 >= 0) & (l1 + l2 <= 1)
    cell = (xs[1] - xs[0]) * (ys[1] - ys[0])
    return inside.sum() * cell


class TestIntervalUnion:
    def test_disjoint(self):
        assert interval_union_length([(0, 1), (2, 3.5)]) == pytest.approx(2.5)

    def test_overlap_counted_once(self):
        assert interval_union_length([(0, 2), (1, 3)]) == pytest.approx(3.0)

    def test_nested(self):
        assert interval_union_length([(0, 4), (1, 2)]) == pytest.approx(4.0)

    def test_touching_merge(self):
        assert interval_union_length([(0, 1), (1, 2)]) == pytest.approx(2.0)

    def test_random_vs_grid_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            iv = np.sort(rng.standard_normal((12, 2)), axis=1)
            got = interval_union_length(iv)
            oracle = grid_interval_oracle(iv)
            assert got == pytest.approx(oracle, abs=2e-4)

    def test_empty(self):
        assert interval_union_length(np.zeros((0, 2))) == 0.0


class TestTriangleUnion:
    def test_single(self):
        tri = np.array([[[0.0, 0], [1, 0], [0, 1]]])
        assert triangle_union_area(tri) == pytest.approx(0.5, abs=1e-12)

    def test_disjoint_sum(self):
        tris = np.array([
            [[0.0, 0], [1, 0], [0, 1]],
            [[5.0, 5], [6, 5], [5, 6]],
        ])
        assert triangle_union_area(tris) == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_counted_once(self):
        tri = [[0.0, 0], [2, 0], [0, 2]]
        assert triangle_union_area(np.array([tri, tri, tri])) == pytest.approx(2.0, abs=1e-12)

    def test_nested_containment(self):
        outer = [[-3.0, -3], [3, -3], [0, 4]]
        inner = [[-0.5, -0.5], [0.5, -0.5], [0, 0.5]]
        got = triangle_union_area(np.array([outer, inner]))
        assert got == pytest.approx(triangle_union_area(np.array([outer])), abs=1e-12)

    def test_partition_equals_total(self):
        # split a square into 4 triangles: union = 1 exactly
        c = np.array([0.5, 0.5])
        corners = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
        tris = np.array([[c, corners[i], corners[(i + 1) % 4]] for i in range(4)])
        assert triangle_union_area(tris) == pytest.approx(1.0, abs=1e-12)

    def test_random_soups_vs_raster_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(6):
            tris = rng.standard_normal((7, 3, 2))
            got = triangle_union_area(tris)
            oracle = raster_union_oracle(tris)
            assert got == pytest.approx(oracle, rel=0.02)

    def test_degenerate_dropped(self):
        tris = np.array([
            [[0.0, 0], [1, 0], [2, 0]],          # collinear
            [[0.0, 0], [1, 0], [0, 1]],
        ])
        assert triangle_union_area(tris) == pytest.approx(0.5, abs=1e-12)


class TestPolygonUnion:
    def test_convex_polygon_exact(self):
        ang = np.linspace(0, 2 * np.pi, 97)[:-1]
        hexagon = np.column_stack([np.cos(ang), np.sin(ang)])
        area = 0.5 * 96 * np.sin(2 * np.pi / 96)
        assert polygon_union_area([hexagon]) == pytest.approx(area, abs=1e-12)

    def test_two_squares_overlap(self):
        a = np.array([[0.0, 0], [2, 0], [2, 2], [0, 2]])
        b = a + np.array([1.0, 1.0])
        assert polygon_union_area([a, b]) == pytest.approx(7.0, abs=1e-12)


class TestAmbientUnions:
    def test_collinear_segments_merge(self):
        segs = [([0.0, 0.0], [2.0, 0.0]), ([1.0, 0.0], [3.0, 0.0])]
        assert segments_union_measure(segs) == pytest.approx(3.0, abs=1e-9)

    def test_crossing_segments_add(self):
        segs = [([-1.0, 0.0], [1.0, 0.0]), ([0.0, -1.0], [0.0, 1.0])]
        assert segments_union_measure(segs) == pytest.approx(4.0, abs=1e-9)

    def test_segments_in_3d(self):
        segs = [([0.0, 0, 0], [1, 1, 1]), ([0.5, 0.5, 0.5], [2, 2, 2])]
        assert segments_union_measure(segs) == pytest.approx(2 * np.sqrt(3), abs=1e-9)

    def test_coplanar_triangles_3d(self):
        a = np.array([[0.0, 0, 1], [2, 0, 1], [0, 2, 1]])
        b = a + np.array([0.5, 0.5, 0.0])
        got = triangles_union_measure([a, b])
        oracle = raster_union_oracle(np.array([a[:, :2], b[:, :2]]))
        assert got == pytest.approx(oracle, rel=0.02)

    def test_skew_triangles_add(self):
        a = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        b = np.array([[0.0, 0, 1], [1, 0, 1], [0, 1, 1]])
        assert triangles_union_measure([a, b]) == pytest.approx(1.0, abs=1e-12)


def rigid_motion(rng, n):
    """A random rotation (determinant +1) and translation of R^n."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    shift = rng.uniform(-3.0, 3.0, n)
    return lambda pts: np.asarray(pts) @ q.T + shift


def collinear_segments(rng, n):
    """Overlapping segments, each in a random orientation, on a few random
    lines of R^n, and the union length from the line parameters alone."""
    segs, expected = [], 0.0
    for _ in range(rng.integers(1, 4)):
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        base = rng.uniform(-1.0, 1.0, n)
        params = [np.sort(rng.uniform(-1.0, 1.0, 2)) + [0.0, 0.05]
                  for _ in range(rng.integers(1, 5))]
        segs += [(base + t0 * u, base + t1 * u)[::rng.choice([-1, 1])] for t0, t1 in params]
        expected += interval_union_length(params)
    return segs, expected


def coplanar_triangles(rng):
    """Overlapping fat triangles on a few random planes of R^3, and the
    union area from the in-plane coordinates alone."""
    tris, expected = [], 0.0
    for _ in range(rng.integers(1, 4)):
        frame = np.linalg.qr(rng.standard_normal((3, 2)))[0]
        origin = rng.uniform(-1.0, 1.0, 3)
        flat, count = [], rng.integers(1, 5)
        while len(flat) < count:
            t = rng.uniform(-1.0, 1.0, (3, 2))
            (x1, y1), (x2, y2) = t[1] - t[0], t[2] - t[0]
            if abs(x1 * y2 - x2 * y1) > 0.1:
                flat.append(t)
        tris += [origin + t @ frame.T for t in flat]
        expected += triangle_union_area(flat)
    return tris, expected


class TestUnionInvariance:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]))
    def test_segments(self, seed, n):
        rng = np.random.default_rng(seed)
        segs, expected = collinear_segments(rng, n)
        base = segments_union_measure(segs)
        assert base == pytest.approx(expected, rel=1e-9)
        shuffled = [segs[i][::rng.choice([-1, 1])] for i in rng.permutation(len(segs))]
        assert segments_union_measure(shuffled) == pytest.approx(base, rel=1e-9)
        move = rigid_motion(rng, n)
        moved = [(move(p), move(q)) for p, q in segs]
        assert segments_union_measure(moved) == pytest.approx(base, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_triangles_3d(self, seed):
        rng = np.random.default_rng(seed)
        tris, expected = coplanar_triangles(rng)
        base = triangles_union_measure(tris)
        assert base == pytest.approx(expected, rel=1e-9)
        shuffled = [np.roll(tris[i], rng.integers(1, 3), axis=0)
                    for i in rng.permutation(len(tris))]
        assert triangles_union_measure(shuffled) == pytest.approx(base, rel=1e-9)
        move = rigid_motion(rng, 3)
        assert triangles_union_measure([move(t) for t in tris]) == pytest.approx(base, rel=1e-9)
