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


# The per-piece loops that the batched union measures replaced, kept as
# bitwise oracles: the batched code must give exactly their bits.

def _sign_oracle(u):
    for comp in u:
        if abs(comp) > 1e-9:
            return -u if comp < 0 else u
    return u


def segments_union_oracle(segments):
    groups = {}
    for seg in segments:
        p, q = np.asarray(seg[0], dtype=float), np.asarray(seg[1], dtype=float)
        d = q - p
        ln = np.linalg.norm(d)
        if ln <= 1e-14:
            continue
        u = _sign_oracle(d / ln)
        t0, t1 = float(np.dot(p, u)), float(np.dot(q, u))
        offset = p - np.dot(p, u) * u
        key = tuple(np.round(u, 9)) + tuple(np.round(offset, 9))
        groups.setdefault(key, []).append((min(t0, t1), max(t0, t1)))
    total = 0.0
    for iv in groups.values():
        if len(iv) == 1:
            total += iv[0][1] - iv[0][0]
        else:
            total += interval_union_length(iv)
    return float(total)


def _cross_oracle(a, b):
    # np.cross, including the z-component it returns for 2-vectors
    return np.cross(a, b) if len(a) == 3 else a[0] * b[1] - a[1] * b[0]


def _plane_key_oracle(tri):
    a, b, c = tri
    if len(a) != 3:
        return ("planar2d",)
    nrm = np.cross(b - a, c - a)
    with np.errstate(invalid="ignore", divide="ignore"):  # a degenerate normal is NaN
        nrm = _sign_oracle(nrm / np.linalg.norm(nrm))
    off = float(np.dot(a, nrm))
    return tuple(np.round(nrm, 9)) + (round(off, 9),)


def triangles_union_oracle(triangles):
    tris = [np.asarray(t, dtype=float) for t in triangles]
    if not tris:
        return 0.0
    groups = {}
    for t in tris:
        groups.setdefault(_plane_key_oracle(t), []).append(t)
    total = 0.0
    for group in groups.values():
        if len(group) == 1:
            a, b, c = group[0]
            total += 0.5 * np.linalg.norm(_cross_oracle(b - a, c - a))
            continue
        # origin and u from the first triangle whose first edge is not zero
        t0 = next((t for t in group if np.any(t[1] != t[0])), group[0])
        a0 = t0[0]
        e1 = t0[1] - t0[0]
        u = e1 / np.linalg.norm(e1)
        e2 = t0[2] - t0[0]
        w = e2 - np.dot(e2, u) * u
        nw = np.linalg.norm(w)
        if nw <= 1e-14:
            for alt in group[1:]:
                e2 = alt[2] - alt[0]
                w = e2 - np.dot(e2, u) * u
                nw = np.linalg.norm(w)
                if nw > 1e-14:
                    break
        if nw <= 1e-14:
            continue
        v = w / nw
        flat = [np.column_stack([(t - a0) @ u, (t - a0) @ v]) for t in group]
        total += polygon_union_area(flat)
    return float(total)


def awkward_segments(rng, n):
    """Collinear groups plus duplicates, reversed copies, zero-length and
    sub-1e-14 segments, and directions whose first component is within
    1e-9 of zero (so the sign is decided by a later component)."""
    segs, _ = collinear_segments(rng, n)
    for _ in range(rng.integers(0, 4)):
        p = rng.uniform(-1.0, 1.0, n)
        d = rng.standard_normal(n)
        d[0] = rng.choice([0.0, 1e-10, -1e-10, 5e-10, -9e-10])
        segs.append((p, p + rng.uniform(0.1, 1.0) * d))
    for _ in range(rng.integers(0, 3)):
        p = rng.uniform(-1.0, 1.0, n)
        segs.append((p, p + rng.choice([0.0, 1e-15, 1e-12]) * rng.standard_normal(n)))
    picks = rng.integers(0, len(segs), rng.integers(0, 4))
    segs += [segs[i][::-1] if rng.random() < 0.5 else segs[i] for i in picks]
    return [segs[i] for i in rng.permutation(len(segs))]


def awkward_triangles(rng, n):
    """Coplanar groups (R^3) or overlapping fat triangles (R^2) plus
    duplicates, zero-area triangles, and planes whose normal has its first
    component within 1e-9 of zero."""
    if n == 3:
        tris, _ = coplanar_triangles(rng)
        for _ in range(rng.integers(0, 4)):
            # a plane whose normal (eps, 1, s) has a first component below 1e-9
            eps = rng.choice([0.0, 1e-10, -1e-10, 8e-10])
            nrm = np.array([eps, 1.0, rng.uniform(-1.0, 1.0)])
            frame = np.linalg.qr(np.column_stack([nrm, rng.standard_normal((3, 2))]))[0][:, 1:]
            origin = rng.uniform(-1.0, 1.0, 3)
            for _ in range(rng.integers(1, 4)):  # all hold origin; either orientation
                t = rng.uniform(-1.0, 1.0, (3, 2))
                t = (t - t.mean(axis=0))[::rng.choice([-1, 1])]
                tris.append(origin + t @ frame.T)
    else:
        tris = [rng.uniform(-1.0, 1.0, (3, 2)) for _ in range(rng.integers(1, 5))]
    for _ in range(rng.integers(0, 3)):
        a, b = rng.uniform(-1.0, 1.0, (2, n))
        tris.append(rng.choice([np.array([a, a, a]), np.array([a, b, a]),
                                np.array([a, b, 0.5 * (a + b)])]))
    picks = rng.integers(0, len(tris), rng.integers(0, 3))
    tris += [np.roll(tris[i], rng.integers(0, 3), axis=0) for i in picks]
    return [tris[i] for i in rng.permutation(len(tris))]


class TestBatchedUnionsMatchLoop:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]))
    def test_segments(self, seed, n):
        segs = awkward_segments(np.random.default_rng(seed), n)
        expected = segments_union_oracle(segs)
        assert segments_union_measure(segs) == expected
        assert segments_union_measure(np.array(segs)) == expected

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]))
    def test_triangles(self, seed, n):
        tris = awkward_triangles(np.random.default_rng(seed), n)
        with np.errstate(invalid="ignore", divide="ignore"):
            expected = triangles_union_oracle(tris)
        assert triangles_union_measure(tris) == expected
        assert triangles_union_measure(np.array(tris)) == expected

    def test_single_and_empty(self):
        tri = np.array([[0.1, 0.2], [1.3, 0.4], [0.2, 0.9]])
        assert triangles_union_measure([tri]) == triangles_union_oracle([tri])
        assert triangles_union_measure([]) == 0.0
        assert segments_union_measure([]) == 0.0

    def test_zero_area_triangles_stay_apart(self):
        a = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])  # NaN plane key
        b = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert triangles_union_measure([a, a, b, a]) == triangles_union_oracle([a, a, b, a]) == 0.5

    def test_planes_that_differ_by_zero_sign_share_a_key(self):
        a = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0]])   # normal (0, 0, 1)
        b = np.array([[0.0, 0, 0], [0, 1, 0], [1, 1, 0]])   # normal (0, 0, -1)
        assert triangles_union_measure([a, b]) == triangles_union_oracle([a, b]) == 0.75

    def test_plane_offsets_round_like_python(self):
        # round(o, 9) puts the offsets 2.5e-9 and 2.5000001e-9 in one
        # grid cell; np.round would split the two planes
        a = np.array([[0.0, 0, 2.5e-9], [1, 0, 2.5e-9], [0, 1, 2.5e-9]])
        b = a + [0.25, 0.25, 1e-16]
        assert triangles_union_measure([a, b]) == triangles_union_oracle([a, b])
        assert triangles_union_measure([a, b]) == pytest.approx(0.875, abs=1e-12)

    def test_first_triangle_with_zero_first_edge(self):
        # its first edge cannot give the in-plane basis of the R^2 group
        a, b = np.array([0.3, 0.2]), np.array([0.7, 0.9])
        tris = [np.array([a, a, b]), np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])]
        assert triangles_union_measure(tris) == triangles_union_measure(tris[::-1]) == 0.5
        assert triangles_union_measure(tris) == triangles_union_oracle(tris)

    def test_other_ambient_dimensions_rejected(self):
        with pytest.raises(ValueError, match="R\\^2 or R\\^3"):
            triangles_union_measure([np.eye(4)[:3], np.eye(4)[1:]])
