import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varifoldlab.unions import (_python_round9, interval_union_length, polygon_union_area,
                                segments_union_measure, triangles_union_measure)


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
    """Triangles as the 3-gons of ``polygon_union_area``."""

    def test_single(self):
        tri = np.array([[[0.0, 0], [1, 0], [0, 1]]])
        assert polygon_union_area(tri) == pytest.approx(0.5, abs=1e-12)

    def test_disjoint_sum(self):
        tris = np.array([
            [[0.0, 0], [1, 0], [0, 1]],
            [[5.0, 5], [6, 5], [5, 6]],
        ])
        assert polygon_union_area(tris) == pytest.approx(1.0, abs=1e-12)

    def test_duplicate_counted_once(self):
        tri = [[0.0, 0], [2, 0], [0, 2]]
        assert polygon_union_area(np.array([tri, tri, tri])) == pytest.approx(2.0, abs=1e-12)

    def test_nested_containment(self):
        outer = [[-3.0, -3], [3, -3], [0, 4]]
        inner = [[-0.5, -0.5], [0.5, -0.5], [0, 0.5]]
        got = polygon_union_area(np.array([outer, inner]))
        assert got == pytest.approx(polygon_union_area(np.array([outer])), abs=1e-12)

    def test_partition_equals_total(self):
        # split a square into 4 triangles: union = 1 exactly
        c = np.array([0.5, 0.5])
        corners = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
        tris = np.array([[c, corners[i], corners[(i + 1) % 4]] for i in range(4)])
        assert polygon_union_area(tris) == pytest.approx(1.0, abs=1e-12)

    def test_random_soups_vs_raster_oracle(self):
        rng = np.random.default_rng(1)
        for trial in range(6):
            tris = rng.standard_normal((7, 3, 2))
            got = polygon_union_area(tris)
            oracle = raster_union_oracle(tris)
            assert got == pytest.approx(oracle, rel=0.02)

    def test_degenerate_dropped(self):
        tris = np.array([
            [[0.0, 0], [1, 0], [2, 0]],          # collinear
            [[0.0, 0], [1, 0], [0, 1]],
        ])
        assert polygon_union_area(tris) == pytest.approx(0.5, abs=1e-12)


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
        expected += polygon_union_area(flat)
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
# bitwise oracles: the batched code must give exactly their bits. The
# triangle oracle groups, projects and sweeps one coplanar group at a time,
# through the per-polygon sweep that the batched one replaced.

def interval_union_oracle(intervals):
    """The sequential sweep: sort by lo, merge within 1e-12 (1 + span),
    add the runs one after another."""
    iv = np.asarray(intervals, dtype=float).reshape(-1, 2)
    if len(iv) == 0:
        return 0.0
    lo = np.minimum(iv[:, 0], iv[:, 1])
    hi = np.maximum(iv[:, 0], iv[:, 1])
    merge_tol = 1e-12 * (1.0 + float(hi.max() - lo.min()))
    order = np.argsort(lo, kind="stable")
    lo, hi = lo[order], hi[order]
    total = 0.0
    cur_lo, cur_hi = lo[0], hi[0]
    for i in range(1, len(lo)):
        if lo[i] > cur_hi + merge_tol:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo[i], hi[i]
        else:
            cur_hi = max(cur_hi, hi[i])
    total += cur_hi - cur_lo
    return float(total)


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
            total += interval_union_oracle(iv)
    return float(total)


def _polygon_area_oracle(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _clean_polygons_oracle(polys):
    out = []
    for p in polys:
        p = np.asarray(p, dtype=float).reshape(-1, 2)
        if len(p) >= 2:
            keep = np.ones(len(p), dtype=bool)
            keep[1:] = np.linalg.norm(np.diff(p, axis=0), axis=1) > 1e-15
            if np.linalg.norm(p[0] - p[-1]) <= 1e-15 and keep[-1]:
                keep[-1] = False
            p = p[keep]
        if len(p) >= 3 and abs(_polygon_area_oracle(p)) > 1e-14:
            out.append(p)
    return out


def _crossings_oracle(edges, poly_ids):
    e = edges
    n = len(e)
    if n < 2:
        return np.zeros(0)
    xmin = e[:, :, 0].min(axis=1)
    xmax = e[:, :, 0].max(axis=1)
    ymin = e[:, :, 1].min(axis=1)
    ymax = e[:, :, 1].max(axis=1)
    order = np.argsort(xmin, kind="stable")
    xmin_s, xmax_s = xmin[order], xmax[order]
    hi = np.searchsorted(xmin_s, xmax_s, side="right")
    counts = np.maximum(hi - np.arange(n) - 1, 0)
    if int(counts.sum()) == 0:
        return np.zeros(0)
    ii = np.repeat(np.arange(n), counts)
    jj = np.concatenate([np.arange(i + 1, h) for i, h in zip(np.arange(n), hi) if h > i + 1])
    a, b = order[ii], order[jj]
    keep = poly_ids[a] != poly_ids[b]
    keep &= (ymin[a] <= ymax[b]) & (ymin[b] <= ymax[a])
    a, b = a[keep], b[keep]
    if len(a) == 0:
        return np.zeros(0)
    p = e[a, 0]
    r = e[a, 1] - e[a, 0]
    q = e[b, 0]
    s = e[b, 1] - e[b, 0]
    denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    ok = np.abs(denom) > 1e-15
    if not ok.any():
        return np.zeros(0)
    p, r, q, s, denom = p[ok], r[ok], q[ok], s[ok], denom[ok]
    qp = q - p
    t1 = (qp[:, 0] * s[:, 1] - qp[:, 1] * s[:, 0]) / denom
    t2 = (qp[:, 0] * r[:, 1] - qp[:, 1] * r[:, 0]) / denom
    hit = (t1 > 1e-12) & (t1 < 1 - 1e-12) & (t2 > 1e-12) & (t2 < 1 - 1e-12)
    return p[hit, 0] + t1[hit] * r[hit, 0]


def polygon_union_oracle(polys):
    """The planar sweep one polygon and one strip at a time."""
    polys = _clean_polygons_oracle(polys)
    if not polys:
        return 0.0
    edges = np.concatenate([np.stack([p, np.roll(p, -1, axis=0)], axis=1) for p in polys])
    poly_ids = np.concatenate([np.full(len(p), pid) for pid, p in enumerate(polys)])
    all_x = np.concatenate([p[:, 0] for p in polys])
    xs = np.sort(np.concatenate([all_x, _crossings_oracle(edges, poly_ids)]))
    span = xs[-1] - xs[0]
    if span <= 0:
        return 0.0
    xs = xs[np.concatenate([[True], np.diff(xs) > 1e-13 * (1 + span)])]
    if len(xs) < 2:
        return 0.0
    mids = 0.5 * (xs[:-1] + xs[1:])
    widths = np.diff(xs)
    tol = 1e-13 * (1 + span)
    exmin = edges[:, :, 0].min(axis=1)
    exmax = edges[:, :, 0].max(axis=1)
    i0 = np.searchsorted(xs, exmin - tol, side="left")
    i1 = np.searchsorted(xs, exmax + tol, side="right") - 2
    counts = np.maximum(i1 - i0 + 1, 0)
    if counts.sum() == 0:
        return 0.0
    eids = np.repeat(np.arange(len(edges)), counts)
    strip_ids = np.concatenate([np.arange(lo, lo + c) for lo, c in zip(i0, counts) if c > 0])
    xm = mids[strip_ids]
    p0, p1 = edges[eids, 0], edges[eids, 1]
    dx = p1[:, 0] - p0[:, 0]
    t = (xm - p0[:, 0]) / np.where(dx != 0, dx, 1.0)
    yv = p0[:, 1] + t * (p1[:, 1] - p0[:, 1])
    pv = poly_ids[eids]
    order = np.lexsort((yv, pv, strip_ids))
    sid, pid, y = strip_ids[order], pv[order], yv[order]
    group_start = np.concatenate([[True], (sid[1:] != sid[:-1]) | (pid[1:] != pid[:-1])])
    starts_idx = np.flatnonzero(group_start)
    lo_iv = y[starts_idx]
    hi_iv = np.maximum.reduceat(y, starts_idx)
    g_sid = sid[starts_idx]
    order2 = np.lexsort((lo_iv, g_sid))
    sid2, lo2, hi2 = g_sid[order2], lo_iv[order2], hi_iv[order2]
    yspan = float(hi2.max() - lo2.min()) if len(lo2) else 0.0
    eps = 1e-12 * (1 + yspan)
    total = 0.0
    strip_starts = np.flatnonzero(np.concatenate([[True], sid2[1:] != sid2[:-1]]))
    strip_ends = np.concatenate([strip_starts[1:], [len(sid2)]])
    for a, b in zip(strip_starts, strip_ends):
        w = widths[sid2[a]]
        cm = np.maximum.accumulate(hi2[a:b])
        gap = np.flatnonzero(lo2[a + 1:b] > cm[:-1] + eps) + 1
        run_starts = np.concatenate([[0], gap])
        run_ends = np.concatenate([gap - 1, [b - a - 1]])
        total += w * float(np.sum(cm[run_ends] - lo2[a:b][run_starts]))
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
        total += polygon_union_oracle(flat)
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


def _ulps(x, k):
    """x moved k representable doubles up (k > 0) or down."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


def awkward_intervals(rng):
    """Intervals at the scale 1e-13, 1 or 1e6 between two fixed ends: a
    chain of disjoint pieces whose gaps lie at the merge tolerance +- 4
    ulps or are random, with nested pieces, duplicates, reversed copies
    and, at a zero end, -0.0 and 0.0."""
    scale = rng.choice([1e-13, 1.0, 1e6])
    left = float(rng.choice([0.0, -0.0, rng.uniform(-1.0, 1.0) * scale]))
    right = left + scale * rng.uniform(5.0, 50.0) + 40e-12
    tol = 1e-12 * (1.0 + (right - left))  # as the sweep computes it
    rows, lo = [], left
    while (hi := lo + scale * rng.uniform(0.0, 1.0)) < right:
        rows.append((lo, hi))
        if rng.random() < 0.3:
            rows.append(tuple(lo + (hi - lo) * np.sort(rng.uniform(0.0, 1.0, 2))))
        if rng.random() < 0.6:
            lo = _ulps(hi + tol, int(rng.integers(-4, 5)))
        else:
            lo = hi + scale * rng.uniform(0.0, 2.0)
    rows.append((min(lo, right), right))
    if left == 0.0:
        rows += [(-left, rows[0][1]), (0.0, -0.0), (-0.0, 0.0)]
    picks = rng.integers(0, len(rows), rng.integers(0, 4))
    rows += [rows[i][::-1] if rng.random() < 0.5 else rows[i] for i in picks]
    return [rows[i][::rng.choice([-1, 1])] for i in rng.permutation(len(rows))]


def convex_polygon(rng, k, center, radius):
    """A convex k-gon with corners at sorted random angles on a circle,
    counter-clockwise."""
    ang = np.sort(rng.uniform(0.0, 2 * np.pi, k))
    return center + radius * np.column_stack([np.cos(ang), np.sin(ang)])


def comb(rng, teeth):
    """Disjoint thin triangles stacked in y over one x range, so that every
    strip of their union holds ``teeth`` disjoint runs."""
    x0, w, h = rng.uniform(-1.0, 0.0), rng.uniform(0.5, 1.0), rng.uniform(0.01, 0.05)
    return [np.array([[x0, 3 * h * j], [x0 + w, 3 * h * j + rng.uniform(0.0, h)],
                      [x0 + rng.uniform(0.0, w), 3 * h * j + h]]) for j in range(teeth)]


def awkward_polygons(rng):
    """Overlapping convex polygons in either orientation, some closed
    (last corner repeating the first) or with repeated and sub-1e-15
    edges, plus duplicates, zero-area polygons, polygons with an area
    within rounding of the 1e-14 threshold, polygons of fewer than 3
    corners and combs of 8 to 20 teeth."""
    polys = []
    for _ in range(rng.integers(1, 8)):
        p = convex_polygon(rng, rng.integers(3, 9), rng.uniform(-1.0, 1.0, 2),
                           rng.uniform(0.05, 1.0))
        if rng.random() < 0.3:
            p = p[::-1]
        if rng.random() < 0.3:
            p = np.vstack([p, p[:1]])
        if rng.random() < 0.3:
            i = rng.integers(0, len(p))
            p = np.insert(p, i, p[i] + rng.choice([0.0, 1e-16, 4e-16]), axis=0)
        polys.append(p)
    for _ in range(rng.integers(0, 3)):
        polys += comb(rng, rng.integers(8, 21))
    for _ in range(rng.integers(0, 3)):
        a, b = rng.uniform(-1.0, 1.0, (2, 2))
        polys.append([np.array([a, a, a]), np.array([a, b, 0.5 * (a + b)]),
                      np.array([a, b, a, b]), np.zeros((0, 2)), a[None], np.array([a, b])]
                     [rng.integers(0, 6)])
    for _ in range(rng.integers(0, 2)):
        a, d = rng.uniform(-1.0, 1.0, 2), rng.uniform(0.5, 1.0)
        h = 2e-14 / d * (1 + rng.uniform(-1e-3, 1e-3))  # area 1e-14 (1 +- 1e-3)
        polys.append(np.array([a, a + [d, 0.0], a + [0.5 * d, h]]))
    picks = rng.integers(0, len(polys), rng.integers(0, 3))
    polys += [polys[i] for i in picks]
    return [polys[i] for i in rng.permutation(len(polys))]


def axis_plane_groups(rng):
    """Triangles in a few planes x_i = c, each in either orientation, so
    that their normals carry -0.0 and 0.0 components, with a comb in one."""
    tris = []
    for _ in range(rng.integers(1, 4)):
        axis, c = rng.integers(0, 3), rng.choice([0.0, rng.uniform(-1.0, 1.0)])
        flat = [rng.uniform(-1.0, 1.0, (3, 2)) for _ in range(rng.integers(2, 5))]
        if rng.random() < 0.5:
            flat += comb(rng, rng.integers(8, 12))
        for t in flat:
            t = t[::rng.choice([-1, 1])]
            tris.append(np.insert(t, axis, c, axis=1))
    return tris


def awkward_triangles(rng, n):
    """Coplanar groups (R^3) or overlapping fat triangles (R^2) plus
    duplicates, zero-area triangles (whose plane key is NaN), axis planes
    whose normals have -0.0 and 0.0 components, planes whose normal has
    its first component within 1e-9 of zero, and combs."""
    if n == 3:
        tris, _ = coplanar_triangles(rng)
        tris += axis_plane_groups(rng)
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
        if rng.random() < 0.5:
            tris += comb(rng, rng.integers(8, 12))
    for _ in range(rng.integers(0, 3)):
        a, b = rng.uniform(-1.0, 1.0, (2, n))
        tris.append(rng.choice([np.array([a, a, a]), np.array([a, b, a]),
                                np.array([a, b, 0.5 * (a + b)])]))
    picks = rng.integers(0, len(tris), rng.integers(0, 3))
    tris += [np.roll(tris[i], rng.integers(0, 3), axis=0) for i in picks]
    return [tris[i] for i in rng.permutation(len(tris))]


class TestBatchedUnionsMatchLoop:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_polygons(self, seed):
        polys = awkward_polygons(np.random.default_rng(seed))
        assert polygon_union_area(polys) == polygon_union_oracle(polys)

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

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_intervals(self, seed):
        iv = awkward_intervals(np.random.default_rng(seed))
        assert interval_union_length(iv) == interval_union_oracle(iv)
        assert interval_union_length(np.array(iv)) == interval_union_oracle(iv)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_segments_merge_within_their_own_line_tolerance(self, seed):
        # lines y = c at different scales: each merges within its own span
        rng = np.random.default_rng(seed)
        segs = [((lo, c), (hi, c)) for c in rng.permutation(4)[:rng.integers(2, 5)]
                for lo, hi in awkward_intervals(rng)]
        segs = [segs[i] for i in rng.permutation(len(segs))]
        assert segments_union_measure(segs) == segments_union_oracle(segs)

    def test_interval_edge_cases(self):
        for iv in ([], [(0.0, -0.0)], [(-0.0, 0.0), (0.0, 1e-13)], [(1e6, 1e6 + 1)] * 3,
                   [(2.0, 1.0), (1.0, 2.0)]):
            assert interval_union_length(iv) == interval_union_oracle(iv)

    def test_single_and_empty(self):
        tri = np.array([[0.1, 0.2], [1.3, 0.4], [0.2, 0.9]])
        assert triangles_union_measure([tri]) == triangles_union_oracle([tri])
        assert triangles_union_measure([]) == 0.0
        assert segments_union_measure([]) == 0.0
        assert segments_union_measure([([0.5, 0.5], [0.5, 0.5])]) == 0.0

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

    def test_plane_offset_keys_are_python_rounds(self):
        rng = np.random.default_rng(7)
        halves = (np.arange(-50, 50) + 0.5) * 1e-9
        near = [_ulps(h, k) for h in halves for k in range(-3, 4)]
        offsets = np.array(near + [0.0, -0.0, np.nan, np.inf, -np.inf, 2.5e-9, 1e8 + 0.5e-9]
                           + list(rng.uniform(-2.0, 2.0, 500)) + list(rng.standard_normal(100) * 1e-9))
        with np.errstate(invalid="ignore"):  # inf - inf, as in the library's call
            got = _python_round9(offsets)
        expected = np.array([round(o, 9) for o in offsets.tolist()])
        assert np.array_equal(got, expected, equal_nan=True)
        assert (np.signbit(got) == np.signbit(expected)).all()

    def test_first_triangle_with_zero_first_edge(self):
        # its first edge cannot give the in-plane basis of the R^2 group
        a, b = np.array([0.3, 0.2]), np.array([0.7, 0.9])
        tris = [np.array([a, a, b]), np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])]
        assert triangles_union_measure(tris) == triangles_union_measure(tris[::-1]) == 0.5
        assert triangles_union_measure(tris) == triangles_union_oracle(tris)

    def test_other_ambient_dimensions_rejected(self):
        with pytest.raises(ValueError, match="R\\^2 or R\\^3"):
            triangles_union_measure([np.eye(4)[:3], np.eye(4)[1:]])

    def test_first_triangle_with_its_second_edge_along_the_first(self):
        # v of the R^2 group comes from the next triangle's second edge
        tris = [np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                np.array([[0.5, 0.0], [1.5, 0.0], [0.5, 1.0]])]
        assert triangles_union_measure(tris) == triangles_union_oracle(tris) == 0.875

    def test_groups_without_an_in_plane_basis(self):
        # every second edge lies along the first edge's line: the group adds 0
        a = np.array([[0.0, 0], [1, 0], [2, 0]])
        b = np.array([[0.0, 0], [3, 0], [5, 0]])
        z = np.array([[0.0, 0], [0, 0], [1, 1]])
        c = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0]])
        for tris in ([a, b], [z, z], [c, c], [a, b, z]):
            with np.errstate(invalid="ignore", divide="ignore"):
                expected = triangles_union_oracle(tris)
            assert triangles_union_measure(tris) == expected == 0.0

    def test_strip_with_many_runs(self):
        # np.sum adds 8 or more runs pairwise, not left to right
        polys = comb(np.random.default_rng(3), 150)
        assert polygon_union_area(polys) == polygon_union_oracle(polys)


class TestPlanarInputs:
    def test_polygon_union_area_rejects_r3(self):
        square = np.array([[0.0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]])
        tris = np.array([[[0.0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0.0, 0, 1], [1, 0, 1], [0, 1, 1]]])
        for polys in ([square], tris):
            with pytest.raises(ValueError, match="R\\^2"):
                polygon_union_area(polys)

    def test_empty(self):
        assert polygon_union_area([]) == 0.0

    def test_polygons_of_fewer_than_3_corners_are_dropped(self):
        tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        polys = [tri, np.zeros((0, 2)), tri[:1], tri[:2], tri + 0.25]
        assert polygon_union_area(polys) == polygon_union_area([tri, tri + 0.25]) == 0.875


def fat_polygons(rng):
    """A few overlapping convex polygons of comparable size."""
    return [convex_polygon(rng, rng.integers(3, 9), rng.uniform(-1.0, 1.0, 2),
                           rng.uniform(0.2, 1.0)) for _ in range(rng.integers(1, 7))]


class TestUnionProperties:
    """Union measures as set functions, at 1e-12 relative: bounded by the
    largest piece and by the sum of the pieces, blind to the order and
    repetition of the pieces, additive over families far apart."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_polygons(self, seed):
        rng = np.random.default_rng(seed)
        polys = fat_polygons(rng)
        union = polygon_union_area(polys)
        pieces = [polygon_union_area([p]) for p in polys]
        assert max(pieces) * (1 - 1e-12) <= union <= sum(pieces) * (1 + 1e-12)
        again = [polys[i] for i in rng.permutation(len(polys))] + polys[:rng.integers(1, 3)]
        assert polygon_union_area(again) == pytest.approx(union, rel=1e-12)
        other = fat_polygons(rng)
        shift = [5.0, rng.uniform(-5.0, 5.0)]
        far = [p + shift for p in other]
        assert polygon_union_area(polys + far) == pytest.approx(
            union + polygon_union_area(other), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_triangles_3d(self, seed):
        rng = np.random.default_rng(seed)
        tris, _ = coplanar_triangles(rng)
        union = triangles_union_measure(tris)
        pieces = [triangles_union_measure([t]) for t in tris]
        assert max(pieces) * (1 - 1e-12) <= union <= sum(pieces) * (1 + 1e-12)
        again = [tris[i] for i in rng.permutation(len(tris))] + tris[:rng.integers(1, 3)]
        assert triangles_union_measure(again) == pytest.approx(union, rel=1e-12)
        other, _ = coplanar_triangles(rng)
        far = [t + [5.0, 0.0, 0.0] for t in other]
        assert triangles_union_measure(tris + far) == pytest.approx(
            union + triangles_union_measure(other), rel=1e-12)
