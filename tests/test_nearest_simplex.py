"""nearest_simplex against the per-simplex loop it replaces: distances equal
bit for bit, and the index is the loop's first minimizer. The loop and its
per-simplex point-segment and point-triangle kernels are kept here as the
oracle, which runs on the points stacked twice: a one-row product takes the
BLAS dot, and the kernel gives every point, a single one included, the
bits of the matrix-vector product."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from test_sets import thin_triangles
from varifoldlab.geometry import Plane
from varifoldlab.metrics import _lattice, _sample_points, hausdorff_local_report
from varifoldlab.quasimin import _affine_projection_deformation, make_deformation
from varifoldlab.scenarios import disk_set, get_family
from varifoldlab import sets
from varifoldlab.sets import (Ball, PointCloudSet, SimplicialSet, _distinct_rows,
                              _nondegenerate, distance_to_set, nearest_simplex)


def point_segment_distance(points, a, b):
    """Distances from an array of points to segment [a, b]."""
    d = b - a
    denom = float(np.dot(d, d))
    if denom == 0:
        return np.linalg.norm(points - a, axis=1)
    t = np.clip((points - a) @ d / denom, 0.0, 1.0)
    foot = a + t[:, None] * d
    return np.linalg.norm(points - foot, axis=1)


def point_triangle_distance(points, tri):
    """Distances from an array of points to a filled triangle."""
    a0, b, c = tri
    e1 = b - a0
    u = e1 / np.linalg.norm(e1)
    e2 = c - a0
    w = e2 - np.dot(e2, u) * u
    v = w / np.linalg.norm(w)
    rel = points - a0
    x = rel @ u
    y = rel @ v
    perp2 = np.maximum(np.einsum("ij,ij->i", rel, rel) - x * x - y * y, 0.0)
    p2 = np.column_stack([x, y])
    t2 = np.column_stack([(tri - a0) @ u, (tri - a0) @ v])
    # barycentric inside test
    d = np.full(len(points), np.inf)
    v0, v1, v2 = t2
    den = (v1[1] - v2[1]) * (v0[0] - v2[0]) + (v2[0] - v1[0]) * (v0[1] - v2[1])
    l1 = ((v1[1] - v2[1]) * (p2[:, 0] - v2[0]) + (v2[0] - v1[0]) * (p2[:, 1] - v2[1])) / den
    l2 = ((v2[1] - v0[1]) * (p2[:, 0] - v2[0]) + (v0[0] - v2[0]) * (p2[:, 1] - v2[1])) / den
    l3 = 1.0 - l1 - l2
    inside = (l1 >= -1e-12) & (l2 >= -1e-12) & (l3 >= -1e-12)
    d[inside] = 0.0
    for i in range(3):
        e0, e1 = t2[i], t2[(i + 1) % 3]
        de = point_segment_distance(p2, e0, e1)
        d = np.minimum(d, de)
    return np.sqrt(d * d + perp2)


def oracle(points, target):
    """Every simplex on every point, in ascending order, keeping strict
    improvements."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    best = np.full(len(pts), np.inf)
    index = np.full(len(pts), -1, dtype=np.int64)
    for i in range(len(target.simplices)):
        sp = target.simplex_points(i)
        if target.dim == 1:
            d = point_segment_distance(pts, sp[0], sp[1])
        else:
            d = point_triangle_distance(pts, sp)
        better = d < best
        best[better] = d[better]
        index[better] = i
    return best, index


def stacked_oracle(points, target):
    """The oracle on the points stacked twice, cut back to one copy."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dist, index = oracle(np.concatenate([pts, pts]), target)
    return dist[:len(pts)], index[:len(pts)]


def assert_matches_oracle(points, target):
    dist, index = nearest_simplex(points, target)
    want_dist, want_index = stacked_oracle(points, target)
    assert np.array_equal(dist, want_dist)
    assert np.array_equal(index, want_index)
    assert np.array_equal(distance_to_set(points, target), want_dist)


def grid_polyline_set(rng, size):
    """Segments of a unit grid graph in R^2: shared vertices, equal lengths."""
    segs = []
    for x in range(size):
        for y in range(size):
            if rng.random() < 0.7:
                segs.append(([x, y], [x + 1, y]))
            if rng.random() < 0.7:
                segs.append(([x, y], [x, y + 1]))
    segs = segs or [([0, 0], [1, 0])]
    return SimplicialSet.from_segments([np.array(s, dtype=float) for s in segs])


def height_field_set(rng, size, relief):
    """A triangulated grid surface z = h(x, y) in R^3 with shared edges."""
    xs, ys = np.meshgrid(np.arange(size + 1.0), np.arange(size + 1.0), indexing="ij")
    z = relief * rng.standard_normal(xs.shape)
    verts = np.column_stack([xs.ravel(), ys.ravel(), z.ravel()])
    tris = []
    for i in range(size):
        for j in range(size):
            a, b = i * (size + 1) + j, (i + 1) * (size + 1) + j
            tris += [[a, b, b + 1], [a, b + 1, a + 1]]
    return SimplicialSet(3, 2, verts, np.array(tris))


def query_points(rng, target, count):
    """Near points, far points, vertices and edge midpoints (exact ties
    between the simplices sharing them)."""
    n = target.ambient_dim
    lo, hi = target.vertices.min(axis=0), target.vertices.max(axis=0)
    corners = target.vertices[target.simplices]
    mids = 0.5 * (corners[:, 0] + corners[:, 1])
    parts = [lo + (hi - lo + 1.0) * rng.random((count, n)) - 0.5,
             1e3 * rng.standard_normal((max(1, count // 8), n)),
             target.vertices[rng.integers(0, len(target.vertices), count // 4 + 1)],
             mids[rng.integers(0, len(mids), count // 4 + 1)],
             np.round(2 * lo + 2 * (hi - lo) * rng.random((count // 4 + 1, n))) / 2]
    return rng.permutation(np.concatenate(parts))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), size=st.integers(1, 6),
       count=st.integers(1, 300), surface=st.booleans(),
       relief=st.sampled_from([0.0, 1e-9, 0.3]))
def test_matches_oracle(seed, size, count, surface, relief):
    rng = np.random.default_rng(seed)
    target = height_field_set(rng, size, relief) if surface else grid_polyline_set(rng, size)
    pts = query_points(rng, target, count)
    assert_matches_oracle(pts, target)
    assert_matches_oracle(pts[:1], target)  # a single point


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), simplices=st.integers(1, 40),
       count=st.integers(1, 200), dim=st.sampled_from([1, 2]))
def test_matches_oracle_on_random_soup(seed, simplices, count, dim):
    rng = np.random.default_rng(seed)
    n = dim + 1
    corners = rng.standard_normal((simplices, dim + 1, n)) * rng.uniform(0.01, 3.0)
    target = SimplicialSet(n, dim, corners.reshape(-1, n),
                           np.arange(corners.shape[0] * (dim + 1)).reshape(-1, dim + 1))
    pts = np.concatenate([rng.standard_normal((count, n)),
                          corners.reshape(-1, n)[: count]])
    assert_matches_oracle(pts, target)


@pytest.mark.parametrize("surface", [False, True])
def test_duplicate_points(surface):
    rng = np.random.default_rng(21 + surface)
    target = height_field_set(rng, 4, 0.3) if surface else grid_polyline_set(rng, 4)
    pts = query_points(rng, target, 60)
    dup = pts[rng.integers(0, len(pts), 3 * len(pts))]
    assert_matches_oracle(dup, target)
    zeros = np.zeros((3, target.ambient_dim))
    zeros[1] = -0.0  # a distinct row by its bytes
    assert_matches_oracle(zeros, target)
    lo, hi = target.vertices.min(axis=0), target.vertices.max(axis=0)
    for p in lo + (hi - lo) * rng.random((40, target.ambient_dim)):
        assert_matches_oracle(np.repeat(p[None], 3, axis=0), target)  # all one point
        assert_matches_oracle(p[None], target)  # a single point


def sliver_targets(rng):
    """Triangles that test the capsule bound: a disk on a random plane of R^3
    whose second ring lies a relative 1e-6 to 1 of a chord outside its
    first, so its ring triangles reach aspect ratios near 1e6, and unit
    slivers and tiny triangles just above the degeneracy threshold."""
    frame = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    angular = int(rng.integers(8, 64))
    r0 = rng.uniform(0.1, 0.9)
    gap = r0 * 2 * np.pi / angular * 10.0 ** rng.uniform(-6, 0)
    disk = disk_set(rng.standard_normal(3) * 0.1, 1.0, Plane(frame), angular, [r0, r0 + gap])
    thin = thin_triangles(rng, 3, count=40)
    thin = thin[_nondegenerate(thin, 2)]
    return SimplicialSet.from_triangles(np.concatenate([disk.vertices[disk.simplices], thin]))


def points_on_off_and_far(rng, target, count):
    """Points of the target's simplices, the same points moved off them by
    1e-12 to 1e-1, and points about 1e3 away, in one input."""
    corners = target.vertices[target.simplices[rng.integers(0, len(target.simplices), count)]]
    weights = rng.dirichlet(np.ones(target.dim + 1), count)
    on = np.einsum("ij,ijk->ik", weights, corners)
    off = on + rng.standard_normal(on.shape) * 10.0 ** rng.uniform(-12, -1, (count, 1))
    far = 1e3 * rng.standard_normal((max(1, count // 10), target.ambient_dim))
    return rng.permutation(np.concatenate([on, off, far, target.vertices[:count]]))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 200))
def test_matches_oracle_on_slivers(seed, count):
    rng = np.random.default_rng(seed)
    target = sliver_targets(rng)
    pts = points_on_off_and_far(rng, target, count)
    assert_matches_oracle(pts, target)
    assert_matches_oracle(pts[:1], target)  # a single point


def test_empty_target_and_no_points():
    empty = SimplicialSet(3, 2, [], [])
    dist, index = nearest_simplex(np.zeros((2, 3)), empty)
    assert np.isinf(dist).all() and (index == -1).all()
    e = height_field_set(np.random.default_rng(0), 2, 0.1)
    dist, index = nearest_simplex(np.zeros((0, 3)), e)
    assert dist.shape == (0,) and index.shape == (0,)


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("surface", [False, True])
def test_blocks_match_one_pass(surface, block, monkeypatch):
    # one-row blocks as well: a lone row takes the product path like any other
    rng = np.random.default_rng(31 + surface)
    target = height_field_set(rng, 4, 0.3) if surface else grid_polyline_set(rng, 4)
    pts = query_points(rng, target, 60)
    whole = nearest_simplex(pts, target)
    monkeypatch.setattr(sets, "_QUERY_BLOCK", block)
    blocked = nearest_simplex(pts, target)
    assert np.array_equal(blocked[0], whole[0]) and np.array_equal(blocked[1], whole[1])
    assert_matches_oracle(pts, target)


def test_block_memory_does_not_grow_with_points(monkeypatch):
    """Points up to 1.2 from a 960-triangle disk: far points have hundreds
    of pre-filter pairs each, so one pass over 4x the points peaks at about
    3.5x the memory. Blocks of 50 rows keep the peak flat."""
    monkeypatch.setattr(sets, "_QUERY_BLOCK", 50)
    target = disk_set(radius=1.0, angular=64, ring_radii=[k / 8 for k in range(1, 9)])
    rng = np.random.default_rng(5)
    nearest_simplex(np.zeros((2, 3)), target)  # imports scipy outside the trace
    peaks = []
    for count in (250, 1000):
        pts = np.column_stack([rng.uniform(-1.2, 1.2, (count, 2)), rng.uniform(-0.3, 0.3, count)])
        tracemalloc.start()
        try:
            nearest_simplex(pts, target)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


@pytest.mark.parametrize("target", [
    SimplicialSet.from_segments([np.array([[0.0, 0.0], [1.0, 0.0]])]),
    SimplicialSet(2, 1, [], []),
    PointCloudSet(2, 0, np.array([[0.0, 0.0], [1.0, 0.0]]), np.ones(2)),
    PointCloudSet(2, 0, np.zeros((0, 2)), np.zeros(0)),
], ids=["segment", "empty", "cloud", "empty-cloud"])
def test_bad_query_points(target):
    calls = [distance_to_set]
    if isinstance(target, SimplicialSet):
        calls.append(nearest_simplex)
    for call in calls:
        with pytest.raises(ValueError, match=r"shape \(3, 3\) are not rows in R\^2"):
            call(np.zeros((3, 3)), target)
        with pytest.raises(ValueError, match=r"shape \(2, 1\) are not rows in R\^2"):
            call(np.zeros((2, 1)), target)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                call(np.array([[0.0, 0.0], [bad, 0.0]]), target)


def test_simplex_with_one_candidate_row():
    # one point next to an isolated triangle, the rest near another: that
    # triangle is evaluated on a single row of a longer input
    rng = np.random.default_rng(11)
    for _ in range(20):
        tris = rng.standard_normal((2, 3, 3))
        tris[1] += 100.0
        target = SimplicialSet.from_triangles(list(tris))
        pts = np.concatenate([tris[0].mean(axis=0) + rng.standard_normal((30, 3)),
                              tris[1].mean(axis=0) + rng.standard_normal((1, 3))])
        assert_matches_oracle(pts, target)


def test_first_minimizer_on_shared_vertex():
    # the centre vertex is shared by all eight triangles of a 2x2 grid
    e = height_field_set(np.random.default_rng(0), 2, 0.0)
    dist, index = nearest_simplex(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 5.0]]), e)
    assert np.array_equal(dist, [0.0, 5.0])
    shared = [i for i in range(len(e.simplices)) if 4 in e.simplices[i]]
    assert list(index) == [shared[0], shared[0]]


@pytest.mark.parametrize("r", get_family("disk").base_radii)
def test_disk_hausdorff_inputs(r):
    """The sample points the Hausdorff stage of disk k=1 sends at each radius."""
    fam = get_family("disk")
    e, limit = fam.make(1), fam.limit()
    ball = Ball(np.asarray(fam.base_point, dtype=float), r)
    for source, target in ((e, limit), (limit, e)):
        corners = sets._clip(source, ball)[0]
        level = max(0, int(np.ceil(np.log2(max(1, int(np.ceil(256 / len(corners))))))))
        for lv in (level, level + 1):
            pts = _sample_points(corners, _lattice(corners.shape[1] - 1, lv)[0])
            assert_matches_oracle(pts, target)


@pytest.mark.parametrize("family, bound", [("disk", 6), ("graph_decay", 2), ("zigzag", 2)],
                         ids=["disk", "graph_decay", "zigzag"])
def test_hausdorff_candidate_pairs(family, bound):
    """The candidate search sends the exact kernel about 4.8 pairs per
    distinct point on the disk k=1 Hausdorff inputs and about 1.2 on the
    curves', whose segments take the capsule bound; more than ``bound``
    means a bound got looser."""
    fam = get_family(family)
    e, limit = fam.make(1), fam.limit()
    pairs = points = 0
    for r in fam.base_radii:
        ball = Ball(np.asarray(fam.base_point, dtype=float), r)
        for source, target in ((e, limit), (limit, e)):
            corners = sets._clip(source, ball)[0]
            if not len(corners):  # the Hausdorff stage queries nothing
                continue
            level = max(0, int(np.ceil(np.log2(max(1, int(np.ceil(256 / len(corners))))))))
            for lv in (level, level + 1):
                pts = _sample_points(corners, _lattice(corners.shape[1] - 1, lv)[0])
                distinct = _distinct_rows(pts)[0]
                index = target._distance_index
                row, _ = sets._candidate_pairs(distinct, index, sets._upper_bounds(distinct, index))
                pairs += len(row)
                points += len(distinct)
    assert pairs <= bound * points


def segment_soup(rng, n):
    """Random segments of R^n, some sharing an end, at one random scale."""
    ends = rng.standard_normal((int(rng.integers(1, 30)), 2, n)) * rng.uniform(0.01, 3.0)
    shared = rng.random(len(ends)) < 0.3
    ends[1:, 0][shared[1:]] = ends[:-1, 1][shared[1:]]
    return SimplicialSet.from_segments(ends)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["segments", "triangles", "slivers"]),
       count=st.integers(1, 120),
       floor=st.sampled_from(["-inf", "below", "just below", "equal", "above", "inf"]))
def test_sup_distance_matches_oracle(seed, kind, count, floor):
    """The early-break sup is max(floor, the oracle's largest distance) bit
    for bit, on the oracle's bits for the points stacked twice, as every
    distance query has them."""
    rng = np.random.default_rng(seed)
    if kind == "segments":
        target = segment_soup(rng, int(rng.integers(2, 4)))
    elif kind == "triangles":
        target = height_field_set(rng, int(rng.integers(1, 6)), float(rng.choice([0.0, 1e-9, 0.3])))
    else:
        target = sliver_targets(rng)
    pts = points_on_off_and_far(rng, target, count)
    pts = np.concatenate([pts, pts[rng.integers(0, len(pts), count // 2)]])  # duplicates
    for points in (pts, pts[:1], pts[np.zeros(5, dtype=int)]):
        sup = stacked_oracle(points, target)[0].max()
        low = {"-inf": -np.inf, "below": 0.5 * sup, "just below": np.nextafter(sup, -np.inf),
               "equal": sup, "above": 2.0 * sup + 1.0, "inf": np.inf}[floor]
        got = sets._sup_distance(points, target, low)
        assert type(got) is float and got == max(low, sup)


def test_sup_distance_on_empty_inputs_and_clouds():
    rng = np.random.default_rng(2)
    target = height_field_set(rng, 2, 0.1)
    cloud = PointCloudSet(3, 0, rng.standard_normal((20, 3)), np.ones(20))
    pts = rng.standard_normal((30, 3))
    sup = distance_to_set(pts, cloud).max()
    for floor in (-np.inf, 0.0, 1.5, np.inf):
        assert sets._sup_distance(np.zeros((0, 3)), target, floor) == floor
        assert sets._sup_distance(np.zeros((2, 3)), SimplicialSet(3, 2, [], []), floor) == np.inf
        assert sets._sup_distance(pts, cloud, floor) == max(floor, sup)


def fresh(e):
    """A copy of a set with no distance index yet."""
    return SimplicialSet(e.ambient_dim, e.dim, e.vertices, e.simplices)


def test_distance_index_built_once_per_set(monkeypatch):
    """A Hausdorff report refines each side over several levels, and a
    long nearest_simplex call runs many blocks; each target set's terms
    are built once for all of them."""
    built = []
    bounds = sets._simplex_bounds
    monkeypatch.setattr(sets, "_simplex_bounds",
                        lambda target, const: built.append(target) or bounds(target, const))
    fam = get_family("disk")
    e, limit = fresh(fam.make(1)), fresh(fam.limit())
    for r in fam.base_radii:
        hausdorff_local_report(e, limit, fam.base_point, r)
    assert len(built) == 2 and {id(s) for s in built} == {id(e), id(limit)}
    built.clear()
    monkeypatch.setattr(sets, "_QUERY_BLOCK", 50)
    target = fresh(limit)
    pts = np.random.default_rng(9).uniform(-1.0, 1.0, (400, 3))
    nearest_simplex(pts, target)
    nearest_simplex(pts[:1], target)
    assert len(built) == 1 and built[0] is target


def test_distance_index_shared_across_threads():
    """run_scenario's per-k threads query one limit set at once; each gets
    the answer of a single thread, whichever builds the set's terms."""
    limit = get_family("disk").limit()
    pts = np.random.default_rng(12).uniform(-1.0, 1.0, (300, 3))
    want = nearest_simplex(pts, fresh(limit))
    want_sup = sets._sup_distance(pts, fresh(limit), -np.inf)
    target = fresh(limit)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            near = [pool.submit(nearest_simplex, pts, target) for _ in range(8)]
            sup = [pool.submit(sets._sup_distance, pts, target, -np.inf) for _ in range(8)]
            got = [f.result(timeout=120) for f in near]
            got_sup = [f.result(timeout=120) for f in sup]
    finally:
        sys.setswitchinterval(old)
    assert all(np.array_equal(d, want[0]) and np.array_equal(i, want[1]) for d, i in got)
    assert got_sup == [want_sup] * 8


def test_tangent_project_uses_first_nearest_simplex():
    e = height_field_set(np.random.default_rng(3), 4, 0.2)
    probes = np.random.default_rng(4).uniform(0.0, 4.0, (50, 3))
    for center in ([1.0, 1.0, 0.5], [2.5, 1.5, 0.0], [2.0, 2.0, 0.0]):
        ball = Ball(np.array(center), 1.0)
        i = stacked_oracle(ball.center, e)[1][0]
        frame = e.simplex_frames[i]
        want = _affine_projection_deformation("tangent_project", ball, e.simplex_points(i)[0],
                                              frame @ frame.T)
        got = make_deformation("tangent_project", ball, e)
        assert np.array_equal(got.phi(probes), want.phi(probes))
