"""Measures of unions of overlapping pieces, counting overlaps once.

These back every image-set measure in the library: projections of clipped
sets onto a plane and pushforward images of deformations. One 1-d kernel,
``_union_runs``, merges intervals for plain intervals, collinear segments
(one group per line) and the strips of the planar sweep. Planar unions
take convex polygons (triangles are 3-gons) and use a vertical trapezoid
decomposition: the x-axis is cut at every vertex and every proper crossing
between edges of distinct polygons, so inside each strip every polygon's
cross-section is a single interval with affine endpoints, and the union
length is affine in x; each strip contributes exactly width *
union-length-at-midpoint.

One batched sweep, ``_planar_union_areas``, serves every planar union. It
takes the polygons of many independent unions at once (the coplanar
groups of a triangle union, or the one group of ``polygon_union_area``)
and tags every vertex, crossing, strip and interval with its group, so
that each group keeps its own tolerances: the x merge and strip incidence
tolerance scale with the group's x span, the interval merge tolerance with
its y span. Each group's area has the bits of the per-polygon loop that
swept one group at a time: a strip's runs are summed as ``np.sum`` sums
them, and a group's strips one after another.

Segments and triangles in R^n are grouped by their affine line or plane
before merging. The keys (rounded unit direction or normal plus offset),
the groups (by sorting the keys) and the piece lengths are computed for
all pieces in one array pass, with the arithmetic of a per-piece loop, so
a union measure has the bits it would have piece by piece, and the groups
add up in the order of their first pieces.
"""

from __future__ import annotations

import numpy as np

from .sets import _canonical_signs, _first_edge_rejection, _pair_dot, _polygon_area, _rowdot

__all__ = [
    "interval_union_length",
    "polygon_union_area",
    "segments_union_measure",
    "triangles_union_measure",
]


def interval_union_length(intervals) -> float:
    """Total length of a union of closed 1-d intervals [lo, hi]."""
    iv = np.asarray(intervals, dtype=float).reshape(-1, 2)
    if len(iv) == 0:
        return 0.0
    lo = np.minimum(iv[:, 0], iv[:, 1])
    hi = np.maximum(iv[:, 0], iv[:, 1])
    order = np.argsort(lo, kind="stable")
    one = np.zeros(len(lo), dtype=np.intp)
    return float(np.bincount(*_union_runs(one, lo[order], hi[order], one))[0])


def _segment_starts(counts):
    """The first index of each of consecutive segments of the given lengths."""
    return np.cumsum(counts) - counts


def _positions(counts):
    """Each row's position within its segment, for consecutive segments of
    the given lengths."""
    return np.arange(counts.sum()) - np.repeat(_segment_starts(counts), counts)


def _searchsorted_within(seg, vals, qseg, q, side):
    """For each query (qseg[k], q[k]), ``np.searchsorted`` of q[k] among the
    values of segment qseg[k], as an index into the whole of ``vals``,
    which holds the segments in increasing order, each sorted."""
    is_q = np.r_[np.zeros(len(vals), dtype=bool), np.ones(len(q), dtype=bool)]
    # at equal values a query sorts after the data for "right", before for "left"
    order = np.lexsort((is_q if side == "right" else ~is_q,
                        np.concatenate([vals, q]), np.concatenate([seg, qseg])))
    data_before = np.cumsum(~is_q[order])
    out = np.empty(len(q), dtype=np.intp)
    at = is_q[order]
    out[order[at] - len(vals)] = data_before[at]
    return out


def _segment_cummax(x, first):
    """``np.maximum.accumulate`` within each segment of x (``first`` marks
    each segment's first row), by doubling: max is exact in any order."""
    idx = np.arange(len(x))
    pos = idx - np.maximum.accumulate(np.where(first, idx, 0))
    out = x.copy()
    step = 1
    while step <= pos.max(initial=0):
        out[step:] = np.where(pos[step:] >= step, np.maximum(out[step:], out[:-step]), out[step:])
        step *= 2
    return out


def _union_runs(seg, lo, hi, group):
    """Each run's segment and length in the unions of closed intervals
    [lo, hi], rows sorted by segment, then lo, each segment in one group.
    A row starts a run where its lo exceeds its segment's running max of hi
    by more than 1e-12 (1 + its group's max hi - min lo). A segment's runs
    are disjoint and increasing, so that max, like a run's max hi, is a
    sequential sweep's running hi; ``np.bincount`` adds runs in order."""
    gnew = np.concatenate(([True], group[1:] != group[:-1]))
    gfirst = np.flatnonzero(gnew)
    span = np.maximum.reduceat(hi, gfirst) - np.minimum.reduceat(lo, gfirst)
    tol = (1e-12 * (1 + span))[np.cumsum(gnew) - 1]
    start = np.concatenate(([True], seg[1:] != seg[:-1]))
    cm = _segment_cummax(hi, start)
    start[1:] |= lo[1:] > cm[:-1] + tol[1:]
    rs = np.flatnonzero(start)
    return seg[rs], np.maximum.reduceat(hi, rs) - lo[rs]


def _cyclic_next(sizes):
    """For the vertices of consecutive polygons of the given sizes, the
    index of the next vertex of the same polygon, cyclically."""
    start = _segment_starts(sizes)[sizes > 0]
    nxt = np.arange(1, sizes.sum() + 1)
    nxt[start + sizes[sizes > 0] - 1] = start
    return nxt


def _clean_polygons(points, sizes):
    """Drop, per polygon, each vertex within 1e-15 of its predecessor, then
    the last if it is within 1e-15 of the first, then the polygons left
    with fewer than 3 vertices or an area of at most 1e-14. Returns the
    kept vertices and sizes and the index of each kept polygon.

    The area is the shoelace sum of ``_polygon_area`` added in another
    order; for a k-gon the two differ by at most (k + 1) u S, with S the
    sum of the absolute shoelace terms and u the unit roundoff. A polygon
    whose batched area lies within twice that of the threshold is measured
    again by ``_polygon_area`` itself, so every polygon passes or fails the
    test as it does alone."""
    poly = np.repeat(np.arange(len(sizes)), sizes)
    first = _segment_starts(sizes)
    keep = np.ones(len(points), dtype=bool)
    keep[1:] = np.linalg.norm(np.diff(points, axis=0), axis=1) > 1e-15
    has = sizes > 0
    keep[first[has]] = True
    last = first[has] + sizes[has] - 1
    gap = points[first[has]] - points[last]
    keep[last] &= ~(np.sqrt(_rowdot(gap, gap)) <= 1e-15)
    points, poly = points[keep], poly[keep]
    sizes = np.bincount(poly, minlength=len(sizes))
    nxt = _cyclic_next(sizes)
    x, y = points[:, 0], points[:, 1]
    fwd, back = x * y[nxt], y * x[nxt]
    area = 0.5 * (np.bincount(poly, fwd, len(sizes)) - np.bincount(poly, back, len(sizes)))
    bound = (sizes + 2) * 2.3e-16 * np.bincount(poly, np.abs(fwd) + np.abs(back), len(sizes))
    alive = (sizes >= 3) & (np.abs(area) > 1e-14)
    start = _segment_starts(sizes)
    for i in np.flatnonzero((sizes >= 3) & ~(np.abs(np.abs(area) - 1e-14) > bound)):
        alive[i] = abs(_polygon_area(points[start[i]:start[i] + sizes[i]])) > 1e-14
    kept = np.flatnonzero(alive)
    return points[alive[poly]], sizes[kept], kept


def _edge_pairs(xmin, xmax, ymin, ymax, poly, group):
    """The pairs (a, b) of edges of distinct polygons of one group whose
    closed bounding boxes meet, each with a before b in the group's
    x-sorted order (by xmin, ties by index), as a sweep over that order
    meets them.

    The sweep runs within horizontal bands of equal height, about the
    mean y extent of the group's edges: an edge enters every band its y
    range meets, and a pair counts in the lowest band the two share. A
    band keeps the group's x order, so each pair comes out oriented."""
    first = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    count = np.diff(np.r_[first, len(group)])
    bottom = np.minimum.reduceat(ymin, first)
    height = np.maximum.reduceat(ymax, first) - bottom
    extent = np.add.reduceat(ymax - ymin, first) / count
    with np.errstate(invalid="ignore", divide="ignore"):
        bands = np.clip(np.ceil(height / extent), 1, count).astype(np.intp)
        scale = np.where(height > 0, bands / height, 0.0)
    gi = np.repeat(np.arange(len(first)), count)
    top = bands[gi] - 1
    blo = np.clip(np.floor((ymin - bottom[gi]) * scale[gi]), 0, top).astype(np.intp)
    bhi = np.clip(np.floor((ymax - bottom[gi]) * scale[gi]), 0, top).astype(np.intp)
    span = bhi - blo + 1
    edge = np.repeat(np.arange(len(xmin)), span)
    band = blo[edge] + _positions(span)
    bid = band + _segment_starts(bands)[gi[edge]]
    order = np.lexsort((xmin[edge], bid))
    edge, band, bid = edge[order], band[order], bid[order]
    hi = _searchsorted_within(bid, xmin[edge], bid, xmax[edge], "right")
    counts = np.maximum(hi - np.arange(len(edge)) - 1, 0)
    ii = np.repeat(np.arange(len(edge)), counts)
    jj = ii + 1 + _positions(counts)
    a, b = edge[ii], edge[jj]
    keep = ((band[ii] == np.maximum(blo[a], blo[b])) & (poly[a] != poly[b])
            & (ymin[a] <= ymax[b]) & (ymin[b] <= ymax[a]))
    return a[keep], b[keep]


def _crossings(x0, y0, x1, y1, a, b):
    """x-coordinates of the proper crossings of the edge pairs (a, b), and
    the mask of the pairs that cross."""
    px, py = x0[a], y0[a]
    rx, ry = x1[a] - px, y1[a] - py
    qx, qy = x0[b] - px, y0[b] - py
    sx, sy = x1[b] - x0[b], y1[b] - y0[b]
    denom = rx * sy - ry * sx
    ok = np.abs(denom) > 1e-15
    with np.errstate(invalid="ignore", divide="ignore"):
        t1 = (qx * sy - qy * sx) / denom
        t2 = (qx * ry - qy * rx) / denom
    hit = ok & (t1 > 1e-12) & (t1 < 1 - 1e-12) & (t2 > 1e-12) & (t2 < 1 - 1e-12)
    return px[hit] + t1[hit] * rx[hit], hit


def _planar_union_areas(points, sizes, group, n_groups):
    """Union areas of convex polygons in R^2, one per group.

    Polygon i is the next ``sizes[i]`` rows of ``points`` and belongs to
    group ``group[i]``; each group's polygons are consecutive and the
    groups come in increasing order. Each area has the bits that the
    per-polygon sweep of that group alone gives.
    """
    points, sizes, kept = _clean_polygons(points, sizes)
    if not len(sizes):
        return np.zeros(n_groups)
    poly = np.repeat(np.arange(len(sizes)), sizes)
    vgroup = group[kept][poly]
    nxt = _cyclic_next(sizes)
    x0, y0 = points[:, 0], points[:, 1]
    x1, y1 = x0[nxt], y0[nxt]
    xmin, xmax = np.minimum(x0, x1), np.maximum(x0, x1)
    a, b = _edge_pairs(xmin, xmax, np.minimum(y0, y1), np.maximum(y0, y1), poly, vgroup)
    cross, hit = _crossings(x0, y0, x1, y1, a, b)

    # strip boundaries: per group, the sorted vertex and crossing x's, with
    # each within 1e-13 (1 + x span) of its predecessor merged into it
    xs = np.concatenate([x0, cross])
    xg = np.concatenate([vgroup, vgroup[a[hit]]])
    order = np.lexsort((xs, xg))
    xs, xg = xs[order], xg[order]
    first = np.r_[True, xg[1:] != xg[:-1]]
    last = np.r_[first[1:], True]
    span = np.zeros(n_groups)
    span[xg[first]] = xs[last] - xs[first]
    tol = 1e-13 * (1 + span)
    keep = first.copy()
    keep[1:] |= np.diff(xs) > tol[xg[1:]]
    xs, xg = xs[keep], xg[keep]
    mids = 0.5 * (xs[:-1] + xs[1:])
    widths = np.diff(xs)

    # edge -> strip incidences (an edge covers a strip fully or not at all);
    # strip i runs from xs[i] to xs[i + 1] of one group
    i0 = _searchsorted_within(xg, xs, vgroup, xmin - tol[vgroup], "left")
    i1 = _searchsorted_within(xg, xs, vgroup, xmax + tol[vgroup], "right") - 2
    counts = np.maximum(i1 - i0 + 1, 0)
    eids = np.repeat(np.arange(len(x0)), counts)
    strip_ids = i0[eids] + _positions(counts)
    p0x, p0y, p1x, p1y = x0[eids], y0[eids], x1[eids], y1[eids]
    dx = p1x - p0x
    t = (mids[strip_ids] - p0x) / np.where(dx != 0, dx, 1.0)
    yv = p0y + t * (p1y - p0y)

    # reduce to one [lo, hi] interval per (strip, polygon), then order the
    # intervals by strip and lo, ties by polygon
    if not len(yv):
        return np.zeros(n_groups)
    key = strip_ids * len(sizes) + poly[eids]
    order = np.argsort(key, kind="stable")
    key, y = key[order], yv[order]
    starts = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
    sid = key[starts] // len(sizes)
    lo, hi = np.minimum.reduceat(y, starts), np.maximum.reduceat(y, starts)
    order = np.lexsort((lo, sid))
    sid, lo, hi = sid[order], lo[order], hi[order]

    # per strip, the union of its intervals, merged within 1e-12 (1 + y span)
    run_sid, run_len = _union_runs(sid, lo, hi, xg[sid])
    strips, run_strip, runs = np.unique(run_sid, return_inverse=True, return_counts=True)
    ulen = np.bincount(run_strip, run_len)
    first_run = _segment_starts(runs)
    for s in np.flatnonzero(runs >= 8):  # np.sum adds pairwise from 8 terms on
        ulen[s] = np.sum(run_len[first_run[s]:first_run[s] + runs[s]])
    return np.bincount(xg[strips], widths[strips] * ulen, n_groups)


def _polygon_rows(polys):
    """The vertices of a list of polygons in R^2, stacked, and their counts."""
    polys = [np.asarray(p, dtype=float) for p in polys]
    for p in polys:
        if p.ndim != 2 or p.shape[1] != 2:
            raise ValueError(f"polygons must be (k, 2) arrays of points in R^2, got shape {p.shape}")
    if not polys:
        return np.zeros((0, 2)), np.zeros(0, dtype=np.intp)
    return np.concatenate(polys), np.array([len(p) for p in polys], dtype=np.intp)


def polygon_union_area(polys) -> float:
    """Area of a union of convex 2-d polygons, overlaps counted once."""
    points, sizes = _polygon_rows(polys)
    return float(_planar_union_areas(points, sizes, np.zeros(len(sizes), dtype=np.intp), 1)[0])


def _key_groups(keys):
    """The group of each row of a 2-d key array, groups numbered in order
    of first appearance. Rows equal as tuples of floats share a group: the
    sorts and comparisons below take -0.0 for 0.0, and a row holding NaN
    equals no other. Only rows that share their last column with another
    row can share a key, so the full sort runs on those alone."""
    last = keys[:, -1]
    order = np.argsort(last, kind="stable")
    tie = last[order][1:] == last[order][:-1]
    shared = np.zeros(len(keys), dtype=bool)
    shared[order[1:][tie]] = True
    shared[order[:-1][tie]] = True
    rows = np.flatnonzero(shared)
    head = np.arange(len(keys))  # the first row of each row's group
    if len(rows):
        rows = rows[np.lexsort(keys[rows].T[::-1])]  # stable: a group's first row leads
        k = keys[rows]
        new = np.r_[True, (k[1:] != k[:-1]).any(axis=1)]
        head[rows] = rows[new][np.cumsum(new) - 1]
    return (np.cumsum(head == np.arange(len(keys))) - 1)[head]


def _python_round9(x):
    """``[round(v, 9) for v in x]``. ``np.round`` rounds fl(x 1e9) to an
    integer where Python rounds x 10^9 itself, and each then divides by 1e9
    correctly rounded; Python's round is called only where fl(x 1e9) lies
    within its rounding of a half-integer, is past 2^52 or is not finite."""
    y = x * 1e9
    out = np.round(x, 9)
    odd = ~((np.abs(np.abs(y - np.rint(y)) - 0.5) > np.abs(y) * 2.0**-52)
            & (np.abs(y) < 2.0**52))
    out[odd] = [round(v, 9) for v in x[odd].tolist()]
    return out


def segments_union_measure(segments) -> float:
    """Length of a union of segments in R^n, overlaps counted once.

    Collinear segments (shared affine line, up to 1e-9 rounding) are merged
    by interval union; segments on distinct lines can only overlap in
    measure zero, so their lengths add.
    """
    segs = np.asarray(segments, dtype=float)
    if len(segs) == 0:
        return 0.0
    p, q = segs[:, 0], segs[:, 1]
    d = q - p
    ln = np.sqrt(_rowdot(d, d))
    keep = ~(ln <= 1e-14)
    p, q, d, ln = p[keep], q[keep], d[keep], ln[keep]
    if not len(p):
        return 0.0
    u = _canonical_signs(d / ln[:, None])
    t0, t1 = _rowdot(p, u), _rowdot(q, u)
    offset = p - t0[:, None] * u
    group = _key_groups(np.round(np.concatenate([u, offset], axis=1), 9))
    # min and max as Python's, which keep the first of two equal values
    lo = np.where(t1 < t0, t1, t0)
    hi = np.where(t1 > t0, t1, t0)
    order = np.lexsort((lo, group))
    group, lo, hi = group[order], lo[order], hi[order]
    value = np.bincount(*_union_runs(group, lo, hi, group))  # per group, by first piece
    return float(np.cumsum(value)[-1])  # one group after another


def _coplanar_areas(tris, rows, group, n_groups):
    """Union areas of the coplanar groups of triangles ``tris[rows]``
    (``group`` of each, consecutive and increasing), each in the in-plane
    basis of its first triangle whose first edge is not zero: origin at its
    first corner, u along that edge, v along the part of its second edge
    orthogonal to u, or, where that part is at most 1e-14 long, of the
    second edge of the group's next triangle for which it is not. A group
    with no such v gets 0."""
    first = np.flatnonzero(np.r_[True, group[1:] != group[:-1]])
    idx = np.arange(len(rows))
    nonzero = (tris[rows, 1] != tris[rows, 0]).any(axis=1)
    pick = np.minimum.reduceat(np.where(nonzero, idx, len(rows)), first)
    t0 = rows[np.where(pick < len(rows), pick, first)]
    _, u, w, nw = _first_edge_rejection(tris[t0])
    with np.errstate(invalid="ignore", divide="ignore"):
        v = w / nw[:, None]
        short = np.flatnonzero(nw <= 1e-14)
        if len(short):  # a second edge along u: take v from another triangle
            alt = np.flatnonzero(np.isin(group, short) & (idx > first[group]))
            e2 = tris[rows[alt], 2] - tris[rows[alt], 0]
            ua = u[group[alt]]
            wa = e2 - _rowdot(e2, ua)[:, None] * ua
            nwa = np.sqrt(_rowdot(wa, wa))
            ok = np.flatnonzero(nwa > 1e-14)
            g_ok, at = np.unique(group[alt[ok]], return_index=True)
            v[g_ok] = wa[ok[at]] / nwa[ok[at], None]
            nw[g_ok] = nwa[ok[at]]
    areas = np.zeros(n_groups)
    usable = nw > 1e-14
    if not usable.any():
        return areas
    sel = np.flatnonzero(usable[group])
    rows, group = rows[sel], (np.cumsum(usable) - 1)[group[sel]]
    corners = tris[rows] - tris[t0[usable], 0][group][:, None, :]
    flat = corners.reshape(-1, tris.shape[2])
    row_group = np.repeat(group, 3)
    points = np.column_stack([_pair_dot(flat, u[usable], row_group),
                              _pair_dot(flat, v[usable], row_group)])
    areas[usable] = _planar_union_areas(points, np.full(len(rows), 3), group,
                                        int(usable.sum()))
    return areas


def triangles_union_measure(triangles) -> float:
    """Area of a union of triangles in R^2 or R^3, overlaps counted once.

    Coplanar triangles (shared affine plane up to 1e-9 rounding) are merged
    by the planar sweep, all groups in one call; distinct planes intersect
    in measure zero. All triangles in R^2 share one plane."""
    tris = np.asarray(triangles, dtype=float)
    if len(tris) == 0:
        return 0.0
    n = tris.shape[2]
    if n not in (2, 3):
        raise ValueError(f"triangles must lie in R^2 or R^3, got R^{n}")
    e1, e2 = tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]
    if n == 3:
        nrm = np.cross(e1, e2)
    else:  # the one component np.cross gives for 2-vectors
        nrm = (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])[:, None]
    length = np.sqrt(_rowdot(nrm, nrm))
    if n == 3:
        with np.errstate(invalid="ignore", divide="ignore"):
            nrm = _canonical_signs(nrm / length[:, None])
            offset = _python_round9(_rowdot(tris[:, 0], nrm))
        group = _key_groups(np.column_stack([np.round(nrm, 9), offset]))
    else:
        group = np.zeros(len(tris), dtype=np.intp)
    size = np.bincount(group)
    value = np.zeros(len(size))  # per group, in order of first appearance
    single = np.flatnonzero(size[group] == 1)  # nothing to merge
    value[group[single]] = 0.5 * length[single]
    rows = np.flatnonzero(size[group] > 1)
    if len(rows):
        rows = rows[np.argsort(group[rows], kind="stable")]
        multi = size > 1
        value[multi] = _coplanar_areas(tris, rows, (np.cumsum(multi) - 1)[group[rows]],
                                       int(multi.sum()))
    return float(np.cumsum(value)[-1])  # one group after another
