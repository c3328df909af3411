"""Measures of unions of overlapping pieces, counting overlaps once.

These back every image-set measure in the library: projections of clipped
sets onto a plane and pushforward images of deformations. Intervals merge
by sort-and-sweep. Planar unions take convex polygons (triangles are
3-gons) and use a vertical trapezoid decomposition: the x-axis is cut at
every vertex and every proper crossing between edges of distinct polygons,
so inside each strip every polygon's cross-section is a single interval
with affine endpoints, and the union length is affine in x; each strip
contributes exactly width * union-length-at-midpoint.

Segments and triangles in R^n are grouped by their affine line or plane
before merging. The keys (rounded unit direction or normal plus offset)
and the piece lengths are computed for all pieces in one array pass, with
the arithmetic of a per-piece loop, so a union measure has the bits it
would have piece by piece.
"""

from __future__ import annotations

import numpy as np

from .sets import (_canonical_signs, _polygon_area, _rowdot, _triangle_plane_basis,
                   _unit_rejection)

__all__ = [
    "interval_union_length",
    "polygon_union_area",
    "triangle_union_area",
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


def _clean_polygons(polys):
    """Drop consecutive duplicate vertices and degenerate polygons."""
    out = []
    for p in polys:
        p = np.asarray(p, dtype=float).reshape(-1, 2)
        if len(p) >= 2:
            keep = np.ones(len(p), dtype=bool)
            keep[1:] = np.linalg.norm(np.diff(p, axis=0), axis=1) > 1e-15
            if np.linalg.norm(p[0] - p[-1]) <= 1e-15 and keep[-1]:
                keep[-1] = False
            p = p[keep]
        if len(p) >= 3 and abs(_polygon_area(p)) > 1e-14:
            out.append(p)
    return out


def _inter_polygon_crossings(edges, poly_ids):
    """x-coordinates of proper crossings between edges of distinct polygons.

    Edges of the same (convex) polygon never properly cross; pairs are
    prefiltered by an x-interval sweep plus y-bbox overlap.
    """
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
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0)
    ii = np.repeat(np.arange(n), counts)
    jj = np.concatenate([np.arange(i + 1, h)
                         for i, h in zip(np.arange(n), hi) if h > i + 1])
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


def polygon_union_area(polys) -> float:
    """Area of a union of convex 2-d polygons, overlaps counted once."""
    polys = _clean_polygons(polys)
    if not polys:
        return 0.0

    edges_list, poly_ids_list = [], []
    for pid, p in enumerate(polys):
        k = len(p)
        seg = np.stack([p, np.roll(p, -1, axis=0)], axis=1)  # (k, 2, 2)
        edges_list.append(seg)
        poly_ids_list.append(np.full(k, pid))
    edges = np.concatenate(edges_list, axis=0)
    poly_ids = np.concatenate(poly_ids_list)

    all_x = np.concatenate([p[:, 0] for p in polys])
    xs = np.concatenate([all_x, _inter_polygon_crossings(edges, poly_ids)])
    xs = np.sort(xs)
    span = xs[-1] - xs[0]
    if span <= 0:
        return 0.0
    keep = np.concatenate([[True], np.diff(xs) > 1e-13 * (1 + span)])
    xs = xs[keep]
    if len(xs) < 2:
        return 0.0
    mids = 0.5 * (xs[:-1] + xs[1:])
    widths = np.diff(xs)

    # edge -> strip incidences (an edge covers a strip fully or not at all)
    tol = 1e-13 * (1 + span)
    exmin = edges[:, :, 0].min(axis=1)
    exmax = edges[:, :, 0].max(axis=1)
    i0 = np.searchsorted(xs, exmin - tol, side="left")
    i1 = np.searchsorted(xs, exmax + tol, side="right") - 2
    counts = np.maximum(i1 - i0 + 1, 0)
    if counts.sum() == 0:
        return 0.0
    eids = np.repeat(np.arange(len(edges)), counts)
    strip_ids = np.concatenate(
        [np.arange(lo, lo + c) for lo, c in zip(i0, counts) if c > 0])
    xm = mids[strip_ids]
    p0, p1 = edges[eids, 0], edges[eids, 1]
    dx = p1[:, 0] - p0[:, 0]
    t = (xm - p0[:, 0]) / np.where(dx != 0, dx, 1.0)
    yv = p0[:, 1] + t * (p1[:, 1] - p0[:, 1])
    pv = poly_ids[eids]

    # reduce to one [lo, hi] interval per (strip, polygon)
    order = np.lexsort((yv, pv, strip_ids))
    sid, pid, y = strip_ids[order], pv[order], yv[order]
    group_start = np.concatenate([[True], (sid[1:] != sid[:-1]) | (pid[1:] != pid[:-1])])
    starts_idx = np.flatnonzero(group_start)
    ends_idx = np.concatenate([starts_idx[1:], [len(y)]]) - 1
    lo_iv = y[starts_idx]           # sorted within group: first is min
    hi_iv = np.maximum.reduceat(y, starts_idx)
    g_sid = sid[starts_idx]

    # per-strip interval union
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
        ulen = float(np.sum(cm[run_ends] - lo2[a:b][run_starts]))
        total += w * ulen
    return float(total)


def triangle_union_area(triangles) -> float:
    """Area of the union of 2-d triangles, overlaps counted once."""
    tris = np.asarray(triangles, dtype=float)
    if tris.size == 0:
        return 0.0
    return polygon_union_area(list(tris.reshape(-1, 3, 2)))


def _group_rows(keys):
    """Row indices grouped by equal key, groups in order of first
    appearance. Keys holding NaN never compare equal, so each such row is
    a group of its own."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups.values()


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
    u = _canonical_signs(d / ln[:, None])
    t0, t1 = _rowdot(p, u), _rowdot(q, u)
    offset = p - t0[:, None] * u
    keys = map(tuple, np.round(np.concatenate([u, offset], axis=1), 9).tolist())
    # min and max as Python's, which keep the first of two equal values
    lo = np.where(t1 < t0, t1, t0)
    hi = np.where(t1 > t0, t1, t0)
    length = (hi - lo).tolist()
    total = 0.0
    for rows in _group_rows(keys):
        if len(rows) == 1:
            total += length[rows[0]]
        else:
            total += interval_union_length(np.column_stack([lo[rows], hi[rows]]))
    return float(total)


def triangles_union_measure(triangles) -> float:
    """Area of a union of triangles in R^2 or R^3, overlaps counted once.

    Coplanar triangles (shared affine plane up to 1e-9 rounding) are merged
    by the planar sweep; distinct planes intersect in measure zero. All
    triangles in R^2 share one plane."""
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
        offset = [round(o, 9) for o in _rowdot(tris[:, 0], nrm).tolist()]
        keys = [(*k, o) for k, o in zip(np.round(nrm, 9).tolist(), offset)]
        groups = _group_rows(keys)
    else:
        groups = [list(range(len(tris)))]
    half = (0.5 * length).tolist()
    total = 0.0
    for rows in groups:
        if len(rows) == 1:  # nothing to merge
            total += half[rows[0]]
            continue
        group = tris[rows]
        # origin and u from the first triangle whose first edge is not zero
        t0 = group[np.argmax((group[:, 1] != group[:, 0]).any(axis=1))]
        with np.errstate(invalid="ignore", divide="ignore"):
            a0, u, v = _triangle_plane_basis(t0)
            nw = _unit_rejection(t0[2] - t0[0], u)[1]
            if nw <= 1e-14:  # a second edge along u: take v from another triangle
                for alt in group[1:]:
                    v, nw = _unit_rejection(alt[2] - alt[0], u)
                    if nw > 1e-14:
                        break
        if nw <= 1e-14:
            continue
        rel = (group - a0).reshape(-1, n)
        total += polygon_union_area(np.stack([rel @ u, rel @ v], axis=1).reshape(-1, 3, 2))
    return float(total)
