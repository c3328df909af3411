"""Computable m-dimensional sets in R^n.

SimplicialSet covers the rectifiable case with exact per-simplex measure
and tangent planes (m = 1 segments, m = 2 triangles). PointCloudSet is the
weighted-sample stand-in for irregular sets. Restriction to a ball clips
segments exactly; triangles crossing the sphere get the circular boundary
replaced by an inscribed polyline whose area defect is budgeted below
1e-6 * r^m per call and recorded in the diagnostics of the result.

This module is the one home of the simplex primitives that the rest of the
library shares: the row-wise dot product ``_rowdot``, simplex measure,
midpoint subdivision, the segment-sphere quadratic, polygon signed area,
direction-sign canonicalization, ball clipping and point-simplex distance.
Batched code that must give the bits of a per-row loop takes its dot
products and norms from ``_rowdot``, and its matrix-vector products
``rows @ vec`` from ``_pair_dot``, which stacks them in padded blocks of
``_GEMV_ROWS`` rows per vector.

Point-simplex distance is one batched kernel over (point, candidate
simplex) pairs, ``_pair_distances``: it evaluates each bitwise-distinct
query point once, on the simplices that a cKDTree bound cannot exclude,
with the bits of the per-simplex loop it replaced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from .geometry import Plane, _distinct_rows

__all__ = [
    "Ball",
    "SimplicialSet",
    "PointCloudSet",
    "measure",
    "restrict",
    "rescale",
    "translate",
    "distance_to_set",
    "nearest_simplex",
    "ahlfors_ratios",
    "save_set",
    "load_set",
    "CLIP_AREA_TOL",
]

DEGENERATE_MEASURE = 1e-14
CLIP_AREA_TOL = 1e-6  # relative to r^m, per restrict() call


@dataclass(frozen=True)
class Ball:
    """Closed ball B(center, radius); also used to model the open domain U."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.array(self.center, dtype=float)
        c.setflags(write=False)
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(pts - self.center, axis=1) <= self.radius


def _rowdot(x, y):
    """Row-wise dot products of two (N, n) arrays, bit for bit the 1-D
    ``np.dot(x[i], y[i])``.

    The stacked (1, n) @ (n, 1) product goes through numpy's vector-vector
    dot, the BLAS ``ddot`` that ``np.dot`` and ``np.linalg.norm`` call on a
    single row; ``einsum`` and ``norm(axis=1)`` sum in other orders and
    differ in the last bit on many rows. So ``np.sqrt(_rowdot(x, x))`` is
    the 1-D ``np.linalg.norm`` of each row, for rows whose last axis has
    unit stride (``norm`` copies a strided row first, and BLAS sums a
    unit-stride vector in another order).
    """
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _simplex_measures(corners, m):
    """Exact m-measures of simplices given as an (S, m+1, n) corner array."""
    if m == 1:
        return np.linalg.norm(corners[:, 1] - corners[:, 0], axis=1)
    g1 = corners[:, 1] - corners[:, 0]
    g2 = corners[:, 2] - corners[:, 0]
    a11 = np.einsum("ij,ij->i", g1, g1)
    a12 = np.einsum("ij,ij->i", g1, g2)
    a22 = np.einsum("ij,ij->i", g2, g2)
    return 0.5 * np.sqrt(np.maximum(a11 * a22 - a12 * a12, 0.0))


def _midpoint_split(corners, m):
    """One level of midpoint subdivision of an (S, m+1, n) corner array:
    2 halves per segment or 4 triangles per triangle, returned child-major
    (all first children, then all second children, ...)."""
    if m == 1:
        a, b = corners[:, 0], corners[:, 1]
        mid = 0.5 * (a + b)
        return np.concatenate([np.stack([a, mid], axis=1),
                               np.stack([mid, b], axis=1)])
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]
    ab, bc, ca = 0.5 * (a + b), 0.5 * (b + c), 0.5 * (c + a)
    return np.concatenate([np.stack([a, ab, ca], axis=1),
                           np.stack([ab, b, bc], axis=1),
                           np.stack([ca, bc, c], axis=1),
                           np.stack([ab, bc, ca], axis=1)])


def _simplex_measures_and_frames(vertices, simplices, m):
    """Exact m-measures and tangent frames for each simplex."""
    v = vertices
    if len(simplices) == 0:
        return np.zeros(0), np.zeros((0, v.shape[1], m))
    corners = v[simplices]
    meas = _simplex_measures(corners, m)
    edges = corners[:, 1:] - corners[:, :1]  # (S, m, n)
    if m == 1:
        with np.errstate(invalid="ignore", divide="ignore"):
            frames = (edges[:, 0, :] / np.where(meas > 0, meas, 1.0)[:, None])[:, :, None]
    else:
        # Gram-Schmidt on the two edges; rows with a zero edge stay zero
        e1, e2 = edges[:, 0, :], edges[:, 1, :]
        frames = np.zeros((len(simplices), v.shape[1], 2))
        with np.errstate(invalid="ignore", divide="ignore"):
            na = np.sqrt(_rowdot(e1, e1))
            u1 = e1 / na[:, None]
            b2 = e2 - _rowdot(e2, u1)[:, None] * u1
            nb = np.sqrt(_rowdot(b2, b2))
            ok = (na != 0) & (nb != 0)
            frames[ok, :, 0] = u1[ok]
            frames[ok, :, 1] = b2[ok] / nb[ok, None]
    return meas, frames


def _plane_rows(e):
    """The columns of each simplex frame as unit-stride rows, shape
    (m, S, n). For a triangle, row 0 is u and row 1 is v of
    ``_triangle_plane_basis``, bit for bit; products with them keep the
    bits of that basis only because the rows have unit stride."""
    return np.ascontiguousarray(e.simplex_frames.transpose(2, 0, 1))


@dataclass(frozen=True)
class SimplicialSet:
    """Weighted m-dimensional simplicial complex in R^n, m in {1, 2}.

    Per-simplex m-measure and tangent plane frames are derived at
    construction; degenerate simplices (measure <= 1e-14) are rejected.
    """

    ambient_dim: int
    dim: int
    vertices: np.ndarray
    simplices: np.ndarray
    diagnostics: dict = field(default_factory=dict, compare=False)
    simplex_measures: np.ndarray = field(init=False, repr=False, compare=False)
    simplex_frames: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n, m = int(self.ambient_dim), int(self.dim)
        if m not in (1, 2):
            raise ValueError("only dimensions m in {1, 2} are supported")
        if n < m:
            raise ValueError("ambient dimension below set dimension")
        v = np.asarray(self.vertices, dtype=float).reshape(-1, n)
        s = np.asarray(self.simplices, dtype=np.int64).reshape(-1, m + 1)
        if len(s) and (s.min() < 0 or s.max() >= len(v)):
            raise ValueError("simplex vertex index out of range")
        meas, frames = _simplex_measures_and_frames(v, s, m)
        if len(meas) and meas.min() <= DEGENERATE_MEASURE:
            raise ValueError("degenerate simplex (measure <= 1e-14)")
        for arr in (v, s, meas, frames):
            arr.setflags(write=False)
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "dim", m)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "simplices", s)
        object.__setattr__(self, "simplex_measures", meas)
        object.__setattr__(self, "simplex_frames", frames)

    @property
    def total_measure(self) -> float:
        return float(self.simplex_measures.sum())

    def simplex_plane(self, i: int) -> Plane:
        return Plane(self.simplex_frames[i])

    def simplex_points(self, i: int) -> np.ndarray:
        return self.vertices[self.simplices[i]]

    def is_empty(self) -> bool:
        return len(self.simplices) == 0

    @classmethod
    def empty(cls, ambient_dim: int, dim: int) -> "SimplicialSet":
        return cls(ambient_dim, dim, np.zeros((0, ambient_dim)), np.zeros((0, dim + 1), dtype=np.int64))

    @classmethod
    def from_polyline(cls, points) -> "SimplicialSet":
        pts = np.asarray(points, dtype=float)
        segs = np.column_stack([np.arange(len(pts) - 1), np.arange(1, len(pts))])
        return cls(pts.shape[1], 1, pts, segs)

    @classmethod
    def from_segments(cls, segments) -> "SimplicialSet":
        """Build from (p, q) endpoint pairs, as a sequence or an array of
        shape (..., 2, n) (disconnected allowed)."""
        verts = np.asarray(segments, dtype=float)
        verts = verts.reshape(-1, verts.shape[-1])
        return cls(verts.shape[1], 1, verts, np.arange(len(verts)).reshape(-1, 2))

    @classmethod
    def from_triangles(cls, triangles) -> "SimplicialSet":
        """Build from corner triples, as a sequence or an array of shape
        (..., 3, n)."""
        verts = np.asarray(triangles, dtype=float)
        verts = verts.reshape(-1, verts.shape[-1])
        return cls(verts.shape[1], 2, verts, np.arange(len(verts)).reshape(-1, 3))


@dataclass(frozen=True)
class PointCloudSet:
    """Weighted point sample of an m-dimensional set (e.g. an irregular set)."""

    ambient_dim: int
    dim: int
    points: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        n = int(self.ambient_dim)
        pts = np.asarray(self.points, dtype=float).reshape(-1, n)
        w = np.asarray(self.masses, dtype=float).reshape(-1)
        if len(pts) != len(w):
            raise ValueError("one mass per point required")
        if len(w) and w.min() <= 0:
            raise ValueError("masses must be positive")
        if not np.isfinite(w).all():
            raise ValueError("masses must be finite")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", w)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


def measure(e: SimplicialSet) -> float:
    """Total m-dimensional measure: the exact sum of simplex m-volumes."""
    return e.total_measure


def translate(e: SimplicialSet, offset) -> SimplicialSet:
    return SimplicialSet(e.ambient_dim, e.dim, e.vertices + np.asarray(offset, dtype=float),
                         e.simplices)


def rescale(e: SimplicialSet, x, r: float) -> SimplicialSet:
    """Map vertices y -> (y - x) / r. Measure scales by r^{-m} exactly."""
    if r <= 0:
        raise ValueError("rescale radius must be positive")
    return SimplicialSet(e.ambient_dim, e.dim, (e.vertices - np.asarray(x, dtype=float)) / r,
                         e.simplices)


def _sphere_crossings(p, d, center, radius):
    """The parameters t0 < t1 at which the line p + t*d meets the sphere,
    or None when d is zero or the line misses or only touches it."""
    a = float(np.dot(d, d))
    if a == 0.0:
        return None
    f = p - center
    b = 2.0 * float(np.dot(d, f))
    c = float(np.dot(f, f)) - radius * radius
    disc = b * b - 4 * a * c
    if disc <= 0:
        return None
    sq = np.sqrt(disc)
    return (-b - sq) / (2 * a), (-b + sq) / (2 * a)


def _clip_segment_to_ball(p, q, center, radius):
    """Parameter interval of {p + t(q-p)} inside the closed ball, or None."""
    t = _sphere_crossings(p, q - p, center, radius)
    if t is None:
        return None
    t0, t1 = max(t[0], 0.0), min(t[1], 1.0)
    if t1 - t0 <= 1e-14:
        return None
    return t0, t1


def _triangle_plane_basis(tri):
    """Orthonormal basis (u, v) of the triangle's own affine plane, with
    its first corner: u along the first edge, v along the part of the
    second edge orthogonal to u."""
    a, b, c = tri
    e1 = b - a
    u = e1 / np.linalg.norm(e1)
    return a, u, _unit_rejection(c - a, u)[0]


def _unit_rejection(e, u):
    """The part of e orthogonal to the unit vector u, scaled to unit
    length, and its length before scaling."""
    w = e - np.dot(e, u) * u
    nw = np.linalg.norm(w)
    return w / nw, nw


def _polygon_area(poly):
    """Signed area of a 2-d polygon, positive when its vertices run
    counter-clockwise."""
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _canonical_signs(u):
    """Each row of u or its negative, whichever has its first component
    beyond 1e-9 in absolute value positive, so that opposite directions of
    one line (or normals of one plane) agree. Rows with no such component
    (zero or NaN) are kept."""
    big = np.abs(u) > 1e-9
    lead = u[np.arange(len(u)), np.argmax(big, axis=1)]
    flip = big.any(axis=1) & (lead < 0)
    return np.where(flip[:, None], -u, u)


def _arc_defect(radius, span, steps):
    """Exact area between an arc of the given span and its inscribed
    polyline with the given number of equal chords."""
    theta = span / steps
    return 0.5 * radius * radius * steps * (theta - np.sin(theta))


def _clip_polygon_to_disk(poly, center, radius, max_arc_step):
    """Clip a convex 2-d polygon against a disk.

    Straight portions are kept exactly; each circular arc of the boundary is
    replaced by an inscribed polyline with angular step <= max_arc_step.
    Returns (boundary points CCW, total arc angle, inscribed-area defect).
    """
    if _polygon_area(poly) < 0:
        poly = poly[::-1]
    c = np.asarray(center, dtype=float)
    r2 = radius * radius
    inside = np.einsum("ij,ij->i", poly - c, poly - c) <= r2 * (1 + 1e-14)

    if inside.all():
        return [pt for pt in poly], 0.0, 0.0

    # Walk edges, recording kept vertices and circle crossings in order.
    events = []  # (point, entering_flag or None for interior vertex)
    k = len(poly)
    for i in range(k):
        p, q = poly[i], poly[(i + 1) % k]
        if inside[i]:
            events.append((p, None))
        d = q - p
        ts = _sphere_crossings(p, d, c, radius)
        if ts is None:
            continue
        for t, entering in zip(ts, (True, False)):
            if 1e-14 < t < 1 - 1e-14:
                events.append((p + t * d, entering))

    if not events:
        # no crossings and no inside vertices: either disjoint or disk inside polygon
        if _point_in_convex_polygon(c, poly):
            steps = max(3, int(np.ceil(2 * np.pi / max_arc_step)))
            ang = np.linspace(0.0, 2 * np.pi, steps, endpoint=False)
            circle = c + radius * np.column_stack([np.cos(ang), np.sin(ang)])
            return [pt for pt in circle], 2 * np.pi, _arc_defect(radius, 2 * np.pi, steps)
        return [], 0.0, 0.0

    out = []
    arc_total = 0.0
    defect = 0.0
    ne = len(events)
    for i in range(ne):
        pt, flag = events[i]
        out.append(pt)
        if flag is False:  # exiting the disk: follow the arc to the next entry point
            nxt_pt, nxt_flag = events[(i + 1) % ne]
            if nxt_flag is not True:
                continue  # tangential grazing; skip arc
            a0 = np.arctan2(pt[1] - c[1], pt[0] - c[0])
            a1 = np.arctan2(nxt_pt[1] - c[1], nxt_pt[0] - c[0])
            while a1 <= a0 + 1e-15:
                a1 += 2 * np.pi
            span = a1 - a0
            arc_total += span
            steps = max(1, int(np.ceil(span / max_arc_step)))
            defect += _arc_defect(radius, span, steps)
            for j in range(1, steps):
                ang = a0 + span * j / steps
                out.append(c + radius * np.array([np.cos(ang), np.sin(ang)]))
    return out, arc_total, defect


def _point_in_convex_polygon(pt, poly):
    k = len(poly)
    sign = 0
    for i in range(k):
        a, b = poly[i], poly[(i + 1) % k]
        cr = (b[0] - a[0]) * (pt[1] - a[1]) - (b[1] - a[1]) * (pt[0] - a[0])
        if abs(cr) < 1e-15:
            continue
        s = 1 if cr > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def _clip_simplices(e: SimplicialSet, ball: Ball):
    """E ∩ B simplex by simplex, in simplex order.

    Yields ``(pieces, loop, arc_points, defect)`` for each simplex that
    meets the ball: the corner arrays it adds to ``restrict``'s output
    (possibly none, when every fan triangle of a clipped polygon is a
    sliver), its convex boundary loop (m = 2; None for m = 1), and the arc
    points and area defect of its inscribed arcs.
    """
    c, r = ball.center, ball.radius
    if e.dim == 1:
        for i in range(len(e.simplices)):
            p, q = e.simplex_points(i)
            t = _clip_segment_to_ball(p, q, c, r)
            if t is None:
                continue
            t0, t1 = t
            d = q - p
            yield [(p + t0 * d, p + t1 * d)], None, 0, 0.0
        return

    # m == 2: per-triangle in-plane disk clipping.
    # Angular step chosen so that the summed inscribed-arc defect over the
    # call is below CLIP_AREA_TOL * r^2:  total <= (2*pi/step)*(rho^2 step^3)/12.
    max_arc_step = np.sqrt(6.0 * CLIP_AREA_TOL / np.pi)  # rho <= r cancels r^2
    u_rows, v_rows = _plane_rows(e)
    for i in range(len(e.simplices)):
        tri = e.simplex_points(i)
        dist2 = np.einsum("ij,ij->i", tri - c, tri - c)
        if (dist2 <= r * r * (1 + 1e-14)).all():
            yield [tri], np.array(tri), 0, 0.0  # wholly inside: kept exactly
            continue
        a0, u, v = tri[0], u_rows[i], v_rows[i]
        rel = c - a0
        in_plane = np.array([np.dot(rel, u), np.dot(rel, v)])
        off2 = float(np.dot(rel, rel)) - float(np.dot(in_plane, in_plane))
        rho2 = r * r - off2
        if rho2 <= 0:
            continue
        rho = np.sqrt(rho2)
        poly2 = np.column_stack([ (tri - a0) @ u, (tri - a0) @ v ])
        clipped, arc_angle, defect = _clip_polygon_to_disk(poly2, in_plane, rho, max_arc_step)
        if len(clipped) < 3:
            continue
        poly = np.asarray(clipped)
        cen2 = poly.mean(axis=0)
        kq = len(poly)
        tris = []
        for j in range(kq):
            a2, b2 = poly[j], poly[(j + 1) % kq]
            area = 0.5 * abs((a2[0] - cen2[0]) * (b2[1] - cen2[1])
                             - (a2[1] - cen2[1]) * (b2[0] - cen2[0]))
            if area > 2 * DEGENERATE_MEASURE:
                tris.append(np.array([a0 + cen2[0] * u + cen2[1] * v,
                                      a0 + a2[0] * u + a2[1] * v,
                                      a0 + b2[0] * u + b2[1] * v]))
        yield (tris, poly @ np.stack([u, v]) + a0,
               max(0, int(np.ceil(arc_angle / max_arc_step)) - 1), defect)


def _check_ball(e, ball: Ball):
    """Raise ValueError unless the ball lies in the set's ambient space."""
    if e.ambient_dim != len(ball.center):
        raise ValueError("ball and set ambient dimensions differ")


def _meets(e: SimplicialSet, ball: Ball) -> bool:
    """``not restrict(e, ball).is_empty()``, decided without building the
    clipped set: the clipping stops at the first simplex that adds a piece."""
    return any(pieces for pieces, _, _, _ in _clip_simplices(e, ball))


def restrict(e: SimplicialSet | PointCloudSet, ball: Ball) -> SimplicialSet | PointCloudSet:
    """Geometric intersection E ∩ B as a new set of the same kind.

    A PointCloudSet keeps the points in the closed ball with their masses.
    Segments are cut exactly at the sphere. Triangles crossing the sphere
    are clipped in their own plane against the disk of intersection, with
    the curved boundary inscribed finely enough that the total area defect
    of the call stays below 1e-6 * r^m; the defect bound and arc point
    count are recorded in the result's diagnostics.
    """
    _check_ball(e, ball)
    if isinstance(e, PointCloudSet):
        inside = ball.contains(e.points)
        return PointCloudSet(e.ambient_dim, e.dim, e.points[inside], e.masses[inside])
    pieces = []
    arc_points = 0
    err_bound = 0.0
    for got, _, arcs, defect in _clip_simplices(e, ball):
        pieces += got
        arc_points += arcs
        err_bound += defect
    if not pieces:
        return SimplicialSet.empty(e.ambient_dim, e.dim)
    out = (SimplicialSet.from_segments if e.dim == 1 else SimplicialSet.from_triangles)(pieces)
    object.__setattr__(out, "diagnostics", {"clip_area_error_bound": float(err_bound),
                                            "arc_points": int(arc_points)})
    return out


_GEMV_ROWS = 8         # rows per block of the grouped matrix-vector product
_PAIR_BLOCK = 1 << 18  # (point, simplex) pairs per pass of the distance kernel


def _gemv_layout(simplex):
    """Blocks of ``_GEMV_ROWS`` slots over pairs sorted by simplex: each
    block holds pairs of one simplex and is padded with that simplex's
    first pair. Returns the pair at each slot, the simplex of each block
    and the slot of each pair."""
    starts = np.flatnonzero(np.r_[True, simplex[1:] != simplex[:-1]])
    counts = np.diff(np.r_[starts, len(simplex)])
    blocks = -(-counts // _GEMV_ROWS)
    slots = blocks * _GEMV_ROWS
    first_slot = np.cumsum(slots) - slots
    offset = np.arange(slots.sum()) - np.repeat(first_slot, slots)
    src = np.repeat(starts, slots) + np.where(offset < np.repeat(counts, slots), offset, 0)
    slot = np.arange(len(simplex)) + np.repeat(first_slot - starts, counts)
    return src, np.repeat(simplex[starts], blocks), slot


def _pair_dot(x, vecs, simplex, layout):
    """``x[i] . vecs[simplex[i]]`` for each row i of x.

    With a ``_gemv_layout`` of ``simplex``, one stacked matrix-vector
    product over its blocks: a stack of (R, k) @ (k, 1) products with
    R >= 2 gives each row the bits of the BLAS matrix-vector product
    ``rows @ vec`` over the rows of its simplex. With None, ``_rowdot``:
    the BLAS dot that a one-row product takes instead.
    """
    if layout is None:
        return _rowdot(x, vecs[simplex])
    src, block_simplex, slot = layout
    blocks = x[src].reshape(-1, _GEMV_ROWS, x.shape[1])
    return (blocks @ vecs[block_simplex][:, :, None]).reshape(-1)[slot]


def _simplex_constants(target: SimplicialSet):
    """Per-simplex terms of the point-simplex distance. Segments: first
    end ``a``, direction ``d`` and ``d.d``. Triangles: first corner ``a``,
    the in-plane basis (u along the first edge), the in-plane corners
    ``t2``, their edge vectors and the edges' ``d.d``."""
    corners = target.vertices[target.simplices]  # (S, m+1, n)
    a = corners[:, 0]
    if target.dim == 1:
        d = corners[:, 1] - a
        return a, d, _rowdot(d, d)
    u, v = _plane_rows(target)
    rel = corners - a[:, None, :]  # a (3, n) @ (n, 1) stack: the matrix-vector path
    t2 = np.stack([(rel @ u[:, :, None])[:, :, 0], (rel @ v[:, :, None])[:, :, 0]], axis=2)
    d = np.roll(t2, -1, axis=1) - t2  # edge i runs from corner i to corner i + 1
    return a, u, v, t2, d, _rowdot(d.reshape(-1, 2), d.reshape(-1, 2)).reshape(-1, 3)


def _clamped_foot_distance(p, a, d, denom, simplex, layout):
    """Distances from the rows of p to the segments [a, a + d] of their
    simplices: the foot of the perpendicular clamped to the segment (to a
    when d.d is 0)."""
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.clip(_pair_dot(p - a[simplex], d, simplex, layout) / denom[simplex], 0.0, 1.0)
    t[denom[simplex] == 0] = 0.0
    foot = a[simplex] + t[:, None] * d[simplex]
    return np.linalg.norm(p - foot, axis=1)


def _pair_distances(p, simplex, const, layout):
    """Distance from each row of p to the target simplex paired with it."""
    if len(const) == 3:  # segments
        return _clamped_foot_distance(p, *const, simplex, layout)
    a, u, v, t2, d, denom = const
    rel = p - a[simplex]
    x = _pair_dot(rel, u, simplex, layout)
    y = _pair_dot(rel, v, simplex, layout)
    perp2 = np.maximum(np.einsum("ij,ij->i", rel, rel) - x * x - y * y, 0.0)
    p2 = np.column_stack([x, y])
    # barycentric inside test
    v0, v1, v2 = t2[:, 0], t2[:, 1], t2[:, 2]
    den = ((v1[:, 1] - v2[:, 1]) * (v0[:, 0] - v2[:, 0])
           + (v2[:, 0] - v1[:, 0]) * (v0[:, 1] - v2[:, 1]))[simplex]
    dx, dy = p2[:, 0] - v2[simplex, 0], p2[:, 1] - v2[simplex, 1]
    l1 = ((v1[:, 1] - v2[:, 1])[simplex] * dx + (v2[:, 0] - v1[:, 0])[simplex] * dy) / den
    l2 = ((v2[:, 1] - v0[:, 1])[simplex] * dx + (v0[:, 0] - v2[:, 0])[simplex] * dy) / den
    l3 = 1.0 - l1 - l2
    inside = (l1 >= -1e-12) & (l2 >= -1e-12) & (l3 >= -1e-12)
    dist = np.where(inside, 0.0, np.inf)
    for i in range(3):
        edge = _clamped_foot_distance(p2, t2[:, i], d[:, i], denom[:, i], simplex, layout)
        dist = np.minimum(dist, edge)
    return np.sqrt(dist * dist + perp2)


def _candidate_pairs(pts, target):
    """The (row, simplex) pairs of points and the simplices each can be
    nearest to, ordered by row.

    A point's distance to the nearest vertex or centroid, both points of
    the set, is an upper bound ``ub`` of its distance to the set, and no
    point of a simplex lies farther than its bounding radius ``R_s`` from
    its centroid. So only the simplices whose centroid is within
    ``R_s + ub + margin`` are kept. The margin exceeds the rounding of the
    distance kernel (the ``perp2`` cancellation of the triangle distance is
    near 1e-8 * |p - a|), so no pruned simplex can round to a distance at
    or below a kept one's.
    """
    corners = target.vertices[target.simplices]  # (S, m+1, n)
    centroids = corners.mean(axis=1)
    radii = np.linalg.norm(corners - centroids[:, None, :], axis=2).max(axis=1)
    on_set = np.concatenate([target.vertices[np.unique(target.simplices)], centroids])
    ub = cKDTree(on_set).query(pts)[0]
    margin = 1e-6 * (1.0 + radii.max() + ub.max())
    near = cKDTree(centroids).query_ball_point(pts, ub + radii.max() + margin)
    counts = np.fromiter(map(len, near), dtype=np.int64, count=len(pts))
    simplex = np.fromiter(chain.from_iterable(near), dtype=np.int64, count=int(counts.sum()))
    row = np.repeat(np.arange(len(pts)), counts)
    keep = (np.linalg.norm(pts[row] - centroids[simplex], axis=1)
            <= radii[simplex] + ub[row] + margin)
    return row[keep], simplex[keep]


def nearest_simplex(points, target: SimplicialSet):
    """Exact Euclidean distance from each point to a SimplicialSet, and the
    index of its first nearest simplex (-1 on an empty set).

    Bit for bit the result of evaluating every simplex in ascending order
    on every point with the per-simplex kernel and keeping strict
    improvements. Each bitwise-distinct point is evaluated once, on the
    simplices that ``_candidate_pairs`` cannot exclude, in one batched
    kernel per block of about ``_PAIR_BLOCK`` pairs. The kernel's products
    are stacked matrix-vector products, which keep the bits of the
    per-simplex ``rows @ vec``; a one-point call takes the dot path, as a
    one-row product does.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if target.is_empty() or len(pts) == 0:
        return np.full(len(pts), np.inf), np.full(len(pts), -1, dtype=np.int64)
    distinct, inverse = _distinct_rows(pts)
    best = np.full(len(distinct), np.inf)
    index = np.full(len(distinct), -1, dtype=np.int64)
    const = _simplex_constants(target)
    row, simplex = _candidate_pairs(distinct, target)
    # blocks of whole rows, each starting at the row of every _PAIR_BLOCK-th pair
    starts = np.unique(np.searchsorted(row, row[::_PAIR_BLOCK]))
    for lo, hi in zip(starts, np.r_[starts[1:], len(row)]):
        order = np.argsort(simplex[lo:hi], kind="stable")
        r, s = row[lo:hi][order], simplex[lo:hi][order]
        layout = None if len(pts) == 1 else _gemv_layout(s)
        dist = _pair_distances(distinct[r], s, const, layout)
        # per row, the smallest distance at the lowest simplex: the loop's
        # first strict improvement; NaN sorts last and never wins
        first = np.lexsort((s, dist, r))
        first = first[np.r_[True, r[first[1:]] != r[first[:-1]]]]
        found = first[dist[first] < np.inf]
        best[r[found]] = dist[found]
        index[r[found]] = s[found]
    return best[inverse], index[inverse]


def distance_to_set(points, target) -> np.ndarray:
    """Exact Euclidean distances from each point to a SimplicialSet or
    PointCloudSet (point-segment / point-triangle / nearest sample point)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(target, PointCloudSet):
        if len(target.points) == 0:
            return np.full(len(pts), np.inf)
        diffs = pts[:, None, :] - target.points[None, :, :]
        return np.sqrt(np.einsum("ijk,ijk->ij", diffs, diffs)).min(axis=1)
    return nearest_simplex(pts, target)[0]


def ahlfors_ratios(e: SimplicialSet, x, radii) -> np.ndarray:
    """measure(E ∩ B(x, r)) / r^m over the given radii."""
    x = np.asarray(x, dtype=float)
    out = []
    for r in radii:
        out.append(measure(restrict(e, Ball(x, float(r)))) / float(r) ** e.dim)
    return np.array(out)


def save_set(e, path) -> None:
    """Write a set to JSON. SimplicialSet uses the {ambient_dim, dim,
    vertices, simplices} schema; PointCloudSet uses {.., points, masses}."""
    if isinstance(e, SimplicialSet):
        doc = {
            "ambient_dim": e.ambient_dim,
            "dim": e.dim,
            "vertices": e.vertices.tolist(),
            "simplices": e.simplices.tolist(),
        }
    elif isinstance(e, PointCloudSet):
        doc = {
            "ambient_dim": e.ambient_dim,
            "dim": e.dim,
            "points": e.points.tolist(),
            "masses": e.masses.tolist(),
        }
    else:
        raise TypeError(f"cannot serialize {type(e).__name__}")
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_set(path):
    with open(path) as fh:
        doc = json.load(fh)
    if "points" in doc:
        return PointCloudSet(doc["ambient_dim"], doc["dim"],
                             np.array(doc["points"], dtype=float),
                             np.array(doc["masses"], dtype=float))
    return SimplicialSet(doc["ambient_dim"], doc["dim"],
                         np.array(doc["vertices"], dtype=float),
                         np.array(doc["simplices"], dtype=np.int64))
