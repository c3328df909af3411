"""Computable m-dimensional sets in R^n.

SimplicialSet covers the rectifiable case with exact per-simplex measure
and tangent planes (m = 1 segments, m = 2 triangles). PointCloudSet is the
weighted-sample stand-in for irregular sets. Restriction to a ball cuts
segments exactly and keeps triangles wholly inside it; triangles the sphere
cuts get the circular boundary replaced by an inscribed polyline whose area
defect is budgeted below 1e-6 * r^m per call and recorded in the
diagnostics of the result. Ball clipping (``_clip``) classifies all
simplices at once; only the triangles the sphere cuts are walked one by one.

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
query point once, on the simplices that can be nearest to it (a bound
from the kernel itself against centroid-sphere and longest-edge capsule
bounds), with the bits of the per-simplex loop it replaced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

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


def _first_edge_rejection(corners):
    """Gram-Schmidt on the first two edges of an (S, 3, n) triangle array:
    |e1|, u = e1 / |e1|, the part b of e2 orthogonal to u, and |b| (NaN
    rows where e1 is zero)."""
    e1 = corners[:, 1] - corners[:, 0]
    e2 = corners[:, 2] - corners[:, 0]
    with np.errstate(invalid="ignore", divide="ignore"):
        na = np.sqrt(_rowdot(e1, e1))
        u = e1 / na[:, None]
        b = e2 - _rowdot(e2, u)[:, None] * u
    return na, u, b, np.sqrt(_rowdot(b, b))


def _nondegenerate(corners, m):
    """Mask of the simplices of an (S, m+1, n) corner array that a set
    accepts: measure above ``DEGENERATE_MEASURE`` and, for a triangle, its
    area |e1| |e2 - (e2.u) u| / 2, u = e1 / |e1|, above it too. That
    height is a rejection, so unlike the Gram determinant it has no
    cancellation: a triangle collinear to within the rounding of its
    corners gets an area near that rounding, not near 1e-8. Accepted
    triangles keep their Gram-determinant measure."""
    keep = _simplex_measures(corners, m) > DEGENERATE_MEASURE
    if m == 2:
        na, _, _, nb = _first_edge_rejection(corners)
        keep &= 0.5 * na * nb > DEGENERATE_MEASURE
    return keep


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
    """Exact m-measures and tangent frames for each simplex, and the
    cancellation-free measures that decide degeneracy: for triangles the
    area of ``_nondegenerate``, for segments the measures themselves."""
    v = vertices
    if len(simplices) == 0:
        return np.zeros(0), np.zeros((0, v.shape[1], m)), np.zeros(0)
    corners = v[simplices]
    meas = _simplex_measures(corners, m)
    if m == 1:
        with np.errstate(invalid="ignore", divide="ignore"):
            frames = ((corners[:, 1] - corners[:, 0])
                      / np.where(meas > 0, meas, 1.0)[:, None])[:, :, None]
        return meas, frames, meas
    # Gram-Schmidt on the two edges; rows with a zero edge stay zero
    na, u1, b2, nb = _first_edge_rejection(corners)
    frames = np.zeros((len(simplices), v.shape[1], 2))
    ok = (na != 0) & (nb != 0)
    frames[ok, :, 0] = u1[ok]
    frames[ok, :, 1] = b2[ok] / nb[ok, None]
    return meas, frames, 0.5 * na * nb


def _plane_rows(e):
    """The columns of each simplex frame as unit-stride rows, shape
    (m, S, n). For a triangle, row 0 is u = e1 / |e1| and row 1 is v, the
    part of e2 orthogonal to u scaled to unit length, with the bits of the
    1-D ``np.dot`` and ``np.linalg.norm`` arithmetic on one triangle;
    products with them keep those bits only because the rows have unit
    stride."""
    return np.ascontiguousarray(e.simplex_frames.transpose(2, 0, 1))


@dataclass(frozen=True)
class SimplicialSet:
    """Weighted m-dimensional simplicial complex in R^n, m in {1, 2}.

    Per-simplex m-measure and tangent plane frames are derived at
    construction; degenerate simplices (measure <= 1e-14, or for a
    triangle its cancellation-free area <= 1e-14) are rejected.
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
        v = np.array(self.vertices, dtype=float).reshape(-1, n)
        s = np.array(self.simplices, dtype=np.int64).reshape(-1, m + 1)
        if len(s) and (s.min() < 0 or s.max() >= len(v)):
            raise ValueError("simplex vertex index out of range")
        meas, frames, areas = _simplex_measures_and_frames(v, s, m)
        # the rule of _nondegenerate, on the terms derived here
        if not ((meas > DEGENERATE_MEASURE) & (areas > DEGENERATE_MEASURE)).all():
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
        pts = np.array(self.points, dtype=float).reshape(-1, n)
        w = np.array(self.masses, dtype=float).reshape(-1)
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
    """Row-wise parameters t0 < t1 at which the lines p + t*d meet the
    sphere, and the mask of rows where they do: not where d is zero or the
    line misses or only touches the sphere. ``center`` and ``radius`` are
    one per row or one for all."""
    a = _rowdot(d, d)
    f = p - center
    b = 2.0 * _rowdot(d, f)
    c = _rowdot(f, f) - radius * radius
    disc = b * b - 4 * a * c
    with np.errstate(invalid="ignore", divide="ignore"):
        sq = np.sqrt(disc)
        return (-b - sq) / (2 * a), (-b + sq) / (2 * a), (a != 0) & (disc > 0)


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


def _in_plane_corners(corners, u, v):
    """The corners of each triangle of an (S, 3, n) array in the in-plane
    basis rows u, v of ``_plane_rows``, with the first corner at the
    origin: shape (S, 3, 2). They run counter-clockwise, as v points
    toward the third corner, unless the triangle is collinear to within
    rounding. The stack of (3, n) @ (n, 1) products gives each triangle
    the bits of ``(tri - tri[0]) @ u``."""
    rel = corners - corners[:, :1]
    return np.stack([(rel @ u[:, :, None])[:, :, 0], (rel @ v[:, :, None])[:, :, 0]], axis=2)


def _arc_defect(radius, span, steps):
    """Exact area between an arc of the given span and its inscribed
    polyline with the given number of equal chords."""
    theta = span / steps
    return 0.5 * radius * radius * steps * (theta - np.sin(theta))


# Angular step of the inscribed arcs, chosen so that the summed defect of
# one restrict() call is below CLIP_AREA_TOL * r^2:
# total <= (2*pi/step) * (rho^2 step^3) / 12, and rho <= r cancels r^2.
_ARC_STEP = np.sqrt(6.0 * CLIP_AREA_TOL / np.pi)
_ENTER, _EXIT = 1, 2  # the event slots of an edge: 0 its first corner, 1 its entry, 2 its exit


def _disk_boundary(events, kinds, c, radius):
    """The boundary of a convex polygon's part in a disk, from the events
    of a counter-clockwise walk along its edges (corners in the disk, and
    the edges' entries and exits). Straight portions are kept exactly;
    each arc from an exit to the next entry is inscribed with angular step
    <= ``_ARC_STEP``. With no event the disk lies inside the polygon.
    Returns (boundary points, total arc angle, inscribed-area defect)."""
    if len(events) == 0:
        steps = max(3, int(np.ceil(2 * np.pi / _ARC_STEP)))
        ang = np.linspace(0.0, 2 * np.pi, steps, endpoint=False)
        circle = c + radius * np.column_stack([np.cos(ang), np.sin(ang)])
        return circle, 2 * np.pi, _arc_defect(radius, 2 * np.pi, steps)
    out = []
    arc_total = 0.0
    defect = 0.0
    ahead = zip(np.roll(events, -1, axis=0), kinds[1:] + kinds[:1])
    for pt, kind, (nxt, nxt_kind) in zip(events, kinds, ahead):
        out.append(pt)
        if kind == _EXIT and nxt_kind == _ENTER:  # follow the arc to the next entry
            a0 = np.arctan2(pt[1] - c[1], pt[0] - c[0])
            a1 = np.arctan2(nxt[1] - c[1], nxt[0] - c[0])
            while a1 <= a0 + 1e-15:
                a1 += 2 * np.pi
            span = a1 - a0
            arc_total += span
            steps = max(1, int(np.ceil(span / _ARC_STEP)))
            defect += _arc_defect(radius, span, steps)
            ang = a0 + span * np.arange(1, steps) / steps
            out.extend(c + radius * np.column_stack([np.cos(ang), np.sin(ang)]))
    return np.asarray(out), arc_total, defect


def _cut_triangles(e: SimplicialSet, ball: Ball):
    """Classify every triangle against the ball at once. Returns the
    indices of the triangles wholly inside, which are kept exactly, and a
    generator that clips the ones the sphere cuts in their own plane
    against the disk of intersection, in simplex order, yielding
    ``(index, fan, loop, arc_points, defect)``: the fan of the clipped
    polygon from its centroid without in-plane slivers (possibly empty),
    its loop in R^n, and its inscribed arcs' point count and area defect.
    The fan can still hold lifted pieces that a set would reject as
    degenerate; ``_nondegenerate`` drops them."""
    c, r = ball.center, ball.radius
    corners = e.vertices[e.simplices]
    dist2 = np.einsum("sij,sij->si", corners - c, corners - c)
    whole = (dist2 <= r * r * (1 + 1e-14)).all(axis=1)
    u, v = _plane_rows(e)
    rel = c - corners[:, 0]
    centre = np.column_stack([_rowdot(rel, u), _rowdot(rel, v)])
    rho2 = r * r - (_rowdot(rel, rel) - _rowdot(centre, centre))
    cut = np.flatnonzero(~whole & (rho2 > 0))
    corners, u, v, centre, rho = corners[cut], u[cut], v[cut], centre[cut], np.sqrt(rho2[cut])
    poly = _in_plane_corners(corners, u, v)
    off = poly - centre[:, None, :]
    inside = np.einsum("sij,sij->si", off, off) <= (rho * rho)[:, None] * (1 + 1e-14)
    # edge i runs from corner i to corner i + 1; a triangle with every
    # corner in the disk is its own clipped polygon, whatever its crossings
    nxt = np.roll(poly, -1, axis=1)
    d = nxt - poly
    t0, t1, hit = _sphere_crossings(poly.reshape(-1, 2), d.reshape(-1, 2),
                                    np.repeat(centre, 3, axis=0), np.repeat(rho, 3))
    t = np.stack([t0, t1], axis=1).reshape(-1, 3, 2)
    crossing = (hit.reshape(-1, 3, 1) & (1e-14 < t) & (t < 1 - 1e-14)
                & ~inside.all(axis=1)[:, None, None])
    # per edge in walk order: its first corner if in the disk, its entry, its exit
    points = np.concatenate([poly[:, :, None], poly[:, :, None] + t[..., None] * d[:, :, None]],
                            axis=2)
    events = np.concatenate([inside[:, :, None], crossing], axis=2)
    # without an event the disk lies inside the triangle or misses it; it
    # is inside when the centre is on no edge's far side (within 1e-15)
    side = ((nxt[..., 0] - poly[..., 0]) * (centre[:, None, 1] - poly[..., 1])
            - (nxt[..., 1] - poly[..., 1]) * (centre[:, None, 0] - poly[..., 0]))
    contains = ~((side >= 1e-15).any(axis=1) & (side <= -1e-15).any(axis=1))
    # only a crossing, three corners in the disk or a disk inside make a polygon
    walk = np.flatnonzero(crossing.any(axis=(1, 2)) | inside.all(axis=1)
                          | (~inside.any(axis=1) & contains))

    def clipped():
        for j in walk:
            ev = events[j]
            boundary, arc, defect = _disk_boundary(points[j][ev], (np.flatnonzero(ev) % 3).tolist(),
                                                   centre[j], rho[j])
            if len(boundary) < 3:
                continue
            a0, uj, vj = corners[j, 0], u[j], v[j]
            cen = boundary.mean(axis=0)
            ahead = np.roll(boundary, -1, axis=0)
            area = 0.5 * np.abs((boundary[:, 0] - cen[0]) * (ahead[:, 1] - cen[1])
                                - (boundary[:, 1] - cen[1]) * (ahead[:, 0] - cen[0]))
            lifted = a0 + boundary[:, :1] * uj + boundary[:, 1:] * vj
            hub = np.broadcast_to(a0 + cen[0] * uj + cen[1] * vj, lifted.shape)
            fan = np.stack([hub, lifted, np.roll(lifted, -1, axis=0)], axis=1)
            fan = fan[area > 2 * DEGENERATE_MEASURE]  # drop in-plane slivers
            yield (cut[j], fan, boundary @ np.stack([uj, vj]) + a0,
                   max(0, int(np.ceil(arc / _ARC_STEP)) - 1), defect)

    return np.flatnonzero(whole), clipped()


def _clip(e: SimplicialSet, ball: Ball):
    """E ∩ B as arrays: ``(pieces, loops, arc_points, defect)``.

    ``pieces`` is one (P, m+1, n) corner array in simplex order. For m = 2,
    ``loops`` is (points, sizes): the boundary loop of each triangle that
    meets the ball in simplex order, a kept triangle's corners or a cut
    one's clipped polygon, even when its fan adds no piece (None for m = 1).
    ``arc_points`` and ``defect`` count the inscribed arcs' points and area.
    """
    if e.dim == 1:  # segments are cut exactly at the sphere
        corners = e.vertices[e.simplices]
        p, d = corners[:, 0], corners[:, 1] - corners[:, 0]
        t0, t1, hit = _sphere_crossings(p, d, ball.center, ball.radius)
        t0, t1 = np.maximum(t0, 0.0), np.minimum(t1, 1.0)
        pieces = np.stack([p + t0[:, None] * d, p + t1[:, None] * d], axis=1)
        # a piece of parameter length above 1e-14 can still be one a set would reject
        keep = hit & (t1 - t0 > 1e-14) & (_simplex_measures(pieces, 1) > DEGENERATE_MEASURE)
        return pieces[keep], None, 0, 0.0
    whole, cuts = _cut_triangles(e, ball)
    kept = e.vertices[e.simplices[whole]]
    index, fans, loops, arc_points, defect = [], [kept[:0]], [kept[:0, 0]], 0, 0.0
    for i, fan, loop, arcs, loss in cuts:
        index.append(i)
        fans.append(fan)
        loops.append(loop)
        arc_points += arcs
        defect += loss
    at = np.searchsorted(whole, index)  # each cut triangle's place among the kept ones
    sizes = [len(loop) for loop in loops[1:]]
    fan = np.concatenate(fans)
    ok = _nondegenerate(fan, 2)
    pieces = np.insert(kept, np.repeat(at, [len(f) for f in fans[1:]])[ok], fan[ok], axis=0)
    points = np.insert(kept.reshape(-1, e.ambient_dim), np.repeat(3 * at, sizes),
                       np.concatenate(loops), axis=0)
    return pieces, (points, np.insert(np.full(len(whole), 3), at, sizes)), arc_points, defect


def _check_ball(e, ball: Ball):
    """Raise ValueError unless the ball lies in the set's ambient space."""
    if e.ambient_dim != len(ball.center):
        raise ValueError("ball and set ambient dimensions differ")


def _meets(e: SimplicialSet, ball: Ball) -> bool:
    """``not restrict(e, ball).is_empty()``, decided without building the
    clipped set: true at once when a triangle is wholly inside, else at the
    first cut triangle whose fan adds a piece."""
    if e.dim == 1:
        return len(_clip(e, ball)[0]) > 0
    whole, cuts = _cut_triangles(e, ball)
    return len(whole) > 0 or any(_nondegenerate(fan, 2).any() for _, fan, _, _, _ in cuts)


def restrict(e: SimplicialSet | PointCloudSet, ball: Ball) -> SimplicialSet | PointCloudSet:
    """Geometric intersection E ∩ B as a new set of the same kind.

    A PointCloudSet keeps the points in the closed ball with their masses.
    Segments are cut exactly at the sphere. Triangles wholly inside the
    ball are kept exactly; those the sphere cuts are clipped in their own
    plane against the disk of intersection, with the curved boundary
    inscribed finely enough that the total area defect of the call stays
    below 1e-6 * r^m; the defect bound and arc point count are recorded in
    the result's diagnostics.
    """
    _check_ball(e, ball)
    if isinstance(e, PointCloudSet):
        inside = ball.contains(e.points)
        return PointCloudSet(e.ambient_dim, e.dim, e.points[inside], e.masses[inside])
    pieces, _, arc_points, defect = _clip(e, ball)
    if not len(pieces):
        return SimplicialSet.empty(e.ambient_dim, e.dim)
    out = (SimplicialSet.from_segments if e.dim == 1 else SimplicialSet.from_triangles)(pieces)
    object.__setattr__(out, "diagnostics", {"clip_area_error_bound": float(defect),
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
    t2 = _in_plane_corners(corners, u, v)
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


def _simplex_bounds(target: SimplicialSet, const):
    """Per-simplex terms of the candidate search: each centroid, the
    bounding radius ``R_s`` about it, the frame slack ``kappa_s`` (see
    ``_candidate_pairs``) and, for triangles, the longest edge (its first
    end, direction and ``d.d``) with the third corner's distance ``h_s``
    from it."""
    corners = target.vertices[target.simplices]  # (S, m+1, n)
    centroids = corners.mean(axis=1)
    radii = np.linalg.norm(corners - centroids[:, None, :], axis=2).max(axis=1)
    if target.dim == 1:
        return centroids, radii, np.zeros_like(radii), None
    edges = np.roll(corners, -1, axis=1) - corners  # edge i runs from corner i to corner i + 1
    length2 = np.einsum("sij,sij->si", edges, edges)
    at = np.argmax(length2, axis=1)
    rows = np.arange(len(corners))
    start, d, dd = corners[rows, at], edges[rows, at], length2[rows, at]
    w = corners[rows, (at + 2) % 3] - start
    h = np.linalg.norm(w - (np.einsum("ij,ij->i", w, d) / dd)[:, None] * d, axis=1)
    # rho_s bounds |(I - u u' - v v') e| over the edges e from the first
    # corner, with the rounding of its own evaluation
    _, u, v = const[:3]
    e = corners[:, 1:] - corners[:, :1]
    resid = (e - np.einsum("sij,sj->si", e, u)[:, :, None] * u[:, None, :]
             - np.einsum("sij,sj->si", e, v)[:, :, None] * v[:, None, :])
    reach = np.linalg.norm(e, axis=2).max(axis=1)
    rho = (np.linalg.norm(resid, axis=2).max(axis=1)
           + 4 * (target.ambient_dim + 2) * np.finfo(float).eps * reach)
    kappa = rho + np.sqrt(rho * rho + 3 * reach * rho)
    return centroids, radii, kappa, (start, d, dd, h)


def _candidate_pairs(pts, target, const):
    """The (row, simplex) pairs of points and the simplices each can be
    nearest to, ordered by row.

    Upper bound: each point's ``ub`` is the kernel's own distance to the
    simplex of its nearest centroid. The winner's distance is at most
    ``ub``, and that simplex is never dropped. (The distance to a vertex or
    centroid would bound the true distance, not the kernel's, and on a
    sliver the two differ by more than the margin.)

    Lower bounds: no point of a simplex lies farther than ``R_s`` from its
    centroid, and no point of a triangle lies farther than ``h_s`` from its
    longest edge (both angles at that edge are acute). So a segment is
    dropped when ``|p - centroid| - R_s``, and a triangle when
    ``dist(p, longest edge) - h_s``, exceeds ``ub + kappa_s + margin``.

    ``kappa_s`` is 0 for segments. A triangle's kernel measures p against
    its frame (u, v), and on a sliver that frame is not orthonormal: near
    the degeneracy threshold ``u.v`` can exceed 1e-2. If every edge e from
    the first corner has ``|(I - u u' - v v') e| <= rho_s`` and ``L_s`` is
    the longer of those edges, the kernel's distance is at least the true
    one minus ``kappa_s = rho_s + sqrt(rho_s^2 + 3 L_s rho_s)``; on a
    well-shaped triangle that is about 1e-7 L_s.

    The margin, ``1e-6 * (1 + max R_s + max ub)``, exceeds the rounding of
    the kernel's evaluation, so no dropped simplex can round to a distance
    at or below a kept one's. The largest such error is the ``perp2``
    cancellation of the triangle distance, a few 1e-8 * |p - a|, and a
    point near a bound has |p - a| <= ub + 3 R_s. It also covers the
    product path: ``ub`` comes from the stacked matrix-vector products, and
    a one-point call evaluates on the dot path.

    Before either test, the sphere bound runs from the simplex side as a
    pre-filter: each simplex queries the points within
    ``R_s + kappa_s + 2^b + margin`` of its centroid, over the points whose
    ``ub`` lies in the power-of-two band ``2^(b-1) <= ub < 2^b`` (ub below
    the margin counts as the margin), so a few far points do not make
    every simplex a candidate of every point.
    """
    from scipy.spatial import cKDTree

    centroids, radii, kappa, capsule = _simplex_bounds(target, const)
    nearest = cKDTree(centroids).query(pts)[1]
    order = np.argsort(nearest, kind="stable")
    ub = np.empty(len(pts))
    ub[order] = _pair_distances(pts[order], nearest[order], const, _gemv_layout(nearest[order]))
    margin = 1e-6 * (1.0 + radii.max() + ub.max())
    band = np.frexp(np.maximum(ub, margin))[1]
    by_band = np.argsort(band, kind="stable")
    cuts = np.flatnonzero(np.r_[True, band[by_band][1:] != band[by_band][:-1], True])
    rows, simplices = [], []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        members = by_band[lo:hi]
        near = cKDTree(pts[members]).query_ball_point(
            centroids, radii + kappa + 2.0 ** band[members[0]] + margin, return_sorted=False)
        counts = np.fromiter(map(len, near), dtype=np.int64, count=len(near))
        rows.append(members[np.fromiter(chain.from_iterable(near), dtype=np.int64,
                                         count=int(counts.sum()))])
        simplices.append(np.repeat(np.arange(len(near)), counts))
    row, simplex = np.concatenate(rows), np.concatenate(simplices)
    if capsule is None:
        gap = pts[row] - centroids[simplex]
        lower = np.sqrt(np.einsum("ij,ij->i", gap, gap)) - radii[simplex]
    else:
        start, d, dd, h = (x[simplex] for x in capsule)
        rel = pts[row] - start
        t = np.clip(np.einsum("ij,ij->i", rel, d) / dd, 0.0, 1.0)
        gap = rel - t[:, None] * d
        lower = np.sqrt(np.einsum("ij,ij->i", gap, gap)) - h
    keep = lower <= ub[row] + kappa[simplex] + margin
    row, simplex = row[keep], simplex[keep]
    order = np.argsort(row, kind="stable")
    return row[order], simplex[order]


def nearest_simplex(points, target: SimplicialSet):
    """Exact Euclidean distance from each point to a SimplicialSet, and the
    index of its first nearest simplex (-1 on an empty set).

    Bit for bit the result of evaluating every simplex in ascending order
    on every point with the per-simplex kernel and keeping strict
    improvements. Each bitwise-distinct point is evaluated once, on the
    simplices that ``_candidate_pairs`` keeps: a dropped simplex's kernel
    distance is provably above the point's upper bound ``ub``, itself the
    kernel's distance to a kept simplex, so it can neither win nor tie.
    On the ``disk`` Hausdorff inputs that is about 4.7 pairs per point.

    The kernel runs once per block of about ``_PAIR_BLOCK`` pairs. Its
    products are stacked matrix-vector products, which give each pair the
    bits of the per-simplex ``rows @ vec`` whatever else is in the block; a
    one-point call takes the dot path, as a one-row product does.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if target.is_empty() or len(pts) == 0:
        return np.full(len(pts), np.inf), np.full(len(pts), -1, dtype=np.int64)
    distinct, inverse = _distinct_rows(pts)
    best = np.full(len(distinct), np.inf)
    index = np.full(len(distinct), -1, dtype=np.int64)
    const = _simplex_constants(target)
    row, simplex = _candidate_pairs(distinct, target, const)
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
