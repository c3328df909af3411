"""Computable m-dimensional sets in R^n.

SimplicialSet covers the rectifiable case with exact per-simplex measure
and tangent planes (m = 1 segments, m = 2 triangles). PointCloudSet is the
weighted-sample stand-in for irregular sets: ``restrict``, the distance
queries and the local Hausdorff distance take it, and no varifold is built
from it. Ball clipping is one function, ``_clip``, whose arrays the
Hausdorff sups, ``projected_mass`` and the quasiminimality audit read as
they are; only ``restrict`` builds a set from them. It classifies all
simplices at once, on the triangle frames and in-plane corners of
``_simplex_constants`` that the distance kernel uses, and traces only the
boundary of each triangle the sphere cuts.

This module is the one home of the simplex primitives that the rest of the
library shares: the row-wise dot product ``_rowdot``, simplex measure,
midpoint subdivision, the segment-sphere quadratic, polygon signed area,
direction-sign canonicalization, ball clipping and point-simplex distance.
Batched code that must give the bits of a per-row loop takes its dot
products and norms from ``_rowdot``, and its matrix-vector products
``rows @ vec`` from ``_pair_dot``, which stacks each row on a copy of
itself.

Point-simplex distance is one batched kernel over (point, candidate
simplex) pairs, ``_pair_distances``: it evaluates each bitwise-distinct
query point once, on the simplices that can be nearest to it (an upper
bound from the kernel itself on the simplices of the nearest centroids,
against a centroid-sphere pre-filter and a longest-edge capsule lower
bound), with the bits of the per-simplex loop it replaced. The target's
terms of that search, ``_DistanceIndex``, are built on a set's first
distance query and kept with it (scipy is imported then, not with the
package). The Hausdorff sup, ``_sup_distance``, runs the search only on
the points whose upper bound exceeds the sup reached so far: the others
cannot raise it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .geometry import _distinct_rows

__all__ = [
    "Ball",
    "SimplicialSet",
    "PointCloudSet",
    "measure",
    "restrict",
    "distance_to_set",
    "nearest_simplex",
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
        if not np.isfinite(c).all():
            raise ValueError(f"ball centre must be finite, got {c.tolist()}")
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise ValueError(f"ball radius must be finite and positive, got {self.radius!r}")

    def contains(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(pts - self.center, axis=1) <= self.radius


def _integer(name, value) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
        n, m = _integer("ambient_dim", self.ambient_dim), _integer("dim", self.dim)
        if m not in (1, 2):
            raise ValueError("only dimensions m in {1, 2} are supported")
        if n < m:
            raise ValueError("ambient dimension below set dimension")
        v = np.array(self.vertices, dtype=float).reshape(-1, n)
        s = np.array(self.simplices)
        if s.size and s.dtype.kind not in "iu":
            raise ValueError("simplex vertex indices must be integers")
        s = s.astype(np.int64, copy=False).reshape(-1, m + 1)
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
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

    def simplex_points(self, i: int) -> np.ndarray:
        return self.vertices[self.simplices[i]]

    def is_empty(self) -> bool:
        return len(self.simplices) == 0

    @cached_property
    def _distance_index(self):
        """The terms that distance queries against this set read
        (``_DistanceIndex``), built on the first such query and kept."""
        return _build_distance_index(self)

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
        n = _integer("ambient_dim", self.ambient_dim)
        pts = np.array(self.points, dtype=float).reshape(-1, n)
        w = np.array(self.masses, dtype=float).reshape(-1)
        if len(pts) != len(w):
            raise ValueError("one mass per point required")
        if not np.isfinite(pts).all():
            raise ValueError("points must be finite")
        if len(w) and w.min() <= 0:
            raise ValueError("masses must be positive")
        if not np.isfinite(w).all():
            raise ValueError("masses must be finite")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "dim", _integer("dim", self.dim))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "masses", w)


def measure(e: SimplicialSet) -> float:
    """Total m-dimensional measure: the exact sum of simplex m-volumes."""
    return e.total_measure


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


def _check_ball(e, ball: Ball):
    """Raise ValueError unless the ball lies in the set's ambient space."""
    if e.ambient_dim != len(ball.center):
        raise ValueError("ball and set ambient dimensions differ")


def _clip(e: SimplicialSet, ball: Ball):
    """E ∩ B as arrays, ``(pieces, loops, arc_points, defect)``, for a ball
    in the set's ambient space (ValueError otherwise).

    ``pieces`` is one (P, m+1, n) corner array in simplex order, the
    concatenation of the clips of the set's one-simplex subsets; E ∩ B is
    empty exactly when it is. Segments are cut exactly at the sphere. A
    triangle with every corner within r (1 + 1e-14) of the centre is kept
    exactly; one whose plane meets the ball in a disk is clipped in that
    plane against the disk, its arcs inscribed with angular step
    <= ``_ARC_STEP``, and fanned from the clipped polygon's centroid without
    in-plane slivers or pieces that a set would reject as degenerate.

    For m = 2, ``loops`` is (points, sizes): the boundary loop of each
    triangle that meets the ball in simplex order, a kept triangle's
    corners or a cut one's clipped polygon, even when its fan adds no piece
    (None for m = 1). ``arc_points`` and ``defect`` are the inscribed arcs'
    point count and area defect, summed in simplex order.
    """
    _check_ball(e, ball)
    c, r = ball.center, ball.radius
    corners = e.vertices[e.simplices]
    if e.dim == 1:
        p, d = corners[:, 0], corners[:, 1] - corners[:, 0]
        t0, t1, hit = _sphere_crossings(p, d, c, r)
        t0, t1 = np.maximum(t0, 0.0), np.minimum(t1, 1.0)
        pieces = np.stack([p + t0[:, None] * d, p + t1[:, None] * d], axis=1)
        # a piece of parameter length above 1e-14 can still be one a set would reject
        keep = hit & (t1 - t0 > 1e-14) & (_simplex_measures(pieces, 1) > DEGENERATE_MEASURE)
        return pieces[keep], None, 0, 0.0
    dist2 = np.einsum("sij,sij->si", corners - c, corners - c)
    whole = (dist2 <= r * r * (1 + 1e-14)).all(axis=1)
    a, u, v, poly, d, _ = _simplex_constants(e)
    rel = c - a
    centre = np.column_stack([_rowdot(rel, u), _rowdot(rel, v)])
    rho2 = r * r - (_rowdot(rel, rel) - _rowdot(centre, centre))
    cut = np.flatnonzero(~whole & (rho2 > 0))
    a, u, v, poly, d, centre = (x[cut] for x in (a, u, v, poly, d, centre))
    rho = np.sqrt(rho2[cut])
    off = poly - centre[:, None, :]
    inside = np.einsum("sij,sij->si", off, off) <= (rho * rho)[:, None] * (1 + 1e-14)
    # edge i runs from corner i to corner i + 1; a triangle with every
    # corner in the disk is its own clipped polygon, whatever its crossings
    nxt = np.roll(poly, -1, axis=1)
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
    whole = np.flatnonzero(whole)
    kept = corners[whole]
    index, fans, loops, arc_points, defect = [], [kept[:0]], [kept[:0, 0]], 0, 0.0
    for j in walk:
        ev = events[j]
        boundary, arc, loss = _disk_boundary(points[j][ev], (np.flatnonzero(ev) % 3).tolist(),
                                             centre[j], rho[j])
        if len(boundary) < 3:
            continue
        cen = boundary.mean(axis=0)
        ahead = np.roll(boundary, -1, axis=0)
        area = 0.5 * np.abs((boundary[:, 0] - cen[0]) * (ahead[:, 1] - cen[1])
                            - (boundary[:, 1] - cen[1]) * (ahead[:, 0] - cen[0]))
        lifted = a[j] + boundary[:, :1] * u[j] + boundary[:, 1:] * v[j]
        hub = np.broadcast_to(a[j] + cen[0] * u[j] + cen[1] * v[j], lifted.shape)
        fan = np.stack([hub, lifted, np.roll(lifted, -1, axis=0)], axis=1)
        index.append(cut[j])
        fans.append(fan[area > 2 * DEGENERATE_MEASURE])  # drop in-plane slivers
        loops.append(boundary @ np.stack([u[j], v[j]]) + a[j])
        arc_points += max(0, int(np.ceil(arc / _ARC_STEP)) - 1)
        defect += loss
    at = np.searchsorted(whole, index)  # each cut triangle's place among the kept ones
    sizes = [len(loop) for loop in loops[1:]]
    fan = np.concatenate(fans)
    ok = _nondegenerate(fan, 2)
    pieces = np.insert(kept, np.repeat(at, [len(f) for f in fans[1:]])[ok], fan[ok], axis=0)
    points = np.insert(kept.reshape(-1, e.ambient_dim), np.repeat(3 * at, sizes),
                       np.concatenate(loops), axis=0)
    return pieces, (points, np.insert(np.full(len(whole), 3), at, sizes)), arc_points, defect


def restrict(e: SimplicialSet | PointCloudSet, ball: Ball) -> SimplicialSet | PointCloudSet:
    """Geometric intersection E ∩ B as a new set of the same kind.

    A PointCloudSet keeps the points in the closed ball with their masses.
    A SimplicialSet is clipped by ``_clip``: segments exactly, triangles
    with their curved boundary inscribed finely enough that the area
    defect of the call stays below 1e-6 * r^m. The defect bound and arc
    point count are recorded in the result's diagnostics.
    """
    if isinstance(e, PointCloudSet):
        _check_ball(e, ball)
        inside = ball.contains(e.points)
        return PointCloudSet(e.ambient_dim, e.dim, e.points[inside], e.masses[inside])
    pieces, _, arc_points, defect = _clip(e, ball)
    out = (SimplicialSet.from_segments if e.dim == 1 else SimplicialSet.from_triangles)(pieces)
    object.__setattr__(out, "diagnostics", {"clip_area_error_bound": float(defect),
                                            "arc_points": int(arc_points)})
    return out


def _pair_dot(x, vecs, simplex):
    """``x[i] . vecs[simplex[i]]`` for each row i of x.

    Each row is stacked on a copy of itself, and a stack of (2, k) @ (k, 1)
    products gives it the bits of the BLAS matrix-vector product
    ``rows @ vec`` over the rows of its simplex, however many there are; a
    simplex's lone row gets the bits of that row stacked twice (a one-row
    product takes the BLAS dot instead, whose bits differ).
    """
    return (np.stack([x, x], axis=1) @ vecs[simplex][:, :, None])[:, 0, 0]


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


def _clamped_foot_distance(p, a, d, denom, simplex):
    """Distances from the rows of p to the segments [a, a + d] of their
    simplices: the foot of the perpendicular clamped to the segment (to a
    when d.d is 0)."""
    a, denom = a[simplex], denom[simplex]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.clip(_pair_dot(p - a, d, simplex) / denom, 0.0, 1.0)
    t[denom == 0] = 0.0
    return np.linalg.norm(p - (a + t[:, None] * d[simplex]), axis=1)


def _pair_distances(p, simplex, const):
    """Distance from each row of p to the target simplex paired with it."""
    if len(const) == 3:  # segments
        return _clamped_foot_distance(p, *const, simplex)
    a, u, v, t2, d, denom = const
    rel = p - a[simplex]
    x = _pair_dot(rel, u, simplex)
    y = _pair_dot(rel, v, simplex)
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
        edge = _clamped_foot_distance(p2, t2[:, i], d[:, i], denom[:, i], simplex)
        dist = np.minimum(dist, edge)
    return np.sqrt(dist * dist + perp2)


def _simplex_bounds(target: SimplicialSet, const):
    """Per-simplex terms of the candidate search: each centroid, the
    bounding radius ``R_s`` about it, the frame slack ``kappa_s`` (see
    ``_candidate_pairs``) and the capsule: the longest edge (its first
    end, direction and ``d.d``) and ``h_s``, the third corner's distance
    from it. A segment is its own longest edge, so its capsule is the
    kernel's terms with ``h_s = 0``."""
    corners = target.vertices[target.simplices]  # (S, m+1, n)
    centroids = corners.mean(axis=1)
    radii = np.linalg.norm(corners - centroids[:, None, :], axis=2).max(axis=1)
    if target.dim == 1:
        zeros = np.zeros_like(radii)
        return centroids, radii, zeros, (*const, zeros)
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


class _DistanceIndex(NamedTuple):
    """A target's terms of the distance kernel and its candidate search:
    ``const`` of ``_simplex_constants``, the centroids, radii, frame slacks
    and longest-edge capsules of ``_simplex_bounds``, and a cKDTree of the
    centroids. ``SimplicialSet._distance_index`` builds it once per set."""

    const: tuple
    centroids: np.ndarray
    radii: np.ndarray
    kappa: np.ndarray
    capsule: tuple
    tree: object


def _build_distance_index(target: SimplicialSet) -> _DistanceIndex:
    from scipy.spatial import cKDTree

    const = _simplex_constants(target)
    centroids, radii, kappa, capsule = _simplex_bounds(target, const)
    return _DistanceIndex(const, centroids, radii, kappa, capsule, cKDTree(centroids))


BOUND_NEIGHBOURS = 4  # nearest centroids whose simplices give each point's upper bound
_QUERY_BLOCK = 4096  # distinct query rows per candidate search and kernel pass


def _upper_bounds(pts, index):
    """Each point's ``ub``: the least kernel distance, on the product path,
    to the simplices of its ``BOUND_NEIGHBOURS`` nearest centroids (NaN
    where every one of them is NaN). The point's distance to the set, the
    least over all simplices, is at most ``ub``."""
    k = min(BOUND_NEIGHBOURS, len(index.radii))
    near = index.tree.query(pts, k=k)[1].reshape(-1)
    dist = _pair_distances(np.repeat(pts, k, axis=0), near, index.const)
    return np.fmin.reduce(dist.reshape(-1, k), axis=1)


def _candidate_pairs(pts, index, ub):
    """The (row, simplex) pairs of points and the simplices each can be
    nearest to, in no particular order, given each point's ``ub`` from
    ``_upper_bounds``.

    Upper bound: ``ub`` is the kernel's own distance to some simplex, so
    the winner's distance is at most ``ub``, and that simplex is never
    dropped. (The distance to a vertex or centroid would bound the true
    distance, not the kernel's, and on a sliver the two differ by more
    than the margin.)

    Lower bound: no point of a triangle lies farther than ``h_s`` from its
    longest edge (both angles at that edge are acute), so a simplex is
    dropped when ``dist(p, longest edge) - h_s`` exceeds
    ``ub + kappa_s + margin``. A segment is its own longest edge, with
    ``h_s = 0``: its bound is the kernel's own distance to it, bit for bit.

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
    point near a bound has |p - a| <= ub + 3 R_s. ``ub``, the capsule
    distance and the kernel all take the stacked matrix-vector products
    of ``_pair_dot``.

    Before that test, a sphere bound runs from the simplex side as a
    pre-filter (no point of a simplex lies farther than ``R_s`` from its
    centroid): each simplex queries the points within
    ``R_s + kappa_s + 2^b + margin`` of its centroid, over the points whose
    ``ub`` lies in the power-of-two band ``2^(b-1) <= ub < 2^b`` (ub below
    the margin counts as the margin), so a few far points do not make
    every simplex a candidate of every point.
    """
    from scipy.spatial import cKDTree

    centroids, radii, kappa = index.centroids, index.radii, index.kappa
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
    start, d, dd, h = index.capsule
    lower = _clamped_foot_distance(pts[row], start, d, dd, simplex) - h[simplex]
    keep = lower <= ub[row] + kappa[simplex] + margin
    return row[keep], simplex[keep]


def _nearest(pts, index, ub):
    """Distance and first nearest simplex of each distinct row of ``pts``,
    over the pairs that ``_candidate_pairs`` keeps (inf and -1 where no
    pair's distance is below inf)."""
    row, simplex = _candidate_pairs(pts, index, ub)
    dist = _pair_distances(pts[row], simplex, index.const)
    # per row, the smallest distance at the lowest simplex: the loop's
    # first strict improvement; NaN sorts last and never wins
    first = np.lexsort((simplex, dist, row))
    first = first[np.r_[True, row[first[1:]] != row[first[:-1]]]]
    found = first[dist[first] < np.inf]
    best = np.full(len(pts), np.inf)
    nearest = np.full(len(pts), -1, dtype=np.int64)
    best[row[found]] = dist[found]
    nearest[row[found]] = simplex[found]
    return best, nearest


def _query_points(points, target):
    """The query points as an (N, n) float array for a target in R^n."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = target.ambient_dim
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValueError(f"query points of shape {np.shape(points)} are not rows in R^{n}, "
                         "the target's space")
    if not np.isfinite(pts).all():
        raise ValueError("query points must be finite")
    return pts


def _blocks(rows):
    return (rows[lo:lo + _QUERY_BLOCK] for lo in range(0, len(rows), _QUERY_BLOCK))


def nearest_simplex(points, target: SimplicialSet):
    """Exact Euclidean distance from each point to a SimplicialSet, and the
    index of its first nearest simplex (-1 on an empty set).

    Bit for bit the result of evaluating every simplex in ascending order
    on every point with the per-simplex kernel and keeping strict
    improvements. Each bitwise-distinct point is evaluated once, on the
    simplices that ``_candidate_pairs`` keeps: a dropped simplex's kernel
    distance is provably above the point's upper bound ``ub``, itself the
    kernel's distance to a kept simplex, so it can neither win nor tie.
    On the k=1 Hausdorff inputs that is about 4.8 pairs per point on
    ``disk`` and 1.2 on ``graph_decay`` and ``zigzag``, after the
    ``BOUND_NEIGHBOURS`` pairs of ``ub``.

    The target's terms are built once per set (``_DistanceIndex``). The
    search and the kernel run over blocks of ``_QUERY_BLOCK`` distinct
    points, so memory stays bounded however many points come in. The
    kernel's products are stacked matrix-vector products, which give each
    pair the bits of the per-simplex ``rows @ vec`` whatever else is
    stacked with it. A single point gets the loop's bits on that point
    stacked twice, since the loop's one-row products would take the dot.
    """
    pts = _query_points(points, target)
    if target.is_empty() or len(pts) == 0:
        return np.full(len(pts), np.inf), np.full(len(pts), -1, dtype=np.int64)
    distinct, inverse = _distinct_rows(pts)
    index = target._distance_index
    parts = [_nearest(block, index, _upper_bounds(block, index)) for block in _blocks(distinct)]
    best, nearest = (np.concatenate(part) for part in zip(*parts))
    return best[inverse], nearest[inverse]


def _sup_distance(points, target, floor: float) -> float:
    """``max(floor, distance_to_set(points, target).max())`` bit for bit,
    on the kernel's product path, evaluating only the points whose
    distance can reach it.

    Each distinct point's ``ub`` from ``_upper_bounds`` is at least its
    distance (a NaN ``ub`` counts as +inf). Points are evaluated in order
    of decreasing ``ub``: first the largest alone, whose distance raises
    the running sup from ``floor``, then blocks of ``_QUERY_BLOCK``, each
    raising it further. A point whose ``ub`` is at most the running sup is
    skipped, which is exact: its distance cannot exceed a value that the
    sup already holds. This is the early break of Taha and Hanbury's exact
    Hausdorff distance (IEEE TPAMI 2015), on the kernel's own bound. A
    PointCloudSet target takes every point's ``distance_to_set``.
    """
    pts = _query_points(points, target)
    if isinstance(target, PointCloudSet):
        return float(np.max(np.r_[floor, distance_to_set(pts, target)]))
    if len(pts) == 0:
        return float(floor)
    if target.is_empty():
        return float(np.inf)
    distinct = _distinct_rows(pts)[0]
    index = target._distance_index
    ub = np.concatenate([_upper_bounds(block, index) for block in _blocks(distinct)])
    bound = np.where(np.isnan(ub), np.inf, ub)
    sup, step = float(floor), 1
    todo = np.argsort(-bound, kind="stable")
    while len(todo := todo[bound[todo] > sup]):
        block = todo[:step]
        sup = float(np.max(np.r_[sup, _nearest(distinct[block], index, ub[block])[0]]))
        todo, step = todo[step:], _QUERY_BLOCK
    return sup


def distance_to_set(points, target) -> np.ndarray:
    """Exact Euclidean distances from each point to a SimplicialSet or
    PointCloudSet (point-segment / point-triangle / nearest sample point)."""
    pts = _query_points(points, target)
    if isinstance(target, PointCloudSet):
        if len(target.points) == 0:
            return np.full(len(pts), np.inf)
        from scipy.spatial import cKDTree

        return cKDTree(target.points).query(pts)[0]
    return nearest_simplex(pts, target)[0]


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


def _read_keys(path, doc, keys, what="the file"):
    """``doc[key]`` for each key; ValueError naming ``path`` and the first missing one."""
    missing = [key for key in keys if not isinstance(doc, dict) or key not in doc]
    if missing:
        raise ValueError(f"{path}: {what} has no {missing[0]!r} key")
    return [doc[key] for key in keys]


def _numbers(path, what, value) -> np.ndarray:
    """``value`` as a float array; ValueError naming ``path`` and ``what``
    when no float array holds it."""
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{path}: {what} must be an array of numbers") from None


def load_set(path):
    with open(path) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict) and "points" in doc:
        n, m, pts, w = _read_keys(path, doc, ("ambient_dim", "dim", "points", "masses"))
        return PointCloudSet(n, m, _numbers(path, "points", pts), _numbers(path, "masses", w))
    n, m, v, s = _read_keys(path, doc, ("ambient_dim", "dim", "vertices", "simplices"))
    return SimplicialSet(n, m, _numbers(path, "vertices", v), s)
