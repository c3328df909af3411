"""Built-in scenario families: deterministic sequences E_k with a known
limit set and documented truth of each convergence hypothesis.

Families registered by name:

- ``zigzag``        k-tooth sawtooth of slopes +-1 over [0, 1]; Hausdorff
                    limit is the unit segment but every E_k has length
                    sqrt(2), so the mass hypothesis fails. The teeth
                    project onto the full chord.
- ``graph_decay``   graph of sin(2*pi*x)/k^2, whose arc length tends to 1;
                    all hypotheses hold.
- ``ycone_approx``  three 120-degree arms with the junction jittered by
                    1/(4k); limit is the exact Y cone, of density 3/2 at
                    its vertex, where no tangent plane exists.
- ``shrinking_bump`` segment with a tent bump of width and height ~1/k at
                    the midpoint; all hold.
- ``escape``        segment translated 2 units away for every k; the local
                    Hausdorff distance stalls, so that hypothesis fails
                    (degenerate control).
- ``segment``       constant sequence, the unit segment itself.
- ``ycone``         constant sequence, the exact Y cone (density 3/2 at
                    the vertex).
- ``disk``          constant sequence, a ring-triangulated horizontal disk
                    in R^3 (the m = 2 plane scenario), its rings aligned
                    with the dyadic test radii.

``cantor4_set(k)`` builds the 4-corner Cantor iterate as a PointCloudSet,
the sampled irregular demonstration set. It is not a family: the
convergence pipeline runs on simplicial sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import Plane, axis_plane
from .sets import Ball, PointCloudSet, SimplicialSet

__all__ = [
    "ScenarioFamily",
    "UnknownFamilyError",
    "FAMILIES",
    "get_family",
    "scenario_sequence",
    "cantor4_set",
    "disk_set",
    "segment_set",
    "ycone_set",
]


class UnknownFamilyError(KeyError):
    """Requested scenario family is not registered (a configuration error)."""


def _subdivided_polyline(points, per_edge):
    pts = np.asarray(points, dtype=float)
    t = np.arange(1, per_edge + 1)[:, None] / per_edge
    a, b = pts[:-1, None, :], pts[1:, None, :]
    steps = (a + (b - a) * t).reshape(-1, pts.shape[1])
    return SimplicialSet.from_polyline(np.concatenate([pts[:1], steps]))


def segment_set(subdiv: int = 512) -> SimplicialSet:
    """Unit segment [0,1] x {0} in R^2, dyadically subdivided."""
    return _subdivided_polyline([[0.0, 0.0], [1.0, 0.0]], subdiv)


_Y_ANGLES = (np.pi / 2, np.pi / 2 + 2 * np.pi / 3, np.pi / 2 + 4 * np.pi / 3)
_Y_DIRS = np.array([[np.cos(a), np.sin(a)] for a in _Y_ANGLES])


def _arm_segments(arms):
    """The segments between consecutive points of each arm of a (3, P, n)
    array, arm by arm."""
    return SimplicialSet.from_segments(np.stack([arms[:, :-1], arms[:, 1:]], axis=2))


def ycone_set(subdiv: int = 512) -> SimplicialSet:
    """Three arms at 120 degrees from the origin, each dyadically subdivided
    from the vertex outward (so dyadic ball boundaries avoid atom centers)."""
    t = np.linspace(0.0, 1.0, subdiv + 1)[None, :, None]
    return _arm_segments(t * _Y_DIRS[:, None, :])


def _zigzag(k: int) -> SimplicialSet:
    xs = np.arange(2 * k + 1) / (2.0 * k)
    ys = np.where(np.arange(2 * k + 1) % 2 == 1, 1.0 / (2 * k), 0.0)
    return SimplicialSet.from_polyline(np.column_stack([xs, ys]))


def _graph_decay(k: int) -> SimplicialSet:
    xs = np.arange(257) / 256
    ys = np.sin(2 * np.pi * xs) / (k * k)
    return SimplicialSet.from_polyline(np.column_stack([xs, ys]))


def _ycone_approx(k: int) -> SimplicialSet:
    jitter = (0.25 / k) * np.array([0.6, 0.8])
    t = np.linspace(0.0, 1.0, 129)[None, :, None]
    # straight arms from the jittered vertex to the fixed tips
    return _arm_segments(jitter * (1 - t) + _Y_DIRS[:, None, :] * t)


def _shrinking_bump(k: int) -> SimplicialSet:
    w = 0.25 / k
    pts = [[0.0, 0.0], [0.5 - w, 0.0], [0.5, w], [0.5 + w, 0.0], [1.0, 0.0]]
    return _subdivided_polyline(pts, 64)


def _escape(k: int) -> SimplicialSet:
    base = segment_set(subdiv=64)
    return SimplicialSet(2, 1, base.vertices + np.array([2.0, 0.0]), base.simplices)


def cantor4_set(k: int) -> PointCloudSet:
    """k-th iterate of the 4-corner Cantor set (ratio 1/4) in the unit square,
    as a point cloud of equal masses at the centers of its 4^k squares (the
    sampled irregular demonstration set)."""
    corners = np.array([[0.0, 0.0], [0.75, 0.0], [0.0, 0.75], [0.75, 0.75]])
    pts = np.array([[0.0, 0.0]])
    scale = 1.0
    for _ in range(k):
        scale /= 4.0
        pts = (pts[:, None, :] / 4.0 + corners[None, :, :]).reshape(-1, 2)
    # center of each surviving square of side `scale`
    pts = pts + scale / 2.0
    masses = np.full(len(pts), 1.0 / len(pts))
    return PointCloudSet(2, 1, pts, masses)


def disk_set(center=(0.0, 0.0, 0.0), radius: float = 1.0, plane: Optional[Plane] = None,
             angular: int = 256, ring_radii=None) -> SimplicialSet:
    """Ring-triangulated disk of the given plane (default: horizontal in R^3).

    ``ring_radii`` lets callers align triangle boundaries with the radii they
    will later test against, so that no triangle straddles those spheres.
    The polygon is inscribed: its area is pi*r^2*(1 - O(angular^-2)).
    """
    c = np.asarray(center, dtype=float)
    n = len(c)
    pl = plane if plane is not None else axis_plane(n, [0, 1])
    u, v = pl.frame[:, 0], pl.frame[:, 1]
    rings = sorted(set(float(r) for r in (ring_radii or [])) | {radius / 4, radius / 2, radius})
    rings = [r for r in rings if 0 < r <= radius]
    ang = np.arange(angular) * (2 * np.pi / angular)
    direction = np.cos(ang)[:, None] * u + np.sin(ang)[:, None] * v
    outer = c + rings[0] * direction
    # the central fan, then per ring and angle the triangles (i, o, o+) and (i, o+, i+)
    blocks = [np.stack([np.broadcast_to(c, outer.shape), outer, np.roll(outer, -1, axis=0)],
                       axis=1)]
    for r in rings[1:]:
        inner, outer = outer, c + r * direction
        nxt, inner_nxt = np.roll(outer, -1, axis=0), np.roll(inner, -1, axis=0)
        blocks.append(np.stack([inner, outer, nxt, inner, nxt, inner_nxt], axis=1)
                      .reshape(-1, 3, n))
    return SimplicialSet.from_triangles(np.concatenate(blocks))


@dataclass(frozen=True)
class ScenarioFamily:
    """A named sequence generator with its documented limit and hypothesis truths."""

    name: str
    make: Callable[[int], object]
    limit: Callable[[], object]
    domain: Ball
    base_point: np.ndarray
    base_radii: tuple
    limit_tangent: Optional[Plane]
    hausdorff_holds: bool
    mass_holds: bool
    filling_holds: bool


_H_LINE = Plane(np.array([[1.0], [0.0]]))

FAMILIES = {}


def _register(fam: ScenarioFamily):
    FAMILIES[fam.name] = fam
    return fam


_register(ScenarioFamily(
    name="zigzag",
    make=_zigzag,
    limit=lambda: segment_set(),
    domain=Ball(np.array([0.5, 0.0]), 2.0),
    base_point=np.array([0.5, 0.0]),
    base_radii=(0.5, 0.25, 0.125),
    limit_tangent=_H_LINE,
    hausdorff_holds=True,
    mass_holds=False,
    filling_holds=True,
))

_register(ScenarioFamily(
    name="graph_decay",
    make=_graph_decay,
    limit=lambda: segment_set(subdiv=256),
    domain=Ball(np.array([0.5, 0.0]), 2.0),
    base_point=np.array([0.5, 0.0]),
    base_radii=(0.5, 0.25, 0.125),
    limit_tangent=_H_LINE,
    hausdorff_holds=True,
    mass_holds=True,
    filling_holds=True,
))

_register(ScenarioFamily(
    name="ycone_approx",
    make=_ycone_approx,
    limit=lambda: ycone_set(subdiv=128),
    domain=Ball(np.array([0.0, 0.0]), 2.0),
    base_point=np.array([0.0, 0.0]),
    base_radii=(0.5, 0.25, 0.125),
    limit_tangent=None,
    hausdorff_holds=True,
    mass_holds=True,
    filling_holds=False,
))

_register(ScenarioFamily(
    name="shrinking_bump",
    make=_shrinking_bump,
    limit=lambda: segment_set(),
    domain=Ball(np.array([0.5, 0.0]), 2.0),
    base_point=np.array([0.5, 0.0]),
    base_radii=(0.5, 0.25, 0.125),
    limit_tangent=_H_LINE,
    hausdorff_holds=True,
    mass_holds=True,
    filling_holds=True,
))

_register(ScenarioFamily(
    name="escape",
    make=_escape,
    limit=lambda: segment_set(subdiv=64),
    domain=Ball(np.array([0.5, 0.0]), 4.0),
    base_point=np.array([0.5, 0.0]),
    base_radii=(0.5, 0.25),
    limit_tangent=_H_LINE,
    hausdorff_holds=False,
    mass_holds=True,
    filling_holds=False,
))

_register(ScenarioFamily(
    name="segment",
    make=lambda k: segment_set(),
    limit=lambda: segment_set(),
    domain=Ball(np.array([0.5, 0.0]), 2.0),
    base_point=np.array([0.5, 0.0]),
    base_radii=(0.25, 0.125, 0.0625),
    limit_tangent=_H_LINE,
    hausdorff_holds=True,
    mass_holds=True,
    filling_holds=True,
))

_register(ScenarioFamily(
    name="ycone",
    make=lambda k: ycone_set(),
    limit=lambda: ycone_set(),
    domain=Ball(np.array([0.0, 0.0]), 2.0),
    base_point=np.array([0.0, 0.0]),
    base_radii=(0.25, 0.125, 0.0625),
    limit_tangent=None,
    hausdorff_holds=True,
    mass_holds=True,
    filling_holds=False,
))

_register(ScenarioFamily(
    name="disk",
    make=lambda k: disk_set(radius=1.0, ring_radii=[0.125, 0.25, 0.5, 0.75, 1.0], angular=96),
    limit=lambda: disk_set(radius=1.0, ring_radii=[0.125, 0.25, 0.5, 0.75, 1.0], angular=96),
    domain=Ball(np.array([0.0, 0.0, 0.0]), 2.0),
    base_point=np.array([0.0, 0.0, 0.0]),
    base_radii=(0.5, 0.25, 0.125),
    limit_tangent=axis_plane(3, [0, 1]),
    hausdorff_holds=True,
    mass_holds=True,
    filling_holds=True,
))


def get_family(name: str) -> ScenarioFamily:
    try:
        return FAMILIES[name]
    except KeyError:
        raise UnknownFamilyError(
            f"unknown scenario family {name!r}; known: {sorted(FAMILIES)}") from None


def scenario_sequence(family: str, k: int):
    """The k-th set of the named family. Deterministic; k >= 1."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return get_family(family).make(int(k))
