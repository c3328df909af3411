"""Discrete varifolds: finite atomic measures on positions x m-planes.

Construction from simplicial sets (tangent-weighted quadrature) and from
point clouds (tangents spread over a Haar sample), mass-in-ball queries,
density reports, and the blow-up pushforward with the r^{-m} mass factor
that makes blowup(var(E), x, r) agree with var(rescale(E, x, r)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geometry import GrassmannSample, Plane
from .sets import Ball, PointCloudSet, SimplicialSet, _check_ball, _midpoint_split, _read_keys

__all__ = [
    "DiscreteVarifold",
    "DensityReport",
    "unit_ball_volume",
    "var_of_set",
    "var_of_pointcloud",
    "mass_in_ball",
    "restrict_to_ball",
    "density_report",
    "blowup",
    "save_varifold",
    "load_varifold",
]


def unit_ball_volume(m: int) -> float:
    """Volume of the m-dimensional unit ball (2 for m=1, pi for m=2)."""
    if m == 1:
        return 2.0
    if m == 2:
        return float(np.pi)
    from math import gamma
    return float(np.pi ** (m / 2) / gamma(m / 2 + 1))


@dataclass(frozen=True)
class DiscreteVarifold:
    """Finite atomic measure: atoms (position, tangent plane, positive mass).

    ``positions`` is (A, n), ``frames`` is (A, n, m) with orthonormal
    columns per atom, ``masses`` is (A,) positive.
    """

    ambient_dim: int
    dim: int
    positions: np.ndarray
    frames: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        n, m = int(self.ambient_dim), int(self.dim)
        pos = np.array(self.positions, dtype=float).reshape(-1, n)
        fr = np.array(self.frames, dtype=float).reshape(-1, n, m)
        w = np.array(self.masses, dtype=float).reshape(-1)
        if not (len(pos) == len(fr) == len(w)):
            raise ValueError("positions, frames, masses must align")
        if len(w) and w.min() <= 0:
            raise ValueError("atom masses must be positive")
        if not np.isfinite(w).all():
            raise ValueError("atom masses must be finite")
        if not np.isfinite(pos).all():
            raise ValueError("atom positions must be finite")
        if not np.isfinite(fr).all():
            raise ValueError("atom frames must be finite")
        if len(fr):
            gram = np.einsum("aij,aik->ajk", fr, fr)
            if np.max(np.abs(gram - np.eye(m))) > 1e-8:
                raise ValueError("atom frames must be orthonormal")
        for arr in (pos, fr, w):
            arr.setflags(write=False)
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "dim", m)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "frames", fr)
        object.__setattr__(self, "masses", w)

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())

    def __len__(self):
        return len(self.masses)

    def atom_plane(self, i: int) -> Plane:
        return Plane(self.frames[i])

    @classmethod
    def empty(cls, n: int, m: int) -> "DiscreteVarifold":
        return cls(n, m, np.zeros((0, n)), np.zeros((0, n, m)), np.zeros(0))

    def concatenated(self, other: "DiscreteVarifold") -> "DiscreteVarifold":
        if (other.ambient_dim, other.dim) != (self.ambient_dim, self.dim):
            raise ValueError("varifold dimensions differ")
        return DiscreteVarifold(
            self.ambient_dim, self.dim,
            np.concatenate([self.positions, other.positions]),
            np.concatenate([self.frames, other.frames]),
            np.concatenate([self.masses, other.masses]))


def var_of_set(e: SimplicialSet, quadrature_per_simplex: int = 1) -> DiscreteVarifold:
    """The varifold of a simplicial set: quadrature atoms on each simplex
    carrying the simplex tangent plane, masses summing exactly to the
    simplex measure (midpoint rule for m=1, refined centroids for m=2).
    Atoms are grouped by simplex, in simplex order."""
    q = quadrature_per_simplex
    if q < 1:
        raise ValueError("quadrature_per_simplex must be >= 1")
    n, m = e.ambient_dim, e.dim
    if e.is_empty():
        return DiscreteVarifold.empty(n, m)
    corners = e.vertices[e.simplices]  # (S, m+1, n)
    if m == 1:
        count = q
        t = (np.arange(count) + 0.5) / count
        a = corners[:, None, 0]
        pts = a + t[None, :, None] * (corners[:, None, 1] - a)
    else:
        levels = int(np.ceil(np.log(q) / np.log(4))) if q > 1 else 0
        count = 4 ** levels
        pieces = corners
        for _ in range(levels):
            pieces = _midpoint_split(pieces, 2)
        # child-major split order -> per simplex, first split level outermost
        pieces = pieces.reshape((4,) * levels + corners.shape)
        pieces = pieces.transpose(tuple(range(levels, -1, -1)) + (levels + 1, levels + 2))
        pts = (pieces[..., 0, :] + pieces[..., 1, :] + pieces[..., 2, :]) / 3.0
    return DiscreteVarifold(n, m, pts.reshape(-1, n),
                            np.repeat(e.simplex_frames, count, axis=0),
                            np.repeat(e.simplex_measures / count, count))


def var_of_pointcloud(e: PointCloudSet, haar: GrassmannSample) -> DiscreteVarifold:
    """The varifold of an irregular sample: each point spawns one atom per
    Haar plane, with mass = point mass * plane weight. Total mass preserved."""
    if len(haar) == 0:
        raise ValueError("empty Grassmann sample")
    n = e.ambient_dim
    if haar.planes[0].ambient_dim != n:
        raise ValueError("Grassmann sample ambient dimension differs from cloud")
    m = haar.planes[0].dim
    hframes = np.stack([pl.frame for pl in haar.planes])
    pos = np.repeat(e.points, len(haar), axis=0)
    frames = np.tile(hframes, (len(e.points), 1, 1))
    masses = (e.masses[:, None] * haar.weights[None, :]).ravel()
    keep = masses > 0
    return DiscreteVarifold(n, m, pos[keep], frames[keep], masses[keep])


def mass_in_ball(v: DiscreteVarifold, ball: Ball) -> float:
    """Sum of masses of atoms whose position lies in the closed ball."""
    _check_ball(v, ball)
    if len(v) == 0:
        return 0.0
    inside = np.linalg.norm(v.positions - ball.center, axis=1) <= ball.radius
    return float(v.masses[inside].sum())


def restrict_to_ball(v: DiscreteVarifold, ball: Ball) -> DiscreteVarifold:
    """Atoms with position in the closed ball."""
    _check_ball(v, ball)
    if len(v) == 0:
        return v
    inside = np.linalg.norm(v.positions - ball.center, axis=1) <= ball.radius
    return DiscreteVarifold(v.ambient_dim, v.dim, v.positions[inside],
                            v.frames[inside], v.masses[inside])


@dataclass(frozen=True)
class DensityReport:
    """Mass ratios ||V||(B(x,r)) / (omega_m r^m) over a decreasing radius list."""

    center: np.ndarray
    radii: np.ndarray
    ratios: np.ndarray
    atom_counts: np.ndarray
    extrapolated: float
    reliable: bool
    warnings: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "center": self.center.tolist(),
            "radii": self.radii.tolist(),
            "ratios": self.ratios.tolist(),
            "atom_counts": self.atom_counts.tolist(),
            "extrapolated": self.extrapolated,
            "reliable": self.reliable,
            "warnings": list(self.warnings),
        }


DENSITY_MIN_ATOMS = 10


def _point_of(v: DiscreteVarifold, x) -> np.ndarray:
    """x as a float array; ValueError unless it is a point of v's R^n."""
    x = np.asarray(x, dtype=float)
    if x.shape != (v.ambient_dim,):
        raise ValueError(f"centre must be a point of R^{v.ambient_dim}, got {x.tolist()}")
    return x


def density_report(v: DiscreteVarifold, x, radii) -> DensityReport:
    """Density ratios of ||V|| at x over a strictly decreasing radius list.

    The extrapolated density is the ratio at the smallest radius whose ball
    still contains at least ``DENSITY_MIN_ATOMS`` atoms; if no radius
    qualifies the report is flagged unreliable (a warning, not a failure).
    """
    x = _point_of(v, x)
    radii = np.asarray([float(r) for r in radii])
    if len(radii) == 0 or not (np.isfinite(radii) & (radii > 0)).all():
        raise ValueError(f"radii must be finite and positive, got {radii.tolist()}")
    if np.any(np.diff(radii) >= 0):
        raise ValueError("radii must be strictly decreasing")
    om = unit_ball_volume(v.dim)
    dists = np.linalg.norm(v.positions - x, axis=1) if len(v) else np.zeros(0)
    ratios, counts = [], []
    for r in radii:
        inside = dists <= r
        counts.append(int(inside.sum()))
        ratios.append(float(v.masses[inside].sum()) / (om * r ** v.dim))
    ratios = np.array(ratios)
    counts = np.array(counts)
    ok = counts >= DENSITY_MIN_ATOMS
    warnings = []
    if ok.any():
        idx = int(np.max(np.nonzero(ok)[0]))  # smallest reliable radius
        extrapolated = float(ratios[idx])
        reliable = True
        if not ok.all():
            warnings.append(
                f"radii below {radii[idx]:g} contain fewer than {DENSITY_MIN_ATOMS} atoms")
    else:
        extrapolated = float(ratios[-1])
        reliable = False
        warnings.append("no radius contains the minimum atom count; report unreliable")
    return DensityReport(x, radii, ratios, counts, extrapolated, reliable, tuple(warnings))


def blowup(v: DiscreteVarifold, x, r: float) -> DiscreteVarifold:
    """Pushforward under y -> (y - x)/r with masses multiplied by r^{-m}.

    The mass factor is what makes blow-ups of var(E) agree atom-by-atom
    with var of the rescaled set, and density ratios scale-invariant."""
    if r <= 0:
        raise ValueError("blow-up radius must be positive")
    x = _point_of(v, x)
    return DiscreteVarifold(v.ambient_dim, v.dim, (v.positions - x) / r,
                            v.frames, v.masses / r ** v.dim)


def save_varifold(v: DiscreteVarifold, path) -> None:
    doc = {
        "ambient_dim": v.ambient_dim,
        "dim": v.dim,
        "atoms": [
            {"x": v.positions[i].tolist(),
             "frame": v.frames[i].T.tolist(),  # rows are basis vectors
             "mass": float(v.masses[i])}
            for i in range(len(v))
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def load_varifold(path) -> DiscreteVarifold:
    with open(path) as fh:
        doc = json.load(fh)
    n, m, atoms = _read_keys(path, doc, ("ambient_dim", "dim", "atoms"))
    if not atoms:
        return DiscreteVarifold.empty(int(n), int(m))
    pos, frames, masses = zip(*(_read_keys(path, a, ("x", "frame", "mass"), f"atom {i}")
                                for i, a in enumerate(atoms)))
    return DiscreteVarifold(int(n), int(m), np.array(pos, dtype=float),
                            np.array([np.array(f, dtype=float).T for f in frames]),
                            np.array(masses, dtype=float))
