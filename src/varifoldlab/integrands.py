"""Integrand evaluation, varifold energies, and ellipticity audits.

An integrand is a positive weight F(x, T) on positions x plane. The energy
of a discrete varifold is the mass-weighted sum of F over its atoms. The
semi-ellipticity audit compares the energy of the flat unit disk of a plane
against a registry of explicit spanning competitors; ellipticity adds the
declared modulus c(x) times the measure excess. Audits certify
counterexamples (negative margins); they never certify ellipticity, whose
quantifier ranges over all competitors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .geometry import Plane, axis_plane, haar_sample
from .sets import SimplicialSet, _numbers, _read_keys, measure
from .scenarios import disk_set
from .varifold import DiscreteVarifold, var_of_set

__all__ = [
    "Integrand",
    "EllipticityReport",
    "energy",
    "set_energy",
    "frozen",
    "flat_disk",
    "competitor_registry",
    "semi_ellipticity_audit",
    "get_integrand",
    "load_tabulated_integrand",
    "INTEGRAND_NAMES",
]


@dataclass(frozen=True)
class Integrand:
    """Evaluatable positive weight on positions x m-planes.

    ``evaluate`` is vectorized: (points (A, n), frames (A, n, m)) -> (A,).
    ``inf_value``/``sup_value`` are the declared bounds on the intended
    domain (bounded means sup/inf finite). ``modulus_c`` is the optional
    ellipticity constant function x -> c(x) the audit should use.
    """

    name: str
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    inf_value: float
    sup_value: float
    modulus_c: Optional[Callable[[np.ndarray], float]] = None

    def __call__(self, x, plane: Plane) -> float:
        pts = np.asarray(x, dtype=float)[None, :]
        return float(self.evaluate(pts, plane.frame[None, :, :])[0])

    def __post_init__(self):
        if self.inf_value <= 0:
            raise ValueError("integrands are positive: inf must be > 0")
        if self.sup_value < self.inf_value:
            raise ValueError("sup below inf")


def energy(f: Integrand, v: DiscreteVarifold) -> float:
    """Energy of a varifold: sum over atoms of mass * F(position, plane).
    Linear in the varifold and monotone in the integrand."""
    if len(v) == 0:
        return 0.0
    return float(np.dot(v.masses, f.evaluate(v.positions, v.frames)))


def set_energy(f: Integrand, e: SimplicialSet) -> float:
    """Energy of var(E), one atom per simplex (exact when F is constant
    in position, since atoms carry the exact simplex tangents/measures)."""
    return energy(f, var_of_set(e, 1))


def frozen(f: Integrand, x) -> Integrand:
    """The position-frozen integrand F^x: (y, T) -> F(x, T)."""
    x = np.asarray(x, dtype=float)

    def ev(points, frames, _base=f.evaluate, _x=x):
        fixed = np.broadcast_to(_x, (len(points), len(_x)))
        return _base(fixed, frames)

    return Integrand(f"{f.name}@frozen", ev, f.inf_value, f.sup_value, f.modulus_c)


# ---------------------------------------------------------------------------
# registry integrands

def _area_evaluate(points, frames):
    return np.ones(len(points))


def _x_weighted_evaluate(points, frames):
    return 1.0 + np.einsum("ij,ij->i", points, points)


def _aniso_matrix(n):
    a = np.eye(n)
    a[-1, -1] = 1.1
    return a


def _aniso_quadratic_evaluate(points, frames):
    """Elliptic-by-construction anisotropic area: the m-Jacobian of the
    linear stretch diag(1, .., 1, 1.1) restricted to the plane."""
    n = frames.shape[1]
    a = _aniso_matrix(n)
    af = np.einsum("ij,ajk->aik", a, frames)
    gram = np.einsum("aij,aik->ajk", af, af)
    if frames.shape[2] == 1:
        return np.sqrt(gram[:, 0, 0])
    det = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 1, 0]
    return np.sqrt(np.maximum(det, 0.0))


def _aniso_nonelliptic_evaluate(points, frames):
    """Strongly anisotropic weight 1 + 9 (1 - |P_T d|) favoring the main
    diagonal direction; beaten by axis-aligned detours (not semi-elliptic)."""
    n = frames.shape[1]
    d = np.zeros(n)
    d[0] = d[1] = 1.0 / np.sqrt(2.0)
    proj = np.einsum("anm,n->am", frames, d)
    return 1.0 + 9.0 * (1.0 - np.linalg.norm(proj, axis=1))


_INTEGRANDS = {f.name: f for f in (
    Integrand("area", _area_evaluate, 1.0, 1.0, modulus_c=lambda x: 1.0),
    Integrand("x_weighted", _x_weighted_evaluate, 1.0, 5.0, modulus_c=lambda x: 1.0),
    Integrand("aniso_quadratic", _aniso_quadratic_evaluate, 1.0, 1.1, modulus_c=lambda x: 0.5),
    Integrand("aniso_nonelliptic", _aniso_nonelliptic_evaluate, 1.0, 10.0),
)}
INTEGRAND_NAMES = tuple(_INTEGRANDS)


def get_integrand(name: str) -> Integrand:
    try:
        return _INTEGRANDS[name]
    except KeyError:
        raise KeyError(f"unknown integrand {name!r}; known: {INTEGRAND_NAMES}") from None


def load_tabulated_integrand(path) -> Integrand:
    """Custom integrand from tabulated values on a position x plane-angle
    grid (n = 2, m = 1), multilinearly interpolated; the angle axis is
    periodic over [0, pi). A missing key, a grid or table that is not an
    array of numbers, or a ``name`` that is not a string, is a ValueError
    naming the file."""
    with open(path) as fh:
        doc = json.load(fh)
    keys = ("x_grid", "y_grid", "theta_grid", "values")
    n, m, *arrays = _read_keys(path, doc, ("ambient_dim", "dim") + keys)
    if n != 2 or m != 1:
        raise ValueError("tabulated integrands support n=2, m=1")
    label = doc.get("name", "tabulated")
    if not isinstance(label, str):
        raise ValueError(f"{path}: 'name' must be a string, got {type(label).__name__}")
    # values has shape (len(x_grid), len(y_grid), len(theta_grid))
    xg, yg, tg, vals = (_numbers(path, key, a) for key, a in zip(keys, arrays))
    for name, grid, least in (("x_grid", xg, 2), ("y_grid", yg, 2), ("theta_grid", tg, 1)):
        if (grid.ndim != 1 or len(grid) < least or not np.isfinite(grid).all()
                or np.any(np.diff(grid) <= 0)):
            raise ValueError(f"{name} must hold at least {least} finite, strictly "
                             "increasing values")
    if tg[0] < 0 or tg[-1] >= np.pi:
        raise ValueError("theta_grid must lie in [0, pi)")
    if vals.shape != (len(xg), len(yg), len(tg)):
        raise ValueError("values shape does not match grids")
    if not (np.isfinite(vals).all() and vals.min() > 0):
        raise ValueError("integrand values must be finite and positive")

    def interp_axis(grid, q):
        q = np.clip(q, grid[0], grid[-1])
        hi = np.clip(np.searchsorted(grid, q), 1, len(grid) - 1)
        lo = hi - 1
        t = (q - grid[lo]) / (grid[hi] - grid[lo])
        return lo, hi, t

    def ev(points, frames):
        theta = np.mod(np.arctan2(frames[:, 1, 0], frames[:, 0, 0]), np.pi)
        xl, xh, xt = interp_axis(xg, points[:, 0])
        yl, yh, yt = interp_axis(yg, points[:, 1])
        tgrid = np.concatenate([tg, [tg[0] + np.pi]])
        vwrap = np.concatenate([vals, vals[:, :, :1]], axis=2)
        tl, th, tt = interp_axis(tgrid, theta)
        out = np.zeros(len(points))
        for dx, wx in ((xl, 1 - xt), (xh, xt)):
            for dy, wy in ((yl, 1 - yt), (yh, yt)):
                for dt, wt in ((tl, 1 - tt), (th, tt)):
                    out += wx * wy * wt * vwrap[dx, dy, dt]
        return out

    return Integrand(label, ev, float(vals.min()), float(vals.max()))


# ---------------------------------------------------------------------------
# ellipticity audit

def _normal_direction(t: Plane) -> np.ndarray:
    """A deterministic unit vector orthogonal to the plane."""
    n = t.ambient_dim
    basis = np.eye(n)
    for i in range(n):
        w = basis[i] - t.projection @ basis[i]
        nw = np.linalg.norm(w)
        if nw > 1e-8:
            return w / nw
    raise ValueError("plane has no orthogonal complement")  # m == n


def flat_disk(t: Plane) -> SimplicialSet:
    """The unit disk of the plane: a diameter segment of 64 pieces for
    m = 1, a ring-triangulated polygon disk of 128 angular steps for m = 2
    (inscribed, area short of omega_2 by about 2e-3)."""
    if t.dim == 1:
        u = t.frame[:, 0]
        pts = np.linspace(-1.0, 1.0, 65)[:, None] * u[None, :]
        return SimplicialSet.from_polyline(pts)
    return disk_set(center=np.zeros(t.ambient_dim), radius=1.0, plane=t, angular=128)


def competitor_registry(t: Plane) -> list:
    """Explicit compact competitors spanning T ∩ ∂B(0,1), by construction.

    m = 1: polygonal detours and cones over the two boundary points, plus
    tilted sine graphs. m = 2: tent cones and graph bowls over the boundary
    circle. The spanning property is declared by the generators, not
    verified topologically.
    """
    u_dirs = [t.frame[:, j] for j in range(t.dim)]
    w = _normal_direction(t)
    out = []
    if t.dim == 1:
        u = u_dirs[0]
        for a in (0.25, 0.5, 1.0):
            out.append((f"detour_h{a:g}",
                        SimplicialSet.from_polyline([-u, a * w, u])))
        out.append(("offset_cone",
                    SimplicialSet.from_polyline([-u, 0.3 * u + 0.5 * w, u])))
        for eps in (0.2, 0.5):
            ts = np.linspace(-1.0, 1.0, 17)
            pts = ts[:, None] * u[None, :] + (eps * np.sin(np.pi * (ts + 1) / 2))[:, None] * w[None, :]
            out.append((f"sine_graph{eps:g}", SimplicialSet.from_polyline(pts)))
        out.append(("flat", SimplicialSet.from_polyline([-u, u])))
        return out
    # m == 2: tent over the unit circle and a shallow bowl
    angular = 48
    ang = np.arange(angular) * (2 * np.pi / angular)
    ring = [np.cos(a) * u_dirs[0] + np.sin(a) * u_dirs[1] for a in ang]
    for h in (0.3, 0.6):
        apex = h * w
        tris = [np.array([apex, ring[i], ring[(i + 1) % angular]]) for i in range(angular)]
        out.append((f"tent_h{h:g}", SimplicialSet.from_triangles(tris)))
    bowl = disk_set(center=np.zeros(t.ambient_dim), radius=1.0, plane=t, angular=angular)
    disp = np.array([0.4 * (1.0 - min(np.dot(v, v), 1.0)) * w for v in bowl.vertices])
    out.append(("bowl", SimplicialSet(bowl.ambient_dim, 2, bowl.vertices + disp,
                                      bowl.simplices)))
    out.append(("flat", flat_disk(t)))
    return out


@dataclass(frozen=True)
class EllipticityReport:
    """Margins of the flat disk against the competitor registry.

    ``rows``: (plane_id, competitor_id, semi_margin, elliptic_margin,
    competitor_measure, disk_measure); elliptic_margin is None when no c(x)
    is available. Any negative margin is a counterexample certificate.
    """

    integrand: str
    x: np.ndarray
    rows: tuple
    certificates: tuple
    c_value: Optional[float]

    @property
    def all_semi_nonnegative(self) -> bool:
        return all(r[2] >= -1e-9 for r in self.rows)

    @property
    def all_elliptic_nonnegative(self) -> bool:
        return all(r[3] is None or r[3] >= -1e-9 for r in self.rows)

    def to_dict(self):
        return {
            "integrand": self.integrand,
            "x": self.x.tolist(),
            "c": self.c_value,
            "rows": [
                {"plane": p, "competitor": cid, "semi_margin": sm,
                 "elliptic_margin": em, "competitor_measure": cm, "disk_measure": dm}
                for (p, cid, sm, em, cm, dm) in self.rows
            ],
            "certificates": [
                {"plane": p, "competitor": cid, "margin": mg}
                for (p, cid, mg) in self.certificates
            ],
        }


def semi_ellipticity_audit(f: Integrand, x, t: Plane, competitors=None,
                           scan_haar: int = 16, seed: int = 0) -> EllipticityReport:
    """Audit F^x against flat disks: for each scanned plane and competitor,
    report energy(S) - energy(D), and additionally subtract
    c(x) * (measure(S) - measure(D)) when the integrand declares c.

    Scans the supplied plane, the deterministic reference planes, and (by
    default) 16 Haar-sampled planes. Negative margins are collected as
    counterexample certificates.
    """
    if scan_haar < 0:
        raise ValueError(f"scan_haar must be >= 0, got {scan_haar!r}")
    x = np.asarray(x, dtype=float)
    fx = frozen(f, x)
    c_val = float(f.modulus_c(x)) if f.modulus_c is not None else None
    n, m = t.ambient_dim, t.dim
    planes = [("supplied", t)]
    if m == 1 and n >= 2:
        for i in range(min(n, 3)):
            planes.append((f"axis{i}", axis_plane(n, [i])))
        v = np.zeros(n); v[0] = 1; v[1] = 1
        planes.append(("diag+", Plane.from_span(v)))
        v2 = np.zeros(n); v2[0] = 1; v2[1] = -1
        planes.append(("diag-", Plane.from_span(v2)))
    if scan_haar > 0 and m < n:
        for i, pl in enumerate(haar_sample(n, m, scan_haar, seed)):
            planes.append((f"haar{i}", pl))

    rows, certs = [], []
    for pid, pl in planes:
        disk = flat_disk(pl)
        # caller-supplied competitors span the supplied plane only
        if competitors is not None and pid == "supplied":
            comp_list = competitors
        else:
            comp_list = competitor_registry(pl)
        disk_energy = set_energy(fx, disk)
        disk_measure = measure(disk)
        for cid, s in comp_list:
            sm = set_energy(fx, s) - disk_energy
            em = None
            cm = measure(s)
            if c_val is not None:
                em = sm - c_val * (cm - disk_measure)
            rows.append((pid, cid, float(sm), em, float(cm), float(disk_measure)))
            margin = sm if em is None else min(sm, em)
            if margin < -1e-9:
                certs.append((pid, cid, float(margin)))
    return EllipticityReport(f.name, x, tuple(rows), tuple(certs), c_val)
