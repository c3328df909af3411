"""The two convergence notions under comparison, plus the projected-mass
functional that links them.

- ``hausdorff_local``: normalized two-sided sup distance inside a ball,
  exact point-to-simplex distances, sup over adaptively refined samples.
- ``bl_distance``: bounded-Lipschitz distance between discrete varifolds
  under the product metric |x - y| + grassmann_distance. The exact method
  solves the mass-transshipment LP with unit-rate slack for unmatched mass
  (so moving mass farther than 2 is dominated by destroy + create, matching
  |phi| <= 1). The value is a norm of mu - nu, so the mass that both
  measures hold on coincident atoms (bitwise-equal position and
  projection) cancels first and the LP runs on the residual only. The
  dictionary method maximizes over a fixed published family of certified
  1-Lipschitz, bounded-by-1 test functions and is always a lower bound of
  the LP value.
- ``projected_mass``: m-measure of the image (overlaps counted once) of
  the clipped, rescaled set under projection to a plane.
- ``filling_check``: tabulates projected_mass over (k, r) and flags whether
  the rescaled projections fill the unit disk in the limit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .geometry import Plane, _distinct_rows, _projections, axis_plane, grassmann_distance_matrix
from .sets import (Ball, PointCloudSet, SimplicialSet, _check_ball, _clip, _rowdot,
                   distance_to_set, restrict)
from .unions import interval_union_length, polygon_union_area
from .varifold import DiscreteVarifold, unit_ball_volume

__all__ = [
    "SolverError",
    "HausdorffReport",
    "BLDistanceReport",
    "FillingReport",
    "hausdorff_local",
    "hausdorff_local_report",
    "bl_distance",
    "projected_mass",
    "filling_check",
]

SUP_REFINE_TOL = 1e-4  # relative to r, stopping rule for the sup refinement
COST_CHUNK = 1 << 22  # Grassmann temporary entries per block of cost-matrix rows
FILLING_TOL = 0.02


# ---------------------------------------------------------------------------
# normalized local Hausdorff distance

def _max_edge_length(edges):
    """max over the rows of the one-dimensional ``np.linalg.norm(row)``."""
    return float(np.sqrt(_rowdot(edges, edges)).max())


def _lattice(m, level):
    """The barycentric lattice of step 2**-level on the m-simplex: the
    weights of corners 1..m at each point, in sampling order, and the mask
    of the points that the lattice one level coarser does not hold. The
    step is a power of two, so the coarser points are bitwise the points
    whose indices are all even."""
    k = 2 ** level
    if m == 1:
        i = np.arange(k + 1)
        return (i / k)[:, None], i % 2 == 1
    ii, jj = np.nonzero(np.add.outer(np.arange(k + 1), np.arange(k + 1)) <= k)
    return np.column_stack([ii / k, jj / k]), (ii % 2 == 1) | (jj % 2 == 1)


def _sample_points(clipped, level):
    """Sample points of a ball-clipped set at the given refinement level:
    per simplex, the barycentric lattice of step 2**-level, and the largest
    simplex diameter times that step as the sampling gap."""
    if clipped.is_empty():
        return np.zeros((0, clipped.ambient_dim)), 0.0
    corners = clipped.vertices[clipped.simplices]  # (S, m+1, n)
    a = corners[:, 0, None, :]
    pts = a
    for j, w in enumerate(_lattice(clipped.dim, level)[0].T, start=1):
        pts = pts + (corners[:, j, None, :] - a) * w[None, :, None]
    # every edge, each way round for a segment: b - a, c - b, a - c
    edges = np.roll(corners, -1, axis=1) - corners
    gap = _max_edge_length(edges.reshape(-1, clipped.ambient_dim)) / 2 ** level
    return pts.reshape(-1, clipped.ambient_dim), gap


def _one_sided_sup(source_clipped, target, r, samples):
    """sup over samples of source∩B of dist(., target); 0 on empty source.

    Each refinement level measures only its new lattice points: the points
    of the level before are bitwise among them, so the max over the level
    is the max of the previous sup and the new points' distances."""
    if isinstance(source_clipped, PointCloudSet):
        if len(source_clipped.points) == 0:
            return 0.0, 0.0
        d = distance_to_set(source_clipped.points, target)
        return float(d.max()), 0.0
    if source_clipped.is_empty():
        return 0.0, 0.0
    n_simplices = max(len(source_clipped.simplices), 1)
    per = max(1, int(np.ceil(samples / n_simplices)))
    level = max(0, int(np.ceil(np.log2(per))))
    prev = -np.inf
    sup, gap = 0.0, 0.0
    for lv in range(level, level + 8):
        pts, gap = _sample_points(source_clipped, lv)
        if len(pts) == 0:
            return 0.0, 0.0
        if lv == level:
            sup = float(distance_to_set(pts, target).max())
        else:
            new = pts[np.tile(_lattice(source_clipped.dim, lv)[1], n_simplices)]
            if len(new) == 1:
                # a one-point call takes the dot path; the full level would not
                new = new[[0, 0]]
            sup = float(np.max(np.r_[sup, distance_to_set(new, target)]))
        if prev >= 0 and sup - prev < SUP_REFINE_TOL * r:
            break
        if len(pts) > 200_000:
            break
        prev = sup
    return sup, gap


@dataclass(frozen=True)
class HausdorffReport:
    value: float
    sup_first_to_second: float
    sup_second_to_first: float
    resolution: float  # one-sided bound: true value <= value + resolution

    def to_dict(self):
        return {
            "value": self.value,
            "sup_first_to_second": self.sup_first_to_second,
            "sup_second_to_first": self.sup_second_to_first,
            "resolution": self.resolution,
        }


def hausdorff_local_report(x_set, y_set, x, r, samples: int = 256) -> HausdorffReport:
    if r <= 0:
        raise ValueError("radius must be positive")
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    ball = Ball(np.asarray(x, dtype=float), float(r))
    xc = restrict(x_set, ball)
    yc = restrict(y_set, ball)
    sup_xy, gap_x = _one_sided_sup(xc, y_set, r, samples)
    sup_yx, gap_y = _one_sided_sup(yc, x_set, r, samples)
    value = (sup_xy + sup_yx) / r
    resolution = (gap_x + gap_y) / r  # dist(., S) is 1-Lipschitz in the sample point
    return HausdorffReport(float(value), float(sup_xy), float(sup_yx), float(resolution))


def hausdorff_local(x_set, y_set, x, r, samples: int = 256) -> float:
    """Normalized local Hausdorff distance d_{x,r}(X, Y): the sum of the two
    one-sided sup distances inside B(x, r), divided by r. Sups over an empty
    clipped side are 0 by convention."""
    return hausdorff_local_report(x_set, y_set, x, r, samples).value


# ---------------------------------------------------------------------------
# bounded-Lipschitz distance

class SolverError(RuntimeError):
    """A numerical solve did not reach an optimal solution."""


@dataclass(frozen=True)
class BLDistanceReport:
    value: float
    method: str
    witness: object = None
    detail: dict = field(default_factory=dict)

    def to_dict(self):
        w = self.witness
        if isinstance(w, np.ndarray):
            w = w.tolist()
        return {"value": self.value, "method": self.method, "witness": w,
                **{k: v for k, v in self.detail.items()}}


def _cost_matrix(v: DiscreteVarifold, w: DiscreteVarifold) -> np.ndarray:
    pos = np.linalg.norm(v.positions[:, None, :] - w.positions[None, :, :], axis=2)
    a, b = len(v), len(w)
    gd = np.empty((a, b))
    rows_per = max(1, COST_CHUNK // max(b * v.ambient_dim ** 2, 1))
    for s in range(0, a, rows_per):
        t = min(a, s + rows_per)
        gd[s:t] = grassmann_distance_matrix(v.frames[s:t], w.frames)
    return pos + gd


def _atom_keys(v: DiscreteVarifold) -> np.ndarray:
    """One row per atom: its position, then its projection ``f f^T`` as
    ``grassmann_distance_matrix`` computes it. Bitwise-equal rows are at cost
    exactly 0 from each other; frames f and -f share a row."""
    n = v.ambient_dim
    proj = _projections(v.frames).reshape(len(v), n * n)
    return np.concatenate([v.positions, proj], axis=1)


def _cancel_coincident(v: DiscreteVarifold, w: DiscreteVarifold):
    """Cancel the mass that the two sides hold on bitwise-coincident atoms:
    each atom of ``v`` in index order takes ``min`` of the masses left with
    the atoms of ``w`` of its key, in index order. Returns the cancelled
    ``(i, j, mass)`` triples and the residual masses of both sides."""
    _, ids = _distinct_rows(np.concatenate([_atom_keys(v), _atom_keys(w)]))
    mu, nu = v.masses.copy(), w.masses.copy()
    queues = {}
    for j, key in enumerate(ids[len(v):].tolist()):
        queues.setdefault(key, deque()).append(j)
    pairs = []
    for i, key in enumerate(ids[: len(v)].tolist()):
        queue = queues.get(key)
        while queue and mu[i] > 0:
            j = queue[0]
            m = min(mu[i], nu[j])
            pairs.append((i, j, float(m)))
            mu[i] -= m  # the smaller side reaches exactly 0
            nu[j] -= m
            if nu[j] == 0:
                queue.popleft()
    return pairs, mu, nu


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on the first exact LP so that
    ``import varifoldlab`` does not load scipy. This module-level name is
    the one place the tests and the benchmark tracer patch."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def _bl_exact(v: DiscreteVarifold, w: DiscreteVarifold) -> BLDistanceReport:
    """The transshipment LP of ``mu - nu`` after the mass on coincident
    atoms cancels: the LP value is a norm of ``mu - nu`` and a pair of
    coincident atoms costs 0, so the residual LP has the same value. When
    nothing cancels, the residual arrays equal the inputs bit for bit."""
    pairs, mu, nu = _cancel_coincident(v, w)
    keep_a, keep_b = np.flatnonzero(mu > 0), np.flatnonzero(nu > 0)
    cancelled = len(v) + len(w) - len(keep_a) - len(keep_b)
    v = DiscreteVarifold(v.ambient_dim, v.dim, v.positions[keep_a], v.frames[keep_a], mu[keep_a])
    w = DiscreteVarifold(w.ambient_dim, w.dim, w.positions[keep_b], w.frames[keep_b], nu[keep_b])
    mu, nu = v.masses, w.masses
    total = float(mu.sum() + nu.sum())
    if len(v) == 0 or len(w) == 0:
        return BLDistanceReport(total, "exact-LP", witness=pairs,
                                detail={"lp_status": "degenerate-empty-side",
                                        "lp_lower": total, "lp_upper": total,
                                        "lp_rows": 0, "lp_cols": 0,
                                        "cancelled_atoms": cancelled})
    import scipy.sparse as sp

    cost = _cost_matrix(v, w)
    a, b = cost.shape
    c = (cost - 2.0).ravel()
    row = sp.kron(sp.eye(a, format="csr"), np.ones((1, b)), format="csr")
    col = sp.kron(np.ones((1, a)), sp.eye(b, format="csr"), format="csr")
    a_ub = sp.vstack([row, col], format="csr")
    b_ub = np.concatenate([mu, nu])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if res.status != 0:
        raise SolverError(f"transshipment LP failed: {res.message}")
    value = total + float(res.fun)
    plan = res.x.reshape(a, b)
    nz = np.argwhere(plan > 1e-12)
    witness = sorted(pairs + [(int(keep_a[i]), int(keep_b[j]), float(plan[i, j]))
                              for i, j in nz])
    lp_lower, lp_upper = _lp_certificate(cost, mu, nu, plan, res.ineqlin.marginals)
    return BLDistanceReport(max(value, 0.0), "exact-LP", witness=witness,
                            detail={"lp_status": "optimal", "lp_lower": lp_lower,
                                    "lp_upper": lp_upper, "lp_rows": a + b,
                                    "lp_cols": a * b, "cancelled_atoms": cancelled})


def _lp_certificate(cost, mu, nu, plan, marginals):
    """Bounds on the exact BL value that hold whatever the solver's
    feasibility and optimality tolerances, up to the rounding of the sums.

    Lower: the caps' duals u, v >= 0 (the negated HiGHS marginals, clipped
    at 0) give ``total - mu.u - nu.v`` by weak duality once they satisfy
    ``u_i + v_j >= 2 - c_ij``; the largest violation is added to the side
    of smaller mass. Upper: the plan, clipped at 0 and scaled down to meet
    the row caps and then the column caps, is a feasible transport plan.
    """
    total = float(mu.sum() + nu.sum())
    u = np.maximum(-marginals[: len(mu)], 0.0)
    v = np.maximum(-marginals[len(mu):], 0.0)
    violation = max(float((2.0 - cost - u[:, None] - v[None, :]).max()), 0.0)
    lower = total - float(mu @ u + nu @ v) - violation * float(min(mu.sum(), nu.sum()))
    x = np.maximum(plan, 0.0)
    rows = x.sum(axis=1)
    x *= np.minimum(1.0, mu / np.where(rows > 0, rows, 1.0))[:, None]
    cols = x.sum(axis=0)
    x *= np.minimum(1.0, nu / np.where(cols > 0, cols, 1.0))[None, :]
    upper = total + float(((cost - 2.0) * x).sum())
    return max(lower, 0.0), upper


def _smooth_window(t):
    """1 for t <= 1, cubic falloff to 0 at t >= 1.5."""
    s = np.clip((1.5 - t) / 0.5, 0.0, 1.0)
    return np.where(t <= 1.0, 1.0, s * s * (3 - 2 * s))


def _position_features(n, r1):
    """[(name, eval(points)->vals, sup_abs, lip_x)] on support |x| <= r1."""
    feats = [("1", lambda p: np.ones(len(p)), 1.0, 0.0)]
    for i in range(n):
        feats.append((f"x{i}", lambda p, i=i: p[:, i] / r1, 1.0, 1.0 / r1))
    for i in range(n):
        for j in range(i, n):
            feats.append((f"x{i}*x{j}",
                          lambda p, i=i, j=j: p[:, i] * p[:, j] / r1 ** 2,
                          1.0, 2.0 / r1))
    dirs = [np.eye(n)[i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = (np.eye(n)[i] + np.eye(n)[j]) / np.sqrt(2)
            dirs.append(d)
            d2 = (np.eye(n)[i] - np.eye(n)[j]) / np.sqrt(2)
            dirs.append(d2)
    for di, d in enumerate(dirs):
        for freq in (1, 2):
            om = np.pi * freq / r1
            feats.append((f"sin{freq}_u{di}",
                          lambda p, d=d, om=om: np.sin(om * (p @ d)), 1.0, om))
            feats.append((f"cos{freq}_u{di}",
                          lambda p, d=d, om=om: np.cos(om * (p @ d)), 1.0, om))
    return feats


def _reference_planes(n, m):
    refs = []
    if m == 1:
        for i in range(n):
            refs.append((f"e{i}", axis_plane(n, [i])))
        for i in range(n):
            for j in range(i + 1, n):
                v = np.zeros(n); v[i] = 1; v[j] = 1
                refs.append((f"d{i}{j}+", Plane.from_span(v)))
                v2 = np.zeros(n); v2[i] = 1; v2[j] = -1
                refs.append((f"d{i}{j}-", Plane.from_span(v2)))
    else:
        import itertools
        for combo in itertools.combinations(range(n), m):
            refs.append(("e" + "".join(map(str, combo)), axis_plane(n, list(combo))))
    return refs[:12]


def _plane_columns(frames, n, m):
    """What the plane features read from a frame stack, computed once: the
    projections ``f f^T`` and the distance to each reference plane."""
    refs = np.stack([ref.frame for _, ref in _reference_planes(n, m)])
    return _projections(frames), grassmann_distance_matrix(frames, refs)


def _plane_features(n, m):
    """[(name, eval(columns)->vals, sup_abs, lip_T)] under the operator
    metric, where ``columns`` is ``_plane_columns`` of a frame stack."""
    feats = [("1", lambda c: np.ones(len(c[0])), 1.0, 0.0)]
    for k in range(n):
        for l in range(k, n):
            feats.append((f"P{k}{l}", lambda c, k=k, l=l: c[0][:, k, l], 1.0, 1.0))
    pairs = [(k, l) for k in range(n) for l in range(k, n)]
    for a in range(len(pairs)):
        for b in range(a, len(pairs)):
            (k1, l1), (k2, l2) = pairs[a], pairs[b]
            feats.append((f"P{k1}{l1}*P{k2}{l2}",
                          lambda c, k1=k1, l1=l1, k2=k2, l2=l2:
                          c[0][:, k1, l1] * c[0][:, k2, l2], 1.0, 2.0))
    for r, (name, _) in enumerate(_reference_planes(n, m)):
        feats.append((f"gd_{name}", lambda c, r=r: c[1][:, r], 1.0, 1.0))
        feats.append((f"gd2_{name}", lambda c, r=r: c[1][:, r] ** 2, 1.0, 2.0))
    return feats


def _bl_dictionary(v: DiscreteVarifold, w: DiscreteVarifold, domain) -> BLDistanceReport:
    n, m = v.ambient_dim, v.dim
    all_pos = [p for var in (v, w) if len(var) for p in (var.positions,)]
    r0 = max([1.0] + [float(np.linalg.norm(p, axis=1).max()) for p in all_pos])
    if domain is not None:
        r0 = max(r0, float(np.linalg.norm(domain.center) + domain.radius))
    r1 = 1.5 * r0
    lip_w = 3.0 / r0

    pos_feats = _position_features(n, r1)
    plane_feats = _plane_features(n, m)

    def tables(var):
        if len(var) == 0:
            return (np.zeros((len(pos_feats), 0)), np.zeros((len(plane_feats), 0)),
                    np.zeros(0))
        window = _smooth_window(np.linalg.norm(var.positions, axis=1) / r0)
        fp = np.stack([f(var.positions) for _, f, _, _ in pos_feats])
        cols = _plane_columns(var.frames, n, m)
        ft = np.stack([g(cols) for _, g, _, _ in plane_feats])
        return fp, ft, window * var.masses

    fp_v, ft_v, wm_v = tables(v)
    fp_w, ft_w, wm_w = tables(w)
    diff = np.abs((fp_v * wm_v) @ ft_v.T - (fp_w * wm_w) @ ft_w.T)

    sup_f = np.array([s for _, _, s, _ in pos_feats])
    lip_f = np.array([l for _, _, _, l in pos_feats])
    sup_g = np.array([s for _, _, s, _ in plane_feats])
    lip_g = np.array([l for _, _, _, l in plane_feats])
    sup_fg = np.outer(sup_f, sup_g)
    lip_x = np.outer(sup_f * lip_w + lip_f, sup_g)   # window adds its slope
    lip_t = np.outer(sup_f, lip_g)
    norm = np.maximum(sup_fg, np.maximum(lip_x, lip_t))
    norm = np.where(norm > 0, norm, 1.0)
    vals = diff / norm
    idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
    witness = f"{pos_feats[idx[0]][0]} x {plane_feats[idx[1]][0]}"
    return BLDistanceReport(float(vals[idx]), "dictionary-lower-bound", witness=witness,
                            detail={"dictionary_size": int(vals.size)})


def bl_distance(v: DiscreteVarifold, w: DiscreteVarifold, method: str = "exact",
                domain: Ball = None) -> BLDistanceReport:
    """Bounded-Lipschitz distance between two discrete varifolds.

    ``method``: "exact" solves the transshipment LP (a metric, equal to the
    sup over |phi| <= 1 with Lipschitz constant <= 1 under the product
    metric); "dictionary" evaluates the published test-function dictionary
    and returns a guaranteed lower bound of the exact value.
    """
    if (v.ambient_dim, v.dim) != (w.ambient_dim, w.dim):
        raise ValueError("varifold dimensions differ")
    if method == "exact":
        return _bl_exact(v, w)
    if method == "dictionary":
        return _bl_dictionary(v, w, domain)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# projected mass and the filling check

def projected_mass(e: SimplicialSet, x, r: float, t: Plane) -> float:
    """m-measure of the image set T_proj((E ∩ B(x,r) - x)/r), overlaps
    counted once (it is the measure of an image, not a mass pushforward).

    m = 1: exact union of projected intervals on the line. m = 2: exact
    planar sweep over the projected clipped regions.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if t.dim != e.dim or t.ambient_dim != e.ambient_dim:
        raise ValueError("projection plane must match the set's (n, m)")
    x = np.asarray(x, dtype=float)
    ball = Ball(x, float(r))
    _check_ball(e, ball)
    pieces, loops, _, _ = _clip(e, ball)
    if not len(pieces):
        return 0.0
    if e.dim == 1:
        ends = (pieces.reshape(-1, e.ambient_dim) - x) / r
        return interval_union_length((ends @ t.frame).reshape(-1, 2))
    # project the convex clipped regions as whole polygons; projections of
    # convex planar regions stay convex, and the sweep is linear in their
    # boundary size (fanning them into triangles first would not be)
    points, sizes = loops
    return polygon_union_area([(loop - x) / r @ t.frame
                               for loop in np.split(points, np.cumsum(sizes)[:-1])])


@dataclass(frozen=True)
class FillingReport:
    """Table of projected masses over (k, r) with a limit-filling verdict.

    ``verdict`` is HOLDS when, for every radius, the values stabilize at or
    above (1 - tol) * omega_m from some scheduled k onward and the per-radius
    tail infima do not decay as r shrinks; FAILS when some radius never
    stabilizes; INCONCLUSIVE when levels stabilize but the radius trend
    degrades.
    """

    rows: tuple  # (k, r, value)
    radii: tuple
    k_schedule: tuple
    k_start: dict
    tail_inf: dict
    omega: float
    tol: float
    verdict: str

    @property
    def holds(self) -> bool:
        return self.verdict == "HOLDS"


def filling_check(sets, x, t: Plane, radii) -> FillingReport:
    """Evaluate projected_mass(E_k, x, r, T) over a (k, r) grid and decide
    whether the projections fill the unit disk of T in the double limit,
    with tol = FILLING_TOL.

    ``sets`` maps each scheduled k, in schedule order, to the k-th set.
    ``radii`` must be strictly decreasing.
    """
    radii = [float(r) for r in radii]
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    ks = [int(k) for k in sets]
    om = unit_ball_volume(t.dim)
    values = {(int(k), r): projected_mass(e, x, r, t) for k, e in sets.items() for r in radii}
    rows = [(k, r, val) for (k, r), val in values.items()]
    threshold = (1 - FILLING_TOL) * om
    k_start, tail_inf = {}, {}
    for r in radii:
        start = None
        for i, k in enumerate(ks):
            if all(values[(kk, r)] >= threshold for kk in ks[i:]):
                start = k
                break
        k_start[r] = start
        tail_inf[r] = (min(values[(kk, r)] for kk in ks if kk >= start)
                       if start is not None else min(values[(kk, r)] for kk in ks))
    if any(k_start[r] is None for r in radii):
        verdict = "FAILS"
    else:
        trend_ok = all(tail_inf[r2] >= tail_inf[r1] - FILLING_TOL * om
                       for r1, r2 in zip(radii, radii[1:]))
        verdict = "HOLDS" if trend_ok else "INCONCLUSIVE"
    return FillingReport(tuple(rows), tuple(radii), tuple(ks), k_start, tail_inf,
                         om, FILLING_TOL, verdict)
