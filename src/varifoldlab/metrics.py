"""The two convergence notions under comparison, plus the projected-mass
functional that links them.

- ``hausdorff_local``: normalized two-sided sup distance inside a ball,
  exact point-to-simplex distances, sup over adaptively refined samples of
  the corner array of ``sets._clip`` (a point cloud's points as 0-simplices).
- ``bl_distance``: bounded-Lipschitz distance between discrete varifolds
  under the product metric |x - y| + grassmann_distance. The exact method
  solves the mass-transshipment LP with unit-rate slack for unmatched mass
  (so moving mass farther than 2 is dominated by destroy + create, matching
  |phi| <= 1). The value is a norm of mu - nu, so the mass that both
  measures hold on coincident atoms (bitwise-equal position and
  projection) cancels first and the LP runs on the residual only, by
  column generation over the cost matrix's pairs. The
  dictionary method maximizes over a fixed published family of certified
  1-Lipschitz, bounded-by-1 test functions and is always a lower bound of
  the LP value.
- ``projected_mass``: m-measure of the image (overlaps counted once) of
  the set's ``sets._clip``, rescaled, under projection to a plane.
- ``filling_check``: tabulates projected_mass over (k, r) and flags whether
  the rescaled projections fill the unit disk in the limit.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .geometry import Plane, _distinct_rows, _projections, axis_plane, grassmann_distance_matrix
# nothing here calls distance_to_set; the name stays because
# perfbench/layers.py hooks it in this module
from .sets import (Ball, PointCloudSet, SimplicialSet, _clip, _rowdot, _sup_distance,
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
FILLING_TOL = 0.02
CG_SEED_PAIRS = 8  # cheapest pairs of each row and each column in the first restricted LP
DENSE_FIRST_COLS = 1 << 16  # transitional: LPs this large first try one budgeted all-pairs round


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
    whose indices are all even. A 0-simplex is one point with no new ones."""
    k = 2 ** level
    idx = np.indices((k + 1,) * m).reshape(m, (k + 1) ** m).T
    idx = idx[idx.sum(axis=1) <= k]
    return idx / k, (idx % 2 == 1).any(axis=1)


def _sample_points(corners, weights):
    """The points a + (b - a) w1 + (c - a) w2 of each simplex of an
    (S, m+1, n) corner array at each row of a (W, m) weight array, simplex
    by simplex: (S * W, n). Each point's arithmetic is its own, so a subset
    of the weights gives the bits of the same subset of the points."""
    a = corners[:, 0, None, :]
    pts = np.broadcast_to(a, (len(corners), len(weights), corners.shape[2]))
    for j, w in enumerate(weights.T, start=1):
        pts = pts + (corners[:, j, None, :] - a) * w[None, :, None]
    return pts.reshape(-1, corners.shape[2])


def _one_sided_sup(source, target, r, samples):
    """sup over samples of source∩B of dist(., target), and the sampling
    gap, the longest edge times the lattice step; (0, 0) on an empty
    source. ``source`` is the (S, m+1, n) corner array of source∩B: a
    ``_clip``'s pieces, or a point cloud's points as (P, 1, n) 0-simplices.

    Each refinement level measures only its new lattice points: the points
    of the level before are bitwise among them, so the max over the level
    is the max of the previous sup and the new points' distances. That max
    is ``sets._sup_distance`` with the previous sup as its floor, which
    evaluates only the new points whose upper bound exceeds the running
    sup; the skipped ones cannot raise it."""
    if not len(source):
        return 0.0, 0.0
    per = max(1, int(np.ceil(samples / len(source))))
    level = max(0, int(np.ceil(np.log2(per))))
    # every edge, each way round for a segment: b - a, c - b, a - c
    k = source.shape[1]
    edges = source[:, [*range(1, k), 0]] - source
    longest = _max_edge_length(edges.reshape(-1, source.shape[2]))
    prev = sup = -np.inf
    for lv in range(level, level + 8):
        weights, new = _lattice(source.shape[1] - 1, lv)
        sup = _sup_distance(_sample_points(source, weights if lv == level else weights[new]),
                            target, sup)
        if prev >= 0 and sup - prev < SUP_REFINE_TOL * r or len(source) * len(weights) > 200_000:
            break
        prev = sup
    return sup, longest / 2 ** lv


@dataclass(frozen=True)
class HausdorffReport:
    value: float
    sup_first_to_second: float
    sup_second_to_first: float
    resolution: float  # one-sided bound: true value <= value + resolution

    def to_dict(self):
        return asdict(self)


def hausdorff_local_report(x_set, y_set, x, r, samples: int = 256) -> HausdorffReport:
    """The two one-sided sups of ``hausdorff_local`` and their sum over r,
    with the sampling resolution. Each sup is exact over its samples: a
    sample is measured only when its upper bound, the kernel's distance to
    the simplices of its nearest centroids, exceeds the sup reached so far,
    and a skipped sample's distance is at most that bound, so it could not
    raise the sup. Each side's target terms are built once, on its first
    query (``sets._DistanceIndex``), and serve every level."""
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples!r}")
    ball = Ball(np.asarray(x, dtype=float), float(r))  # rejects r <= 0
    xc, yc = (restrict(e, ball).points[:, None, :] if isinstance(e, PointCloudSet)
              else _clip(e, ball)[0] for e in (x_set, y_set))
    return _hausdorff_report(xc, yc, x_set, y_set, r, samples)


def _hausdorff_report(xc, yc, x_set, y_set, r, samples) -> HausdorffReport:
    """``hausdorff_local_report`` from the corner arrays of the two sets'
    parts in the ball, xc of x_set and yc of y_set, as ``_one_sided_sup``
    reads them."""
    sup_xy, gap_x = _one_sided_sup(xc, y_set, r, samples)
    sup_yx, gap_y = _one_sided_sup(yc, x_set, r, samples)
    value = (sup_xy + sup_yx) / r
    resolution = (gap_x + gap_y) / r  # dist(., S) is 1-Lipschitz in the sample point
    return HausdorffReport(float(value), float(sup_xy), float(sup_yx), float(resolution))


def hausdorff_local(x_set, y_set, x, r) -> float:
    """Normalized local Hausdorff distance d_{x,r}(X, Y): the sum of the two
    one-sided sup distances inside B(x, r), divided by r, at the default 256
    samples of ``hausdorff_local_report``. Sups over an empty clipped side
    are 0 by convention."""
    return hausdorff_local_report(x_set, y_set, x, r).value


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
    """The product metric between every pair of atoms. The Grassmann
    temporaries are at most n times the (a, b, n) position differences."""
    pos = np.linalg.norm(v.positions[:, None, :] - w.positions[None, :, :], axis=2)
    return pos + grassmann_distance_matrix(v.frames, w.frames)


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


def linprog(c, A_ub, b_ub, options=None, basis=None):
    """``min c.x`` over ``x >= 0`` with ``A_ub x <= b_ub``, ``A_ub`` a
    scipy CSC sparse array with sorted row indices, solved by the
    HiGHS bindings that scipy ships, imported on the first exact LP so that
    ``import varifoldlab`` does not load scipy. Presolve is off: it removes
    nothing from a transport LP, yet it is most of the fixed cost of a cold
    all-pairs solve. The other HiGHS options are those that
    ``scipy.optimize.linprog(method="highs")`` sets, so a cold solve returns
    the bits of that call with ``options={"presolve": False}``;
    ``options={"maxiter": n}`` caps the iterations. ``basis``, a pair of
    HiGHS column and row statuses, starts the simplex from that basis. The
    result has ``status`` (0 optimal, 1 iteration limit, 4 otherwise),
    ``message``, ``nit``, and when optimal ``x``, ``fun``,
    ``ineqlin.marginals`` (the row duals) and ``basis``. This module-level
    name is the one place the tests and the benchmark tracer patch."""
    from types import SimpleNamespace

    from scipy.optimize._highspy import _core as highs

    m, k = A_ub.shape
    solver = highs._Highs()
    settings = {"output_flag": False, "log_to_console": False, "presolve": "off",
                "simplex_strategy": 1}  # dual simplex
    if options is not None:
        settings.update(simplex_iteration_limit=options["maxiter"],
                        ipm_iteration_limit=options["maxiter"])
    for name, value in settings.items():
        solver.setOptionValue(name, value)
    solver.passModel(k, m, A_ub.nnz, highs.MatrixFormat.kColwise, highs.ObjSense.kMinimize,
                     0.0, c, np.zeros(k), np.full(k, highs.kHighsInf),
                     np.full(m, -highs.kHighsInf), b_ub, A_ub.indptr, A_ub.indices, A_ub.data,
                     np.zeros(k, dtype=np.int32))  # every column continuous
    if basis is not None:
        statuses = {int(s): s for s in highs.HighsBasisStatus.__members__.values()}
        start = highs.HighsBasis()
        start.col_status = [statuses[s] for s in basis[0].tolist()]
        start.row_status = [statuses[s] for s in basis[1].tolist()]
        start.valid = True
        solver.setBasis(start)
    solver.run()
    model = solver.getModelStatus()
    info = solver.getInfo()
    res = SimpleNamespace(status=4, message=solver.modelStatusToString(model),
                          nit=info.simplex_iteration_count or info.ipm_iteration_count,
                          x=None, fun=None, ineqlin=None, basis=None)
    if model == highs.HighsModelStatus.kIterationLimit:
        res.status = 1
    elif model == highs.HighsModelStatus.kOptimal:
        found, basic = solver.getBasicVariables()
        if found != highs.HighsStatus.kOk:
            res.message = "optimal, but HiGHS gives no basis"
            return res
        solution = solver.getSolution()
        res.status, res.x, res.fun = 0, np.array(solution.col_value), info.objective_function_value
        res.ineqlin = SimpleNamespace(marginals=np.array(solution.row_dual))
        # a nonbasic column sits at its bound 0 and a nonbasic row at b_ub,
        # so the basic variables (column j >= 0, row i as -1 - i) give every status
        cols = np.full(k, int(highs.HighsBasisStatus.kLower), dtype=np.int8)
        rows = np.full(m, int(highs.HighsBasisStatus.kUpper), dtype=np.int8)
        cols[basic[basic >= 0]] = int(highs.HighsBasisStatus.kBasic)
        rows[-1 - basic[basic < 0]] = int(highs.HighsBasisStatus.kBasic)
        res.basis = (cols, rows)
    return res


@dataclass(frozen=True)
class _TransportSolve:
    """An optimal solve of the transshipment LP ``min sum (c_ij - 2) x_ij``
    over ``x >= 0`` with row sums at most ``mu`` and column sums at most
    ``nu``."""
    objective: float
    plan: np.ndarray  # (a, b), zero off the columns of the last LP
    marginals: np.ndarray  # HiGHS marginals of the a row caps, then the b column caps
    columns: np.ndarray  # (a, b) bool, the pairs that are columns of the last LP
    rounds: int  # restricted LPs solved; 0 when the budgeted round finishes
    min_reduced_cost: float  # min over all a*b pairs of c_ij - 2 + u_i + z_j

    @property
    def edges(self) -> int:
        return int(self.columns.sum())


def _reduced_costs(cost, marginals):
    """``c_ij - 2 + u_i + z_j`` with the cap duals ``u, z = -marginals``."""
    a = len(cost)
    return cost - 2.0 - marginals[:a, None] - marginals[None, a:]


def _column_generation(cost, mu, nu) -> _TransportSolve:
    """The LP by column generation: solve it over a set of candidate pairs,
    seeded with the ``CG_SEED_PAIRS`` cheapest pairs of each row and each
    column, then price every pair by its reduced cost under the restricted
    LP's cap duals and add the negative ones, until no pair outside the set
    prices negative. The last restricted optimum is then optimal for the
    full LP: its duals price every pair non-negative, up to the pairs in
    the set, which HiGHS priced within its own tolerance. Each restricted
    round after the first starts from the basis the round before ended
    on, with its new pairs nonbasic at 0. SolverError when a restricted
    solve fails.

    Transitional rule: an LP of at least ``DENSE_FIRST_COLS`` pairs first
    gets a round over every pair with a budget of one simplex iteration per
    cap. A round that finishes is kept, with ``rounds`` 0; one that stops
    short is dropped and the loop starts again from the seed. That keeps
    the values recorded before column generation, some of which lie just
    below the certified optimum."""
    import scipy.sparse as sp

    a, b = cost.shape
    seed = np.zeros((a, b), dtype=bool)
    kb, ka = min(CG_SEED_PAIRS, b), min(CG_SEED_PAIRS, a)
    seed[np.arange(a)[:, None], np.argpartition(cost, kb - 1, axis=1)[:, :kb]] = True
    seed[np.argpartition(cost, ka - 1, axis=0)[:ka], np.arange(b)[None, :]] = True
    budget = a * b >= DENSE_FIRST_COLS
    chosen = np.ones((a, b), dtype=bool) if budget else seed
    b_ub = np.concatenate([mu, nu])
    rounds = 0
    status, row_status = np.zeros((a, b), dtype=np.int8), None  # 0: nonbasic at x = 0
    while True:
        rows, cols = np.nonzero(chosen)
        k = len(rows)
        a_ub = sp.csc_array((np.ones(2 * k), np.column_stack([rows, a + cols]).ravel(),
                             np.arange(0, 2 * k + 1, 2)), shape=(a + b, k))
        res = linprog(cost[rows, cols] - 2.0, A_ub=a_ub, b_ub=b_ub,
                      options={"maxiter": a + b} if budget else None,
                      basis=None if row_status is None else (status[rows, cols], row_status))
        if budget:
            budget = False
            if res.status != 0:
                chosen = seed
                continue
        else:
            rounds += 1
            if res.status != 0:
                raise SolverError(f"transshipment LP failed: {res.message}")
        status[rows, cols], row_status = res.basis
        reduced = _reduced_costs(cost, res.ineqlin.marginals)
        missing = (reduced < 0.0) & ~chosen
        if not missing.any():
            break
        chosen |= missing
    plan = np.zeros((a, b))
    plan[rows, cols] = res.x
    return _TransportSolve(float(res.fun), plan, res.ineqlin.marginals, chosen, rounds,
                           float(reduced.min()))


def _bl_exact(v: DiscreteVarifold, w: DiscreteVarifold) -> BLDistanceReport:
    """The transshipment LP of ``mu - nu`` after the mass on coincident
    atoms cancels: the LP value is a norm of ``mu - nu`` and a pair of
    coincident atoms costs 0, so the residual LP has the same value. When
    nothing cancels, the residual arrays equal the inputs bit for bit. The
    LP is solved by ``_column_generation``."""
    pairs, mu, nu = _cancel_coincident(v, w)
    keep_a, keep_b = np.flatnonzero(mu > 0), np.flatnonzero(nu > 0)
    cancelled = len(v) + len(w) - len(keep_a) - len(keep_b)
    v = DiscreteVarifold(v.ambient_dim, v.dim, v.positions[keep_a], v.frames[keep_a], mu[keep_a])
    w = DiscreteVarifold(w.ambient_dim, w.dim, w.positions[keep_b], w.frames[keep_b], nu[keep_b])
    mu, nu = v.masses, w.masses
    a, b = len(v), len(w)
    total = float(mu.sum() + nu.sum())
    status, value, witness, lp_lower, lp_upper = "degenerate-empty-side", total, pairs, total, total
    rows, rounds, edges, min_reduced = 0, 0, 0, 0.0
    if a and b:
        cost = _cost_matrix(v, w)
        solve = _column_generation(cost, mu, nu)
        status, value = "optimal", max(total + solve.objective, 0.0)
        nz = np.argwhere(solve.plan > 1e-12)
        witness = sorted(pairs + [(int(keep_a[i]), int(keep_b[j]), float(solve.plan[i, j]))
                                  for i, j in nz])
        lp_lower, lp_upper = _lp_certificate(cost, mu, nu, solve.plan, solve.marginals)
        rows, rounds, edges, min_reduced = a + b, solve.rounds, solve.edges, solve.min_reduced_cost
    return BLDistanceReport(value, "exact-LP", witness=witness,
                            detail={"lp_status": status, "lp_lower": lp_lower,
                                    "lp_upper": lp_upper, "lp_rows": rows, "lp_cols": a * b,
                                    "cancelled_atoms": cancelled, "lp_rounds": rounds,
                                    "lp_edges": edges, "lp_min_reduced_cost": min_reduced})


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


def _position_table(p, r1):
    """The position features at the points ``p`` (A, n), supported on
    |x| <= r1: their names, values (F, A) and Lipschitz constants (F,)."""
    n = p.shape[1]
    feats = [("1", np.ones(len(p)), 0.0)]
    feats += [(f"x{i}", p[:, i] / r1, 1.0 / r1) for i in range(n)]
    feats += [(f"x{i}*x{j}", p[:, i] * p[:, j] / r1 ** 2, 2.0 / r1)
              for i in range(n) for j in range(i, n)]
    eye = np.eye(n)
    dirs = list(eye)
    for i in range(n):
        for j in range(i + 1, n):
            dirs += [(eye[i] + eye[j]) / np.sqrt(2), (eye[i] - eye[j]) / np.sqrt(2)]
    for di, d in enumerate(dirs):
        u = p @ d
        for freq in (1, 2):
            om = np.pi * freq / r1
            feats += [(f"sin{freq}_u{di}", np.sin(om * u), om),
                      (f"cos{freq}_u{di}", np.cos(om * u), om)]
    names, values, lip = zip(*feats)
    return names, np.stack(values), np.array(lip)


@lru_cache
def _reference_planes(n, m):
    """The named reference planes of the plane features, at most 12. Built
    once per (n, m) and shared: a tuple of planes, whose arrays are
    read-only."""
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
    return tuple(refs[:12])


def _plane_columns(frames, n, m):
    """What the plane features read from a frame stack, computed once: the
    projections ``f f^T`` and the distance to each reference plane."""
    refs = np.stack([ref.frame for _, ref in _reference_planes(n, m)])
    return _projections(frames), grassmann_distance_matrix(frames, refs)


def _plane_table(frames, n, m):
    """The plane features of a frame stack (A, n, m) under the operator
    metric: their names, values (G, A) and Lipschitz constants (G,)."""
    proj, gd = _plane_columns(frames, n, m)
    entries = [(k, l) for k in range(n) for l in range(k, n)]
    feats = [("1", np.ones(len(frames)), 0.0)]
    feats += [(f"P{k}{l}", proj[:, k, l], 1.0) for k, l in entries]
    feats += [(f"P{k1}{l1}*P{k2}{l2}", proj[:, k1, l1] * proj[:, k2, l2], 2.0)
              for e, (k1, l1) in enumerate(entries) for k2, l2 in entries[e:]]
    for r, (name, _) in enumerate(_reference_planes(n, m)):
        feats += [(f"gd_{name}", gd[:, r], 1.0), (f"gd2_{name}", gd[:, r] ** 2, 2.0)]
    names, values, lip = zip(*feats)
    return names, np.stack(values), np.array(lip)


def _bl_dictionary(v: DiscreteVarifold, w: DiscreteVarifold, domain) -> BLDistanceReport:
    """The largest ``|(mu - nu)(window f g)|`` over the products of a
    position feature f and a plane feature g, each divided by its BL norm.
    Every feature is bounded by 1, so the product is too; its Lipschitz
    constant is ``lip_w + lip_f`` in x (the window adds its slope) and
    ``lip_g`` in T, so the norm is ``max(1, lip_w + lip_f, lip_g)``."""
    n, m = v.ambient_dim, v.dim
    all_pos = [p for var in (v, w) if len(var) for p in (var.positions,)]
    r0 = max([1.0] + [float(np.linalg.norm(p, axis=1).max()) for p in all_pos])
    if domain is not None:
        r0 = max(r0, float(np.linalg.norm(domain.center) + domain.radius))
    r1 = 1.5 * r0
    lip_w = 3.0 / r0

    moments = []
    for var in (v, w):
        names_f, f, lip_f = _position_table(var.positions, r1)
        names_g, g, lip_g = _plane_table(var.frames, n, m)
        wm = _smooth_window(np.linalg.norm(var.positions, axis=1) / r0) * var.masses
        moments.append((f * wm) @ g.T)
    norm = np.maximum(1.0, np.maximum((lip_w + lip_f)[:, None], lip_g[None, :]))
    vals = np.abs(moments[0] - moments[1]) / norm
    idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
    witness = f"{names_f[idx[0]]} x {names_g[idx[1]]}"
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
    return _projected_mass(_clip(e, Ball(x, float(r))), x, r, t)


def _projected_mass(clip, x, r, t: Plane) -> float:
    """``projected_mass`` from ``clip``, the ``_clip`` of the set in B(x, r)."""
    pieces, loops, _, _ = clip
    if not len(pieces):
        return 0.0
    if t.dim == 1:
        ends = (pieces.reshape(-1, t.ambient_dim) - x) / r
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
    above (1 - FILLING_TOL) * omega_m from some scheduled k onward and the
    per-radius tail infima do not decay as r shrinks; FAILS when some radius
    never stabilizes; INCONCLUSIVE when levels stabilize but the radius
    trend degrades.
    """

    rows: tuple  # (k, r, value)
    radii: tuple
    k_schedule: tuple
    verdict: str


def filling_check(sets, x, t: Plane, radii) -> FillingReport:
    """Evaluate projected_mass(E_k, x, r, T) over a (k, r) grid and decide
    whether the projections fill the unit disk of T in the double limit,
    with tol = FILLING_TOL.

    ``sets`` maps each scheduled k, in schedule order, to the k-th set.
    ``radii`` must be strictly decreasing.
    """
    if not sets:
        raise ValueError("filling_check needs at least one set")
    radii = [float(r) for r in radii]
    if any(r2 >= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly decreasing")
    values = {(int(k), r): projected_mass(e, x, r, t) for k, e in sets.items() for r in radii}
    return _filling_report(values, [int(k) for k in sets], radii, t.dim)


def _filling_report(values, ks, radii, m) -> FillingReport:
    """``filling_check``'s report from ``values``, the projected masses
    keyed by (k, r) in schedule then radius order, over the schedule ``ks``
    and the strictly decreasing ``radii`` of an m-plane."""
    om = unit_ball_volume(m)
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
        tail_inf[r] = min(values[(kk, r)] for kk in ks if start is None or kk >= start)
    if any(k_start[r] is None for r in radii):
        verdict = "FAILS"
    else:
        trend_ok = all(tail_inf[r2] >= tail_inf[r1] - FILLING_TOL * om
                       for r1, r2 in zip(radii, radii[1:]))
        verdict = "HOLDS" if trend_ok else "INCONCLUSIVE"
    return FillingReport(tuple(rows), tuple(radii), tuple(ks), verdict)
