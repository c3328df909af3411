"""Quasiminimality audits: the defining inequality of QM(U, M, h) evaluated
against a fixed registry of explicit deformations, plus the mass
semicontinuity and upper-bound checks along scenario sequences.

A deformation is represented by its endpoint map phi, required to fix the
complement of its ball; the homotopy to the identity is taken to be the
straight line, and is not verified. The registry's deformations take no
parameters, so an audit row's competitor is fixed by its name, ball and
set; a custom competitor is a ``Deformation`` passed to ``qm_gap``. The
moved region W1 is resolved combinatorially: simplices whose sampled
displacements disagree are split until concordant. The image is measured on
pieces of diameter r/128 (curves) or r/16 (surfaces) and counts overlaps
once (it is the measure of an image set).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .sets import (Ball, SimplicialSet, _check_ball, _clip, _midpoint_split, _simplex_measures,
                   distance_to_set, measure, nearest_simplex, restrict)
from .unions import segments_union_measure, triangles_union_measure
from .varifold import var_of_set

__all__ = [
    "GaugeFunction",
    "Deformation",
    "QMAuditReport",
    "SemicontinuityReport",
    "DEFORMATION_NAMES",
    "make_deformation",
    "qm_gap",
    "qm_audit",
    "semicontinuity_check",
]

MOVE_TOL = 1e-12
PIECE_BUDGET = 400_000  # pieces one qm_gap may split E ∩ W1 into
SEMICONTINUITY_C = 1.0  # the constant C of the mass upper bound
SEMICONTINUITY_TOL = 0.01


def _check_m_factor(m):
    """The rule for the M of QM(U, M, h): a real number >= 1 (NaN and
    bools fail)."""
    if isinstance(m, bool) or not isinstance(m, numbers.Real) or not m >= 1:
        raise ValueError(f"M must be a real number >= 1, got {m!r}")


@dataclass(frozen=True)
class GaugeFunction:
    """Nondecreasing gauge h: [0, inf) -> [0, inf].

    Kinds: ``constant`` (h = h0 everywhere), ``step`` (h0 below delta,
    +inf at and above delta), ``power`` (h0 * t^exponent below delta, +inf
    at and above delta; has h(0+) = 0). Every kind is nondecreasing once
    h0 is finite and >= 0, delta > 0 and exponent > 0, which construction
    checks (NaN fails each check).
    """

    kind: str = "constant"
    h0: float = 0.0
    delta: float = np.inf
    exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "step", "power"):
            raise ValueError(f"unknown gauge kind {self.kind!r}")
        for name in ("h0", "delta", "exponent"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValueError(f"gauge {name} must be a number, got {getattr(self, name)!r}")
        if not 0 <= self.h0 < np.inf:
            raise ValueError(f"gauge h0 must be finite and nonnegative, got {self.h0!r}")
        if not self.delta > 0:
            raise ValueError(f"gauge delta must be positive, got {self.delta!r}")
        if not self.exponent > 0:
            raise ValueError(f"gauge exponent must be positive, got {self.exponent!r}")

    def __call__(self, t: float) -> float:
        t = float(t)
        if t < 0:
            raise ValueError("gauge argument must be nonnegative")
        if self.kind == "constant":
            return self.h0
        if t >= self.delta:
            return np.inf
        if self.kind == "step":
            return self.h0
        return self.h0 * t ** self.exponent

    @property
    def zero_plus(self) -> float:
        """h(0+): the limit from the right at 0."""
        return 0.0 if self.kind == "power" else self.h0

    def dominates(self, other: "GaugeFunction") -> bool:
        """True when self >= other pointwise on a scan grid of [0, 2]."""
        return all(self(t) >= other(t) - 1e-15 for t in np.linspace(0.0, 2.0, 41))

    def to_dict(self):
        """JSON fields; an infinite ``delta`` (no cutoff) is written as null."""
        return {"kind": self.kind, "h0": self.h0,
                "delta": None if self.delta == np.inf else self.delta,
                "exponent": self.exponent}

    @classmethod
    def from_dict(cls, doc):
        if not isinstance(doc, dict):
            raise ValueError(f"a gauge must be a JSON object, got {type(doc).__name__}")
        delta = doc.get("delta")
        return cls(kind=doc.get("kind", "constant"), h0=doc.get("h0", 0.0),
                   delta=np.inf if delta is None else delta, exponent=doc.get("exponent", 1.0))


@dataclass(frozen=True)
class Deformation:
    """Endpoint map of a deformation supported in a ball.

    ``phi`` maps an (A, n) array of points to an (A, n) array and must be
    the identity outside the ball (tested on boundary samples at
    construction). The homotopy to the identity is the straight line.
    """

    name: str
    ball: Ball
    phi: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        n = len(self.ball.center)
        rng = np.random.default_rng(7)
        raw = rng.standard_normal((32, n))
        sphere = self.ball.center + self.ball.radius * 1.0001 * raw / np.linalg.norm(
            raw, axis=1, keepdims=True)
        moved = np.linalg.norm(self.phi(sphere) - sphere, axis=1)
        if moved.max() > 1e-9:
            raise ValueError(f"deformation {self.name!r} moves points outside its ball")

    def displacement(self, points: np.ndarray) -> np.ndarray:
        return np.linalg.norm(self.phi(points) - points, axis=1)


# ---------------------------------------------------------------------------
# deformation registry

def _cutoff(s):
    """1 on [0, 1/2], linear to 0 at 1, 0 beyond."""
    return np.clip(2.0 * (1.0 - s), 0.0, 1.0)


def _make_identity(ball: Ball, e: SimplicialSet) -> Deformation:
    return Deformation("identity", ball, lambda p: np.array(p, dtype=float))


def _make_radial_collapse(ball: Ball, e: SimplicialSet) -> Optional[Deformation]:
    """Push the ball interior radially onto the sphere. Skipped when the
    collapse center is on (or numerically near) the set, where no continuous
    deformation of this shape exists."""
    c, r = ball.center, ball.radius
    if distance_to_set(c[None, :], e)[0] < 1e-6 * r:
        return None

    def phi(p):
        p = np.array(p, dtype=float)
        rel = p - c
        d = np.linalg.norm(rel, axis=1)
        inside = d < r * (1 - 1e-15)
        safe = np.where(d > 0, d, 1.0)
        out = p.copy()
        out[inside] = c + r * rel[inside] / safe[inside, None]
        return out

    return Deformation("radial_collapse", ball, phi)


def _affine_projection_deformation(name, ball, anchor, proj_matrix):
    c, r = ball.center, ball.radius

    def phi(p):
        p = np.array(p, dtype=float)
        rel = p - c
        s = np.linalg.norm(rel, axis=1) / r
        w = _cutoff(s)
        target = anchor + (p - anchor) @ proj_matrix.T
        return p + w[:, None] * (target - p)

    return Deformation(name, ball, phi)


def _make_tangent_project(ball: Ball, e: SimplicialSet) -> Optional[Deformation]:
    """Cutoff projection onto the affine tangent plane of the simplex
    nearest to the ball center."""
    if not len(_clip(e, ball)[0]):
        return None
    best_i = nearest_simplex(ball.center[None, :], e)[1][0]
    anchor = e.simplex_points(best_i)[0]
    proj = e.simplex_frames[best_i] @ e.simplex_frames[best_i].T
    return _affine_projection_deformation("tangent_project", ball, anchor, proj)


def _make_tooth_flatten(ball: Ball, e: SimplicialSet) -> Optional[Deformation]:
    """Cutoff projection onto the mass-weighted principal m-plane of E ∩ B."""
    clipped = restrict(e, ball)
    if clipped.is_empty():
        return None
    v = var_of_set(clipped, 4)
    mean = np.average(v.positions, axis=0, weights=v.masses)
    rel = v.positions - mean
    cov = (rel * v.masses[:, None]).T @ rel
    vals, vecs = np.linalg.eigh(cov)
    frame = vecs[:, ::-1][:, : e.dim]
    proj = frame @ frame.T
    return _affine_projection_deformation("tooth_flatten", ball, mean, proj)


def _make_vertex_snap(ball: Ball, e: SimplicialSet) -> Deformation:
    """Continuous snap toward a delta-lattice: points are pulled to the
    nearest lattice point with a tent profile vanishing on cell boundaries,
    all inside the ball cutoff. The lattice pitch, r/16 on curves and r/4
    on surfaces, is 8 and 4 times the image-refinement resolution, so the
    piecewise-affine image is faithful."""
    c, r = ball.center, ball.radius
    delta = r / 16 if e.dim == 1 else r / 4
    # lattice offset keeps the zero-displacement cell boundaries away from
    # the dyadic vertices produced by midpoint refinement
    offset = delta * 0.31830988618367

    def phi(p):
        p = np.array(p, dtype=float)
        rel = p - c
        s = np.linalg.norm(rel, axis=1) / r
        w = _cutoff(s)
        snapped = np.round((p - offset) / delta) * delta + offset
        d = snapped - p
        g = np.clip(1.0 - 2.0 * np.abs(d).max(axis=1) / delta, 0.0, 1.0)
        return p + (w * g)[:, None] * d

    return Deformation("vertex_snap", ball, phi)


_FACTORIES = {
    "identity": _make_identity,
    "radial_collapse": _make_radial_collapse,
    "tangent_project": _make_tangent_project,
    "tooth_flatten": _make_tooth_flatten,
    "vertex_snap": _make_vertex_snap,
}
DEFORMATION_NAMES = tuple(_FACTORIES)


def make_deformation(name: str, ball: Ball, e: SimplicialSet):
    """Build a registry deformation for the given ball and set; returns
    None when the deformation does not apply (e.g. collapse center on E)."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise KeyError(f"unknown deformation {name!r}; known: {DEFORMATION_NAMES}") from None
    return factory(ball, e)


# ---------------------------------------------------------------------------
# the quasiminimality gap

def _piece_diameters(pieces):
    """Longest edge of each piece; a segment's one edge is taken both ways round."""
    return np.linalg.norm(np.roll(pieces, -1, axis=1) - pieces, axis=2).max(axis=1)


def _probe_displacements(pieces, d, m):
    """Displacement magnitudes at vertices plus the interior probe,
    shape (N, m+2); one deformation call for the whole batch."""
    interior = pieces.mean(axis=1, keepdims=True)
    probes = np.concatenate([pieces, interior], axis=1)
    flat = probes.reshape(-1, probes.shape[2])
    disp = np.linalg.norm(d.phi(flat) - flat, axis=1)
    return disp.reshape(len(pieces), m + 2)


def _collect_moved(e: SimplicialSet, d: Deformation):
    """Concordant moved pieces of E under the deformation, as an
    (N, m+1, n) array.

    Splitting along the moved/unmoved frontier is binary for curves but
    4-way for surfaces, where the frontier is a curve and the straddling
    piece count doubles per level; the surface depth cap and the global
    budget keep that bounded. Pieces still discordant at the cap are
    classified by their interior probe (their displacement is ~0 there,
    so the gap is insensitive to the choice)."""
    m, n = e.dim, e.ambient_dim
    max_depth = 22 if m == 1 else 9
    ball = d.ball
    current = e.vertices[e.simplices]
    moved = [np.zeros((0, m + 1, n))]
    spent = 0
    for depth in range(max_depth + 1):
        if len(current) == 0:
            break
        spent += len(current)
        # cheap rejection: pieces entirely outside the ball cannot move
        dc = np.linalg.norm(current - ball.center, axis=2).min(axis=1)
        current = current[dc - _piece_diameters(current) <= ball.radius]
        if len(current) == 0:
            break
        disp = _probe_displacements(current, d, m)
        flags = disp > MOVE_TOL
        all_moved = flags.all(axis=1)
        none_moved = ~flags.any(axis=1)
        moved.append(current[all_moved])
        discordant = ~all_moved & ~none_moved
        if depth == max_depth or spent > PIECE_BUDGET:
            moved.append(current[discordant & (disp[:, -1] > MOVE_TOL)])
            break
        current = _midpoint_split(current[discordant], m)
    return np.concatenate(moved)


def _refine_for_image(pieces, m, target):
    """Split the pieces until each has diameter <= target. Raises
    ValueError when that takes more than PIECE_BUDGET pieces (many moved
    pieces: one of diameter 2r splits into 256 on curves, 1,024 on surfaces)."""
    done = [np.zeros((0,) + pieces.shape[1:])]
    kept = 0
    current = pieces
    while len(current):
        if kept + len(current) > PIECE_BUDGET:
            raise ValueError(f"image refinement to diameter {target:.3g} needs more "
                             f"than {PIECE_BUDGET} pieces")
        diam = _piece_diameters(current)
        fine = diam <= target
        done.append(current[fine])
        kept += len(done[-1])
        current = _midpoint_split(current[~fine], m)
    return np.concatenate(done)


def _batch_lipschitz(src, img, m):
    """Largest singular value of the piecewise-affine map, over all pieces."""
    if len(src) == 0:
        return 0.0
    if m == 1:
        ls = np.linalg.norm(src[:, 1] - src[:, 0], axis=1)
        li = np.linalg.norm(img[:, 1] - img[:, 0], axis=1)
        return float(np.max(np.where(ls > 0, li / np.where(ls > 0, ls, 1.0), 0.0)))
    es = np.stack([src[:, 1] - src[:, 0], src[:, 2] - src[:, 0]], axis=1)
    ei = np.stack([img[:, 1] - img[:, 0], img[:, 2] - img[:, 0]], axis=1)
    gs = np.einsum("pik,pjk->pij", es, es)
    gi = np.einsum("pik,pjk->pij", ei, ei)
    det = gs[:, 0, 0] * gs[:, 1, 1] - gs[:, 0, 1] * gs[:, 1, 0]
    ok = det > 1e-30
    inv = np.zeros_like(gs)
    inv[ok, 0, 0] = gs[ok, 1, 1]
    inv[ok, 1, 1] = gs[ok, 0, 0]
    inv[ok, 0, 1] = -gs[ok, 0, 1]
    inv[ok, 1, 0] = -gs[ok, 1, 0]
    inv[ok] /= det[ok, None, None]
    a = np.einsum("pij,pjk->pik", inv, gi)  # eigenvalues are squared singular values
    tr = a[:, 0, 0] + a[:, 1, 1]
    dt = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    disc = np.sqrt(np.maximum(tr * tr / 4 - dt, 0.0))
    lam = tr / 2 + disc
    return float(np.sqrt(max(np.max(lam, initial=0.0), 0.0)))


@dataclass(frozen=True)
class QMGapResult:
    gap: float
    source_measure: float
    image_measure: float
    gauge_term: float
    lipschitz: float
    moved_pieces: int


def qm_gap(e: SimplicialSet, m_factor: float, gauge: GaugeFunction,
           deformation: Deformation, domain: Ball = None,
           detail: bool = False):
    """The quasiminimality gap of one deformation:

        M * H(phi(E ∩ W1)) + h(r) r^m  -  H(E ∩ W1),

    where W1 is the moved region (resolved by splitting simplices whose
    sampled displacements disagree) and the image measure counts overlaps
    once. Nonnegative gaps over all deformations of all balls is the
    membership inequality; a negative gap is a violation certificate.
    """
    _check_m_factor(m_factor)
    ball = deformation.ball
    if domain is not None:
        _check_ball(e, domain)
        if (np.linalg.norm(ball.center - domain.center) + ball.radius
                >= domain.radius - 1e-12):
            raise ValueError("deformation ball closure must lie inside the domain")
    r = ball.radius
    m = e.dim
    gauge_term = gauge(r) * r ** m
    moved = _collect_moved(e, deformation)
    if len(moved) == 0:
        result = QMGapResult(float(gauge_term), 0.0, 0.0, float(gauge_term), 0.0, 0)
        return result if detail else result.gap
    source = float(_simplex_measures(moved, m).sum())
    target = r / 128 if m == 1 else r / 16
    fine = _refine_for_image(moved, m, target)
    flat = fine.reshape(-1, fine.shape[2])
    images = deformation.phi(flat).reshape(fine.shape)
    if m == 1:
        image = segments_union_measure(images)
    else:
        image = triangles_union_measure(images)
    gap = m_factor * image + gauge_term - source
    if not detail:
        return float(gap)
    return QMGapResult(float(gap), source, float(image), float(gauge_term),
                       float(_batch_lipschitz(fine, images, m)), len(moved))


# ---------------------------------------------------------------------------
# audits over the registry

@dataclass(frozen=True)
class QMAuditReport:
    rows: tuple  # (ball_center, ball_radius, deformation, gap or None-if-skipped)
    min_gap: float
    argmin: Optional[tuple]
    skipped: tuple

    @property
    def passes(self) -> bool:
        return self.min_gap >= -1e-9

    def to_dict(self):
        """JSON fields; a +inf gap (the gauge is infinite at that radius)
        is written as null."""
        return {
            "rows": [
                {"center": list(c), "radius": r, "deformation": name,
                 "gap": None if g == np.inf else g}
                for (c, r, name, g) in self.rows
            ],
            "min_gap": None if self.min_gap == np.inf else self.min_gap,
            "argmin": None if self.argmin is None else
                {"center": list(self.argmin[0]), "radius": self.argmin[1],
                 "deformation": self.argmin[2]},
            "skipped": [
                {"center": list(c), "radius": r, "deformation": name}
                for (c, r, name) in self.skipped
            ],
        }


def _default_balls(e: SimplicialSet, domain: Ball):
    radii = (0.15 * domain.radius, 0.3 * domain.radius)
    v = var_of_set(e, 1)
    idx = np.linspace(0, len(v) - 1, min(3, len(v))).astype(int)
    centers = [v.positions[i] for i in idx]
    mean = np.average(v.positions, axis=0, weights=v.masses)
    centers.append(mean)
    offset = np.zeros(e.ambient_dim)
    offset[-1] = 1.0
    balls = []
    for r in radii:
        for c in centers:
            for shift in (0.0, 0.31 * r):
                cc = np.asarray(c, dtype=float) + shift * offset
                if np.linalg.norm(cc - domain.center) + r < domain.radius - 1e-9:
                    balls.append(Ball(cc, float(r)))
    return balls


def qm_audit(e: SimplicialSet, m_factor: float, gauge: GaugeFunction, domain: Ball,
             registry=None, balls=None) -> QMAuditReport:
    """Run qm_gap over the deformation registry across a ball grid.

    ``registry`` selects names of ``DEFORMATION_NAMES`` (default: all).
    Deformations that do not apply to a ball (collapse center on the set,
    empty intersection) are reported as skipped, not failed. The set must
    have a simplex and the domain must lie in its ambient space (ValueError
    otherwise)."""
    _check_m_factor(m_factor)
    if e.is_empty():
        raise ValueError("the quasiminimality audit needs a set with at least one simplex")
    _check_ball(e, domain)
    registry = registry if registry is not None else DEFORMATION_NAMES
    balls = balls if balls is not None else _default_balls(e, domain)
    rows, skipped = [], []
    min_gap, argmin = np.inf, None
    for ball in balls:
        for name in registry:
            d = make_deformation(name, ball, e)
            if d is None:
                skipped.append((tuple(ball.center), ball.radius, name))
                continue
            g = qm_gap(e, m_factor, gauge, d, domain=domain)
            rows.append((tuple(ball.center), ball.radius, name, float(g)))
            if g < min_gap:
                min_gap, argmin = float(g), (tuple(ball.center), ball.radius, name)
    if not rows:
        min_gap = 0.0
    return QMAuditReport(tuple(rows), float(min_gap), argmin, tuple(skipped))


# ---------------------------------------------------------------------------
# semicontinuity along a sequence

@dataclass(frozen=True)
class SemicontinuityReport:
    """PASS/FAIL table for the lower-semicontinuity and mass upper-bound
    checks along a scenario sequence (tail of the schedule)."""

    open_rows: tuple    # (center, radius, limit_mass, tail_min, pass)
    compact_rows: tuple  # (center, radius, tail_max, bound, pass)
    lower_semicontinuity_pass: bool
    upper_bound_pass: bool
    c_const: float
    tol: float


def semicontinuity_check(sets, limit_set, opens, compacts,
                         m_factor: float, gauge: GaugeFunction) -> SemicontinuityReport:
    """Check, over the tail half of the schedule, with C = SEMICONTINUITY_C
    and tol = SEMICONTINUITY_TOL:

    (1) for each open ball O: H(limit ∩ O) <= min_k H(E_k ∩ O) + tol;
    (3) for each compact ball K: max_k H(E_k ∩ K) <= (1 + C h(0+)) M H(limit ∩ K) + tol.

    ``sets`` maps each scheduled k, in schedule order, to the k-th set.
    """
    tail = list(sets.values())[len(sets) // 2:]
    open_rows = []
    for ball in opens:
        lm = measure(restrict(limit_set, ball))
        tm = min(measure(restrict(e, ball)) for e in tail)
        open_rows.append((tuple(ball.center), ball.radius, lm, tm, lm <= tm + SEMICONTINUITY_TOL))
    compact_rows = []
    factor = (1.0 + SEMICONTINUITY_C * gauge.zero_plus) * m_factor
    for ball in compacts:
        tmax = max(measure(restrict(e, ball)) for e in tail)
        bound = factor * measure(restrict(limit_set, ball)) + SEMICONTINUITY_TOL
        compact_rows.append((tuple(ball.center), ball.radius, tmax, bound, tmax <= bound))
    return SemicontinuityReport(
        tuple(open_rows), tuple(compact_rows),
        all(r[4] for r in open_rows), all(r[4] for r in compact_rows),
        SEMICONTINUITY_C, SEMICONTINUITY_TOL)
