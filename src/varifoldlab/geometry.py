"""Linear-algebra substrate: m-planes in R^n, orthogonal projections,
the Grassmannian operator-norm metric, and uniform (Haar) sampling of planes.

The pairwise Grassmann matrix takes one SVD per pair of bitwise-distinct
projection matrices (a discretized surface repeats few tangent planes), so
it keeps the bits of the SVD on every pair.

All values are immutable after construction and all operations are pure.
Randomness is always drawn from a caller-supplied seed or Generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Plane",
    "GrassmannSample",
    "DimensionMismatchError",
    "DegenerateFrameError",
    "orthonormalize",
    "project",
    "grassmann_distance",
    "grassmann_distance_matrix",
    "tangent_jacobian",
    "haar_sample",
    "axis_plane",
]

ORTHO_TOL = 1e-12
PROJ_TOL = 1e-10
DEGENERACY_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Inputs refer to incompatible ambient or plane dimensions."""


class DegenerateFrameError(ValueError):
    """Spanning vectors are numerically dependent; no plane can be built."""


def orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of ``vectors`` (shape (n, m)).

    Modified Gram-Schmidt with one re-orthogonalization pass. Raises
    DegenerateFrameError if a column's residual norm falls below 1e-12
    relative to its original norm.
    """
    v = np.array(vectors, dtype=float)
    if v.ndim != 2:
        raise ValueError("expected a 2-d array of column vectors")
    n, m = v.shape
    if m > n:
        raise DimensionMismatchError(f"cannot span {m} dimensions in R^{n}")
    q = np.empty((n, m))
    for j in range(m):
        w = v[:, j].copy()
        scale = np.linalg.norm(w)
        if scale == 0.0:
            raise DegenerateFrameError("zero vector in frame")
        for _ in range(2):  # re-orthogonalization pass
            for i in range(j):
                w -= np.dot(q[:, i], w) * q[:, i]
        norm = np.linalg.norm(w)
        if norm <= DEGENERACY_TOL * scale:
            raise DegenerateFrameError(
                f"frame vector {j} is within {DEGENERACY_TOL} of the span of the others"
            )
        q[:, j] = w / norm
    return q


@dataclass(frozen=True)
class Plane:
    """An m-dimensional linear subspace of R^n.

    ``frame`` holds an orthonormal basis as columns (shape (n, m)).
    The projection matrix frame @ frame.T is cached at construction.
    """

    frame: np.ndarray
    projection: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        f = np.asarray(self.frame, dtype=float)
        if f.ndim != 2:
            raise ValueError("frame must be 2-d (n, m)")
        n, m = f.shape
        if not (1 <= m <= n):
            raise DimensionMismatchError(f"need 1 <= m <= n, got n={n}, m={m}")
        gram = f.T @ f
        if np.max(np.abs(gram - np.eye(m))) > 1e-8:
            f = orthonormalize(f)
            gram = f.T @ f
        if np.max(np.abs(gram - np.eye(m))) > ORTHO_TOL * 10:
            raise DegenerateFrameError("frame not orthonormal after re-orthogonalization")
        p = f @ f.T
        if np.max(np.abs(p @ p - p)) > PROJ_TOL or np.max(np.abs(p - p.T)) > PROJ_TOL:
            raise DegenerateFrameError("projection matrix fails idempotence/symmetry check")
        f.setflags(write=False)
        p.setflags(write=False)
        object.__setattr__(self, "frame", f)
        object.__setattr__(self, "projection", p)

    @property
    def ambient_dim(self) -> int:
        return self.frame.shape[0]

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @classmethod
    def from_vectors(cls, vectors) -> "Plane":
        """Build a plane from (possibly non-orthonormal) spanning column vectors."""
        return cls(orthonormalize(np.asarray(vectors, dtype=float)))

    @classmethod
    def from_span(cls, *vecs) -> "Plane":
        """Build a plane spanned by the given vectors (each a length-n sequence)."""
        return cls.from_vectors(np.column_stack([np.asarray(v, dtype=float) for v in vecs]))

    def project(self, point: np.ndarray) -> np.ndarray:
        return project(self, point)

    def __repr__(self):
        return f"Plane(n={self.ambient_dim}, m={self.dim})"


def axis_plane(n: int, axes) -> Plane:
    """The coordinate plane of R^n spanned by the given axis indices."""
    axes = [int(a) for a in np.atleast_1d(axes)]
    bad = [a for a in axes if not 0 <= a < n]
    if bad:
        raise DimensionMismatchError(f"axis indices {bad} out of range for R^{n}")
    f = np.zeros((n, len(axes)))
    for j, a in enumerate(axes):
        f[a, j] = 1.0
    return Plane(f)


def project(plane: Plane, point: np.ndarray) -> np.ndarray:
    """Orthogonal projection of ``point`` onto ``plane``.

    Accepts a single point of length n or an array of points with last
    axis n; the projection is applied pointwise.
    """
    pt = np.asarray(point, dtype=float)
    if pt.shape[-1] != plane.ambient_dim:
        raise DimensionMismatchError(
            f"point dimension {pt.shape[-1]} != ambient dimension {plane.ambient_dim}"
        )
    return pt @ plane.projection.T


def grassmann_distance(p: Plane, q: Plane) -> float:
    """Operator-norm distance between two planes of equal dimension.

    Computed exactly as the largest singular value of the difference of the
    two orthogonal projection matrices. Lies in [0, 1] for equal-dimension
    planes; equals the sine of the largest principal angle.
    """
    if p.ambient_dim != q.ambient_dim or p.dim != q.dim:
        raise DimensionMismatchError("planes must share ambient and plane dimension")
    s = np.linalg.svd(p.projection - q.projection, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def _distinct_rows(x):
    """The bitwise-distinct rows of a 2-d array in order of first
    appearance, and for each row the index of its copy among them. Rows are
    keyed by their bytes, so -0.0 and 0.0 stay apart, as does each NaN bit
    pattern."""
    x = np.ascontiguousarray(x)
    index = {}
    keys = x.view(np.dtype((np.void, x.dtype.itemsize * x.shape[1]))).ravel().tolist()
    inverse = np.array([index.setdefault(key, len(index)) for key in keys], dtype=np.intp)
    return np.frombuffer(b"".join(index), dtype=x.dtype).reshape(len(index), x.shape[1]), inverse


def _projections(frames):
    """The projection matrices ``f f^T`` of an (A, n, m) frame stack."""
    return np.einsum("aij,akj->aik", frames, frames)


def grassmann_distance_matrix(frames_a: np.ndarray, frames_b: np.ndarray) -> np.ndarray:
    """Pairwise operator-norm distances between two stacks of frames.

    ``frames_a`` has shape (A, n, m); ``frames_b`` shape (B, n, m).
    Returns an (A, B) array. Batched over the projection-difference SVD,
    which runs once per pair of bitwise-distinct projection matrices: an
    identical input matrix gives the identical singular values.
    """
    fa = np.asarray(frames_a, dtype=float)
    fb = np.asarray(frames_b, dtype=float)
    if fa.shape[1:] != fb.shape[1:]:
        raise DimensionMismatchError("frame stacks must share (n, m)")
    n = fa.shape[1]
    pa, ia = _distinct_rows(_projections(fa).reshape(len(fa), n * n))
    pb, ib = _distinct_rows(_projections(fb).reshape(len(fb), n * n))
    diff = pa.reshape(-1, 1, n, n) - pb.reshape(1, -1, n, n)
    s = np.linalg.svd(diff, compute_uv=False)[..., 0]
    return s[ia][:, ib]


def tangent_jacobian(q: Plane, t: Plane) -> float:
    """m-dimensional Jacobian of the orthogonal projection onto ``t``
    restricted to ``q``: the product of singular values of P_t composed
    with q's frame."""
    if q.ambient_dim != t.ambient_dim or q.dim != t.dim:
        raise DimensionMismatchError("planes must share ambient and plane dimension")
    s = np.linalg.svd(t.projection @ q.frame, compute_uv=False)
    return float(np.prod(s))


@dataclass(frozen=True)
class GrassmannSample:
    """A weighted finite sample of planes, weights summing to 1."""

    planes: tuple
    weights: np.ndarray

    def __post_init__(self):
        planes = tuple(self.planes)
        w = np.asarray(self.weights, dtype=float)
        if len(planes) == 0:
            raise ValueError("empty sample")
        if w.shape != (len(planes),):
            raise ValueError("one weight per plane required")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1 within 1e-12")
        n, m = planes[0].ambient_dim, planes[0].dim
        for pl in planes:
            if pl.ambient_dim != n or pl.dim != m:
                raise DimensionMismatchError("all planes in a sample must share (n, m)")
        w.setflags(write=False)
        object.__setattr__(self, "planes", planes)
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return len(self.planes)

    def mean_projection(self) -> np.ndarray:
        out = np.zeros((self.planes[0].ambient_dim,) * 2)
        for pl, w in zip(self.planes, self.weights):
            out += w * pl.projection
        return out


def haar_sample(n: int, m: int, count: int, seed) -> GrassmannSample:
    """Sample ``count`` planes uniformly (Haar) from the m-planes of R^n.

    Each plane is the orthonormalization of an i.i.d. standard Gaussian
    (n, m) matrix, which is exactly rotation invariant. ``seed`` is an int
    or a numpy Generator; output is deterministic for a fixed seed.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if m > n:
        raise DimensionMismatchError(f"m={m} exceeds n={n}")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    planes = []
    while len(planes) < count:
        g = rng.standard_normal((n, m))
        try:
            planes.append(Plane.from_vectors(g))
        except DegenerateFrameError:
            continue  # probability-zero event; resample
    weights = np.full(count, 1.0 / count)
    weights[-1] = 1.0 - weights[:-1].sum()
    return GrassmannSample(tuple(planes), weights)
