"""Linear-algebra substrate: m-planes in R^n, orthogonal projections,
the Grassmannian operator-norm metric, and uniform (Haar) sampling of planes.

The pairwise Grassmann matrix evaluates its kernel once per pair of
bitwise-distinct projection matrices (a discretized surface repeats few
tangent planes), so every pair keeps the bits of the kernel on that pair.

All values are immutable after construction and all operations are pure.
Randomness is always drawn from a caller-supplied seed or Generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Plane",
    "DimensionMismatchError",
    "DegenerateFrameError",
    "orthonormalize",
    "grassmann_distance",
    "grassmann_distance_matrix",
    "tangent_jacobian",
    "haar_sample",
    "axis_plane",
]

ORTHO_TOL = 1e-11
DEGENERACY_TOL = 1e-12


class DimensionMismatchError(ValueError):
    """Inputs refer to incompatible ambient or plane dimensions."""


class DegenerateFrameError(ValueError):
    """Spanning vectors are numerically dependent; no plane can be built."""


def orthonormalize(vectors: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of ``vectors`` (shape (n, m)).

    Modified Gram-Schmidt with one re-orthogonalization pass. Raises
    DegenerateFrameError if a column's residual norm falls below 1e-12
    relative to its original norm, and ValueError on non-finite input.
    """
    v = np.array(vectors, dtype=float)
    if v.ndim != 2:
        raise ValueError("expected a 2-d array of column vectors")
    if not np.isfinite(v).all():
        raise ValueError("frame vectors must be finite")
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

    ``frame`` holds an orthonormal basis as columns (shape (n, m)). A frame
    whose Gram matrix is off the identity by more than ``ORTHO_TOL`` is
    re-orthonormalized; one within it keeps its bits. The projection matrix
    frame @ frame.T is cached at construction.
    """

    frame: np.ndarray
    projection: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        f = np.array(self.frame, dtype=float)
        if f.ndim != 2:
            raise ValueError("frame must be 2-d (n, m)")
        n, m = f.shape
        if not (1 <= m <= n):
            raise DimensionMismatchError(f"need 1 <= m <= n, got n={n}, m={m}")
        if not np.isfinite(f).all():
            raise ValueError("plane frame must be finite")
        if np.max(np.abs(f.T @ f - np.eye(m))) > ORTHO_TOL:
            f = orthonormalize(f)
        p = f @ f.T
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


def grassmann_distance(p: Plane, q: Plane) -> float:
    """Operator-norm distance between two planes of equal dimension.

    The operator norm of the difference of the two orthogonal projection
    matrices, by the kernel of ``grassmann_distance_matrix``. Lies in
    [0, 1] for equal-dimension planes; equals the sine of the largest
    principal angle.
    """
    if p.ambient_dim != q.ambient_dim or p.dim != q.dim:
        raise DimensionMismatchError("planes must share ambient and plane dimension")
    n = p.ambient_dim
    return float(_difference_norms((p.projection - q.projection).reshape(1, n * n), p.dim)[0])


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


def _difference_norms(diff, m):
    """The operator norm of each difference ``P_a - P_b`` of two rank-``m``
    projections of R^n, given flattened as the rows of a (K, n * n) array.

    ``P_a - P_b`` has eigenvalues +-sin(theta_i), one pair for each
    principal angle theta_i (Bjorck-Golub, Math. Comp. 27, 1973). With one
    angle, min(m, n - m) <= 1 (lines and hyperplanes), the norm is the
    Frobenius norm over sqrt(2). Its sum of squares is each row's BLAS
    ``ddot`` with itself, as in ``sets._rowdot``, so a row and its negation
    give the same bits and a zero row gives exactly 0. Two or more angles
    take the largest singular value from LAPACK's SVD.
    """
    n = math.isqrt(diff.shape[1])
    if min(m, n - m) <= 1:
        return np.sqrt(0.5 * (diff[:, None, :] @ diff[:, :, None])[:, 0, 0])
    return np.linalg.svd(diff.reshape(-1, n, n), compute_uv=False)[:, 0]


def grassmann_distance_matrix(frames_a: np.ndarray, frames_b: np.ndarray) -> np.ndarray:
    """Pairwise operator-norm distances between two stacks of frames.

    ``frames_a`` has shape (A, n, m); ``frames_b`` shape (B, n, m).
    Returns an (A, B) array. The kernel runs once per pair of
    bitwise-distinct projection matrices, in closed form for lines and
    hyperplanes and by SVD otherwise; equal projections are at distance
    exactly 0. Non-finite frames are a ValueError.
    """
    fa = np.asarray(frames_a, dtype=float)
    fb = np.asarray(frames_b, dtype=float)
    if fa.shape[1:] != fb.shape[1:]:
        raise DimensionMismatchError("frame stacks must share (n, m)")
    if not (np.isfinite(fa).all() and np.isfinite(fb).all()):
        raise ValueError("frames must be finite")
    n, m = fa.shape[1:]
    pa, ia = _distinct_rows(_projections(fa).reshape(len(fa), n * n))
    pb, ib = _distinct_rows(_projections(fb).reshape(len(fb), n * n))
    diff = (pa[:, None] - pb[None]).reshape(-1, n * n)
    return _difference_norms(diff, m).reshape(len(pa), len(pb))[ia][:, ib]


def tangent_jacobian(q: Plane, t: Plane) -> float:
    """m-dimensional Jacobian of the orthogonal projection onto ``t``
    restricted to ``q``: the product of singular values of P_t composed
    with q's frame."""
    if q.ambient_dim != t.ambient_dim or q.dim != t.dim:
        raise DimensionMismatchError("planes must share ambient and plane dimension")
    s = np.linalg.svd(t.projection @ q.frame, compute_uv=False)
    return float(np.prod(s))


def haar_sample(n: int, m: int, count: int, seed) -> tuple:
    """A tuple of ``count`` planes sampled uniformly (Haar) from the
    m-planes of R^n.

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
    return tuple(planes)
