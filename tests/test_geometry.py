import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from varifoldlab.geometry import (DegenerateFrameError, DimensionMismatchError, Plane,
                                  _difference_norms, _distinct_rows, axis_plane, grassmann_distance,
                                  grassmann_distance_matrix, haar_sample, orthonormalize,
                                  tangent_jacobian)


def brute_force_distance(q: Plane, t: Plane, samples: int = 10_000) -> float:
    """Independent oracle: sup over sampled unit v in q of |(I - P_t) v|."""
    m = q.dim
    if m == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        ang = np.arange(samples) * (2 * np.pi / samples)
        dirs = np.column_stack([np.cos(ang), np.sin(ang)])
    v = dirs @ q.frame.T
    w = v - v @ t.projection.T
    return float(np.linalg.norm(w, axis=1).max())


def random_plane(rng, n, m):
    return Plane.from_vectors(rng.standard_normal((n, m)))


class TestPlane:
    def test_projection_matrix_invariants(self):
        rng = np.random.default_rng(0)
        for n, m in [(2, 1), (3, 1), (3, 2), (5, 2)]:
            p = random_plane(rng, n, m)
            pm = p.projection
            assert np.max(np.abs(pm @ pm - pm)) < 1e-10
            assert np.max(np.abs(pm - pm.T)) < 1e-10
            assert np.max(np.abs(p.frame.T @ p.frame - np.eye(m))) < 1e-12

    def test_dimension_validation(self):
        with pytest.raises(DimensionMismatchError):
            Plane.from_vectors(np.ones((1, 2)))

    def test_degenerate_frame_rejected(self):
        v = np.array([[1.0, 1.0], [0.0, 1e-14], [0.0, 0.0]])
        with pytest.raises(DegenerateFrameError):
            orthonormalize(v)

    @pytest.mark.parametrize("frame", [[[np.nan], [0.0]], [[1.0, np.nan], [0.0, 1.0]],
                                       [[np.inf], [0.0]], [[1.0, 0.0], [0.0, -np.inf]]],
                             ids=["nan", "nan-2d", "inf", "-inf-2d"])
    def test_non_finite_frame_rejected(self, frame):
        for build in (Plane, orthonormalize, Plane.from_vectors):
            with pytest.raises(ValueError, match="finite"):
                build(np.array(frame))

    def test_callers_frame_stays_writable(self):
        f = np.array([[1.0], [0.0]])
        Plane(f)
        f[0, 0] = 2.0

    def test_eight_digit_frame_is_reorthonormalized(self):
        # F^T F is off the identity by about 5e-9
        p = Plane(np.array([[0.70710678], [0.70710678]]))
        assert abs(p.frame.T @ p.frame - 1.0).max() < 1e-15
        assert p.frame[0, 0] == p.frame[1, 0]

    def test_frame_within_tolerance_keeps_its_bits(self):
        f = np.array([[1.0 + 1e-13, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(Plane(f).frame, f)

    def test_orthonormalize_output(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((4, 2))
        q = orthonormalize(v)
        assert np.allclose(q.T @ q, np.eye(2), atol=1e-12)
        # spans the same subspace
        coeff = np.linalg.lstsq(q, v, rcond=None)[0]
        assert np.allclose(q @ coeff, v, atol=1e-10)


class TestProject:
    def test_horizontal_line(self):
        p = axis_plane(2, [0])
        assert np.allclose(p.projection @ [3.0, 4.0], [3.0, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = random_plane(rng, 4, 2)
            x = rng.standard_normal(4)
            y = p.projection @ x
            assert np.allclose(p.projection @ y, y, atol=1e-12)

    def test_diagonal_line(self):
        p = Plane.from_span([1.0, 1.0])
        # frame . frame^T . point by hand: ((1,1)/sqrt2 . (1,0)) = 1/sqrt2
        assert np.allclose(p.projection @ [1.0, 0.0], [0.5, 0.5])


class TestGrassmannDistance:
    def test_identical(self):
        p = Plane.from_span([2.0, 1.0])
        assert grassmann_distance(p, p) == 0.0

    def test_orthogonal_lines(self):
        p = axis_plane(2, [0])
        q = axis_plane(2, [1])
        oracle = brute_force_distance(q, p)
        assert abs(grassmann_distance(p, q) - oracle) < 1e-9
        assert abs(grassmann_distance(p, q) - 1.0) < 1e-12

    def test_angle_pi_6(self):
        p = axis_plane(2, [0])
        a = np.pi / 6
        q = Plane.from_span([np.cos(a), np.sin(a)])
        oracle = brute_force_distance(q, p)
        assert abs(grassmann_distance(p, q) - oracle) < 1e-6
        assert abs(grassmann_distance(p, q) - 0.5) < 1e-12

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(2, 6)
            m = rng.integers(1, min(2, n - 1) + 1)
            p, q = random_plane(rng, n, m), random_plane(rng, n, m)
            assert abs(grassmann_distance(p, q) - brute_force_distance(q, p)) < 1e-3

    def test_frame_independence(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            base = rng.standard_normal((4, 2))
            mix = rng.standard_normal((2, 2))
            while abs(np.linalg.det(mix)) < 0.1:
                mix = rng.standard_normal((2, 2))
            p = Plane.from_vectors(base)
            q = Plane.from_vectors(base @ mix)
            assert grassmann_distance(p, q) < 1e-10

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p, q = random_plane(rng, 3, 1), random_plane(rng, 3, 1)
            d1, d2 = grassmann_distance(p, q), grassmann_distance(q, p)
            assert abs(d1 - d2) < 1e-12
            assert -1e-12 <= d1 <= 1.0 + 1e-12

    def test_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, min(2, n - 1) + 1))
            a, b, c = (random_plane(rng, n, m) for _ in range(3))
            assert grassmann_distance(a, c) <= (grassmann_distance(a, b)
                                                + grassmann_distance(b, c) + 1e-9)

    def test_mismatch_errors(self):
        with pytest.raises(DimensionMismatchError):
            grassmann_distance(axis_plane(2, [0]), axis_plane(3, [0]))
        with pytest.raises(DimensionMismatchError):
            grassmann_distance(axis_plane(3, [0]), axis_plane(3, [0, 1]))

    def test_distance_matrix_agrees(self):
        rng = np.random.default_rng(7)
        ps = [random_plane(rng, 3, 1) for _ in range(4)]
        qs = [random_plane(rng, 3, 1) for _ in range(5)]
        mat = grassmann_distance_matrix(np.stack([p.frame for p in ps]),
                                        np.stack([q.frame for q in qs]))
        for i, p in enumerate(ps):
            for j, q in enumerate(qs):
                assert abs(mat[i, j] - grassmann_distance(p, q)) < 1e-12


def grassmann_matrix_oracle(fa, fb):
    """The projection-difference SVD on every pair, duplicates included."""
    pa = np.einsum("aij,akj->aik", fa, fa)
    pb = np.einsum("bij,bkj->bik", fb, fb)
    return np.linalg.svd(pa[:, None] - pb[None], compute_uv=False)[..., 0]


def kernel_on_all_pairs(fa, fb):
    """The distance kernel on every pair, duplicates included."""
    n, m = fa.shape[1:]
    pa = np.einsum("aij,akj->aik", fa, fa).reshape(len(fa), 1, n * n)
    pb = np.einsum("bij,bkj->bik", fb, fb).reshape(1, len(fb), n * n)
    return _difference_norms((pa - pb).reshape(-1, n * n), m).reshape(len(fa), len(fb))


def frame_pool(rng, n, m):
    """Random frames with their negations and column reversals, and axis
    frames with -0.0 entries and flipped signs."""
    base = np.stack([random_plane(rng, n, m).frame for _ in range(6)])
    axes = np.zeros((3, n, m))
    for j in range(m):
        axes[:, j, j] = 1.0
    axes[1, -1, :] = -0.0                 # -0.0 and 0.0 entries
    axes[2] *= -1.0                       # a sign-flipped axis frame
    return np.concatenate([base, -base, base[:, :, ::-1], axes])


ONE_ANGLE = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3)]


@settings(max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), nm=st.sampled_from(ONE_ANGLE),
       tilt=st.sampled_from([1.0, 1e-3, 1e-8, 0.0]))
def test_kernel_matches_svd_oracle(seed, nm, tilt):
    # QR frames, some tilted by a small step off a shared base plane
    n, m = nm
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, m))
    frames = np.stack([np.linalg.qr(base + tilt * rng.standard_normal((n, m)))[0]
                       for _ in range(7)])
    fa, fb = frames[:4], frames[3:]
    assert np.max(np.abs(grassmann_distance_matrix(fa, fb)
                         - grassmann_matrix_oracle(fa, fb))) <= 1e-14


class TestDistinctProjections:
    """grassmann_distance_matrix runs its kernel once per distinct pair of
    projection matrices and must keep the bits of the kernel on every pair."""

    @pytest.mark.parametrize("n,m", ONE_ANGLE + [(4, 2), (5, 2)])
    def test_matches_kernel_on_all_pairs(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        pool = frame_pool(rng, n, m)
        for trial in range(5):
            fa = pool[rng.integers(0, len(pool), 40)]
            fb = pool[rng.integers(0, len(pool), 25)]
            assert np.array_equal(grassmann_distance_matrix(fa, fb), kernel_on_all_pairs(fa, fb))
            assert np.array_equal(grassmann_distance_matrix(fa, fa[:1]),
                                  kernel_on_all_pairs(fa, fa[:1]))

    @pytest.mark.parametrize("n,m", [(4, 2)])
    def test_matches_full_svd(self, n, m):
        # two principal angles: the largest singular value, bit for bit
        rng = np.random.default_rng(10 * n + m)
        pool = frame_pool(rng, n, m)
        for trial in range(5):
            fa = pool[rng.integers(0, len(pool), 40)]
            fb = pool[rng.integers(0, len(pool), 25)]
            assert np.array_equal(grassmann_distance_matrix(fa, fb),
                                  grassmann_matrix_oracle(fa, fb))
            assert np.array_equal(grassmann_distance_matrix(fa, fa[:1]),
                                  grassmann_matrix_oracle(fa, fa[:1]))

    @pytest.mark.parametrize("n,m", ONE_ANGLE)
    def test_equal_projections_are_exactly_zero(self, n, m):
        rng = np.random.default_rng(20 * n + m)
        f = random_plane(rng, n, m).frame
        axis = np.zeros((n, m))
        for j in range(m):
            axis[j, j] = 1.0
        signed_zeros = axis.copy()
        signed_zeros[axis == 0.0] = -0.0
        for same in (np.stack([f, -f]), np.stack([axis, -axis, signed_zeros, -signed_zeros])):
            assert np.array_equal(grassmann_distance_matrix(same, same),
                                  np.zeros((len(same), len(same))))
        p = Plane(f)
        assert grassmann_distance(p, Plane(-f)) == 0.0

    @pytest.mark.parametrize("n,m", ONE_ANGLE)
    def test_symmetric_bit_for_bit(self, n, m):
        rng = np.random.default_rng(30 * n + m)
        pool = frame_pool(rng, n, m)
        assert np.array_equal(grassmann_distance_matrix(pool, pool[:7]),
                              grassmann_distance_matrix(pool[:7], pool).T)
        p, q = random_plane(rng, n, m), random_plane(rng, n, m)
        assert grassmann_distance(p, q) == grassmann_distance(q, p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_frames_are_a_value_error(self, bad):
        rng = np.random.default_rng(5)
        fa = np.stack([random_plane(rng, 3, 2).frame for _ in range(4)])
        fa[2, 0, 0] = bad
        assert np.isfinite(fa[:1]).all()
        with pytest.raises(ValueError, match="frames must be finite"):
            grassmann_distance_matrix(fa, fa[:1])
        with pytest.raises(ValueError, match="frames must be finite"):
            grassmann_distance_matrix(fa[:1], fa)

    def test_rows_keyed_by_bytes(self):
        x = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0], [np.nan, 1.0]])
        rows, inverse = _distinct_rows(x)
        assert len(rows) == 3
        assert np.array_equal(rows[inverse], x, equal_nan=True)
        assert inverse[0] == inverse[2] != inverse[1]


class TestJacobianInequalities:
    def test_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            m = int(rng.integers(1, min(2, n - 1) + 1))
            q, t = random_plane(rng, n, m), random_plane(rng, n, m)
            j = tangent_jacobian(q, t)
            d = grassmann_distance(q, t)
            assert j * j <= 1.0 - d * d + 1e-9
            assert d * d <= 2.0 * (1.0 - j) + 1e-9


def mean_projection(planes):
    """The mean of the planes' projection matrices."""
    return np.mean([pl.projection for pl in planes], axis=0)


class TestHaarSample:
    def test_mean_projection_half_identity(self):
        gs = haar_sample(2, 1, 1000, seed=0)
        mean = mean_projection(gs)
        assert np.max(np.abs(mean - 0.5 * np.eye(2))) < 0.05

    def test_full_space_is_a_point(self):
        gs = haar_sample(3, 3, 5, seed=1)
        for pl in gs:
            assert grassmann_distance(pl, axis_plane(3, [0, 1, 2])) < 1e-10

    def test_single_sample_valid_plane(self):
        gs = haar_sample(3, 2, 1, seed=2)
        pl = gs[0]
        assert pl.ambient_dim == 3 and pl.dim == 2
        pm = pl.projection
        assert np.max(np.abs(pm @ pm - pm)) < 1e-10

    def test_deterministic_given_seed(self):
        a = haar_sample(3, 1, 4, seed=42)
        b = haar_sample(3, 1, 4, seed=42)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.frame, pb.frame)

    def test_rotation_invariance_statistical(self):
        # rotating the sample should leave the mean projection statistics alone
        gs = haar_sample(3, 1, 800, seed=3)
        mean = mean_projection(gs)
        assert np.max(np.abs(mean - np.eye(3) / 3)) < 0.05

    def test_errors(self):
        with pytest.raises(DimensionMismatchError):
            haar_sample(2, 3, 1, seed=0)
        with pytest.raises(ValueError):
            haar_sample(2, 1, 0, seed=0)

