import numpy as np
import pytest

from varifoldlab.geometry import Plane, axis_plane, grassmann_distance, haar_sample
from varifoldlab.metrics import bl_distance
from varifoldlab.scenarios import cantor4_set, disk_set, scenario_sequence, segment_set, ycone_set
from varifoldlab.sets import Ball, PointCloudSet, SimplicialSet, measure, rescale, restrict
from varifoldlab.varifold import (DiscreteVarifold, blowup, density_report,
                                  load_varifold, mass_in_ball, restrict_to_ball,
                                  save_varifold, unit_ball_volume,
                                  var_of_pointcloud, var_of_set)


def _triangle_refine(tri, levels):
    """Uniform midpoint subdivision into 4^levels congruent triangles."""
    tris = [tri]
    for _ in range(levels):
        nxt = []
        for a, b, c in tris:
            ab, bc, ca = (a + b) / 2, (b + c) / 2, (c + a) / 2
            nxt.extend([(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)])
        tris = nxt
    return tris


def var_of_set_loop(e, quadrature_per_simplex=1):
    """The per-simplex reference for ``var_of_set``: positions, frames and
    masses, simplex by simplex."""
    q = quadrature_per_simplex
    pos, frames, masses = [], [], []
    for i in range(len(e.simplices)):
        sp = e.simplex_points(i)
        mu = e.simplex_measures[i]
        if e.dim == 1:
            t = (np.arange(q) + 0.5) / q
            pts = sp[0] + t[:, None] * (sp[1] - sp[0])
        else:
            levels = int(np.ceil(np.log(q) / np.log(4))) if q > 1 else 0
            pts = np.array([(a + b + c) / 3.0
                            for a, b, c in _triangle_refine(tuple(sp), levels)])
        pos.append(pts)
        frames.append(np.broadcast_to(e.simplex_frames[i], (len(pts),) + e.simplex_frames[i].shape))
        masses.append(np.full(len(pts), mu / len(pts)))
    return np.concatenate(pos), np.concatenate(frames), np.concatenate(masses)


def single_atom(x, frame, mass=1.0, n=2, m=1):
    return DiscreteVarifold(n, m, np.array([x], dtype=float),
                            np.array([frame], dtype=float), np.array([mass]))


class TestVarOfSet:
    def test_unit_segment_single_atom(self):
        seg = SimplicialSet.from_polyline([[0.0, 0], [1, 0]])
        v = var_of_set(seg, 1)
        assert len(v) == 1
        assert v.total_mass == pytest.approx(1.0, abs=1e-12)
        assert grassmann_distance(v.atom_plane(0), axis_plane(2, [0])) < 1e-12
        assert np.allclose(v.positions[0], [0.5, 0.0])

    def test_zigzag_masses_split_between_slopes(self):
        for k in (2, 5):
            v = var_of_set(scenario_sequence("zigzag", k), 4)
            assert v.total_mass == pytest.approx(np.sqrt(2), abs=1e-12)
            up = Plane.from_span([1.0, 1.0])
            dists = np.array([grassmann_distance(v.atom_plane(i), up)
                              for i in range(len(v))])
            up_mass = v.masses[dists < 1e-9].sum()
            assert up_mass == pytest.approx(v.total_mass / 2, abs=1e-12)

    def test_mass_equals_measure_random(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            e = SimplicialSet.from_polyline(rng.standard_normal((6, 3)))
            q = int(rng.integers(1, 5))
            assert var_of_set(e, q).total_mass == pytest.approx(measure(e), abs=1e-12)

    def test_triangles_mass(self):
        d = disk_set(angular=16)
        for q in (1, 4):
            assert var_of_set(d, q).total_mass == pytest.approx(measure(d), abs=1e-12)

    def test_quadrature_validation(self):
        with pytest.raises(ValueError):
            var_of_set(segment_set(2), 0)

    def test_empty_set(self):
        v = var_of_set(SimplicialSet.empty(3, 2), 4)
        assert len(v) == 0 and v.positions.shape == (0, 3) and v.frames.shape == (0, 3, 2)

    @pytest.mark.parametrize("name", ["disk", "restricted_disk", "ycone", "zigzag"])
    def test_equals_per_simplex_loop(self, name):
        e = {"disk": lambda: scenario_sequence("disk", 1),
             "restricted_disk": lambda: restrict(scenario_sequence("disk", 1),
                                                 Ball(np.array([0.9, 0.0, 0.05]), 0.3)),
             "ycone": lambda: scenario_sequence("ycone", 4),
             "zigzag": lambda: scenario_sequence("zigzag", 5)}[name]()
        for q in (1, 2, 3, 4, 5, 16, 17, 64):
            v = var_of_set(e, q)
            pos, frames, masses = var_of_set_loop(e, q)
            assert np.array_equal(v.positions, pos)
            assert np.array_equal(v.frames, frames)
            assert np.array_equal(v.masses, masses)


class TestVarOfPointCloud:
    def test_single_point_single_plane(self):
        cloud = PointCloudSet(2, 1, np.array([[0.3, 0.7]]), np.array([1.0]))
        haar = haar_sample(2, 1, 1, seed=0)
        v = var_of_pointcloud(cloud, haar)
        assert len(v) == 1
        assert v.total_mass == pytest.approx(1.0, abs=1e-15)

    def test_mass_preserved_random(self):
        rng = np.random.default_rng(1)
        cloud = PointCloudSet(3, 1, rng.standard_normal((20, 3)),
                              rng.random(20) + 0.1)
        haar = haar_sample(3, 1, 16, seed=2)
        v = var_of_pointcloud(cloud, haar)
        assert v.total_mass == pytest.approx(cloud.total_mass, rel=1e-12)

    def test_cantor_mean_projection(self):
        cloud = cantor4_set(4)
        haar = haar_sample(2, 1, 64, seed=3)
        v = var_of_pointcloud(cloud, haar)
        mean_proj = np.einsum("aij,akj,a->ik", v.frames, v.frames, v.masses) / v.total_mass
        assert np.max(np.abs(mean_proj - 0.5 * np.eye(2))) < 0.05

    def test_dimension_mismatch(self):
        cloud = PointCloudSet(3, 1, np.zeros((1, 3)), np.array([1.0]))
        with pytest.raises(ValueError):
            var_of_pointcloud(cloud, haar_sample(2, 1, 2, seed=0))


class TestMassInBall:
    def test_all_inside(self):
        v = var_of_set(segment_set(32), 1)
        assert mass_in_ball(v, Ball(np.array([0.5, 0.0]), 10.0)) == pytest.approx(
            v.total_mass)

    def test_centered_quarter_ball(self):
        seg = SimplicialSet.from_polyline(
            np.linspace([-0.5, 0.0], [0.5, 0.0], 65))
        v = var_of_set(seg, 1)
        assert len(v) >= 64
        got = mass_in_ball(v, Ball(np.zeros(2), 0.25))
        assert abs(got - 0.5) <= 2 / 64

    def test_empty_intersection(self):
        v = var_of_set(segment_set(4), 1)
        assert mass_in_ball(v, Ball(np.array([9.0, 9.0]), 0.5)) == 0.0

    def test_monotone_in_radius(self):
        v = var_of_set(ycone_set(32), 2)
        masses = [mass_in_ball(v, Ball(np.zeros(2), r)) for r in (0.1, 0.3, 0.8)]
        assert masses == sorted(masses)

    @pytest.mark.parametrize("query", [mass_in_ball, restrict_to_ball])
    def test_ball_outside_rn_rejected(self, query):
        # a centre of R^1 was broadcast over both coordinates of R^2
        for v in (var_of_set(segment_set(8), 1), DiscreteVarifold.empty(2, 1)):
            for center in ([0.3], [0.3, 0.0, 0.0]):
                with pytest.raises(ValueError, match="ambient dimensions differ"):
                    query(v, Ball(center, 0.5))


class TestDensityReport:
    def test_line_density_one(self):
        seg = SimplicialSet.from_polyline(np.linspace([-1.0, 0.0], [1.0, 0.0], 513))
        v = var_of_set(seg, 1)
        rep = density_report(v, np.zeros(2), [0.25, 0.125, 0.0625])
        assert np.allclose(rep.ratios, 1.0, atol=0.02)
        assert rep.reliable
        assert rep.extrapolated == pytest.approx(1.0, abs=0.02)

    def test_ycone_vertex_three_halves(self):
        v = var_of_set(ycone_set(512), 1)
        rep = density_report(v, np.zeros(2), [0.25, 0.125, 0.0625])
        assert np.allclose(rep.ratios, 1.5, atol=0.03)

    def test_plane_density_one(self):
        d = disk_set(radius=0.8, angular=96, ring_radii=[0.1, 0.2, 0.4, 0.6, 0.8])
        v = var_of_set(d, 1)
        rep = density_report(v, np.zeros(3), [0.4, 0.2, 0.1])
        assert np.allclose(rep.ratios, 1.0, atol=0.02)

    def test_unreliable_flagged_not_failed(self):
        v = var_of_set(segment_set(4), 1)
        rep = density_report(v, np.array([0.5, 0.0]), [0.5, 1e-4])
        assert not np.isnan(rep.extrapolated)
        assert rep.warnings

    def test_radii_validation(self):
        v = var_of_set(segment_set(4), 1)
        with pytest.raises(ValueError):
            density_report(v, np.zeros(2), [0.1, 0.2])
        for radii in ([0.5, np.nan], [np.nan], [np.inf, 0.5]):
            with pytest.raises(ValueError, match="radii must be finite and positive"):
                density_report(v, np.zeros(2), radii)

    def test_centre_outside_rn_rejected(self):
        v = var_of_set(segment_set(8), 1)
        for center in (0.3, [0.3], [0.0, 0.0, 0.0], [[0.3, 0.0]]):
            with pytest.raises(ValueError, match="centre must be a point of R\\^2"):
                density_report(v, center, [0.5])


class TestBlowup:
    def test_identity(self):
        v = var_of_set(segment_set(8), 2)
        b = blowup(v, np.zeros(2), 1.0)
        assert np.allclose(b.positions, v.positions)
        assert np.allclose(b.masses, v.masses)

    def test_mass_in_ball_scaling(self):
        rng = np.random.default_rng(2)
        v = var_of_set(SimplicialSet.from_polyline(rng.standard_normal((8, 2))), 4)
        for _ in range(5):
            x = rng.standard_normal(2) * 0.3
            r = float(rng.random() + 0.2)
            lhs = mass_in_ball(blowup(v, x, r), Ball(np.zeros(2), 1.0))
            rhs = mass_in_ball(v, Ball(x, r)) / r ** v.dim
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_matches_var_of_rescaled_set(self):
        e = ycone_set(16)
        x = np.array([0.1, 0.2])
        r = 0.5
        a = blowup(var_of_set(e, 2), x, r)
        b = var_of_set(rescale(e, x, r), 2)
        assert np.allclose(np.sort(a.masses), np.sort(b.masses), atol=1e-12)
        assert np.allclose(sorted(map(tuple, a.positions)),
                           sorted(map(tuple, b.positions)), atol=1e-12)

    def test_plane_cone_density_invariant(self):
        d = disk_set(radius=1.0, angular=64,
                     ring_radii=[2.0 ** -j for j in range(6, -1, -1)])
        v = var_of_set(d, 1)
        base = density_report(v, np.zeros(3), [0.25, 0.125]).ratios
        for r in (0.5, 0.25):
            blown = blowup(v, np.zeros(3), r)
            got = density_report(blown, np.zeros(3), [0.25, 0.125]).ratios
            assert np.allclose(got, base, atol=0.02)

    def test_rejects_nonpositive(self):
        v = var_of_set(segment_set(2), 1)
        with pytest.raises(ValueError):
            blowup(v, np.zeros(2), -1.0)

    def test_centre_outside_rn_rejected(self):
        # a centre of R^1 used to shift both coordinates
        v = var_of_set(segment_set(8), 1)
        for center in (0.3, [0.3], [0.0, 0.0, 0.0]):
            with pytest.raises(ValueError, match="centre must be a point of R\\^2"):
                blowup(v, center, 0.5)


class TestConeScaling:
    @pytest.mark.parametrize("builder", [
        lambda: SimplicialSet.from_polyline(np.linspace([-1.0, 0.0], [1.0, 0.0], 257)),
        lambda: ycone_set(256),
        lambda: disk_set(radius=1.0, angular=48,
                         ring_radii=[2 ** -j for j in range(6, -1, -1)]),
    ])
    def test_blowup_close_to_original(self, builder):
        cone = builder()
        v = var_of_set(cone, 1)
        unit = Ball(np.zeros(cone.ambient_dim), 1.0)
        base = restrict_to_ball(v, unit)
        for r in (0.5, 0.25, 0.125):
            blown = restrict_to_ball(blowup(v, np.zeros(cone.ambient_dim), r), unit)
            atoms = min(len(blown), len(base))
            d = bl_distance(blown, base).value
            assert d < 5.0 / np.sqrt(atoms)


class TestInvariantsAndIO:
    def test_total_mass_equals_measure(self):
        e = ycone_set(32)
        assert var_of_set(e, 3).total_mass == pytest.approx(measure(e), abs=1e-12)

    def test_order_independence(self):
        rng = np.random.default_rng(3)
        v = var_of_set(segment_set(16), 2)
        perm = rng.permutation(len(v))
        w = DiscreteVarifold(v.ambient_dim, v.dim, v.positions[perm],
                             v.frames[perm], v.masses[perm])
        ball = Ball(np.array([0.4, 0.0]), 0.3)
        assert mass_in_ball(v, ball) == pytest.approx(mass_in_ball(w, ball), abs=1e-12)
        assert bl_distance(v, w).value < 1e-9

    def test_positive_mass_required(self):
        with pytest.raises(ValueError):
            DiscreteVarifold(2, 1, np.zeros((1, 2)),
                             np.array([[[1.0], [0.0]]]), np.array([0.0]))

    def test_callers_arrays_are_copied(self):
        pos, frames, masses = np.zeros((1, 2)), np.array([[[1.0], [0.0]]]), np.array([1.0])
        v = DiscreteVarifold(2, 1, pos, frames, masses)
        pos[0, 0], frames[0, 0, 0], masses[0] = 5.0, 0.0, -3.0
        assert v.positions[0, 0] == 0.0 and v.frames[0, 0, 0] == 1.0 and v.masses[0] == 1.0
        assert pos.flags.writeable

    def test_json_roundtrip(self, tmp_path):
        v = var_of_set(ycone_set(4), 2)
        path = tmp_path / "v.json"
        save_varifold(v, path)
        w = load_varifold(path)
        assert np.allclose(w.positions, v.positions)
        assert np.allclose(w.frames, v.frames)
        assert np.allclose(w.masses, v.masses)

    def test_omega_values(self):
        assert unit_ball_volume(1) == 2.0
        assert unit_ball_volume(2) == pytest.approx(np.pi)
