import json

import numpy as np
import pytest

from varifoldlab.geometry import Plane, axis_plane, grassmann_distance
from varifoldlab.integrands import (Integrand, energy, flat_disk, frozen, get_integrand,
                                    load_tabulated_integrand, semi_ellipticity_audit,
                                    set_energy, competitor_registry)
from varifoldlab.scenarios import scenario_sequence, segment_set
from varifoldlab.sets import Ball, SimplicialSet, measure, restrict
from varifoldlab.varifold import DiscreteVarifold, var_of_set

H = axis_plane(2, [0])


def tilt_integrand():
    """1 + grassmann_distance(T, horizontal)^2, built from projections."""

    def ev(points, frames):
        proj = np.einsum("aij,akj->aik", frames, frames)
        d2 = np.array([np.linalg.svd(p - H.projection, compute_uv=False)[0] ** 2
                       for p in proj])
        return 1.0 + d2

    return Integrand("tilt", ev, 1.0, 2.0)


class TestEnergy:
    def test_area_gives_mass(self):
        v = var_of_set(scenario_sequence("zigzag", 3), 4)
        assert energy(get_integrand("area"), v) == pytest.approx(v.masses.sum(), abs=1e-12)

    def test_tilted_segment(self):
        vert = SimplicialSet.from_polyline([[0.0, 0.0], [0.0, 1.0]])
        v = var_of_set(vert, 1)
        # unit vertical segment: gd to horizontal is 1, so F = 2 throughout
        assert energy(tilt_integrand(), v) == pytest.approx(2.0, abs=1e-12)

    def test_homogeneous_scaling(self):
        e = segment_set(16)
        c = 3.7
        f = Integrand("const", lambda p, fr: np.full(len(p), c), c, c)
        assert energy(f, var_of_set(e, 2)) == pytest.approx(c * measure(e), abs=1e-12)

    def test_additive_and_linear_in_mass(self):
        v = var_of_set(segment_set(8), 2)
        w = var_of_set(scenario_sequence("zigzag", 2), 2)
        f = get_integrand("x_weighted")
        both = DiscreteVarifold(v.ambient_dim, v.dim,
                                np.concatenate([v.positions, w.positions]),
                                np.concatenate([v.frames, w.frames]),
                                np.concatenate([v.masses, w.masses]))
        assert energy(f, both) == pytest.approx(energy(f, v) + energy(f, w), abs=1e-12)
        doubled = DiscreteVarifold(v.ambient_dim, v.dim, v.positions, v.frames,
                                   2.0 * v.masses)
        assert energy(f, doubled) == pytest.approx(2 * energy(f, v), abs=1e-12)

    def test_monotone_in_integrand(self):
        v = var_of_set(segment_set(8), 2)
        lo = get_integrand("area")
        hi = get_integrand("x_weighted")  # 1 + |x|^2 >= 1
        assert energy(hi, v) >= energy(lo, v) - 1e-12


class TestFrozenRescaled:
    def test_frozen_is_constant_in_position(self):
        f = get_integrand("x_weighted")
        x = np.array([0.3, 0.4])
        fz = frozen(f, x)
        for shift in ([0.0, 0.0], [5.0, -2.0], [100.0, 3.0]):
            assert fz(np.array(shift), H) == pytest.approx(f(x, H), abs=1e-15)

    def test_frozen_idempotent(self):
        f = get_integrand("x_weighted")
        fz = frozen(f, np.array([1.0, 2.0]))
        fzz = frozen(fz, np.array([-9.0, 9.0]))
        assert fzz(np.zeros(2), H) == pytest.approx(fz(np.zeros(2), H), abs=1e-15)

    def test_frozen_energy_direct_sum(self):
        f = get_integrand("x_weighted")
        x = np.array([0.5, 0.0])
        v = var_of_set(scenario_sequence("zigzag", 3), 2)
        direct = sum(m * f(x, Plane(fr)) for m, fr in zip(v.masses, v.frames))
        assert energy(frozen(f, x), v) == pytest.approx(direct, abs=1e-12)


class TestSemiEllipticityAudit:
    def test_area_detour_margin(self):
        rep = semi_ellipticity_audit(get_integrand("area"), np.zeros(2), H,
                                     scan_haar=0)
        row = next(r for r in rep.rows
                   if r[0] == "supplied" and r[1] == "detour_h0.5")
        assert row[2] == pytest.approx(2 * np.sqrt(1.25) - 2, abs=1e-12)

    def test_flat_competitor_zero_margin(self):
        rep = semi_ellipticity_audit(get_integrand("area"), np.zeros(2), H,
                                     scan_haar=0)
        row = next(r for r in rep.rows if r[0] == "supplied" and r[1] == "flat")
        assert row[2] == pytest.approx(0.0, abs=1e-12)

    def test_area_all_nonnegative(self):
        rep = semi_ellipticity_audit(get_integrand("area"), np.zeros(2), H,
                                     scan_haar=8, seed=0)
        assert rep.all_semi_nonnegative
        assert rep.all_elliptic_nonnegative
        assert not rep.certificates

    def test_aniso_quadratic_positive_margins(self):
        rep = semi_ellipticity_audit(get_integrand("aniso_quadratic"),
                                     np.zeros(2), H, scan_haar=16, seed=0)
        assert rep.all_semi_nonnegative
        assert rep.all_elliptic_nonnegative
        assert not rep.certificates

    def test_nonelliptic_certificate(self):
        rep = semi_ellipticity_audit(get_integrand("aniso_nonelliptic"),
                                     np.zeros(2), H, scan_haar=16, seed=0)
        assert rep.certificates
        # the L-shaped detour over the antidiagonal disk is a strong witness
        row = next(r for r in rep.rows if r[0] == "diag-" and r[1] == "detour_h1")
        f = get_integrand("aniso_nonelliptic")
        leg = 1.0 + 9.0 * (1.0 - np.cos(np.pi / 4))
        expected = 2 * np.sqrt(2) * leg - 2 * 10.0
        assert row[2] == pytest.approx(expected, abs=1e-9)

    def test_supplied_competitors_only_on_supplied_plane(self):
        comp = [("custom", SimplicialSet.from_polyline(
            [[-1.0, 0.0], [0.0, 0.3], [1.0, 0.0]]))]
        rep = semi_ellipticity_audit(get_integrand("area"), np.zeros(2), H,
                                     competitors=comp, scan_haar=0)
        supplied = [r for r in rep.rows if r[0] == "supplied"]
        assert [r[1] for r in supplied] == ["custom"]

    def test_m2_audit_runs(self):
        t = axis_plane(3, [0, 1])
        rep = semi_ellipticity_audit(get_integrand("area"), np.zeros(3), t,
                                     scan_haar=0)
        assert rep.all_semi_nonnegative

    def test_registry_spans(self):
        comps = competitor_registry(H)
        names = [c[0] for c in comps]
        assert "detour_h1" in names and "flat" in names
        for name, s in comps:
            ends = [s.vertices[0], s.vertices[-1]]
            assert np.allclose(sorted(np.round(e[0], 9) for e in ends), [-1.0, 1.0])


class TestLowerSemicontinuitySpotCheck:
    def test_graph_decay_energy(self):
        f = get_integrand("area")
        ball = Ball(np.array([0.5, 0.0]), 0.4)
        limit = segment_set(256)
        lim_val = set_energy(f, restrict(limit, ball))
        tail = [set_energy(f, restrict(scenario_sequence("graph_decay", k), ball))
                for k in (16, 32, 64)]
        assert lim_val <= min(tail) + 0.01


class TestTabulatedIntegrand:
    def test_roundtrip_interpolation(self, tmp_path):
        xg = np.linspace(-1, 1, 9)
        yg = np.linspace(-1, 1, 9)
        tg = np.linspace(0, np.pi, 13)[:-1]
        vals = np.empty((9, 9, 12))
        for i, xi in enumerate(xg):
            for j, yj in enumerate(yg):
                for k, tk in enumerate(tg):
                    vals[i, j, k] = 1.0 + 0.5 * np.sin(tk) ** 2 + 0.1 * xi
        doc = {"name": "custom", "ambient_dim": 2, "dim": 1,
               "x_grid": xg.tolist(), "y_grid": yg.tolist(),
               "theta_grid": tg.tolist(), "values": vals.tolist()}
        path = tmp_path / "f.json"
        path.write_text(json.dumps(doc))
        f = load_tabulated_integrand(path)
        got = f(np.array([0.0, 0.0]), Plane.from_span([1.0, 1.0]))
        assert got == pytest.approx(1.0 + 0.5 * 0.5, abs=0.02)
        assert f.inf_value > 0

    def test_rejects_nonpositive(self, tmp_path):
        # nonpositive or NaN values, and grids the interpolation cannot read
        good = {"ambient_dim": 2, "dim": 1, "x_grid": [0, 1], "y_grid": [0, 1],
                "theta_grid": [0.0], "values": [[[1.0], [1.0]], [[1.0], [1.0]]]}
        nan = float("nan")
        bad = [({"values": [[[0.0], [1.0]], [[1.0], [1.0]]]}, "finite and positive"),
               ({"values": [[[nan], [1.0]], [[1.0], [1.0]]]}, "finite and positive"),
               ({"x_grid": [1, -1]}, "x_grid must hold at least 2 finite, strictly increasing"),
               ({"y_grid": [0, 0]}, "y_grid must hold"),
               ({"x_grid": [0, nan]}, "x_grid must hold"),
               ({"x_grid": [0], "values": [[[1.0], [1.0]]]}, "x_grid must hold"),
               ({"theta_grid": [0.0, 4.0], "values": [[[1.0, 1.0]] * 2] * 2},
                "theta_grid must lie in"),
               ({"theta_grid": [np.pi]}, "theta_grid must lie in"),
               ({"theta_grid": [-0.5]}, "theta_grid must lie in"),
               ({"theta_grid": [1.0, 0.5], "values": [[[1.0, 1.0]] * 2] * 2},
                "theta_grid must hold at least 1"),
               ({"theta_grid": [nan]}, "theta_grid must hold")]
        path = tmp_path / "bad.json"
        for change, message in bad:
            path.write_text(json.dumps({**good, **change}))
            with pytest.raises(ValueError, match=message):
                load_tabulated_integrand(path)
        path.write_text(json.dumps(good))
        assert load_tabulated_integrand(path).inf_value == 1.0


class TestRegistry:
    def test_names(self):
        for name in ("area", "x_weighted", "aniso_quadratic", "aniso_nonelliptic"):
            f = get_integrand(name)
            assert f.inf_value > 0
            assert f.sup_value >= f.inf_value

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_integrand("nope")

    def test_bounds_hold_on_samples(self):
        rng = np.random.default_rng(0)
        from varifoldlab.geometry import haar_sample
        frames = np.stack([p.frame for p in haar_sample(2, 1, 50, rng)])
        pts = rng.standard_normal((50, 2)) * 0.5
        for name in ("area", "aniso_quadratic", "aniso_nonelliptic"):
            f = get_integrand(name)
            vals = f.evaluate(pts, frames)
            assert np.all(vals >= f.inf_value - 1e-12)
            assert np.all(vals <= f.sup_value + 1e-12)

    def test_flat_disk_shapes(self):
        d1 = flat_disk(H)
        assert measure(d1) == pytest.approx(2.0, abs=1e-12)
        d2 = flat_disk(axis_plane(3, [0, 1]))
        assert measure(d2) == pytest.approx(np.pi, abs=2e-3)
