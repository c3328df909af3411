import numpy as np
import pytest

from varifoldlab.scenarios import (FAMILIES, UnknownFamilyError, cantor4_set, get_family,
                                   scenario_sequence, segment_set, ycone_set)
from varifoldlab.sets import PointCloudSet, SimplicialSet, measure


class TestRegistry:
    def test_required_families_present(self):
        for name in ("zigzag", "graph_decay", "ycone_approx", "shrinking_bump"):
            assert name in FAMILIES

    def test_unknown_family_raises(self):
        with pytest.raises(UnknownFamilyError):
            get_family("spiral")
        with pytest.raises(UnknownFamilyError):
            scenario_sequence("spiral", 1)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            scenario_sequence("zigzag", 0)

    def test_determinism(self):
        a = scenario_sequence("graph_decay", 5)
        b = scenario_sequence("graph_decay", 5)
        assert np.array_equal(a.vertices, b.vertices)


class TestZigzag:
    def test_mass_constant_sqrt2(self):
        for k in (1, 2, 7, 64):
            assert measure(scenario_sequence("zigzag", k)) == pytest.approx(
                np.sqrt(2), abs=1e-12)

    def test_amplitude(self):
        for k in (2, 8):
            zz = scenario_sequence("zigzag", k)
            assert zz.vertices[:, 1].max() == pytest.approx(1 / (2 * k))

    def test_documented_hypotheses(self):
        fam = get_family("zigzag")
        assert fam.hausdorff_holds and not fam.mass_holds and fam.filling_holds


class TestGraphDecay:
    def test_mass_tends_to_one(self):
        masses = [measure(scenario_sequence("graph_decay", k)) for k in (1, 4, 16, 64)]
        assert masses == sorted(masses, reverse=True)
        assert abs(masses[-1] - 1.0) < 1e-4

    def test_amplitude_decay(self):
        g = scenario_sequence("graph_decay", 8)
        assert np.abs(g.vertices[:, 1]).max() <= 1 / 64 + 1e-12


class TestYConeApprox:
    def test_vertex_jitter_decays(self):
        for k in (1, 4, 16):
            e = scenario_sequence("ycone_approx", k)
            jitter = (0.25 / k) * np.array([0.6, 0.8])
            # the jittered junction is a vertex of every arm
            d = np.linalg.norm(e.vertices - jitter, axis=1).min()
            assert d == pytest.approx(0.0, abs=1e-12)
            assert np.linalg.norm(jitter) == pytest.approx(0.25 / k)

    def test_mass_tends_to_three(self):
        m64 = measure(scenario_sequence("ycone_approx", 64))
        assert m64 == pytest.approx(3.0, abs=0.02)

    def test_density_three_halves_at_limit_vertex(self):
        from varifoldlab.varifold import density_report, var_of_set
        e = scenario_sequence("ycone_approx", 64)
        v = var_of_set(e, 8)
        rep = density_report(v, np.zeros(2), [0.5, 0.25])
        assert np.allclose(rep.ratios, 1.5, atol=0.05)


class TestShrinkingBump:
    def test_mass_formula(self):
        for k in (1, 2, 8):
            e = scenario_sequence("shrinking_bump", k)
            w = 0.25 / k
            expected = 1.0 - 2 * w + 2 * np.sqrt(2) * w
            assert measure(e) == pytest.approx(expected, abs=1e-12)

    def test_limit_is_segment(self):
        lim = get_family("shrinking_bump").limit()
        assert measure(lim) == pytest.approx(1.0, abs=1e-12)


class TestCantor4:
    def test_iterate_counts(self):
        for k in (1, 2, 3):
            cloud = cantor4_set(k)
            assert isinstance(cloud, PointCloudSet)
            assert len(cloud.points) == 4 ** k
            assert cloud.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_points_in_unit_square(self):
        cloud = cantor4_set(4)
        assert cloud.points.min() >= 0.0
        assert cloud.points.max() <= 1.0

    def test_self_similar_spread(self):
        cloud = cantor4_set(3)
        # quadrant populations are equal by construction
        for qx in (0, 1):
            for qy in (0, 1):
                mask = ((cloud.points[:, 0] > 0.5) == qx) & ((cloud.points[:, 1] > 0.5) == qy)
                assert mask.sum() == 4 ** 2


class TestEscape:
    def test_constant_shift(self):
        a = scenario_sequence("escape", 1)
        b = scenario_sequence("escape", 9)
        assert np.array_equal(a.vertices, b.vertices)
        assert a.vertices[:, 0].min() == pytest.approx(2.0)


class TestStaticFamilies:
    def test_segment_and_ycone(self):
        assert measure(segment_set(32)) == pytest.approx(1.0)
        assert measure(ycone_set(32)) == pytest.approx(3.0)

    def test_disk_family(self):
        d = scenario_sequence("disk", 1)
        assert d.dim == 2 and d.ambient_dim == 3
        assert measure(d) == pytest.approx(np.pi, abs=5e-3)

    def test_domains_contain_sets(self):
        for name, fam in FAMILIES.items():
            e = fam.make(2)
            pts = e.vertices if isinstance(e, SimplicialSet) else e.points
            inside = np.linalg.norm(pts - fam.domain.center, axis=1) <= fam.domain.radius
            assert inside.all(), name
