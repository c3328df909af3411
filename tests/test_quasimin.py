import numpy as np
import pytest

from varifoldlab.quasimin import (DEFORMATION_NAMES, Deformation, GaugeFunction,
                                  make_deformation, qm_audit, qm_gap,
                                  semicontinuity_check)
from varifoldlab.scenarios import scenario_sequence, segment_set, ycone_set
from varifoldlab.sets import Ball

H0 = GaugeFunction()  # constant 0

SEG_DOMAIN = Ball(np.array([0.5, 0.0]), 0.5)   # endpoints on the boundary
Y_DOMAIN = Ball(np.zeros(2), 1.0)              # arm tips on the boundary


class TestGaugeFunction:
    def test_constant(self):
        h = GaugeFunction(kind="constant", h0=0.3)
        assert h(0.0) == 0.3 and h(5.0) == 0.3
        assert h.zero_plus == 0.3

    def test_step(self):
        h = GaugeFunction(kind="step", h0=0.1, delta=0.5)
        assert h(0.4) == 0.1
        assert h(0.5) == np.inf

    def test_power_is_a_gauge(self):
        h = GaugeFunction(kind="power", h0=2.0, delta=1.0, exponent=0.5)
        assert h.zero_plus == 0.0
        assert h(0.25) == pytest.approx(1.0)
        assert h(1.0) == np.inf

    def test_nondecreasing_enforced(self):
        with pytest.raises(ValueError):
            GaugeFunction(kind="power", h0=1.0, exponent=-1.0)
        with pytest.raises(ValueError):
            GaugeFunction(kind="constant", h0=-0.1)


class TestDeformationRegistry:
    def test_identity_outside_ball_enforced(self):
        ball = Ball(np.zeros(2), 0.5)
        with pytest.raises(ValueError):
            Deformation("bad", ball, lambda p: p + 1.0)

    def test_registry_builds(self):
        e = segment_set(32)
        ball = Ball(np.array([0.5, 0.1]), 0.2)
        for name in DEFORMATION_NAMES:
            d = make_deformation(name, ball, e)
            assert d is None or d.name == name

    def test_radial_collapse_skips_center_on_set(self):
        e = segment_set(32)
        on_set = Ball(np.array([0.5, 0.0]), 0.2)
        assert make_deformation("radial_collapse", on_set, e) is None
        off_set = Ball(np.array([0.5, 0.05]), 0.2)
        assert make_deformation("radial_collapse", off_set, e) is not None

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_deformation("warp", Ball(np.zeros(2), 1.0), segment_set(2))

    def test_tangent_project_fixes_straight_segments(self):
        e = segment_set(64)
        ball = Ball(np.array([0.5, 0.0]), 0.2)
        d = make_deformation("tangent_project", ball, e)
        pts = e.vertices
        assert np.linalg.norm(d.phi(pts) - pts, axis=1).max() < 1e-12


class TestQMGap:
    def test_identity_gap_is_gauge_term(self):
        e = segment_set(16)
        ball = Ball(np.array([0.5, 0.0]), 0.25)
        d = make_deformation("identity", ball, e)
        h = GaugeFunction(h0=0.2)
        assert qm_gap(e, 1.0, h, d) == 0.2 * 0.25  # h(r) * r^m, exactly
        assert qm_gap(e, 1.0, H0, d) == 0.0

    def test_segment_minimal_over_registry(self):
        e = segment_set(64)
        rep = qm_audit(e, 1.0, H0, SEG_DOMAIN)
        assert rep.min_gap >= -1e-9
        assert rep.passes

    def test_ycone_minimal_over_registry(self):
        e = ycone_set(64)
        rep = qm_audit(e, 1.0, H0, Y_DOMAIN)
        assert rep.min_gap >= -1e-9

    def test_zigzag_flatten_negative(self):
        e = scenario_sequence("zigzag", 4)
        ball = Ball(np.array([0.5, 0.0]), 0.15)
        d = make_deformation("tooth_flatten", ball, e)
        g = qm_gap(e, 1.0, H0, d, detail=True)
        assert g.gap < -0.01
        # flattening loses the sqrt(2) factor but not more
        assert g.image_measure >= g.source_measure / np.sqrt(2) - 0.05

    def test_zigzag_fails_m1_passes_m2(self):
        e = scenario_sequence("zigzag", 4)
        dom = Ball(np.array([0.5, 0.0]), 0.5)
        assert qm_audit(e, 1.0, H0, dom).min_gap < -1e-9
        assert qm_audit(e, 2.0, H0, dom).min_gap >= -1e-9

    def test_monotone_in_m_and_h(self):
        e = scenario_sequence("zigzag", 3)
        ball = Ball(np.array([0.5, 0.05]), 0.2)
        for name in DEFORMATION_NAMES:
            d = make_deformation(name, ball, e)
            if d is None:
                continue
            g1 = qm_gap(e, 1.0, H0, d)
            g2 = qm_gap(e, 1.5, H0, d)
            g3 = qm_gap(e, 1.5, GaugeFunction(h0=0.1), d)
            assert g2 >= g1 - 1e-15
            assert g3 >= g2 - 1e-15

    def test_image_bounded_by_lipschitz_power(self):
        e = scenario_sequence("zigzag", 4)
        ball = Ball(np.array([0.5, 0.05]), 0.2)
        for name in DEFORMATION_NAMES:
            d = make_deformation(name, ball, e)
            if d is None:
                continue
            g = qm_gap(e, 1.0, H0, d, detail=True)
            if g.moved_pieces:
                bound = (g.lipschitz ** e.dim) * g.source_measure
                assert g.image_measure <= bound * (1 + 1e-6) + 1e-12

    def test_domain_containment_enforced(self):
        e = segment_set(16)
        ball = Ball(np.array([0.7, 0.0]), 0.45)  # closure pokes out of the domain
        d = make_deformation("identity", ball, e)
        with pytest.raises(ValueError):
            qm_gap(e, 1.0, H0, d, domain=SEG_DOMAIN)
        # a domain in another space
        d = make_deformation("identity", Ball(np.array([0.5, 0.0]), 0.1), e)
        for domain in (Ball(np.array([0.5]), 2.0), Ball(np.array([0.5, 0.0, 0.0]), 2.0)):
            with pytest.raises(ValueError, match="ambient dimensions differ"):
                qm_gap(e, 1.0, H0, d, domain=domain)

    def test_m_validation(self):
        e = segment_set(4)
        d = make_deformation("identity", Ball(np.array([0.5, 0.0]), 0.1), e)
        with pytest.raises(ValueError):
            qm_gap(e, 0.5, H0, d)


class TestQMAuditReport:
    def test_report_structure(self):
        e = segment_set(32)
        rep = qm_audit(e, 1.0, H0, SEG_DOMAIN, registry=("identity", "vertex_snap"))
        assert all(row[2] in ("identity", "vertex_snap") for row in rep.rows)
        d = rep.to_dict()
        assert "min_gap" in d and "rows" in d


class TestSemicontinuity:
    OPENS = [Ball(np.array([0.5, 0.0]), 0.4)]
    COMPACTS = [Ball(np.array([0.5, 0.0]), 0.4)]
    KS = [1, 2, 4, 8, 16, 32, 64]  # tail must be deep enough for the 0.01 tolerance

    def test_graph_decay_passes_both(self):
        rep = semicontinuity_check(
            {k: scenario_sequence("graph_decay", k) for k in self.KS},
            segment_set(256), self.OPENS, self.COMPACTS, 1.0, H0)
        assert rep.lower_semicontinuity_pass
        assert rep.upper_bound_pass

    def test_zigzag_upper_bound_fails_m1(self):
        rep = semicontinuity_check(
            {k: scenario_sequence("zigzag", k) for k in self.KS},
            segment_set(256), self.OPENS, self.COMPACTS, 1.0, H0)
        assert rep.lower_semicontinuity_pass       # mass only goes up
        assert not rep.upper_bound_pass            # sqrt(2) x chord > chord

    def test_constant_sequence_trivially_passes(self):
        rep = semicontinuity_check(
            {k: segment_set(64) for k in self.KS}, segment_set(64),
            self.OPENS, self.COMPACTS, 1.0, H0)
        assert rep.lower_semicontinuity_pass and rep.upper_bound_pass

    def test_gauge_term_loosens_bound(self):
        rep = semicontinuity_check(
            {k: scenario_sequence("zigzag", k) for k in self.KS},
            segment_set(256), self.OPENS, self.COMPACTS, 1.0,
            GaugeFunction(h0=1.0))
        assert rep.upper_bound_pass  # (1 + 1) * 1 * chord now dominates
