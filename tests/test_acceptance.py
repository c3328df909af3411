"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest

from varifoldlab.geometry import (Plane, axis_plane, grassmann_distance,
                                  haar_sample, tangent_jacobian)
from varifoldlab.integrands import get_integrand, semi_ellipticity_audit
from varifoldlab.lab import ScenarioSpec, run_scenario
from varifoldlab.metrics import bl_distance, projected_mass
from varifoldlab.quasimin import (DEFORMATION_NAMES, GaugeFunction,
                                  make_deformation, qm_audit, qm_gap)
from varifoldlab.scenarios import disk_set, scenario_sequence, segment_set, ycone_set
from varifoldlab.sets import Ball, SimplicialSet, measure, restrict
from varifoldlab.varifold import DiscreteVarifold, density_report, var_of_set


def report(num, passed, detail=""):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {detail}")
    return passed


def brute_force_distance(q, t, dirs):
    v = dirs @ q.frame.T
    w = v - v @ t.projection.T
    return float(np.linalg.norm(w, axis=1).max())


def test_criterion_1_grassmann_identity_suite():
    rng = np.random.default_rng(101)
    n_dirs = 10_000
    ang = np.arange(n_dirs) * (2 * np.pi / n_dirs)
    dirs_by_m = {1: np.array([[1.0], [-1.0]]),
                 2: np.column_stack([np.cos(ang), np.sin(ang)])}
    t0 = time.perf_counter()
    worst_dist, worst_jac = 0.0, 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, min(2, n - 1) + 1))
        q = Plane.from_vectors(rng.standard_normal((n, m)))
        t = Plane.from_vectors(rng.standard_normal((n, m)))
        d = grassmann_distance(q, t)
        oracle = brute_force_distance(q, t, dirs_by_m[m])
        worst_dist = max(worst_dist, abs(d - oracle))
        j = tangent_jacobian(q, t)
        worst_jac = max(worst_jac, j * j - (1.0 - d * d), d * d - 2.0 * (1.0 - j))
    elapsed = time.perf_counter() - t0
    passed = worst_dist < 1e-3 and worst_jac < 1e-9 and elapsed < 10.0
    assert report(1, passed,
                  f"1000 pairs, max |distance - oracle| {worst_dist:.2e} < 1e-3, "
                  f"max jacobian-inequality violation {worst_jac:.2e} < 1e-9, "
                  f"{elapsed:.1f}s < 10s")


def test_criterion_2_projected_mass_identity():
    rng = np.random.default_rng(102)
    # identity case, m = 1: the chord of T through x projects to length 2
    errs = []
    for _ in range(10):
        a = rng.random() * np.pi
        t = Plane.from_span([np.cos(a), np.sin(a)])
        x = rng.standard_normal(2) * 0.5
        r = 0.3 + rng.random()
        pts = x + np.linspace(-2 * r, 2 * r, 65)[:, None] * t.frame[:, 0][None, :]
        chord = SimplicialSet.from_polyline(pts)
        errs.append(abs(projected_mass(chord, x, r, t) - 2.0))
    # identity case, m = 2: the disk of T through x projects to area pi
    for seed in range(3):
        t = haar_sample(3, 2, 1, seed)[0]
        x = rng.standard_normal(3) * 0.3
        r = 0.5 + rng.random()
        disk = disk_set(center=x, radius=r, plane=t, angular=256,
                        ring_radii=[r / 2, r])
        errs.append(abs(projected_mass(disk, x, r, t) - np.pi))
    identity_err = max(errs)

    # projection never exceeds the normalized clipped measure
    worst_excess = -np.inf
    count = 0
    for _ in range(160):  # m = 1 random polylines
        e = SimplicialSet.from_polyline(rng.standard_normal((6, 2)))
        x = rng.standard_normal(2) * 0.3
        r = 0.3 + rng.random()
        t = haar_sample(2, 1, 1, rng)[0]
        lhs = projected_mass(e, x, r, t)
        rhs = measure(restrict(e, Ball(x, r))) / r
        worst_excess = max(worst_excess, lhs - rhs)
        count += 1
    for _ in range(40):  # m = 2 random fans
        apex = rng.standard_normal(3) * 0.3
        ring = apex + rng.standard_normal((7, 3))
        tris = [np.array([apex, ring[i], ring[i + 1]]) for i in range(6)]
        e = SimplicialSet.from_triangles(tris)
        x = rng.standard_normal(3) * 0.3
        r = 0.4 + rng.random()
        t = haar_sample(3, 2, 1, rng)[0]
        lhs = projected_mass(e, x, r, t)
        rhs = measure(restrict(e, Ball(x, r))) / r ** 2
        worst_excess = max(worst_excess, lhs - rhs)
        count += 1
    passed = identity_err < 1e-3 and worst_excess <= 1e-9 and count == 200
    assert report(2, passed,
                  f"identity error {identity_err:.2e} < 1e-3; max excess over "
                  f"clipped measure {worst_excess:.2e} <= 1e-9 on {count} scenarios")


def test_criterion_3_positive_scenario_graph_decay():
    t0 = time.perf_counter()
    spec = ScenarioSpec(family="graph_decay", k_schedule=(1, 2, 4, 8, 16, 32, 64),
                        atoms=256)
    rep = run_scenario(spec)
    elapsed = time.perf_counter() - t0
    d_final = max(rep.rows[-1]["hausdorff"].values())
    d_first = max(rep.rows[0]["hausdorff"].values())
    bls = [row["bl"] for row in rep.rows]
    mass_err = abs(rep.rows[-1]["measure"] - 1.0)
    checks = {
        "hausdorff -> 0": d_final < 0.01 and d_final < 0.05 * d_first,
        "mass": mass_err < 0.01,
        "filling HOLDS": rep.filling_verdict == "HOLDS",
        "bl decreasing": all(b2 < b1 for b1, b2 in zip(bls, bls[1:])),
        "bl final < 0.02": bls[-1] < 0.02,
        ">= 256 atoms": all(row["atoms"] >= 256 for row in rep.rows),
        "runtime < 60s": elapsed < 60.0,
    }
    passed = all(checks.values())
    assert report(3, passed,
                  f"d_final {d_final:.4f}, |mass-1| {mass_err:.4f}, "
                  f"bl final {bls[-1]:.4f}, {elapsed:.1f}s; "
                  + ", ".join(k for k, v in checks.items() if not v))


def test_criterion_4_hypothesis_necessity_counterexample():
    spec = ScenarioSpec(family="zigzag", k_schedule=(1, 2, 4, 8, 16, 32, 64),
                        atoms=256)
    rep = run_scenario(spec)
    d_at_largest_r = [row["hausdorff"]["0.5"] for row in rep.rows]
    hausdorff_ok = (all(b < a for a, b in zip(d_at_largest_r, d_at_largest_r[1:]))
                    and d_at_largest_r[-1] < 0.05)
    mass_ok = all(abs(row["measure"] - np.sqrt(2)) < 1e-12 for row in rep.rows)
    dict_ok = all(row["bl_dictionary"] >= 0.25 for row in rep.rows if row["k"] >= 4)
    bl_ok = all(row["bl"] >= row["bl_dictionary"] - 1e-9 for row in rep.rows)
    passed = hausdorff_ok and mass_ok and dict_ok and bl_ok and not rep.flags["mass"]
    assert report(4, passed,
                  f"d(r=0.5) {d_at_largest_r[0]:.3f} -> {d_at_largest_r[-1]:.3f}; "
                  f"mass = sqrt(2) for every k; dictionary lower bound "
                  f">= {min(row['bl_dictionary'] for row in rep.rows):.3f}")


def test_criterion_5_density_suite():
    radii = [0.25, 0.125, 0.0625]
    seg = SimplicialSet.from_polyline(np.linspace([-1.0, 0.0], [1.0, 0.0], 1025))
    seg_ratios = density_report(var_of_set(seg, 1), np.zeros(2), radii).ratios
    disk = disk_set(radius=1.0, angular=96,
                    ring_radii=[2.0 ** -j for j in range(5, -1, -1)])
    plane_ratios = density_report(var_of_set(disk, 1), np.zeros(3), radii).ratios
    y_ratios = density_report(var_of_set(ycone_set(1024), 1), np.zeros(2), radii).ratios
    seg_ok = np.allclose(seg_ratios, 1.0, atol=0.02)
    plane_ok = np.allclose(plane_ratios, 1.0, atol=0.02)
    y_ok = np.allclose(y_ratios, 1.5, atol=0.03)
    passed = seg_ok and plane_ok and y_ok
    assert report(5, passed,
                  f"segment {np.round(seg_ratios, 4).tolist()} (1 +- 0.02), "
                  f"plane {np.round(plane_ratios, 4).tolist()} (1 +- 0.02), "
                  f"Y vertex {np.round(y_ratios, 4).tolist()} (1.5 +- 0.03)")


def test_criterion_6_energy_variant():
    h_line = axis_plane(2, [0])
    aq = get_integrand("aniso_quadratic")
    audit = semi_ellipticity_audit(aq, np.zeros(2), h_line, scan_haar=16, seed=0)
    elliptic_ok = (audit.all_semi_nonnegative and audit.all_elliptic_nonnegative
                   and not audit.certificates)

    spec = ScenarioSpec(family="graph_decay", k_schedule=(1, 2, 4, 8, 16, 32, 64),
                        atoms=256, integrand="aniso_quadratic")
    rep = run_scenario(spec)
    energy_err = abs(rep.rows[-1]["energy"] - rep.limit_energy)
    bls = [row["bl"] for row in rep.rows]
    conclusion_ok = rep.flags["conclusion"] and bls[-1] < 0.02

    bad = get_integrand("aniso_nonelliptic")
    audit_bad = semi_ellipticity_audit(bad, np.zeros(2), h_line, scan_haar=16, seed=0)
    certificate_ok = len(audit_bad.certificates) >= 1

    passed = elliptic_ok and energy_err < 0.01 and conclusion_ok and certificate_ok
    assert report(6, passed,
                  f"elliptic margins all >= 0: {elliptic_ok}; |energy gap| "
                  f"{energy_err:.4f} < 0.01; bl conclusion {conclusion_ok}; "
                  f"{len(audit_bad.certificates)} negative-margin certificates")


def test_criterion_7_qm_audit():
    h0 = GaugeFunction()
    seg = segment_set(64)
    seg_dom = Ball(np.array([0.5, 0.0]), 0.5)
    seg_rep = qm_audit(seg, 1.0, h0, seg_dom)

    ycone = ycone_set(64)
    y_rep = qm_audit(ycone, 1.0, h0, Ball(np.zeros(2), 1.0))

    zz = scenario_sequence("zigzag", 4)
    zz_dom = Ball(np.array([0.5, 0.0]), 0.5)
    zz_m1 = qm_audit(zz, 1.0, h0, zz_dom)
    zz_m2 = qm_audit(zz, 2.0, h0, zz_dom)

    # exact monotonicity in M and h from the gap formula
    ball = Ball(np.array([0.5, 0.05]), 0.2)
    monotone = True
    for name in DEFORMATION_NAMES:
        d = make_deformation(name, ball, zz)
        if d is None:
            continue
        g1 = qm_gap(zz, 1.0, h0, d)
        g2 = qm_gap(zz, 2.0, h0, d)
        g3 = qm_gap(zz, 2.0, GaugeFunction(h0=0.3), d)
        monotone &= (g2 >= g1) and (g3 >= g2)

    checks = {
        "segment M=1": seg_rep.min_gap >= -1e-9,
        "ycone M=1": y_rep.min_gap >= -1e-9,
        "zigzag M=1 fails": zz_m1.min_gap < -1e-9,
        "zigzag M=2 passes": zz_m2.min_gap >= -1e-9,
        "monotone in M, h": monotone,
    }
    passed = all(checks.values())
    assert report(7, passed,
                  f"segment min gap {seg_rep.min_gap:.2e}, ycone {y_rep.min_gap:.2e}, "
                  f"zigzag M=1 {zz_m1.min_gap:.4f} / M=2 {zz_m2.min_gap:.2e}; "
                  + ", ".join(k for k, v in checks.items() if not v))


def test_criterion_8_metric_sanity():
    rng = np.random.default_rng(108)

    def random_varifold(count):
        pos = rng.standard_normal((count, 2))
        frames = np.stack([p.frame for p in haar_sample(2, 1, count, rng)])
        return DiscreteVarifold(2, 1, pos, frames, rng.random(count) + 0.1)

    sym_worst = 0.0
    ident_worst = 0.0
    for _ in range(100):
        v = random_varifold(int(rng.integers(2, 6)))
        w = random_varifold(int(rng.integers(2, 6)))
        sym_worst = max(sym_worst,
                        abs(bl_distance(v, w).value - bl_distance(w, v).value))
        ident_worst = max(ident_worst, bl_distance(v, v).value)
    tri_worst = -np.inf
    for _ in range(25):
        a, b, c = (random_varifold(3) for _ in range(3))
        tri_worst = max(tri_worst, bl_distance(a, c).value
                        - bl_distance(a, b).value - bl_distance(b, c).value)

    h = axis_plane(2, [0])
    diag = Plane.from_span([1.0, 1.0])
    one = lambda x, fr: DiscreteVarifold(2, 1, np.array([x]), np.array([fr]),
                                         np.array([1.0]))
    move = bl_distance(one([0.0, 0.0], h.frame), one([0.3, 0.0], h.frame)).value
    tilt = bl_distance(one([0.0, 0.0], h.frame), one([0.0, 0.0], diag.frame)).value
    closed_ok = (abs(move - 0.3) < 1e-7
                 and abs(tilt - grassmann_distance(h, diag)) < 1e-7)

    passed = (sym_worst < 1e-7 and ident_worst < 1e-7 and tri_worst < 1e-7
              and closed_ok)
    assert report(8, passed,
                  f"symmetry {sym_worst:.2e}, identity {ident_worst:.2e}, "
                  f"triangle violation {tri_worst:.2e} (all < 1e-7); "
                  f"closed forms: move {move:.7f}, tilt {tilt:.7f}")
