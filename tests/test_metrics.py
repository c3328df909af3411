import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from varifoldlab import metrics
from varifoldlab.geometry import (Plane, axis_plane, grassmann_distance,
                                  grassmann_distance_matrix, haar_sample)
from varifoldlab.lab import ScenarioSpec, _var_with_target_atoms
from varifoldlab.metrics import (CG_SEED_PAIRS, DENSE_FIRST_COLS, SUP_REFINE_TOL,
                                 _column_generation, _cost_matrix, _lattice, _lp_certificate,
                                 _max_edge_length, _one_sided_sup, _plane_columns,
                                 _reduced_costs, _reference_planes, _sample_points,
                                 bl_distance, filling_check, hausdorff_local,
                                 hausdorff_local_report, projected_mass)
from varifoldlab.sets import distance_to_set
from varifoldlab.scenarios import (FAMILIES, cantor4_set, disk_set, get_family,
                                   scenario_sequence, segment_set)
from varifoldlab.sets import Ball, PointCloudSet, SimplicialSet, _clip, measure, restrict
from varifoldlab.varifold import DiscreteVarifold, var_of_set


def atoms(*triples, n=2, m=1):
    pos = np.array([t[0] for t in triples], dtype=float)
    frames = np.array([t[1] for t in triples], dtype=float)
    masses = np.array([t[2] for t in triples], dtype=float)
    return DiscreteVarifold(n, m, pos, frames, masses)


def random_varifold(rng, count, n=2, m=1, scale=1.0):
    pos = rng.standard_normal((count, n)) * scale
    frames = np.stack([p.frame for p in haar_sample(n, m, count, rng).planes])
    masses = rng.random(count) + 0.1
    return DiscreteVarifold(n, m, pos, frames, masses)


H = axis_plane(2, [0])


class TestHausdorffLocal:
    def test_self_zero(self):
        seg = segment_set(16)
        assert hausdorff_local(seg, seg, np.array([0.5, 0.0]), 0.5) == 0.0

    def test_parallel_shift(self):
        seg = segment_set(64)
        shifted = SimplicialSet(2, 1, seg.vertices + [0.0, 0.1], seg.simplices)
        d = hausdorff_local(seg, shifted, np.array([0.5, 0.0]), 0.5)
        assert d == pytest.approx(0.4, abs=1e-6)

    def test_zigzag_upper_bound_and_decay(self):
        seg = segment_set(64)
        x = np.array([0.5, 0.0])
        prev = np.inf
        for k in (4, 8, 16, 32):
            zz = scenario_sequence("zigzag", k)
            d = hausdorff_local(zz, seg, x, 0.5)
            amplitude = 1.0 / (2 * k)
            assert d <= 2 * (2 * amplitude) / 0.5  # two sided, both <= amplitude
            assert d < prev
            prev = d

    def test_symmetric(self):
        a = segment_set(32)
        b = scenario_sequence("zigzag", 4)
        x = np.array([0.5, 0.0])
        assert hausdorff_local(a, b, x, 0.5) == pytest.approx(
            hausdorff_local(b, a, x, 0.5), abs=1e-12)

    def test_empty_side_convention(self):
        seg = segment_set(8)
        far = SimplicialSet(2, 1, seg.vertices + [4.0, 0.0], seg.simplices)
        d = hausdorff_local(seg, far, np.array([0.5, 0.0]), 0.5)
        # far∩B is empty (sup 0 by convention); the worst clipped point of
        # seg is its left end, distance 4 from the shifted copy
        assert d == pytest.approx(4.0 / 0.5, abs=1e-9)

    def test_pointcloud_inputs(self):
        cloud = cantor4_set(3)
        d = hausdorff_local(cloud, cloud, np.array([0.5, 0.5]), 0.5)
        assert d == 0.0

    def test_mixed_cloud_vs_simplicial(self):
        cloud = cantor4_set(4)
        seg = segment_set(64)
        x = np.array([0.5, 0.0])
        d = hausdorff_local(cloud, seg, x, 0.5)
        assert 0.0 < d < 4.0
        assert d == pytest.approx(hausdorff_local(seg, cloud, x, 0.5), abs=1e-12)

    def test_parallel_disks_m2(self):
        delta = 0.05
        a = disk_set(radius=1.0, angular=64, ring_radii=[0.5, 1.0])
        b = SimplicialSet(3, 2, a.vertices + np.array([0.0, 0.0, delta]),
                          a.simplices)
        d = hausdorff_local(a, b, np.zeros(3), 0.5)
        assert d == pytest.approx(2 * delta / 0.5, abs=1e-6)

    def test_report_resolution(self):
        rep = hausdorff_local_report(segment_set(16), segment_set(16),
                                     np.array([0.5, 0.0]), 0.25)
        assert rep.resolution >= 0.0
        assert rep.value == 0.0

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            hausdorff_local(segment_set(2), segment_set(2), np.zeros(2), -1.0)


class TestBLDistance:
    def test_self_zero(self):
        v = atoms(([0.1, 0.2], H.frame, 1.0))
        assert bl_distance(v, v).value == pytest.approx(0.0, abs=1e-9)

    def test_two_atom_position_move(self):
        v = atoms(([0.0, 0.0], H.frame, 1.0))
        w = atoms(([0.3, 0.0], H.frame, 1.0))
        assert bl_distance(v, w).value == pytest.approx(0.3, abs=1e-7)

    def test_two_atom_plane_move(self):
        diag = Plane.from_span([1.0, 1.0])
        v = atoms(([0.0, 0.0], H.frame, 1.0))
        w = atoms(([0.0, 0.0], diag.frame, 1.0))
        expected = grassmann_distance(H, diag)
        assert bl_distance(v, w).value == pytest.approx(expected, abs=1e-7)

    def test_far_atoms_capped_by_slack(self):
        v = atoms(([0.0, 0.0], H.frame, 1.0))
        w = atoms(([10.0, 0.0], H.frame, 1.0))
        assert bl_distance(v, w).value == pytest.approx(2.0, abs=1e-7)

    def test_mass_difference_pays_slack(self):
        v = atoms(([0.0, 0.0], H.frame, 2.0))
        w = atoms(([0.0, 0.0], H.frame, 1.0))
        assert bl_distance(v, w).value == pytest.approx(1.0, abs=1e-7)

    def test_empty_side(self):
        v = atoms(([0.0, 0.0], H.frame, 1.5))
        empty = DiscreteVarifold.empty(2, 1)
        assert bl_distance(v, empty).value == pytest.approx(1.5, abs=1e-12)

    def test_symmetry_and_identity(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = random_varifold(rng, int(rng.integers(2, 6)))
            w = random_varifold(rng, int(rng.integers(2, 6)))
            assert abs(bl_distance(v, w).value - bl_distance(w, v).value) < 1e-7
        v = random_varifold(rng, 5)
        assert bl_distance(v, v).value < 1e-9

    def test_triangle_inequality(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            a = random_varifold(rng, 3)
            b = random_varifold(rng, 4)
            c = random_varifold(rng, 3)
            dab = bl_distance(a, b).value
            dbc = bl_distance(b, c).value
            dac = bl_distance(a, c).value
            assert dac <= dab + dbc + 1e-7

    def test_dimension_mismatch(self):
        v = atoms(([0.0, 0.0], H.frame, 1.0))
        w = DiscreteVarifold(3, 1, np.zeros((1, 3)),
                             np.array([[[1.0], [0.0], [0.0]]]), np.array([1.0]))
        with pytest.raises(ValueError):
            bl_distance(v, w)

    def test_dictionary_lower_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = random_varifold(rng, int(rng.integers(1, 6)))
            w = random_varifold(rng, int(rng.integers(1, 6)))
            lp = bl_distance(v, w, "exact").value
            lb = bl_distance(v, w, "dictionary").value
            assert lb <= lp + 1e-9

    def test_dictionary_separates_zigzag(self):
        vz = var_of_set(scenario_sequence("zigzag", 8), 16)
        vs = var_of_set(segment_set(256), 1)
        rep = bl_distance(vz, vs, "dictionary")
        assert rep.value >= 0.25
        assert rep.detail["dictionary_size"] >= 200

    def test_lp_certificate_brackets_value(self):
        rng = np.random.default_rng(3)
        for i in range(40):
            n, m = (2, 1) if i % 2 else (3, 2)
            v = random_varifold(rng, int(rng.integers(1, 30)), n, m)
            w = random_varifold(rng, int(rng.integers(1, 30)), n, m)
            rep = bl_distance(v, w)
            # the bounds are exact up to the rounding of their sums
            assert rep.detail["lp_lower"] <= rep.value + 1e-12
            assert rep.value <= rep.detail["lp_upper"] + 1e-12
            assert rep.detail["lp_upper"] - rep.detail["lp_lower"] < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nm=st.sampled_from([(2, 1), (3, 2)]),
           sizes=st.tuples(st.integers(2, 32), st.integers(2, 32)))
    def test_values_within_certificates(self, seed, nm, sizes):
        # the true value lies in both certificates, so the two directions
        # differ by at most the sum of their widths; the dictionary is a
        # lower bound on it
        rng = np.random.default_rng(seed)
        v, w = (random_varifold(rng, count, *nm) for count in sizes)
        forward, backward = bl_distance(v, w), bl_distance(w, v)
        widths = 0.0
        for rep in (forward, backward):
            lower, upper = rep.detail["lp_lower"], rep.detail["lp_upper"]
            assert lower - 1e-12 <= rep.value <= upper + 1e-12
            widths += upper - lower
        assert abs(forward.value - backward.value) <= widths + 1e-12
        assert bl_distance(v, w, "dictionary").value <= forward.detail["lp_upper"] + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nm=st.sampled_from([(2, 1), (3, 2)]),
           sizes=st.tuples(st.integers(1, 32), st.integers(1, 32), st.integers(1, 32)),
           translates=st.booleans())
    def test_triangle_inequality_within_certificates(self, seed, nm, sizes, translates):
        # each exact value lies within its certificate, so the inequality
        # holds up to the sum of the three widths; the translates u,
        # u + a e, u + (a + b) e make it an equality
        rng = np.random.default_rng(seed)
        u, v, w = (random_varifold(rng, count, *nm) for count in sizes)
        if translates:
            e = rng.standard_normal(nm[0])
            e /= np.linalg.norm(e)
            a, b = rng.uniform(0.0, 0.3, 2)
            v, w = (DiscreteVarifold(*nm, u.positions + t * e, u.frames, u.masses)
                    for t in (a, a + b))
        reps = [bl_distance(x, y) for x, y in ((u, v), (v, w), (u, w))]
        widths = sum(rep.detail["lp_upper"] - rep.detail["lp_lower"] for rep in reps)
        assert reps[2].value <= reps[0].value + reps[1].value + widths + 1e-12

    def test_lp_certificate_exposes_graph_decay_error(self):
        # graph_decay k=32 at 256 atoms: HiGHS stops at its absolute
        # tolerances, about 1.9e-5 below the value certified by re-solving
        # with masses scaled by 256, [0.00453728061195, 0.00453728061847]
        fam = get_family("graph_decay")
        limit = _var_with_target_atoms(fam.limit(), 256)
        rep = bl_distance(_var_with_target_atoms(fam.make(32), 256), limit)
        lower, upper = rep.detail["lp_lower"], rep.detail["lp_upper"]
        assert lower <= rep.value + 1e-12 and rep.value <= upper + 1e-12
        assert lower <= 0.00453728061195 and upper >= 0.00453728061847
        assert upper - rep.value > 1.5e-5

    def test_witness_plan_structure(self):
        v = atoms(([0.0, 0.0], H.frame, 1.0))
        w = atoms(([0.2, 0.0], H.frame, 1.0))
        rep = bl_distance(v, w)
        moved = sum(m for _, _, m in rep.witness)
        assert moved == pytest.approx(1.0, abs=1e-6)


def bl_exact_dense(v, w):
    """The exact BL value over every atom pair, with no mass cancelled:
    (value, lp_lower, lp_upper)."""
    mu, nu = v.masses, w.masses
    total = float(mu.sum() + nu.sum())
    if len(v) == 0 or len(w) == 0:
        return total, total, total
    cost = _cost_matrix(v, w)
    a, b = cost.shape
    c = (cost - 2.0).ravel()
    row = sp.kron(sp.eye(a, format="csr"), np.ones((1, b)), format="csr")
    col = sp.kron(np.ones((1, a)), sp.eye(b, format="csr"), format="csr")
    a_ub = sp.vstack([row, col], format="csr")
    b_ub = np.concatenate([mu, nu])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    assert res.status == 0
    value = total + float(res.fun)
    lower, upper = _lp_certificate(cost, mu, nu, res.x.reshape(a, b), res.ineqlin.marginals)
    return max(value, 0.0), lower, upper


def assert_matches_dense(v, w, rep=None):
    rep = bl_distance(v, w) if rep is None else rep
    value, lower, upper = bl_exact_dense(v, w)
    d = rep.detail
    for val in (rep.value, value):
        for lo, hi in ((d["lp_lower"], d["lp_upper"]), (lower, upper)):
            assert lo - 1e-12 <= val <= hi + 1e-12
    if d["lp_rows"]:
        assert d["lp_rows"] + d["cancelled_atoms"] == len(v) + len(w)
    return rep


def with_atoms(v, positions, frames, masses):
    return DiscreteVarifold(v.ambient_dim, v.dim, positions, frames, masses)


class TestBLCancellation:
    def test_identical_varifolds_exactly_zero(self):
        rng = np.random.default_rng(4)
        for n, m in ((2, 1), (3, 2)):
            v = random_varifold(rng, 7, n, m)
            flipped = with_atoms(v, v.positions, -v.frames, v.masses)
            for w in (v, flipped):
                rep = bl_distance(v, w)
                assert rep.value == 0.0
                assert rep.detail["lp_rows"] == rep.detail["lp_cols"] == 0
                assert rep.detail["cancelled_atoms"] == 14
                assert rep.detail["lp_lower"] == rep.detail["lp_upper"] == 0.0
                assert sorted(rep.witness) == [(i, i, float(v.masses[i])) for i in range(7)]
        disk = _var_with_target_atoms(get_family("disk").limit(), 256)
        assert bl_distance(disk, disk).value == 0.0

    def test_signed_zero_positions_stay_apart(self):
        v = atoms(([0.0, 0.3], H.frame, 1.0))
        w = atoms(([-0.0, 0.3], H.frame, 1.0))
        rep = assert_matches_dense(v, w)
        assert rep.detail["cancelled_atoms"] == 0 and rep.detail["lp_rows"] == 2
        assert rep.value == pytest.approx(0.0, abs=1e-12)

    def test_flipped_frame_cancels_position_alone_does_not(self):
        diag = Plane.from_span([1.0, 1.0])
        v = atoms(([0.2, 0.0], H.frame, 1.0), ([0.5, 0.5], H.frame, 0.5))
        w = atoms(([0.2, 0.0], -H.frame, 1.0), ([0.5, 0.5], diag.frame, 0.5))
        rep = assert_matches_dense(v, w)
        assert rep.detail["cancelled_atoms"] == 2 and rep.detail["lp_rows"] == 2
        assert rep.value == pytest.approx(0.5 * grassmann_distance(H, diag), abs=1e-12)

    def test_partial_cancellation_witness(self):
        v = atoms(([0.0, 0.0], H.frame, 2.0), ([0.0, 0.0], H.frame, 1.0),
                  ([0.4, 0.0], H.frame, 1.0))
        w = atoms(([0.1, 0.0], H.frame, 1.0), ([0.0, 0.0], H.frame, 2.5))
        rep = assert_matches_dense(v, w)
        # atom 1 of w cancels atom 0 of v and half of atom 1; the LP moves
        # the other half and half of atom 2 onto atom 0 of w
        assert rep.witness == [(0, 1, 2.0), (1, 0, pytest.approx(0.5, abs=1e-9)),
                               (1, 1, 0.5), (2, 0, pytest.approx(0.5, abs=1e-9))]
        assert rep.detail["cancelled_atoms"] == 2
        assert rep.value == pytest.approx(0.5 * 0.1 + 0.5 * 0.3 + 0.5, abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nm=st.sampled_from([(2, 1), (3, 2)]),
           shared=st.integers(1, 6), extra=st.tuples(st.integers(0, 4), st.integers(0, 4)),
           duplicate=st.booleans(), flip=st.booleans(), equal_masses=st.booleans(),
           signed_zero=st.booleans(), same_spot=st.booleans())
    def test_shared_atoms_match_dense_oracle(self, seed, nm, shared, extra, duplicate,
                                             flip, equal_masses, signed_zero, same_spot):
        # mu = sigma + alpha, nu = sigma + beta, both sides shuffled
        n, m = nm
        rng = np.random.default_rng(seed)
        sigma = random_varifold(rng, shared, n, m)
        sides = []
        for s, count in enumerate(extra):
            pos, fr, ms = sigma.positions.copy(), sigma.frames.copy(), sigma.masses.copy()
            if s == 1:
                if flip:
                    fr = -fr
                if not equal_masses:
                    ms = ms * rng.uniform(0.5, 1.5, len(ms))
                if signed_zero:
                    pos[0, 0] = -0.0
            elif signed_zero:
                pos[0, 0] = 0.0
            if duplicate and s == 0:
                pos, fr, ms = np.r_[pos, pos[:1]], np.r_[fr, fr[:1]], np.r_[ms, 0.3]
            if count:
                other = random_varifold(rng, count, n, m)
                # same positions as shared atoms, other planes
                opos = pos[rng.integers(0, len(pos), count)] if same_spot else other.positions
                pos, fr = np.r_[pos, opos], np.r_[fr, other.frames]
                ms = np.r_[ms, other.masses]
            order = rng.permutation(len(ms))
            sides.append(with_atoms(sigma, pos[order], fr[order], ms[order]))
        rep = assert_matches_dense(*sides)
        assert rep.detail["cancelled_atoms"] >= (0 if signed_zero else 1)

    def test_shrinking_bump_matches_dense_oracle(self):
        fam = get_family("shrinking_bump")
        v = _var_with_target_atoms(fam.make(2), 256)
        w = _var_with_target_atoms(fam.limit(), 256)
        rep = assert_matches_dense(v, w)
        assert rep.detail["cancelled_atoms"] == 128
        assert (rep.detail["lp_rows"], rep.detail["lp_cols"]) == (640, 256 * 384)


def column_generation_solution(v, w):
    """The column-generation helper on every atom pair, with no mass
    cancelled: (value, lp_lower, lp_upper, solve, cost)."""
    mu, nu = v.masses, w.masses
    cost = _cost_matrix(v, w)
    solve = _column_generation(cost, mu, nu)
    lower, upper = _lp_certificate(cost, mu, nu, solve.plan, solve.marginals)
    return max(float(mu.sum() + nu.sum()) + solve.objective, 0.0), lower, upper, solve, cost


class TestColumnGeneration:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nm=st.sampled_from([(2, 1), (3, 2)]),
           sizes=st.tuples(st.integers(2, 64), st.integers(2, 64)),
           scale=st.sampled_from([0.1, 1.0, 3.0]))
    def test_certificate_meets_dense_oracle(self, seed, nm, sizes, scale):
        rng = np.random.default_rng(seed)
        v, w = (random_varifold(rng, count, *nm, scale=scale) for count in sizes)
        value, lower, upper, solve, cost = column_generation_solution(v, w)
        d_value, d_lower, d_upper = bl_exact_dense(v, w)
        assert max(lower, d_lower) <= min(upper, d_upper) + 1e-12
        assert lower - 1e-12 <= d_value <= upper + 1e-12
        assert d_lower - 1e-12 <= value <= d_upper + 1e-12
        # the loop stopped because every pair that prices negative is a
        # column of the last LP, and the reported minimum is over all pairs
        reduced = _reduced_costs(cost, solve.marginals)
        assert solve.min_reduced_cost == reduced.min()
        assert solve.columns[reduced < 0.0].all()
        assert not solve.plan[~solve.columns].any()
        assert solve.rounds >= 1
        assert solve.edges >= min(CG_SEED_PAIRS * max(sizes), sizes[0] * sizes[1])

    def test_first_round_is_the_seed(self, monkeypatch):
        rng = np.random.default_rng(7)
        v, w = random_varifold(rng, 20), random_varifold(rng, 30)
        cost = _cost_matrix(v, w)
        widths = []
        real = metrics.linprog

        def spy(c, **kwargs):
            widths.append(len(c))
            return real(c, **kwargs)

        monkeypatch.setattr(metrics, "linprog", spy)
        solve = _column_generation(cost, v.masses, w.masses)
        seed = np.zeros(cost.shape, dtype=bool)
        for i, row in enumerate(cost):
            seed[i, np.argsort(row, kind="stable")[:CG_SEED_PAIRS]] = True
        for j, col in enumerate(cost.T):
            seed[np.argsort(col, kind="stable")[:CG_SEED_PAIRS], j] = True
        assert widths[0] == seed.sum()
        assert len(widths) == solve.rounds and widths[-1] == solve.edges
        assert solve.columns[seed].all()

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_default_rows_match_dense_oracle(self, family):
        # the first and the last k of the default schedule at the default
        # 256 atoms; a row whose atoms all cancel runs no LP to compare
        spec, fam = ScenarioSpec(family=family), get_family(family)
        limit = _var_with_target_atoms(fam.limit(), spec.atoms)
        for k in (spec.k_schedule[0], spec.k_schedule[-1]):
            v = _var_with_target_atoms(fam.make(k), spec.atoms)
            rep = bl_distance(v, limit)
            if rep.detail["lp_rows"] == 0:
                assert rep.value == rep.detail["lp_lower"] == rep.detail["lp_upper"]
            else:
                assert_matches_dense(v, limit, rep)

    def test_dense_attempt_only_from_dense_first_cols(self, monkeypatch):
        rng = np.random.default_rng(8)
        calls = []
        real = metrics.linprog

        def spy(c, **kwargs):
            calls.append((len(c), kwargs.get("options")))
            return real(c, **kwargs)

        monkeypatch.setattr(metrics, "linprog", spy)
        w = random_varifold(rng, 256)
        for count in (DENSE_FIRST_COLS // 256 - 1, DENSE_FIRST_COLS // 256):
            calls.clear()
            rep = bl_distance(random_varifold(rng, count), w)
            d = rep.detail
            assert d["lp_cols"] == count * 256
            dense = [options for cols, options in calls if cols == count * 256]
            if count * 256 < DENSE_FIRST_COLS:
                assert dense == [] and len(calls) == d["lp_rounds"] >= 1
            else:
                assert calls[0] == (DENSE_FIRST_COLS, {"maxiter": count + 256})
                assert len(calls) == 1 + d["lp_rounds"]
            assert d["lp_edges"] == calls[-1][0]
            assert d["lp_lower"] - 1e-12 <= rep.value <= d["lp_upper"] + 1e-12

    def test_dense_first_rule_keeps_graph_decay_values(self, monkeypatch):
        # the dense solve finishes within its budget at k=32 and k=64 and
        # keeps the values recorded before column generation. It takes 256
        # of its 512 iterations on both; past 384 the margin is too thin to
        # trust on another HiGHS build, where running out would silently
        # move both values past the benchmark's 1e-7 gate
        iterations = []
        real = metrics.linprog

        def spy(c, **kwargs):
            res = real(c, **kwargs)
            iterations.append((kwargs.get("options"), res.status, res.nit))
            return res

        monkeypatch.setattr(metrics, "linprog", spy)
        fam = get_family("graph_decay")
        limit = _var_with_target_atoms(fam.limit(), 256)
        for k, value in ((32, 0.004518509838810525), (64, 0.001131391263282655)):
            iterations.clear()
            rep = bl_distance(_var_with_target_atoms(fam.make(k), 256), limit)
            assert rep.value == value
            assert (rep.detail["lp_rounds"], rep.detail["lp_edges"]) == (0, 256 * 256)
            [(options, status, nit)] = iterations
            assert options == {"maxiter": 512} and status == 0
            assert nit <= 384, f"k={k}: {nit} of 512 iterations"

    def test_restricted_rounds_start_from_the_last_basis(self, monkeypatch):
        # graph_decay k=1 at 256 atoms: the budgeted round runs out, then
        # three restricted rounds; the last adds 2 pairs to the 14,201 of
        # the round before, so from that round's basis it is a few pivots
        calls = []
        real = metrics.linprog

        def spy(c, **kwargs):
            res = real(c, **kwargs)
            calls.append((c, kwargs, res))
            return res

        monkeypatch.setattr(metrics, "linprog", spy)
        fam = get_family("graph_decay")
        rep = bl_distance(_var_with_target_atoms(fam.make(1), 256),
                          _var_with_target_atoms(fam.limit(), 256))
        restricted = [(c, kwargs, res) for c, kwargs, res in calls if kwargs["options"] is None]
        assert len(restricted) == rep.detail["lp_rounds"] >= 3
        assert restricted[0][1]["basis"] is None
        for c, kwargs, _ in restricted[1:]:
            columns, rows = kwargs["basis"]
            assert len(columns) == len(c) and len(rows) == 512
        c, kwargs, warm = restricted[-1]
        cold = real(c, A_ub=kwargs["A_ub"], b_ub=kwargs["b_ub"])
        assert warm.status == cold.status == 0
        assert 10 * warm.nit < cold.nit, f"{warm.nit} warm against {cold.nit} cold iterations"


def transport_lp(cost, mu, nu, pairs):
    """The transshipment LP over the (rows, cols) pairs, as
    ``_column_generation`` builds it: c, A_ub, b_ub."""
    rows, cols = pairs
    a, k = len(mu), len(rows)
    a_ub = sp.csc_array((np.ones(2 * k), np.column_stack([rows, a + cols]).ravel(),
                         np.arange(0, 2 * k + 1, 2)), shape=(a + len(nu), k))
    return cost[rows, cols] - 2.0, a_ub, np.concatenate([mu, nu])


def assert_seam_matches_scipy(c, a_ub, b_ub, options=None):
    ours = metrics.linprog(c, A_ub=a_ub, b_ub=b_ub, options=options)
    theirs = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs",
                     options={"presolve": False, **(options or {})})
    assert ours.status == theirs.status
    if ours.status == 0:
        assert ours.fun == theirs.fun
        assert np.array_equal(ours.x, theirs.x)
        assert np.array_equal(ours.ineqlin.marginals, theirs.ineqlin.marginals)
    return ours


class TestLinprogSeam:
    """A cold ``metrics.linprog`` gives the bits of
    ``scipy.optimize.linprog`` with presolve off, which the values of the
    budgeted all-pairs round rest on."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), nm=st.sampled_from([(2, 1), (3, 2)]),
           sizes=st.tuples(st.integers(2, 64), st.integers(2, 64)),
           every_pair=st.booleans())
    def test_random_transport_lps(self, seed, nm, sizes, every_pair):
        rng = np.random.default_rng(seed)
        v, w = (random_varifold(rng, count, *nm) for count in sizes)
        cost = _cost_matrix(v, w)
        keep = np.ones(cost.shape, dtype=bool) if every_pair else rng.random(cost.shape) < 0.3
        keep[:, 0] = True  # no empty LP
        lp = transport_lp(cost, v.masses, w.masses, np.nonzero(keep))
        res = assert_seam_matches_scipy(*lp)
        # the returned basis is the optimal one: a solve started from it
        # takes no pivot
        again = metrics.linprog(*lp, basis=res.basis)
        assert again.status == 0 and again.nit == 0
        assert np.array_equal(again.basis[0], res.basis[0])

    def test_graph_decay_all_pairs_round(self):
        fam = get_family("graph_decay")
        v = _var_with_target_atoms(fam.make(32), 256)
        w = _var_with_target_atoms(fam.limit(), 256)
        lp = transport_lp(_cost_matrix(v, w), v.masses, w.masses,
                          np.nonzero(np.ones((256, 256), dtype=bool)))
        assert assert_seam_matches_scipy(*lp, options={"maxiter": 512}).nit == 256

    def test_budget_runs_out_on_both(self):
        rng = np.random.default_rng(9)
        v, w = random_varifold(rng, 64), random_varifold(rng, 64)
        lp = transport_lp(_cost_matrix(v, w), v.masses, w.masses,
                          np.nonzero(np.ones((64, 64), dtype=bool)))
        res = assert_seam_matches_scipy(*lp, options={"maxiter": 8})
        assert res.status == 1 and res.x is None


def test_plane_columns_keep_the_per_reference_bits():
    rng = np.random.default_rng(6)
    for n, m in ((2, 1), (3, 2)):
        frames = random_varifold(rng, 50, n, m).frames
        p, gd = _plane_columns(frames, n, m)
        assert np.array_equal(p, np.einsum("aij,akj->aik", frames, frames))
        for r, (_, ref) in enumerate(_reference_planes(n, m)):
            assert np.array_equal(gd[:, r],
                                  grassmann_distance_matrix(frames, ref.frame[None])[:, 0])


def test_dictionary_one_grassmann_call_per_side(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append(len(b))
        return grassmann_distance_matrix(a, b)

    monkeypatch.setattr(metrics, "grassmann_distance_matrix", counted)
    rng = np.random.default_rng(7)
    v, w = random_varifold(rng, 4, 3, 2), random_varifold(rng, 5, 3, 2)
    bl_distance(v, w, "dictionary")
    assert calls == [len(_reference_planes(3, 2))] * 2


def test_dictionary_keeps_its_bits():
    # value, witness and size recorded before the feature tables were plain
    # arrays: the zigzag pair, random pairs of equal total mass, and a pair
    # whose sides differ only in their planes
    def equal_mass(seed, n, m, scale):
        rng = np.random.default_rng(seed)
        v, w = random_varifold(rng, 20, n, m, scale), random_varifold(rng, 20, n, m, scale)
        return v, with_atoms(w, w.positions, w.frames, w.masses * (v.masses.sum() / w.masses.sum()))

    rng = np.random.default_rng(3)
    v, w = random_varifold(rng, 30, 3, 2), random_varifold(rng, 30, 3, 2)
    cases = [
        ((var_of_set(scenario_sequence("zigzag", 8), 16), var_of_set(segment_set(256), 1)),
         0.3333333333333333, "1 x gd_e0", 396),
        (equal_mass(0, 2, 1, 0.3), 1.2741468777884002, "1 x P00*P00", 396),
        (equal_mass(60, 2, 1, 1.0), 0.8780556083162481, "cos1_u3 x gd2_d01-", 396),
        (equal_mass(11, 3, 2, 3.0), 5.175299714249634, "cos2_u2 x gd_e01", 1564),
        ((v, with_atoms(v, v.positions, w.frames, v.masses)), 2.9440466374071113, "1 x P01", 1564),
    ]
    for pair, value, witness, size in cases:
        rep = bl_distance(*pair, "dictionary")
        assert (rep.value, rep.witness, rep.detail) == (value, witness, {"dictionary_size": size})


def sample_points_loop(corners, level):
    """The per-simplex sampling loop that _sample_points vectorizes, over an
    (S, m+1, n) corner array, with the sampling gap: the largest simplex
    diameter times the step."""
    pts = []
    gap = 0.0
    k = 2 ** level
    for spx in corners:
        if len(spx) == 1:
            pts.append(spx)
        elif len(spx) == 2:
            t = np.linspace(0.0, 1.0, k + 1)
            pts.append(spx[0] + t[:, None] * (spx[1] - spx[0]))
            gap = max(gap, float(np.linalg.norm(spx[1] - spx[0])) / k)
        else:
            a, b, c = spx
            for ii in range(k + 1):
                for jj in range(k + 1 - ii):
                    pts.append((a + (b - a) * (ii / k) + (c - a) * (jj / k))[None, :])
            diam = max(np.linalg.norm(b - a), np.linalg.norm(c - b), np.linalg.norm(a - c))
            gap = max(gap, float(diam) / k)
    if not pts:
        return np.zeros((0, corners.shape[2])), 0.0
    return np.concatenate(pts, axis=0), gap


@pytest.mark.parametrize("family", ["disk", "zigzag", "ycone_approx"])
def test_sample_points_match_loop(family):
    fam = get_family(family)
    for k in (1, 4):
        for r in fam.base_radii:
            corners = _clip(fam.make(k), Ball(np.asarray(fam.base_point, dtype=float), r))[0]
            for level in range(4):
                weights, new = _lattice(corners.shape[1] - 1, level)
                want = sample_points_loop(corners, level)[0]
                pts = _sample_points(corners, weights)
                assert np.array_equal(pts, want) and pts.shape == want.shape
                # the new weights alone give the loop's new points, bit for bit
                want = want[np.tile(new, len(corners))]
                pts = _sample_points(corners, weights[new])
                assert np.array_equal(pts, want) and pts.shape == want.shape


def test_point_cloud_lattice_has_no_new_points():
    # a 0-simplex is its one point at every level; its new weights are
    # empty and must give no points, not the base points again
    points = np.random.default_rng(5).standard_normal((7, 3))[:, None, :]
    for level in range(3):
        weights, new = _lattice(0, level)
        assert weights.shape == (1, 0) and not new.any()
        assert np.array_equal(_sample_points(points, weights), points[:, 0])
        assert _sample_points(points, weights[new]).shape == (0, 3)


def test_max_edge_length_is_the_one_dimensional_norm():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        edges = rng.standard_normal((2000, n)) * 10.0 ** rng.integers(-3, 3, (2000, 1))
        assert _max_edge_length(edges) == max(float(np.linalg.norm(e)) for e in edges)
    # a near tie: two edges whose lengths differ in the last bit
    e = np.array([0.6, 0.8, 1.3])
    f = e.copy()
    while np.linalg.norm(f) == np.linalg.norm(e):
        f[2] = np.nextafter(f[2], 2.0)
    longest = float(np.linalg.norm(f))
    assert np.nextafter(float(np.linalg.norm(e)), 2.0) == longest
    assert _max_edge_length(np.stack([e, f])) == _max_edge_length(np.stack([f, e])) == longest


def one_sided_sup_full(corners, target, r, samples):
    """The refinement loop measuring every lattice point of every level."""
    per = max(1, int(np.ceil(samples / len(corners))))
    level = max(0, int(np.ceil(np.log2(per))))
    prev = -np.inf
    for lv in range(level, level + 8):
        pts, gap = sample_points_loop(corners, lv)
        sup = float(distance_to_set(pts, target).max())
        if prev >= 0 and sup - prev < SUP_REFINE_TOL * r:
            break
        if len(pts) > 200_000:
            break
        prev = sup
    return sup, gap


@pytest.mark.parametrize("family", ["disk", "zigzag", "ycone_approx"])
def test_nested_sup_matches_full_recompute(family):
    fam = get_family(family)
    e, limit = fam.make(1 if family == "disk" else 4), fam.limit()
    for r in fam.base_radii:
        ball = Ball(np.asarray(fam.base_point, dtype=float), r)
        for source, target in ((e, limit), (limit, e)):
            corners = _clip(source, ball)[0]
            for samples in (1, 256):
                assert (_one_sided_sup(corners, target, r, samples)
                        == one_sided_sup_full(corners, target, r, samples))


def test_nested_sup_with_one_new_point():
    # one clipped segment at level 0 has two points; level 1 adds only its midpoint
    rng = np.random.default_rng(8)
    for _ in range(40):
        seg = rng.standard_normal((1, 2, 3))
        target = SimplicialSet.from_triangles(list(rng.standard_normal((6, 3, 3))))
        assert (_one_sided_sup(seg, target, 1.0, 1)
                == one_sided_sup_full(seg, target, 1.0, 1))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       source=st.sampled_from([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
       count=st.integers(1, 30), samples=st.sampled_from([1, 5, 32]),
       cloud_target=st.booleans())
def test_nested_sup_property(seed, source, count, samples, cloud_target):
    """On random corner arrays (point clouds as 0-simplices, segments in R^2
    and R^3, triangles in R^3) the nested sup with its early break is the
    sup and gap of measuring every lattice point of every level, bit for
    bit."""
    m, n = source
    rng = np.random.default_rng(seed)
    corners = rng.standard_normal((count, m + 1, n)) * rng.uniform(0.01, 3.0)
    ends = rng.standard_normal((int(rng.integers(1, 12)), n, n))
    target = (PointCloudSet(n, n - 1, ends.reshape(-1, n), np.ones(len(ends) * n))
              if cloud_target else
              (SimplicialSet.from_segments if n == 2 else SimplicialSet.from_triangles)(ends))
    r = float(rng.uniform(0.1, 2.0))
    assert (_one_sided_sup(corners, target, r, samples)
            == one_sided_sup_full(corners, target, r, samples))


class TestProjectedMass:
    def test_identity_m1(self):
        pm = projected_mass(segment_set(64), np.array([0.5, 0.0]), 0.25, H)
        assert pm == pytest.approx(2.0, abs=1e-12)

    def test_callers_center_stays_writable(self):
        x = np.array([0.5, 0.0])
        projected_mass(segment_set(64), x, 0.25, H)
        x[0] = 0.25

    def test_chord_at_angle(self):
        theta = np.pi / 3
        pts = np.linspace(-1, 1, 33)[:, None] * np.array([np.cos(theta), np.sin(theta)])
        e = SimplicialSet.from_polyline(pts)
        pm = projected_mass(e, np.zeros(2), 0.5, H)
        assert pm == pytest.approx(2 * np.cos(theta), abs=1e-9)

    def test_zigzag_projects_to_full_chord(self):
        x = np.array([0.5, 0.0])
        for k in (2, 8, 32):
            pm = projected_mass(scenario_sequence("zigzag", k), x, 0.5, H)
            assert pm == pytest.approx(2.0, abs=5e-3)

    def test_interval_union_not_mass(self):
        # two copies of the same segment must count once
        seg = segment_set(8)
        doubled = SimplicialSet.from_segments(
            [tuple(seg.simplex_points(i)) for i in range(len(seg.simplices))] * 2)
        pm = projected_mass(doubled, np.array([0.5, 0.0]), 0.25, H)
        assert pm == pytest.approx(2.0, abs=1e-12)

    def test_identity_m2(self):
        t = haar_sample(3, 2, 1, seed=4).planes[0]
        x = np.array([0.1, -0.2, 0.05])
        r = 0.7
        disk = disk_set(center=x, radius=r, plane=t, angular=256,
                        ring_radii=[r / 2, r])
        pm = projected_mass(disk, x, r, t)
        assert pm == pytest.approx(np.pi, abs=1e-3)

    def test_never_exceeds_clipped_measure(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            e = SimplicialSet.from_polyline(rng.standard_normal((6, 2)))
            x = rng.standard_normal(2) * 0.3
            r = float(rng.random() + 0.3)
            t = haar_sample(2, 1, 1, rng).planes[0]
            pm = projected_mass(e, x, r, t)
            bound = measure(restrict(e, Ball(x, r))) / r
            assert pm <= bound + 1e-9

    def test_empty_clip(self):
        pm = projected_mass(segment_set(4), np.array([9.0, 9.0]), 0.5, H)
        assert pm == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            projected_mass(segment_set(4), np.zeros(2), -1.0, H)
        with pytest.raises(ValueError):
            projected_mass(segment_set(4), np.zeros(2), 1.0, axis_plane(3, [0]))


class TestFillingCheck:
    X = np.array([0.5, 0.0])
    RADII = [0.5, 0.25, 0.125]
    KS = [1, 2, 4, 8, 16, 32, 64]

    def sets(self, family, ks):
        return {k: scenario_sequence(family, k) for k in ks}

    def test_graph_decay_holds(self):
        rep = filling_check(self.sets("graph_decay", self.KS), self.X, H, self.RADII)
        assert rep.verdict == "HOLDS"
        assert rep.holds

    def test_zigzag_holds(self):
        # the projections fill the chord even though the mass hypothesis fails
        rep = filling_check(self.sets("zigzag", self.KS), self.X, H, self.RADII)
        assert rep.verdict == "HOLDS"

    def test_escape_fails(self):
        rep = filling_check(self.sets("escape", [1, 2, 4]), self.X, H, self.RADII)
        assert rep.verdict == "FAILS"
        assert not rep.holds

    def test_table_complete(self):
        rep = filling_check(self.sets("graph_decay", [1, 2]), self.X, H, [0.5, 0.25])
        assert len(rep.rows) == 4

    def test_radii_validation(self):
        with pytest.raises(ValueError):
            filling_check(self.sets("zigzag", [1, 2]), self.X, H, [0.1, 0.5])

    def test_no_sets_rejected(self):
        with pytest.raises(ValueError, match="filling_check needs at least one set"):
            filling_check({}, self.X, H, self.RADII)
