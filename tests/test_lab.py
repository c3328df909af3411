import dataclasses
import json
import subprocess
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from varifoldlab import cli, lab, metrics, quasimin, sets
from varifoldlab.lab import ScenarioSpec, run_scenario, spearman_rank
from varifoldlab.quasimin import GaugeFunction
from varifoldlab.scenarios import FAMILIES, segment_set
from varifoldlab.sets import PointCloudSet, SimplicialSet, save_set
from varifoldlab.varifold import save_varifold, var_of_set


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "varifoldlab", *args],
                          capture_output=True, text=True)


class TestSpearman:
    def test_identical_order(self):
        assert spearman_rank([4, 3, 2, 1], [40, 30, 20, 10]) == pytest.approx(1.0)

    def test_reversed_order(self):
        assert spearman_rank([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)


class TestScenarioSpec:
    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(family="zigzag", k_schedule=(4, 2))
        with pytest.raises(ValueError):
            ScenarioSpec(family="zigzag", k_schedule=())

    def test_dict_roundtrip(self):
        spec = ScenarioSpec(family="zigzag", k_schedule=(1, 2, 4), m_factor=2.0,
                            gauge=GaugeFunction(h0=0.1), seed=7, atoms=128)
        back = ScenarioSpec.from_dict(spec.to_dict())
        assert back == spec

    def test_json_roundtrip(self, tmp_path):
        spec = ScenarioSpec(family="graph_decay", k_schedule=(1, 2))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert ScenarioSpec.from_json(path) == spec

    def test_schema_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict({"schema": 9, "family": "zigzag"})

    def test_null_delta_is_no_cutoff(self):
        spec = ScenarioSpec.from_dict({"family": "zigzag", "h": {"delta": None}})
        assert spec.gauge == GaugeFunction()
        assert spec.to_dict()["h"]["delta"] is None

    def test_readme_spec_loads(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("A scenario spec is JSON")[1].split("```json\n")[1].split("```")[0]
        spec = ScenarioSpec.from_dict(json.loads(block))
        assert spec.family == "graph_decay" and spec.atoms == 256
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec


class TestRunScenario:
    def test_graph_decay_small(self):
        spec = ScenarioSpec(family="graph_decay", k_schedule=(1, 2, 4, 8, 16),
                            atoms=64, samples=64)
        rep = run_scenario(spec)
        assert rep.flags["hausdorff"] and rep.flags["mass"]
        assert rep.flags["conclusion"]
        assert rep.filling_verdict == "HOLDS"
        assert rep.spearman_d_vs_bl == pytest.approx(1.0)
        assert len(rep.rows) == 5
        assert all(row["atoms"] >= 64 for row in rep.rows)

    def test_zigzag_small(self):
        # the hausdorff flag needs the full schedule to converge at the
        # smallest radius; atoms kept low to keep the LPs cheap
        spec = ScenarioSpec(family="zigzag", k_schedule=(1, 2, 4, 8, 16, 32, 64),
                            atoms=64, samples=64)
        rep = run_scenario(spec)
        assert rep.flags["hausdorff"]
        assert not rep.flags["mass"]
        assert not rep.flags["conclusion"]
        assert all(row["bl_dictionary"] >= 0.25 for row in rep.rows)

    def test_escape_flags(self):
        spec = ScenarioSpec(family="escape", k_schedule=(1, 2), atoms=32, samples=32)
        rep = run_scenario(spec)
        assert not rep.flags["hausdorff"]
        assert rep.filling_verdict == "FAILS"

    def test_flat_bl_trend_not_called_decreasing(self):
        # every escape row has the same BL, far above the resolution floor
        spec = ScenarioSpec(family="escape", k_schedule=(1, 2), atoms=16, samples=16)
        rep = run_scenario(spec)
        assert rep.rows[0]["bl"] == rep.rows[1]["bl"]
        assert not any("bl trend" in w for w in rep.warnings)

    def test_unknown_family_config_error(self):
        from varifoldlab.scenarios import UnknownFamilyError
        with pytest.raises(UnknownFamilyError):
            run_scenario(ScenarioSpec(family="wormhole"))

    def test_unknown_integrand_config_error(self):
        with pytest.raises(KeyError):
            run_scenario(ScenarioSpec(family="segment", k_schedule=(1, 2),
                                      integrand="bogus", atoms=16, samples=16))

    def test_deterministic_bytes(self, monkeypatch):
        # two runs, one on a single thread and one on a per-k pool of two
        spec = ScenarioSpec(family="shrinking_bump", k_schedule=(1, 2, 4),
                            atoms=32, samples=32)
        reports = []
        for threads in ("1", "2"):
            monkeypatch.setenv("VARIFOLD_LAB_THREADS", threads)
            reports.append(run_scenario(spec).to_json_bytes())
        assert reports[0] == reports[1]

    def test_csv_columns(self, tmp_path):
        spec = ScenarioSpec(family="segment", k_schedule=(1, 2), atoms=16, samples=16)
        rep = run_scenario(spec)
        path = tmp_path / "rows.csv"
        rep.save_csv(path)
        header = path.read_text().splitlines()[0].split(",")
        assert header[0] == "k"
        assert header[-4:] == ["measure", "energy", "bl", "bl_dictionary"]

    def test_threads_env_respected(self, monkeypatch):
        monkeypatch.setenv("VARIFOLD_LAB_THREADS", "1")
        spec = ScenarioSpec(family="segment", k_schedule=(1, 2), atoms=16, samples=16)
        rep = run_scenario(spec)
        assert len(rep.rows) == 2

    def test_thread_default_is_the_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("VARIFOLD_LAB_THREADS", raising=False)
        monkeypatch.setattr(lab.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(lab.os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        assert lab._thread_count() == 3
        monkeypatch.delattr(lab.os, "sched_getaffinity")
        assert lab._thread_count() == 64

    def test_bad_threads_env_is_named(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setenv("VARIFOLD_LAB_THREADS", "abc")
        with pytest.raises(ValueError, match="VARIFOLD_LAB_THREADS must be an integer, got 'abc'"):
            lab._thread_count()
        spec_path = tmp_path / "spec.json"
        spec = ScenarioSpec(family="segment", k_schedule=(1, 2), atoms=16, samples=16)
        spec_path.write_text(json.dumps(spec.to_dict()))
        assert cli.main(["run", str(spec_path)]) == cli.EXIT_CONFIG
        assert "error: VARIFOLD_LAB_THREADS must be an integer" in capsys.readouterr().err

    def test_report_is_strict_json(self):
        spec = ScenarioSpec(family="segment", k_schedule=(1, 2), atoms=16, samples=16)

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")
        doc = json.loads(run_scenario(spec).to_json_bytes(), parse_constant=reject)
        assert ScenarioSpec.from_dict(doc["spec"]) == spec

    def test_non_finite_report_raises(self):
        spec = ScenarioSpec(family="segment", k_schedule=(1, 2), atoms=16, samples=16)
        report = dataclasses.replace(run_scenario(spec), spearman_d_vs_bl=float("nan"))
        with pytest.raises(ValueError):
            report.to_json_bytes()

    @pytest.mark.parametrize("family, k_schedule, clips", [
        ("disk", (1, 2), 9),
        ("graph_decay", ScenarioSpec(family="graph_decay").k_schedule, 24),
    ])
    def test_each_set_clipped_once_per_radius(self, monkeypatch, family, k_schedule, clips):
        # the limit once per radius, shared by every row, and each E_k once
        # per radius for both its Hausdorff sups and its projected mass
        real, calls = sets._clip, []

        def counting(e, ball):
            calls.append(ball.radius)
            return real(e, ball)
        for module in (sets, metrics, lab):
            monkeypatch.setattr(module, "_clip", counting)
        run_scenario(ScenarioSpec(family=family, k_schedule=k_schedule, atoms=16))
        radii = FAMILIES[family].base_radii
        assert len(calls) == clips == len(radii) * (len(k_schedule) + 1)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_shared_clips_match_public_functions(monkeypatch, family, threads):
    # run_scenario shares one clip per set and radius between the Hausdorff
    # sups and the projected mass; the public functions clip on their own
    monkeypatch.setenv("VARIFOLD_LAB_THREADS", threads)
    fam = FAMILIES[family]
    spec = ScenarioSpec(family=family, k_schedule=(1, 2), atoms=16)
    report = run_scenario(spec)
    limit, made = fam.limit(), {k: fam.make(k) for k in spec.k_schedule}
    for row in report.rows:
        assert row["hausdorff"] == {
            f"{r:g}": metrics.hausdorff_local_report(made[row["k"]], limit, fam.base_point, r,
                                                     spec.samples).value
            for r in fam.base_radii}
    verdict = (None if fam.limit_tangent is None else
               metrics.filling_check(made, fam.base_point, fam.limit_tangent,
                                     fam.base_radii).verdict)
    assert report.filling_verdict == verdict


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_pipeline_flags_match_declared_truths(family):
    # the hausdorff and mass flags read only the first and the last row, so
    # the two ends of the default schedule decide them as the whole would
    fam = FAMILIES[family]
    rep = run_scenario(ScenarioSpec(family=family, k_schedule=(1, 64), atoms=32, samples=32))
    assert rep.flags["hausdorff"] == fam.hausdorff_holds
    assert rep.flags["mass"] == fam.mass_holds
    assert (rep.flags["filling"] is True) == fam.filling_holds


class TestCLI:
    def test_hausdorff_identical_files(self, tmp_path):
        path = tmp_path / "seg.json"
        save_set(segment_set(16), path)
        res = run_cli("distance", "--kind", "hausdorff", str(path), str(path),
                      "--center", "0.5,0", "--radius", "0.4")
        assert res.returncode == 0
        assert json.loads(res.stdout)["value"] == 0.0

    def test_bl_identical_files(self, tmp_path):
        path = tmp_path / "v.json"
        save_varifold(var_of_set(segment_set(8), 1), path)
        res = run_cli("distance", "--kind", "bl", str(path), str(path))
        assert res.returncode == 0
        assert json.loads(res.stdout)["value"] < 1e-9

    def test_failed_lp_exit_3(self, tmp_path, monkeypatch, capsys):
        # two different varifolds: between identical ones no LP runs
        paths = [tmp_path / "v.json", tmp_path / "w.json"]
        for subdiv, path in zip((8, 4), paths):
            save_varifold(var_of_set(segment_set(subdiv), 1), path)
        failed = SimpleNamespace(status=4, message="numerical difficulties")
        monkeypatch.setattr(metrics, "linprog", lambda *args, **kwargs: failed)
        code = cli.main(["distance", "--kind", "bl", *map(str, paths)])
        assert code == cli.EXIT_RESOLUTION
        assert "error: transshipment LP failed" in capsys.readouterr().err

    def test_failed_restricted_lp_exit_3(self, tmp_path, monkeypatch, capsys):
        # 256 x 256 atoms make a 65,536-column LP: the budgeted dense call
        # runs out of iterations, then the first restricted LP fails
        seg = segment_set(256)
        paths = [tmp_path / "v.json", tmp_path / "w.json"]
        for shift, path in zip((0.0, 0.1), paths):
            shifted = SimplicialSet(2, 1, seg.vertices + [0.0, shift], seg.simplices)
            save_varifold(var_of_set(shifted, 1), path)
        calls = []

        def fake(*args, **kwargs):
            calls.append(kwargs.get("options"))
            status = 1 if len(calls) == 1 else 4
            return SimpleNamespace(status=status, message="numerical difficulties")

        monkeypatch.setattr(metrics, "linprog", fake)
        code = cli.main(["distance", "--kind", "bl", *map(str, paths)])
        assert code == cli.EXIT_RESOLUTION
        assert "error: transshipment LP failed" in capsys.readouterr().err
        assert calls == [{"maxiter": 512}, None]

    def test_audit_qm_empty_set_named_without_warnings(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        save_set(SimplicialSet(2, 1, [], []), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["audit-qm", str(path)])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: {path} holds an empty set; the quasiminimality audit " \
                      f"needs a set with at least one simplex\n"
        assert [str(w.message) for w in caught] == []

    def test_run_scenario_report(self, tmp_path):
        spec = ScenarioSpec(family="zigzag", k_schedule=(1, 2, 4), atoms=32,
                            samples=32)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        out_path = tmp_path / "report.json"
        csv_path = tmp_path / "rows.csv"
        res = run_cli("run", str(spec_path), "--output", str(out_path),
                      "--csv", str(csv_path))
        assert res.returncode == 0
        doc = json.loads(out_path.read_text())
        assert doc["flags"]["mass"] is False
        assert csv_path.exists()

    def test_projected_mass_cli(self, tmp_path):
        path = tmp_path / "seg.json"
        save_set(segment_set(16), path)
        res = run_cli("projected-mass", str(path), "--center", "0.5,0",
                      "--radius", "0.25", "--plane-angle", "0")
        assert res.returncode == 0
        assert json.loads(res.stdout)["value"] == pytest.approx(2.0)

    def test_audit_qm_cli(self, tmp_path):
        path = tmp_path / "seg.json"
        save_set(segment_set(32), path)
        res = run_cli("audit-qm", str(path), "--M", "1")
        assert res.returncode == 0
        assert json.loads(res.stdout)["min_gap"] >= -1e-9

    def test_audit_ellipticity_cli(self):
        res = run_cli("audit-ellipticity", "aniso_nonelliptic", "--x", "0,0",
                      "--plane-angle", "0", "--scan-haar", "4")
        assert res.returncode == 0
        assert json.loads(res.stdout)["certificates"]

    def test_audit_ellipticity_competitor_filter(self):
        res = run_cli("audit-ellipticity", "area", "--x", "0,0",
                      "--plane-angle", "0", "--scan-haar", "0",
                      "--competitors", "detour_h0.5,flat")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        supplied = [r for r in doc["rows"] if r["plane"] == "supplied"]
        assert {r["competitor"] for r in supplied} == {"detour_h0.5", "flat"}
        res_bad = run_cli("audit-ellipticity", "area", "--plane-angle", "0",
                          "--competitors", "nonexistent")
        assert res_bad.returncode == 2

    def test_density_cli(self, tmp_path):
        path = tmp_path / "v.json"
        save_varifold(var_of_set(segment_set(256), 1), path)
        res = run_cli("density", str(path), "--center", "0.5,0",
                      "--radii", "0.25,0.125")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["ratios"] == pytest.approx([1.0, 1.0], abs=0.02)

    def test_config_error_exit_2(self, tmp_path):
        res = run_cli("run", str(tmp_path / "missing.json"))
        assert res.returncode == 2
        assert "error" in res.stderr

    def test_bad_family_exit_2(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"schema": 1, "family": "wormhole",
                                         "k_schedule": [1]}))
        res = run_cli("run", str(spec_path))
        assert res.returncode == 2

    def test_strict_promotes_warning_exit_3(self, tmp_path):
        path = tmp_path / "v.json"
        save_varifold(var_of_set(segment_set(4), 1), path)  # too few atoms
        res = run_cli("--strict", "density", str(path), "--center", "0.5,0",
                      "--radii", "0.25,0.01")
        assert res.returncode == 3

    def test_run_strict_resolution_warning(self, tmp_path):
        # zigzag's bl decreases but stays far above the floor: that warning
        # is promoted by --strict
        spec = ScenarioSpec(family="zigzag", k_schedule=(1, 2), atoms=16, samples=16)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec.to_dict()))
        res = run_cli("--strict", "run", str(spec_path),
                      "--output", str(tmp_path / "rep.json"))
        assert res.returncode == 3
        assert "warning" in res.stderr

    def test_spec_output_paths_rejected(self, tmp_path, capsys):
        # the spec's old output_<kind> keys: report paths are run's options
        spec_path = tmp_path / "spec.json"
        for kind in ("json", "csv"):
            doc = ScenarioSpec(family="segment", k_schedule=(1, 2)).to_dict()
            doc[f"output_{kind}"] = str(tmp_path / "out")
            spec_path.write_text(json.dumps(doc))
            assert cli.main(["run", str(spec_path)]) == cli.EXIT_CONFIG
            assert "--output and --csv" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("doc, message", [
        ([{"family": "zigzag"}], "must be a JSON object"),
        ({"family": "zigzag", "atom": 64}, "unknown spec key 'atom'"),
        ({"family": "zigzag", "samples": "x"}, "samples must be a positive integer"),
        ({"family": "zigzag", "atoms": 0}, "atoms must be a positive integer"),
        ({"family": "zigzag", "k_schedule": [0, 1]}, "every k must be a positive integer"),
        ({"family": "graph_decay", "k_schedule": [-1, 1]}, "every k must be a positive"),
        ({"family": "zigzag", "k_schedule": 4}, "k_schedule must be a list"),
        ({"family": "zigzag", "h": 0.1}, "a gauge must be a JSON object"),
        ({"family": "zigzag", "h": {"h0": "x"}}, "gauge h0 must be a number"),
        ({"family": "zigzag", "domain": [0.5]}, "domain needs the center"),
        ({"k_schedule": [1]}, "needs a family"),
        ({"family": "zigzag", "k_schedule": [1], "domain": [0, 0, 0, 1]},
         "3 numbers for family 'zigzag', got 4"),
        ({"family": "zigzag", "seed": "x", "M": "y"}, "seed must be a non-negative integer"),
        ({"family": "zigzag", "M": 0.5, "seed": -3}, "seed must be a non-negative integer"),
        ({"family": "zigzag", "seed": True}, "seed must be a non-negative integer"),
        ({"family": "zigzag", "M": 0.5}, "M must be a real number >= 1"),
        ({"family": "zigzag", "M": "y"}, "M must be a real number >= 1"),
        ({"family": "zigzag", "M": float("nan")}, "M must be a real number >= 1"),
        ({"family": "zigzag", "h": {"kind": "power", "exponent": float("nan")}},
         "gauge exponent must be positive"),
        ({"family": "segment", "k_schedule": [1], "radii": [float("nan")]},
         "finite positive numbers, got [nan]"),
        ({"family": "segment", "k_schedule": [1], "radii": []},
         "finite positive numbers, got []"),
        ({"family": "segment", "k_schedule": [1], "radii": [0.5, -0.25]},
         "finite positive numbers, got [0.5, -0.25]"),
        # the order is the spec's rule, so it holds for families without a
        # limit tangent too
        ({"family": "segment", "k_schedule": [1, 2, 4], "radii": [0.25, 0.5]},
         "radii must be strictly decreasing, got [0.25, 0.5]"),
        ({"family": "ycone", "k_schedule": [1, 2, 4], "radii": [0.25, 0.5]},
         "radii must be strictly decreasing, got [0.25, 0.5]"),
        ({"family": "zigzag", "k_schedule": [1], "radii": [0.5, 0.5]},
         "radii must be strictly decreasing, got [0.5, 0.5]"),
        # a base point of the wrong length is named before any E_k is built
        ({"family": "zigzag", "base_point": [0.5]},
         "base_point needs 2 coordinates for family 'zigzag', got 1"),
        ({"family": "disk", "k_schedule": [1], "base_point": [0.5, 0.0]},
         "base_point needs 3 coordinates for family 'disk', got 2"),
        # every coordinate is checked where the spec is read, not after the
        # limit is built
        ({"family": "segment", "base_point": ["a", 0]},
         "base_point must be a list of finite numbers, got ['a', 0]"),
        ({"family": "segment", "base_point": [float("nan"), 0]},
         "base_point must be a list of finite numbers, got [nan, 0]"),
        ({"family": "segment", "domain": [0, 0, float("nan")]},
         "domain must be a list of finite numbers, got [0, 0, nan]"),
        ({"family": "segment", "domain": [0, 0, 0]}, "domain radius must be > 0, got 0"),
        # a KeyError's message is printed as it is, not quoted as its repr
        ({"family": "bogus"}, "error: unknown scenario family 'bogus'"),
        ({"family": "segment", "integrand": "bogus"}, "error: unknown integrand 'bogus'"),
        # entries that no float holds, and an integrand that is not a name
        ({"family": "segment", "base_point": [10 ** 400, 0]},
         "base_point must be a list of finite numbers"),
        ({"family": "segment", "radii": [10 ** 400]},
         "radii must be a nonempty list of finite positive numbers"),
        ({"family": "segment", "atoms": 10 ** 400}, "atoms must be a positive integer"),
        ({"family": "segment", "integrand": ["area"]},
         "integrand must be null or a name, got ['area']"),
    ])
    def test_bad_spec_exit_2(self, tmp_path, capsys, monkeypatch, doc, message):
        made = []
        for name, fam in FAMILIES.items():
            monkeypatch.setitem(FAMILIES, name, dataclasses.replace(
                fam, make=lambda k, make=fam.make: made.append(k) or make(k)))
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        assert cli.main(["run", str(spec_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert made == []  # rejected before any set is built

    @pytest.mark.parametrize("argv, message", [
        (["audit-qm", "@seg", "--h-kind", "step", "--h-delta", "0"], "delta must be positive"),
        (["audit-qm", "@seg", "--h-kind", "step", "--h-delta", "-1"], "delta must be positive"),
        (["audit-qm", "@seg", "--h-kind", "step", "--h-delta", "nan"], "delta must be positive"),
        (["audit-qm", "@seg", "--h0", "nan"], "h0 must be finite and nonnegative"),
        (["audit-qm", "@seg", "--M", "nan"], "M must be a real number >= 1"),
        (["distance", "--kind", "hausdorff", "@seg", "@seg", "--samples", "0"],
         "samples must be >= 1"),
        (["audit-ellipticity", "area", "--plane-angle", "0", "--scan-haar", "-1"],
         "scan_haar must be >= 0"),
        # a domain outside the set's plane, or a set with nothing to audit
        (["audit-qm", "@seg", "--domain", "0.5,0.5"], "ball and set ambient dimensions differ"),
        (["audit-qm", "@seg", "--domain", "0.5,0,0,0.5"], "ball and set ambient dimensions differ"),
        (["audit-qm", "@empty", "--domain", "0.5,0,0.5"], "needs a set with at least one simplex"),
        # non-finite balls and radii are named, not left to the JSON writer
        (["projected-mass", "@seg", "--center", "0.5,0", "--radius", "nan", "--plane-angle", "0"],
         "ball radius must be finite and positive, got nan"),
        (["distance", "--kind", "hausdorff", "@seg", "@seg", "--radius", "nan"],
         "ball radius must be finite and positive, got nan"),
        (["distance", "--kind", "hausdorff", "@seg", "@seg", "--center", "nan,0"],
         "--center must be finite, got nan,0"),
        (["density", "@var", "--center", "0.5,0", "--radii", "0.5,nan"],
         "radii must be finite and positive"),
        (["density", "@var", "--center", "nan,0", "--radii", "0.5"],
         "--center must be finite, got nan,0"),
        (["density", "@var", "--center", "0,inf", "--radii", "0.5"],
         "--center must be finite, got 0,inf"),
        (["audit-ellipticity", "area", "--x", "nan,0", "--plane-angle", "0"],
         "--x must be finite, got nan,0"),
        # non-finite plane frames are named before any NaN reaches the numerics
        (["projected-mass", "@seg", "--center", "0.5,0", "--radius", "0.25",
          "--plane-frame", "[[NaN, 1]]"], "frame vectors must be finite"),
        (["audit-ellipticity", "area", "--plane-frame", "[[NaN, 0]]"],
         "frame vectors must be finite"),
        (["audit-ellipticity", "area", "--plane-frame", "[[1, 0], [0, Infinity]]"],
         "frame vectors must be finite"),
        (["audit-ellipticity", "area", "--plane-frame", "[[Infinity, 0]]"],
         "frame vectors must be finite"),
        # a centre of R^1 was broadcast over both coordinates of R^2
        (["density", "@var", "--center", "0.3", "--radii", "0.5"],
         "centre must be a point of R^2, got [0.3]"),
        # every point option goes through one parser that names its flag
        (["distance", "--kind", "hausdorff", "@seg", "@seg", "--center", "a,0"],
         "--center must be comma-separated numbers, got a,0"),
        (["projected-mass", "@seg", "--center", "a,0", "--radius", "0.25", "--plane-angle", "0"],
         "--center must be comma-separated numbers, got a,0"),
        (["projected-mass", "@seg", "--center", "0.5,nan", "--radius", "0.25", "--plane-angle", "0"],
         "--center must be finite, got 0.5,nan"),
        (["audit-qm", "@seg", "--domain", "0.5,x,0.5"],
         "--domain must be comma-separated numbers, got 0.5,x,0.5"),
        (["audit-qm", "@seg", "--domain", "0.5,0,inf"], "--domain must be finite, got 0.5,0,inf"),
        (["audit-qm", "@seg", "--registry", "identity,warp"], "error: unknown deformation 'warp'"),
        (["audit-ellipticity", "area", "--plane-frame", '{"a": 1}'],
         '--plane-frame must be JSON rows of numbers, got {"a": 1}'),
        # a plane of R^3 at a point of R^2 was audited
        (["audit-ellipticity", "area", "--x", "0,0", "--plane-frame", "[[1, 0, 0]]"],
         "--x is a point of R^2, but the plane lies in R^3"),
    ])
    def test_bad_input_exit_2(self, tmp_path, capsys, argv, message):
        files = {"@seg": segment_set(8), "@empty": SimplicialSet(2, 1, [], [])}
        for name, e in files.items():
            save_set(e, tmp_path / f"{name[1:]}.json")
        save_varifold(var_of_set(segment_set(8), 4), tmp_path / "var.json")
        argv = [str(tmp_path / f"{a[1:]}.json") if a.startswith("@") else a for a in argv]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("argv", [
        ["audit-qm"],
        ["projected-mass", "--center", "0,0", "--radius", "0.5", "--plane-angle", "0"],
    ])
    def test_point_cloud_set_exit_2(self, tmp_path, capsys, argv):
        path = tmp_path / "pc.json"
        save_set(PointCloudSet(2, 1, np.array([[0.0, 0.0], [0.5, 0.0]]), np.ones(2)), path)
        assert cli.main([argv[0], str(path), *argv[1:]]) == cli.EXIT_CONFIG
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("kind, drop, argv, message", [
        ("set", "simplices", ["audit-qm", "@"], "the file has no 'simplices' key"),
        ("set", None, ["density", "@", "--center", "0.5,0", "--radii", "0.5"],
         "the file has no 'atoms' key"),
        ("varifold", "mass", ["distance", "--kind", "bl", "@", "@"],
         "atom 0 has no 'mass' key"),
        ("list", None, ["distance", "--kind", "hausdorff", "@", "@"],
         "the file has no 'ambient_dim' key"),
    ])
    def test_missing_key_exit_2(self, tmp_path, capsys, kind, drop, argv, message):
        # the loaders name the file and the key, not a bare KeyError
        path = tmp_path / f"{kind}.json"
        if kind == "varifold":
            save_varifold(var_of_set(segment_set(8), 1), path)
        else:
            save_set(segment_set(8), path)
        doc = json.loads(path.read_text())
        if kind == "list":
            doc = [doc]
        elif drop in doc:
            del doc[drop]
        elif drop:
            del doc["atoms"][0][drop]
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "@" else a for a in argv]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_audit_qm_registry_and_params(self, tmp_path, capsys):
        set_path = tmp_path / "seg.json"
        save_set(segment_set(32), set_path)
        res = run_cli("audit-qm", str(set_path), "--M", "1",
                      "--registry", "identity,vertex_snap")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        names = {row["deformation"] for row in doc["rows"]}
        assert names == {"identity", "vertex_snap"}
        assert doc["min_gap"] >= -1e-9
        # the registry takes no parameters: --params is an unknown option
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["audit-qm", str(set_path), "--params", "x"])
        assert exit_info.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments: --params x" in capsys.readouterr().err

    def test_every_subcommand_writes_strict_json(self, tmp_path, capsys):
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        seg, var = tmp_path / "seg.json", tmp_path / "v.json"
        save_set(segment_set(64), seg)
        save_varifold(var_of_set(segment_set(8), 4), var)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(ScenarioSpec(family="segment", k_schedule=(1, 2),
                                                atoms=16, samples=16).to_dict()))
        calls = [
            ["run", str(spec)],
            ["distance", "--kind", "hausdorff", str(seg), str(seg), "--center", "0.5,0"],
            ["density", str(var), "--center", "0.5,0", "--radii", "0.25,0.125"],
            ["audit-ellipticity", "area", "--plane-angle", "0.5"],
            # the step gauge is +inf at r >= delta: those gaps are written as null
            ["audit-qm", str(seg), "--h-kind", "step", "--h-delta", "0.1",
             "--domain", "0.5,0,0.5"],
            ["audit-qm", str(seg), "--h-kind", "step", "--h-delta", "1e-12",
             "--domain", "0.5,0,0.5"],
            ["projected-mass", str(seg), "--center", "0.5,0", "--radius", "0.25",
             "--plane-angle", "0"],
        ]
        for argv in calls:
            # a warning that numpy raises inside a library call is attributed
            # to numpy, so the pytest filter on varifoldlab would miss it
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert cli.main(argv) == cli.EXIT_OK
            assert not caught, (argv, [str(w.message) for w in caught])
            doc = json.loads(capsys.readouterr().out, parse_constant=reject)
            if argv[0] == "audit-qm":
                assert None in [row["gap"] for row in doc["rows"]]

    def test_non_finite_report_exit_2(self, tmp_path, capsys, monkeypatch):
        seg = tmp_path / "seg.json"
        save_set(segment_set(8), seg)
        monkeypatch.setattr(cli, "projected_mass", lambda *args: float("nan"))
        code = cli.main(["projected-mass", str(seg), "--center", "0.5,0", "--radius", "0.25",
                         "--plane-angle", "0"])
        assert code == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("kind, field, bad, argv, message", [
        ("set", "vertices", float("inf"),
         ["projected-mass", "@", "--center", "0.5,0", "--radius", "0.25", "--plane-angle", "0"],
         "vertices must be finite"),
        ("set", "vertices", float("inf"),
         ["distance", "--kind", "hausdorff", "@", "@", "--center", "0.5,0"],
         "vertices must be finite"),
        ("cloud", "points", float("nan"),
         ["distance", "--kind", "hausdorff", "@", "@", "--center", "0.5,0"],
         "points must be finite"),
        ("varifold", "x", float("nan"), ["density", "@", "--center", "0.5,0", "--radii", "0.5"],
         "atom positions must be finite"),
        ("varifold", "frame", float("nan"), ["distance", "--kind", "bl", "@", "@"],
         "atom frames must be finite"),
    ])
    def test_non_finite_file_exit_2(self, tmp_path, capsys, kind, field, bad, argv, message):
        # json.load reads the NaN and Infinity literals that json.dump writes
        path = tmp_path / f"{kind}.json"
        if kind == "varifold":
            save_varifold(var_of_set(segment_set(8), 1), path)
        else:
            save_set(segment_set(8) if kind == "set" else
                     PointCloudSet(2, 1, np.array([[0.0, 0.0], [0.5, 0.0]]), np.ones(2)), path)
        doc = json.loads(path.read_text())
        if kind == "varifold":
            doc["atoms"][1][field][0] = [bad, 0.0] if field == "frame" else bad
        else:
            doc[field][1][0] = bad
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "@" else a for a in argv]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_plane_axes_out_of_range_exit_2(self, capsys):
        for axes in ("5", "-1"):
            code = cli.main(["audit-ellipticity", "area", "--x", "0,0", "--plane-axes", axes])
            assert code == cli.EXIT_CONFIG
            assert "out of range" in capsys.readouterr().err

    def test_audit_qm_image_refinement_budget_exit_2(self, tmp_path, capsys, monkeypatch):
        # an image refinement past the piece budget is a config error; a
        # budget of 100 puts this small audit past it
        monkeypatch.setattr(quasimin, "PIECE_BUDGET", 100)
        set_path = tmp_path / "seg.json"
        save_set(segment_set(32), set_path)
        code = cli.main(["audit-qm", str(set_path), "--domain", "0.5,0,0.5"])
        assert code == cli.EXIT_CONFIG
        assert "than 100 pieces" in capsys.readouterr().err


BIG = 10 ** 400  # a JSON integer that no float can hold

# a small valid document of each file kind, and a command that reads it ("@")
DOCUMENTS = {
    "set": ({"ambient_dim": 2, "dim": 1, "vertices": [[0, 0], [0.5, 0], [1, 0]],
             "simplices": [[0, 1], [1, 2]]},
            ["projected-mass", "@", "--center", "0.5,0", "--radius", "0.5", "--plane-angle", "0"]),
    "cloud": ({"ambient_dim": 2, "dim": 1, "points": [[0, 0], [0.5, 0]], "masses": [1, 1]},
              ["distance", "--kind", "hausdorff", "@", "@", "--center", "0.5,0"]),
    "varifold": ({"ambient_dim": 2, "dim": 1,
                  "atoms": [{"x": [0.25, 0], "frame": [[1, 0]], "mass": 0.5},
                            {"x": [0.75, 0], "frame": [[1, 0]], "mass": 0.5}]},
                 ["density", "@", "--center", "0.5,0", "--radii", "0.5"]),
    "tabulated": ({"name": "tab", "ambient_dim": 2, "dim": 1, "x_grid": [0, 1],
                   "y_grid": [0, 1], "theta_grid": [0.0],
                   "values": [[[1.0], [1.0]], [[1.0], [1.0]]]},
                  ["audit-ellipticity", "@", "--plane-angle", "0", "--scan-haar", "0"]),
    "spec": ({"schema": 1, "family": "segment", "k_schedule": [1], "integrand": "area",
              "M": 1.0, "h": {"kind": "constant", "h0": 0.0}, "seed": 0, "atoms": 8,
              "samples": 8, "base_point": [0.5, 0], "radii": [0.25], "domain": [0.5, 0, 2]},
             ["run", "@"]),
}


def _run_document(tmp_path, kind, edit):
    """cli.main's exit code and stderr on the document of ``kind`` after
    ``edit`` changed it in place ("atom" edits the first atom of the
    varifold; an edit may return a whole new document), and the path."""
    doc, argv = DOCUMENTS["varifold" if kind == "atom" else kind]
    doc = json.loads(json.dumps(doc))
    doc = edit(doc["atoms"][0] if kind == "atom" else doc) or doc
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = cli.main([str(path) if a == "@" else a for a in argv])
    return code, path


@pytest.mark.parametrize("value", [None, [0], {"a": 1}, "x", BIG],
                         ids=["null", "list", "object", "string", "big"])
@pytest.mark.parametrize("kind, key", [(kind, key) for kind, (doc, _) in DOCUMENTS.items()
                                       for key in doc]
                         + [("atom", key) for key in ("x", "frame", "mass")])
def test_malformed_document_exits_0_or_2(tmp_path, capsys, kind, key, value):
    # a value of the wrong kind in any key is a clean exit, never a traceback;
    # a tabulated integrand's name, printed in the report, must be a string
    code, _ = _run_document(tmp_path, kind, lambda doc: doc.update({key: value}))
    err = capsys.readouterr().err
    if (kind, key) == ("tabulated", "name"):
        assert code == (cli.EXIT_OK if isinstance(value, str) else cli.EXIT_CONFIG)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG)
    if code == cli.EXIT_CONFIG:
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("kind, change, message", [
    ("tabulated", lambda doc: [doc], "@: the file has no 'ambient_dim' key"),
    ("tabulated", lambda doc: doc.pop("values") and None, "@: the file has no 'values' key"),
    ("set", {"dim": None}, "dim must be an integer, got None"),
    ("set", {"vertices": {"a": 1}}, "@: vertices must be an array of numbers"),
    ("atom", {"x": {"a": 0}}, "@: atom x must be an array of numbers"),
    ("atom", {"frame": [[BIG, 0]]}, "@: atom 0 frame must be an array of numbers"),
    ("set", {"vertices": [[0, BIG], [1, 0], [2, 0]]}, "@: vertices must be an array of numbers"),
    ("tabulated", {"values": BIG}, "@: values must be an array of numbers"),
    # integral fields are not truncated
    ("set", {"ambient_dim": 2.7, "dim": 1.5}, "ambient_dim must be an integer, got 2.7"),
    ("set", {"simplices": [[0, 1.5]]}, "simplex vertex indices must be integers"),
    ("cloud", {"dim": 1.5}, "dim must be an integer, got 1.5"),
    ("varifold", {"dim": 1.0}, "dim must be an integer, got 1.0"),
    # a tabulated integrand's name is printed in the report
    ("tabulated", {"name": {"a": 1}}, "@: 'name' must be a string, got dict"),
])
def test_malformed_document_is_named(tmp_path, capsys, kind, change, message):
    # ``change`` updates the document's keys, or edits the document itself
    edit = change if callable(change) else lambda doc: doc.update(change)
    code, path = _run_document(tmp_path, kind, edit)
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message.replace('@', str(path))}\n"
