"""``import varifoldlab`` loads no scipy: the exact BL LP imports
``scipy.sparse`` and scipy's HiGHS bindings ``scipy.optimize._highspy._core``
(which load ``scipy.optimize``), and the nearest-simplex search imports
``scipy.spatial.cKDTree``, where they are first used.

Each check runs in a fresh interpreter, since this test process has long
since imported scipy.
"""

import json
import os
import subprocess
import sys

import pytest

from varifoldlab import cli
from varifoldlab.lab import ScenarioSpec, run_scenario
from varifoldlab.scenarios import segment_set
from varifoldlab.varifold import save_varifold, var_of_set

SCIPY = ("scipy.spatial", "scipy.sparse", "scipy.optimize")

# Runs ``cli.main`` on the arguments after ``-c``; the last line of stderr
# lists which of SCIPY are loaded afterwards.
CLI_CODE = f"""
import json, sys
from varifoldlab import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
print(json.dumps([m for m in {SCIPY!r} if m in sys.modules]), file=sys.stderr)
sys.exit(code)
"""


def fresh_python(code, *args, **env):
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          env=dict(os.environ, **env), timeout=600)


def fresh_cli(*argv):
    res = fresh_python(CLI_CODE, *argv)
    assert res.returncode == 0, res.stderr.decode()
    return res.stdout, json.loads(res.stderr.decode().splitlines()[-1])


@pytest.fixture
def varifold_files(tmp_path):
    # two different varifolds, so the exact BL runs an LP
    paths = [tmp_path / "v.json", tmp_path / "w.json"]
    for subdiv, path in zip((8, 4), paths):
        save_varifold(var_of_set(segment_set(subdiv), 1), path)
    return [str(p) for p in paths]


@pytest.mark.parametrize("module", ["varifoldlab", "varifoldlab.cli"])
def test_import_loads_no_scipy(module):
    res = fresh_python(f"import sys, {module}; "
                       f"print([m for m in {SCIPY!r} if m in sys.modules])")
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout.decode().strip() == "[]"


def test_ellipticity_audit_loads_no_scipy():
    _, loaded = fresh_cli("audit-ellipticity", "area", "--plane-angle", "0.5")
    assert loaded == []


def test_dictionary_bl_loads_no_scipy(varifold_files):
    _, loaded = fresh_cli("distance", "--kind", "bl", "--method", "dictionary",
                          *varifold_files)
    assert loaded == []


def test_exact_bl_imports_scipy_on_first_use(varifold_files, capsys):
    argv = ["distance", "--kind", "bl", "--method", "exact", *varifold_files]
    out, loaded = fresh_cli(*argv)
    assert loaded == list(SCIPY)
    assert cli.main(argv) == cli.EXIT_OK
    assert out == capsys.readouterr().out.encode()


def test_first_import_inside_the_per_k_pool():
    # both pool threads reach the first cKDTree and linprog import together
    spec = ScenarioSpec(family="zigzag", k_schedule=(1, 2), atoms=32, samples=32)
    code = ("import json, sys\n"
            "from varifoldlab.lab import ScenarioSpec, run_scenario\n"
            f"assert not any(m in sys.modules for m in {SCIPY!r})\n"
            "spec = ScenarioSpec.from_dict(json.loads(sys.argv[1]))\n"
            "sys.stdout.buffer.write(run_scenario(spec).to_json_bytes())\n")
    res = fresh_python(code, json.dumps(spec.to_dict()), VARIFOLD_LAB_THREADS="2")
    assert res.returncode == 0, res.stderr.decode()
    assert res.stdout == run_scenario(spec).to_json_bytes()
