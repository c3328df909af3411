"""The CI workflow's named scripts and pytest selections exist in this
checkout, so a rename that would break only the remote run fails the local
tier-1 run too. The workflow is read as text, not parsed as YAML."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()


def test_workflow_scripts_exist():
    scripts = sorted(set(re.findall(r"\b(?:scripts|perfbench)/\w+\.py\b", WORKFLOW)))
    assert scripts
    assert [s for s in scripts if not (ROOT / s).is_file()] == []


def test_workflow_pytest_selections_collect():
    node_ids = re.findall(r"\btests/\S+\.py::\S+", WORKFLOW)
    assert node_ids
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                          "-p", "no:cacheprovider", *node_ids],
                         cwd=ROOT, capture_output=True, text=True, timeout=600,
                         env=dict(os.environ, PYTHONPATH=path))
    assert res.returncode == 0, res.stdout + res.stderr
    collected = res.stdout.splitlines()
    assert [n for n in node_ids if not any(c.startswith(n) for c in collected)] == []
