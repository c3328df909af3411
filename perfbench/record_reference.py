"""Record reference.json: the named output fields of every operation any
seed can draw (scenario specs, fixed queries, the whole BL pair pool).

    python3 perfbench/record_reference.py

Run it once on the commit whose outputs are the reference; the gate then
holds every later commit to them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import gate
import run
import workloads


def universe():
    ops = workloads.scenario_ops("scenario_curves", 0) + workloads.scenario_ops("scenario_surface", 0)
    ops += workloads.fixed_query_ops()
    for ci in range(len(workloads.BL_CONFIGS)):
        for si in range(len(workloads.BL_SIZES)):
            for j in range(workloads.BL_POOL_PER_SIZE):
                ops += workloads.bl_ops(ci, si, j)
    return ops


def main():
    sys.path.insert(0, str(run.SRC))
    commit = subprocess.run(["git", "-C", str(run.ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True, check=True).stdout.strip()
    ops = universe()
    entries = {}
    run.WORK.mkdir(exist_ok=True)
    inputs = tempfile.mkdtemp(dir=run.WORK)
    try:
        paths = workloads.write_inputs(ops, Path(inputs))
        for op in ops:
            outcome = workloads.run_op(op, paths)
            if outcome.error:
                raise RuntimeError(f"{op.key}: {outcome.error}")
            entries[op.key] = {"input": op.input_digest(), "exit": outcome.exit_code,
                               "out": gate.extract(op.kind, outcome.doc)}
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    doc = {"recorded_at": commit, "ops": entries}
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{len(entries)} reference entries written to {run.REFERENCE}")


if __name__ == "__main__":
    main()
