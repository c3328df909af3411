"""Print one ``key sha256`` line per library output that a change to the
numerics should leave byte-identical.

    python3 scripts/report_digests.py --seed 1 --seed 2 > digests.txt

The outputs are ``run_scenario(spec).to_json_bytes()`` for the default
spec of every registered family and for ``disk`` at k=(1, 2), and the exit
code, stdout and stderr of every call of the benchmark's ``queries``
workload for each given seed (built by ``perfbench/workloads.py`` and run
by its ``run_op``). Run it from the root of a checkout, which it imports
``varifoldlab`` from; run it on two checkouts, at ``VARIFOLD_LAB_THREADS=1``
and ``=2``, and diff the outputs.

Each digest line of a scenario is followed by one ``<key>/k=<k>/bl <repr>``
line per row, and each exact-BL query by ``<key>/value``, ``<key>/lp_lower``
and ``<key>/lp_upper`` ``repr`` lines (the value and its LP certificate), so
two checkouts diff numerically as well.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from varifoldlab.lab import ScenarioSpec, run_scenario  # noqa: E402
from varifoldlab.scenarios import FAMILIES  # noqa: E402


def sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little") + part)
    return h.hexdigest()


def scenario_lines():
    specs = [(f"scenario/{name}", ScenarioSpec(family=name)) for name in FAMILIES]
    specs.append(("scenario/disk-k12", ScenarioSpec(family="disk", k_schedule=(1, 2))))
    for key, spec in specs:
        report = run_scenario(spec)
        yield key, sha(report.to_json_bytes())
        for row in report.rows:
            yield f"{key}/k={row['k']}/bl", repr(row["bl"])


class _Buffers:
    """Stands in for ``io`` inside ``workloads`` so that the stdout and
    stderr buffers ``run_op`` makes for a CLI call can be read after it."""

    def __init__(self):
        self.made = []

    def StringIO(self):  # noqa: N802
        buf = io.StringIO()
        self.made.append(buf)
        return buf


def query_lines(seed: int):
    ops = workloads.build("queries", seed)
    buffers = _Buffers()
    real_io, workloads.io = workloads.io, buffers
    try:
        with tempfile.TemporaryDirectory() as tmp:
            paths = workloads.write_inputs(ops, Path(tmp))
            for op in ops:
                buffers.made.clear()
                out = workloads.run_op(op, paths)
                if out.exit_code is None:
                    raise RuntimeError(f"{op.key} raised: {out.error}")
                stdout, stderr = (b.getvalue().encode() for b in buffers.made)
                key = f"queries/{seed}/{op.key}"
                yield key, sha(str(out.exit_code).encode(), stdout, stderr)
                if op.key.endswith("/exact") and out.exit_code == 0:
                    report = json.loads(stdout)
                    for name in ("value", "lp_lower", "lp_upper"):
                        yield f"{key}/{name}", repr(report[name])
    finally:
        workloads.io = real_io


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, action="append", default=[],
                    help="a queries seed (repeatable; default: 1)")
    args = ap.parse_args(argv)
    for key, digest in scenario_lines():
        print(key, digest, flush=True)
    for seed in args.seed or [1]:
        for key, digest in query_lines(seed):
            print(key, digest, flush=True)


if __name__ == "__main__":
    main()
