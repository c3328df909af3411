"""varifold-lab benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout; it imports varifoldlab from ``src/``.
``--workload all`` runs every workload, each in its own process.

One process is a single closed-loop client: each operation starts after the
previous one returned. The only parallelism is ``run_scenario``'s per-k pool
at the library default (capped at the CPUs this process may use when
``VARIFOLD_LAB_THREADS`` is unset). After set-up, passes over the workload's
operation list repeat until the next one would end after ``--seconds``.

Workloads (why each was chosen):
  scenario_curves   run_scenario on the default graph_decay and zigzag specs;
                    the exact BL LP dominates (256x256 and 256x512 LPs), and
                    graph_decay is where a sparse BL solver can lose.
  scenario_surface  run_scenario on disk, k=(1,2): the m=2 path, where point-
                    triangle distance, an 864x864 LP and memory dominate.
  queries           211 independent CLI calls (QM audits on curves and a coarse
                    disk, ellipticity audits in R^2 and R^3, exact and
                    dictionary BL on random pairs of 2-128 atoms): per-call
                    overhead, many small LPs, single-point distance_to_set,
                    and the union measures no scenario reaches.

With ``--trace 0`` the last line reports wall_s, cpu_s and setup_s (medians),
op_p50_ms/op_p95_ms over every call, and peak_rss_mb. With ``--trace 1``
untraced and traced passes alternate, and the last line reports the
per-layer split of the traced passes plus trace.overhead_s. Every output is
checked by gate.py; a call that raises, exits non-zero or misses its check
counts as failed. Earlier lines give sample counts, fail_ratio, provenance
and the traced split checks; the same goes to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import gate
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

SETUP_REPS = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# ROADMAP profile to reproduce: workload -> (op, layer, low share, high share, wording)
SPLITS = {
    "scenario_curves": ("scenario/zigzag", "metrics.bl_lp", 0.85, 1.0, ">= 85%"),
    "scenario_surface": ("scenario/disk", "sets.distance_to_set", 0.35, 0.65, "about half"),
}


def cap_threads():
    """Keep the library's default pool size within the CPUs this process may use."""
    available = len(os.sched_getaffinity(0))
    if "VARIFOLD_LAB_THREADS" not in os.environ and (os.cpu_count() or 1) > available:
        os.environ["VARIFOLD_LAB_THREADS"] = str(available)


def steal_seconds():
    """CPU time the hypervisor gave to others, machine-wide; None if unknown."""
    try:
        ticks = int(Path("/proc/stat").read_text().split("\n", 1)[0].split()[8])
    except (OSError, IndexError, ValueError):
        return None
    return ticks / os.sysconf("SC_CLK_TCK")


def measure_setup(reps=SETUP_REPS):
    """Fresh-process import time of varifoldlab, after one unmeasured warm-up."""
    code = ("import time; t = time.perf_counter(); import varifoldlab; "
            "print(time.perf_counter() - t, varifoldlab.__file__)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for i in range(reps + 1):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True, timeout=120)
        seconds, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported varifoldlab from {path}, not {SRC}")
        if i:
            times.append(float(seconds))
    return times


def provenance(seed, input_digest):
    import scipy
    import varifoldlab.lab

    try:
        from scipy.optimize._highspy import _core as highs
        highs_version = (f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}."
                         f"{highs.HIGHS_VERSION_PATCH}")
    except (ImportError, AttributeError):
        highs_version = None
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True, timeout=30).stdout.strip()
    src = hashlib.sha256()
    for path in sorted((SRC / "varifoldlab").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    thread_count = getattr(varifoldlab.lab, "_thread_count", None)
    affinity = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(affinity),
        "cpu_affinity": affinity,
        "os_cpu_count": os.cpu_count(),
        "varifold_lab_threads": {"env": os.environ.get("VARIFOLD_LAB_THREADS"),
                                 "effective": thread_count() if thread_count else None},
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "highs": highs_version,
        "machine": platform.machine(),
        "git_commit": commit,
        "source_digest": src.hexdigest()[:16],
        "seed": seed,
        "input_digest": input_digest,
    }


class PassRecord:
    def __init__(self, tracer):
        self.tracer = tracer
        self.wall = self.cpu = 0.0
        self.op_seconds = []
        self.failed = 0
        self.problems = []
        self.absent = []  # layer metrics that could not be traced

    def add(self, outcome, problems):
        self.wall += outcome.seconds
        self.cpu += outcome.cpu_seconds
        self.op_seconds.append(outcome.seconds)
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_pass(ops, paths, reference, truths, tracer=None):
    gc.collect()
    record = PassRecord(tracer)
    pairs = gate.PairCheck()
    with (layers.Tracing(tracer) if tracer else contextlib.nullcontext()) as tracing:
        for op in ops:
            if tracer:
                tracer.op = op.key
            outcome = workloads.run_op(op, paths)
            problems = gate.check(op, outcome, reference) + pairs.add(op, outcome)
            if op.spec is not None and outcome.doc is not None:
                problems += gate.check_declared(outcome.doc, truths[op.spec["family"]])
            record.add(outcome, problems)
        if tracer:
            record.absent = tracing.absent()
    return record


def run_passes(ops, paths, reference, truths, seconds, trace):
    """Closed-loop passes until the next one would end after ``seconds``;
    with tracing, untraced and traced passes alternate, at least one each."""
    end = time.perf_counter() + seconds
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(ops, paths, reference, truths,
                               layers.Tracer() if traced else None))
        if trace and len(passes) < 2:
            continue
        next_traced = trace and len(passes) % 2 == 1
        estimate = statistics.median(p.wall for p in passes if bool(p.tracer) == next_traced)
        if time.perf_counter() + estimate > end:
            return passes


def end_to_end_metrics(passes, setup_times):
    walls = [p.wall for p in passes]
    op_ms = [1000.0 * s for p in passes for s in p.op_seconds]
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "wall_s": (statistics.median(walls), "s", len(walls), "passes"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s", len(walls), "passes"),
        "op_p50_ms": (float(np.percentile(op_ms, 50)), "ms", len(op_ms), "calls"),
        "op_p95_ms": (float(np.percentile(op_ms, 95)), "ms", len(op_ms), "calls"),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times), "fresh imports"),
        "peak_rss_mb": (peak_mb, "MB", 1, "process"),
    }


def layer_metrics(workload, passes):
    traced = [p for p in passes if p.tracer]
    plain = [p for p in passes if not p.tracer]
    values = [layers.layer_values(p.tracer) for p in traced]
    absent = set(traced[0].absent)
    out, notes = {}, []
    for name, (unit, _) in layers.LAYER_METRICS.items():
        if name in absent:
            out[name] = (None, unit, 0, "absent")
        elif unit == "s":
            out[name] = (statistics.median(v[name] for v in values), unit, len(values),
                         "traced passes")
        else:
            out[name] = (values[0][name], unit, 1, "traced pass")
    overhead = (statistics.median(p.wall for p in traced)
                - statistics.median(p.wall for p in plain))
    out["trace.overhead_s"] = (overhead, "s", len(passes), "passes")

    differing = [m for m in layers.DETERMINISTIC if m not in absent
                 and len({v[m] for v in values}) > 1]
    notes.append(f"deterministic counts over {len(values)} traced passes: "
                 + (f"DIFFER in {', '.join(differing)}" if differing else "repeat exactly")
                 + "; " + ", ".join(f"{m}={values[0][m]:.0f}" for m in layers.DETERMINISTIC
                                    if m not in absent))
    if workload in SPLITS:
        op_key, layer, low, high, wording = SPLITS[workload]
        part, busy = layers.op_split(traced[0].tracer, op_key, layer)
        share = part / busy if busy else 0.0
        verdict = "reproduced" if low <= share <= high else "NOT reproduced"
        notes.append(f"split check {op_key}: {layer} {part:.3f} s of {busy:.3f} s busy "
                     f"= {100 * share:.1f}% (ROADMAP: {wording}): {verdict}")
    return out, notes


def run_workload(args):
    cap_threads()
    sys.path.insert(0, str(SRC))
    import varifoldlab
    import varifoldlab.scenarios

    if not Path(varifoldlab.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported varifoldlab from {varifoldlab.__file__}, not {SRC}")
    reference = json.loads(REFERENCE.read_text())
    ops = workloads.build(args.workload, args.seed)
    digest = workloads.digest(ops)
    truths = {}
    for op in ops:
        if op.spec is not None:
            fam = varifoldlab.scenarios.get_family(op.spec["family"])
            truths[op.spec["family"]] = {"hausdorff": fam.hausdorff_holds,
                                         "mass": fam.mass_holds, "filling": fam.filling_holds}
    prov = provenance(args.seed, digest)

    WORK.mkdir(exist_ok=True)
    inputs = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        paths = workloads.write_inputs(ops, inputs)
        setup_times = [] if args.trace else measure_setup()
        steal_before = steal_seconds()
        passes = run_passes(ops, paths, reference, truths, args.seconds, args.trace)
        steal_after = steal_seconds()
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    attempted = sum(len(p.op_seconds) for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics, notes = layer_metrics(args.workload, passes)
    else:
        metrics, notes = end_to_end_metrics(passes, setup_times), []
    problems = [q for p in passes for q in p.problems]
    if steal_before is not None and steal_after is not None:
        notes.append(f"machine-wide CPU steal during the passes: {steal_after - steal_before:.2f} s")

    lines = [f"provenance {json.dumps(prov, sort_keys=True)}",
             f"{args.workload}: {len(passes)} passes of {len(ops)} calls, seed {args.seed}, "
             f"input digest {digest}",
             f"{args.workload} fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}"]
    lines += [f"  problem: {q}" for q in problems[:20]]
    for name, (value, unit, n, of) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g} {unit}"
        lines.append(f"{args.workload} {name} = {shown} (n={n} {of})")
    lines += [f"{args.workload} {note}" for note in notes]
    print("\n".join(lines))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit, _, _) in metrics.items()}}
    (WORK / "results").mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, provenance=prov, notes=notes,
                  problems=problems[:200], samples={n: m[2] for n, m in metrics.items()})
    (WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args):
    status = 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, timeout=600)
        status = status or proc.returncode
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description="varifold-lab benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "varifoldlab" / "__init__.py").is_file():
        print(f"error: no varifoldlab sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
