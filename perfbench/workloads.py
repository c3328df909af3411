"""Seeded inputs for the varifold-lab benchmark and the code that runs them.

A workload is a fixed list of operations. Each operation either calls
``varifoldlab.lab.run_scenario`` on a spec, or makes one in-process CLI call
through ``varifoldlab.cli.main`` on input files the benchmark wrote. Inputs
are built here with numpy alone, so a change to the library's own set
generators cannot change what the library is asked to compute.

The seed decides which inputs a pass uses and in which order. Random BL
pairs are drawn from a fixed pool whose every member has a reference value
recorded in ``reference.json``; the seed picks a subset of each size class,
so every seed does the same amount of work on different data.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("scenario_curves", "scenario_surface", "queries")

# random BL pairs: (n, m) configurations, atom-count classes, pool depth
BL_CONFIGS = ((2, 1), (3, 2))
BL_SIZES = (2, 4, 8, 16, 32, 64, 128)
BL_POOL_PER_SIZE = 16
BL_PICK_PER_SIZE = 7
BL_POOL_SEED = 20170513

# criterion-7 curve audits: (set name, domain ball "center...,radius", M)
CURVE_AUDITS = tuple((name, dom, m) for name, dom in
                     (("segment", "0.5,0,0.5"), ("ycone", "0,0,1"), ("zigzag", "0.5,0,0.5"))
                     for m in ("1", "2"))
# the coarse surface audit: radial_collapse moves the flat disk, so qm_gap
# reaches the triangle union; tangent_project runs distance_to_set once per
# simplex with a single point. The others leave a flat disk in place.
DISK_AUDIT = ("--registry", "radial_collapse,tangent_project", "--domain", "0,0,0,0.8")

ELLIPTICITY_CALLS = (
    ("aniso_nonelliptic", "--plane-angle", "0"),
    ("area", "--plane-angle", "0.5"),
    ("aniso_quadratic", "--x", "0.1,0.2", "--plane-angle", "1.1"),
    ("x_weighted", "--x", "0.3,-0.2", "--plane-angle", "0.25"),
    ("area", "--x", "0,0,0", "--plane-axes", "0,1"),
    ("aniso_quadratic", "--x", "0,0,0", "--plane-axes", "0,2"),
    ("x_weighted", "--x", "0.2,0.1,0", "--plane-axes", "0"),
    ("aniso_nonelliptic", "--x", "0,0,0", "--plane-axes", "2"),
)


@dataclass(frozen=True)
class Op:
    """One operation. ``key`` names its reference entry; CLI arguments of
    the form ``@name`` are replaced by the path of input file ``name``."""

    key: str
    spec: dict = None
    argv: tuple = ()
    files: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return self.key.split("/", 1)[0]

    def input_digest(self) -> str:
        """Digest of what the library receives, without paths or the run seed."""
        h = hashlib.sha256()
        spec = {k: v for k, v in (self.spec or {}).items() if k != "seed"}
        h.update(json.dumps([spec, list(self.argv)], sort_keys=True).encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        return h.hexdigest()[:16]


def _json_bytes(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def _set_file(vertices, simplices) -> bytes:
    v = np.asarray(vertices, dtype=float)
    return _json_bytes({"ambient_dim": v.shape[1], "dim": len(simplices[0]) - 1,
                        "vertices": v.tolist(),
                        "simplices": np.asarray(simplices).tolist()})


def _polyline(points):
    return points, [[i, i + 1] for i in range(len(points) - 1)]


def _segments(pairs):
    verts = np.concatenate([np.stack(p) for p in pairs])
    return verts, np.arange(len(verts)).reshape(-1, 2).tolist()


def curve_set(name: str) -> bytes:
    """The criterion-7 curve sets: unit segment and Y-cone with 64 pieces
    per arm, and the 4-tooth zigzag of height 1/8."""
    if name == "segment":
        x = np.arange(65) / 64.0
        return _set_file(*_polyline(np.column_stack([x, np.zeros(65)])))
    if name == "ycone":
        t = np.linspace(0.0, 1.0, 65)
        pairs = []
        for a in np.pi / 2 + np.arange(3) * 2 * np.pi / 3:
            pts = t[:, None] * np.array([np.cos(a), np.sin(a)])[None, :]
            pairs.extend((pts[i], pts[i + 1]) for i in range(64))
        return _set_file(*_segments(pairs))
    if name == "zigzag":
        i = np.arange(9)
        return _set_file(*_polyline(np.column_stack([i / 8.0, np.where(i % 2 == 1, 0.125, 0.0)])))
    raise ValueError(name)


def coarse_disk() -> bytes:
    """Horizontal unit disk in R^3: rings at 1/4, 1/2, 1 with 8 angular steps."""
    ang = np.arange(8) * (2 * np.pi / 8)
    ring = lambda r: np.column_stack([r * np.cos(ang), r * np.sin(ang), np.zeros(8)])
    tris, prev = [], None
    for r in (0.25, 0.5, 1.0):
        outer = ring(r)
        for i in range(8):
            j = (i + 1) % 8
            if prev is None:
                tris.append([np.zeros(3), outer[i], outer[j]])
            else:
                tris.append([prev[i], outer[i], outer[j]])
                tris.append([prev[i], outer[j], prev[j]])
        prev = outer
    verts = np.concatenate([np.stack(t) for t in tris])
    return _set_file(verts, np.arange(len(verts)).reshape(-1, 3).tolist())


def _random_varifold(rng, n, m, count) -> bytes:
    pos = rng.uniform(-1.0, 1.0, (count, n))
    if m == 1 and n == 2:
        a = rng.uniform(0.0, np.pi, count)
        frames = np.stack([np.cos(a), np.sin(a)], axis=1)[:, :, None]
    else:
        frames = np.linalg.qr(rng.standard_normal((count, n, m)))[0]
    masses = rng.uniform(0.1, 1.1, count) / count
    atoms = [{"x": pos[i].tolist(), "frame": frames[i].T.tolist(), "mass": float(masses[i])}
             for i in range(count)]
    return _json_bytes({"ambient_dim": n, "dim": m, "atoms": atoms})


def bl_pair(ci: int, si: int, j: int):
    """Pool member j of configuration ci and size class si: two varifolds,
    the first with BL_SIZES[si] atoms, the second with between half and
    all of that."""
    n, m = BL_CONFIGS[ci]
    size = BL_SIZES[si]
    rng = np.random.default_rng((BL_POOL_SEED, ci, si, j))
    other = int(rng.integers(max(2, size // 2), size + 1))
    return _random_varifold(rng, n, m, size), _random_varifold(rng, n, m, other)


def bl_ops(ci: int, si: int, j: int):
    n, m = BL_CONFIGS[ci]
    v, w = bl_pair(ci, si, j)
    base = f"bl/{n}{m}-{BL_SIZES[si]}-{j:02d}"
    files = {"v.json": v, "w.json": w}
    return [Op(f"{base}/{method}", argv=("distance", "--kind", "bl", "@v.json", "@w.json",
                                         "--method", method), files=files)
            for method in ("exact", "dictionary")]


def fixed_query_ops():
    ops = []
    for name, dom, m in CURVE_AUDITS:
        ops.append(Op(f"qm/{name}-M{m}", argv=("audit-qm", "@set.json", "--M", m, "--domain", dom),
                      files={"set.json": curve_set(name)}))
    ops.append(Op("qm/disk-coarse", argv=("audit-qm", "@set.json") + DISK_AUDIT,
                  files={"set.json": coarse_disk()}))
    for i, call in enumerate(ELLIPTICITY_CALLS):
        ops.append(Op(f"ell/{i}-{call[0]}", argv=("audit-ellipticity",) + call))
    return ops


def scenario_ops(workload: str, seed: int):
    if workload == "scenario_curves":
        return [Op(f"scenario/{fam}", spec={"family": fam, "seed": seed})
                for fam in ("graph_decay", "zigzag")]
    return [Op("scenario/disk", spec={"family": "disk", "k_schedule": [1, 2], "seed": seed})]


def build(workload: str, seed: int):
    """The operation list of one workload for one seed."""
    rng = np.random.default_rng(seed)
    if workload in ("scenario_curves", "scenario_surface"):
        ops = scenario_ops(workload, seed)
    elif workload == "queries":
        ops = fixed_query_ops()
        for ci in range(len(BL_CONFIGS)):
            for si in range(len(BL_SIZES)):
                for j in sorted(rng.choice(BL_POOL_PER_SIZE, BL_PICK_PER_SIZE, replace=False)):
                    ops.extend(bl_ops(ci, si, int(j)))
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    return [ops[i] for i in rng.permutation(len(ops))]


def digest(ops) -> str:
    """Digest of a whole operation list, seed and order included."""
    h = hashlib.sha256()
    for op in ops:
        h.update(json.dumps([op.key, op.spec, list(op.argv)], sort_keys=True).encode())
        h.update(op.input_digest().encode())
    return h.hexdigest()[:16]


def write_inputs(ops, directory):
    """Write each operation's input files once, into a fresh directory of
    its own, and return {op key: {file name: path}}."""
    paths = {}
    for i, op in enumerate(ops):
        if not op.files:
            continue
        d = directory / f"op{i:04d}"
        d.mkdir()
        paths[op.key] = {}
        for name, data in op.files.items():
            (d / name).write_bytes(data)
            paths[op.key][name] = str(d / name)
    return paths


@dataclass
class Outcome:
    seconds: float
    cpu_seconds: float
    exit_code: int = None
    doc: dict = None
    error: str = None


def run_op(op, paths):
    """Run one operation in process and return its timing and output. CLI
    output is captured in memory; the CLI is never asked to write a file."""
    import varifoldlab.cli
    import varifoldlab.lab

    t0, c0 = time.perf_counter(), time.process_time()
    try:
        if op.spec is not None:
            report = varifoldlab.lab.run_scenario(varifoldlab.lab.ScenarioSpec(**op.spec))
            out = Outcome(time.perf_counter() - t0, time.process_time() - c0, 0)
            out.doc = report.to_dict()
            return out
        argv = [paths[op.key][a[1:]] if a.startswith("@") else a for a in op.argv]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = varifoldlab.cli.main(argv)
            except SystemExit as exc:  # argparse rejects arguments this way
                code = exc.code
        out = Outcome(time.perf_counter() - t0, time.process_time() - c0, code)
    except Exception as exc:  # the failure is counted, the run goes on
        return Outcome(time.perf_counter() - t0, time.process_time() - c0,
                       error=f"{type(exc).__name__}: {exc}")
    if code == 0:
        try:
            out.doc = json.loads(stdout.getvalue())
        except json.JSONDecodeError as exc:
            out.error = f"stdout is not JSON: {exc}"
    else:
        out.error = stderr.getvalue().strip()[-300:] or f"exit code {code}"
    return out
