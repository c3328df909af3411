"""Command-line interface.

Subcommands: run, distance, density, audit-ellipticity, audit-qm,
projected-mass. Reports go to stdout (or --output) as JSON; diagnostics go
to stderr. Exit codes: 0 success, 2 configuration error, 3 when a
numerical-resolution warning is promoted by --strict or a numerical solve
fails (the transshipment LP of the exact BL distance); every error prints
an ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .geometry import Plane, axis_plane
from .integrands import (competitor_registry, get_integrand,
                         load_tabulated_integrand, semi_ellipticity_audit)
from .lab import ScenarioSpec, run_scenario
from .metrics import SolverError, bl_distance, hausdorff_local_report, projected_mass
from .quasimin import GaugeFunction, qm_audit
from .sets import Ball, PointCloudSet, load_set
from .varifold import density_report, load_varifold

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOLUTION = 3


class ConfigError(Exception):
    pass


def _emit(doc, output):
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_plane(args, n) -> Plane:
    if args.plane_frame:
        try:
            frame = np.array(json.loads(args.plane_frame), dtype=float).T
        except (TypeError, ValueError, OverflowError):
            raise ConfigError(f"--plane-frame must be JSON rows of numbers, "
                              f"got {args.plane_frame}") from None
        return Plane.from_vectors(frame)
    if args.plane_angle is not None:
        if n != 2:
            raise ConfigError("--plane-angle needs an ambient dimension of 2")
        a = float(args.plane_angle)
        return Plane.from_span([np.cos(a), np.sin(a)])
    if args.plane_axes:
        axes = [int(a) for a in args.plane_axes.split(",")]
        return axis_plane(n, axes)
    raise ConfigError("specify a plane with --plane-axes, --plane-angle or --plane-frame")


def _finite_point(text, flag):
    """The comma-separated coordinates given to ``flag``, all finite."""
    try:
        x = np.array([float(c) for c in text.split(",")])
    except ValueError:
        raise ConfigError(f"{flag} must be comma-separated numbers, got {text}") from None
    if not np.isfinite(x).all():
        raise ConfigError(f"{flag} must be finite, got {text}")
    return x


def _load_integrand(spec: str):
    if spec.endswith(".json"):
        return load_tabulated_integrand(spec)
    return get_integrand(spec)


def _load_simplicial_set(path):
    e = load_set(path)
    if isinstance(e, PointCloudSet):
        raise ConfigError(f"{path} holds a point cloud; this command needs a simplicial set")
    return e


def _cmd_run(args):
    spec = ScenarioSpec.from_json(args.spec)
    report = run_scenario(spec)
    _emit(report.to_dict(), args.output)
    if args.csv:
        report.save_csv(args.csv)
    warned = bool(report.warnings)
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_RESOLUTION if (warned and args.strict) else EXIT_OK


def _cmd_distance(args):
    if args.kind == "hausdorff":
        a = load_set(args.first)
        b = load_set(args.second)
        center = _finite_point(args.center, "--center")
        rep = hausdorff_local_report(a, b, center, args.radius, samples=args.samples)
        _emit(rep.to_dict(), args.output)
        return EXIT_OK
    v = load_varifold(args.first)
    w = load_varifold(args.second)
    rep = bl_distance(v, w, method=args.method)
    _emit(rep.to_dict(), args.output)
    return EXIT_OK


def _cmd_density(args):
    v = load_varifold(args.varifold)
    center = _finite_point(args.center, "--center")
    radii = [float(r) for r in args.radii.split(",")]
    rep = density_report(v, center, radii)
    _emit(rep.to_dict(), args.output)
    if not rep.reliable:
        for w in rep.warnings:
            print(f"warning: {w}", file=sys.stderr)
        if args.strict:
            return EXIT_RESOLUTION
    return EXIT_OK


def _cmd_audit_ellipticity(args):
    f = _load_integrand(args.integrand)
    x = _finite_point(args.x, "--x")
    t = _parse_plane(args, len(x))
    if t.ambient_dim != len(x):
        raise ConfigError(f"--x is a point of R^{len(x)}, but the plane lies in R^{t.ambient_dim}")
    competitors = None
    if args.competitors:
        wanted = set(args.competitors.split(","))
        competitors = [c for c in competitor_registry(t) if c[0] in wanted]
        if not competitors:
            raise ConfigError(f"no registry competitor matches {sorted(wanted)}")
    rep = semi_ellipticity_audit(f, x, t, competitors=competitors,
                                 scan_haar=args.scan_haar, seed=args.seed)
    _emit(rep.to_dict(), args.output)
    return EXIT_OK


def _cmd_audit_qm(args):
    e = _load_simplicial_set(args.set)
    if e.is_empty():
        raise ConfigError(f"{args.set} holds an empty set; the quasiminimality audit "
                          f"needs a set with at least one simplex")
    gauge = GaugeFunction(kind=args.h_kind, h0=args.h0, delta=args.h_delta)
    if args.domain:
        vals = _finite_point(args.domain, "--domain")
        domain = Ball(vals[:-1], vals[-1])
    else:
        # default: smallest enclosing ball about the vertex centroid, so the
        # set's extremes sit on the domain boundary (free tips inside the
        # domain are legitimately non-minimal and would dominate the audit)
        center = np.asarray(e.vertices, dtype=float).mean(axis=0)
        span = float(np.linalg.norm(e.vertices - center, axis=1).max())
        domain = Ball(center, max(span, 1e-6))
    registry = args.registry.split(",") if args.registry else None
    rep = qm_audit(e, args.M, gauge, domain, registry=registry)
    _emit(rep.to_dict(), args.output)
    return EXIT_OK


def _cmd_projected_mass(args):
    e = _load_simplicial_set(args.set)
    center = _finite_point(args.center, "--center")
    t = _parse_plane(args, e.ambient_dim)
    value = projected_mass(e, center, args.radius, t)
    _emit({"value": value, "center": center.tolist(), "radius": args.radius},
          args.output)
    return EXIT_OK


def _build_parser():
    p = argparse.ArgumentParser(prog="varifold-lab",
                                description="discrete-varifold convergence laboratory")
    p.add_argument("--strict", action="store_true",
                   help="promote numerical-resolution warnings to exit code 3")
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("run", help="run a scenario spec (JSON)")
    q.add_argument("spec")
    q.add_argument("--output", help="write the JSON report here instead of stdout")
    q.add_argument("--csv", help="also write the per-k row table as CSV")
    q.set_defaults(func=_cmd_run)

    q = sub.add_parser("distance", help="distance between two files")
    q.add_argument("--kind", choices=["hausdorff", "bl"], required=True)
    q.add_argument("first")
    q.add_argument("second")
    q.add_argument("--center", default="0,0", help="ball center (hausdorff)")
    q.add_argument("--radius", type=float, default=1.0)
    q.add_argument("--samples", type=int, default=256)
    q.add_argument("--method", choices=["exact", "dictionary"], default="exact")
    q.add_argument("--output")
    q.set_defaults(func=_cmd_distance)

    q = sub.add_parser("density", help="density report of a varifold file")
    q.add_argument("varifold")
    q.add_argument("--center", required=True)
    q.add_argument("--radii", required=True, help="comma-separated, decreasing")
    q.add_argument("--output")
    q.set_defaults(func=_cmd_density)

    q = sub.add_parser("audit-ellipticity", help="semi-ellipticity audit of an integrand")
    q.add_argument("integrand", help="registry name or tabulated-integrand JSON path")
    q.add_argument("--x", default="0,0", help="freeze point")
    q.add_argument("--plane-axes", help="comma-separated axis indices")
    q.add_argument("--plane-angle", type=float, help="line angle (n = 2)")
    q.add_argument("--plane-frame", help="JSON rows of spanning vectors")
    q.add_argument("--competitors", help="comma-separated registry competitor ids "
                                         "(applied to the supplied plane)")
    q.add_argument("--scan-haar", type=int, default=16)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--output")
    q.set_defaults(func=_cmd_audit_ellipticity)

    q = sub.add_parser("audit-qm", help="quasiminimality audit of a set file")
    q.add_argument("set")
    q.add_argument("--M", type=float, default=1.0)
    q.add_argument("--h-kind", default="constant", choices=["constant", "step", "power"])
    q.add_argument("--h0", type=float, default=0.0)
    q.add_argument("--h-delta", type=float, default=np.inf)
    q.add_argument("--domain", help="domain ball as center coords then radius, comma-separated")
    q.add_argument("--registry", help="comma-separated deformation names")
    q.add_argument("--output")
    q.set_defaults(func=_cmd_audit_qm)

    q = sub.add_parser("projected-mass", help="projected mass of a set file")
    q.add_argument("set")
    q.add_argument("--center", required=True)
    q.add_argument("--radius", type=float, required=True)
    q.add_argument("--plane-axes")
    q.add_argument("--plane-angle", type=float)
    q.add_argument("--plane-frame")
    q.add_argument("--output")
    q.set_defaults(func=_cmd_projected_mass)

    return p


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, KeyError, json.JSONDecodeError,
            ValueError) as exc:
        # str() of a KeyError (an unknown family, integrand or deformation)
        # quotes its message
        print(f"error: {exc.args[0] if isinstance(exc, KeyError) else exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOLUTION


if __name__ == "__main__":
    sys.exit(main())
