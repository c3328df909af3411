"""Scenario runner binding the library together: runs a convergence
experiment over a k schedule, tabulates both convergence notions plus the
hypothesis quantities, and derives flags from the tabulated values only.

Every verdict is a trend statement with an explicit resolution floor
(atom counts, sampling gaps); nothing claims a true limit. Reports are
deterministic byte-for-byte for a fixed spec and seed.
"""

from __future__ import annotations

import csv
import json
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .integrands import energy, get_integrand
# run_scenario calls the cores behind hausdorff_local and filling_check; the
# two names stay here because perfbench/layers.py hooks them in this module
from .metrics import (_filling_report, _hausdorff_report, _projected_mass, bl_distance,
                      filling_check, hausdorff_local)
from .quasimin import GaugeFunction, _check_m_factor
from .scenarios import get_family
from .sets import Ball, _clip, measure
from .varifold import var_of_set

__all__ = ["ScenarioSpec", "ConvergenceReport", "run_scenario", "spearman_rank"]

SCHEMA_VERSION = 1

HAUSDORFF_FLOOR = 0.05         # absolute floor for the per-radius flag
HAUSDORFF_SHRINK = 0.05        # or shrink to 5% of the initial value
MASS_TOL = 0.01
ENERGY_TOL = 0.01
BL_SLACK = 1e-6                # monotonicity slack for the bl trend


def _thread_count() -> int:
    env = os.environ.get("VARIFOLD_LAB_THREADS")
    if env:
        try:
            threads = int(env)
        except ValueError:
            raise ValueError(f"VARIFOLD_LAB_THREADS must be an integer, got {env!r}") from None
        return max(1, threads)
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _int_at_least(name, value, low) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        kind = "positive" if low == 1 else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer, got {value!r}")
    return int(value)


_JSON_NAMES = {"M": "m_factor", "h": "gauge"}


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one convergence experiment.

    ``atoms`` and ``samples`` are floors, not targets: every simplex of a
    set gets at least one atom and at least one sample point, so a set
    with more simplices than ``atoms`` gets one atom per simplex.
    """

    family: str
    k_schedule: tuple = (1, 2, 4, 8, 16, 32, 64)
    integrand: Optional[str] = "area"
    m_factor: float = 1.0
    gauge: GaugeFunction = field(default_factory=GaugeFunction)
    seed: int = 0
    atoms: int = 256
    samples: int = 256
    base_point: Optional[tuple] = None
    radii: Optional[tuple] = None
    domain: Optional[tuple] = None  # (center..., radius)

    def __post_init__(self):
        if not isinstance(self.family, str):
            raise ValueError(f"family must be a string, got {self.family!r}")
        for name in ("k_schedule", "base_point", "radii", "domain"):
            value = getattr(self, name)
            if isinstance(value, (list, tuple, np.ndarray)):
                object.__setattr__(self, name, tuple(value))
            elif value is not None or name == "k_schedule":
                raise ValueError(f"{name} must be a list, got {value!r}")
        ks = tuple(_int_at_least("every k", k, 1) for k in self.k_schedule)
        if any(k2 <= k1 for k1, k2 in zip(ks, ks[1:])) or not ks:
            raise ValueError("k schedule must be nonempty and strictly increasing")
        object.__setattr__(self, "k_schedule", ks)
        if self.radii is not None:
            if not (self.radii and all(isinstance(r, numbers.Real) and 0 < r < np.inf
                                       for r in self.radii)):
                raise ValueError(f"radii must be a nonempty list of finite positive numbers, "
                                 f"got {list(self.radii)!r}")
            if any(r2 >= r1 for r1, r2 in zip(self.radii, self.radii[1:])):
                raise ValueError(f"radii must be strictly decreasing, got {list(self.radii)!r}")
        for name in ("atoms", "samples"):
            object.__setattr__(self, name, _int_at_least(name, getattr(self, name), 1))
        object.__setattr__(self, "seed", _int_at_least("seed", self.seed, 0))
        _check_m_factor(self.m_factor)

    def to_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "family": self.family,
            "k_schedule": list(self.k_schedule),
            "integrand": self.integrand,
            "M": self.m_factor,
            "h": self.gauge.to_dict(),
            "seed": self.seed,
            "atoms": self.atoms,
            "samples": self.samples,
            "base_point": None if self.base_point is None else list(self.base_point),
            "radii": None if self.radii is None else list(self.radii),
            "domain": None if self.domain is None else list(self.domain),
        }

    @classmethod
    def from_dict(cls, doc):
        """Inverse of ``to_dict``; a key left out takes the field's default."""
        if not isinstance(doc, dict):
            raise ValueError(f"a scenario spec must be a JSON object, got {type(doc).__name__}")
        doc = dict(doc)
        schema = doc.pop("schema", SCHEMA_VERSION)
        if schema != SCHEMA_VERSION:
            raise ValueError(f"unsupported spec schema {schema!r}")
        known = {f.name for f in fields(cls)} - set(_JSON_NAMES.values()) | set(_JSON_NAMES)
        unknown = sorted(set(doc) - known)
        if unknown:
            hint = ("; report paths are the run options --output and --csv"
                    if unknown[0].startswith("output") else "")
            raise ValueError(f"unknown spec key {unknown[0]!r}{hint}")
        if "family" not in doc:
            raise ValueError("a scenario spec needs a family")
        if "h" in doc:
            doc["h"] = GaugeFunction.from_dict(doc["h"])
        return cls(**{_JSON_NAMES.get(k, k): v for k, v in doc.items()})

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def spearman_rank(a, b) -> float:
    """Spearman rank correlation of two equal-length sequences."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ra = np.argsort(np.argsort(a)).astype(float)
    rb = np.argsort(np.argsort(b)).astype(float)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = np.sqrt((ra * ra).sum() * (rb * rb).sum())
    return float((ra * rb).sum() / denom) if denom > 0 else 1.0


def _var_with_target_atoms(e, target):
    per = max(1, int(np.ceil(target / max(len(e.simplices), 1))))
    return var_of_set(e, per)


@dataclass(frozen=True)
class ConvergenceReport:
    spec: ScenarioSpec
    rows: tuple              # per-k dicts
    radii: tuple
    flags: dict
    filling_verdict: Optional[str]
    bl_resolution_floor: float
    spearman_d_vs_bl: float
    limit_measure: float
    limit_energy: Optional[float]
    warnings: tuple

    def to_dict(self):
        return {
            "schema": SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "radii": list(self.radii),
            "rows": [dict(r) for r in self.rows],
            "flags": dict(self.flags),
            "filling_verdict": self.filling_verdict,
            "bl_resolution_floor": self.bl_resolution_floor,
            "spearman_d_vs_bl": self.spearman_d_vs_bl,
            "limit_measure": self.limit_measure,
            "limit_energy": self.limit_energy,
            "warnings": list(self.warnings),
        }

    def to_json_bytes(self) -> bytes:
        return (json.dumps(self.to_dict(), sort_keys=True, indent=2, allow_nan=False)
                + "\n").encode()

    def save_csv(self, path):
        cols = ["k"] + [f"hausdorff_r{r:g}" for r in self.radii] + \
               ["measure", "energy", "bl", "bl_dictionary"]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(cols)
            for row in self.rows:
                rec = [row["k"]]
                rec += [row["hausdorff"][f"{r:g}"] for r in self.radii]
                rec += [row["measure"], row.get("energy"), row["bl"], row["bl_dictionary"]]
                writer.writerow(rec)


def run_scenario(spec: ScenarioSpec) -> ConvergenceReport:
    """Run the experiment: per scheduled k, tabulate local Hausdorff
    distances to the limit over the radius grid, total measure, energy,
    and the bounded-Lipschitz distance between varifolds; then derive
    hypothesis and conclusion flags from the table.

    The limit is clipped once per radius and every row shares that clip.
    Each row clips E_k once per radius, and that clip serves both the
    Hausdorff sups and the filling check's projected mass, so E_k never
    outlives its row; the filling verdict is decided from the masses."""
    family = get_family(spec.family)
    limit = family.limit()
    if spec.domain is not None and len(spec.domain) != limit.ambient_dim + 1:
        raise ValueError(f"domain needs the center coordinates, then the radius: "
                         f"{limit.ambient_dim + 1} numbers for family {spec.family!r}, "
                         f"got {len(spec.domain)}")
    if spec.base_point is not None and len(spec.base_point) != limit.ambient_dim:
        raise ValueError(f"base_point needs {limit.ambient_dim} coordinates for family "
                         f"{spec.family!r}, got {len(spec.base_point)}")
    base = np.asarray(spec.base_point if spec.base_point is not None
                      else family.base_point, dtype=float)
    radii = tuple(float(r) for r in (spec.radii if spec.radii is not None
                                     else family.base_radii))
    integrand = get_integrand(spec.integrand) if spec.integrand else None
    domain = (Ball(np.asarray(spec.domain[:-1], dtype=float), float(spec.domain[-1]))
              if spec.domain is not None else family.domain)

    limit_var = _var_with_target_atoms(limit, spec.atoms)
    limit_measure = measure(limit)
    limit_energy = energy(integrand, limit_var) if integrand else None
    bl_floor = 2.0 * limit_measure / max(len(limit_var), 1)

    warnings = []
    tangent = family.limit_tangent
    balls = [Ball(base, r) for r in radii]
    limit_clips = [_clip(limit, ball)[0] for ball in balls]

    def row_for(k):
        e = family.make(k)
        h, masses = {}, []
        for r, ball, limit_clip in zip(radii, balls, limit_clips):
            clip = _clip(e, ball)
            h[f"{r:g}"] = _hausdorff_report(clip[0], limit_clip, e, limit, r, spec.samples).value
            if tangent is not None:
                masses.append(_projected_mass(clip, base, r, tangent))
        v = _var_with_target_atoms(e, spec.atoms)
        row = {
            "k": k,
            "hausdorff": h,
            "measure": measure(e),
            "bl": bl_distance(v, limit_var, "exact").value,
            "bl_dictionary": bl_distance(v, limit_var, "dictionary", domain=domain).value,
            "atoms": len(v),
        }
        row["energy"] = energy(integrand, v) if integrand else None
        return row, masses

    with ThreadPoolExecutor(max_workers=min(_thread_count(), len(spec.k_schedule))) as pool:
        rows, masses = zip(*pool.map(row_for, spec.k_schedule))

    filling_verdict = None
    if tangent is not None:
        values = {(k, r): value for k, row_masses in zip(spec.k_schedule, masses)
                  for r, value in zip(radii, row_masses)}
        filling_verdict = _filling_report(values, spec.k_schedule, radii, tangent.dim).verdict
    else:
        warnings.append("no declared limit tangent; filling check skipped")

    flags = {}
    per_radius = []
    for r in radii:
        key = f"{r:g}"
        first, last = rows[0]["hausdorff"][key], rows[-1]["hausdorff"][key]
        per_radius.append(last <= max(HAUSDORFF_FLOOR, HAUSDORFF_SHRINK * first))
    flags["hausdorff"] = all(per_radius)
    flags["mass"] = abs(rows[-1]["measure"] - limit_measure) <= MASS_TOL * max(1.0, limit_measure)
    if integrand:
        flags["energy"] = abs(rows[-1]["energy"] - limit_energy) <= ENERGY_TOL * max(1.0, abs(limit_energy))
    else:
        flags["energy"] = None
    flags["filling"] = None if filling_verdict is None else (filling_verdict == "HOLDS")

    bls = [row["bl"] for row in rows]
    nonincreasing = all(b2 <= b1 + BL_SLACK * (1 + bls[0]) for b1, b2 in zip(bls, bls[1:]))
    below_floor = bls[-1] < 3.0 * bl_floor
    flags["conclusion"] = nonincreasing and below_floor
    decreasing = bls[-1] < bls[0] - BL_SLACK * (1 + bls[0])
    if not below_floor and nonincreasing and decreasing:
        warnings.append(
            f"bl trend decreasing but final value {bls[-1]:.4g} above the "
            f"resolution floor {3 * bl_floor:.4g}; raise atoms to resolve")

    ds = [max(row["hausdorff"].values()) for row in rows]
    rho = spearman_rank(ds, bls)

    return ConvergenceReport(
        spec=spec,
        rows=rows,
        radii=radii,
        flags=flags,
        filling_verdict=filling_verdict,
        bl_resolution_floor=float(bl_floor),
        spearman_d_vs_bl=rho,
        limit_measure=float(limit_measure),
        limit_energy=None if limit_energy is None else float(limit_energy),
        warnings=tuple(warnings),
    )
