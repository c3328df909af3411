"""Correctness gate: every output is checked against a reference recorded
at the seed commit, field by field, never byte by byte, so that schema
additions to a report do not count as failures.

Tolerances: BL values (fields named ``bl``) within 1e-7 absolute, the
ROADMAP's gate for a changed BL solver; every other number within 1e-9
relative (1e-12 absolute near zero); strings, booleans, integers, verdicts
and exit codes exactly. On top of the reference, scenario flags must equal
the family's declared truths, and each BL pair must satisfy
bl >= bl_dictionary - 1e-9, since the dictionary value is a lower bound.
"""

from __future__ import annotations

import math

BL_TOL = 1e-7
REL_TOL = 1e-9
ABS_FLOOR = 1e-12
DICTIONARY_SLACK = 1e-9
QM_PASS_TOL = 1e-9  # qm_audit's own pass threshold


def _separated(values, tol) -> bool:
    s = sorted(values)
    return all(b - a > tol for a, b in zip(s, s[1:]))


def _scenario(doc):
    rows = doc["rows"]
    out = {
        "radii": doc["radii"],
        "rows": [{key: row[key] for key in
                  ("k", "atoms", "hausdorff", "measure", "energy", "bl", "bl_dictionary")}
                 for row in rows],
        "flags": doc["flags"],
        "filling_verdict": doc["filling_verdict"],
        "bl_resolution_floor": doc["bl_resolution_floor"],
        "limit_measure": doc["limit_measure"],
        "limit_energy": doc["limit_energy"],
    }
    # a rank statistic is only pinned down when no two ranked values sit
    # within their own tolerance of each other
    ds = [max(row["hausdorff"].values()) for row in rows]
    if _separated([r["bl"] for r in rows], 2 * BL_TOL) and _separated(ds, 2 * REL_TOL):
        out["spearman_d_vs_bl"] = doc["spearman_d_vs_bl"]
    return out


def _qm(doc):
    out = {
        "min_gap": doc["min_gap"],
        "passes": doc["min_gap"] >= -QM_PASS_TOL,
        "rows": [[*r["center"], r["radius"], r["deformation"], r["gap"]] for r in doc["rows"]],
        "skipped": [[*s["center"], s["radius"], s["deformation"]] for s in doc["skipped"]],
    }
    if doc["min_gap"] < -QM_PASS_TOL:  # the violation certificate
        a = doc["argmin"]
        out["argmin"] = [*a["center"], a["radius"], a["deformation"]]
    return out


def _ellipticity(doc):
    return {
        "c": doc["c"],
        "rows": [[r["plane"], r["competitor"], r["semi_margin"], r["elliptic_margin"],
                  r["competitor_measure"], r["disk_measure"]] for r in doc["rows"]],
        "certificates": [[c["plane"], c["competitor"], c["margin"]] for c in doc["certificates"]],
    }


def _bl(doc):
    method = doc["method"].split("-")[0]  # "exact" or "dictionary"; the solver suffix may change
    if method == "dictionary":
        return {"bl_dictionary": doc["value"], "method": method,
                "dictionary_size": doc["dictionary_size"]}
    return {"bl": doc["value"], "method": method}


EXTRACT = {"scenario": _scenario, "qm": _qm, "ell": _ellipticity, "bl": _bl}


def extract(kind: str, doc) -> dict:
    """The named fields of one output that the gate compares."""
    return EXTRACT[kind](doc)


def compare(got, ref, path="out") -> list:
    """Mismatches of ``got`` against ``ref``; fields absent from ``ref`` are
    not compared."""
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        problems = []
        for key, value in ref.items():
            if key not in got:
                problems.append(f"{path}.{key}: missing")
            else:
                problems += compare(got[key], value, f"{path}.{key}")
        return problems
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: expected {len(ref)} entries"]
        return [p for i, (g, r) in enumerate(zip(got, ref)) for p in compare(g, r, f"{path}[{i}]")]
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if path.endswith(".bl"):
            ok = abs(got - ref) <= BL_TOL or got == ref
        else:
            ok = math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=ABS_FLOOR)
        return [] if ok else [f"{path}: {got!r} differs from reference {ref!r}"]
    if got != ref or isinstance(got, bool) != isinstance(ref, bool):
        return [f"{path}: {got!r} differs from reference {ref!r}"]
    return []


def check_declared(doc, truths: dict) -> list:
    """Scenario flags against the family's declared truths, and the
    dictionary lower bound on every row."""
    problems = [f"flags.{flag}: {doc['flags'].get(flag)!r}, family declares {want!r}"
                for flag, want in truths.items() if doc["flags"].get(flag) != want]
    for row in doc["rows"]:
        if row["bl"] < row["bl_dictionary"] - DICTIONARY_SLACK:
            problems.append(f"row k={row['k']}: bl {row['bl']!r} < bl_dictionary "
                            f"{row['bl_dictionary']!r}")
    return problems


def check(op, outcome, reference: dict) -> list:
    """Every problem with one operation's outcome; empty means correct."""
    ref = reference["ops"].get(op.key)
    if ref is None:
        return [f"{op.key}: no reference entry"]
    if op.input_digest() != ref["input"]:
        return [f"{op.key}: generated input differs from the recorded reference input"]
    if outcome.exit_code != ref["exit"]:
        return [f"{op.key}: exit code {outcome.exit_code!r}, reference {ref['exit']!r}"
                + (f" ({outcome.error})" if outcome.error else "")]
    if outcome.error:
        return [f"{op.key}: {outcome.error}"]
    try:
        got = extract(op.kind, outcome.doc)
    except (KeyError, TypeError, AttributeError) as exc:
        return [f"{op.key}: output lacks a named field ({type(exc).__name__}: {exc})"]
    return [f"{op.key}: {p}" for p in compare(got, ref["out"])]


class PairCheck:
    """bl >= bl_dictionary - 1e-9 across the two calls made on one pair."""

    def __init__(self):
        self._seen = {}

    def add(self, op, outcome) -> list:
        if op.kind != "bl" or outcome.doc is None:
            return []
        pair, method = op.key.rsplit("/", 1)
        self._seen.setdefault(pair, {})[method] = outcome.doc["value"]
        both = self._seen[pair]
        if len(both) == 2 and both["exact"] < both["dictionary"] - DICTIONARY_SLACK:
            return [f"{pair}: bl {both['exact']!r} < bl_dictionary {both['dictionary']!r}"]
        return []
