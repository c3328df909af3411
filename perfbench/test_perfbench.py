"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import copy
import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import layers  # noqa: E402
import record_reference  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def _op(key):
    return next(op for op in record_reference.universe() if op.key == key)


def _scenario_doc(family):
    doc = copy.deepcopy(REFERENCE["ops"][f"scenario/{family}"]["out"])
    doc.setdefault("spearman_d_vs_bl", 0.0)
    return doc


def _check(op, doc):
    return gate.check(op, workloads.Outcome(0.0, 0.0, 0, doc), REFERENCE)


def test_reference_inputs_match_generator():
    ops = record_reference.universe()
    assert {op.key for op in ops} == set(REFERENCE["ops"])
    for op in ops:
        assert op.input_digest() == REFERENCE["ops"][op.key]["input"], op.key


@pytest.mark.parametrize("family", ["graph_decay", "zigzag", "disk"])
def test_gate_accepts_reference_and_flags_perturbations(family):
    op = _op(f"scenario/{family}")
    truths = {"hausdorff": True, "mass": family != "zigzag", "filling": True}
    doc = _scenario_doc(family)
    assert _check(op, doc) == [] and gate.check_declared(doc, truths) == []

    near = copy.deepcopy(doc)
    near["rows"][-1]["bl"] += 5e-8
    assert _check(op, near) == []

    for perturb in (lambda d: d["rows"][-1].__setitem__("bl", d["rows"][-1]["bl"] + 2e-7),
                    lambda d: d["rows"][0]["hausdorff"].__setitem__(
                        "0.5", d["rows"][0]["hausdorff"]["0.5"] + 1e-8),
                    lambda d: d["flags"].__setitem__("hausdorff", False),
                    lambda d: d.__setitem__("filling_verdict", "FAILS"),
                    lambda d: d["rows"].pop()):
        bad = copy.deepcopy(doc)
        perturb(bad)
        assert _check(op, bad), "perturbation not flagged"

    flipped = copy.deepcopy(doc)
    flipped["flags"]["mass"] = not flipped["flags"]["mass"]
    assert gate.check_declared(flipped, truths)
    inverted = copy.deepcopy(doc)
    inverted["rows"][0]["bl_dictionary"] = inverted["rows"][0]["bl"] + 1e-6
    assert gate.check_declared(inverted, truths)


def test_gate_flags_exit_code_error_and_pair_violation():
    op = _op("bl/21-2-00/exact")
    ref = REFERENCE["ops"][op.key]["out"]
    good = {"value": ref["bl"], "method": ref["method"], "witness": []}
    assert _check(op, good) == []
    assert gate.check(op, workloads.Outcome(0.0, 0.0, 2, None, "error: x"), REFERENCE)
    assert gate.check(op, workloads.Outcome(0.0, 0.0, None, None, "RuntimeError: LP"), REFERENCE)
    assert _check(op, {"method": ref["method"]})  # a named field went missing

    pairs = gate.PairCheck()
    dictionary = _op("bl/21-2-00/dictionary")
    assert pairs.add(op, workloads.Outcome(0.0, 0.0, 0, {"value": 0.5})) == []
    assert pairs.add(dictionary, workloads.Outcome(0.0, 0.0, 0, {"value": 0.5 + 1e-6}))


def test_qm_verdict_is_compared():
    op = _op("qm/zigzag-M1")
    ref = REFERENCE["ops"][op.key]["out"]
    assert ref["passes"] is False  # criterion 7: zigzag fails at M=1
    doc = {"min_gap": 0.0, "rows": [], "skipped": [], "argmin": None}
    assert _check(op, doc)


def _originals():
    import importlib
    return {(h.module, h.name): getattr(importlib.import_module(h.module), h.name)
            for h in layers.HOOKS}


def test_tracing_restores_every_name_and_counts_work(tmp_path):
    import varifoldlab.cli
    import varifoldlab.metrics

    before = _originals()
    tracer = layers.Tracer()
    with layers.Tracing(tracer) as tracing:
        assert varifoldlab.metrics.linprog is not before[("varifoldlab.metrics", "linprog")]
        assert tracing.absent() == []
        op = _op("bl/32-4-00/exact")
        paths = workloads.write_inputs([op], tmp_path)
        outcome = workloads.run_op(op, paths)
    after = _originals()
    assert all(after[k] is v for k, v in before.items())
    assert outcome.exit_code == 0 and _check(op, outcome.doc) == []
    values = layers.layer_values(tracer)
    assert values["metrics.bl_lp_calls"] == 1 and values["metrics.bl_lp_s"] > 0
    assert values["cli.main_self_s"] > 0


def test_missing_name_is_marked_absent(monkeypatch):
    import varifoldlab.metrics

    monkeypatch.delattr(varifoldlab.metrics, "linprog")
    with layers.Tracing(layers.Tracer()) as tracing:
        absent = tracing.absent()
    assert "metrics.bl_lp_s" in absent and "metrics.bl_lp_iters" in absent
    assert "sets.distance_to_set_s" not in absent
    assert not hasattr(varifoldlab.metrics, "linprog")


def test_tracer_counts_are_thread_safe():
    tracer = layers.Tracer()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def work():
            for _ in range(2000):
                tracer.count("n")
                tracer.call("layer", lambda: None, (), {})
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert tracer.counts["n"] == 16000 and len(tracer.spans) == 16000
    assert len({s[3] for s in tracer.spans}) == 16000


def test_self_time_subtracts_union_of_children():
    spans = [("p", 0.0, 10.0, 0, None, None), ("a", 1.0, 4.0, 1, 0, None),
             ("b", 3.0, 6.0, 2, 0, None), ("c", 8.0, 12.0, 3, 0, None)]
    assert layers.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_determines_input_digest(workload):
    first = workloads.digest(workloads.build(workload, 1))
    assert first == workloads.digest(workloads.build(workload, 1))
    assert first != workloads.digest(workloads.build(workload, 2))


def test_queries_mix():
    ops = workloads.build("queries", 3)
    kinds = [op.kind for op in ops]
    assert len(ops) >= 200 and {"qm", "ell", "bl"} <= set(kinds)
    assert len({op.key for op in ops}) == len(ops)
    sizes = {json.loads(op.files["v.json"])["ambient_dim"] for op in ops if op.kind == "bl"}
    assert sizes == {2, 3}

