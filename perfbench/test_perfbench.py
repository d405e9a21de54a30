"""Tests of the benchmark itself: seeded generators, tracer installation
and restoration, the verdict gate, and the refusal to run outside a
checkout.  Run with ``python -m pytest perfbench``."""
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracing
import workloads
import worker
from worker import import_damc

ROOT = Path(__file__).resolve().parent.parent
import_damc(ROOT)

from damc import ddsa, ltlf, parsing, product, solve, summary  # noqa: E402

MODULES = {"summary": summary, "ltlf": ltlf, "product": product, "ddsa": ddsa, "solve": solve}


def texts(name):
    wl = workloads.WORKLOADS[name]
    return workloads.load_models(ROOT, wl.models)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_query_text(name):
    gen = workloads.WORKLOADS[name].generate
    a = [(q.qid, q.model, q.text) for q in gen(7, texts(name))]
    b = [(q.qid, q.model, q.text) for q in gen(7, texts(name))]
    assert json.dumps(a).encode() == json.dumps(b).encode()
    other = [(q.qid, q.model, q.text) for q in gen(8, texts(name))]
    assert other != a


def test_sweep_matches_criterion_8e_templates():
    qs = workloads.WORKLOADS["sweep"].generate(3, texts("sweep"))
    assert len(qs) == 55
    assert {q.model for q in qs} == set(workloads.SWEEP_MODELS)
    assert "<picka> true" in {q.text for q in qs}


def test_disjunction_widths_and_order_type():
    qs = workloads.WORKLOADS["disjunction"].generate(5, texts("disjunction"))
    widths = sorted(q.text.count("|") + 1 for q in qs)
    assert widths[0] == 1 and widths[-1] == 3
    assert len(qs) == len(workloads.DISJUNCTION_SHAPES)


def test_tracer_restores_every_attribute():
    before = {(m, a): getattr(MODULES[m], a) for m, a in tracing.TARGETS}
    tr = tracing.Tracer()
    tr.install(MODULES)
    assert all(getattr(MODULES[m], a) is not fn for (m, a), fn in before.items())
    tr.reset()  # forgets the record, keeps the wrappers
    assert all(getattr(MODULES[m], a) is not fn for (m, a), fn in before.items())
    tr.restore()
    assert all(getattr(MODULES[m], a) is fn for (m, a), fn in before.items())


def test_traced_verify_records_nested_spans():
    d = parsing.parse_model((ROOT / "models" / "b1.ddsa").read_text())
    psi = parsing.parse_property("F (y > 5)", d)
    plain = product.verify(d, psi).kind
    tr = tracing.Tracer()
    tr.install(MODULES)
    try:
        with tr.span("verify", "q"):
            v = product.verify(d, psi)
        assert ddsa.validate_run(d, v.run)  # outside any span: not recorded
    finally:
        tr.restore()
    assert v.kind == plain == "witness"
    assert sum(s[0] == "ddsa.validate_run" for s in tr.spans) == 1
    names = {s[0] for s in tr.spans}
    assert {"verify", "summary.detect", "ltlf.build_nfa", "product.build_product",
            "product.extract_witness", "ltlf.run_models", "solve.is_sat"} <= names
    assert all(s[4] == "q" for s in tr.spans)
    # run_models recurses; only the outermost call is a span
    assert sum(s[0] == "ltlf.run_models" for s in tr.spans) == 1
    m = tr.layer_metrics()
    assert m["product.nodes"] == 9 and m["ddsa.update_calls"] >= m["ddsa.update_distinct"] > 0
    total = tr.spans[0][2] - tr.spans[0][1]
    assert sum(tr.self_times().values()) == pytest.approx(total)


def test_self_time_subtracts_children():
    tr = tracing.Tracer()
    tr.spans = [("a", 0.0, 10.0, -1, None), ("b", 1.0, 4.0, 0, None), ("b", 5.0, 6.0, 0, None),
                ("c", 2.0, 3.0, 1, None)]
    assert tr.self_times() == {"a": 6.0, "b": 3.0, "c": 1.0}


def gate_for(model, text, expect=None):
    q = workloads.Query("q", model, text, expect)
    return run.Gate([q], workloads.load_models(ROOT, [model]))


def rec(kind, **kw):
    return dict(qid="q", kind=kind, parse_s=0.0, verify_s=0.0, **kw)


def test_gate_known_answer():
    g = gate_for("auction.ddsa", "F (sold & b=0)", "no-witness")
    g.check(rec("no-witness"))
    assert not g.wrong and g.decided == 1
    g.check(rec("witness", run_ok=True))
    assert g.wrong


def test_gate_oracle_refutes_no_witness():
    g = gate_for("b1.ddsa", "F (y > 5)")
    g.check(rec("no-witness"))
    assert g.wrong
    g = gate_for("b1.ddsa", "F (y > 5 & y < 3)")
    g.check(rec("no-witness"))
    assert not g.wrong


def test_gate_counts_failures_and_checks_runs():
    g = gate_for("b1.ddsa", "F (y > 5)")
    g.check(rec("error", detail="BudgetExceeded"))
    g.check(rec("timeout"))
    g.check(rec("inconclusive"))  # the oracle knows a witness
    assert (g.attempted, g.failed, g.decided) == (3, 3, 0) and not g.wrong
    g.check(rec("witness", run_ok=False))
    assert g.wrong


def test_gate_needs_one_verdict_per_query():
    g = gate_for("b1.ddsa", "F (y > 5 & y < 3)")
    g.check(rec("no-witness"))
    g.check(rec("inconclusive"))
    assert not g.wrong
    g.check(rec("witness", run_ok=True))
    assert g.wrong


def test_passes_are_whole_groups():
    for wl in workloads.WORKLOADS.values():
        for seconds in (1, 10, 45, 60):
            passes = wl.passes_for(seconds)
            assert passes >= wl.groups and passes % wl.groups == 0


def test_slowest_times_take_the_slowest_run_per_group():
    def res(*times):
        return {"results": [dict(qid=q, parse_s=0.5, verify_s=t) for q, t in zip("ab", times)]}

    plain = [res(3.0, 1.0), res(2.0, 9.0), res(1.0, 4.0), res(5.0, 2.0)]
    samples, slowest = run.slowest_times(plain, 2)
    # group 0 is passes 0 and 2, group 1 passes 1 and 3
    assert sorted(samples) == [3.0, 4.0, 5.0, 9.0]
    assert slowest == {"a": 5.5, "b": 9.5}


def test_query_process_answers_or_is_killed():
    assert worker.in_child(lambda: {"pid": os.getpid()}, 30)["pid"] != os.getpid()
    t0 = time.monotonic()
    assert worker.in_child(lambda: time.sleep(30), 0.5) is None
    assert time.monotonic() - t0 < 10
    with pytest.raises(ChildProcessError):
        worker.in_child(lambda: 1 / 0, 30)


def test_tail_is_eleventh_largest():
    v, pct = run.tail([float(i) for i in range(1, 31)])
    assert v == 20.0 and pct == pytest.approx(100 * 19 / 29)
    with pytest.raises(run.BenchError):
        run.tail([1.0] * 10)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "auction", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
