#!/usr/bin/env python3
"""damc benchmark: end-to-end verify timings per workload, gated on the
verdicts, and a traced run that splits the time by layer.

    python3 perfbench/run.py --workload auction --seed 1 --seconds 45 --trace 0

Run from a checkout of the repository: the package is imported from
``src/`` and the models are read from ``models/``.  Each pass runs in a
fresh interpreter, and each query in a process of its own forked from it,
one at a time.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it say how the figures were taken.  A wrong verdict
prints ``"correct": false`` and exits with code 1.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Query, load_models, rotated  # noqa: E402

QUERY_LIMIT_S = 30.0  # per-query limit, the bound acceptance criterion 6 uses
RUN_LIMIT_S = 170.0  # a run ends, with an error, before 180 s
ORACLE_GRID = tuple(Fraction(k) for k in range(9))
ORACLE_MAX_LEN = 3  # every model reaches a final state within 3 steps
DECIDED = ("witness", "no-witness")

# psi12's solver profile at the seed commit (ROADMAP): calls and distinct calls.
PSI12_PROFILE = {"ddsa.update": (1495, 78), "solve.is_sat": (1700, 424)}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def worker(spec: dict, deadline: float) -> tuple[dict, float]:
    """Run one interpreter; returns its result and its set-up time."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run exceeded its time limit")
    env = dict(os.environ, PYTHONHASHSEED="0")
    # damc's bytecode is cached in the checkout, as an installed package's
    # is, whatever the caller's environment says about writing it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.monotonic()
    # its own process group, so that a pass over the limit is stopped
    # together with the query process it forked
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(json.dumps(spec), timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("run exceeded its time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {stderr.strip()[-2000:]}")
    out = json.loads(stdout.strip().splitlines()[-1])
    # time.monotonic is CLOCK_MONOTONIC on Linux, one clock for all processes
    return out, out["ready"] - t0


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh largest sample, and its percentile by linear interpolation."""
    n = len(samples)
    if n < 11:
        raise BenchError(f"{n} samples cannot give a tail with ten beyond it")
    return sorted(samples)[n - 11], 100.0 * (n - 11) / (n - 1)


class Gate:
    """Verdict checks: known answers, the run's own revalidation, the
    brute-force oracle for every verdict that is not a checked witness, and
    one verdict per query across passes."""

    def __init__(self, queries: list[Query], model_texts: dict[str, str]):
        self.queries = {q.qid: q for q in queries}
        self.model_texts = model_texts
        self.verdicts: dict[str, str] = {}
        self.oracle: dict[str, bool] = {}
        self.wrong: list[str] = []
        self.failures: dict[str, str] = {}  # query id -> first failure seen
        self.attempted = self.failed = self.decided = 0

    def _oracle_finds(self, q: Query) -> bool:
        if q.qid not in self.oracle:
            from worker import import_damc

            import_damc(ROOT)
            from damc import oracle, parsing

            d = parsing.parse_model(self.model_texts[q.model])
            psi = parsing.parse_property(q.text, d)
            found = oracle.brute_force_witness(d, psi, ORACLE_MAX_LEN, list(ORACLE_GRID))
            self.oracle[q.qid] = found is not None
        return self.oracle[q.qid]

    def check(self, rec: dict) -> None:
        q = self.queries[rec["qid"]]
        kind = rec["kind"]
        self.attempted += 1
        where = f"{q.qid} [{q.text}]: {kind}"
        if kind in ("timeout", "error"):
            self.failed += 1
            self.failures.setdefault(q.qid, f"{where} {rec.get('detail') or ''}")
            return
        if kind == "witness" and not rec.get("run_ok"):
            self.wrong.append(where + " with a run that fails revalidation")
        known = q.expect
        if known is None and kind != "witness":
            known = "witness" if self._oracle_finds(q) else None
        if kind == "inconclusive":
            if known is not None:
                self.failed += 1
                self.failures.setdefault(q.qid, f"{where} ({rec.get('detail')}), expected {known}")
            return
        self.decided += 1
        if known is not None and kind != known:
            self.wrong.append(f"{where}, expected {known}")
        if self.verdicts.setdefault(q.qid, kind) != kind:
            self.wrong.append(f"{where}, another pass said {self.verdicts[q.qid]}")


def pass_seconds(res: dict) -> float:
    return sum(r["parse_s"] + r["verify_s"] for r in res["results"])


def slowest_times(plain: list[dict], groups: int) -> tuple[list[float], dict[str, float]]:
    """The run's verify samples and each query's slowest pass.

    The host runs in phases: its base speed, which is steady, and faster
    phases that come and go, so a query's fastest runs depend on how many
    fast phases a run happened to meet.  Its slower runs do not, so the
    figures are taken from them.  Pass k belongs to group k mod groups; a
    query's verify sample in a group is the slowest of its runs there.  A
    query's slowest pass is its largest parse + verify time over all passes."""
    by_query: dict[str, list[list[dict]]] = defaultdict(lambda: [[] for _ in range(groups)])
    for k, res in enumerate(plain):
        for r in res["results"]:
            by_query[r["qid"]][k % groups].append(r)
    samples = [max(r["verify_s"] for r in runs) for gs in by_query.values() for runs in gs]
    slowest = {q: max(r["parse_s"] + r["verify_s"] for runs in gs for r in runs) for q, gs in by_query.items()}
    return samples, slowest


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    wl = WORKLOADS[args.workload]

    if not (ROOT / "src" / "damc" / "__init__.py").is_file():
        raise BenchError(f"no damc package under {ROOT / 'src'}")
    try:
        model_texts = load_models(ROOT, wl.models)
    except OSError as e:
        raise BenchError(f"cannot read the workload's models: {e}") from None
    queries = wl.generate(args.seed, model_texts)
    passes = wl.passes_for(args.seconds)
    base = {"root": str(ROOT), "models": model_texts, "limit_s": QUERY_LIMIT_S}

    def spec(k: int, **extra) -> dict:
        order = rotated(queries, k, passes)
        qs = [{"qid": q.qid, "model": q.model, "text": q.text} for q in order]
        return dict(base, queries=qs, **extra)

    gate = Gate(queries, model_texts)
    setup: list[float] = []
    plain: list[dict] = []
    traced: list[dict] = []
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}-{args.seed}.jsonl"
        for k in range(max(1, passes // 3)):
            plain.append(worker(spec(k), deadline)[0])
            path = str(spans_path) if k == 0 else None
            traced.append(worker(spec(k, trace=True, spans_path=path), deadline)[0])
    else:
        for k in range(passes):
            # one set-up-only interpreter before each pass, so that the
            # set-up samples are spread over the run like the passes
            setup.append(worker(spec(k, setup_only=True), deadline)[1])
            res, s = worker(spec(k), deadline)
            setup.append(s)
            plain.append(res)
    for res in plain + traced:
        for rec in res["results"]:
            gate.check(rec)

    print(f"# {wl.name} seed {args.seed}: {len(queries)} queries per pass, "
          f"{len(plain)} untraced and {len(traced)} traced passes")
    if args.trace:
        metrics = layer_metrics(plain, traced)
        if "psi12" in traced[0]["per_query"]:
            got = traced[0]["per_query"]["psi12"]
            for name, (calls, distinct) in PSI12_PROFILE.items():
                c, d = got[name]
                print(f"# psi12 {name}: {c} calls, {d} distinct "
                      f"(ROADMAP profile {calls}, {distinct})")
        print(f"# spans of the first traced pass: {spans_path.relative_to(ROOT)}")
    else:
        samples, slowest = slowest_times(plain, wl.groups)
        tail_s, pct = tail(samples)
        print(f"# {len(samples)} verify samples, each the slowest of {passes // wl.groups} runs of a query; "
              f"verify_tail_s is p{pct:.1f}")
        metrics = {
            "queries_per_s": metric(gate.decided / passes / sum(slowest.values()), "1/s"),
            "verify_p50_s": metric(statistics.median(samples), "s"),
            "verify_tail_s": metric(tail_s, "s"),
            "decided_frac": metric(gate.decided / gate.attempted, "frac"),
            "correct_frac": metric(1.0 - gate.failed / gate.attempted, "frac"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mb": metric(statistics.median(res["peak_rss_mb"] for res in plain), "MB"),
        }
    for f in gate.failures.values():
        print(f"# FAILED {f}")
    for w in gate.wrong:
        print(f"# WRONG {w}")
    print(f"# {time.monotonic() - start:.1f} s in this run")
    print(json.dumps({
        "correct": not gate.wrong,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 1 if gate.wrong else 0


def layer_metrics(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer figures: self times are medians over the traced passes,
    counts come from the first traced pass (they repeat exactly)."""
    out = {}
    first = traced[0]["layers"]
    for name in first:
        if name.endswith("_s"):
            out[name] = metric(statistics.median(t["layers"][name] for t in traced), "s")
        else:
            out[name] = metric(first[name], "count")
    overhead = statistics.median(map(pass_seconds, traced)) / statistics.median(map(pass_seconds, plain))
    out["trace_overhead_frac"] = metric(overhead - 1.0, "frac")
    return out


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
