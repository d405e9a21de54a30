"""One pass in a fresh interpreter: import damc and parse the models, then
parse and verify each query in a child process of its own, forked from that
ready state, timing every call from outside.

Reads a JSON spec on stdin and prints one JSON result line on stdout.
Started by ``run.py``.  Each query starts from the state a ``damc verify``
call has once its model is parsed: the package's process-global caches
(``formula._NORM_CACHE``) and the model's own caches are cold, so a query's
time does not depend on which queries ran before it.  The children run one
at a time.
"""
from __future__ import annotations

import json
import os
import resource
import select
import signal
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

# A child that has not answered this long after its own query limit is killed.
CHILD_GRACE_S = 10.0


class QueryTimeout(BaseException):
    """Raised by the interval timer; a BaseException so that no handler in
    the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise QueryTimeout()


def import_damc(root: Path):
    """Import the package from the checkout's ``src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import damc

    if not Path(damc.__file__).resolve().is_relative_to(src):
        raise ImportError(f"damc imported from {damc.__file__}, not from {src}")
    return damc


def check_witness(dd, lt, model, psi, run) -> bool:
    """The benchmark's own revalidation of a returned run."""
    return (
        dd.validate_run(model, run)
        and run.configs[-1].state in model.finals
        and lt.run_models(model, run, 0, lt.preprocess(psi))
    )


def in_child(fn, wait_s: float):
    """Run ``fn`` in a forked child and return the JSON value it returns,
    or None if the child did not answer within ``wait_s`` (it is killed).
    The child is always waited for."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the caller
        os.close(r)
        code = 1
        try:
            data = json.dumps(fn()).encode()
            with os.fdopen(w, "wb") as f:
                f.write(data)
            code = 0
        except BaseException:
            # reported through the exit code: raising here would go on to
            # run the caller's code in the child
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(w)
    chunks = []
    answered = False
    deadline = time.monotonic() + wait_s
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([r], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(r, 1 << 16)
            if not chunk:
                answered = True
                break
            chunks.append(chunk)
    finally:
        os.close(r)
        _, status = os.waitpid(pid, 0)
    if not answered:
        return None
    if status != 0 or not chunks:
        raise ChildProcessError(f"query process ended with status {status:#x}")
    return json.loads(b"".join(chunks))


def run_pass(spec: dict) -> dict:
    root = Path(spec["root"])
    import_damc(root)
    from damc import ddsa as dd, ltlf as lt, parsing, product, solve, summary

    tracer = None
    if spec.get("trace"):
        from tracing import Tracer  # perfbench/ is on sys.path

        tracer = Tracer()
        tracer.install(
            {"summary": summary, "ltlf": lt, "product": product, "ddsa": dd, "solve": solve}
        )

    def spanned(name, query=None):
        return tracer.span(name, query) if tracer else nullcontext()

    models = {}
    for name, text in spec["models"].items():
        with spanned("parsing.parse_model"):
            models[name] = parsing.parse_model(text)
    ready = time.monotonic()
    if spec.get("setup_only"):
        return {"ready": ready}

    limit = spec["limit_s"]
    keep_spans = bool(spec.get("spans_path"))

    def one_query(q: dict) -> dict:
        """The body of a query's child process."""
        model = models[q["model"]]
        rec = {"qid": q["qid"], "parse_s": 0.0, "verify_s": 0.0, "kind": None, "detail": None}
        if tracer is not None:
            tracer.reset()  # drop the spans the parent recorded before forking
        psi = v = None
        signal.signal(signal.SIGALRM, _on_alarm)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with spanned("parsing.parse_property", q["qid"]):
                psi = parsing.parse_property(q["text"], model)
            t1 = time.perf_counter()
            rec["parse_s"] = t1 - t0
            with spanned("verify", q["qid"]):
                v = product.verify(model, psi)
            rec["verify_s"] = time.perf_counter() - t1
            rec["kind"] = v.kind
            rec["detail"] = v.reason
        except QueryTimeout:
            rec["kind"] = "timeout"
        except Exception as e:  # a failed query is counted, and the pass goes on
            rec["kind"] = "error"
            rec["detail"] = f"{type(e).__name__}: {e}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if rec["kind"] in ("timeout", "error"):
            rec["verify_s"] = time.perf_counter() - t0 - rec["parse_s"]
        if rec["kind"] == "witness":
            rec["run_ok"] = bool(check_witness(dd, lt, model, psi, v.run))
        rec["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            rec["layers"] = tracer.layer_metrics()
            rec["profile"] = {
                name: tracer.call_counts((name,), q["qid"]) for name in ("ddsa.update", "solve.is_sat")
            }
            if keep_spans:
                rec["spans"] = tracer.spans
        return rec

    results = []
    spans = list(tracer.spans) if tracer else []
    for q in spec["queries"]:
        t0 = time.perf_counter()
        try:
            rec = in_child(lambda: one_query(q), limit + CHILD_GRACE_S)
        except ChildProcessError as e:
            rec = {"kind": "error", "detail": str(e)}
        if rec is None:
            rec = {"kind": "timeout", "detail": None}
        if "verify_s" not in rec:
            rec.update(qid=q["qid"], parse_s=0.0, verify_s=time.perf_counter() - t0)
        child_spans = rec.pop("spans", [])
        base = len(spans)
        spans.extend((n, a, b, p + base if p >= 0 else -1, qid) for n, a, b, p, qid in child_spans)
        results.append(rec)

    out = {
        "ready": ready,
        "results": results,
        "peak_rss_mb": max(r.get("peak_rss_mb", 0.0) for r in results),
    }
    if tracer is not None:
        tracer.restore()
        layers = tracer.layer_metrics()  # the parent's own spans: parsing the models
        for r in results:
            for k, x in r.pop("layers", {}).items():
                layers[k] += x
        out["layers"] = layers
        out["per_query"] = {r["qid"]: r.pop("profile") for r in results if "profile" in r}
        if keep_spans:
            tracer.spans = spans
            tracer.write_spans(spec["spans_path"])
    return out


def main() -> int:
    spec = json.load(sys.stdin)
    try:
        out = run_pass(spec)
    except (ImportError, OSError) as e:
        print(f"worker: {e}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
