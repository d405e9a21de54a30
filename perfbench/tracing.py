"""Span tracing by replacing module attributes with timing wrappers.

``verify``, the summary strategies and the solver look these attributes up
at call time (``sm.detect``, ``solve.is_sat``, ``dd.update``, ...), so a
wrapper installed on the module is seen by every caller inside the
package.  Nothing inside the program changes; ``restore`` puts the
original functions back.

Spans are kept in memory as ``(name, start, end, parent, query)`` and
written out at the end.  Wrappers record only inside an explicit span that
the benchmark opens (parsing, or one ``verify`` call), so the benchmark's
own checks after a call are not counted.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Optional

# (module, attribute) -> span name is "<module>.<attribute>"
TARGETS = (
    ("summary", "detect"),
    ("ltlf", "build_nfa"),
    ("product", "build_product"),
    ("product", "find_accepting_path"),
    ("product", "extract_witness"),
    ("ddsa", "update"),
    ("ddsa", "validate_run"),
    ("ltlf", "run_models"),
    ("ltlf", "word_consistent"),
    ("solve", "is_sat"),
    ("solve", "qe_rational"),
    ("solve", "qe_gc"),
    ("solve", "equivalent"),
    ("solve", "gc_equivalent"),
    ("solve", "to_dnf"),
)

# Calls whose arguments are kept, so distinct calls can be counted.
KEYED = {
    "ddsa.update",
    "solve.is_sat",
    "solve.qe_rational",
    "solve.qe_gc",
    "solve.equivalent",
    "solve.gc_equivalent",
}

# run_models recurses through the same attribute; only the outermost call
# of a revalidation is a span.
OUTERMOST_ONLY = {"ltlf.run_models"}

# Per-layer metric -> the spans whose self time it sums.
SELF_TIME = {
    "parsing.busy_s": ("parsing.parse_model", "parsing.parse_property"),
    "summary.detect_s": ("summary.detect",),
    "ltlf.nfa_s": ("ltlf.build_nfa",),
    "product.build_s": ("product.build_product",),
    "product.search_s": ("product.find_accepting_path",),
    "product.extract_s": ("product.extract_witness",),
    "product.revalidate_s": ("ddsa.validate_run", "ltlf.run_models", "ltlf.word_consistent"),
    "ddsa.update_s": ("ddsa.update",),
    "solve.is_sat_s": ("solve.is_sat",),
    "solve.qe_s": ("solve.qe_rational", "solve.qe_gc"),
    "solve.equiv_s": ("solve.equivalent", "solve.gc_equivalent"),
    "solve.dnf_s": ("solve.to_dnf",),
}

# Per-layer metric prefix -> the spans whose calls and distinct calls it counts.
CALLS = {
    "ddsa.update": ("ddsa.update",),
    "solve.is_sat": ("solve.is_sat",),
    "solve.qe": ("solve.qe_rational", "solve.qe_gc"),
    "solve.equiv": ("solve.equivalent", "solve.gc_equivalent"),
}


def _hashable(x) -> bool:
    try:
        hash(x)
    except TypeError:
        return False
    return True


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.query: Optional[str] = None
        self.calls: dict[str, list] = defaultdict(list)  # name -> [(query, args)]
        self.sizes: dict[str, list] = defaultdict(list)  # name -> [size, ...]
        self._saved: list = []
        self._depth: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        """Forget what was recorded; the wrappers stay installed."""
        self.spans.clear()
        self._stack.clear()
        self.calls.clear()
        self.sizes.clear()
        self._depth.clear()

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str, query: Optional[str] = None):
        """An explicit span; with a query id it sets the id of every span
        nested in it."""
        if query is not None:
            self.query = query
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent, self.query)
            if query is not None:
                self.query = None

    def _wrap(self, name: str, fn):
        keyed = name in KEYED
        outermost = name in OUTERMOST_ONLY
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or (outermost and self._depth[name]):
                return fn(*args, **kwargs)
            self._depth[name] += 1
            if keyed:
                self.calls[name].append((self.query, args + tuple(sorted(kwargs.items()))))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.query)
                self._depth[name] -= 1
            if name == "solve.to_dnf":
                self.sizes[name].append(len(out))
            elif name == "ltlf.build_nfa":
                self.sizes[name].append((len(out.states), len(out.edges)))
            elif name == "product.build_product":
                self.sizes[name].append((len(out.nodes), len(out.edges)))
            return out

        return wrapper

    def install(self, modules: dict) -> None:
        """Replace each target attribute; ``modules`` maps the short module
        name to the imported module."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr in TARGETS:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(f"{mod_name}.{attr}", fn))

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- aggregation -----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span duration minus the part covered by its child spans, summed
        by name."""
        covered = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - covered[i]
        return out

    def call_counts(self, names, query: Optional[str] = None) -> tuple[int, int]:
        """Calls and distinct calls, keyed on the hashable arguments."""
        calls = 0
        distinct = set()
        for name in names:
            for q, args in self.calls[name]:
                if query is not None and q != query:
                    continue
                calls += 1
                distinct.add((name,) + tuple(a for a in args if _hashable(a)))
        return calls, len(distinct)

    def layer_metrics(self) -> dict[str, float]:
        st = self.self_times()
        out: dict[str, float] = {m: sum(st.get(n, 0.0) for n in names) for m, names in SELF_TIME.items()}
        for prefix, names in CALLS.items():
            out[prefix + "_calls"], out[prefix + "_distinct"] = self.call_counts(names)
        out["solve.dnf_calls"] = len(self.sizes["solve.to_dnf"])
        out["solve.dnf_cubes"] = sum(self.sizes["solve.to_dnf"])
        nfa = self.sizes["ltlf.build_nfa"]
        out["ltlf.nfa_states"] = sum(s for s, _ in nfa)
        out["ltlf.nfa_edges"] = sum(e for _, e in nfa)
        prod = self.sizes["product.build_product"]
        out["product.nodes"] = sum(n for n, _ in prod)
        out["product.edges"] = sum(e for _, e in prod)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as f:
            for name, t0, t1, parent, q in self.spans:
                f.write(json.dumps([name, round(t0, 7), round(t1, 7), parent, q]) + "\n")
