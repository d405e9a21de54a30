#!/usr/bin/env python3
"""Rebuild the small-system artifacts: constraint graphs, the classifier
matrix, and the 9-node product with an extracted witness."""
import sys
from time import perf_counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from damc import (
    certify,
    check_bounded_lookback,
    check_feedback_free,
    check_gc,
    check_mc,
    detect,
    parsing,
)
from damc.formula import VarId, atom
from damc.ltlf import fmt_symbol
from damc.product import constraint_graph, verify

MODELS = Path(__file__).resolve().parent.parent / "models"


def load(name):
    return parsing.parse_model((MODELS / name).read_text())


def show_graph(name, d):
    g = constraint_graph(d, detect(d, []))
    print(f"\n{name}: strategy {certify(d, [])}, {len(g.nodes)} nodes")
    for i, n in enumerate(g.nodes):
        print(f"  ({n.state}, {n.formula})")
    for (i, a, j) in g.edges:
        print(f"  {i} --{a}--> {j}")


def main():
    b1, b2, b3, b4 = (load(f"b{i}.ddsa") for i in (1, 2, 3, 4))

    show_graph("b1 over the rationals", b1)
    show_graph("b3 over the integers", b3)

    x, s = VarId("x"), VarId("s")
    C = [atom(x, ">", 5), atom(s, ">", 0)]
    print("\nclassifier matrix:")
    rows = [
        ("b1", b1, []),
        ("b2", b2, C),
        ("b3", b3, []),
        ("b4", b4, C),
    ]
    for name, d, cs in rows:
        gc_ok, K = check_gc(d, cs)
        print(
            f"  {name}: mc={check_mc(d, cs)} gc={gc_ok}"
            + (f"(K={K})" if gc_ok else "")
            + f" feedback-free={check_feedback_free(d, cs, 2)}"
            + f" 3-lookback={check_bounded_lookback(d, cs, 3, 3)}"
        )

    print("\nb1 with property F (y > 5):")
    psi = parsing.parse_property("F (y > 5)", b1)
    t0 = perf_counter()
    v = verify(b1, psi)
    print(f"  verdict {v.kind} in {perf_counter() - t0:.2f}s; product has "
          f"{v.sizes['product_nodes']} nodes / {v.sizes['product_edges']} edges")
    print("  word:", " ".join(fmt_symbol(sym) for sym in v.word))
    for i, c in enumerate(v.run.configs):
        a = v.run.actions[i] if i < len(v.run.actions) else ""
        vals = ", ".join(f"{vv.name}={val}" for vv, val in c.alpha)
        print(f"  ({c.state}: {vals})" + (f" --{a}-->" if a else ""))


if __name__ == "__main__":
    main()
