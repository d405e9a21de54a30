"""DOT emission for constraint graphs, property automata, and products."""
from __future__ import annotations

from .ltlf import Nfa, fmt_symbol
from .product import ConstraintGraph, ProductAutomaton


def _esc(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def constraint_graph_dot(g: ConstraintGraph) -> str:
    lines = ["digraph constraint_graph {", "  rankdir=LR;", "  node [shape=box];"]
    for i, n in enumerate(g.nodes):
        label = f"{n.state}\\n{_esc(str(n.formula))}"
        extra = ' penwidth=2' if i == g.initial else ""
        lines.append(f'  n{i} [label="{label}"{extra}];')
    for (src, action, dst) in g.edges:
        lines.append(f'  n{src} -> n{dst} [label="{_esc(action)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def nfa_dot(nfa: Nfa) -> str:
    lines = ["digraph nfa {", "  rankdir=LR;", "  node [shape=box];"]
    for i in range(len(nfa.states)):
        shape = ' peripheries=2' if i in nfa.finals else ""
        init = ' penwidth=2' if i == nfa.initial else ""
        lines.append(f'  q{i} [label="{_esc(nfa.state_name(i))}"{shape}{init}];')
    for e in nfa.edges:
        lines.append(f'  q{e.src} -> q{e.dst} [label="{_esc(fmt_symbol(e.symbol))}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def product_dot(p: ProductAutomaton) -> str:
    lines = ["digraph product {", "  rankdir=TB;", "  node [shape=box];"]
    for i, n in enumerate(p.nodes):
        q = p.nfa.state_name(n.q)
        label = f"{n.state} | {q}\\n{_esc(str(n.formula))}"
        style = ' style=filled fillcolor=lightpink' if i in p.finals else ""
        init = ' penwidth=2' if i == p.initial else ""
        lines.append(f'  p{i} [label="{label}"{style}{init}];')
    for e in p.edges:
        sym = fmt_symbol(e.symbol)
        label = e.action if sym == "{}" else f"{e.action} {sym}"
        lines.append(f'  p{e.src} -> p{e.dst} [label="{_esc(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
