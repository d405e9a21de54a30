"""The paper's certificates that the quotient is finite, for `damc summary`.

`certify` gives the label of what shows the quotient finite: `GC(K)` over
the integers; over the rationals the criteria (monotonicity constraints,
feedback freedom), then a split into the components `summary.detect`
solves apart, one part each, and a sequential split at a cut state, each
part certified in turn, and `exact-fixpoint` where nothing applies, whose
fixpoint the node budget bounds.  A part of a variable split is the
projection `summary.detect` solves (`split_system`), and keeps the
constraints' conjuncts over its names (`_by_names`).

The graphs' inertia pairs come from the write sets, so no transition
formula is built.  A certification keeps no state: each part of the split
tree checks feedback freedom on each enumerated run's whole computation
graph.

This module reads `summary`; `summary` and `product` read nothing of it,
so no verdict reads a certificate.
"""
from __future__ import annotations

from typing import Iterator, Optional, Sequence

from . import solve
from .ddsa import Ddsa
from .formula import INT, PLAIN, RAT, READ, WRITE, FalseF, Formula, NormAtom, conj
from .solve import BudgetExceeded
from .summary import (
    _by_names,
    _components,
    _criterion,
    _gap_order_bound,
    _norm_atoms,
    split_system,
    used_actions,
)


def check_mc(d: Ddsa, constraints: Sequence[Formula]) -> bool:
    """Monotonicity criterion: rational domain and every atom of guards and
    constraints compares two variables/constants."""
    return d.domain == RAT and all(map(solve.is_mc, _norm_atoms(_criterion(d, constraints))))


# ---------------------------------------------------------------------------
# Computation graphs (for feedback freedom and bounded lookback)

GNode = tuple[str, int]  # (variable name, instant)
# Equality and general pairs of instances; an instant is an offset from the
# step the pairs are placed at.
Templates = tuple[list[tuple[GNode, GNode]], list[tuple[GNode, GNode]]]

# Budget on the symbolic runs one control-flow check may enumerate.
MAX_RUNS = 100_000
# Unroll depth at which certification checks feedback freedom.
FF_UNROLL = 2


class ComputationGraph:
    """Undirected dependency graph over variable instances of a symbolic run.

    Edges are tagged: an equality edge comes from a literal of the exact
    shape x = y between two instances; everything else is general.
    """

    def __init__(self, length: int, var_names: list[str]):
        self.length = length
        self.var_names = var_names
        self.eq_edges: set[frozenset[GNode]] = set()
        self.gen_edges: set[frozenset[GNode]] = set()

    def nodes(self) -> list[GNode]:
        return [(v, i) for i in range(self.length + 1) for v in self.var_names]

    def classes(self) -> dict[GNode, GNode]:
        """Roots of the equality subgraph's components (`_components`)."""
        return _components(self.nodes(), (tuple(e) for e in self.eq_edges))

    def spans(self, roots: dict[GNode, GNode]) -> dict[GNode, set[int]]:
        """Instants covered by each node's equality class, keyed by root;
        `roots` are the graph's `classes()`."""
        out: dict[GNode, set[int]] = {}
        for n, r in roots.items():
            out.setdefault(r, set()).add(n[1])
        return out

    def collapsed_edges(self) -> tuple[dict[GNode, GNode], set[frozenset[GNode]]]:
        """General edges between equality classes, self-loops dropped."""
        roots = self.classes()
        edges: set[frozenset[GNode]] = set()
        for e in self.gen_edges:
            a, b = tuple(e)
            ra, rb = roots[a], roots[b]
            if ra != rb:
                edges.add(frozenset({ra, rb}))
        return roots, edges


def _adjacency(edges: set[frozenset[GNode]]) -> dict[GNode, list[GNode]]:
    """Undirected adjacency lists of the edges."""
    adj: dict[GNode, list[GNode]] = {}
    for e in edges:
        a, b = tuple(e)
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return adj


# The instant of a variable copy in a pair template: a read (or a
# constraint's plain variable) at the step's offset 0, a write at 1.
_INSTANT = {READ: 0, PLAIN: 0, WRITE: 1}


def _pair_templates(atoms: Sequence[NormAtom]) -> Templates:
    """Equality and general instance pairs of the atoms, at offsets from
    the step the pairs are placed at (`_INSTANT`)."""
    eq: list[tuple[GNode, GNode]] = []
    gen: list[tuple[GNode, GNode]] = []
    for na in atoms:
        present = [(v.name, _INSTANT[v.kind]) for v, _ in na.coeffs if v.kind in _INSTANT]
        is_eq = (
            na.op == "="
            and len(na.coeffs) == 2
            and na.const == 0
            and {c for _, c in na.coeffs} == {1, -1}
        )
        (eq if is_eq else gen).extend(
            (p, q) for i, p in enumerate(present) for q in present[i + 1 :] if p != q
        )
    return eq, gen


def _pairs(d: Ddsa, constraints: Sequence[Formula]) -> dict[Optional[str], Templates]:
    """The pair templates of `d` under `constraints`: each used action's
    (its guard's, and an inertia pair per variable it leaves alone) and,
    under `None`, the constraints' (offset 0).  They come from the write
    sets and the formulas' atoms: no transition formula is built."""
    names = [v.name for v in d.variables]
    declared = set(names)

    def over(fs: Sequence[Formula]) -> Templates:
        """The formulas' pairs over declared names: a run's graph has nodes
        for those only."""
        eq, gen = (
            [(p, q) for p, q in templates if {p[0], q[0]} <= declared]
            for templates in _pair_templates(_norm_atoms(fs))
        )
        return eq, gen

    pairs: dict[Optional[str], Templates] = {None: over(constraints)}
    for a in used_actions(d.transitions):
        g = d.guard(a)
        if isinstance(g, FalseF):  # its transition formula has no atom
            pairs[a] = ([], [])
            continue
        written = {v.name for v in d.write_set(a)}
        eq, gen = over([g])
        pairs[a] = (eq + [((n, 0), (n, 1)) for n in names if n not in written], gen)
    return pairs


def _graph(
    d: Ddsa, pairs: dict[Optional[str], Templates], actions: Sequence[str]
) -> ComputationGraph:
    """The run's graph over `d`'s variable names: each action's pairs
    placed at its step, and the constraints' at every instant, which
    over-approximates the verification constraints."""
    g = ComputationGraph(len(actions), [v.name for v in d.variables])
    for k, a in (*enumerate(actions), *((k, None) for k in range(len(actions) + 1))):
        eq, gen = pairs[a]
        if eq:
            g.eq_edges.update([frozenset(((p, i + k), (q, j + k))) for (p, i), (q, j) in eq])
        if gen:
            g.gen_edges.update([frozenset(((p, i + k), (q, j + k))) for (p, i), (q, j) in gen])
    return g


def _longest_path(edges: set[frozenset[GNode]], stop_above: int) -> int:
    """Length of the longest simple path (0 for edgeless graphs), or the
    first length found above `stop_above`."""
    adj = _adjacency(edges)
    best = 0
    steps = 0
    for root in sorted(adj):
        stack = [(root, {root}, 0)]
        while stack:
            steps += 1
            if steps > 2_000_000:
                raise BudgetExceeded("path search too large")
            node, seen, depth = stack.pop()
            best = max(best, depth)
            if best > stop_above:
                return best
            for nxt in adj.get(node, []):
                if nxt not in seen:
                    stack.append((nxt, seen | {nxt}, depth + 1))
    return best


def enumerate_symbolic_runs(d: Ddsa, unroll: int) -> Iterator[list[str]]:
    """All symbolic runs in which no transition is traversed more than
    `unroll` times.  A bounded stand-in for full dependency saturation."""
    budget: dict[tuple[str, str], int] = {}
    count = 0

    def go(state: str, acc: list[str]):
        nonlocal count
        count += 1
        if count > MAX_RUNS:
            raise BudgetExceeded("symbolic run enumeration too large")
        for (a, dst) in d.outgoing(state):
            key = (state, a)
            if budget.get(key, 0) >= unroll:
                continue
            budget[key] = budget.get(key, 0) + 1
            acc.append(a)
            yield from go(dst, acc)
            acc.pop()
            budget[key] -= 1
        yield list(acc)

    yield from go(d.initial, [])


def check_bounded_lookback(
    d: Ddsa, constraints: Sequence[Formula], K: int, unroll: int
) -> bool:
    """After collapsing equality classes, no enumerated run's dependency
    graph may contain an acyclic path longer than K.

    Every run is inspected: extending a run can shorten its collapsed
    paths, since a later equality can merge earlier classes.
    """
    if K < 1 or unroll < 1:
        raise ValueError("K and unroll must be positive")
    p = _pairs(d, constraints)
    for actions in enumerate_symbolic_runs(d, unroll):
        _, edges = _graph(d, p, actions).collapsed_edges()
        if _longest_path(edges, stop_above=K) > K:
            return False
    return True


def _feedback_free_run(g: ComputationGraph) -> bool:
    """No two equality classes with instances of one variable and
    incomparable spans are connected avoiding every node whose class spans
    both.  A class is connected and its members share one span, so one
    check per pair of classes answers for every pair of their instances."""
    roots = g.classes()
    spans = g.spans(roots)
    adj = _adjacency(g.eq_edges | g.gen_edges)
    by_var: dict[str, set[GNode]] = {}
    for n, r in roots.items():
        by_var.setdefault(n[0], set()).add(r)
    pairs = {(a, b) for rs in by_var.values() for a in rs for b in rs if a < b}
    for a, b in sorted(pairs):
        sa, sb = spans[a], spans[b]
        if sa >= sb or sb >= sa:
            continue
        need = sa | sb
        blocked = {n for n, r in roots.items() if spans[r] >= need}
        if _connected_avoiding(adj, a, b, blocked):
            return False
    return True


def _connected_avoiding(adj, src: GNode, dst: GNode, blocked: set[GNode]) -> bool:
    if src in blocked or dst in blocked:
        return False
    seen = {src}
    stack = [src]
    while stack:
        n = stack.pop()
        if n == dst:
            return True
        for nxt in adj.get(n, []):
            if nxt not in seen and nxt not in blocked:
                seen.add(nxt)
                stack.append(nxt)
    return False


def check_feedback_free(
    d: Ddsa, constraints: Sequence[Formula], unroll: int = FF_UNROLL
) -> bool:
    """Every dependency between two instances of a variable is spanned by a
    node whose equality class covers both involved intervals, on each
    enumerated run's whole graph."""
    pairs = _pairs(d, constraints)
    return all(
        _feedback_free_run(_graph(d, pairs, actions))
        for actions in enumerate_symbolic_runs(d, unroll)
    )


# ---------------------------------------------------------------------------
# Decompositions


def seq_decompose(d: Ddsa) -> Optional[tuple[Ddsa, Ddsa, str]]:
    """Split at a cut state: the prefix part keeps the initial state and gets
    the cut as its only final; the suffix part starts at the cut with a
    symbolic initial assignment.  Smallest prefix wins ties."""
    candidates = []
    for cut in d.states:
        part2 = _reachable_from(d, cut)
        part1 = (set(d.states) - part2) | {cut}
        if part1 == {cut}:
            continue
        if d.initial not in part1 or d.initial in part2 - {cut}:
            continue
        if not set(d.finals) <= part2:
            continue
        ok = True
        for (s, _, t) in d.transitions:
            if s in part2 and t == cut:
                ok = False  # reentry into the cut
            if s in part1 - {cut} and t in part2 - {cut}:
                ok = False  # bypass around the cut
        if ok:
            candidates.append((len(part1), d.states.index(cut), cut, part1, part2))
    if not candidates:
        return None
    _, _, cut, part1, part2 = min(candidates)
    d1 = _sub_system(d, part1, initial=d.initial, finals={cut}, alpha0=d.alpha0)
    d2 = _sub_system(d, part2, initial=cut, finals=set(d.finals), alpha0=None)
    return d1, d2, cut


def _reachable_from(d: Ddsa, start: str) -> set[str]:
    seen = {start}
    stack = [start]
    while stack:
        s = stack.pop()
        for (_, t) in d.outgoing(s):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _sub_system(d: Ddsa, states: set[str], initial: str, finals: set[str], alpha0) -> Ddsa:
    trans = tuple(
        (s, a, t) for (s, a, t) in d.transitions if s in states and t in states
    )
    acts = used_actions(trans)
    return d.replace(
        states=tuple(s for s in d.states if s in states),
        initial=initial,
        actions=tuple(acts),
        transitions=trans,
        finals=frozenset(finals),
        alpha0=dict(alpha0) if alpha0 is not None else None,
        guards={a: d.guards[a] for a in acts},
    )


# ---------------------------------------------------------------------------
# Certification


def certify(d: Ddsa, constraints: Sequence[Formula]) -> str:
    """The label of what certifies that the fixpoint is finite: `GC(K)`
    over the integers (NoSummaryFound outside the fragment); over the
    rationals MC, then feedback freedom, then a split on the components
    `detect` solves apart, then a sequential split, each part certified in
    turn, and `exact-fixpoint` where nothing applies."""
    if d.domain == INT:
        return f"GC(K={_gap_order_bound(d, constraints)})"
    return _certify(d, list(constraints))


def _certify(d: Ddsa, constraints: list[Formula], depth: int = 0) -> str:
    if check_mc(d, constraints):
        return "MC"
    try:
        if check_feedback_free(d, constraints):
            return "feedback-free"
    except BudgetExceeded:
        pass
    composed = _decompose(d, constraints, depth + 1) if depth < 8 else None
    return composed or "exact-fixpoint"


def _decompose(d: Ddsa, constraints: list[Formula], depth: int) -> Optional[str]:
    """The label of a split on the parts `detect` solves apart
    (`split_system`), else of a sequential split.  Each part keeps the
    constraints' conjuncts over its names, a variable-free one too: it is
    MC and has no graph pairs, so it changes no part's label."""
    parts = split_system(d, constraints)
    if len(parts) > 1:
        c = conj(*constraints)
        labels = (
            f"{{{','.join(names)}}}: " + _certify(part, [_by_names(c, set(names))[0]], depth)
            for names, part in parts
        )
        return f"var-compose({'; '.join(labels)})"
    split = seq_decompose(d)
    if split is not None:
        d1, d2, cut = split
        if set(d1.states) != set(d.states) or d1.finals != d.finals:
            left = _certify(d1, constraints, depth)
            right = _certify(d2, constraints, depth)
            return f"seq-compose({left}, {right}; cut='{cut}')"
    return None
