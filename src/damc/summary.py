"""Finite-summary detection: the strategies behind the constraint graph.

A summary strategy packages the update procedure and the equivalence
relation the product quotients by (the constraint graph is the product
with the automaton of `true`).  The leaf keeps that quotient itself:
`canon` maps each state to the first equivalent state it has seen, so the
product finds a node by its representative with a dict lookup
(hash-consing modulo equivalence).  The domain alone picks the leaf, and
every leaf is exact and compares its states with one rational equivalence
check: over the rationals, Fourier-Motzkin QE and logical equivalence;
over the integers, the same QE on cubes tightened to integer difference
bounds (`solve.qe_gc`) and equivalence of the cutoffs at K, which is exact
on the gap-order fragment.  An integer system outside that fragment gets
no summary.  Over the rationals the criteria (monotonicity
constraints, feedback freedom) and the sequential split at a cut state only
certify that the quotient is finite, so they label the leaf; a (sub)system
that nothing covers still gets the exact leaf, labelled `exact-fixpoint`,
whose fixpoint the node budget bounds.  The one composition that changes
the work is the variable split: its parts are solved apart.  A state is a
formula over the system's variables whatever the strategy; the split reads
its parts off the state's conjuncts.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Sequence

from . import ddsa as dd
from . import solve
from .ddsa import Ddsa
from .formula import (
    INT,
    RAT,
    And,
    Atom,
    Formula,
    MissingVariable,
    VarId,
    atoms_of,
    conj,
    evaluate,
    free_vars,
    norm_atom,
)
from .solve import BudgetExceeded, SatResult


# ---------------------------------------------------------------------------
# Syntactic criteria


def used_actions(transitions: Sequence[tuple[str, str, str]]) -> list[str]:
    """Actions of the transitions, in first-use order."""
    return list(dict.fromkeys(a for (_, a, _) in transitions))


def _criterion_atoms(d: Ddsa, constraints: Sequence[Formula]) -> list[Atom]:
    out: list[Atom] = []
    for a in used_actions(d.transitions):
        out.extend(atoms_of(d.guard(a)))
    for c in constraints:
        out.extend(atoms_of(c))
    out.extend(a for f in d.initial_constraints() for a in atoms_of(f))
    return out


def check_mc(d: Ddsa, constraints: Sequence[Formula]) -> bool:
    """Monotonicity criterion: rational domain and every atom of guards and
    constraints compares two variables/constants."""
    if d.domain != RAT:
        return False
    return all(solve.is_mc(norm_atom(a)) for a in _criterion_atoms(d, constraints))


def check_gc(d: Ddsa, constraints: Sequence[Formula]) -> tuple[bool, Optional[int]]:
    """Gap-order criterion plus the cutoff bound K, over the atoms of
    guards, the initial assignment and the verification constraints, read
    off their tightened rows (`solve.gap_order_bound`)."""
    K = solve.gap_order_bound(norm_atom(a) for a in _criterion_atoms(d, constraints))
    return (K is not None, K)


# ---------------------------------------------------------------------------
# Computation graphs (for feedback freedom and bounded lookback)

GNode = tuple[str, int]  # (variable name, instant)

# Budget on the symbolic runs one control-flow check may enumerate.
MAX_RUNS = 100_000
# Unroll depth at which detection checks feedback freedom.
FF_UNROLL = 2


@dataclass
class ComputationGraph:
    """Undirected dependency graph over variable instances of a symbolic run.

    Edges are tagged: an equality edge comes from a literal of the exact
    shape x = y between two instances; everything else is general.
    """

    length: int
    var_names: list[str]
    eq_edges: set[frozenset[GNode]] = field(default_factory=set)
    gen_edges: set[frozenset[GNode]] = field(default_factory=set)

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


def _components(nodes, pairs) -> dict:
    """Each node's root in the graph with the given edges: a union-find
    with path halving that keeps the smaller root, so every root is the
    smallest node of its component, whatever the order of the edges."""
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def _adjacency(edges: set[frozenset[GNode]]) -> dict[GNode, list[GNode]]:
    """Undirected adjacency lists of the edges."""
    adj: dict[GNode, list[GNode]] = {}
    for e in edges:
        a, b = tuple(e)
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    return adj


def _pair_templates(atoms, inst: dict[VarId, GNode]):
    """Equality and general instance pairs of the atoms; the instants in
    `inst` are offsets from the step the pairs are placed at."""
    eq: list[tuple[GNode, GNode]] = []
    gen: list[tuple[GNode, GNode]] = []
    for at in atoms:
        na = norm_atom(at)
        present = [inst[v] for v, _ in na.coeffs if v in inst]
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


def _action_templates(d: Ddsa, action: str):
    """Pair templates of the action's transition formula, reads at offset 0
    and writes at 1; normalised once per system and action."""
    hit = d._pairs_cache.get(action)
    if hit is None:
        inst = {}
        for v in d.variables:
            inst[v.read()] = (v.name, 0)
            inst[v.write()] = (v.name, 1)
        hit = _pair_templates(atoms_of(dd.transition_formula(d, action)), inst)
        d._pairs_cache[action] = hit
    return hit


def _add_shifted(g: ComputationGraph, templates, step: int) -> None:
    for edges, pairs in zip((g.eq_edges, g.gen_edges), templates):
        edges.update(
            frozenset({(n1, o1 + step), (n2, o2 + step)}) for (n1, o1), (n2, o2) in pairs
        )


def computation_graph(
    d: Ddsa, actions: Sequence[str], constraints: Sequence[Formula]
) -> ComputationGraph:
    """Dependency graph of a symbolic run, over-approximating verification
    constraints by inserting every constraint at every instant."""
    dd.symbolic_states(d, actions)
    n = len(actions)
    g = ComputationGraph(n, [v.name for v in d.variables])
    for k, a in enumerate(actions):
        _add_shifted(g, _action_templates(d, a), k)
    templates = _pair_templates(
        (at for c in constraints for at in atoms_of(c)), {v: (v.name, 0) for v in d.variables}
    )
    for k in range(n + 1):
        _add_shifted(g, templates, k)
    return g


def _longest_path(edges: set[frozenset[GNode]], stop_above: Optional[int] = None) -> int:
    """Length of the longest simple path (0 for edgeless graphs)."""
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
            if stop_above is not None and best > stop_above:
                return best
            for nxt in adj.get(node, []):
                if nxt not in seen:
                    stack.append((nxt, seen | {nxt}, depth + 1))
    return best


def enumerate_symbolic_runs(
    d: Ddsa, unroll: int, maximal_only: bool = False
) -> Iterator[list[str]]:
    """All symbolic runs in which no transition is traversed more than
    `unroll` times.  A bounded stand-in for full dependency saturation.

    With `maximal_only`, only runs with no in-budget extension are yielded;
    this suffices for prefix-monotone checks like path length.
    """
    budget: dict[tuple[str, str], int] = {}
    count = 0

    def go(state: str, acc: list[str]):
        nonlocal count
        count += 1
        if count > MAX_RUNS:
            raise BudgetExceeded("symbolic run enumeration too large")
        extended = False
        for (a, dst) in d.outgoing(state):
            key = (state, a)
            if budget.get(key, 0) >= unroll:
                continue
            extended = True
            budget[key] = budget.get(key, 0) + 1
            acc.append(a)
            yield from go(dst, acc)
            acc.pop()
            budget[key] -= 1
        if not maximal_only or not extended:
            yield list(acc)

    yield from go(d.initial, [])


def check_bounded_lookback(
    d: Ddsa, constraints: Sequence[Formula], K: int, unroll: int
) -> bool:
    """After collapsing equality classes, no enumerated run's dependency
    graph may contain an acyclic path longer than K.

    Only maximal runs are inspected: collapsed path length never shrinks
    when a run is extended.
    """
    if K < 1 or unroll < 1:
        raise ValueError("K and unroll must be positive")
    for actions in enumerate_symbolic_runs(d, unroll, maximal_only=True):
        g = computation_graph(d, actions, constraints)
        _, edges = g.collapsed_edges()
        if _longest_path(edges, stop_above=K) > K:
            return False
    return True


def _feedback_free_run(g: ComputationGraph) -> bool:
    roots = g.classes()
    spans = g.spans(roots)
    adj = _adjacency(g.eq_edges | g.gen_edges)
    by_var: dict[str, list[GNode]] = {}
    for n in roots:
        by_var.setdefault(n[0], []).append(n)
    for insts in by_var.values():
        for i in range(len(insts)):
            for j in range(i + 1, len(insts)):
                a, b = insts[i], insts[j]
                sa, sb = spans[roots[a]], spans[roots[b]]
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
    node whose equality class covers both involved intervals."""
    for actions in enumerate_symbolic_runs(d, unroll):
        if not _feedback_free_run(computation_graph(d, actions, constraints)):
            return False
    return True


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
    return replace(
        d,
        states=tuple(s for s in d.states if s in states),
        initial=initial,
        actions=tuple(acts),
        transitions=trans,
        finals=frozenset(finals),
        alpha0=dict(alpha0) if alpha0 is not None else None,
        guards={a: d.guards[a] for a in acts},
    )


def var_decompose(
    d: Ddsa, constraints: Sequence[Formula]
) -> Optional[tuple[tuple[VarId, ...], tuple[VarId, ...]]]:
    """Two-part split of the variables such that every guard and constraint
    atom lives on one side.

    Components of the atom co-occurrence graph are grouped so that the
    gap-order-expressible ones form the first side; if that degenerates,
    the first component stands against the rest.
    """
    names = [v.name for v in d.variables]
    atoms = _criterion_atoms(d, constraints)
    shared = [sorted({v.name for v in free_vars(a)}) for a in atoms]
    roots = _components(names, ((vs[0], other) for vs in shared for other in vs[1:]))
    comps: dict[str, list[str]] = {}
    for n in names:
        comps.setdefault(roots[n], []).append(n)
    ordered = [comps[r] for r in sorted(comps, key=names.index)]
    if len(ordered) < 2:
        return None
    gc_ok: dict[int, bool] = {}
    for i, comp in enumerate(ordered):
        cs = set(comp)
        relevant = [a for a in atoms if {v.name for v in free_vars(a)} & cs]
        gc_ok[i] = all(solve.is_gap_order(norm_atom(a)) for a in relevant)
    side1 = [n for i, comp in enumerate(ordered) if gc_ok[i] for n in comp]
    side2 = [n for i, comp in enumerate(ordered) if not gc_ok[i] for n in comp]
    if not side1 or not side2:
        side1 = ordered[0]
        side2 = [n for comp in ordered[1:] for n in comp]
    v1 = tuple(v for v in d.variables if v.name in set(side1))
    v2 = tuple(v for v in d.variables if v.name in set(side2))
    return v1, v2


def project_system(d: Ddsa, keep: Sequence[VarId]) -> Ddsa:
    """Projection onto a variable subset: guard atoms over other variables
    are dropped (the guard becomes true when nothing remains)."""
    keep_names = {v.name for v in keep}
    guards = {}
    for a in d.actions:
        parts = [
            at
            for at in atoms_of(d.guard(a))
            if {v.name for v in free_vars(at)} <= keep_names
        ]
        guards[a] = conj(*parts)
    variables = tuple(v for v in d.variables if v.name in keep_names)
    alpha0 = None if d.alpha0 is None else {v: d.alpha0[v] for v in variables}
    return replace(d, variables=variables, alpha0=alpha0, guards=guards)


# ---------------------------------------------------------------------------
# Summary strategies


@dataclass
class _Leaf:
    """The exact rational leaf: Fourier-Motzkin QE and logical equivalence.

    `label` names the criterion or split that certifies the fixpoint is
    finite; the relation is the same whichever it is.  The gap-order leaf
    overrides only the formula the equivalence compares (the cutoff at K)
    and the domain it solves in; `dd.update` picks the QE from the domain."""

    d: Ddsa
    label: str = field(default="exact-fixpoint", kw_only=True)
    domain = RAT

    def describe(self) -> str:
        return self.label

    def compared(self, state: Formula) -> Formula:
        """The formula whose models the equivalence compares, over the
        rationals (for the gap-order leaf, the cutoff, as in
        `solve.gc_equivalent`)."""
        return state

    # The image, sat and canon memos live on the instance: leaves differ in
    # their system and domain, and live for one verify call.

    def image(self, state: Formula, action: str) -> Formula:
        # one image per (state, transition formula), shared by the NFA edges
        # that conjoin to it and by the actions with that formula (on a
        # projected leaf, those that move none of its variables)
        memo = self.__dict__.setdefault("_image_cache", {})
        key = (state, dd.transition_formula(self.d, action))
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = dd.update(self.d, state, action)
        return hit

    def canon(self, state: Formula) -> Formula:
        """The first state canonised here that is equivalent to `state`
        (`state` itself if none is): one representative per class, so that
        the product finds a node by lookup instead of by scan."""
        memo = self.__dict__.setdefault("_canon_cache", {})
        hit = memo.get(state)
        if hit is None:
            classes = self.__dict__.setdefault("_classes", [])
            hit = next((r for r in classes if self.equiv(r, state)), None)
            if hit is None:
                classes.append(state)
                hit = state
            memo[state] = hit
        return hit

    def equiv(self, s1: Formula, s2: Formula) -> bool:
        return not self._refuted(s1, s2) and solve.equivalent(
            self.compared(s1), self.compared(s2), RAT
        )

    def _refuted(self, s1: Formula, s2: Formula) -> bool:
        """Whether a stored model of one side satisfies its compared formula
        and falsifies the other's.  That model is a witness of exactly what
        the solver checks first, so a refutation is the solver's answer.
        Each atom's truth under a stored model is computed once: the memo
        holds one dict per solved state."""
        solved = self.__dict__.get("_sat_cache", {})
        truths = self.__dict__.setdefault("_truth_cache", {})
        for a, b in ((s1, s2), (s2, s1)):
            res = solved.get(a)
            if res is None or res.model is None:
                continue
            memo = truths.setdefault(a, {})
            try:
                if evaluate(self.compared(a), res.model, memo) and not evaluate(
                    self.compared(b), res.model, memo
                ):
                    return True
            except MissingVariable:
                pass  # a state beyond the model: ask the solver
        return False

    def sat(self, state: Formula) -> bool:
        memo = self.__dict__.setdefault("_sat_cache", {})
        hit = memo.get(state)
        if hit is None:
            hit = solve.is_sat(state, self.domain)
            if hit.model is not None:
                # a model of one cube leaves the other variables free
                zeros = dict.fromkeys(self.d.variables, 0)
                hit = SatResult(True, {**zeros, **hit.model})
            memo[state] = hit
        return hit.sat


@dataclass
class GcStrategy(_Leaf):
    """Gap-order constraints: integer QE and cutoff equivalence at K."""

    K: int
    domain = INT

    def describe(self) -> str:
        return f"GC(K={self.K})"

    def compared(self, state: Formula) -> Formula:
        memo = self.__dict__.setdefault("_cutoff_cache", {})
        hit = memo.get(state)
        if hit is None:
            hit = memo[state] = solve.cutoff(state, self.K)
        return hit


@dataclass
class VarStrategy:
    """Variable-disjoint composition.  A state is one formula; `_split`
    sends each conjunct whose variables all lie in `v1` (a variable-free
    one too) to `left` and the rest to `right`, and the parts are solved
    apart."""

    v1: tuple[VarId, ...]
    v2: tuple[VarId, ...]
    left: Strategy
    right: Strategy

    def __post_init__(self):
        self._names1 = {v.name for v in self.v1}
        self._split_cache: dict[Formula, tuple[Formula, Formula]] = {}
        self._canon_cache: dict[Formula, Formula] = {}

    def describe(self) -> str:
        n1 = ",".join(v.name for v in self.v1)
        n2 = ",".join(v.name for v in self.v2)
        return (
            f"var-compose({{{n1}}}: {self.left.describe()}; "
            f"{{{n2}}}: {self.right.describe()})"
        )

    def _split(self, state: Formula) -> tuple[Formula, Formula]:
        hit = self._split_cache.get(state)
        if hit is None:
            c1, c2 = [], []
            for c in state.args if isinstance(state, And) else (state,):
                (c1 if {v.name for v in free_vars(c)} <= self._names1 else c2).append(c)
            hit = self._split_cache[state] = (conj(*c1), conj(*c2))
        return hit

    def image(self, state: Formula, action: str) -> Formula:
        s1, s2 = self._split(state)
        return conj(self.left.image(s1, action), self.right.image(s2, action))

    def canon(self, state: Formula) -> Formula:
        hit = self._canon_cache.get(state)
        if hit is None:
            s1, s2 = self._split(state)
            hit = self._canon_cache[state] = conj(self.left.canon(s1), self.right.canon(s2))
        return hit

    def sat(self, state: Formula) -> bool:
        s1, s2 = self._split(state)
        return self.left.sat(s1) and self.right.sat(s2)


# The protocol the product uses: describe, image, sat and canon, on states
# that are formulas over the system's variables.
Strategy = _Leaf | VarStrategy


# ---------------------------------------------------------------------------
# Detection


class NoSummaryFound(Exception):
    """No criterion applied; says nothing about the system itself."""


def detect(d: Ddsa, constraints: Sequence[Formula]) -> Strategy:
    """A rational system always gets one; an integer system outside the
    gap-order fragment raises NoSummaryFound."""
    s = _detect(d, list(constraints))
    if s is None:
        raise NoSummaryFound(
            "no finite-summary criterion applied; this says nothing about the "
            "system itself (the summary property is undecidable in general)"
        )
    return s


def _detect(d: Ddsa, constraints: list[Formula], depth: int = 0) -> Optional[Strategy]:
    if d.domain == INT:
        # gap-order reasoning is an integer device; a split cannot help, since
        # a non-gap-order atom lands in some part
        gc_ok, K = check_gc(d, constraints)
        return GcStrategy(d, K) if gc_ok else None
    if check_mc(d, constraints):
        return _Leaf(d, label="MC")
    try:
        if check_feedback_free(d, constraints):
            return _Leaf(d, label="feedback-free")
    except BudgetExceeded:
        pass
    composed = _decompose(d, constraints, depth + 1) if depth < 8 else None
    # exact either way; without a certificate only the node budget bounds it
    return composed or _Leaf(d)


def _decompose(d: Ddsa, constraints: list[Formula], depth: int) -> Optional[Strategy]:
    """A variable split, solved apart; else a sequential split, which only
    certifies the one rational leaf on the whole system."""
    split = var_decompose(d, constraints)
    if split is not None:
        v1, v2 = split
        names1 = {v.name for v in v1}
        c1 = [c for c in constraints if {v.name for v in free_vars(c)} <= names1]
        c2 = [c for c in constraints if c not in c1]
        left = _detect(project_system(d, v1), c1, depth)
        right = _detect(project_system(d, v2), c2, depth)
        return VarStrategy(v1, v2, left, right)
    parts = seq_decompose(d)
    if parts is not None:
        d1, d2, cut = parts
        if set(d1.states) != set(d.states) or d1.finals != d.finals:
            left = _detect(d1, constraints, depth).describe()
            right = _detect(d2, constraints, depth).describe()
            return _Leaf(d, label=f"seq-compose({left}, {right}; cut='{cut}')")
    return None
