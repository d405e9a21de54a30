"""Finite-summary detection: the strategies behind the constraint graph.

A summary strategy packages the update procedure and the equivalence
relation the product quotients by (the constraint graph is the product
with the automaton of `true`).  There is one leaf class, `_Leaf`, and it
keeps that quotient itself: `canon` maps each state to the first
equivalent state it has seen, so the product finds a node by its
representative with a dict lookup (hash-consing modulo equivalence).
Every leaf is exact and compares its states with one rational equivalence
check: over the rationals, Fourier-Motzkin QE and logical equivalence;
over the integers, with the gap-order bound `K` set, the same QE on cubes
tightened to integer difference bounds (`solve.qe_gc`) and equivalence of
the cutoffs at K, which is exact on the gap-order fragment.  An integer
system outside that fragment gets no summary.  Over the rationals the
criteria (monotonicity constraints, feedback freedom) and the sequential
split at a cut state only certify that the quotient is finite, so they
label the leaf; a (sub)system that nothing covers still gets the exact
leaf, labelled `exact-fixpoint`, whose fixpoint the node budget bounds.
The one composition that changes the work is the variable split: its
parts are solved apart.  A state is a formula over the system's variables
whatever the strategy.  Every variable partition goes by whole top-level
conjuncts (`_by_names`): the split links two variables that share a
conjunct of a guard or constraint, and the projected guards, the parts'
constraints and a state's parts each take the conjuncts over their
variables.

Detection reads the system once (`_Reading`), and every part of the split
tree answers from that reading.  The reading keeps, per top-level conjunct
of a guard or constraint, its variable names, whether every atom is MC,
whether every atom is gap-order, and its computation-graph pair templates,
each computed on first use: MC, the variable split and its gap-order side,
the projected guards and the parts' constraints all ask it, and a part
shares its parent's conjuncts.  The graphs' inertia pairs come from the
write sets, so no transition formula is built.  Feedback freedom is checked
once per control structure and dependency component, and shared by every
part with both: no atom links two components, so a run's computation graph
is the disjoint union of its components' graphs, and the system is
feedback-free exactly when each component is.

A leaf's image under an action whose guard on it is true is the state
itself: every variable keeps its value.  On a projected leaf that is every
action that moves none of its variables.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Iterator, Optional, Sequence

from . import ddsa as dd
from . import solve
from .ddsa import Ddsa
from .formula import (
    INT,
    PLAIN,
    RAT,
    READ,
    TRUE,
    WRITE,
    And,
    FalseF,
    Formula,
    MissingVariable,
    NormAtom,
    TrueF,
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
    return list(dict.fromkeys([a for (_, a, _) in transitions]))


def _conjuncts(f: Formula) -> tuple[Formula, ...]:
    return f.args if isinstance(f, And) else (f,)


def _criterion(r: _Reading, d: Ddsa, constraints: Sequence[Formula]) -> list[_Conjunct]:
    """The top-level conjuncts of the used guards and of the constraints.
    The initial assignment's atoms compare one variable with a constant, so
    they are MC and gap-order and no criterion but `K` reads them."""
    formulas = [d.guard(a) for a in used_actions(d.transitions)] + list(constraints)
    return [k for f in formulas for k in r.conjuncts(f)]


def check_mc(d: Ddsa, constraints: Sequence[Formula]) -> bool:
    """Monotonicity criterion: rational domain and every atom of guards and
    constraints compares two variables/constants."""
    return _mc(d, constraints, _read(d, constraints))


def _mc(d: Ddsa, constraints: Sequence[Formula], r: _Reading) -> bool:
    return d.domain == RAT and all(k.mc for k in _criterion(r, d, constraints))


def check_gc(d: Ddsa, constraints: Sequence[Formula]) -> tuple[bool, Optional[int]]:
    """Gap-order criterion plus the cutoff bound K, over the atoms of
    guards, the initial assignment and the verification constraints, read
    off their tightened rows (`solve.gap_order_bound`)."""
    return _gc(d, constraints, _read(d, constraints))


def _gc(d: Ddsa, constraints: Sequence[Formula], r: _Reading) -> tuple[bool, Optional[int]]:
    atoms = [na for k in _criterion(r, d, constraints) for na in k.atoms]
    atoms += (norm_atom(a) for f in d.initial_constraints() for a in atoms_of(f))
    K = solve.gap_order_bound(atoms)
    return (K is not None, K)


# ---------------------------------------------------------------------------
# Computation graphs (for feedback freedom and bounded lookback)

GNode = tuple[str, int]  # (variable name, instant)
# Equality and general pairs of instances; an instant is an offset from the
# step the pairs are placed at.
Templates = tuple[list[tuple[GNode, GNode]], list[tuple[GNode, GNode]]]

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


def _groups(names: list[str], pairs) -> list[list[str]]:
    """The components of the names the pairs link, each in name order,
    ordered by the position of their root (`_components`)."""
    roots = _components(names, pairs)
    comps: dict[str, list[str]] = {}
    for n in names:
        comps.setdefault(roots[n], []).append(n)
    return [comps[r] for r in sorted(comps, key=names.index)]


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


class _Conjunct:
    """What detection reads off one top-level conjunct of a guard or a
    constraint, each fact on first use: its variables, its normalised atoms,
    whether every atom is MC, whether every atom is gap-order, and its pair
    templates."""

    def __init__(self, formula: Formula):
        self.formula = formula

    @cached_property
    def variables(self) -> set[VarId]:
        return free_vars(self.formula)

    @cached_property
    def names(self) -> frozenset[str]:
        return frozenset(v.name for v in self.variables)

    @cached_property
    def atoms(self) -> list[NormAtom]:
        return [norm_atom(a) for a in atoms_of(self.formula)]

    @cached_property
    def mc(self) -> bool:
        return all(map(solve.is_mc, self.atoms))

    @cached_property
    def gap_order(self) -> bool:
        return all(map(solve.is_gap_order, self.atoms))

    @cached_property
    def templates(self) -> Templates:
        return _pair_templates(self.atoms)


@dataclass
class _Pairs:
    """A system's pair templates over variable names: each used action's
    (its guard's, and the inertia pair of each variable it leaves alone) and
    the constraints' (offset 0).  `placed` memoises their placements."""

    steps: dict[str, Templates]
    constraints: Templates
    placed: dict = field(default_factory=dict)

    def on(self, names) -> _Pairs:
        """The pairs of the part over `names`: no atom of a part's actions
        crosses a variable split."""
        keep = set(names)

        def restrict(t: Templates) -> Templates:
            eq, gen = t
            return (
                [pq for pq in eq if pq[0][0] in keep and pq[1][0] in keep],
                [pq for pq in gen if pq[0][0] in keep and pq[1][0] in keep],
            )

        return _Pairs({a: restrict(t) for a, t in self.steps.items()}, restrict(self.constraints))


class _Reading:
    """A system read once, by top-level conjunct: every criterion, split
    and projection asks `conjuncts` for the facts of a formula's conjuncts,
    and each conjunct is read once per reading, whichever part of the
    split tree asks.  The variable splits it builds divide their states by
    its `names` too.

    The computation-graph pairs and the dependency components (the
    variables that chains of pairs link) are those of the system read.  A
    part of it (a projection on a variable split, a sequential part) has
    the pairs of the system restricted to its names.  `verdicts` holds
    feedback freedom per control structure and component, for every part
    checked."""

    def __init__(self, d: Ddsa, constraints: Sequence[Formula]):
        self.d = d
        self.constraints = list(constraints)
        self.facts: dict[Formula, _Conjunct] = {}
        self.by_formula: dict[Formula, list[_Conjunct]] = {}
        self.verdicts: dict = {}

    def fact(self, c: Formula) -> _Conjunct:
        hit = self.facts.get(c)
        if hit is None:
            hit = self.facts[c] = _Conjunct(c)
        return hit

    def conjuncts(self, f: Formula) -> list[_Conjunct]:
        hit = self.by_formula.get(f)
        if hit is None:
            hit = self.by_formula[f] = [self.fact(c) for c in _conjuncts(f)]
        return hit

    def names(self, c: Formula) -> frozenset[str]:
        return self.fact(c).names

    @cached_property
    def pairs(self) -> _Pairs:
        d = self.d
        steps = {}
        for a in used_actions(d.transitions):
            g = d.guard(a)
            if isinstance(g, FalseF):  # its transition formula has no atom
                steps[a] = ([], [])
                continue
            ks = self.conjuncts(g)
            written = {v.name for k in ks for v in k.variables if v.kind == WRITE}
            eq = [pq for k in ks for pq in k.templates[0]]
            eq += [((v.name, 0), (v.name, 1)) for v in d.variables if v.name not in written]
            steps[a] = (eq, [pq for k in ks for pq in k.templates[1]])
        ks = [k for c in self.constraints for k in self.conjuncts(c)]
        cons = [pq for k in ks for pq in k.templates[0]], [pq for k in ks for pq in k.templates[1]]
        # a run's graph has nodes for the declared variables only
        return _Pairs(steps, cons).on(v.name for v in d.variables)

    @cached_property
    def components(self) -> list[list[str]]:
        p = self.pairs
        pairs = (pq for t in (*p.steps.values(), p.constraints) for ps in t for pq in ps)
        return _groups([v.name for v in self.d.variables], ((a[0], b[0]) for a, b in pairs))


def _read(d: Ddsa, constraints: Sequence[Formula]) -> _Reading:
    """The reading of `d` under `constraints`; nothing is read until asked."""
    return _Reading(d, constraints)


def _graph(p: _Pairs, actions: Sequence[str], names: list[str]) -> ComputationGraph:
    """The run's graph: each action's pairs placed at its step, and the
    constraints' at every instant; each placement is built once per
    `_Pairs`."""
    g = ComputationGraph(len(actions), names)
    for key in (*enumerate(actions), *((k, None) for k in range(len(actions) + 1))):
        hit = p.placed.get(key)
        if hit is None:
            k, a = key
            hit = p.placed[key] = tuple(
                [frozenset({(n1, o1 + k), (n2, o2 + k)}) for (n1, o1), (n2, o2) in ps]
                for ps in (p.steps[a] if a is not None else p.constraints)
            )
        g.eq_edges.update(hit[0])
        g.gen_edges.update(hit[1])
    return g


def computation_graph(
    d: Ddsa, actions: Sequence[str], constraints: Sequence[Formula]
) -> ComputationGraph:
    """Dependency graph of a symbolic run, over-approximating verification
    constraints by inserting every constraint at every instant."""
    dd.symbolic_states(d, actions)
    return _graph(_read(d, constraints).pairs, actions, [v.name for v in d.variables])


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
    p = _read(d, constraints).pairs
    names = [v.name for v in d.variables]
    for actions in enumerate_symbolic_runs(d, unroll):
        _, edges = _graph(p, actions, names).collapsed_edges()
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
    node whose equality class covers both involved intervals."""
    return _feedback_free(d, _read(d, constraints), unroll)


def _feedback_free(d: Ddsa, r: _Reading, unroll: int) -> bool:
    """Feedback freedom of `d`, the system `r` read or a part of it, checked
    per component of the reading, each (control structure, component) once
    per reading.

    Exact: equality classes, spans and avoiding paths stay inside one
    component, so the system is feedback-free when each component is.
    Every component enumerates the same runs in the same order as the whole
    graph would, so a component that fails within the budget fails the
    whole check, and the budget is exceeded only when no component fails."""
    names = {v.name for v in d.variables}
    control = (d.initial, d.transitions, unroll)
    over: Optional[BudgetExceeded] = None
    for comp in r.components:
        comp = [n for n in comp if n in names]
        if not comp:
            continue
        key = (control, tuple(comp))
        ok = r.verdicts.get(key)
        if ok is None:
            part = r.pairs.on(comp)
            try:
                ok = all(
                    _feedback_free_run(_graph(part, actions, comp))
                    for actions in enumerate_symbolic_runs(d, unroll)
                )
            except BudgetExceeded as e:
                ok = e
            r.verdicts[key] = ok
        if ok is False:
            return False
        if ok is not True:
            over = over or ok
    if over is not None:
        raise over
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


def _by_names(
    f: Formula, names: set[str], names_of: Callable[[Formula], frozenset[str]]
) -> tuple[Formula, Formula]:
    """The conjunction of `f`'s top-level conjuncts whose variables all lie
    in `names` (a variable-free one too), and the conjunction of the rest:
    the one way a variable split divides a formula.  `names_of` gives a
    conjunct's variable names (`_Reading.names`)."""
    inside: list[Formula] = []
    outside: list[Formula] = []
    for c in _conjuncts(f):
        (inside if names_of(c) <= names else outside).append(c)
    if not outside:
        return f, TRUE
    if not inside:
        return TRUE, f
    return conj(*inside), conj(*outside)


def var_decompose(
    d: Ddsa, constraints: Sequence[Formula]
) -> Optional[tuple[tuple[VarId, ...], tuple[VarId, ...]]]:
    """Two-part split of the variables such that every top-level conjunct of
    a used guard and of a constraint lives on one side, so that `_by_names`
    sends it whole to one part.

    Components of the conjunct co-occurrence graph are grouped so that the
    gap-order-expressible ones form the first side; if that degenerates,
    the first component stands against the rest.
    """
    return _var_split(d, constraints, _read(d, constraints))


def _var_split(
    d: Ddsa, constraints: Sequence[Formula], r: _Reading
) -> Optional[tuple[tuple[VarId, ...], tuple[VarId, ...]]]:
    names = [v.name for v in d.variables]
    ks = [k for k in _criterion(r, d, constraints) if k.names]
    ordered = _groups(names, ((next(iter(k.names)), n) for k in ks for n in k.names))
    if len(ordered) < 2:
        return None
    # a conjunct lies in one component
    component = {n: i for i, comp in enumerate(ordered) for n in comp}
    gc_ok = [True] * len(ordered)
    for k in ks:
        i = component[next(iter(k.names))]
        gc_ok[i] = gc_ok[i] and k.gap_order
    side1 = [n for i, comp in enumerate(ordered) if gc_ok[i] for n in comp]
    side2 = [n for i, comp in enumerate(ordered) if not gc_ok[i] for n in comp]
    if not side1 or not side2:
        side1 = ordered[0]
        side2 = [n for comp in ordered[1:] for n in comp]
    v1 = tuple(v for v in d.variables if v.name in set(side1))
    v2 = tuple(v for v in d.variables if v.name in set(side2))
    return v1, v2


def project_system(d: Ddsa, keep: Sequence[VarId]) -> Ddsa:
    """Projection onto a variable subset: each guard keeps the conjuncts
    over the kept variables (`_by_names`; true when nothing remains)."""
    return _project(d, keep, _read(d, []))


def _project(d: Ddsa, keep: Sequence[VarId], r: _Reading) -> Ddsa:
    keep_names = {v.name for v in keep}
    guards = {a: _by_names(d.guard(a), keep_names, r.names)[0] for a in d.actions}
    variables = tuple(v for v in d.variables if v.name in keep_names)
    alpha0 = None if d.alpha0 is None else {v: d.alpha0[v] for v in variables}
    return replace(d, variables=variables, alpha0=alpha0, guards=guards)


# ---------------------------------------------------------------------------
# Summary strategies


@dataclass
class _Leaf:
    """The one exact leaf: QE in the system's domain (`dd.update` picks it)
    and a rational equivalence check.

    `label` names the criterion or split that certifies the fixpoint is
    finite; the relation is the same whichever it is.  With the gap-order
    bound `K` set (an integer system), states are compared by their
    cutoffs at `K`."""

    d: Ddsa
    label: str = field(default="exact-fixpoint", kw_only=True)
    K: Optional[int] = field(default=None, kw_only=True)

    def describe(self) -> str:
        return self.label

    def compared(self, state: Formula) -> Formula:
        """The formula whose models the equivalence compares, over the
        rationals: the state, or its cutoff at `K`, as in
        `solve.gc_equivalent`."""
        if self.K is None:
            return state
        memo = self.__dict__.setdefault("_cutoff_cache", {})
        hit = memo.get(state)
        if hit is None:
            hit = memo[state] = solve.cutoff(state, self.K)
        return hit

    # The image, sat, cutoff and canon memos live on the instance: leaves
    # differ in their system and K, and live for one verify call.

    def image(self, state: Formula, action: str) -> Formula:
        # under a true guard every variable keeps its value: the image is
        # the state (on a projected leaf, an action that moves none of its
        # variables)
        if isinstance(self.d.guard(action), TrueF):
            return state
        # one image per (state, transition formula), shared by the NFA edges
        # that conjoin to it and by the actions with that formula
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
            hit = solve.is_sat(state, self.d.domain)
            if hit.model is not None:
                # a model of one cube leaves the other variables free
                zeros = dict.fromkeys(self.d.variables, 0)
                hit = SatResult(True, {**zeros, **hit.model})
            memo[state] = hit
        return hit.sat


@dataclass
class VarStrategy:
    """Variable-disjoint composition.  A state is one formula; `_split`
    sends its conjuncts over `v1` to `left` and the rest to `right`
    (`_by_names`), and the parts are solved apart."""

    v1: tuple[VarId, ...]
    v2: tuple[VarId, ...]
    left: Strategy
    right: Strategy
    # a conjunct's variable names: the detection reading's `names`
    names_of: Callable[[Formula], frozenset[str]] = field(repr=False)

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
            hit = self._split_cache[state] = _by_names(state, self._names1, self.names_of)
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
    constraints = list(constraints)
    r = _read(d, constraints)
    s = _detect(d, constraints, lambda: r)
    if s is None:
        raise NoSummaryFound(
            "no finite-summary criterion applied; this says nothing about the "
            "system itself (the summary property is undecidable in general)"
        )
    return s


def _detect(
    d: Ddsa, constraints: list[Formula], read: Callable[[], _Reading], depth: int = 0
) -> Optional[Strategy]:
    """`read` gives the reading of the system `detect` was called on, which
    every part of the split tree answers from."""
    r = read()
    if d.domain == INT:
        # gap-order reasoning is an integer device; a split cannot help, since
        # a non-gap-order atom lands in some part
        gc_ok, K = _gc(d, constraints, r)
        return _Leaf(d, label=f"GC(K={K})", K=K) if gc_ok else None
    if _mc(d, constraints, r):
        return _Leaf(d, label="MC")
    try:
        if _feedback_free(d, r, FF_UNROLL):
            return _Leaf(d, label="feedback-free")
    except BudgetExceeded:
        pass
    composed = _decompose(d, constraints, read, depth + 1) if depth < 8 else None
    # exact either way; without a certificate only the node budget bounds it
    return composed or _Leaf(d)


def _decompose(
    d: Ddsa, constraints: list[Formula], read: Callable[[], _Reading], depth: int
) -> Optional[Strategy]:
    """A variable split, solved apart; else a sequential split, which only
    certifies the one rational leaf on the whole system."""
    r = read()
    split = _var_split(d, constraints, r)
    if split is not None:
        v1, v2 = split
        c1, c2 = _by_names(conj(*constraints), {v.name for v in v1}, r.names)
        left = _detect(_project(d, v1, r), [c1], read, depth)
        right = _detect(_project(d, v2, r), [c2], read, depth)
        return VarStrategy(v1, v2, left, right, r.names)
    parts = seq_decompose(d)
    if parts is not None:
        d1, d2, cut = parts
        if set(d1.states) != set(d.states) or d1.finals != d.finals:
            left = _detect(d1, constraints, read, depth).describe()
            right = _detect(d2, constraints, read, depth).describe()
            return _Leaf(d, label=f"seq-compose({left}, {right}; cut='{cut}')")
    return None
