"""Finite-summary detection and certification.

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
the cutoffs at K, which is exact on the gap-order fragment.  A state is a
formula over the system's variables whatever the strategy.

`detect` gives the strategy `verify` runs, and reads structure only: no
verdict reads a certificate.  An integer system gets the gap-order leaf,
and one outside that fragment gets no summary.  A rational system is split
once into the components of the conjunct co-occurrence graph
(`_var_parts`): one component gets one leaf, several get one n-ary
`VarStrategy` with a leaf per component, solved apart.  The split is the
one composition that changes the work.

`certify` gives the label of what shows the quotient finite, for
`damc summary`: `GC(K)` over the integers; over the rationals the
criteria (monotonicity constraints, feedback freedom), then a two-part
variable split and a sequential split at a cut state, each part certified
in turn, and `exact-fixpoint` where nothing applies, whose fixpoint the
node budget bounds.  Every variable partition goes by whole top-level
conjuncts (`_by_names`): the split links two variables that share a
conjunct of a guard or constraint, and the projected guards, the parts'
constraints and a state's parts each take the conjuncts over their
variables.

Both read each formula once, whichever of them or part of the split tree
asks: `_FACTS` memoises, per guard, constraint or top-level conjunct, its
variables and their names, its normalised atoms, whether every atom is
MC, whether every atom is gap-order, its computation-graph pair templates
and its conjuncts' facts, each on first use.  The graphs' inertia pairs
come from the write sets, so no transition formula is built.  A
certification's one state is its feedback-freedom memo, shared by the
split tree: the root's pairs, which a part takes restricted to its names,
and the verdict per control structure and dependency component.  No atom
links two components, so a run's computation graph is the disjoint union
of theirs, and the system is feedback-free exactly when each component is.

A leaf's image under an action whose guard on it is true is the state
itself: every variable keeps its value.  On a projected leaf that is every
action that moves none of its variables.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Optional, Sequence

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


def _criterion(d: Ddsa, constraints: Sequence[Formula]) -> list[_Facts]:
    """The facts of the top-level conjuncts of the used guards and of the
    constraints.  The initial assignment's atoms compare one variable with a
    constant, so they are MC and gap-order and no criterion but `K` reads
    them."""
    formulas = [d.guard(a) for a in used_actions(d.transitions)] + list(constraints)
    return [k for f in formulas for k in _fact(f).conjuncts]


def check_mc(d: Ddsa, constraints: Sequence[Formula]) -> bool:
    """Monotonicity criterion: rational domain and every atom of guards and
    constraints compares two variables/constants."""
    return d.domain == RAT and all(k.mc for k in _criterion(d, constraints))


def check_gc(d: Ddsa, constraints: Sequence[Formula]) -> tuple[bool, Optional[int]]:
    """Gap-order criterion plus the cutoff bound K, over the atoms of
    guards, the initial assignment and the verification constraints, read
    off their tightened rows (`solve.gap_order_bound`)."""
    atoms = [na for k in _criterion(d, constraints) for na in k.atoms]
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
# Unroll depth at which certification checks feedback freedom.
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


class _Facts:
    """What detection and certification read off a guard, a constraint or
    a top-level conjunct of one, each fact on first use (the module
    docstring)."""

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

    @cached_property
    def conjuncts(self) -> list[_Facts]:
        f = self.formula
        return [_fact(c) for c in f.args] if isinstance(f, And) else [self]


# The facts per formula, shared by every detection and certification: they
# depend on the formula alone.  Capped as `solve._DNF_CACHE` is.
_FACTS: dict[Formula, _Facts] = {}


def _fact(f: Formula) -> _Facts:
    hit = _FACTS.get(f)
    if hit is None:
        hit = _Facts(f)
        if len(_FACTS) < 100_000:
            _FACTS[f] = hit
    return hit


@dataclass
class _Pairs:
    """A system's pair templates over its variable `names`: each used
    action's (its guard's, and an inertia pair per variable it leaves alone)
    and the constraints' (offset 0).  `placed` memoises their placements."""

    names: list[str]
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

        return _Pairs(
            [n for n in self.names if n in keep],
            {a: restrict(t) for a, t in self.steps.items()},
            restrict(self.constraints),
        )

    @cached_property
    def components(self) -> list[list[str]]:
        """The dependency components: the names that chains of pairs link."""
        pairs = (pq for t in (*self.steps.values(), self.constraints) for ps in t for pq in ps)
        return _groups(self.names, ((a[0], b[0]) for a, b in pairs))


def _pairs(d: Ddsa, constraints: Sequence[Formula]) -> _Pairs:
    """The pairs of `d` under `constraints`, from the write sets and the
    conjuncts' templates: no transition formula is built."""
    steps = {}
    for a in used_actions(d.transitions):
        g = d.guard(a)
        if isinstance(g, FalseF):  # its transition formula has no atom
            steps[a] = ([], [])
            continue
        ks = _fact(g).conjuncts
        written = {v.name for k in ks for v in k.variables if v.kind == WRITE}
        eq = [pq for k in ks for pq in k.templates[0]]
        eq += [((v.name, 0), (v.name, 1)) for v in d.variables if v.name not in written]
        steps[a] = (eq, [pq for k in ks for pq in k.templates[1]])
    ks = [k for c in constraints for k in _fact(c).conjuncts]
    cons = [pq for k in ks for pq in k.templates[0]], [pq for k in ks for pq in k.templates[1]]
    # a run's graph has nodes for the declared variables only
    names = [v.name for v in d.variables]
    return _Pairs(names, steps, cons).on(names)


def _graph(p: _Pairs, actions: Sequence[str]) -> ComputationGraph:
    """The run's graph over `p.names`: each action's pairs placed at its
    step, and the constraints' at every instant; each placement is built
    once per `_Pairs`."""
    g = ComputationGraph(len(actions), p.names)
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
    return _graph(_pairs(d, constraints), actions)


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
    p = _pairs(d, constraints)
    for actions in enumerate_symbolic_runs(d, unroll):
        _, edges = _graph(p, actions).collapsed_edges()
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
    return _feedback_free(d, constraints, unroll, {})


def _feedback_free(d: Ddsa, constraints: Sequence[Formula], unroll: int, memo: dict) -> bool:
    """Feedback freedom per dependency component under one certification's
    `memo`: the first system checked is the split tree's root, whose pairs
    the memo keeps (under `None`); a later system, a part of the root, takes
    them restricted to its names.  The memo keeps each (control structure,
    component) verdict too.  Exact: classes, spans and avoiding paths stay
    in one component.  A component enumerates the runs in the order the
    whole graph would, so a failure within the budget fails the check, and
    the budget is exceeded only when no component fails."""
    root = memo.get(None)
    if root is None:
        root = memo[None] = _pairs(d, constraints)
    names = {v.name for v in d.variables}
    control = (d.initial, d.transitions, unroll)
    over: Optional[BudgetExceeded] = None
    for comp in root.components:
        comp = [n for n in comp if n in names]
        if not comp:
            continue
        key = (control, tuple(comp))
        ok = memo.get(key)
        if ok is None:
            part = root.on(comp)
            try:
                ok = all(
                    _feedback_free_run(_graph(part, actions))
                    for actions in enumerate_symbolic_runs(d, unroll)
                )
            except BudgetExceeded as e:
                ok = e
            memo[key] = ok
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


def _by_names(f: Formula, names: set[str]) -> tuple[Formula, Formula]:
    """The conjunction of `f`'s top-level conjuncts whose variables all lie
    in `names` (a variable-free one too), and the conjunction of the rest:
    the one way a variable split divides a formula."""
    inside: list[Formula] = []
    outside: list[Formula] = []
    for k in _fact(f).conjuncts:
        (inside if k.names <= names else outside).append(k.formula)
    if not outside:
        return f, TRUE
    if not inside:
        return TRUE, f
    return conj(*inside), conj(*outside)


def _var_parts(d: Ddsa, constraints: Sequence[Formula]) -> tuple[list[list[str]], int]:
    """The components of the conjunct co-occurrence graph over `d`'s
    variable names (two variables are linked when they share a top-level
    conjunct of a used guard or of a constraint), and how many of them come
    first because each of their conjuncts is gap-order; each group keeps
    `_groups`' order.  `_by_names` sends every such conjunct whole to one
    component.  Gap-order is read only when there are several components."""
    names = [v.name for v in d.variables]
    ks = [k for k in _criterion(d, constraints) if k.names]
    ordered = _groups(names, ((next(iter(k.names)), n) for k in ks for n in k.names))
    if len(ordered) < 2:
        return ordered, 0
    # a conjunct lies in one component
    component = {n: i for i, comp in enumerate(ordered) for n in comp}
    gc_ok = [True] * len(ordered)
    for k in ks:
        i = component[next(iter(k.names))]
        gc_ok[i] = gc_ok[i] and k.gap_order
    first = [comp for comp, ok in zip(ordered, gc_ok) if ok]
    return first + [comp for comp, ok in zip(ordered, gc_ok) if not ok], len(first)


def var_decompose(
    d: Ddsa, constraints: Sequence[Formula]
) -> Optional[tuple[tuple[VarId, ...], tuple[VarId, ...]]]:
    """Two-part split of the variables along `_var_parts`: the gap-order
    components form the first side; if that degenerates, the first
    component stands against the rest."""
    parts, n = _var_parts(d, constraints)
    if len(parts) < 2:
        return None
    if n in (0, len(parts)):
        n = 1
    side1 = {name for part in parts[:n] for name in part}
    v1 = tuple(v for v in d.variables if v.name in side1)
    v2 = tuple(v for v in d.variables if v.name not in side1)
    return v1, v2


def project_system(d: Ddsa, keep: Sequence[VarId]) -> Ddsa:
    """Projection onto a variable subset: each guard keeps the conjuncts
    over the kept variables (`_by_names`; true when nothing remains)."""
    keep_names = {v.name for v in keep}
    guards = {a: _by_names(d.guard(a), keep_names)[0] for a in d.actions}
    variables = tuple(v for v in d.variables if v.name in keep_names)
    alpha0 = None if d.alpha0 is None else {v: d.alpha0[v] for v in variables}
    return replace(d, variables=variables, alpha0=alpha0, guards=guards)


# ---------------------------------------------------------------------------
# Summary strategies


@dataclass
class _Leaf:
    """The one exact leaf: QE in the system's domain (`dd.update` picks it)
    and a rational equivalence check.  With the gap-order bound `K` set (an
    integer system), states are compared by their cutoffs at `K`."""

    d: Ddsa
    K: Optional[int] = field(default=None, kw_only=True)

    def describe(self) -> str:
        return "exact-fixpoint" if self.K is None else f"GC(K={self.K})"

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
    """Variable-disjoint composition: one exact leaf per part of the
    variables, solved apart.  A state is one formula; `_split` sends each of
    its top-level conjuncts to the part that holds its names (a
    variable-free one to part 0), and the answers are conjoined in part
    order."""

    parts: tuple[tuple[tuple[str, ...], _Leaf], ...]

    def __post_init__(self):
        self._part_of = {n: i for i, (names, _) in enumerate(self.parts) for n in names}
        self._split_cache: dict[Formula, list[Formula]] = {}
        self._canon_cache: dict[Formula, Formula] = {}

    def describe(self) -> str:
        inner = "; ".join(
            f"{{{','.join(names)}}}: {leaf.describe()}" for names, leaf in self.parts
        )
        return f"var-compose({inner})"

    def _split(self, state: Formula) -> list[Formula]:
        hit = self._split_cache.get(state)
        if hit is None:
            groups: list[list[Formula]] = [[] for _ in self.parts]
            for k in _fact(state).conjuncts:
                at = {self._part_of[n] for n in k.names} or {0}
                if len(at) > 1:
                    raise ValueError(f"a conjunct crosses the variable split: {k.formula}")
                groups[at.pop()].append(k.formula)
            hit = self._split_cache[state] = [conj(*g) for g in groups]
        return hit

    def image(self, state: Formula, action: str) -> Formula:
        parts = zip(self.parts, self._split(state))
        return conj(*(leaf.image(s, action) for (_, leaf), s in parts))

    def canon(self, state: Formula) -> Formula:
        hit = self._canon_cache.get(state)
        if hit is None:
            parts = zip(self.parts, self._split(state))
            hit = self._canon_cache[state] = conj(*(leaf.canon(s) for (_, leaf), s in parts))
        return hit

    def sat(self, state: Formula) -> bool:
        return all(leaf.sat(s) for (_, leaf), s in zip(self.parts, self._split(state)))


# The protocol the product uses: describe, image, sat and canon, on states
# that are formulas over the system's variables.
Strategy = _Leaf | VarStrategy


# ---------------------------------------------------------------------------
# Detection and certification


class NoSummaryFound(Exception):
    """No criterion applied; says nothing about the system itself."""


def _gap_order_bound(d: Ddsa, constraints: Sequence[Formula]) -> int:
    """`K` of an integer system.  Gap-order reasoning is an integer device,
    and a split cannot help outside it, since a non-gap-order atom lands in
    some part: such a system gets no summary."""
    gc_ok, K = check_gc(d, constraints)
    if not gc_ok:
        raise NoSummaryFound(
            "no finite-summary criterion applied; this says nothing about the "
            "system itself (the summary property is undecidable in general)"
        )
    return K


def detect(d: Ddsa, constraints: Sequence[Formula]) -> Strategy:
    """The strategy the product runs on: the structure that changes the
    work, and no certificate.  An integer system gets the gap-order leaf
    (NoSummaryFound outside the fragment).  A rational system gets one
    exact leaf per component of `_var_parts`, composed when there are
    several."""
    if d.domain == INT:
        return _Leaf(d, K=_gap_order_bound(d, constraints))
    parts, _ = _var_parts(d, constraints)
    if len(parts) < 2:
        return _Leaf(d)
    return VarStrategy(
        tuple(
            (tuple(part), _Leaf(project_system(d, [v for v in d.variables if v.name in part])))
            for part in parts
        )
    )


def certify(d: Ddsa, constraints: Sequence[Formula]) -> str:
    """The label of what certifies that the fixpoint is finite: `GC(K)`
    over the integers (NoSummaryFound outside the fragment); over the
    rationals MC, then feedback freedom, then a variable split, then a
    sequential split, each part certified in turn, and `exact-fixpoint`
    where nothing applies."""
    if d.domain == INT:
        return f"GC(K={_gap_order_bound(d, constraints)})"
    return _certify(d, list(constraints), {})


def _certify(d: Ddsa, constraints: list[Formula], memo: dict, depth: int = 0) -> str:
    """`memo` is the certification's feedback-freedom memo
    (`_feedback_free`), which every part of the split tree shares."""
    if check_mc(d, constraints):
        return "MC"
    try:
        if _feedback_free(d, constraints, FF_UNROLL, memo):
            return "feedback-free"
    except BudgetExceeded:
        pass
    composed = _decompose(d, constraints, memo, depth + 1) if depth < 8 else None
    return composed or "exact-fixpoint"


def _decompose(d: Ddsa, constraints: list[Formula], memo: dict, depth: int) -> Optional[str]:
    """The label of a variable split, else of a sequential split."""
    split = var_decompose(d, constraints)
    if split is not None:
        v1, v2 = split
        c1, c2 = _by_names(conj(*constraints), {v.name for v in v1})
        left = _certify(project_system(d, v1), [c1], memo, depth)
        right = _certify(project_system(d, v2), [c2], memo, depth)
        n1 = ",".join(v.name for v in v1)
        n2 = ",".join(v.name for v in v2)
        return f"var-compose({{{n1}}}: {left}; {{{n2}}}: {right})"
    parts = seq_decompose(d)
    if parts is not None:
        d1, d2, cut = parts
        if set(d1.states) != set(d.states) or d1.finals != d.finals:
            left = _certify(d1, constraints, memo, depth)
            right = _certify(d2, constraints, memo, depth)
            return f"seq-compose({left}, {right}; cut='{cut}')"
    return None
