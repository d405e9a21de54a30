"""Finite-summary detection and certification.

A summary strategy packages the update procedure and the equivalence
relation the product quotients by (the constraint graph is the product
with the automaton of `true`).  There is one leaf class, `_Leaf`, and it
keeps that quotient itself: `canon` maps each state to the class of the
first equivalent state it has seen, so the product finds a node by its
class with a dict lookup (hash-consing modulo equivalence).  Every leaf
is exact and compares its states with one rational equivalence check:
over the rationals, Fourier-Motzkin QE and logical equivalence; over the
integers, with the gap-order bound `K` set, the same QE on cubes
tightened to integer difference bounds (`solve.qe_gc`) and equivalence of
the cutoffs at K, which is exact on the gap-order fragment.

A leaf's state is a DNF in the solver's normal form (`solve.Dnf`), one per
part under a variable split, and everything a leaf does works on cubes.  A
class is written as a formula once, when it opens, for the product to print.

`detect` gives the strategy `verify` runs, and reads structure only: no
verdict reads a certificate.  An integer system gets the gap-order leaf,
and one outside that fragment gets no summary.  A rational system is split
once into the components of the conjunct co-occurrence graph
(`_var_parts`): one component gets one leaf, several get one n-ary
`VarStrategy` with a leaf per component, solved apart.  The split is the
one composition that changes the work.

`certify` gives the label of what shows the quotient finite, for
`damc summary`: `GC(K)` over the integers; over the rationals the
criteria (monotonicity constraints, feedback freedom), then a split into
the same components `detect` solves apart, one part each, and a
sequential split at a cut state, each part certified in turn, and
`exact-fixpoint` where nothing applies, whose fixpoint the node budget
bounds.  Every variable partition goes by whole top-level conjuncts
(`_by_names`): the split links two variables that share a conjunct of a
guard or constraint, and the projected guards, the parts' constraints and
a state's parts each take the conjuncts over their variables.

Both read a formula's conjuncts, names and atoms where they need them
and keep no memo: an atom's normal form comes from `norm_atom`, which
keeps its own.  Neither reads gap-order over the rationals.  The graphs'
inertia pairs come from the write sets, so no transition formula is
built.  A certification keeps no state: each part of the split tree
checks feedback freedom on each enumerated run's whole computation
graph.

A leaf's image under an action whose guard on it is true is the state
itself: every variable keeps its value.  On a projected leaf that is every
action that moves none of its variables.
"""
from __future__ import annotations

from functools import reduce
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
    free_vars,
    norm_atom,
)
from .solve import BudgetExceeded, Dnf, SatResult


# ---------------------------------------------------------------------------
# Syntactic criteria


def used_actions(transitions: Sequence[tuple[str, str, str]]) -> list[str]:
    """Actions of the transitions, in first-use order."""
    return list(dict.fromkeys([a for (_, a, _) in transitions]))


def _conjuncts(f: Formula) -> tuple[Formula, ...]:
    """The top-level conjuncts of `f`."""
    return f.args if isinstance(f, And) else (f,)


def _criterion(d: Ddsa, constraints: Sequence[Formula]) -> list[Formula]:
    """The top-level conjuncts of the used guards and of the constraints.
    The initial assignment's atoms compare one variable with a constant, so
    they are MC and gap-order and no criterion but `K` reads them."""
    formulas = [d.guard(a) for a in used_actions(d.transitions)] + list(constraints)
    return [k for f in formulas for k in _conjuncts(f)]


def _norm_atoms(fs: Sequence[Formula]) -> list[NormAtom]:
    """The normalised atoms of the formulas, in order."""
    return [norm_atom(a) for f in fs for a in atoms_of(f)]


def check_mc(d: Ddsa, constraints: Sequence[Formula]) -> bool:
    """Monotonicity criterion: rational domain and every atom of guards and
    constraints compares two variables/constants."""
    return d.domain == RAT and all(map(solve.is_mc, _norm_atoms(_criterion(d, constraints))))


def check_gc(d: Ddsa, constraints: Sequence[Formula]) -> tuple[bool, Optional[int]]:
    """Gap-order criterion plus the cutoff bound K, over the atoms of
    guards, the initial assignment and the verification constraints, read
    off their tightened rows (`solve.gap_order_bound`)."""
    atoms = _norm_atoms(_criterion(d, constraints)) + _norm_atoms(d.initial_constraints())
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


def _components(nodes, pairs) -> dict:
    """Each node's root in the graph with the given edges: a union-find
    with path halving that keeps the smaller root, so every root is the
    smallest node of its component, whatever the order of the edges.  It
    stops reading edges once one component holds every node."""
    parent = {n: n for n in nodes}
    left = len(parent)  # components

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs if left > 1 else ():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            left -= 1
            if left == 1:
                break
    return {n: find(n) for n in parent}


def _groups(names: list[str], pairs) -> list[list[str]]:
    """The components of the names the pairs link, each in name order,
    ordered by their first name: renaming a name moves no component."""
    roots = _components(names, pairs)
    comps: dict[str, list[str]] = {}
    for n in names:
        comps.setdefault(roots[n], []).append(n)
    return list(comps.values())


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
        written = {v.name for v in free_vars(g) if v.kind == WRITE}
        eq, gen = over([g])
        pairs[a] = (eq + [((n, 0), (n, 1)) for n in names if n not in written], gen)
    return pairs


def _graph(
    d: Ddsa, pairs: dict[Optional[str], Templates], actions: Sequence[str]
) -> ComputationGraph:
    """The run's graph over `d`'s variable names: each action's pairs
    placed at its step, and the constraints' at every instant."""
    g = ComputationGraph(len(actions), [v.name for v in d.variables])
    for k, a in (*enumerate(actions), *((k, None) for k in range(len(actions) + 1))):
        eq, gen = pairs[a]
        if eq:
            g.eq_edges.update([frozenset(((p, i + k), (q, j + k))) for (p, i), (q, j) in eq])
        if gen:
            g.gen_edges.update([frozenset(((p, i + k), (q, j + k))) for (p, i), (q, j) in gen])
    return g


def computation_graph(
    d: Ddsa, actions: Sequence[str], constraints: Sequence[Formula]
) -> ComputationGraph:
    """Dependency graph of a symbolic run, over-approximating verification
    constraints by inserting every constraint at every instant."""
    dd.symbolic_states(d, actions)
    return _graph(d, _pairs(d, constraints), actions)


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


def _by_names(f: Formula, names: set[str]) -> tuple[Formula, Formula]:
    """The conjunction of `f`'s top-level conjuncts whose variables all lie
    in `names` (a variable-free one too), and the conjunction of the rest:
    the one way a variable split divides a formula."""
    inside: list[Formula] = []
    outside: list[Formula] = []
    for k in _conjuncts(f):
        (inside if {v.name for v in free_vars(k)} <= names else outside).append(k)
    if not outside:
        return f, TRUE
    if not inside:
        return TRUE, f
    return conj(*inside), conj(*outside)


def _var_parts(d: Ddsa, constraints: Sequence[Formula]) -> list[list[str]]:
    """The components of the conjunct co-occurrence graph over `d`'s
    variable names, in `_groups` order: two variables are linked when they
    share a top-level conjunct of a used guard or of a constraint, so
    `_by_names` sends every such conjunct whole to one component."""
    names = [v.name for v in d.variables]
    linked = ({v.name for v in free_vars(k)} for k in _criterion(d, constraints))
    return _groups(names, ((next(iter(ns)), n) for ns in linked for n in ns))


def project_system(d: Ddsa, keep: Sequence[VarId]) -> Ddsa:
    """Projection onto a variable subset: each guard keeps the conjuncts
    over the kept variables (`_by_names`; true when nothing remains)."""
    keep_names = {v.name for v in keep}
    guards = {a: _by_names(d.guard(a), keep_names)[0] for a in d.actions}
    variables = tuple(v for v in d.variables if v.name in keep_names)
    alpha0 = None if d.alpha0 is None else {v: d.alpha0[v] for v in variables}
    return d.replace(variables=variables, alpha0=alpha0, guards=guards)


def _project(d: Ddsa, part: Sequence[str]) -> Ddsa:
    """`project_system` onto the variables named in `part`."""
    return project_system(d, [v for v in d.variables if v.name in part])


# ---------------------------------------------------------------------------
# Summary strategies


class _Class:
    """One class of a leaf's quotient: its representative state, the DNF
    the equivalence compares (over the integers the state's cutoff at K),
    the state's stored sat model with the truths under it of compared
    atoms, and, once the class opens, its formula (a node prints it)."""

    __slots__ = ("state", "compared", "model", "truths", "formula")

    def __init__(self, state: Dnf, compared: Dnf, model):
        self.state = state
        self.compared = compared
        self.model = model
        self.truths: dict = {}
        self.formula: Optional[Formula] = None


class _Leaf:
    """The one exact leaf: QE in the system's domain (`dd.update` picks it)
    and a rational equivalence check.  With the gap-order bound `K` set (an
    integer system), states are compared by their cutoffs at `K`.

    A state is a DNF in the solver's normal form over the system's domain,
    and a product node holds its `_Class`.  A label is the DNF of a
    constraint set.  Images, conjunction with a label, satisfiability, the
    canonisation memo and the equivalence check (`solve.equivalent`, cube
    entailment both ways) all work on cubes.  Over the integers it compares
    the cutoffs of the states' integer DNFs, never a formula's text.  A
    class's formula (`solve.dnf_to_formula`) is written when it opens."""

    def __init__(self, d: Ddsa, *, K: Optional[int] = None):
        self.d = d
        self.K = K
        # The memos live on the leaf: leaves differ in their system and K,
        # and live for one verify call.
        self._image_cache: dict[tuple[_Class, Formula], Dnf] = {}
        self._sat_cache: dict[Dnf, SatResult] = {}
        self._canon_cache: dict[Dnf, _Class] = {}
        self._classes: list[_Class] = []

    def describe(self) -> str:
        return "exact-fixpoint" if self.K is None else f"GC(K={self.K})"

    def label(self, formulas: Sequence[Formula]) -> Dnf:
        return tuple(solve.to_dnf(conj(*formulas), self.d.domain))

    def _moves(self, action: Optional[str]) -> bool:
        """Whether the action's image is not the state itself: no action
        (the dummy step) and one whose guard is true keep every variable's
        value (on a projected leaf, an action that moves none of its
        variables)."""
        return action is not None and not isinstance(self.d.guard(action), TrueF)

    def image(self, rep: _Class, action: Optional[str]) -> Dnf:
        if not self._moves(action):
            return rep.state
        # one image per (class, transition formula), shared by the NFA edges
        # that conjoin to it and by the actions with that formula
        key = (rep, dd.transition_formula(self.d, action))
        hit = self._image_cache.get(key)
        if hit is None:
            hit = self._image_cache[key] = dd.update(self.d, rep.state, action)
        return hit

    def meet(self, image: Dnf, label: Dnf) -> Dnf:
        """The image conjoined with the label: one `norm_cube` per pair of
        cubes, under the solver's cube budget (none for the true label)."""
        if label == ((),):
            return image
        return tuple(dict.fromkeys(solve.conj_cubes(image, label)))

    def sat(self, state: Dnf) -> bool:
        hit = self._sat_cache.get(state)
        if hit is None:
            hit = solve.is_sat(state, self.d.domain)
            if hit.model is not None:
                # a model of one cube leaves the other variables free
                zeros = dict.fromkeys(self.d.variables, 0)
                hit = SatResult(True, {**zeros, **hit.model})
            self._sat_cache[state] = hit
        return hit.sat

    def canon(self, state: Dnf) -> _Class:
        """The class of the first state canonised here that is equivalent to
        `state` (a new class, `state` its representative, if none is): one
        class per equivalence class, so that the product finds a node by
        lookup instead of by scan."""
        hit = self._canon_cache.get(state)
        if hit is None:
            hit = self._canon_cache[state] = self._classify(state)
        return hit

    def _classify(self, state: Dnf) -> _Class:
        new = self._class(state)
        for c in self._classes:
            if self.equiv(c, new):
                return c
        new.formula = solve.dnf_to_formula(state)
        self._classes.append(new)
        return new

    def _class(self, state: Dnf) -> _Class:
        """A class of the state, with the state's stored sat model, if it
        has one; it gets its formula only if it opens."""
        compared = state if self.K is None else solve.cutoff(state, self.K)
        res = self._sat_cache.get(state)
        return _Class(state, compared, None if res is None else res.model)

    def equiv(self, c1: _Class, c2: _Class) -> bool:
        return not self._refuted(c1, c2) and solve.equivalent(c1.compared, c2.compared)

    def _refuted(self, c1: _Class, c2: _Class) -> bool:
        """Whether a stored model of one side satisfies its compared DNF and
        falsifies the other's.  That model is a witness of exactly what the
        solver checks first, so a refutation is the solver's answer."""
        for a, b in ((c1, c2), (c2, c1)):
            if a.model is None:
                continue
            try:
                if self._holds(a, a) and not self._holds(b, a):
                    return True
            except MissingVariable:
                pass  # a state beyond the model: ask the solver
        return False

    def _holds(self, c: _Class, under: _Class) -> bool:
        """The truth of `c`'s compared DNF under `under`'s model, read off
        the cubes, each atom's truth under a class's model computed once and
        kept on that class (`truths`)."""
        model, truths = under.model, under.truths
        for cube in c.compared:
            for na in cube:
                t = truths.get(na)
                if t is None:
                    t = truths[na] = na.holds(model)
                if not t:
                    break
            else:
                return True
        return False

    def formula(self, rep: _Class) -> Formula:
        return rep.formula

    def cubes(self, rep: _Class) -> Dnf:
        return rep.state


class VarStrategy:
    """Variable-disjoint composition: one exact leaf per part of the
    variables, solved apart.  A state is one leaf state per part, in part
    order, and a node holds one class per part; its formula is the
    conjunction of theirs.  A label sends each top-level conjunct of its
    formulas to the part that holds its names (a variable-free one to part
    0); the product asks for one label per NFA symbol."""

    def __init__(self, parts: tuple[tuple[tuple[str, ...], _Leaf], ...]):
        self.parts = parts
        self._leaves = tuple(leaf for _, leaf in parts)
        self._part_of = {n: i for i, (names, _) in enumerate(self.parts) for n in names}

    def describe(self) -> str:
        inner = "; ".join(
            f"{{{','.join(names)}}}: {leaf.describe()}" for names, leaf in self.parts
        )
        return f"var-compose({inner})"

    def _split(self, formulas: Sequence[Formula]) -> list[list[Formula]]:
        """The formulas' top-level conjuncts, grouped by part in order."""
        groups: list[list[Formula]] = [[] for _ in self.parts]
        for f in formulas:
            for k in _conjuncts(f):
                parts = {self._part_of[v.name] for v in free_vars(k)} or {0}
                if len(parts) > 1:
                    raise ValueError(f"a conjunct crosses the variable split: {k}")
                groups[parts.pop()].append(k)
        return groups

    def label(self, formulas: Sequence[Formula]) -> tuple[Dnf, ...]:
        return tuple(leaf.label(g) for leaf, g in zip(self._leaves, self._split(formulas)))

    def image(self, rep: tuple[_Class, ...], action: Optional[str]) -> tuple[Dnf, ...]:
        return tuple(leaf.image(c, action) for leaf, c in zip(self._leaves, rep))

    def meet(self, image: tuple[Dnf, ...], label: tuple[Dnf, ...]) -> tuple[Dnf, ...]:
        return tuple(leaf.meet(s, l) for leaf, s, l in zip(self._leaves, image, label))

    def sat(self, state: tuple[Dnf, ...]) -> bool:
        # a part with no cube is false, whatever the others are
        return all(state) and all(leaf.sat(s) for leaf, s in zip(self._leaves, state))

    def canon(self, state: tuple[Dnf, ...]) -> tuple[_Class, ...]:
        return tuple(leaf.canon(s) for leaf, s in zip(self._leaves, state))

    def formula(self, rep: tuple[_Class, ...]) -> Formula:
        return conj(*(c.formula for c in rep))

    def cubes(self, rep: tuple[_Class, ...]) -> Dnf:
        """The parts' cubes joined in part order (`solve.conj_cubes`)."""
        return tuple(reduce(solve.conj_cubes, (c.state for c in rep), ((),)))


# The protocol the product uses: describe, label, image, meet, sat, canon,
# formula and cubes.  A product node holds a strategy's class (`_Class`, or
# one per part), and a candidate state and a label are each a DNF (one per
# part); the initial node's class is `canon` of the initial constraints'
# label.  A node prints the class's `formula`, and witness extraction over
# the rationals solves on its `cubes`.
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
    parts = _var_parts(d, constraints)
    if len(parts) < 2:
        return _Leaf(d)
    return VarStrategy(tuple((tuple(part), _Leaf(_project(d, part))) for part in parts))


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
    """The label of a split on the components `detect` solves apart
    (`_var_parts`), one part each, else of a sequential split.  Each part
    keeps the constraints' conjuncts over its names, a variable-free one
    too: it is MC and has no graph pairs, so it changes no part's label."""
    parts = _var_parts(d, constraints)
    if len(parts) > 1:
        c = conj(*constraints)
        labels = (
            f"{{{','.join(part)}}}: "
            + _certify(_project(d, part), [_by_names(c, set(part))[0]], depth)
            for part in parts
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
