"""Cross product of the system abstraction with the property automaton,
and constructive witness extraction.  The construction is the emptiness
search; the NFA's adjacency order sets its order, and so the witness.

A product node holds the strategy's class of its data state, whose state
stays in the solver's normal form (a DNF per leaf); the node prints the
class's cubes as a formula.  A witness is solved backwards on DNFs: over
the rationals on its BFS-tree path's class cubes, so extraction images
nothing; over the integers on the path's exact history constraints."""
from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from . import ddsa as dd
from . import ltlf as lt
from . import solve
from . import summary as sm
from .ddsa import Config, Ddsa, Run
from .formula import INT, Exact, Formula, Value, VarId, _set, conj
from .ltlf import Ltlf, Nfa, SigmaSymbol
from .solve import BudgetExceeded


class ProductBudgetExceeded(BudgetExceeded):
    """A budget (the node budget or a solver's) stopped the product;
    `product` is what was built by then: the first nodes of the whole
    product, in its BFS order, with their edges, finals and BFS tree."""

    def __init__(self, message: str, product: ProductAutomaton):
        super().__init__(message)
        self.product = product


class InternalInconsistency(Exception):
    """A backward solving step failed; the summary abstraction is unsound.

    This must abort loudly rather than be retried: it indicates a bug in
    the equivalence relation, never a property of the model."""


def extend_with_dummy(d: Ddsa) -> Ddsa:
    """Prefix a dummy initial state reached by a fresh always-enabled action."""
    if d.dummy is not None:
        raise ValueError("system already carries a dummy initial state")
    b0 = _fresh_name("_init", d.states)
    a0 = _fresh_name("_start", d.actions)
    return d.replace(
        states=(b0,) + d.states,
        initial=b0,
        actions=(a0,) + d.actions,
        transitions=((b0, a0, d.initial),) + d.transitions,
        guards={**d.guards, a0: conj()},  # the dummy action's guard is true
        dummy=(b0, a0),
    )


def _fresh_name(base: str, taken: Sequence[str]) -> str:
    name = base
    i = 0
    while name in taken:
        i += 1
        name = f"{base}{i}"
    return name


class PNode(Value):
    __slots__ = ("state", "q", "formula")

    def __init__(self, state: str, q: int, formula: Formula):
        _set(self, "state", state)
        _set(self, "q", q)  # NFA state index
        _set(self, "formula", formula)  # the formula of the node's class
        _set(self, "_hash", None)


class PEdge(Value):
    __slots__ = ("src", "action", "symbol", "dst")

    def __init__(self, src: int, action: str, symbol: SigmaSymbol, dst: int):
        _set(self, "src", src)
        _set(self, "action", action)
        _set(self, "symbol", symbol)
        _set(self, "dst", dst)
        _set(self, "_hash", None)


class ProductAutomaton:
    def __init__(
        self,
        nfa: Nfa,
        nodes: list[PNode],
        edges: list[PEdge],
        initial: int,
        finals: set[int],
        parents: list[Optional[PEdge]],  # the edge that discovered each node
        classes: list,  # each node's class of the strategy
        strategy: sm.Strategy,
    ):
        self.nfa = nfa
        self.nodes = nodes
        self.edges = edges
        self.initial = initial
        self.finals = finals
        self.parents = parents
        self.classes = classes
        self.strategy = strategy


def build_product(
    d: Ddsa,
    nfa: Nfa,
    strategy: sm.Strategy,
    max_nodes: int = 10_000,
) -> ProductAutomaton:
    """Forward fixpoint over triples (control state, NFA state, class),
    where the class is the strategy's, and the node prints its formula: the
    cubes of the class's representative, its first state.

    It is the emptiness search: a BFS whose node indices are discovery
    order, a node's edges going out by action in declaration order, then in
    the NFA's `outgoing` order; `parents` holds the BFS tree.

    Every state stays in the solver's normal form, a DNF per leaf.  An edge
    needs a satisfiable update image conjoined with the NFA symbol's
    constraints (one `norm_cube` per pair of cubes), and the symbol must be
    consistent with the transition taken.  The constraints are over the
    post-state, so they commute with the image's existential: each (node,
    action) asks the strategy for its image once, on its first consistent
    NFA edge, and every edge conjoins to that image.  A symbol's
    constraints are put in normal form, and split by part, once, and the
    initial node's class is the one `canon` gives the initial constraints'
    label.  A leaf computes one image per (class, transition formula), so
    the actions that a projected leaf sees with the same transition formula
    share it, and none for an action whose guard on it is true: that image
    is the state itself.  Nodes at the word-end NFA state are only created when final
    (they have no successors, so non-final ones are dead).

    A budget stop (the node budget or a solver's) raises
    `ProductBudgetExceeded` with the product built so far.
    """
    if d.dummy is None:
        raise ValueError("build_product needs the dummy-extended system")
    qe_idx = next(i for i, s in enumerate(nfa.states) if s == lt.QE_STATE)
    dummy_action = d.dummy[1]
    init = strategy.canon(strategy.label(d.initial_constraints()))
    root = PNode(d.initial, nfa.initial, strategy.formula(init))
    p = ProductAutomaton(nfa, [root], [], 0, set(), [None], [init], strategy)
    nodes, edges, finals, parents, classes = p.nodes, p.edges, p.finals, p.parents, p.classes
    index = {(d.initial, nfa.initial, init): 0}
    labels: dict[SigmaSymbol, object] = {}
    queue = deque([0])
    try:
        while queue:
            i = queue.popleft()
            node, rep = nodes[i], classes[i]
            for (a, dst) in d.outgoing(node.state):
                step = None if a == dummy_action else a  # the dummy step moves nothing
                image = None
                for ne in nfa.outgoing(node.q):
                    if not lt.symbol_consistent_with_step(ne.symbol, a, dst):
                        continue
                    if ne.dst == qe_idx and dst not in d.finals:
                        continue
                    if image is None:
                        image = strategy.image(rep, step)
                    label = labels.get(ne.symbol)
                    if label is None:
                        label = labels[ne.symbol] = strategy.label(lt.constr_of(ne.symbol))
                    ns = strategy.meet(image, label)
                    if not strategy.sat(ns):
                        continue
                    cls = strategy.canon(ns)
                    j = index.get((dst, ne.dst, cls), len(nodes))
                    edge = PEdge(i, a, ne.symbol, j)
                    if j == len(nodes):
                        if j >= max_nodes:
                            raise ProductBudgetExceeded(
                                f"product exceeded {max_nodes} nodes: "
                                "the node budget (--max-nodes) was reached",
                                p,
                            )
                        index[(dst, ne.dst, cls)] = j
                        nodes.append(PNode(dst, ne.dst, strategy.formula(cls)))
                        classes.append(cls)
                        parents.append(edge)
                        if ne.dst != qe_idx:
                            queue.append(j)
                        if dst in d.finals and ne.dst in nfa.finals:
                            finals.add(j)
                    edges.append(edge)
    except ProductBudgetExceeded:
        raise
    except BudgetExceeded as e:  # a solver budget: keep its message, add the product
        raise ProductBudgetExceeded(str(e), p) from e
    return p


def find_accepting_path(p: ProductAutomaton) -> Optional[list[PEdge]]:
    """Shortest path to a final node: the BFS tree's path to the first
    final node the construction discovered, or None if there is none."""
    if not p.finals:
        return None
    path = []
    e = p.parents[min(p.finals)]
    while e is not None:
        path.append(e)
        e = p.parents[e.src]
    return path[::-1]


# ---------------------------------------------------------------------------
# Constraint graph


class ConstraintGraph:
    def __init__(self, nodes: list[PNode], edges: list[tuple[int, str, int]], initial: int = 0):
        self.nodes = nodes
        self.edges = edges
        self.initial = initial


def constraint_graph(
    d: Ddsa, strategy: sm.Strategy, max_nodes: int = 10_000
) -> ConstraintGraph:
    """Fixpoint exploration from the initial constraint, quotiented by the
    strategy: the product with the automaton of `true`, whose one state
    reads every symbol, without the dummy node."""
    try:
        p = build_product(
            extend_with_dummy(d), lt.build_nfa(lt.TOP, d.domain), strategy, max_nodes + 1
        )
    except ProductBudgetExceeded as e:
        if e.__cause__ is not None:  # a solver budget, whose message stands
            raise
        raise BudgetExceeded(
            f"constraint graph exceeded {max_nodes} nodes: "
            "the node budget (--max-nodes) was reached"
        ) from None
    edges = [(e.src - 1, e.action, e.dst - 1) for e in p.edges if e.src != p.initial]
    return ConstraintGraph(p.nodes[1:], edges)


# ---------------------------------------------------------------------------
# Witness extraction


def realize_run(
    d: Ddsa, actions: Sequence[str], cseq: Sequence[Sequence[Formula]]
) -> Optional[Run]:
    """Concrete run abstracted by a symbolic run whose positions satisfy the
    given constraint sets, or None when the history constraint is
    unsatisfiable: `_solve_backwards` on the DNFs of the exact history
    constraints of its prefixes (`ddsa.history_prefixes`)."""
    return _solve_backwards(d, actions, dd.history_prefixes(d, actions, cseq))


def _solve_backwards(
    d: Ddsa, actions: Sequence[str], prefixes: Sequence[solve.Dnf]
) -> Optional[Run]:
    """Concrete run of the symbolic run `actions` whose assignment at each
    position k satisfies the DNF `prefixes[k]`, or None when the last is
    unsatisfiable.  Each prefix must be equivalent to the history
    constraint of the run's first k steps (with whatever constraints its
    positions carry).

    Solves the last prefix for the final assignment and walks backwards:
    each assignment is a model of its prefix met with the transition cubes
    grounded on the next one (`ddsa.grounded_transition`).  A prefix
    equivalent to its history constraint has such a model, so a failed
    step means the prefixes are not: it raises InternalInconsistency.
    """
    states = dd.symbolic_states(d, actions)
    res = solve.is_sat(prefixes[-1], d.domain)
    if not res.sat:
        return None
    assigns: list[dict[VarId, Exact]] = [None] * len(prefixes)  # type: ignore[list-item]
    assigns[-1] = {v: res.model.get(v, 0) for v in d.variables}
    for k in range(len(actions) - 1, -1, -1):
        ground = dd.grounded_transition(d, actions[k], assigns[k + 1])
        step = solve.is_sat(tuple(solve.conj_cubes(prefixes[k], ground)), d.domain)
        if not step.sat:
            raise InternalInconsistency(
                f"backward solving failed at step {k}: abstraction is unsound"
            )
        assigns[k] = {v: step.model.get(v, 0) for v in d.variables}
    configs = [Config.make(s, al) for s, al in zip(states, assigns)]
    return Run(tuple(configs), tuple(actions))


def extract_witness(
    d: Ddsa, p: ProductAutomaton, path: Sequence[PEdge]
) -> tuple[Run, list[SigmaSymbol]]:
    """Concrete run of the system `d` from an accepting path of its
    dummy-extended product `p`, solved backwards (`_solve_backwards`).

    Over the rationals the prefixes are the cubes of the path's classes
    (the strategy's `cubes`), which lie on the product's BFS tree: each is
    equivalent to its path's history constraint, since `canon` merges only
    equivalent states, the image is exact, and a split node is the
    conjunction of its parts.  So no image is computed again.  Over the
    integers a node is only cutoff-equivalent to its prefix, so the
    prefixes are the exact history constraints.  `_assert_witness`
    revalidates the run either way.

    The dummy first step contributes the position-0 constraint set; the
    returned run starts at the real initial state.
    """
    if not path:
        raise ValueError("path must start with the dummy step")
    word: list[SigmaSymbol] = [e.symbol for e in path]
    actions = [e.action for e in path[1:]]
    if d.domain == INT:
        run = realize_run(d, actions, [lt.constr_of(s) for s in word])
    else:
        run = _solve_backwards(d, actions, [p.strategy.cubes(p.classes[e.dst]) for e in path])
    if run is None:
        raise InternalInconsistency(
            "accepting path has unsatisfiable history constraint"
        )
    return run, word


# ---------------------------------------------------------------------------
# Verdicts and orchestration


class Stats:
    def __init__(self):
        self.strategy = ""
        # the `sizes` object of `verify --json`, in this order
        self.nfa_states = 0
        self.nfa_edges = 0
        self.product_nodes = 0
        self.product_edges = 0
        self.product_finals = 0

    def sizes(self) -> dict[str, int]:
        return {k: v for k, v in vars(self).items() if k != "strategy"}


class Verdict:
    def __init__(
        self,
        kind: str,  # "witness" | "no-witness" | "inconclusive"
        stats: Stats,
        run: Optional[Run] = None,
        word: Optional[list[SigmaSymbol]] = None,
        reason: Optional[str] = None,
        product: Optional[ProductAutomaton] = None,
        nfa: Optional[Nfa] = None,
        strategy: Optional[sm.Strategy] = None,
    ):
        self.kind = kind
        self.stats = stats
        self.run = run
        self.word = word
        self.reason = reason
        self.product = product
        self.nfa = nfa
        self.strategy = strategy


def verify(d: Ddsa, psi: Ltlf, max_nodes: int = 10_000) -> Verdict:
    """End-to-end check for a witness run: preprocess the property, detect a
    finite summary, build the product (which finds the accepting path), and
    extract plus revalidate a concrete run.

    Failures to detect a summary, to stay within budget or to search the
    integers exactly, in any phase up to witness extraction, yield an
    inconclusive verdict, never an unsound answer.  A budget stop that has
    built a final node still gives its witness: the nodes built are the
    whole product's first ones, so the path is the one it would give.
    """
    pre = lt.preprocess(psi)
    constraints = lt.constraints_of(pre)
    stats = Stats()
    try:
        strategy = sm.detect(d, constraints)
        stats.strategy = strategy.describe()
        nfa = lt.build_nfa(pre, d.domain)
        stats.nfa_states = len(nfa.states)
        stats.nfa_edges = len(nfa.edges)
        try:
            prod, stop = build_product(extend_with_dummy(d), nfa, strategy, max_nodes), None
        except ProductBudgetExceeded as e:
            prod, stop = e.product, e
        stats.product_nodes = len(prod.nodes)
        stats.product_edges = len(prod.edges)
        stats.product_finals = len(prod.finals)
        keep = dict(product=prod, nfa=nfa, strategy=strategy)
        path = find_accepting_path(prod)
        if path is None:
            if stop is not None:
                raise stop
            # exact: every leaf's relation is (logical equivalence over Q,
            # cutoff equivalence at K on the integer gap-order fragment), so
            # merged states have the same continuations, and a saturated
            # product with no accepting path leaves no witness run
            return Verdict("no-witness", stats, **keep)
        run, word = extract_witness(d, prod, path)
    except (sm.NoSummaryFound, BudgetExceeded, solve.UnsupportedInteger) as e:
        return Verdict("inconclusive", stats, reason=str(e))
    _assert_witness(d, run, word, pre)
    return Verdict("witness", stats, run=run, word=word, **keep)


def _assert_witness(d: Ddsa, run: Run, word: Sequence[SigmaSymbol], pre: Ltlf) -> None:
    """Every extracted witness is revalidated; failures abort loudly."""
    if not dd.validate_run(d, run):
        raise InternalInconsistency("extracted run violates step semantics")
    if run.configs[-1].state not in d.finals:
        raise InternalInconsistency("extracted run does not end in a final state")
    if not lt.run_models(d, run, 0, pre):
        raise InternalInconsistency("extracted run does not satisfy the property")
    if not lt.word_consistent(d, list(word), run):
        raise InternalInconsistency("extracted word is inconsistent with the run")
