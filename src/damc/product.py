"""Cross product of the system abstraction with the property automaton,
and constructive witness extraction.  The construction is the emptiness
search; the NFA's adjacency order sets its order, and so the witness."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import ddsa as dd
from . import ltlf as lt
from . import solve
from . import summary as sm
from .ddsa import Config, Ddsa, Run
from .formula import Exact, Formula, Term, VarId, conj, substitute
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
    return replace(
        d,
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


@dataclass
class PNode:
    state: str
    q: int  # NFA state index
    formula: Formula  # the strategy's representative of the node's class


@dataclass
class PEdge:
    src: int
    action: str
    symbol: SigmaSymbol
    dst: int


@dataclass
class ProductAutomaton:
    nfa: Nfa
    nodes: list[PNode]
    edges: list[PEdge]
    initial: int
    finals: set[int]
    parents: list[Optional[PEdge]]  # the edge that discovered each node


def build_product(
    d: Ddsa,
    nfa: Nfa,
    strategy: sm.Strategy,
    max_nodes: int = 10_000,
) -> ProductAutomaton:
    """Forward fixpoint over triples (control state, NFA state, formula),
    where the formula is the strategy's representative of its class.

    It is the emptiness search: a BFS whose node indices are discovery
    order, a node's edges going out by action in declaration order, then in
    the NFA's `outgoing` order; `parents` holds the BFS tree.

    An edge needs a satisfiable update image conjoined with the NFA
    symbol's constraints, and the symbol must be consistent with the
    transition taken.  The constraints are over the post-state, so they
    commute with the image's existential: each (node, action) asks the
    strategy for its image once, on its first consistent NFA edge, and
    every edge conjoins to that image.  A leaf computes one image per
    (formula, transition formula), so the actions that a projected leaf
    sees with the same transition formula share it, and none for an action
    whose guard on it is true: that image is the state itself.  Nodes at the
    word-end NFA state are only created when final (they have no
    successors, so non-final ones are dead).

    A budget stop (the node budget or a solver's) raises
    `ProductBudgetExceeded` with the product built so far.
    """
    if d.dummy is None:
        raise ValueError("build_product needs the dummy-extended system")
    qe_idx = next(i for i, s in enumerate(nfa.states) if s == lt.QE_STATE)
    dummy_action = d.dummy[1]
    init = strategy.canon(conj(*d.initial_constraints()))
    p = ProductAutomaton(nfa, [PNode(d.initial, nfa.initial, init)], [], 0, set(), [None])
    nodes, edges, finals, parents = p.nodes, p.edges, p.finals, p.parents
    index = {(d.initial, nfa.initial, init): 0}
    queue = deque([0])
    try:
        while queue:
            i = queue.popleft()
            node = nodes[i]
            for (a, dst) in d.outgoing(node.state):
                image = None
                for ne in nfa.outgoing(node.q):
                    if not lt.symbol_consistent_with_step(ne.symbol, a, dst):
                        continue
                    if ne.dst == qe_idx and dst not in d.finals:
                        continue
                    if image is None:
                        image = node.formula if a == dummy_action else strategy.image(node.formula, a)
                    ns = conj(image, *lt.constr_of(ne.symbol))
                    if not strategy.sat(ns):
                        continue
                    rep = strategy.canon(ns)
                    j = index.get((dst, ne.dst, rep), len(nodes))
                    edge = PEdge(i, a, ne.symbol, j)
                    if j == len(nodes):
                        if j >= max_nodes:
                            raise ProductBudgetExceeded(
                                f"product exceeded {max_nodes} nodes: "
                                "the node budget (--max-nodes) was reached",
                                p,
                            )
                        index[(dst, ne.dst, rep)] = j
                        nodes.append(PNode(dst, ne.dst, rep))
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


@dataclass
class ConstraintGraph:
    nodes: list[PNode]
    edges: list[tuple[int, str, int]]
    initial: int = 0


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
    unsatisfiable.

    Solves the exact history constraint for the final assignment and walks
    backwards, constructing each intermediate assignment from the prefix
    history constraint plus the grounded transition formula.
    """
    states = dd.symbolic_states(d, actions)
    hist = dd.history_prefixes(d, actions, cseq)
    res = solve.is_sat(hist[-1], d.domain)
    if not res.sat:
        return None
    assigns: list[dict[VarId, Exact]] = [None] * len(hist)  # type: ignore[list-item]
    assigns[-1] = {v: res.model.get(v, 0) for v in d.variables}
    for k in range(len(actions) - 1, -1, -1):
        delta = dd.transition_formula(d, actions[k])
        ground = substitute(
            delta,
            {
                **{v.read(): Term.of(v) for v in d.variables},
                **{v.write(): Term.of(assigns[k + 1][v]) for v in d.variables},
            },
        )
        step = solve.is_sat(conj(hist[k], ground), d.domain)
        if not step.sat:
            raise InternalInconsistency(
                f"backward solving failed at step {k}: abstraction is unsound"
            )
        assigns[k] = {v: step.model.get(v, 0) for v in d.variables}
    configs = [Config.make(s, al) for s, al in zip(states, assigns)]
    return Run(tuple(configs), tuple(actions))


def extract_witness(d: Ddsa, path: Sequence[PEdge]) -> tuple[Run, list[SigmaSymbol]]:
    """Concrete run of the system `d` from an accepting path of its
    dummy-extended product, by re-solving exact history constraints rather
    than trusting the path's representatives.

    The dummy first step contributes the position-0 constraint set; the
    returned run starts at the real initial state.
    """
    if not path:
        raise ValueError("path must start with the dummy step")
    word: list[SigmaSymbol] = [e.symbol for e in path]
    actions = [e.action for e in path[1:]]
    cseq = [lt.constr_of(s) for s in word]
    run = realize_run(d, actions, cseq)
    if run is None:
        raise InternalInconsistency(
            "accepting path has unsatisfiable history constraint"
        )
    return run, word


# ---------------------------------------------------------------------------
# Verdicts and orchestration


@dataclass
class Stats:
    # every field but `strategy` is a key of the `sizes` object in
    # `verify --json` (cli._verdict_json), in this order
    strategy: str = ""
    nfa_states: int = 0
    nfa_edges: int = 0
    product_nodes: int = 0
    product_edges: int = 0
    product_finals: int = 0


@dataclass
class Verdict:
    kind: str  # "witness" | "no-witness" | "inconclusive"
    stats: Stats
    run: Optional[Run] = None
    word: Optional[list[SigmaSymbol]] = None
    reason: Optional[str] = None
    product: Optional[ProductAutomaton] = None
    nfa: Optional[Nfa] = None
    strategy: Optional[sm.Strategy] = None


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
        run, word = extract_witness(d, path)
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
