"""Cross product of the system abstraction with the property automaton,
and constructive witness extraction.  The construction is the emptiness
search; the NFA's adjacency order sets its order, and so the witness.

A product node holds the strategy's class of its data state, one leaf
class per part, whose states stay in the solver's normal form; the node
prints the parts' formulas conjoined, written the first time it is read.
A witness is solved backwards on DNFs: over the rationals each part on its
own system and its BFS-tree path's class states, so extraction images
nothing; over the integers on the path's exact history constraints.
`verify` returns one `Verdict` record of what it built: the strategy's
label, the NFA's and product's sizes, and, unless it is inconclusive, the
product, which holds the NFA and the strategy."""

from collections import deque
from typing import NamedTuple, Optional, Sequence

from . import ddsa as dd
from . import ltlf as lt
from . import solve
from . import summary as sm
from .ddsa import Config, Ddsa, Run
from .formula import INT, Exact, Formula, VarId, conj
from .ltlf import Ltlf, Nfa, SigmaSymbol
from .solve import BudgetExceeded


class ProductBudgetExceeded(BudgetExceeded):
    """A budget (the node budget or a solver's) stopped the product;
    `product` is what was built by then: the first nodes of the whole
    product, in its BFS order, with their edges, finals and BFS tree."""

    def __init__(self, message: str, product: "ProductAutomaton"):
        super().__init__(message)
        self.product = product


class InternalInconsistency(Exception):
    """A backward solving step failed; the summary abstraction is unsound.

    This must abort loudly rather than be retried: it indicates a bug in
    the equivalence relation, never a property of the model."""


def _fresh_name(base: str, taken: Sequence[str]) -> str:
    """`base`, or the first of `base1`, `base2`, ... that `taken` lacks."""
    name = base
    i = 0
    while name in taken:
        i += 1
        name = f"{base}{i}"
    return name


class PNode(NamedTuple):
    state: str
    q: int  # NFA state index
    cls: tuple  # the strategy's class: one leaf class per part

    @property
    def formula(self) -> Formula:
        """The parts' formulas of the class, conjoined in part order."""
        return conj(*(c.formula for c in self.cls))


class PEdge(NamedTuple):
    src: int
    action: str
    symbol: SigmaSymbol
    dst: int


class ProductAutomaton(NamedTuple):
    nfa: Nfa
    nodes: list[PNode]
    edges: list[PEdge]
    initial: int
    finals: set[int]
    parents: list[Optional[PEdge]]  # the edge that discovered each node
    strategy: sm.Strategy


def build_product(
    d: Ddsa,
    nfa: Nfa,
    strategy: sm.Strategy,
    max_nodes: int = 10_000,
) -> ProductAutomaton:
    """Forward fixpoint over triples (control state, NFA state, class),
    where the class is the strategy's, and the node prints its formula: the
    cubes of the class's representative, its first state, written only
    when the node is printed.

    The product adds its own root, node 0, so that position 0 reads a
    symbol too: a control outside `d`'s (`_init`, or the first of `_init1`,
    `_init2`, ... that `d` lacks) at the initial class, whose one move is a
    fresh action (`_start` likewise) into `d.initial` that moves nothing.
    Every other node moves by `d.outgoing`.

    It is the emptiness search: a BFS whose node indices are discovery
    order, a node's edges going out by action in declaration order, then in
    the NFA's `outgoing` order; `parents` holds the BFS tree.

    Every state stays in the solver's normal form, a DNF per part.  An
    edge needs a satisfiable update image conjoined with the NFA symbol's
    constraints in every part, and the symbol must be consistent with the
    transition taken.  An edge whose label has a part with no cube (its
    constraints normalize to false) is skipped; each other NFA edge asks
    the strategy for one `successor`, which also refutes a symbol whose
    constraints cannot hold together.
    The constraints are over the post-state, so they commute with the
    image's existential, and the leaf shares one image per (class, guard)
    among the edges that conjoin to it, none for a guard that is true on
    it: that image is the state itself.  A symbol's constraints are put in
    normal form, and split by part, once.
    Nodes at the word-end NFA state are only created when final (they have
    no successors, so non-final ones are dead).

    A budget stop (the node budget or a solver's) raises
    `ProductBudgetExceeded` with the product built so far.
    """
    qe_idx = next(i for i, s in enumerate(nfa.states) if s == lt.QE_STATE)
    root = PNode(_fresh_name("_init", d.states), nfa.initial, strategy.initial())
    start = ((_fresh_name("_start", d.actions), d.initial),)
    p = ProductAutomaton(nfa, [root], [], 0, set(), [None], strategy)
    nodes, edges, finals, parents = p.nodes, p.edges, p.finals, p.parents
    index = {root: 0}
    labels: dict[SigmaSymbol, tuple] = {}
    queue = deque([0])
    try:
        while queue:
            i = queue.popleft()
            node = nodes[i]
            for (a, dst) in d.outgoing(node.state) if i else start:
                step = a if i else None  # the root's move moves nothing
                for ne in nfa.outgoing(node.q):
                    if not lt.symbol_consistent_with_step(ne.symbol, a, dst):
                        continue
                    if ne.dst == qe_idx and dst not in d.finals:
                        continue
                    label = labels.get(ne.symbol)
                    if label is None:
                        label = labels[ne.symbol] = strategy.label(lt.constr_of(ne.symbol))
                    if not all(label):  # a part's constraints cannot hold
                        continue
                    cls = strategy.successor(node.cls, step, label)
                    if cls is None:
                        continue
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
                        nodes.append(PNode(dst, ne.dst, cls))
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


class ConstraintGraph(NamedTuple):
    nodes: list[PNode]
    edges: list[tuple[int, str, int]]
    initial: int = 0


def constraint_graph(
    d: Ddsa, strategy: sm.Strategy, max_nodes: int = 10_000
) -> ConstraintGraph:
    """Fixpoint exploration from the initial constraint, quotiented by the
    strategy: the product with the automaton of `true`, whose one state
    reads every symbol, without the product's root."""
    try:
        p = build_product(d, lt.build_nfa(lt.TOP), strategy, max_nodes + 1)
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
    assigns = _solve_backwards(d, actions, dd.history_prefixes(d, actions, cseq))
    return None if assigns is None else _run(d, actions, [assigns])


def _solve_backwards(
    d: Ddsa, actions: Sequence[str], prefixes: Sequence[solve.Dnf]
) -> Optional[list[dict[VarId, Exact]]]:
    """The assignments, one per position, of a concrete run of the symbolic
    run `actions` whose assignment at each position k satisfies the DNF
    `prefixes[k]`, or None when the last is unsatisfiable.  Each prefix
    must be equivalent to the history constraint of the run's first k steps
    (with whatever constraints its positions carry).

    Solves the last prefix for the final assignment and walks backwards:
    each assignment is a model of its prefix met with the transition cubes
    grounded on the next one (`ddsa.grounded_transition`).  A prefix
    equivalent to its history constraint has such a model, so a failed
    step means the prefixes are not: it raises InternalInconsistency.  A
    step that writes none of `d`'s variables keeps each value, so it takes
    the next assignment unsolved (revalidation checks its guard).
    """
    res = solve.is_sat(prefixes[-1], d.domain)
    if not res.sat:
        return None
    assigns: list[dict[VarId, Exact]] = [None] * len(prefixes)  # type: ignore[list-item]
    assigns[-1] = {v: res.model.get(v, 0) for v in d.variables}
    for k in range(len(actions) - 1, -1, -1):
        if not d.write_set(actions[k]):
            assigns[k] = assigns[k + 1]
            continue
        ground = dd.grounded_transition(d, actions[k], assigns[k + 1])
        step = solve.is_sat(tuple(solve.conj_cubes(prefixes[k], ground)), d.domain)
        if not step.sat:
            raise InternalInconsistency(
                f"backward solving failed at step {k}: abstraction is unsound"
            )
        assigns[k] = {v: step.model.get(v, 0) for v in d.variables}
    return assigns


def _run(d: Ddsa, actions: Sequence[str], parts: Sequence[list[dict[VarId, Exact]]]) -> Run:
    """The run of the symbolic run `actions` whose assignment at each
    position is the union of the parts' assignments there."""
    assigns = ({v: x for a in at for v, x in a.items()} for at in zip(*parts))
    return Run(tuple(map(Config.make, dd.symbolic_states(d, actions), assigns)), tuple(actions))


def extract_witness(
    d: Ddsa, p: ProductAutomaton, path: Sequence[PEdge]
) -> tuple[Run, list[SigmaSymbol]]:
    """Concrete run of the system `d` from an accepting path of its
    product `p`, solved backwards (`_solve_backwards`).

    Over the rationals each part is solved on its own system, whose
    transition cubes its images built, and on its classes' states along
    the path, which lies on the BFS tree: each is equivalent to the part's
    history constraint, since `canon` merges only equivalent states and the
    image is exact, so no image is computed again.  The parts share no
    variable, so a position's assignment is the union of the parts'.  Over
    the integers a node is only cutoff-equivalent to its prefix, so the
    prefixes are the exact history constraints.  `_assert_witness`
    revalidates the run either way.

    The first step, the root's, contributes the position-0 constraint set;
    the returned run starts at `d`'s initial state.
    """
    if not path:
        raise ValueError("path must start with the root's step")
    word: list[SigmaSymbol] = [e.symbol for e in path]
    actions = [e.action for e in path[1:]]
    if d.domain == INT:
        run = realize_run(d, actions, [lt.constr_of(s) for s in word])
    else:
        columns = zip(p.strategy.parts, zip(*(p.nodes[e.dst].cls for e in path)))
        parts = [
            _solve_backwards(leaf.d, actions, [c.state for c in cs]) for (_, leaf), cs in columns
        ]
        run = None if None in parts else _run(d, actions, parts)
    if run is None:
        raise InternalInconsistency(
            "accepting path has unsatisfiable history constraint"
        )
    return run, word


# ---------------------------------------------------------------------------
# Verdicts and orchestration


# the keys of a verdict's `sizes`, the object of `verify --json`, in order
SIZES = ("nfa_states", "nfa_edges", "product_nodes", "product_edges", "product_finals")


class Verdict(NamedTuple):
    kind: str  # "witness" | "no-witness" | "inconclusive"
    label: str  # the strategy's `describe()`, "" when detection failed
    sizes: dict[str, int]  # keyed by SIZES, in that order
    run: Optional[Run] = None
    word: Optional[list[SigmaSymbol]] = None
    reason: Optional[str] = None
    product: Optional[ProductAutomaton] = None


def _verdict(kind: str, strategy, nfa, prod, **found) -> Verdict:
    """The verdict on the strategy, NFA and product `verify` built by then
    (None for what it did not): their label and sizes, and the product
    unless the verdict is inconclusive."""
    nfa_sizes = (0, 0) if nfa is None else (len(nfa.states), len(nfa.edges))
    prod_sizes = (0, 0, 0) if prod is None else (len(prod.nodes), len(prod.edges), len(prod.finals))
    sizes = dict(zip(SIZES, nfa_sizes + prod_sizes))
    label = "" if strategy is None else strategy.describe()
    return Verdict(kind, label, sizes, product=None if kind == "inconclusive" else prod, **found)


def verify(d: Ddsa, psi: Ltlf, max_nodes: int = 10_000) -> Verdict:
    """End-to-end check for a witness run: preprocess the property, detect a
    finite summary, build the product (which finds the accepting path), and
    extract plus revalidate a concrete run.  The verdict's label and sizes
    are read off what was built (`_verdict`), also on an inconclusive one.

    Failures to detect a summary, to stay within budget or to search the
    integers exactly, in any phase up to witness extraction, yield an
    inconclusive verdict, never an unsound answer.  A budget stop that has
    built a final node still gives its witness: the nodes built are the
    whole product's first ones, so the path is the one it would give.
    """
    pre = lt.preprocess(psi)
    strategy = nfa = prod = None
    try:
        strategy = sm.detect(d, lt.constraints_of(pre))
        nfa = lt.build_nfa(pre)
        try:
            prod, stop = build_product(d, nfa, strategy, max_nodes), None
        except ProductBudgetExceeded as e:
            prod, stop = e.product, e
        path = find_accepting_path(prod)
        if path is None:
            if stop is not None:
                raise stop
            # exact: every leaf's relation is (logical equivalence over Q,
            # cutoff equivalence at K on the integer gap-order fragment), so
            # merged states have the same continuations, and a saturated
            # product with no accepting path leaves no witness run
            return _verdict("no-witness", strategy, nfa, prod)
        run, word = extract_witness(d, prod, path)
    except (sm.NoSummaryFound, BudgetExceeded, solve.UnsupportedInteger) as e:
        return _verdict("inconclusive", strategy, nfa, prod, reason=str(e))
    _assert_witness(d, run, word, pre)
    return _verdict("witness", strategy, nfa, prod, run=run, word=word)


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
