import json
import math
import random
from collections import deque
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

from damc import ltlf as lt, parsing, product, solve
from damc.certificates import ComputationGraph, enumerate_symbolic_runs, seq_decompose
from damc.summary import used_actions
from damc.ddsa import Ddsa, transition_formula, update
from damc.formula import (
    FALSE,
    INDEXED,
    INT,
    RAT,
    TRUE,
    And,
    Atom,
    FalseF,
    Or,
    Term,
    TrueF,
    atoms_of,
    conj,
    disj,
    exact_div,
    free_vars,
    norm_atom,
)
from damc.solve import BudgetExceeded, NotGapOrder

MODELS = Path(__file__).resolve().parent.parent / "models"
GOLDEN = Path(__file__).parent / "golden"


def load_model(name: str) -> Ddsa:
    return parsing.parse_model((MODELS / name).read_text())


def with_domain(d: Ddsa, dom) -> Ddsa:
    return Ddsa(
        states=d.states,
        initial=d.initial,
        actions=d.actions,
        transitions=d.transitions,
        finals=d.finals,
        variables=d.variables,
        alpha0=d.alpha0,
        guards=d.guards,
        domain=dom,
    )


def golden_queries():
    """(model file, domain, property text) of the auction, disjunction and
    integer golden queries."""
    for name in ("auction", "disjunction"):
        for case in json.loads((GOLDEN / f"{name}_verdicts.json").read_text()).values():
            yield "auction.ddsa" if name == "auction" else "b1.ddsa", RAT, case["property"]
    for case in json.loads((GOLDEN / "integer_verdicts.json").read_text()).values():
        yield case["model"], INT, case["property"]


@pytest.fixture(scope="session")
def b1():
    return load_model("b1.ddsa")


@pytest.fixture(scope="session")
def b1_int(b1):
    return with_domain(b1, INT)


@pytest.fixture(scope="session")
def b2():
    return load_model("b2.ddsa")


@pytest.fixture(scope="session")
def b3():
    return load_model("b3.ddsa")


@pytest.fixture(scope="session")
def b4():
    return load_model("b4.ddsa")


@pytest.fixture(scope="session")
def auction():
    return load_model("auction.ddsa")


@pytest.fixture(scope="session")
def two_actions():
    # b's guard x^w > 1 implies a's x^w > 0: every b-step is a step a allows
    return parsing.parse_model(
        "domain rat\nvars x\ninit x=0\nstates s t\ninitial s\nfinal t\n"
        "trans s a t [x^w > 0]\ntrans s b t [x^w > 1]\n"
    )


@pytest.fixture()
def rng():
    return random.Random(20240817)


def gap_order_reads(monkeypatch) -> list[str]:
    """The names of the gap-order readings (`solve.is_gap_order`,
    `solve._gap_reading`) made from now on, in call order."""
    calls: list[str] = []

    def counted(name, read):
        def wrapped(*args):
            calls.append(name)
            return read(*args)

        return wrapped

    for name in ("is_gap_order", "_gap_reading"):
        monkeypatch.setattr(solve, name, counted(name, getattr(solve, name)))
    return calls


def is_exact(v) -> bool:
    """The number representation: an int when integral, else a Fraction."""
    return type(v) is int or (type(v) is Fraction and v.denominator != 1)


def assert_exact_formula(phi) -> None:
    for a in atoms_of(phi):
        for t in (a.lhs, a.rhs):
            assert is_exact(t.const) and all(is_exact(c) for _, c in t.coeffs), a


def frac_grid(lo: int, hi: int, halves: bool = False) -> list[Fraction]:
    vals = [Fraction(k) for k in range(lo, hi + 1)]
    if halves:
        vals += [Fraction(2 * k + 1, 2) for k in range(lo, hi)]
    return sorted(vals)


# The paper's NFA for F (b & X (x - y >= 2)), as (src, symbol, dst) with p
# the initial state and m the state after reading b.
PAPER_NESTED_NEXT_EDGES = (
    ("p", (), "p"),
    ("p", ("b",), "m"),
    ("m", (), "p"),
    ("m", ("b",), "m"),
    ("m", ("b", "x - y >= 2"), "true"),
    ("m", ("x - y >= 2",), "true"),
    ("m", ("b", "x - y >= 2"), "q_e"),
    ("m", ("x - y >= 2",), "q_e"),
    ("true", (), "true"),
)


def minimal_edges(edges, names: dict[str, str]) -> list[tuple[str, str, str]]:
    """The edges whose symbol strictly contains no other symbol between the
    same two states, with state names mapped by `names` and symbols
    formatted as `fmt_symbol` does, sorted."""
    return sorted(
        (names.get(src, src), "{" + ", ".join(sorted(sym)) + "}", names.get(dst, dst))
        for src, sym, dst in edges
        if not any(s == src and d == dst and set(o) < set(sym) for s, o, d in edges)
    )


def nfa_paths(nfa, length: int):
    """All accepting edge sequences of the given length."""

    def go(q: int, remaining: int, acc: list):
        if remaining == 0:
            if q in nfa.finals:
                yield list(acc)
            return
        for e in nfa.outgoing(q):
            acc.append(e)
            yield from go(e.dst, remaining - 1, acc)
            acc.pop()

    yield from go(nfa.initial, length, [])


def reference_accepting_path(p):
    """Shortest path to a final node of the product `p` by a second search
    over it: each node's edges sorted by the first position of their action
    among that node's edges, then smallest requirement sets first, then by
    the sorted text of the requirements; BFS from the initial node to the
    first final node it discovers.  `product.find_accepting_path` must
    return the same edges."""
    adj: dict = {}
    for e in p.edges:
        adj.setdefault(e.src, []).append(e)
    for lst in adj.values():
        first: dict = {}
        for e in lst:
            first.setdefault(e.action, len(first))
        lst.sort(key=lambda e: (first[e.action], len(e.symbol), sorted(str(s) for s in e.symbol)))
    if p.initial in p.finals:
        return []
    back = {p.initial: None}
    queue = deque([p.initial])
    while queue:
        i = queue.popleft()
        for e in adj.get(i, []):
            if e.dst in back:
                continue
            back[e.dst] = e
            if e.dst in p.finals:
                path = [e]
                while path[0].src != p.initial:
                    path.insert(0, back[path[0].src])
                return path
            queue.append(e.dst)
    return None


_COMPLEMENT = {"=": "!=", "!=": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<"}


def negate(phi):
    """The negation of `phi`, pushed down to its atoms (De Morgan): each
    atom takes the complementary comparison, an `And` becomes an `Or` of
    its parts' negations and an `Or` an `And`.  The formula IR has no
    negation node, so the tests negate a formula here."""
    if isinstance(phi, TrueF):
        return FALSE
    if isinstance(phi, FalseF):
        return TRUE
    if isinstance(phi, Atom):
        return Atom(phi.lhs, _COMPLEMENT[phi.op], phi.rhs)
    if isinstance(phi, And):
        return Or(tuple(negate(p) for p in phi.args))
    return And(tuple(negate(p) for p in phi.args))


def reference_entails(phi, psi, dom=RAT) -> bool:
    """Whether the formula `phi` entails `psi` over the domain: `phi`
    conjoined with the negation of `psi` has no model, renormalised through
    `to_dnf`.  The formula-level reference for `solve.entails`, with which
    it shares no code but `is_sat`."""
    return not solve.is_sat(solve.to_dnf(conj(phi, negate(psi)), dom), dom).sat


def equivalent(phi, psi, dom) -> bool:
    """Logical equivalence of two formulas over the domain: entailment both
    ways (`reference_entails`).  The formula-level reference for
    `solve.equivalent`, which takes DNFs over Q."""
    return reference_entails(phi, psi, dom) and reference_entails(psi, phi, dom)


def cube_entails(a, b, dom) -> bool:
    """`reference_entails` on two DNFs, one cube of `b` at a time: each
    cube of `a` is conjoined with the negation of `b`'s cubes in turn, and
    a partial cube with no model over the domain is dropped; one with no
    model together with the cube is kept whole, since it already lies in
    the cube's negation.  For DNFs whose negation has more cubes than
    `to_dnf` allows."""
    for cube in a:
        partial = [cube] if solve.is_sat([cube], dom).sat else []
        for other in b:
            negated = solve.to_dnf(negate(solve.dnf_to_formula([other])), dom)
            joined = {}
            for p in partial:
                if not solve.is_sat([p + other], dom).sat:
                    joined[p] = True
                    continue
                for q in solve.conj_cubes([p], negated):
                    if q not in joined:
                        joined[q] = solve.is_sat([q], dom).sat
            partial = [q for q, sat in joined.items() if sat]
        if partial:
            return False
    return True


def cube_equivalent(a, b, dom) -> bool:
    """Logical equivalence of two DNFs over the domain: `cube_entails`
    both ways."""
    return cube_entails(a, b, dom) and cube_entails(b, a, dom)


def reference_joint_run(d, p, path):
    """The run of an accepting path of the rational product `p` of `d`
    solved on joint cubes: each position's parts' states multiplied out in
    part order (`solve.conj_cubes`), and the whole system solved backwards
    on them (`product._solve_backwards`).  Extraction solves each part on
    its own system and states instead."""
    actions = [e.action for e in path[1:]]
    prefixes = [
        tuple(reduce(solve.conj_cubes, (c.state for c in p.nodes[e.dst].cls), ((),)))
        for e in path
    ]
    assigns = product._solve_backwards(d, actions, prefixes)
    return None if assigns is None else product._run(d, actions, [assigns])


def check_closed(d, verdict) -> int:
    """Assert that the no-witness product of `verdict` on the rational
    system `d` is closed under the exact image, and return the number of
    steps checked.  The initial constraints entail node 0's formula.  Take
    a node not at the word-end NFA state, an action out of its control
    state and an NFA edge consistent with that step (the product's own
    skips: one to the word-end state must reach a final control), and
    conjoin the node formula's image under the whole system (`ddsa.update`)
    with the symbol's constraints.  Where that is satisfiable, the step
    reaches no final control with a final NFA state, and the product has
    an edge with that action and symbol to a node at the step's (control,
    NFA state) whose formula the conjunction entails.  So a merge into a
    larger class passes, and one into a smaller or incomparable class
    fails (Namjoshi, CAV 2001).  The steps run on the reference's own
    extension of `d` by the product's root: node 0's control, entered by
    the action of the product's first edge (when there is none, any name
    `d` lacks) under a true guard."""
    p = verdict.product
    assert d.domain == RAT and verdict.kind == "no-witness" and p is not None
    b0 = p.nodes[p.initial].state
    a0 = p.edges[0].action if p.edges else "".join(d.actions) + "_"
    assert b0 not in d.states and a0 not in d.actions
    e = d.replace(
        states=(b0,) + d.states,
        initial=b0,
        actions=(a0,) + d.actions,
        transitions=((b0, a0, d.initial),) + d.transitions,
        guards={**d.guards, a0: conj()},
    )
    nfa = p.nfa
    word_end = nfa.states.index(lt.QE_STATE)
    out: dict = {}
    for edge in p.edges:
        out.setdefault((edge.src, edge.action, edge.symbol), []).append(p.nodes[edge.dst])

    assert reference_entails(conj(*d.initial_constraints()), p.nodes[p.initial].formula)
    steps = 0
    for i, node in enumerate(p.nodes):
        if node.q == word_end:
            continue
        for a, dst in e.outgoing(node.state):
            image = solve.dnf_to_formula(update(e, tuple(solve.to_dnf(node.formula)), a))
            for ne in nfa.outgoing(node.q):
                if not lt.symbol_consistent_with_step(ne.symbol, a, dst):
                    continue
                if ne.dst == word_end and dst not in d.finals:
                    continue
                step = conj(image, *lt.constr_of(ne.symbol))
                if not solve.is_sat(solve.to_dnf(step), RAT).sat:
                    continue
                where = f"node {i} under {a} to ({dst}, {nfa.state_name(ne.dst)})"
                assert not (dst in d.finals and ne.dst in nfa.finals), f"accepts: {where}"
                targets = [
                    n for n in out.get((i, a, ne.symbol), []) if (n.state, n.q) == (dst, ne.dst)
                ]
                closed = any(reference_entails(step, n.formula) for n in targets)
                assert closed, f"not closed: {where}"
                steps += 1
    return steps


# ---------------------------------------------------------------------------
# Reference gap-order view: an atom as triples (p, q, k), read p - q >= k,
# where p and q are variables or integer constants (Revesz, TCS 1993).  The
# program reads gap-order off the tightened rows instead
# (`solve.is_gap_order`, `solve.gap_order_bound`, `solve.cutoff`); its
# membership, K and cutoff must equal the ones read off these triples.


def _ceil_bound(c, strict: bool) -> int:
    # smallest integer value of t with t >= c (or > c)
    if c.denominator == 1:
        return int(c) + (1 if strict else 0)
    return math.ceil(c)


def _floor_bound(c, strict: bool) -> int:
    # largest integer value of t with t <= c (or < c)
    if c.denominator == 1:
        return int(c) - (1 if strict else 0)
    return math.floor(c)


def _gc_of_ineq(vec, const, strict: bool):
    """Normalize `vec <= const` (or <) into difference form p - q >= k."""
    # rewrite as  t' >= c'  with t' = -vec
    nvec = tuple((v, -c) for v, c in vec)
    c = -const
    if len(nvec) == 1:
        (v, a) = nvec[0]
        c = exact_div(c, a)
        if a > 0:  # v >= c
            k = _ceil_bound(c, strict)
            return (v, 0, k) if k >= 0 else (v, k, 0)
        u = _floor_bound(c, strict)  # v <= c
        return (u, v, 0) if u >= 0 else (0, v, -u)
    if len(nvec) == 2:
        (v1, a1), (v2, a2) = nvec
        if a1 == -a2 and abs(a1) == 1:
            x, y = (v1, v2) if a1 > 0 else (v2, v1)
            return (x, y, _ceil_bound(c, strict))
    return None


def gc_norm(na):
    """The triple view of a normalized atom: ("conj", triples),
    ("disj", triples), or None when the atom is not expressible (a triple
    with a negative gap makes it inexpressible).  Equalities become gap
    pairs, disequalities the two gap-1 alternatives, an atom false over the
    integers the gap 0 - 0 >= 1, and one true over them no triple."""
    t = na.truth()
    vec, const, op = na.coeffs, na.const, na.op
    if t is True or (op == "!=" and const.denominator != 1):
        return ("conj", [])  # an integer left side never equals a non-integer
    if t is False:
        return ("conj", [(0, 0, 1)])
    if op in ("<=", "<"):
        tr = _gc_of_ineq(vec, const, op == "<")
        if tr is None or tr[2] < 0:
            return None
        return ("conj", [tr])
    if len(vec) == 1:
        (v, a) = vec[0]
        c = exact_div(const, a)
        if op == "=":
            if c.denominator != 1:
                return ("conj", [(0, 0, 1)])
            return ("conj", [(v, int(c), 0), (int(c), v, 0)])
        return ("disj", [(v, int(c), 1), (int(c), v, 1)])
    if len(vec) == 2:
        (v1, a1), (v2, a2) = vec
        if a1 == -a2 and abs(a1) == 1:
            x, y = (v1, v2) if a1 > 0 else (v2, v1)
            c = const if a1 > 0 else -const
            if op == "=":
                return ("conj", [(x, y, 0), (y, x, 0)]) if c == 0 else None
            # x - y > c  or  x - y < c: two gaps when c lies in [-1, 1]
            gaps = [(x, y, math.floor(c) + 1), (y, x, 1 - math.ceil(c))]
            if min(k for _, _, k in gaps) < 0:
                return None
            return ("disj", gaps)
    return None


def triple_atom(tr):
    p, q, k = tr
    return Atom(Term.of(p) - Term.of(q), ">=", Term.of(k))


def reference_gap_bound(atoms):
    """K of normalized atoms off their triples: the largest distance
    between integer constants (endpoints and gaps, 0 always among them)
    plus one; None when an atom has no triple view.  A one-variable
    disequality `v != c` adds c and 1, as its triples (v, c, 1), (c, v, 1)
    do; a two-variable one adds the gaps of its two triples."""
    consts = {0}
    for na in atoms:
        view = gc_norm(na)
        if view is None:
            return None
        if view[0] == "disj" and len(na.coeffs) == 1:
            consts |= {na.const, 1}
            continue
        for p, q, k in view[1]:
            consts.add(k)
            consts |= {n for n in (p, q) if isinstance(n, int)}
    return max(consts) - min(consts) + 1


def reference_cutoff(phi, K):
    """Every atom that is one triple (p, q, k) with k >= K becomes the
    triple (p, q, K)."""
    if isinstance(phi, (TrueF, FalseF)):
        return phi
    if isinstance(phi, Atom):
        view = gc_norm(norm_atom(phi))
        if view is None:
            raise NotGapOrder(f"not a gap-order atom: {phi}")
        mode, triples = view
        if mode == "conj" and len(triples) == 1 and triples[0][2] >= K:
            p, q, _ = triples[0]
            return triple_atom((p, q, K))
        return phi
    if isinstance(phi, And):
        return conj(*(reference_cutoff(p, K) for p in phi.args))
    if isinstance(phi, Or):
        return disj(*(reference_cutoff(p, K) for p in phi.args))
    raise NotGapOrder(f"unsupported connective in gap-order formula: {phi!r}")


def reference_cube_cutoff(cubes, K):
    """`reference_cutoff` atom by atom on an integer DNF, each cube
    renormalised and each once: the cutoff `solve.cutoff` must give."""
    out = {}
    for cube in cubes:
        cut = solve.norm_cube([norm_atom(reference_cutoff(na.to_atom(), K)) for na in cube])
        if cut is not None:
            out[cut] = None
    return tuple(out)


def reference_sat_cube_rational(cube):
    """`solve._sat_cube_rational` as it was written before the solver shared
    one elimination loop between QE and satisfiability: its own
    Fourier-Motzkin loop over every variable, and one tightest-bound loop
    for lower and one for upper bounds.  The model it picks is the one the
    goldens' witness values come from."""
    trail = []
    cur = cube
    while cur:
        vs = set()
        for na in cur:
            vs |= na.vars()
        if not vs:
            break
        x = solve._elim_order(cur, vs)
        eqs, lowers, uppers, rest = solve._rows_on(cur, x)
        trail.append((x, eqs, lowers, uppers))
        cur = solve.norm_cube(rest + solve._resolvents(eqs, lowers, uppers))
    if cur is None:
        return None
    model = {}
    eliminated = {x for x, _, _, _ in trail}
    for _, eqs, lowers, uppers in trail:
        for na, _ in eqs + lowers + uppers:
            for v, _ in na.coeffs:
                if v not in eliminated:
                    model[v] = 0
    for x, eqs, lowers, uppers in reversed(trail):
        if eqs:
            model[x] = solve._bound(eqs[0], x, model)
            continue
        lo = None
        for row in lowers:
            v, s = solve._bound(row, x, model), row[0].op == "<"
            if lo is None or v > lo[0] or (v == lo[0] and s):
                lo = (v, s)
        hi = None
        for row in uppers:
            v, s = solve._bound(row, x, model), row[0].op == "<"
            if hi is None or v < hi[0] or (v == hi[0] and s):
                hi = (v, s)
        model[x] = solve._pick_rational(lo, hi)
    return model


def gc_atoms(phi):
    """All atoms of phi with their gap-order views (mode, triples); raises
    NotGapOrder on an atom outside gap-order."""
    out = []
    for a in atoms_of(phi):
        v = gc_norm(norm_atom(a))
        if v is None:
            raise NotGapOrder(f"not a gap-order atom: {a}")
        out.append((a, v[0], v[1]))
    return out


def is_gc_formula(phi) -> bool:
    try:
        gc_atoms(phi)
        return True
    except NotGapOrder:
        return False


# ---------------------------------------------------------------------------
# Reference image: substitution, then QE of the whole formula, with
# Fourier-Motzkin on rational `Term` bounds over the rationals and
# gap-order elimination on triples over the integers.  `ddsa.update` builds
# the image on normal-form cubes; over the rationals it must return the
# identical formula, over the integers an equivalent one.


def term_bound_resolvents(cube, x):
    """The atoms one Fourier-Motzkin step adds when it divides each bound
    on x by x's coefficient and normalizes each combination `lt op ut`."""
    eqs, lowers, uppers = [], [], []
    for na in cube:
        a = dict(na.coeffs).get(x)
        if a is None:
            continue
        others = tuple((v, exact_div(-c, a)) for v, c in na.coeffs if v != x)
        bound = Term(others, exact_div(na.const, a))
        if na.op == "=":
            eqs.append(bound)
        elif a > 0:
            uppers.append((bound, na.op == "<"))
        else:
            lowers.append((bound, na.op == "<"))
    if eqs:
        rep = eqs[0]
        return (
            [norm_atom(Atom(rep, "=", other)) for other in eqs[1:]]
            + [norm_atom(Atom(t, "<" if s else "<=", rep)) for t, s in lowers]
            + [norm_atom(Atom(rep, "<" if s else "<=", t)) for t, s in uppers]
        )
    return [
        norm_atom(Atom(lt, "<" if (ls or us) else "<=", ut))
        for lt, ls in lowers
        for ut, us in uppers
    ]


def term_bound_eliminate(cube, x):
    rest = [na for na in cube if x not in na.vars()]
    return solve.norm_cube(rest + term_bound_resolvents(cube, x))


def reference_qe_rational(xs, phi):
    out = []
    for cube in solve.to_dnf(phi):
        live = {x for x in xs if any(x in na.vars() for na in cube)}
        while cube is not None and live:
            x = solve._elim_order(cube, live)
            if x is None:
                break
            live.discard(x)
            cube = term_bound_eliminate(cube, x)
        if cube is not None and cube not in out:
            out.append(cube)
    return solve.dnf_to_formula(out)


def _triple_key(tr):
    return tuple((0, "", "", n) if isinstance(n, int) else (1, n.name, n.kind, n.idx) for n in tr)


def _norm_triples(triples):
    """Drop ground and reflexive triples (None if one is false) and keep
    the largest gap per (p, q)."""
    best = {}
    for p, q, k in triples:
        if isinstance(p, int) and isinstance(q, int):
            if p - q < k:
                return None
        elif p == q:
            if k > 0:
                return None
        elif best.get((p, q), k - 1) < k:
            best[(p, q)] = k
    return sorted(((p, q, k) for (p, q), k in best.items()), key=_triple_key)


def reference_qe_gc(xs, phi):
    """Gap-order elimination on triples (p, q, k), read p - q >= k (Revesz,
    TCS 1993): a lower bound x >= q + kl and an upper bound x <= p - ku on
    the eliminated x combine into p - q >= kl + ku.  Read off the integer
    DNF, where a `!=` with a non-integral constant is true."""
    out = []
    for cube in solve.to_dnf(phi, INT):
        triples = []
        for na in cube:
            view = gc_norm(na)
            if view is None:
                raise NotGapOrder(f"not a gap-order atom: {na.to_atom()}")
            triples += view[1]  # a conjunction: to_dnf has split each !=
        cur = _norm_triples(triples)
        for x in sorted(set(xs), key=lambda v: _triple_key((v,))):
            if cur is None:
                break
            lowers = [(q, k) for p, q, k in cur if p == x]
            uppers = [(p, k) for p, q, k in cur if q == x]
            rest = [tr for tr in cur if x not in tr[:2]]
            cur = _norm_triples(rest + [(p, q, kl + ku) for q, kl in lowers for p, ku in uppers])
        if cur is not None and cur not in out:
            out.append(cur)
    return disj(*(conj(*(triple_atom(tr) for tr in cube)) for cube in out))


def substitute(phi, mapping):
    """The formula with each variable in `mapping` replaced by its term."""
    if isinstance(phi, (TrueF, FalseF)):
        return phi
    if isinstance(phi, Atom):
        return Atom(_subst_term(phi.lhs, mapping), phi.op, _subst_term(phi.rhs, mapping))
    if isinstance(phi, And):
        return conj(*(substitute(p, mapping) for p in phi.args))
    if isinstance(phi, Or):
        return disj(*(substitute(p, mapping) for p in phi.args))
    raise TypeError(f"not a formula: {phi!r}")


def _subst_term(t, mapping):
    out = Term.of(t.const)
    for v, c in t.coeffs:
        out = out + (mapping[v].scale(c) if v in mapping else Term(((v, c),)))
    return out


def reference_update(d, phi, action):
    delta = transition_formula(d, action)
    idx = 1 + max((v.idx for v in free_vars(conj(phi, delta)) if v.kind == INDEXED), default=-1)
    snapshot = {v: v.indexed(idx) for v in d.variables}
    phi_u = substitute(phi, {v: Term.of(u) for v, u in snapshot.items()})
    delta_uv = substitute(
        delta,
        {
            **{v.read(): Term.of(snapshot[v]) for v in d.variables},
            **{v.write(): Term.of(v) for v in d.variables},
        },
    )
    qe = reference_qe_gc if d.domain == INT else reference_qe_rational
    return qe(list(snapshot.values()), conj(phi_u, delta_uv))


# ---------------------------------------------------------------------------
# Computation graphs and feedback freedom, on the whole graph of each run


def reference_computation_graph(d, actions, constraints):
    """Normalise every atom again at every step."""
    g = ComputationGraph(len(actions), [v.name for v in d.variables])

    def add(atoms, inst):
        for at in atoms:
            na = norm_atom(at)
            present = [inst[v] for v, _ in na.coeffs if v in inst]
            is_eq = (
                na.op == "="
                and len(na.coeffs) == 2
                and na.const == 0
                and {c for _, c in na.coeffs} == {1, -1}
            )
            for i, p in enumerate(present):
                for q in present[i + 1 :]:
                    if p != q:
                        (g.eq_edges if is_eq else g.gen_edges).add(frozenset({p, q}))

    for k, a in enumerate(actions, start=1):
        inst = {v.read(): (v.name, k - 1) for v in d.variables}
        inst.update({v.write(): (v.name, k) for v in d.variables})
        add(atoms_of(transition_formula(d, a)), inst)
    for k in range(len(actions) + 1):
        add([at for c in constraints for at in atoms_of(c)], {v: (v.name, k) for v in d.variables})
    return g


def reference_feedback_free(d, constraints, unroll=2):
    """Feedback freedom on each enumerated run's whole graph, checking every
    pair of instances of a variable: two instances with incomparable class
    spans must not be connected avoiding every node whose class spans
    both.  Raises BudgetExceeded where the enumeration does."""
    for actions in enumerate_symbolic_runs(d, unroll):
        g = reference_computation_graph(d, actions, constraints)
        roots = g.classes()
        spans = g.spans(roots)
        adj = {}
        for a, b in map(tuple, g.eq_edges | g.gen_edges):
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        for a in roots:
            for b in roots:
                sa, sb = spans[roots[a]], spans[roots[b]]
                if a[0] != b[0] or a >= b or sa >= sb or sb >= sa:
                    continue
                open_ = {n for n, r in roots.items() if not spans[r] >= sa | sb}
                seen, todo = {a}, [a]
                while todo:
                    for n in adj.get(todo.pop(), []):
                        if n in open_ and n not in seen:
                            seen.add(n)
                            todo.append(n)
                if b in seen:
                    return False
    return True


def reference_bounded_lookback(d, constraints, K, unroll):
    """Bounded lookback on each enumerated run's whole graph, every run and
    not only the maximal ones: after merging equality classes, no simple
    path of general edges is longer than K."""
    for actions in enumerate_symbolic_runs(d, unroll):
        g = reference_computation_graph(d, actions, constraints)
        roots = g.classes()
        adj = {}
        for a, b in map(tuple, g.gen_edges):
            if roots[a] != roots[b]:
                adj.setdefault(roots[a], set()).add(roots[b])
                adj.setdefault(roots[b], set()).add(roots[a])

        def too_long(path):
            return len(path) > K + 1 or any(
                too_long(path + [n]) for n in adj[path[-1]] if n not in path
            )

        if any(too_long([n]) for n in adj):
            return False
    return True


# ---------------------------------------------------------------------------
# Detection reading every atom afresh, per part and per criterion


def _reference_criterion_atoms(d, constraints):
    out = []
    for a in used_actions(d.transitions):
        out.extend(atoms_of(d.guard(a)))
    for c in constraints:
        out.extend(atoms_of(c))
    out.extend(a for f in d.initial_constraints() for a in atoms_of(f))
    return out


def reference_check_mc(d, constraints):
    """Monotonicity criterion over every atom of the used guards, the
    constraints and the initial assignment."""
    if d.domain != RAT:
        return False
    return all(solve.is_mc(norm_atom(a)) for a in _reference_criterion_atoms(d, constraints))


def _reference_conjuncts(f):
    return f.args if isinstance(f, And) else (f,)


def _reference_groups(names, pairs):
    parent = {n: n for n in names}

    def find(n):
        while parent[n] != n:
            n = parent[n]
        return n

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comps = {}
    for n in names:
        comps.setdefault(find(n), []).append(n)
    return list(comps.values())


def reference_var_parts(d, constraints):
    """The components of the conjunct co-occurrence graph over the
    variable names, each conjunct's names read afresh."""
    names = [v.name for v in d.variables]
    formulas = [*(d.guard(a) for a in used_actions(d.transitions)), *constraints]
    shared = [
        sorted({v.name for v in free_vars(c)}) for f in formulas for c in _reference_conjuncts(f)
    ]
    return _reference_groups(names, ((vs[0], other) for vs in shared for other in vs[1:]))


def reference_by_names(f, names):
    """`f`'s top-level conjuncts over `names`, and the rest, as
    conjunctions."""
    inside, outside = [], []
    for c in _reference_conjuncts(f):
        (inside if {v.name for v in free_vars(c)} <= names else outside).append(c)
    return conj(*inside), conj(*outside)


def reference_project_guards(d, keep):
    """Each guard's conjuncts over the kept variables."""
    names = {v.name for v in keep}
    return {a: reference_by_names(d.guard(a), names)[0] for a in d.actions}


def reference_project_system(d, keep):
    variables = tuple(v for v in d.variables if v.name in {w.name for w in keep})
    alpha0 = None if d.alpha0 is None else {v: d.alpha0[v] for v in variables}
    return d.replace(
        variables=variables, alpha0=alpha0, guards=reference_project_guards(d, keep)
    )


def reference_detect_label(d, constraints, depth=0):
    """The label detection gives a rational system, each part read afresh:
    MC, then feedback freedom on each run's whole graph, then one part per
    variable component, then a sequential split."""
    if reference_check_mc(d, constraints):
        return "MC"
    try:
        if reference_feedback_free(d, constraints):
            return "feedback-free"
    except BudgetExceeded:
        pass
    if depth < 8:
        parts = reference_var_parts(d, constraints)
        if len(parts) > 1:
            labels = []
            for part in parts:
                keep = [v for v in d.variables if v.name in part]
                projected = reference_project_system(d, keep)
                kept = reference_by_names(conj(*constraints), set(part))[0]
                label = reference_detect_label(projected, [kept], depth + 1)
                labels.append(f"{{{','.join(part)}}}: {label}")
            return f"var-compose({'; '.join(labels)})"
        parts = seq_decompose(d)
        if parts is not None:
            d1, d2, cut = parts
            if set(d1.states) != set(d.states) or d1.finals != d.finals:
                left = reference_detect_label(d1, constraints, depth + 1)
                right = reference_detect_label(d2, constraints, depth + 1)
                return f"seq-compose({left}, {right}; cut='{cut}')"
    return "exact-fixpoint"
