import pickle
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from damc import ddsa, parsing, solve, summary
from damc.ddsa import Ddsa, history_constraint
from damc.formula import (
    INT,
    RAT,
    Term,
    VarId,
    atom,
    conj,
    disj,
    evaluate,
    free_vars,
)
from damc.ltlf import constraints_of, preprocess
from damc.product import constraint_graph, verify
from damc.solve import BudgetExceeded, dnf_to_formula, to_dnf
from damc.summary import (
    NoSummaryFound,
    VarStrategy,
    certify,
    check_bounded_lookback,
    check_feedback_free,
    check_gc,
    check_mc,
    computation_graph,
    detect,
    enumerate_symbolic_runs,
    project_system,
    seq_decompose,
    _Leaf,
    _var_parts,
)

from conftest import (
    MODELS,
    equivalent,
    gap_order_reads,
    load_model,
    reference_bounded_lookback,
    reference_by_names,
    reference_check_mc,
    reference_computation_graph,
    reference_detect_label,
    reference_feedback_free,
    reference_project_guards,
    reference_var_parts,
    with_domain,
)
from test_cli import FOUR_SELF_LOOPS_MODEL

x, y, s = VarId("x"), VarId("y"), VarId("s")
CG_CONSTRAINTS = [atom(x, ">", 5), atom(s, ">", 0)]  # shared example set


# ---------------------------------------------------------------------------
# syntactic criteria


def test_check_mc(b1, b1_int, b4):
    assert check_mc(b1, [])
    assert not check_mc(b1_int, [])  # MC needs the rational domain
    assert not check_mc(b4, [])


def test_check_gc(b3, b1_int, b2):
    ok, K = check_gc(b3, [])
    assert (ok, K) == (True, 4)  # constants {0,2,3}
    ok1, K1 = check_gc(b1_int, [])
    assert ok1 and K1 >= 1
    # upper-bound gaps are not gap-order constraints
    ok2, _ = check_gc(b2, [])
    assert not ok2


def test_check_gc_recomputes_K_brute_force(b3):
    _, K = check_gc(b3, [])
    consts = {0, 2, 3}
    assert K == max(abs(c - d) + 1 for c in consts for d in consts)


# ---------------------------------------------------------------------------
# computation graphs


def test_computation_graph_b2(b2):
    g = computation_graph(b2, ["setx", "sety", "sety", "sety", "done"], CG_CONSTRAINTS)
    roots = g.classes()
    # all x instances from instant 1 on share a class (x written once)
    assert len({roots[("x", i)] for i in range(1, 6)}) == 1
    spans = g.spans(roots)
    assert spans[roots[("x", 1)]] == {1, 2, 3, 4, 5}
    _, edges = g.collapsed_edges()
    from damc.summary import _longest_path

    assert _longest_path(edges) == 2


def test_computation_graph_empty_run(b2):
    g = computation_graph(b2, [], CG_CONSTRAINTS)
    assert g.eq_edges == set() and g.gen_edges == set()
    assert g.nodes() == [("x", 0), ("y", 0)]


def test_computation_graph_b4_general_sum_edge(b4):
    g = computation_graph(b4, ["picka", "seta", "pickb", "addb"], CG_CONSTRAINTS)
    # the sum update links s4 to both s3 and b3 with general edges
    assert frozenset({("s", 4), ("s", 3)}) in g.gen_edges
    assert frozenset({("s", 4), ("b", 3)}) in g.gen_edges


def test_bounded_lookback_verdicts(b1, b2, b3, b4):
    assert check_bounded_lookback(b4, CG_CONSTRAINTS, 3, 2)
    assert check_bounded_lookback(b2, CG_CONSTRAINTS, 2, 3)
    assert not check_bounded_lookback(b2, CG_CONSTRAINTS, 1, 2)
    assert not check_bounded_lookback(b1, [], 4, 5)
    assert not check_bounded_lookback(b3, [], 4, 5)


def test_feedback_free_verdicts(b1, b2, b3, b4):
    assert check_feedback_free(b2, CG_CONSTRAINTS, 2)
    assert not check_feedback_free(b4, CG_CONSTRAINTS, 2)
    assert not check_feedback_free(b1, [], 2)
    assert not check_feedback_free(b3, [], 2)


def test_feedback_free_single_edge():
    d = Ddsa(
        states=("a", "b"),
        initial="a",
        actions=("go",),
        transitions=(("a", "go", "b"),),
        finals=frozenset({"b"}),
        variables=(x,),
        alpha0={x: F(0)},
        guards={"go": atom(VarId("x", "w"), ">", 0)},
        domain=RAT,
    )
    assert check_feedback_free(d, [], 2)


def test_feedback_free_implies_bounded_lookback(b2):
    # whenever the feedback-freedom check passes, 2|V|-bounded lookback holds
    assert check_feedback_free(b2, CG_CONSTRAINTS, 2)
    assert check_bounded_lookback(b2, CG_CONSTRAINTS, 2 * len(b2.variables), 2)


@st.composite
def component_systems(draw, rich=False):
    """Rational systems whose variables fall into 2-3 groups with every atom
    inside one group: self-loops, `v^w = w^r` atoms that merge the classes
    of two variables, general atoms, and constraint atoms.  Any guard may be
    `[]` (true).  With `rich`, a guard or constraint conjunct may also be a
    disjunction of two atoms, each from any group, or a variable-free
    atom."""
    groups, k = [], 0
    for n in draw(st.lists(st.integers(1, 3), min_size=2, max_size=3)):
        groups.append([VarId(f"v{k + i}") for i in range(n)])
        k += n
    states = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    transitions = tuple(
        (draw(st.sampled_from(states)), f"a{i}", draw(st.sampled_from(states)))
        for i in range(draw(st.integers(2, 3)))
    )
    c = st.integers(-1, 2)

    def pick():
        g = draw(st.sampled_from(groups))
        return draw(st.sampled_from(g)), draw(st.sampled_from(g))

    def guard_atom():
        (v, w), shape = pick(), draw(st.integers(0, 4))
        if shape == 0:
            return atom(v.write(), "=", w.read())
        if shape == 1:
            return atom(v.write(), "=", w.write())
        if shape == 2:
            return atom(v.write(), ">", w.read())
        if shape == 3:
            return atom(Term.of(v.write()) + w.read(), "<=", draw(c))
        return atom(v.read(), ">", draw(c))

    def constraint():
        (v, w), shape = pick(), draw(st.integers(0, 2))
        if shape == 0:
            return atom(v, "=", w)
        return atom(Term.of(v) + w, ">", draw(c)) if shape == 1 else atom(v, ">", draw(c))

    def conjunct(make):
        kind = draw(st.integers(0, 3)) if rich else 0
        if kind == 1:
            return disj(make(), make())
        if kind == 2:
            return atom(draw(c), draw(st.sampled_from(["<", "<=", "=", "!="])), draw(c))
        return make()

    variables = tuple(v for g in groups for v in g)
    d = Ddsa(
        states=tuple(states),
        initial=states[0],
        actions=tuple(a for _, a, _ in transitions),
        transitions=transitions,
        finals=frozenset({states[-1]}),
        variables=variables,
        alpha0=dict.fromkeys(variables, F(0)),
        guards={
            a: conj(*(conjunct(guard_atom) for _ in range(draw(st.integers(0, 2)))))
            for _, a, _ in transitions
        },
        domain=RAT,
    )
    return d, [conjunct(constraint) for _ in range(draw(st.integers(0, 2)))]


def _outcome(check):
    try:
        return check()
    except BudgetExceeded:
        return "budget"


@settings(max_examples=150, deadline=None)
@given(component_systems(), st.sampled_from([None, 1, 5, 20, 60]), st.integers(1, 2))
def test_feedback_freedom_per_component_matches_the_whole_graph(system, budget, unroll):
    # True, False and the run budget agree with the reference check on each
    # run's whole graph, for the system and for the parts of a split
    d, constraints = system
    parts = [(d, constraints)]
    components = _var_parts(d, constraints)
    for names in components if len(components) > 1 else ():
        kept = [c for c in constraints if {v.name for v in free_vars(c)} <= set(names)]
        parts.append((project_system(d, [v for v in d.variables if v.name in names]), kept))
    halves = seq_decompose(d)
    parts += [(part, constraints) for part in halves[:2]] if halves else []
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(summary, "MAX_RUNS", budget)
        for part, cs in parts:
            assert _outcome(lambda: check_feedback_free(part, cs, unroll)) == _outcome(
                lambda: reference_feedback_free(part, cs, unroll)
            ), [v.name for v in part.variables]


# `damc summary`'s label of the auction, with no property and under each
# of its five properties
AUCTION_LABEL = (
    "var-compose({d}: seq-compose(exact-fixpoint, MC; cut='end'); "
    "{o,t,s}: seq-compose(MC, feedback-free; cut='end'); {b}: MC)"
)
AUCTION_PROPERTIES = [
    "F (sold & d>0 & o<=t)",
    "F (b=1 & o>t & F (sold & b!=1))",
    "F (sold & b=0)",
    "(s=0) U (d<=0 | o>t)",
    "G (s=0) | ((d>0 & o<=t) U (s!=0))",
]


@pytest.mark.parametrize("budget", [1, 5, 20, 60])
def test_certify_under_a_run_budget_matches_the_reference(auction, budget, monkeypatch):
    # a run budget hit inside the split tree gives the reference's label: at
    # a budget of 1 the auction's parts certify less than at the default
    loops = parsing.parse_model(FOUR_SELF_LOOPS_MODEL)
    systems = [(loops, "(x < y U 1 <= 1)")]
    systems += [(auction, text) for text in AUCTION_PROPERTIES]
    monkeypatch.setattr(summary, "MAX_RUNS", budget)
    for d, text in systems:
        constraints = constraints_of(preprocess(parsing.parse_property(text, d)))
        assert certify(d, constraints) == reference_detect_label(d, constraints), text


@settings(max_examples=150, deadline=None)
@given(component_systems(rich=True))
def test_detection_from_one_reading_matches_reading_each_part_afresh(system):
    # MC, the variable split, the projected guards and the parts'
    # constraints, answered from the per-formula facts for every part of the
    # split tree, and the label detection gives, agree with the references
    # that read every atom of each part afresh
    d, constraints = system
    todo = [(d, constraints, 0)]
    while todo:
        part, cs, depth = todo.pop()
        assert check_mc(part, cs) == reference_check_mc(part, cs)
        components = _var_parts(part, cs)
        assert components == reference_var_parts(part, cs)
        if depth == 3:
            continue
        for names in components if len(components) > 1 else ():
            side = [v for v in part.variables if v.name in names]
            projected = project_system(part, side)
            assert projected.guards == reference_project_guards(part, side)
            kept = summary._by_names(conj(*cs), set(names))[0]
            assert kept == reference_by_names(conj(*cs), set(names))[0]
            todo.append((projected, [kept], depth + 1))
        halves = seq_decompose(part) if len(components) < 2 else None
        todo += [(h, cs, depth + 1) for h in halves[:2]] if halves else []
    assert certify(d, constraints) == reference_detect_label(d, constraints)


def _detection(d, constraints):
    """The strategy `verify` runs on, the certificate label and the
    feedback-freedom outcome of a system."""
    label = certify(d, constraints)
    feedback_free = _outcome(lambda: check_feedback_free(d, constraints))
    return detect(d, constraints).describe(), label, feedback_free


@settings(max_examples=100, deadline=None)
@given(component_systems(rich=True), component_systems(rich=True))
def test_detections_in_turn_match_detections_from_a_cleared_memo(first, second):
    # the memos a detection stores on the system's objects (the model's
    # caches, and each atom's normal form) serve the next detection of that
    # system, and change no answer: each strategy, label and feedback-freedom
    # outcome is the one a detection on a copy without memos gives (a pickled
    # atom drops its normal form, and `replace` starts the caches empty)
    systems = (first, second, first)
    in_turn = [_detection(*system) for system in systems]
    afresh = []
    for system in systems:
        d, constraints = pickle.loads(pickle.dumps(system))
        afresh.append(_detection(d.replace(), constraints))
    assert in_turn == afresh


def test_certify_over_q_reads_no_gap_order_and_builds_no_transition_formula(
    auction, monkeypatch
):
    # psi11's certification splits the auction three ways and checks MC,
    # feedback freedom and the sequential split on every part; over Q no
    # atom is read for gap-order, and the computation graphs' pairs come
    # from the guards and the write sets
    psi = parsing.parse_property("F (sold & d>0 & o<=t)", auction)
    constraints = constraints_of(preprocess(psi))

    def no_transition_formula(d, action):
        raise AssertionError(f"transition formula of {action} built")

    tested = gap_order_reads(monkeypatch)
    monkeypatch.setattr(ddsa, "transition_formula", no_transition_formula)
    assert certify(auction, constraints) == AUCTION_LABEL
    assert tested == []


# The run a1 a1 has a collapsed path of 4 edges; the a0 steps of its maximal
# extension a1 a1 a0 a0 merge classes and leave one of 2.
LATE_MERGE = parsing.parse_model(
    "domain rat\nvars x y z\ninit x=0 y=0 z=0\nstates 0\ninitial 0\nfinal 0\n"
    "trans 0 a0 0 [z^r = y^r && x^r = z^r && y^w = z^w]\n"
    "trans 0 a1 0 [y^w - z^r > 0 && y^r - x^r > 0 && y^w - z^r > -1]\n"
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(component_systems(), st.integers(1, 4), st.integers(1, 2))
@example((LATE_MERGE, []), 3, 2)
def test_bounded_lookback_checks_every_run(system, K, unroll):
    d, constraints = system
    assert _outcome(lambda: check_bounded_lookback(d, constraints, K, unroll)) == _outcome(
        lambda: reference_bounded_lookback(d, constraints, K, unroll)
    )


def test_enumerate_symbolic_runs_budget(b1):
    runs = list(enumerate_symbolic_runs(b1, 2))
    assert [] in runs
    assert ["a1"] in runs and ["a1", "a2"] in runs
    assert max(len(r) for r in runs) == 4


# ---------------------------------------------------------------------------
# decompositions


def test_seq_decompose_auction_parts(auction):
    proj = project_system(auction, [VarId("o"), VarId("t"), VarId("s")])
    parts = seq_decompose(proj)
    assert parts is not None
    d1, d2, cut = parts
    assert cut == "end"
    assert set(d2.states) == {"end", "sold"}
    assert d1.finals == frozenset({"end"})
    assert d2.alpha0 is None  # symbolic initial assignment
    assert d2.finals == frozenset({"sold"})


def test_seq_decompose_strongly_connected(b1):
    assert seq_decompose(b1) is None


def test_seq_decompose_two_state_chain():
    d = Ddsa(
        states=("p", "q"),
        initial="p",
        actions=("go",),
        transitions=(("p", "go", "q"),),
        finals=frozenset({"q"}),
        variables=(x,),
        alpha0={x: F(0)},
        guards={"go": conj()},
        domain=RAT,
    )
    parts = seq_decompose(d)
    assert parts is not None
    d1, d2, cut = parts
    assert cut == "q" and set(d1.states) == {"p", "q"} and set(d2.states) == {"q"}


def test_var_parts_auction(auction):
    psi_atoms = [atom(VarId("b"), "=", 1), atom(VarId("o"), ">", VarId("t")), atom(VarId("b"), "!=", 1)]
    assert _var_parts(auction, psi_atoms) == [["d"], ["o", "t", "s"], ["b"]]


def test_var_parts_single_component(b1):
    assert _var_parts(b1, []) == [["x", "y"]]


def test_var_parts_independent_counters():
    d = Ddsa(
        states=("s",),
        initial="s",
        actions=("cx", "cy"),
        transitions=(("s", "cx", "s"), ("s", "cy", "s")),
        finals=frozenset({"s"}),
        variables=(x, y),
        alpha0={x: F(0), y: F(0)},
        guards={
            "cx": atom(VarId("x", "w"), ">", VarId("x", "r")),
            "cy": atom(VarId("y", "w"), ">", VarId("y", "r")),
        },
        domain=RAT,
    )
    assert _var_parts(d, []) == [["x"], ["y"]]


# ---------------------------------------------------------------------------
# detection


def test_detect_b1_mc(b1):
    # b1 is one component: detection gives the exact leaf, and MC is the
    # certificate
    strat = detect(b1, [])
    assert type(strat) is _Leaf and strat.describe() == "exact-fixpoint"
    assert certify(b1, []) == "MC"


def test_detect_b3_gc(b3):
    strat = detect(b3, [])
    assert type(strat) is _Leaf and strat.K == 4 and strat.describe() == "GC(K=4)"
    assert certify(b3, []) == "GC(K=4)"


def test_detect_gc_only_over_the_integers(b3):
    # b3's guards are gap-order shaped; over Q they get the exact leaf
    strat = detect(with_domain(b3, RAT), [])
    assert type(strat) is _Leaf and strat.describe() == "exact-fixpoint"
    assert certify(with_domain(b3, RAT), []) == "exact-fixpoint"


def test_detect_auction_shape(auction):
    C = [atom(VarId("b"), "=", 1), atom(VarId("o"), ">", VarId("t")), atom(VarId("b"), "!=", 1)]
    strat = detect(auction, C)
    # one exact leaf per component, in `_groups` order; the rational {d}
    # and {b} parts never get the integer GC leaf
    assert isinstance(strat, VarStrategy)
    assert [names for names, _ in strat.parts] == [("d",), ("o", "t", "s"), ("b",)]
    for names, leaf in strat.parts:
        assert type(leaf) is _Leaf and leaf.K is None
        assert [v.name for v in leaf.d.variables] == list(names)
    assert strat.describe() == (
        "var-compose({d}: exact-fixpoint; {o,t,s}: exact-fixpoint; {b}: exact-fixpoint)"
    )
    # certification splits on the same parts; a sequential split only
    # labels its (sub)system
    assert certify(auction, C) == AUCTION_LABEL


def _top_parts(label):
    """The names of a label's top-level `var-compose` parts, in order
    (none for an unsplit label)."""
    if not label.startswith("var-compose("):
        return []
    depth, parts = 0, []
    for m in re.finditer(r"[()]|\{([^}]*)\}", label):
        depth += {"(": 1, ")": -1}.get(m.group(0), 0)
        if depth == 1 and m.group(1) is not None:
            parts.append(m.group(1).split(","))
    return parts


def test_summary_certifies_the_parts_verify_solves(auction):
    # `damc summary`'s label lists the parts `verify` solves apart, with
    # the same names in the same order: every model over Q and the
    # four-self-loop system with no property, and under their properties
    loops = parsing.parse_model(FOUR_SELF_LOOPS_MODEL)
    models = [with_domain(load_model(p.name), RAT) for p in sorted(MODELS.glob("*.ddsa"))]
    for d in [*models, loops]:
        assert _top_parts(certify(d, [])) == _top_parts(detect(d, []).describe())
    assert _top_parts(certify(loops, [])) == [["x"], ["y"], ["u", "v"]]
    for d, text in [(loops, "(x < y U 1 <= 1)")] + [(auction, t) for t in AUCTION_PROPERTIES]:
        psi = parsing.parse_property(text, d)
        label = certify(d, constraints_of(preprocess(psi)))
        assert _top_parts(label) == _top_parts(verify(d, psi).strategy.describe()), text
    assert _top_parts(label) == [["d"], ["o", "t", "s"], ["b"]]


def test_parts_keep_the_declaration_order():
    # the parts are ordered by their first declared variable, so renaming a
    # variable moves no part: under `vars z m a` the part {z,a} comes first,
    # though a is the alphabetically least name
    base = "domain rat\nvars z m a\ninit z=0 m=0 a=0\nstates 1\ninitial 1\nfinal 1\n"
    split = "var-compose({z,a}: exact-fixpoint; {m}: exact-fixpoint)"
    mc = parsing.parse_model(base + "trans 1 p 1 [z^w > a^r]\ntrans 1 q 1 [m^w > m^r]\n")
    assert detect(mc, []).describe() == split
    assert certify(mc, []) == "MC"
    # with a non-MC guard on {z,a}, certification splits on the same parts
    d = parsing.parse_model(base + "trans 1 p 1 [z^w > z^r + a^r]\ntrans 1 q 1 [m^w > m^r]\n")
    assert detect(d, []).describe() == split
    assert certify(d, []) == "var-compose({z,a}: exact-fixpoint; {m}: MC)"


def _independent_counters(n):
    """One control with a self-loop per variable that raises it alone."""
    loops = "".join(f"trans 1 c{i} 1 [x{i}^w > x{i}^r]\n" for i in range(n))
    names = [f"x{i}" for i in range(n)]
    return parsing.parse_model(
        f"domain rat\nvars {' '.join(names)}\ninit {' '.join(n + '=0' for n in names)}\n"
        f"states 1\ninitial 1\nfinal 1\n{loops}"
    )


def test_detect_gives_each_independent_variable_a_part():
    # ten independent counters make ten parts: detection does not recurse,
    # so no depth bounds the split (certification's tree stops at depth 8)
    d = _independent_counters(10)
    strat = detect(d, [])
    assert [names for names, _ in strat.parts] == [(f"x{i}",) for i in range(10)]
    assert strat.describe() == (
        "var-compose(" + "; ".join(f"{{x{i}}}: exact-fixpoint" for i in range(10)) + ")"
    )
    # a label's conjuncts go to the parts that hold their names, and a
    # variable-free one to part 0
    label = conj(atom(VarId("x9"), ">", 1), atom(1, ">", 0), atom(VarId("x0"), "=", 0))
    split = strat._split([label])
    assert split[0] == [atom(1, ">", 0), atom(VarId("x0"), "=", 0)]
    assert split[9] == [atom(VarId("x9"), ">", 1)]
    assert all(part == [] for part in split[1:9])


def test_detect_nothing_for_two_counter_style():
    # integer domain with a non-gap-order guard: no criterion applies
    d = Ddsa(
        states=("1", "2"),
        initial="1",
        actions=("a1", "a2"),
        transitions=(("1", "a1", "2"), ("2", "a2", "1")),
        finals=frozenset({"2"}),
        variables=(x, y),
        alpha0={x: F(0), y: F(0)},
        guards={
            "a1": atom(VarId("x", "w"), ">", VarId("y", "r")),
            "a2": atom(
                Term.of(VarId("y", "w")),
                "=",
                Term.of(VarId("y", "r")) + Term.of(VarId("x", "r")),
            ),
        },
        domain=INT,
    )
    with pytest.raises(NoSummaryFound):
        detect(d, [])
    with pytest.raises(NoSummaryFound):
        certify(d, [])


# ---------------------------------------------------------------------------
# constraint graphs


def test_constraint_graph_b1_golden(b1):
    strat = detect(b1, [])
    g = constraint_graph(b1, strat)
    assert len(g.nodes) == 4
    phi0 = conj(atom(x, "=", 0), atom(y, "=", 0))
    phi1 = conj(atom(x, ">", 0), atom(y, "=", 0))
    phi2 = conj(atom(x, ">", 0), atom(y, ">", x))
    phi3 = conj(atom(x, ">", y), atom(y, ">", 0))
    expected = [("1", phi0), ("2", phi1), ("1", phi2), ("2", phi3)]
    for node, (state, phi) in zip(g.nodes, expected):
        assert node.state == state
        assert equivalent(node.formula, phi, RAT)
    # the a2 edge from (2, phi3) closes back onto (1, phi2)
    assert (3, "a2", 2) in g.edges


def test_constraint_graph_b3_finite_under_cutoff(b3):
    strat = detect(b3, [])
    g = constraint_graph(b3, strat, max_nodes=100)
    assert len(g.nodes) == 6
    # but logical-equivalence classes diverge: with plain equivalence the
    # same exploration would keep finding new formulas
    h2 = history_constraint(b3, ["a1", "a2"])
    h4 = history_constraint(b3, ["a1", "a2", "a1", "a2"])
    assert not equivalent(h2, h4, INT)
    assert solve.gc_equivalent(to_dnf(h2, INT), to_dnf(h2, INT), strat.K)


def test_constraint_graph_single_state():
    d = Ddsa(
        states=("s",),
        initial="s",
        actions=(),
        transitions=(),
        finals=frozenset({"s"}),
        variables=(x,),
        alpha0={x: F(0)},
        guards={},
        domain=RAT,
    )
    g = constraint_graph(d, detect(d, []))
    assert len(g.nodes) == 1 and g.edges == []


def test_constraint_graph_budget():
    # a diverging rational system that no criterion covers gets the exact
    # leaf, whose fixpoint is infinite: the budget turns non-convergence
    # into a diagnostic
    d = Ddsa(
        states=("s",),
        initial="s",
        actions=("inc",),
        transitions=(("s", "inc", "s"),),
        finals=frozenset({"s"}),
        variables=(x,),
        alpha0={x: F(0)},
        guards={
            "inc": atom(
                Term.of(VarId("x", "w")), "=", Term.of(VarId("x", "r")) + Term.of(1)
            )
        },
        domain=RAT,
    )
    strat = detect(d, [])
    assert strat.describe() == "exact-fixpoint"
    with pytest.raises(BudgetExceeded):
        constraint_graph(d, strat, max_nodes=10)


def test_constraint_graph_nodes_match_history_constraints(b1, b3):
    # soundness: representatives along paths are equivalent (under the
    # strategy's relation) to the run's history constraint
    for d in (b1, b3):
        strat = detect(d, [])
        g = constraint_graph(d, strat)
        # walk all simple paths up to length 6
        def paths(i, acc, depth):
            yield list(acc)
            if depth == 6:
                return
            for (src, a, dst) in g.edges:
                if src == i:
                    acc.append((a, dst))
                    yield from paths(dst, acc, depth + 1)
                    acc.pop()

        for p in paths(0, [], 0):
            actions = [a for a, _ in p]
            node = g.nodes[p[-1][1]] if p else g.nodes[0]
            h = history_constraint(d, actions)
            if strat.K is None:
                assert equivalent(node.formula, h, RAT)
            else:
                cubes = (to_dnf(f, INT) for f in (node.formula, h))
                assert solve.gc_equivalent(*cubes, strat.K)


# ---------------------------------------------------------------------------
# Equivalence refuted by stored sat models


def _no_solver(*args):
    raise AssertionError("the solver was asked")


def _solved(leaf, f):
    """A class of the leaf for the formula's DNF, after its sat check."""
    state = leaf.label([f])
    leaf.sat(state)
    return leaf._class(state)


def test_gc_refutation_compares_cutoffs(b1_int, monkeypatch):
    # the states differ only above K, so they are cutoff-equivalent although
    # the stored model of the first falsifies the second
    gc = _Leaf(b1_int, K=3)
    a, b = (_solved(gc, atom(Term.of(x) - y, ">=", k)) for k in (5, 7))
    assert a.model is not None and b.model is not None
    assert not evaluate(dnf_to_formula(b.state), a.model)
    assert gc.equiv(a, b) and gc.equiv(b, a)
    # below K a stored model refutes without the solver
    c = _solved(gc, atom(Term.of(x) - y, ">=", 1))
    assert c.model is not None
    monkeypatch.setattr(solve, "equivalent", _no_solver)
    assert not gc.equiv(c, a)


def test_mc_stored_model_refutes_without_the_solver(b1, monkeypatch):
    mc = _Leaf(b1)
    a, b = _solved(mc, atom(x, ">=", 0)), _solved(mc, atom(x, ">", 0))
    assert a.model is not None and b.model is not None
    monkeypatch.setattr(solve, "equivalent", _no_solver)
    assert not mc.equiv(a, b)
    # x > -1 was never solved, and b's model (x = 1) satisfies it
    never = mc._class(mc.label([atom(x, ">", -1)]))
    with pytest.raises(AssertionError, match="the solver was asked"):
        mc.equiv(never, b)


GC_SHAPES = (
    lambda k: atom(Term.of(x) - y, ">=", k),
    lambda k: atom(Term.of(y) - x, ">=", k),
    lambda k: atom(x, ">=", k),
    lambda k: atom(y, "<=", k),
    lambda k: atom(x, "!=", k),
    lambda k: atom(x, "=", y),
)
MC_SHAPES = (
    lambda c: atom(x, "<", c),
    lambda c: atom(y, ">=", c),
    lambda c: atom(x, "=", c),
    lambda c: atom(y, "!=", c),
    lambda c: atom(x, "<=", y),
    lambda c: atom(x, "!=", y),
)


@st.composite
def state_pairs(draw, shapes, constants):
    """Two states of one shape whose constants differ here and there, so
    that equivalent pairs, refuted pairs and pairs only the solver tells
    apart all occur."""
    spec = st.tuples(
        st.sampled_from(shapes), constants, st.one_of(st.none(), constants)
    )
    cubes = draw(st.lists(st.lists(spec, min_size=1, max_size=3), min_size=1, max_size=2))
    s1 = disj(*(conj(*(f(c) for f, c, _ in cube)) for cube in cubes))
    s2 = disj(*(conj(*(f(c if d is None else d) for f, c, d in cube)) for cube in cubes))
    return s1, s2


@settings(max_examples=150, deadline=None)
@given(state_pairs(MC_SHAPES, st.sampled_from([F(-1), F(0), F(1, 2), F(2)])))
def test_mc_equiv_after_sat_agrees_with_the_solver(b1, pair):
    mc = _Leaf(b1)
    assert mc.equiv(*(_solved(mc, s) for s in pair)) == equivalent(*pair, RAT)


@settings(max_examples=150, deadline=None)
@given(state_pairs(GC_SHAPES, st.integers(0, 6)), st.integers(1, 5))
@example((conj(atom(x, ">=", 1), atom(x, "!=", 0)), conj(atom(x, ">=", 1), atom(x, "!=", 1))), 1)
def test_gc_equiv_after_sat_agrees_with_the_solver(b1_int, pair, K):
    # a class compares the cutoffs of its integer cubes, `to_dnf(., INT)`
    # of the drawn formulas: `x >= 1 && x != 1` is the cube `x > 1`, whose
    # row `x >= 2` is cut at K = 1 to `x >= 1`, as `x >= 1 && x != 0` is
    gc = _Leaf(b1_int, K=K)
    a, b = (_solved(gc, s) for s in pair)
    assert gc.equiv(a, b) == solve.gc_equivalent(*(to_dnf(s, INT) for s in pair), K)


# ---------------------------------------------------------------------------
# Computation graphs against the per-step construction


@pytest.mark.parametrize("name", sorted(p.name for p in MODELS.glob("*.ddsa")))
def test_computation_graph_matches_per_step_reference(name):
    d = load_model(name)
    v0, v1 = d.variables[0], d.variables[-1]
    # an equality edge, a general edge and a single-variable atom
    constraints = [atom(v0, "=", v1), atom(Term.of(v0) + v1, ">", 5), atom(v0, ">", 0)]
    runs = list(enumerate_symbolic_runs(d, 2))
    assert len(runs) >= 5
    for actions in runs:
        g = computation_graph(d, actions, constraints)
        ref = reference_computation_graph(d, actions, constraints)
        assert (g.eq_edges, g.gen_edges) == (ref.eq_edges, ref.gen_edges), actions
