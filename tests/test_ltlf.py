import functools
import itertools
import random
from fractions import Fraction as F

import pytest

from damc import oracle, parsing
from damc.formula import Term, VarId, atom
from damc.ltlf import (
    BOT,
    TOP,
    ActionAtom,
    ActNext,
    Always,
    Constr,
    DeltaEntry,
    Eventually,
    LAnd,
    LOr,
    LengthMismatch,
    Next,
    QE_STATE,
    StateAtom,
    Until,
    build_nfa,
    constraints_of,
    delta,
    fmt_symbol,
    land,
    lor,
    preprocess,
    run_models,
    walk,
    word_consistent,
)
from damc.product import verify

from conftest import (
    PAPER_NESTED_NEXT_EDGES,
    golden_queries,
    load_model,
    minimal_edges,
    nfa_paths,
    with_domain,
)

x, y = VarId("x"), VarId("y")
C_Y5 = Constr(atom(y, ">", 5))


def edge_set(nfa):
    return {(nfa.state_name(e.src), fmt_symbol(e.symbol), nfa.state_name(e.dst)) for e in nfa.edges}


# ---------------------------------------------------------------------------
# preprocessing


def test_preprocess_action_modality():
    psi = ActNext("a1", Constr(atom(x, ">", 0)))
    out = preprocess(psi)
    assert out == Next(land(ActionAtom("a1"), Constr(atom(x, ">", 0))))


def test_preprocess_fixpoint_without_modalities():
    psi = Eventually(C_Y5)
    assert preprocess(psi) == psi


def test_preprocess_nested_modalities():
    true_c = Constr(atom(Term.of(0), "=", Term.of(0)))
    psi = Eventually(ActNext("storno", ActNext("reopen", true_c)))
    out = preprocess(psi)
    expected = Eventually(
        Next(land(ActionAtom("storno"), Next(land(ActionAtom("reopen"), true_c))))
    )
    assert out == expected


# ---------------------------------------------------------------------------
# delta


def test_delta_next():
    psi = Next(C_Y5)
    out = delta(psi)
    assert DeltaEntry(C_Y5, frozenset(), not_last=True) in out
    assert DeltaEntry(BOT, frozenset(), last=True) in out
    assert len(out) == 2


def test_delta_eventually():
    c = C_Y5
    psi = Eventually(c)
    out = delta(psi)
    sym = frozenset({c})
    assert DeltaEntry(TOP, sym, not_last=True) in out
    assert DeltaEntry(TOP, sym, last=True) in out
    assert DeltaEntry(psi, frozenset(), not_last=True) in out
    assert DeltaEntry(BOT, frozenset(), last=True) in out


def test_delta_top():
    assert delta(TOP) == [DeltaEntry(TOP, frozenset())]


# ---------------------------------------------------------------------------
# NFA goldens


def test_nfa_simple_eventually():
    psi = Eventually(C_Y5)
    nfa = build_nfa(psi)
    names = [nfa.state_name(i) for i in range(len(nfa.states))]
    assert len(names) == 3  # psi, true, q_e (bot sink dropped)
    es = edge_set(nfa)
    psi_s = nfa.state_name(nfa.initial)
    assert es == {
        (psi_s, "{y > 5}", "true"),
        (psi_s, "{y > 5}", "q_e"),
        (psi_s, "{}", psi_s),
        ("true", "{}", "true"),
    }


def test_nfa_nested_next_golden():
    # F (b & X (x - y >= 2)) over a system with state atom "b"
    c = Constr(atom(Term.of(x) - Term.of(y), ">=", 2))
    psi = Eventually(land(StateAtom("b"), Next(c)))
    nfa = build_nfa(psi)
    assert len(nfa.states) == 4
    psi_s = nfa.state_name(nfa.initial)
    mid = [
        nfa.state_name(i)
        for i, s in enumerate(nfa.states)
        if i != nfa.initial and s not in (TOP, QE_STATE)
    ]
    assert len(mid) == 1
    mid_s = mid[0]
    # the paper's two {b, x - y >= 2} edges are dominated by {x - y >= 2}
    expected = minimal_edges(PAPER_NESTED_NEXT_EDGES, {"p": psi_s, "m": mid_s})
    assert len(expected) == 7
    assert sorted(edge_set(nfa)) == expected and len(nfa.edges) == 7


def test_nfa_auction_psi12_shape(auction):
    # psi, psi' = psi | F(sold & b != 1), true, q_e; the automaton is the
    # formula's, so the all-atoms symbol {b = 1, b != 1, o > t, sold}, whose
    # constraints cannot hold together, keeps its two edges, and the
    # product refutes it on every node, as it refutes any other label
    psi = parsing.parse_property("F (b=1 & o>t & F (sold & b!=1))", auction)
    nfa = build_nfa(preprocess(psi))
    assert (len(nfa.states), len(nfa.edges)) == (4, 8)
    clash = lambda symbol: {"b = 1", "b != 1"} <= {str(s) for s in symbol}  # noqa: E731
    assert sorted(fmt_symbol(e.symbol) for e in nfa.edges if clash(e.symbol)) == [
        "{b != 1, b = 1, o > t, sold}"
    ] * 2
    v = verify(auction, psi)
    assert v.kind == "witness" and v.sizes["nfa_edges"] == 8
    assert v.product.edges and not [e for e in v.product.edges if clash(e.symbol)]


def test_nfa_symbols_are_sets_of_the_property_atoms():
    # a symbol holds the property's own atom nodes, nothing that wraps them
    edges = 0
    for model, dom, text in golden_queries():
        d = with_domain(load_model(model), dom)
        pre = preprocess(parsing.parse_property(text, d))
        atoms = {n for n in walk(pre) if isinstance(n, (Constr, StateAtom, ActionAtom))}
        for e in build_nfa(pre).edges:
            edges += 1
            assert e.symbol <= atoms, (text, fmt_symbol(e.symbol))
    assert edges > 100


def test_nfa_explores_each_state_once_in_index_order():
    # a state explored twice, or out of order, would list its edges again
    for model, dom, text in golden_queries():
        d = with_domain(load_model(model), dom)
        nfa = build_nfa(preprocess(parsing.parse_property(text, d)))
        assert len(set(nfa.states)) == len(nfa.states), text
        srcs = [e.src for e in nfa.edges]
        assert srcs == sorted(srcs), text
        assert len(set(nfa.edges)) == len(nfa.edges), text


def test_nfa_deterministic_construction():
    psi = Until(Constr(atom(x, "=", 0)), Eventually(C_Y5))
    a = build_nfa(psi)
    b = build_nfa(psi)
    assert [str(s) for s in a.states] == [str(s) for s in b.states]
    assert [(e.src, e.dst, fmt_symbol(e.symbol)) for e in a.edges] == [
        (e.src, e.dst, fmt_symbol(e.symbol)) for e in b.edges
    ]


def test_qe_state_has_no_outgoing():
    psi = Always(C_Y5)
    nfa = build_nfa(psi)
    qe = next(i for i, s in enumerate(nfa.states) if s == QE_STATE)
    assert nfa.outgoing(qe) == []
    assert qe in nfa.finals


# ---------------------------------------------------------------------------
# direct semantics


def sample_witness_run(b1):
    from damc.ddsa import Config, Run

    mk = lambda s, xv, yv: Config.make(s, {x: F(xv), y: F(yv)})
    return Run(
        (mk("1", 0, 0), mk("2", 1, 0), mk("1", 1, 7), mk("2", 9, 7)),
        ("a1", "a2", "a1"),
    )


def test_run_models_sample_witness(b1):
    run = sample_witness_run(b1)
    assert run_models(b1, run, 0, Eventually(C_Y5))


def test_run_models_empty_run_box(b1):
    from damc.ddsa import Config, Run

    run = Run((Config.make("1", {x: F(0), y: F(0)}),), ())
    assert run_models(b1, run, 0, Always(Constr(atom(x, "=", 0))))


def test_run_models_next_at_end(b1):
    run = sample_witness_run(b1)
    assert not run_models(b1, run, 3, Next(TOP))


def test_run_models_action_modality(b1):
    run = sample_witness_run(b1)
    assert run_models(b1, run, 0, ActNext("a1", TOP))
    assert not run_models(b1, run, 0, ActNext("a2", TOP))


def test_run_models_reads_an_action_as_the_one_the_run_took(two_actions):
    # the run took b into x = 2, which a's guard also allows: an action atom
    # names the action taken, so a holds nowhere on the run, as no word
    # with an a is consistent with it
    from damc.ddsa import Config, Run

    d = two_actions
    run = Run((Config.make("s", {x: 0}), Config.make("t", {x: 2})), ("b",))
    for text, holds in [("<a> true", False), ("F a", False), ("X a", False),
                        ("X (a & b)", False), ("<b> true", True), ("F b", True), ("X b", True)]:
        pre = preprocess(parsing.parse_property(text, d))
        assert run_models(d, run, 0, pre) == holds, text
    assert not word_consistent(d, [frozenset(), frozenset({ActionAtom("a")})], run)


def test_word_consistent_sample_word(b1):
    run = sample_witness_run(b1)
    word = [frozenset(), frozenset(), frozenset({C_Y5}), frozenset()]
    assert word_consistent(b1, word, run)


def test_word_consistent_wrong_action(b1):
    run = sample_witness_run(b1)
    word = [frozenset(), frozenset({ActionAtom("a2")}), frozenset(), frozenset()]
    assert not word_consistent(b1, word, run)


def test_word_consistent_has_no_action_at_position_0(b1):
    # no step leads into position 0, so no action atom holds there, as
    # run_models says; the step's target state is position 0's state
    from damc.ddsa import Config, Run

    run = Run((Config.make("1", {x: 0, y: 0}),), ())
    assert not run_models(b1, run, 0, ActionAtom("a1"))
    assert not word_consistent(b1, [frozenset({ActionAtom("a1")})], run)
    assert not word_consistent(b1, [frozenset({StateAtom("2")})], run)
    assert word_consistent(b1, [frozenset({StateAtom("1")})], run)
    longer = sample_witness_run(b1)
    word = [frozenset({ActionAtom("a1")}), frozenset(), frozenset(), frozenset()]
    assert not word_consistent(b1, word, longer)


def test_word_consistent_all_empty(b1):
    run = sample_witness_run(b1)
    assert word_consistent(b1, [frozenset()] * 4, run)
    with pytest.raises(LengthMismatch):
        word_consistent(b1, [frozenset()] * 3, run)


# ---------------------------------------------------------------------------
# NFA acceptance agrees with the trace semantics (sampled here; the bulk
# suite lives in test_acceptance)


def accepts_consistent_word(d, nfa, run):
    for path in nfa_paths(nfa, len(run) + 1):
        word = [e.symbol for e in path]
        if word_consistent(d, word, run):
            return True
    return False


def psis_for(d):
    c1 = Constr(atom(y, ">", 2))
    c2 = Constr(atom(x, "=", 0))
    state = StateAtom(d.states[0])
    yield Eventually(c1)
    yield Always(lor(c2, c1))
    yield Until(c2, c1)
    yield Next(c1)
    yield land(state, lor(Eventually(c2), Next(Next(c1))))


def random_psi(d, rng, depth):
    """A property over d's states, actions and x, y bounds with F, G, X, U,
    &, | and <a> nested at most `depth` deep."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.25:
            return StateAtom(rng.choice(d.states))
        bound = F(rng.randrange(7), 2)
        return Constr(atom(rng.choice((x, y)), rng.choice(("<", "<=", ">", ">=", "=")), bound))
    sub = lambda: random_psi(d, rng, depth - 1)  # noqa: E731
    op = rng.choice("FGXU&|a")
    if op in "U&|":
        return {"U": Until, "&": land, "|": lor}[op](sub(), sub())
    if op == "a":
        return ActNext(rng.choice(d.actions), sub())
    return {"F": Eventually, "G": Always, "X": Next}[op](sub())


def random_psis(d, rng):
    for _ in range(40):
        yield random_psi(d, rng, 3)
    for width in (2, 3, 4):
        parts = [land(random_psi(d, rng, 0), random_psi(d, rng, 0)) for _ in range(width)]
        yield rng.choice((Eventually, Always))(functools.reduce(lor, parts))
    yield functools.reduce(lambda r, p: Until(p, r), [random_psi(d, rng, 1) for _ in range(4)])


def test_nfa_acceptance_matches_semantics(b1, b2):
    # the fixed properties, then seeded random ones: the NFA keeps only
    # ⊆-minimal symbols, and still accepts a word consistent with a run
    # exactly when the run satisfies the property
    from conftest import frac_grid

    rng = random.Random(12)
    for d in (b1, b2):
        runs = list(oracle.enumerate_runs(d, 3, frac_grid(0, 3, halves=True)))
        for psi in itertools.chain(psis_for(d), random_psis(d, rng)):
            pre = preprocess(psi)
            nfa = build_nfa(pre)
            for run in runs:
                assert accepts_consistent_word(d, nfa, run) == run_models(d, run, 0, pre), psi


def test_nfa_entry_into_top_keeps_the_next_position(b1):
    # X true holds only where a next position exists: its entry into Top is
    # not-last, so the one-symbol word of a length-0 run must be rejected
    from conftest import frac_grid

    runs = list(oracle.enumerate_runs(b1, 3, frac_grid(0, 3, halves=True)))
    assert {len(run) for run in runs} == {0, 1, 2, 3}
    for psi in (Next(TOP), Next(Next(TOP)), LOr(Constr(atom(y, ">", 2)), Next(TOP))):
        nfa = build_nfa(psi)
        for run in runs:
            assert accepts_consistent_word(b1, nfa, run) == run_models(b1, run, 0, psi), (psi, run)


def test_boolean_combinators_simplify_in_context():
    c1, c2, c3 = Constr(atom(y, ">", 2)), Constr(atom(x, "=", 0)), StateAtom("1")
    assert land(c1, lor(c1, c2)) == c1
    assert lor(c1, land(c1, c2)) == c1
    # beside the disjunct c1, the c1 inside the conjunction is false
    assert lor(c1, land(c2, lor(c1, c3))) == lor(c1, land(c2, c3))
    assert land(c1, lor(c2, land(c1, c3))) == land(c1, lor(c2, c3))


def test_nfa_of_until_between_unbounded_operands_closes(b1):
    # the states of (G p) U (F q) were F q | (G p & (F q | (G p & ...))),
    # ever deeper, and the construction never ended
    from conftest import frac_grid

    runs = list(oracle.enumerate_runs(b1, 3, frac_grid(0, 3, halves=True)))[:60]
    c1, c2 = Constr(atom(y, ">", 2)), Constr(atom(x, "=", 0))
    for left, right in itertools.product((Eventually, Always), repeat=2):
        pre = preprocess(Until(left(c2), right(c1)))
        nfa = build_nfa(pre)
        assert len(nfa.states) <= 8
        for run in runs:
            assert accepts_consistent_word(b1, nfa, run) == run_models(b1, run, 0, pre)


def test_delta_totality_on_runs(b1):
    # every quoted state has an entry consistent with any run position
    from conftest import frac_grid

    runs = list(oracle.enumerate_runs(b1, 2, frac_grid(0, 2)))
    psi = preprocess(Eventually(land(C_Y5, Next(Constr(atom(x, ">", 0))))))
    states = [psi]
    seen = set()
    while states:
        q = states.pop()
        if q in seen or q in (TOP, BOT):
            continue
        seen.add(q)
        entries = delta(q)
        for run in runs:
            for i in range(len(run) + 1):
                ok = False
                for e in entries:
                    if i < len(run) and e.last:
                        continue
                    if i == len(run) and e.not_last:
                        continue
                    word = [e.symbol]
                    alpha = run.configs[i].assignment()
                    from damc.formula import evaluate
                    from damc.ltlf import constr_of

                    if all(evaluate(c, alpha) for c in constr_of(e.symbol)):
                        ok = True
                        break
                assert ok, f"delta not total at {q} position {i}"
        states.extend(e.target for e in entries)
