import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import damc
from damc import certificates, ddsa as dd, ltlf as lt, oracle, parsing, product, solve, summary
from damc.cli import _verdict_json
from damc.ddsa import Ddsa, validate_run
from damc.formula import (
    INT,
    PLAIN,
    RAT,
    TRUE,
    And,
    Term,
    VarId,
    atom,
    conj,
    disj,
    free_vars,
)
from damc.product import (
    build_product,
    constraint_graph,
    find_accepting_path,
    extract_witness,
    verify,
)
from damc.summary import detect

from conftest import (
    assert_exact_formula,
    check_closed,
    equivalent,
    frac_grid,
    gap_order_reads,
    gc_norm,
    is_exact,
    load_model,
    negate,
    reference_accepting_path,
    reference_joint_run,
    with_domain,
)

x, y = VarId("x"), VarId("y")


def build_b1_product(b1, prop_text="F (y > 5)"):
    psi = parsing.parse_property(prop_text, b1)
    pre = lt.preprocess(psi)
    nfa = lt.build_nfa(pre)
    strat = detect(b1, lt.constraints_of(pre))
    prod = build_product(b1, nfa, strat, 1000)
    return prod.nodes[prod.initial].state, nfa, prod, pre


def test_product_adds_its_own_root(b1):
    # node 0 sits at a control the system lacks; its one action, which the
    # system lacks too, enters the initial control and moves nothing; no
    # other edge reads that action or enters the root
    root, _, prod, _ = build_b1_product(b1)
    assert prod.initial == 0 and root == "_init"
    assert root not in b1.states
    out = [e for e in prod.edges if e.src == 0]
    assert out and {e.action for e in out} == {"_start"} and "_start" not in b1.actions
    assert all(prod.nodes[e.dst].state == b1.initial for e in out)
    assert all(e.action != "_start" and e.dst != 0 for e in prod.edges if e.src != 0)
    assert prod.nodes[out[0].dst].cls == prod.nodes[0].cls  # x = y = 0 still


def test_check_closed_names_the_action_of_a_root_with_no_edge(b1):
    # position 0 fails `x > 0`, so the root has no edge to read its action
    # off, and the reference checks the root's one step on a name of its own
    v = verify(b1, parsing.parse_property("x > 0", b1))
    assert v.kind == "no-witness" and v.sizes["product_edges"] == 0
    assert check_closed(b1, v) == 0


@pytest.mark.parametrize(
    "states, root, start",
    [("_init s", "_init1", "_start1"), ("_init _init1 s", "_init2", "_start1")],
)
def test_product_root_takes_a_name_the_model_leaves_free(states, root, start):
    # a model may declare `_init` and `_start` itself: the root takes the
    # next free name, and the witness starts at the model's own `_init`
    d = parsing.parse_model(
        f"domain rat\nvars x\ninit x=0\nstates {states}\ninitial _init\nfinal s\n"
        "trans _init _start s [x^w > x^r]\n"
    )
    v = verify(d, parsing.parse_property("F (x > 0)", d))
    assert v.kind == "witness" and v.run.actions == ("_start",)
    assert v.run.configs[0].state == "_init"
    assert v.product.nodes[0].state == root and v.product.edges[0].action == start


def test_product_b1_golden(b1):
    root, nfa, prod, _ = build_b1_product(b1)
    assert len(prod.nodes) == 9
    phi = {
        "phi0": conj(atom(x, "=", 0), atom(y, "=", 0)),
        "phi1": conj(atom(x, ">", 0), atom(y, "=", 0)),
        "phi2": conj(atom(x, ">", 0), atom(y, ">", x)),
        "phi3": conj(atom(x, ">", y), atom(y, ">", 0)),
        "phi2c": conj(atom(x, ">", 0), atom(y, ">", x), atom(y, ">", 5)),
        "phi3c": conj(atom(x, ">", y), atom(y, ">", 5)),
        "phi2s": conj(atom(x, ">", 5), atom(y, ">", x)),
    }
    expected = {
        (root, "psi", "phi0"),
        ("1", "psi", "phi0"),
        ("2", "psi", "phi1"),
        ("1", "psi", "phi2"),
        ("2", "psi", "phi3"),
        ("1", "top", "phi2c"),
        ("2", "top", "phi3c"),
        ("2", "qe", "phi3c"),
        ("1", "top", "phi2s"),
    }
    got = set()
    for n in prod.nodes:
        qname = prod.nfa.state_name(n.q)
        kind = "qe" if qname == "q_e" else ("top" if qname == "true" else "psi")
        key = next(k for k, f in phi.items() if equivalent(n.formula, f, RAT))
        got.add((n.state, kind, key))
    assert got == expected
    # exactly one final pair (2, top) and (2, qe) on the phi3-with-constraint class
    finals = {(prod.nodes[i].state, prod.nfa.state_name(prod.nodes[i].q)) for i in prod.finals}
    assert finals == {("2", "true"), ("2", "q_e")}


def test_find_accepting_path_shortest(b1):
    _, nfa, prod, _ = build_b1_product(b1)
    path = find_accepting_path(prod)
    assert path is not None
    assert len(path) == 4  # the root's step, a1, a2 (constraint), a1
    assert [e.action for e in path][1:] == ["a1", "a2", "a1"]


def test_find_accepting_path_none(b1):
    _, nfa, prod, _ = build_b1_product(b1, "F (y > 5 & y < 0)")
    assert find_accepting_path(prod) is None


def test_extract_witness_validates(b1):
    _, nfa, prod, pre = build_b1_product(b1)
    path = find_accepting_path(prod)
    run, word = extract_witness(b1, prod, path)
    assert validate_run(b1, run)
    assert run.configs[-1].state in b1.finals
    assert lt.run_models(b1, run, 0, pre)
    final = run.configs[-1].assignment()
    assert final[y] > 5 and final[x] > final[y]


def test_realize_run_is_none_on_an_unsatisfiable_history(b1):
    # a1 writes x > y from x = y = 0, so no run reaches x < 0 after it; the
    # same run without that constraint is realized
    assert product.realize_run(b1, ["a1"], [[], [atom(x, "<", 0)]]) is None
    run = product.realize_run(b1, ["a1"], [[], []])
    assert run is not None and validate_run(b1, run) and run.actions == ("a1",)


def test_verify_b1_witness(b1):
    v = verify(b1, parsing.parse_property("F (y > 5)", b1))
    assert v.kind == "witness"
    assert v.sizes["product_nodes"] == 9


def test_verify_no_witness_unsat_constraint(b1):
    v = verify(b1, parsing.parse_property("F (y > 5 & y < 0)", b1))
    assert v.kind == "no-witness"


def test_verify_immediate_witness():
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
    v = verify(d, parsing.parse_property("x = 0", d))
    assert v.kind == "witness"
    assert len(v.run) == 0
    v2 = verify(d, parsing.parse_property("x = 1", d))
    assert v2.kind == "no-witness"


def test_verify_inconclusive_without_summary():
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
                VarId("y", "w"),
                "=",
                VarId("y", "r"),
            ),
        },
        domain=RAT,
    )
    # make a2's guard non-MC/GC and the control flow unbounded
    from damc.formula import Term

    d.guards["a2"] = atom(
        Term.of(VarId("y", "w")), "=", Term.of(VarId("y", "r")) + Term.of(VarId("x", "r"))
    )
    from damc.formula import INT

    from conftest import with_domain

    v = verify(with_domain(d, INT), parsing.parse_property("F (y > 5)", d))
    assert v.kind == "inconclusive"


def test_verify_budget_exceeded_is_inconclusive(b1):
    v = verify(b1, parsing.parse_property("F (y > 5)", b1), max_nodes=3)
    assert v.kind == "inconclusive"


def test_solver_budget_in_the_constraint_graph_keeps_its_message(monkeypatch):
    # a DNF blow-up stops the graph at its first image; that is not the
    # node budget, and the message must not say so
    d = parsing.parse_model(
        "domain rat\nvars x\ninit x=0\nstates 1\ninitial 1\nfinal 1\n"
        "trans 1 a 1 [x^w != x^r && x^w != 5]\n"
    )
    strategy = detect(d, [])
    monkeypatch.setattr(solve, "_DNF_CUBE_LIMIT", 2)
    with pytest.raises(solve.BudgetExceeded, match="^DNF blow-up$"):
        constraint_graph(d, strategy, 50)


def test_witness_word_consistency(b1):
    v = verify(b1, parsing.parse_property("F (y > 5)", b1))
    assert lt.word_consistent(b1, v.word, v.run)


def test_b3_integer_witness(b3):
    v = verify(b3, parsing.parse_property("F (y > 5)", b3))
    assert v.kind == "witness"
    for c in v.run.configs:
        assert all(val.denominator == 1 for _, val in c.alpha)


def test_finals_nonempty_iff_path_found(b1):
    for prop, nonempty in (("F (y > 5)", True), ("F (y > 5 & y < 0)", False)):
        _, nfa, prod, _ = build_b1_product(b1, prop)
        assert bool(prod.finals) == nonempty
        assert (find_accepting_path(prod) is not None) == nonempty


def test_auction_agrees_with_oracle_at_desk_scale(auction):
    # composed-strategy verdicts against the brute-force referee; the grid
    # needs the +10 band so the fee action is executable
    base = [F(0), F(1, 2), F(1), F(3, 2)]
    grid = base + [v + 10 for v in base]
    cases = [
        ("F (sold & b=0)", "no-witness"),
        ("(s=0) U (d<=0 | o>t)", "witness"),
    ]
    for text, expect in cases:
        psi = parsing.parse_property(text, auction)
        assert verify(auction, psi).kind == expect
        found = oracle.brute_force_witness(auction, psi, 5, grid)
        if expect == "no-witness":
            assert found is None
        else:
            assert found is not None


def random_mc_system(rng):
    """Small random system with monotonicity guards over two variables."""
    states = ("p", "q", "r")[: rng.randint(2, 3)]
    finals = frozenset(rng.sample(states, rng.randint(1, len(states))))
    n_actions = rng.randint(2, 4)
    actions = tuple(f"t{i}" for i in range(n_actions))
    sides = [VarId("x", "r"), VarId("x", "w"), VarId("y", "r"), VarId("y", "w")]
    transitions = []
    guards = {}
    for a in actions:
        src = rng.choice(states)
        dst = rng.choice(states)
        transitions.append((src, a, dst))
        n_atoms = rng.randint(1, 2)
        parts = []
        for _ in range(n_atoms):
            lhs = rng.choice(sides)
            rhs = rng.choice(sides + [0, 1, 3])  # type: ignore[list-item]
            op = rng.choice(["<", "<=", "=", ">", ">=", "!="])
            parts.append(atom(lhs, op, rhs))
        guards[a] = conj(*parts)
    return Ddsa(
        states=states,
        initial=states[0],
        actions=actions,
        transitions=tuple(transitions),
        finals=finals,
        variables=(x, y),
        alpha0={x: F(0), y: F(0)},
        guards=guards,
        domain=RAT,
    )


def test_random_mc_systems_agree_with_oracle():
    import random

    rng = random.Random(7)
    # guards may write both variables, so keep the grid tiny: 5 values
    # give up to 25 write combinations per step
    grid = frac_grid(0, 2, halves=True)
    checked = 0
    for _ in range(25):
        d = random_mc_system(rng)
        from damc.ddsa import validate

        if validate(d):
            continue
        for text in ("F (y > 2)", "G (x >= 0)", f"F ({d.states[-1]} & x > 1)"):
            psi = parsing.parse_property(text, d)
            v = verify(d, psi)
            assert v.kind in ("witness", "no-witness")
            found = oracle.brute_force_witness(d, psi, 3, grid)
            if found is not None:
                assert v.kind == "witness", f"{text} on {d.transitions} {d.guards}"
            if v.kind == "no-witness":
                assert found is None, f"{text} on {d.transitions} {d.guards}"
                check_closed(d, v)
            checked += 1
    assert checked >= 60


def random_gc_system(rng, domain=INT):
    """Random system whose guards are gap-order conjunctions; over the
    rationals, some of their atoms are strict."""
    from damc.formula import Term

    states = ("p", "q", "r")[: rng.randint(2, 3)]
    finals = frozenset(rng.sample(states, rng.randint(1, len(states))))
    actions = tuple(f"t{i}" for i in range(rng.randint(2, 4)))
    sides = [VarId("x", "r"), VarId("x", "w"), VarId("y", "r"), VarId("y", "w")]
    transitions = []
    guards = {}
    for a in actions:
        transitions.append((rng.choice(states), a, rng.choice(states)))
        parts = []
        for _ in range(rng.randint(1, 2)):
            p, q = rng.sample(sides + [0, 2], 2)  # type: ignore[list-item]
            op = ">=" if domain == INT else rng.choice([">=", ">"])
            parts.append(atom(Term.of(p) - Term.of(q), op, rng.randint(0, 3)))
        guards[a] = conj(*parts)
    return Ddsa(
        states=states,
        initial=states[0],
        actions=actions,
        transitions=tuple(transitions),
        finals=finals,
        variables=(x, y),
        alpha0={x: F(0), y: F(0)},
        guards=guards,
        domain=domain,
    )


def test_random_gc_systems_agree_with_oracle():
    import random

    from damc.ddsa import validate
    from damc.summary import detect

    rng = random.Random(11)
    grid = [F(k) for k in range(0, 7)]
    checked = 0
    for _ in range(20):
        d = random_gc_system(rng)
        if validate(d):
            continue
        ((_, leaf),) = detect(d, []).parts
        assert leaf.K is not None
        for text in ("F (y >= 5)", "F (x - y >= 3)", "G (x >= 0)"):
            psi = parsing.parse_property(text, d)
            v = verify(d, psi)
            assert v.kind in ("witness", "no-witness")
            found = oracle.brute_force_witness(d, psi, 3, grid)
            if found is not None:
                assert v.kind == "witness", f"{text} on {d.transitions} {d.guards}"
            if v.kind == "no-witness":
                assert found is None, f"{text} on {d.transitions} {d.guards}"
            checked += 1
    assert checked >= 45


def random_gc3_system(rng):
    """Random integer system over a, b and s whose guards are conjunctions
    of gaps between copies, bounds and increments, with constants 0-2."""
    names = ("a", "b", "s")
    states = ["p", "q", "r"][: rng.randint(2, 3)]
    finals = rng.sample(states, rng.randint(1, len(states)))
    lines = ["domain int", "vars a b s", "init a=0 b=0 s=0", "states " + " ".join(states)]
    lines += [f"initial {states[0]}", "final " + " ".join(finals)]
    for i in range(rng.randint(2, 5)):
        parts = []
        for _ in range(rng.randint(1, 3)):
            v, u = rng.sample(names, 2)
            vk, uk, c, shape = rng.choice("rw"), rng.choice("rw"), rng.randint(0, 2), rng.random()
            if shape < 0.45:
                parts.append(f"{v}^{vk} - {u}^{uk} >= {c}")
            elif shape < 0.85:
                parts.append(f"{v}^{vk} {'<=' if shape < 0.65 else '>='} {c}")
            else:
                parts.append(f"{v}^w - {v}^r >= {c}")
        lines.append(f"trans {rng.choice(states)} t{i} {rng.choice(states)} [{' && '.join(parts)}]")
    return parsing.parse_model("\n".join(lines) + "\n")


# Over Z an image copies every variable, so it writes the rows an unwritten
# variable's copy implies.  An image without them would merge more than the
# gap-order quotient: here t4 takes a = 2 && a - b >= 4 (cut to
# a - b >= 3) to a - b >= 6, which would join its class, where the rows
# b <= -2 and b <= -4 keep them apart
COARSER_MERGE = parsing.parse_model(
    "domain int\nvars a b s\ninit a=0 b=0 s=0\nstates p q\ninitial p\nfinal p q\n"
    "trans p t0 p [b^r - a^w >= 0 && s^w >= 1]\n"
    "trans p t1 q [b^w - s^w >= 1 && a^w - a^r >= 0]\n"
    "trans q t2 p [a^r - b^w >= 1 && s^r - b^r >= 2]\n"
    "trans q t3 p [a^r - s^r >= 0 && a^r >= 2]\n"
    "trans p t4 q [b^w - s^w >= 2 && s^r - b^w >= 0]\n"
)


def test_random_three_variable_gap_order_systems_agree_with_oracle():
    import random

    from damc.ddsa import validate

    rng = random.Random(5)
    grid = [F(k) for k in range(-2, 3)]
    systems = [COARSER_MERGE] + [random_gc3_system(rng) for _ in range(20)]
    checked = no_witness = 0
    for d in systems:
        if validate(d):
            continue
        for text in ("F (s <= 2 & a >= 2)", "F (a - b >= 2)", "G (b >= 0)", "F (a <= 0 & s >= 1)"):
            psi = parsing.parse_property(text, d)
            v = verify(d, psi, max_nodes=300)
            assert v.kind in ("witness", "no-witness"), (text, v.reason)
            if v.kind == "no-witness":
                no_witness += 1
                assert oracle.brute_force_witness(d, psi, 3, grid) is None, (text, d.guards)
            checked += 1
    assert checked >= 60 and no_witness >= 25


def test_integer_image_keeps_the_rows_unwritten_copies_imply():
    # the 84 classes of the full snapshot's image; copying only the written
    # variables gives 82
    psi = parsing.parse_property("F (s <= 2 & a >= 2)", COARSER_MERGE)
    v = verify(COARSER_MERGE, psi, max_nodes=300)
    assert v.kind == "witness" and len(v.product.nodes) == 84


def test_integer_systems_get_gap_order_or_no_summary():
    # a split cannot cover an integer system outside gap-order, since the
    # offending atom lands in some part: such a system gets no summary
    import random

    from damc.formula import Term
    from damc.summary import NoSummaryFound, detect

    rng = random.Random(13)
    sides = [VarId("x", "r"), VarId("x", "w"), VarId("y", "r"), VarId("y", "w")]
    for _ in range(40):
        d = random_gc_system(rng)
        ((_, leaf),) = detect(d, []).parts
        assert leaf.K is not None
        a = rng.choice(d.actions)
        p, q = rng.sample(sides, 2)
        total = atom(Term.of(p) + Term.of(q), rng.choice([">=", "<=", "="]), rng.randint(0, 3))
        mixed = d.replace(guards={**d.guards, a: conj(d.guards[a], total)})
        with pytest.raises(NoSummaryFound):
            detect(mixed, [])


# Over the integers `v^w - w^r != c` is a disjunction of gaps for c in
# [-1, 1] (`x - y != 1` is `y - x >= 0 | x - y >= 2`), and true for a
# non-integral c; its K reads the gaps of its two alternatives, as the
# disjunctive spelling's does.
_NE_CONSTANTS = ("-1", "-1/2", "1/3", "1")
_NE_PROPERTIES = (
    "F (x > 3)",
    "F (x = 1)",
    "F (x = -1)",
    "X X (x = 1)",
    "G (x != 1) & F (x = 2)",
    "X (x = 1)",
    "F (y = -1 & x = 1)",
)


@st.composite
def _disequality_systems(draw):
    """An integer model over x and y, initially 0, each of whose 1-3
    transitions writes one variable through a `v^w - w^r != c` guard (or
    writes nothing), and a property."""
    states = [f"s{i}" for i in range(draw(st.integers(1, 2)))]
    finals = draw(st.lists(st.sampled_from(states), min_size=1, unique=True))
    lines = [
        "domain int",
        "vars x y",
        "init x=0 y=0",
        "states " + " ".join(states),
        "initial s0",
        "final " + " ".join(finals),
    ]
    ne = st.builds(
        "{}^w - {}^r != {}".format,
        st.sampled_from("xy"),
        st.sampled_from("xy"),
        st.sampled_from(_NE_CONSTANTS),
    )
    for i in range(draw(st.integers(1, 3))):
        guard = draw(st.one_of(ne, st.just("")))
        src, dst = draw(st.sampled_from(states)), draw(st.sampled_from(states))
        lines.append(f"trans {src} a{i} {dst} [{guard}]")
    return "\n".join(lines) + "\n", draw(st.sampled_from(_NE_PROPERTIES))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_disequality_systems())
def test_two_variable_disequality_systems_are_gap_order_and_agree_with_oracle(query):
    # the `!=` guards get the gap-order leaf and a decided verdict; the
    # grid oracle's witness (runs of up to 3 steps, values -3..4) must be
    # found, and a no-witness verdict must leave the oracle none
    model, prop = query
    d = parsing.parse_model(model)
    psi = parsing.parse_property(prop, d)
    v = verify(d, psi)
    assert v.label.startswith("GC(K="), (model, prop)
    assert v.kind in ("witness", "no-witness"), (model, prop, v.reason)
    grid = oracle.default_grid(d, lt.constraints_of(lt.preprocess(psi)), -3, 4)
    found = oracle.brute_force_witness(d, psi, 3, grid)
    if found is not None:
        assert v.kind == "witness", (model, prop)
    if v.kind == "no-witness":
        assert found is None, (model, prop)


@pytest.mark.parametrize("c", ["3/2", "-5/2", "7/3"])
@pytest.mark.parametrize("prop", _NE_PROPERTIES)
def test_disequality_with_a_non_integral_constant_is_true_over_the_integers(c, prop):
    # a `!=` whose constant is not an integer is true over the integers,
    # for c outside [-1, 1] too: it has no row and adds nothing to K, so
    # the verdict and label are those of `!= 1/2`, and the grid oracle
    # agrees with the verdict
    def model(c):
        return (
            "domain int\nvars x y\ninit x=0 y=0\nstates 1\ninitial 1\nfinal 1\n"
            f"trans 1 a 1 [x^w - x^r != {c}]\ntrans 1 b 1 [y^w - x^r != {c}]\n"
        )

    d = parsing.parse_model(model(c))
    psi = parsing.parse_property(prop, d)
    v = verify(d, psi)
    half = verify(parsing.parse_model(model("1/2")), psi)
    assert (v.kind, v.label) == (half.kind, half.label)
    assert v.label.startswith("GC(K=") and v.kind in ("witness", "no-witness")
    grid = oracle.default_grid(d, lt.constraints_of(lt.preprocess(psi)), -3, 4)
    found = oracle.brute_force_witness(d, psi, 3, grid)
    assert (found is not None) == (v.kind == "witness")


def test_disequality_with_a_non_integral_constant_gets_a_witness():
    model = "domain int\nvars x\ninit x=0\nstates 1\ninitial 1\nfinal 1\ntrans 1 a 1 [x^w - x^r != 3/2]\n"
    d = parsing.parse_model(model)
    v = verify(d, parsing.parse_property("F (x > 3)", d))
    assert (v.kind, v.label) == ("witness", "GC(K=5)")


def _gap_step_model(g, u):
    return (
        "domain int\nvars x\ninit x=0\nstates 1 2\ninitial 1\nfinal 2\n"
        f"trans 1 a 1 [x^w - x^r >= {g}]\ntrans 1 b 2 [x^r <= {u}]\n"
    )


def test_gap_order_bound_tells_the_steps_under_the_exit_apart():
    # exit needs x <= 2 and x grows by at least 1 a step, so no run takes
    # four steps; at K = 1 the cutoff merges x = 1 and x = 2 with x >= 3
    d = parsing.parse_model(_gap_step_model(1, 2))
    v = verify(d, parsing.parse_property("X X X X true", d))
    assert (v.kind, v.label) == ("no-witness", "GC(K=3)")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 3), st.integers(0, 5), st.integers(1, 6))
def test_gap_steps_under_an_exit_bound_agree_with_oracle(g, u, n):
    # the verdict of X^n true turns on how many gaps of g fit under u, so a
    # K too small to count them merges states the property tells apart
    d = parsing.parse_model(_gap_step_model(g, u))
    psi = parsing.parse_property("X " * n + "true", d)
    v = verify(d, psi)
    assert v.label.startswith("GC(K=") and v.kind in ("witness", "no-witness"), v.reason
    grid = oracle.default_grid(d, lt.constraints_of(lt.preprocess(psi)), 0, u)
    found = oracle.brute_force_witness(d, psi, n + 2, grid)
    assert (found is not None) == (v.kind == "witness"), (g, u, n)


def test_random_rational_gap_order_systems_agree_with_oracle():
    # gap-order shaped guards over Q get the exact rational leaf, never GC's
    # integer reasoning; a fixpoint no criterion bounds may run into the
    # small node budget, which is inconclusive, never a wrong verdict
    import random

    from damc.ddsa import validate
    from damc.summary import detect

    rng = random.Random(11)
    grid = frac_grid(0, 6, halves=True)
    decided = 0
    for _ in range(20):
        d = random_gc_system(rng, RAT)
        if validate(d):
            continue
        assert "GC(" not in detect(d, []).describe()
        for text in ("F (y >= 5)", "F (x - y >= 3)", "G (x >= 0)"):
            psi = parsing.parse_property(text, d)
            v = verify(d, psi, max_nodes=200)
            found = oracle.brute_force_witness(d, psi, 3, grid)
            if found is not None:
                assert v.kind != "no-witness", f"{text} on {d.transitions} {d.guards}"
            if v.kind == "no-witness":
                assert found is None, f"{text} on {d.transitions} {d.guards}"
                check_closed(d, v)
            decided += v.kind != "inconclusive"
    assert decided >= 50


def test_product_is_the_quotient_of_the_random_systems(capsys, tmp_path):
    # one node per (control state, NFA state, class of the leaf's relation):
    # no two nodes there are equivalent, every node's class is the class of
    # its own state, and the DOT file draws the sizes --json reports
    import random

    from damc.cli import main
    from damc.ddsa import validate

    rng = random.Random(11)
    products = 0
    for domain in (INT, RAT):
        for _ in range(10):
            d = random_gc_system(rng, domain)
            if validate(d):
                continue
            model = tmp_path / "m.ddsa"
            model.write_text(parsing.print_model(d))
            for text in ("F (y >= 5)", "F (x - y >= 3)", "G (x >= 0)"):
                psi = parsing.parse_property(text, d)
                v = verify(d, psi, max_nodes=200)
                if v.product is None:
                    continue
                products += 1
                strat = v.product.strategy
                leaves = [leaf for _, leaf in strat.parts]
                if domain == INT:
                    same = lambda a, b: solve.gc_equivalent(  # noqa: E731
                        solve.to_dnf(a, INT), solve.to_dnf(b, INT), leaves[0].K
                    )
                else:
                    same = lambda a, b: equivalent(a, b, RAT)  # noqa: E731
                at: dict = {}
                for n in v.product.nodes:
                    # the node prints its parts' formulas conjoined in part
                    # order, each of which reads back as its part's cubes,
                    # and each part's state canonises to the part's class
                    assert len(n.cls) == len(leaves)
                    assert n.formula == conj(*(part.formula for part in n.cls))
                    for leaf, part in zip(leaves, n.cls):
                        assert tuple(solve.to_dnf(part.formula, leaf.d.domain)) == part.state
                        assert leaf.canon(part.state) is part
                    assert not any(same(m.formula, n.formula) for m in at.get((n.state, n.q), []))
                    at.setdefault((n.state, n.q), []).append(n)
                dot = tmp_path / "p.dot"
                args = ["verify", str(model), "--prop", text, "--max-nodes", "200"]
                main(args + ["--json", "--dot-product", str(dot)])
                sizes = json.loads(capsys.readouterr().out)["sizes"]
                lines = dot.read_text().splitlines()
                assert sizes["product_nodes"] == sum(line.startswith("  p") and "->" not in line for line in lines)
                assert sizes["product_edges"] == sum("->" in line for line in lines)
    assert products >= 50


def test_gc_on_rational_model_agrees_with_oracle():
    d = parsing.parse_model(
        "domain rat\nvars x y\ninit x=0 y=0\nstates 1 2\ninitial 1\nfinal 2\n"
        "trans 1 a 2 [x^w > 0 && x^w < 1 && y^w - y^r >= 1]\n"
    )
    psi = parsing.parse_property("F (x > 0)", d)
    found = oracle.brute_force_witness(d, psi, 2, frac_grid(0, 2, halves=True))
    assert found is not None  # x = 1/2
    assert verify(d, psi).kind == "witness"


def test_product_nodes_satisfy_history_spotcheck(b1):
    # along the BFS tree the construction records, each node's
    # representative matches the recomputed history constraint of its path
    from damc.ddsa import history_constraint

    _, nfa, prod, _ = build_b1_product(b1)
    assert len(prod.parents) == len(prod.nodes) and prod.parents[prod.initial] is None
    for i in range(len(prod.nodes)):
        edges = []
        j = i
        while prod.parents[j] is not None:
            e = prod.parents[j]
            assert e.dst == j and e.src < j and e in prod.edges
            edges.insert(0, e)
            j = e.src
        assert j == prod.initial
        if not edges:
            continue
        actions = [e.action for e in edges][1:]
        cseq = [lt.constr_of(e.symbol) for e in edges]
        h = history_constraint(b1, actions, cseq)
        assert equivalent(prod.nodes[i].formula, h, RAT)


AUCTION_GOLDEN = json.loads((Path(__file__).parent / "golden/auction_verdicts.json").read_text())


@pytest.mark.parametrize("name", sorted(AUCTION_GOLDEN))
def test_auction_verdict_json_golden(auction, name):
    # verdict, strategy, sizes, word and run of the paper's five properties
    case = AUCTION_GOLDEN[name]
    psi = parsing.parse_property(case["property"], auction)
    assert _verdict_json(verify(auction, psi)) == case["verdict"]


def test_psi12_images_and_solves_each_input_once(auction, monkeypatch):
    # the leaves memoise their images per (class, transition formula) and
    # their sat answers per state DNF, so each distinct state DNF is imaged
    # once per transition formula and solved once; an action whose guard on
    # a leaf is true has the state itself as its image, and never reaches
    # the solver.  The 21 images are the leaves' own: extraction images
    # nothing, where re-imaging the witness's 7 steps on the whole system
    # made 28
    update, is_sat, leaf_sat = dd.update, solve.is_sat, summary._Leaf.sat
    images: Counter = Counter()
    solved: Counter = Counter()
    leaves: list = []

    def counting_update(d, phi, action, **kwargs):
        assert d.guard(action) != TRUE, action
        images[(id(d), phi, dd.transition_formula(d, action))] += 1
        return update(d, phi, action, **kwargs)

    def counting_is_sat(phi, dom):
        if leaves:
            solved[(id(leaves[-1].d), phi)] += 1
        return is_sat(phi, dom)

    def tracked_leaf_sat(self, state):
        leaves.append(self)
        try:
            return leaf_sat(self, state)
        finally:
            leaves.pop()

    monkeypatch.setattr(dd, "update", counting_update)
    monkeypatch.setattr(solve, "is_sat", counting_is_sat)
    monkeypatch.setattr(summary._Leaf, "sat", tracked_leaf_sat)
    psi = parsing.parse_property("F (b=1 & o>t & F (sold & b!=1))", auction)
    assert verify(auction, psi).kind == "witness"
    assert len(images) == 21 and set(images.values()) == {1}
    assert all(d != id(auction) for d, _, _ in images)
    assert all(isinstance(phi, tuple) for _, phi, _ in images)
    assert solved and set(solved.values()) == {1}


def test_projected_leaf_images_each_state_and_transition_formula_once(auction, monkeypatch):
    # on the auction's {b} leaf, init, check, dec, sellnow and fee all
    # leave b alone (their guard there is true), so their image is the
    # state itself and no state reaches dd.update through them; every
    # other (leaf, state DNF, transition formula) asked for is imaged once
    update, leaf_image = dd.update, summary._Leaf.image
    moving: dict = {}
    still: dict = {}
    imaged: Counter = Counter()

    def tracked_image(self, rep, action):
        out = leaf_image(self, rep, action)
        if action is None:  # the step out of the product's root moves nothing
            assert out is rep.state
            return out
        key = (id(self.d), rep.state, dd.transition_formula(self.d, action))
        if self.d.guard(action) == TRUE:
            assert out is rep.state
            still.setdefault(key, set()).add(action)
        else:
            moving.setdefault(key, set()).add(action)
        return out

    def counting_update(d, phi, action, **kwargs):
        imaged[(id(d), phi, dd.transition_formula(d, action))] += 1
        return update(d, phi, action, **kwargs)

    monkeypatch.setattr(summary._Leaf, "image", tracked_image)
    monkeypatch.setattr(dd, "update", counting_update)
    psi = parsing.parse_property("F (sold & b=0)", auction)
    v = verify(auction, psi)
    assert "{b}: exact-fixpoint" in v.label
    assert imaged.keys() == moving.keys() and set(imaged.values()) == {1}
    assert not still.keys() & moving.keys()
    shared: dict = {}
    for (_, _, tf), acts in still.items():
        shared.setdefault(str(tf), set()).update(acts)
    assert shared["b^w = b^r"] == {"init", "check", "dec", "sellnow", "fee"}


# ---------------------------------------------------------------------------
# The variable split is exact: one leaf on the whole system gives the same
# verdict, sizes, word and run


def _verdict_under(d, psi, strategy_of, max_nodes=10_000):
    """Verdict JSON with `strategy_of(d, constraints)` in place of detection."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(summary, "detect", strategy_of)
        return _verdict_json(verify(d, psi, max_nodes=max_nodes))


def _one_part(d, constraints):
    """The strategy of one exact leaf on the whole system."""
    return summary.Strategy(((tuple(v.name for v in d.variables), summary._Leaf(d)),))


def _assert_split_matches_one_leaf(d, psi, split, max_nodes=10_000):
    apart = _verdict_under(d, psi, split, max_nodes)
    joint = _verdict_under(d, psi, _one_part, max_nodes)
    assert apart.pop("strategy").startswith("var-compose(")
    assert joint.pop("strategy") == "exact-fixpoint"
    assert apart == joint


@pytest.mark.parametrize("name", sorted(AUCTION_GOLDEN))
def test_variable_split_matches_one_leaf_on_the_auction(auction, name):
    psi = parsing.parse_property(AUCTION_GOLDEN[name]["property"], auction)
    _assert_split_matches_one_leaf(auction, psi, detect)


_GROUPS = (("x", "y"), ("u", "v"))
_THREE_GROUPS = (("x", "y"), ("u", "v"), ("p", "q"))


def _group_atoms(names, groups=_GROUPS, ne=False):
    """Atom texts over one variable group.  `!=` comes only with `ne`, in
    half the draws so that parts often hold several cubes; the one-leaf
    comparison would multiply those cubes out across the groups."""

    def over(group):
        v = st.sampled_from([n for n in names if n.split("^")[0] in group])
        term = st.one_of(
            v,
            st.builds("{} - {}".format, v, v),
            st.builds("{} + 1".format, v),
            st.integers(0, 2).map(str),
        )
        ops = st.sampled_from(["<", "<=", "=", ">=", ">"] + ["!="] * (5 * ne))
        return st.builds("{} {} {}".format, term, ops, term)

    return st.sampled_from(groups).flatmap(over)


@st.composite
def _grouped_systems(draw, groups=_GROUPS, ne=False):
    """A rational model over the variables of `groups` whose guard atoms
    and property atoms each stay within one group (with `!=` atoms when
    `ne`), and a property."""
    names = [n for g in groups for n in g]
    states = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    finals = draw(st.lists(st.sampled_from(states), min_size=1, unique=True))
    lines = [
        "domain rat",
        "vars " + " ".join(names),
        "init " + " ".join(f"{n}={draw(st.integers(0, 2))}" for n in names),
        "states " + " ".join(states),
        "initial s0",
        "final " + " ".join(finals),
    ]
    copies = [f"{n}^{k}" for n in names for k in "rw"]
    for i in range(draw(st.integers(1, 3))):
        guard = " && ".join(draw(st.lists(_group_atoms(copies, groups, ne), max_size=3)))
        src, dst = draw(st.sampled_from(states)), draw(st.sampled_from(states))
        lines.append(f"trans {src} a{i} {dst} [{guard}]")
    prop = st.recursive(
        st.one_of(_group_atoms(names, groups, ne), st.sampled_from(states)),
        lambda p: st.one_of(
            st.builds("{} ({})".format, st.sampled_from("XFG"), p),
            st.builds("({}) {} ({})".format, p, st.sampled_from("U&|"), p),
        ),
        max_leaves=4,
    )
    return "\n".join(lines) + "\n", draw(prop)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_grouped_systems())
def test_variable_split_matches_one_leaf_on_two_group_systems(query):
    model, prop = query
    d = parsing.parse_model(model)
    psi = parsing.parse_property(prop, d)
    _assert_split_matches_one_leaf(d, psi, detect, max_nodes=50)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_grouped_systems(_THREE_GROUPS))
def test_variable_split_matches_one_leaf_on_three_group_systems(query):
    # no atom links two groups, so detection makes at least three parts,
    # one leaf each, in one n-ary composition
    model, prop = query
    d = parsing.parse_model(model)
    psi = parsing.parse_property(prop, d)
    assert len(detect(d, lt.constraints_of(lt.preprocess(psi))).parts) >= 3
    _assert_split_matches_one_leaf(d, psi, detect, max_nodes=50)


# `!=` atoms give each part's states several cubes
SEVERAL_CUBES = """domain rat
vars x y u v
init x=0 y=1 u=0 v=1
states s0 s1
initial s0
final s1
trans s0 a0 s0 [x^w != x^r && y^w != y^r && u^w != u^r + 1]
trans s0 a1 s1 [u^w != v^r && x^w - y^r != 2]
"""


def _assert_extraction_matches_joint_cubes(d, v):
    """A witness's run is the one the joint cubes of its path give on the
    whole system, and its word is the path's."""
    path = find_accepting_path(v.product)
    assert (v.run, v.word) == (reference_joint_run(d, v.product, path), [e.symbol for e in path])


def test_psi12_extraction_solves_each_part_on_its_own_system(monkeypatch):
    # each part is solved on its own projection, whose transition cubes its
    # images built: the whole model's own cubes are never built, and
    # extraction builds none of a part's, since it grounds only the steps
    # that write the part's variables, and those the part has imaged
    d = load_model("auction.ddsa")
    extract, before = product.extract_witness, []

    def tracked(system, p, path):
        before.append([set(leaf.d._cubes_cache) for _, leaf in p.strategy.parts])
        return extract(system, p, path)

    monkeypatch.setattr(product, "extract_witness", tracked)
    v = verify(d, parsing.parse_property("F (b=1 & o>t & F (sold & b!=1))", d))
    assert v.kind == "witness" and len(v.product.strategy.parts) == 3
    assert d._cubes_cache == {}
    for built, (_, leaf) in zip(before[0], v.product.strategy.parts):
        assert built and leaf.d._cubes_cache.keys() == built
    _assert_extraction_matches_joint_cubes(d, v)


def test_psi12_extraction_grounds_only_the_steps_that_write(monkeypatch):
    # a step whose action writes none of a part's variables keeps every
    # value of the part, so extraction takes the next assignment there and
    # grounds no transition
    d = load_model("auction.ddsa")
    ground, grounded = dd.grounded_transition, []

    def tracked(system, action, post):
        grounded.append((system, action))
        return ground(system, action, post)

    monkeypatch.setattr(dd, "grounded_transition", tracked)
    v = verify(d, parsing.parse_property("F (b=1 & o>t & F (sold & b!=1))", d))
    assert v.kind == "witness" and grounded
    assert all(system.write_set(a) for system, a in grounded), grounded


def test_a_part_opens_no_class_for_an_edge_a_later_part_refutes():
    # the edge under `x <= 10 & y < 0` is satisfiable in the {x} part and
    # not in the {y} part, so no node holds an {x} class for it: the parts
    # are canonised only once every part is satisfiable
    d = parsing.parse_model(
        "domain rat\nvars x y\ninit x=0 y=0\nstates 1 2\ninitial 1\nfinal 2\n"
        "trans 1 a 2 [x^w >= 1]\n"
    )
    v = verify(d, parsing.parse_property("F (x <= 10 & y < 0)", d))
    parts = v.product.strategy.parts
    held = {c for n in v.product.nodes for c in n.cls}
    assert v.kind == "no-witness" and len(parts) == 2
    assert all(c in held for _, leaf in parts for c in leaf._classes)


@pytest.mark.parametrize(
    "prop", ["X (x != 0 & X (s1 & u != 0))", "X X (s1 & x > y & u != v)", "F (s1 & x != 0 & u != 0)"]
)
def test_extraction_of_parts_with_several_cubes_matches_the_joint_cubes(prop):
    d = parsing.parse_model(SEVERAL_CUBES)
    v = verify(d, parsing.parse_property(prop, d))
    assert v.kind == "witness" and len(v.product.strategy.parts) == 2
    path = find_accepting_path(v.product)
    assert all(len(c.state) > 1 for c in v.product.nodes[path[-1].dst].cls)
    _assert_extraction_matches_joint_cubes(d, v)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_grouped_systems(ne=True), st.integers(1, 3))
def test_extraction_with_disequalities_matches_the_joint_cubes(query, steps):
    # with `!=` atoms in guards and properties a part holds several cubes;
    # each part solved on its own system and states gives the run of the
    # joint cubes on the whole system: the parts share no variable, so the
    # first satisfiable joint cube is the tuple of the parts' first ones.
    # The property is put `steps` positions ahead, so a witness takes steps
    model, prop = query
    d = parsing.parse_model(model)
    v = verify(d, parsing.parse_property("X (" * steps + prop + ")" * steps, d), max_nodes=50)
    if v.kind == "witness":
        _assert_extraction_matches_joint_cubes(d, v)


def _xy_system(guards, transitions, finals):
    """A library-built rational system over x and y, both initially 0."""
    return Ddsa(
        states=("1", "2", "3", "4"),
        initial="1",
        actions=tuple(guards),
        transitions=tuple(transitions),
        finals=frozenset(finals),
        variables=(x, y),
        alpha0={x: F(0), y: F(0)},
        guards=guards,
        domain=RAT,
    )


def _then_step_y(guard):
    """`1 -a-> 2` under `guard`, then `2 -b-> 3` adding 1 to y; final 3."""
    step_y = atom(Term.of(y.write()), "=", Term.of(y.read()) + 1)
    return _xy_system({"a": guard, "b": step_y}, [("1", "a", "2"), ("2", "b", "3")], {"3"})


_XY_PROPERTIES = (
    "F (x > 1)",
    "F (x > 1 & y <= 1)",
    "F (y < 0)",
    "G (x <= 1)",
    "F (x < -1 & X (y > 0))",
    "(x <= 1) U (y > 1)",
)


@st.composite
def _disjunctive_xy_systems(draw):
    """Systems over x and y whose guards mix `disj` and `negate` (complemented
    atoms, De Morgan) within one variable and across both, and a property."""

    def leaf(v):
        shape, op = draw(st.integers(0, 2)), draw(st.sampled_from(["<", "<=", "=", ">=", ">"]))
        lhs = Term.of(v.write()) - v.read() if shape == 2 else Term.of(v.write())
        return atom(lhs, op, v.read() if shape == 1 else draw(st.integers(-1, 1)))

    def part():
        v, w = draw(st.sampled_from([x, y])), draw(st.sampled_from([x, y]))
        kind = draw(st.integers(0, 3))
        if kind == 0:
            return leaf(v)
        if kind == 1:
            return disj(leaf(v), leaf(w))
        return negate(leaf(v)) if kind == 2 else negate(conj(leaf(v), leaf(w)))

    # control only moves forward, so every run is decided within 3 steps
    steps = st.lists(st.sampled_from("1234"), min_size=2, max_size=2, unique=True).map(sorted)
    pairs = draw(st.lists(steps, min_size=1, max_size=4))
    transitions = [(src, f"a{i}", dst) for i, (src, dst) in enumerate(pairs)]
    guards = {a: conj(*(part() for _ in range(draw(st.integers(1, 2))))) for _, a, _ in transitions}
    finals = draw(st.lists(st.sampled_from("1234"), min_size=1, unique=True))
    return _xy_system(guards, transitions, finals), draw(st.sampled_from(_XY_PROPERTIES))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_disjunctive_xy_systems())
@example((_then_step_y(disj(atom(x.write(), ">", 1), atom(x.write(), "<", -1))), "F (x > 1)"))
@example((_then_step_y(negate(atom(x.write(), "<=", 1))), "F (x > 1)"))
@example(
    (_then_step_y(disj(atom(x.write(), ">", 1), atom(y.write(), ">", 1))), "F (x > 1 & y <= 1)")
)
def test_split_of_disjunctive_and_negated_guards_agrees_with_oracle(query):
    # a variable split divides a guard by whole conjuncts: a conjunct over x
    # alone keeps its disjunction when projected, and one that crosses x
    # and y keeps its disjuncts together
    d, text = query
    psi = parsing.parse_property(text, d)
    constraints = lt.constraints_of(lt.preprocess(psi))
    guards = [d.guard(a) for a in d.actions]
    if any(
        len({v.name for v in free_vars(c)}) == 2
        for g in guards
        for c in (g.args if isinstance(g, And) else (g,))
    ):
        assert len(summary._var_parts(d, constraints)) == 1
    v = verify(d, psi, max_nodes=60)
    found = oracle.brute_force_witness(d, psi, 3, frac_grid(-2, 2))
    if found is not None:
        assert v.kind != "no-witness", (text, guards)
    if v.kind == "no-witness":
        assert found is None, (text, guards)


# shop-2 (b4 with a `[]` step `done` into the final control) beside an
# independent counter c: the split gives c a leaf of its own, on which every
# shop action's guard is true, and `done` and `tick` are true on the other
SHOP_2_TICK = """domain rat
vars a0 a1 s c
init a0=0 a1=0 s=0 c=0
states 1 2 3 4
initial 1
final 4
trans 1 pick_0 1 [a0^w > 0]
trans 1 add_0 2 [s^w = a0^r]
trans 2 pick_1 2 [a1^w > 0]
trans 2 add_1 3 [s^w = s^r + a1^r]
trans 3 done 4 []
trans 4 reset 1 [a0^w = 0 && a1^w = 0]
trans 4 tick 4 [c^w > c^r]
"""

# a gap-order system whose `skip` step into the final control is `[]`, and
# whose `check` writes nothing but is not true
GAP_SKIP = """domain int
vars x y
init x=0 y=0
states 1 2
initial 1
final 2
trans 1 a 1 [x^w - x^r >= 1]
trans 1 skip 2 []
trans 2 b 2 [y^w > x^r]
trans 2 check 2 [x^r >= 2]
"""


@st.composite
def _leaf_states(draw, variables, gap_order):
    """A disjunction of 1-2 cubes of 1-3 atoms over the variables: bounds
    and differences, gap-order shaped when `gap_order`."""
    v = st.sampled_from(variables)
    k = st.integers(0, 3) if gap_order else st.integers(-2, 2)

    def one():
        shape, a, b, c = draw(st.integers(0, 3)), draw(v), draw(v), draw(k)
        if gap_order:
            return (
                atom(Term.of(a) - b, ">=", c),
                atom(a, ">=", c),
                atom(a, "<=", c),
                atom(a, "!=", c),
            )[shape]
        op = draw(st.sampled_from(["<", "<=", "=", ">=", ">", "!="]))
        return atom(Term.of(a) - b, op, c) if shape == 0 else atom(a, op, c)

    cubes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
    return disj(*(conj(*(one() for _ in range(n))) for n in cubes))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_leaf_image_under_a_true_guard_is_the_state(data):
    # under a true guard every variable keeps its value, so the image is
    # the state itself, and it is equivalent to the solver's image; under
    # any other guard, one that writes nothing too, the image is the solver's
    shop, gap = parsing.parse_model(SHOP_2_TICK), parsing.parse_model(GAP_SKIP)
    split = detect(shop, [])
    assert split.describe() == "var-compose({a0,a1,s}: exact-fixpoint; {c}: exact-fixpoint)"
    leaves = [leaf for strat in (split, detect(gap, [])) for _, leaf in strat.parts]
    assert leaves[-1].K is not None
    for leaf in leaves:
        state = data.draw(_leaf_states(leaf.d.variables, leaf.K is not None))
        rep = leaf.canon(leaf.label([state]))
        still = [a for a in leaf.d.actions if leaf.d.guard(a) == TRUE]
        assert still
        for a in leaf.d.actions:
            cubes = tuple(solve.to_dnf(state, leaf.d.domain))
            image = solve.dnf_to_formula(dd.update(leaf.d, cubes, a))
            if a in still:
                assert leaf.image(rep, a) is rep.state
                assert equivalent(state, image, leaf.d.domain), (state, a)
            else:
                assert solve.dnf_to_formula(leaf.image(rep, a)) == image, (state, a)


# `a0` reads x and writes only u: on the part over x it writes nothing, but
# its guard there is not true, so its image there is not the state
READ_ONLY_ON_A_PART = """domain rat
vars x y u v
init x=0 y=0 u=0 v=0
states s0 s1
initial s0
final s1
trans s0 a1 s0 [x^w = x^r + 1]
trans s0 a0 s1 [x^r > 1 && u^w = u^r + 1]
"""


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_grouped_systems().filter(lambda q: "[]" in q[0]))
@example((SHOP_2_TICK, "F (4 & c > 1)"))
@example((SHOP_2_TICK, "G (s <= 1) | F (c > 0 & X (4 & s > 0))"))
@example((READ_ONLY_ON_A_PART, "F (s1 & u > 0)"))
@example((READ_ONLY_ON_A_PART.replace("[x^w = x^r + 1]", "[y^w > y^r]"), "F (s1)"))
def test_true_guard_steps_under_a_variable_split_agree_with_oracle(query):
    # `[]` steps, and the actions that move none of a part's variables,
    # are imaged as the state itself on each side of the split; an action
    # that reads a part's variables and writes none of them is not
    model, prop = query
    d = parsing.parse_model(model)
    psi = parsing.parse_property(prop, d)
    assert len(summary._var_parts(d, lt.constraints_of(lt.preprocess(psi)))) > 1
    v = verify(d, psi, max_nodes=50)
    found = oracle.brute_force_witness(d, psi, 3, frac_grid(0, 2))
    if found is not None:
        assert v.kind != "no-witness", (model, prop)
    if v.kind == "no-witness":
        assert found is None, (model, prop)


DISJUNCTION_GOLDEN = json.loads(
    (Path(__file__).parent / "golden/disjunction_verdicts.json").read_text()
)


@pytest.mark.parametrize("name", sorted(DISJUNCTION_GOLDEN))
def test_disjunction_verdict_json_golden(b1, name):
    # width-1 to width-3 disjunctions on b1, where pool scans are the cost
    case = DISJUNCTION_GOLDEN[name]
    psi = parsing.parse_property(case["property"], b1)
    assert _verdict_json(verify(b1, psi)) == case["verdict"]


INTEGER_GOLDEN = json.loads((Path(__file__).parent / "golden/integer_verdicts.json").read_text())


@pytest.mark.parametrize("name", sorted(INTEGER_GOLDEN))
def test_integer_verdict_json_golden(name):
    # the sweep templates on b3, and on b1, b2 and b4 read over the integers;
    # a witness's values are the solver's pick, so only its word and actions
    # are pinned (the run is revalidated inside verify)
    case = INTEGER_GOLDEN[name]
    d = with_domain(load_model(case["model"]), INT)
    out = _verdict_json(verify(d, parsing.parse_property(case["property"], d)))
    out.pop("run", None)
    assert out == case["verdict"]


def test_build_product_writes_no_formula_on_the_gated_goldens(auction, b1, monkeypatch):
    # an image is keyed by the action's guard and renames the guard's cubes,
    # and a class is written as a formula only when a node is printed: the
    # product of the auction and disjunction goldens builds neither a
    # transition formula nor a class's formula
    def refuse(name):
        def refused(*args):
            raise AssertionError(f"{name} called")

        return refused

    monkeypatch.setattr(dd, "transition_formula", refuse("transition_formula"))
    monkeypatch.setattr(solve, "dnf_to_formula", refuse("dnf_to_formula"))
    cases = [(auction, c["property"]) for c in AUCTION_GOLDEN.values()]
    cases += [(b1, c["property"]) for c in DISJUNCTION_GOLDEN.values()]
    for d, text in cases:
        pre = lt.preprocess(parsing.parse_property(text, d))
        strategy = detect(d, lt.constraints_of(pre))
        p = build_product(d, lt.build_nfa(pre), strategy)
        assert len(p.nodes) > 1


@pytest.mark.parametrize("name", ["check_mc", "enumerate_symbolic_runs", "seq_decompose"])
def test_verify_certifies_nothing_on_the_gated_queries(auction, b1, monkeypatch, name):
    # a verdict rests on the product of exact leaves and on revalidation,
    # never on a certificate: the auction and disjunction queries reach no
    # criterion and no sequential split
    def certifying(*args, **kwargs):
        raise AssertionError(f"verify called certificates.{name}")

    monkeypatch.setattr(certificates, name, certifying)
    cases = [(auction, c) for c in AUCTION_GOLDEN.values()]
    cases += [(b1, c) for c in DISJUNCTION_GOLDEN.values()]
    for d, case in cases:
        psi = parsing.parse_property(case["property"], d)
        assert _verdict_json(verify(d, psi)) == case["verdict"]


def test_verify_over_q_reads_no_gap_order(auction, b1, monkeypatch):
    # gap-order is an integer device: over Q, splitting the auction into
    # its parts and solving them reads no atom for gap-order
    tested = gap_order_reads(monkeypatch)
    cases = [(auction, c) for c in AUCTION_GOLDEN.values()]
    cases += [(b1, c) for c in DISJUNCTION_GOLDEN.values()]
    for d, case in cases:
        psi = parsing.parse_property(case["property"], d)
        assert _verdict_json(verify(d, psi)) == case["verdict"]
    assert tested == []


def golden_cases(auction, b1):
    cases = [(auction, c["property"]) for c in AUCTION_GOLDEN.values()]
    cases += [(b1, c["property"]) for c in DISJUNCTION_GOLDEN.values()]
    cases += [
        (with_domain(load_model(c["model"]), INT), c["property"]) for c in INTEGER_GOLDEN.values()
    ]
    return cases


def test_every_image_is_of_a_state_over_plain_variables_on_goldens(auction, b1, monkeypatch):
    # `update` snapshots at index 0, since every state it is handed (a
    # product state, and over Z an extraction's history prefix) is over
    # plain variables: QE eliminates each copy an image makes.  Over Q,
    # where extraction images nothing, the leaf's memo shares each image,
    # so no (system, state, guard) is imaged twice in one verify
    update, seen = dd.update, []

    def checked(d, state, action):
        assert {v.kind for cube in state for na in cube for v, _ in na.coeffs} <= {PLAIN}
        seen.append((id(d), state, d.guard(action)))
        return update(d, state, action)

    monkeypatch.setattr(dd, "update", checked)
    imaged = {RAT: 0, INT: 0}
    for d, text in golden_cases(auction, b1):
        seen.clear()
        verify(d, parsing.parse_property(text, d))
        if d.domain == RAT:
            assert len(set(seen)) == len(seen), text
        imaged[d.domain] += len(seen)
    assert min(imaged.values()) > 100


def test_build_product_asks_no_successor_for_a_label_with_an_empty_part(auction, b1, monkeypatch):
    # a label part whose constraints normalize to false (`x > 7 & x < 5`)
    # refutes its NFA edge before any image is met with it
    successor, labels = summary.Strategy.successor, []

    def recording(self, cls, action, label):
        labels.append(label)
        return successor(self, cls, action, label)

    monkeypatch.setattr(summary.Strategy, "successor", recording)
    for d, text in golden_cases(auction, b1):
        verify(d, parsing.parse_property(text, d))
    assert len(labels) > 100
    assert all(all(label) for label in labels)


def _extraction_images(monkeypatch) -> list:
    """The `dd.update` calls that `extract_witness` makes, one list per
    extraction, and the history prefixes it asks for."""
    update, extract, history = dd.update, product.extract_witness, dd.history_prefixes
    per: list = []
    inside: list = []

    def counting_update(d, phi, action):
        if inside:
            per[-1]["images"] += 1
        return update(d, phi, action)

    def recording_history(d, actions, cseq=None):
        if inside:
            per[-1]["history"].append(list(actions))
        return history(d, actions, cseq)

    def tracked(d, p, path):
        per.append({"images": 0, "history": [], "steps": len(path) - 1})
        inside.append(True)
        try:
            return extract(d, p, path)
        finally:
            inside.pop()

    monkeypatch.setattr(dd, "update", counting_update)
    monkeypatch.setattr(dd, "history_prefixes", recording_history)
    monkeypatch.setattr(product, "extract_witness", tracked)
    return per


def test_rational_extraction_images_nothing_on_goldens(auction, b1, monkeypatch):
    # over Q a witness is solved backwards on the cubes of its BFS-tree
    # path's classes, each equivalent to its history prefix: extraction makes
    # no image and builds no history constraint, and the golden runs (the
    # auction's hold 1/2 and 3/2) do not move
    per = _extraction_images(monkeypatch)
    cases = [(auction, c) for c in AUCTION_GOLDEN.values()]
    cases += [(b1, c) for c in DISJUNCTION_GOLDEN.values()]
    for d, case in cases:
        psi = parsing.parse_property(case["property"], d)
        assert _verdict_json(verify(d, psi)) == case["verdict"]
    assert len(per) == sum(c["verdict"]["verdict"] == "witness" for _, c in cases) >= 10
    assert max(e["steps"] for e in per) >= 5
    assert all(e["images"] == 0 and e["history"] == [] for e in per)


def test_integer_extraction_solves_history_constraints_golden(monkeypatch):
    # over Z a node is only cutoff-equivalent to its history prefix, so an
    # integer witness is solved on the exact history constraints: one
    # whole-system image per step, and the run passes revalidation
    per = _extraction_images(monkeypatch)
    witnesses = []
    for case in INTEGER_GOLDEN.values():
        d = with_domain(load_model(case["model"]), INT)
        psi = parsing.parse_property(case["property"], d)
        v = verify(d, psi)
        if v.kind == "witness":
            product._assert_witness(d, v.run, v.word, lt.preprocess(psi))
            witnesses.append(v.run)
    assert len(per) == len(witnesses) >= 20
    assert any(len(run) >= 2 for run in witnesses)
    for e, run in zip(per, witnesses):
        assert e["history"] == [list(run.actions)]
        assert e["images"] == e["steps"] == len(run)


def test_golden_verdicts_in_turn_match_verdicts_from_cleared_memos():
    # the memos stored on shared model objects (the model's own caches, and
    # each guard atom's normal form) change no answer: the golden queries'
    # verdict JSON (run included), asked in one process in order and then in
    # reverse on one model object per system, is each query's JSON on the
    # model parsed afresh, which carries no memo
    cases = [("auction.ddsa", RAT, c["property"]) for c in AUCTION_GOLDEN.values()]
    cases += [("b1.ddsa", RAT, c["property"]) for c in DISJUNCTION_GOLDEN.values()]
    cases += [(c["model"], INT, c["property"]) for c in INTEGER_GOLDEN.values()]
    models = {(name, dom): with_domain(load_model(name), dom) for name, dom, _ in cases}

    def verdict(d, text):
        return _verdict_json(verify(d, parsing.parse_property(text, d)))

    forward = {case: verdict(models[case[:2]], case[2]) for case in cases}
    backward = {case: verdict(models[case[:2]], case[2]) for case in reversed(cases)}
    for name, dom, text in cases:
        afresh = verdict(with_domain(load_model(name), dom), text)
        assert forward[name, dom, text] == backward[name, dom, text] == afresh, text


def _module_containers() -> dict:
    """Every module-level dict, list and set of every loaded damc module,
    by (module, name): the object and its length."""
    return {
        (m, name): (v, len(v))
        for m, mod in list(sys.modules.items())
        if m == "damc" or m.startswith("damc.")
        for name, v in vars(mod).items()
        if isinstance(v, (dict, list, set)) and not name.startswith("__")
    }


MODEL_NAMES = ("auction.ddsa", "b1.ddsa", "b2.ddsa", "b3.ddsa", "b4.ddsa")


def _containers_changed_by_goldens_and_certificates() -> list[str]:
    """The module-level containers of damc that answering every golden
    query, certifying each one's constraints on its model, and certifying
    every model over Q and Z replace or grow."""
    before = _module_containers()
    for d, text in golden_cases(load_model("auction.ddsa"), load_model("b1.ddsa")):
        psi = parsing.parse_property(text, d)
        _verdict_json(verify(d, psi))
        _certificate(d, lt.constraints_of(lt.preprocess(psi)))
    for name in MODEL_NAMES:
        for dom in (RAT, INT):
            _certificate(with_domain(load_model(name), dom), [])
    after = _module_containers()
    return [
        f"{m}.{name}"
        for (m, name) in sorted(before.keys() | after.keys())
        if (m, name) not in before
        or (m, name) not in after
        or after[m, name][0] is not before[m, name][0]
        or after[m, name][1] != before[m, name][1]
    ]


def test_goldens_and_certificates_leave_every_module_container_as_found():
    # no process-wide memo; asked in a fresh interpreter, in which no
    # earlier test has filled one
    src = str(Path(damc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    child = subprocess.run(
        [sys.executable, __file__, "--module-state"], capture_output=True, text=True, env=env
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == []


def _certificate(d, constraints):
    try:
        return damc.certify(d, constraints)
    except summary.NoSummaryFound:
        return None


FOUR_CONTROL_MODEL = """\
domain rat
vars x
init x=0
states 1 2 3 4
initial 1
final 3
trans 1 up 2 [x^w > x^r]
trans 1 p 4 [x^w = x^r]
trans 4 q 2 [x^w >= x^r]
trans 2 chk 3 [x^r <= 0]
"""


@pytest.mark.parametrize(
    "text, sizes",
    [("true", (6, 5, 1)), ("F (x >= 0)", (12, 15, 2))],
)
def test_four_control_system_gives_the_witness_the_oracle_finds(text, sizes):
    # `up` and `p; q` both reach control 2, with x > 0 and x >= 0; only the
    # second passes `chk`, so a quotient that merged the two classes (as one
    # comparing their closures would) reports no witness
    d = parsing.parse_model(FOUR_CONTROL_MODEL)
    psi = parsing.parse_property(text, d)
    v = verify(d, psi)
    assert v.kind == "witness"
    assert tuple(v.sizes[k] for k in ("product_nodes", "product_edges", "product_finals")) == sizes
    product._assert_witness(d, v.run, v.word, lt.preprocess(psi))
    assert v.run.actions == ("p", "q", "chk")
    assert [c.state for c in v.run.configs] == ["1", "4", "2", "3"]
    assert all(dict(c.alpha) == {x: 0} for c in v.run.configs)
    found = oracle.brute_force_witness(d, psi, 4)
    assert found is not None and found.actions == v.run.actions


def test_golden_rational_no_witness_products_are_closed():
    # every rational no-witness product of the digest queries is closed
    # under the exact image (`check_closed`); over the integers a node is
    # only cutoff-equivalent to what reaches it, so those are left out
    from test_product_digests import queries

    models: dict = {}
    products, steps = 0, 0
    for _, model, dom, text, max_nodes in queries():
        if model not in models:
            models[model] = load_model(model)
        d = models[model]
        if dom is not None or d.domain != RAT:  # an integer golden or model
            continue
        v = verify(d, parsing.parse_property(text, d), max_nodes=max_nodes)
        if v.kind == "no-witness":
            steps += check_closed(d, v)
            products += 1
    assert (products, steps) == (59, 725)


def test_golden_states_and_runs_hold_ints_unless_not_integral(auction, b1):
    # every coefficient and constant of every golden product state, and
    # every value of every golden witness run (the auction's hold 1/2 and
    # 3/2), is an int unless it is not integral
    n_states, n_fractions = 0, 0
    for d, text in golden_cases(auction, b1):
        v = verify(d, parsing.parse_property(text, d))
        for node in v.product.nodes if v.product is not None else ():
            assert_exact_formula(node.formula)
            n_states += 1
        for cfg in v.run.configs if v.run is not None else ():
            assert all(is_exact(val) for _, val in cfg.alpha), cfg
            n_fractions += sum(type(val) is F for _, val in cfg.alpha)
    assert n_states > 500 and n_fractions > 0


def test_accepting_path_matches_reference_search_on_goldens(auction, b1):
    # the BFS tree the construction records gives the very path a second
    # search over the finished product finds, on every golden product (41
    # of the golden queries build a product, 33 of them with a final node)
    products, paths = 0, 0
    for d, text in golden_cases(auction, b1):
        v = verify(d, parsing.parse_property(text, d))
        if v.product is None:
            continue
        path = find_accepting_path(v.product)
        assert path == reference_accepting_path(v.product), text
        products += 1
        paths += path is not None
    assert products >= 40 and paths >= 30


def test_qe_gc_rejects_the_atoms_gc_norm_rejects_on_integer_goldens(monkeypatch):
    # the atoms of every cube the integer golden products hand qe_gc are
    # gap-order by the tightened rows exactly when the reference triple view
    # (conftest.gc_norm) writes them as gaps
    seen: set = set()
    qe_gc = solve.qe_gc

    def recording(xs, cubes):
        seen.update(na for cube in cubes for na in cube)
        return qe_gc(xs, cubes)

    monkeypatch.setattr(solve, "qe_gc", recording)
    for case in INTEGER_GOLDEN.values():
        d = with_domain(load_model(case["model"]), INT)
        verify(d, parsing.parse_property(case["property"], d))
    assert len(seen) > 30
    for na in seen:
        assert (solve._gap_order_rows((na,)) is None) == (gc_norm(na) is None), na


def test_nfa_symbols_are_minimal_between_two_states(auction, b1):
    # on the auction, disjunction and sweep-template goldens, no NFA edge's
    # symbol strictly contains the symbol of another edge between the same
    # two states (8,222 of these queries' 8,526 edges did, 7,450 of them in
    # the width-6 disjunction, before _combine kept only minimal symbols)
    cases = [(auction, c["property"]) for c in AUCTION_GOLDEN.values()]
    cases += [(b1, c["property"]) for c in DISJUNCTION_GOLDEN.values()]
    cases += [(load_model(c["model"]), c["property"]) for c in INTEGER_GOLDEN.values()]
    for d, text in cases:
        nfa = lt.build_nfa(lt.preprocess(parsing.parse_property(text, d)))
        symbols: dict = {}
        for e in nfa.edges:
            symbols.setdefault((e.src, e.dst), []).append(e.symbol)
        for e in nfa.edges:
            assert not any(s < e.symbol for s in symbols[(e.src, e.dst)]), (text, e)


def test_sweep_query_refutes_with_stored_models(b4, monkeypatch):
    # the canonisation memo is keyed by the state's DNF, so a state checks
    # for its class once however it is written: 317 of this query's 323
    # equivalence checks answer "no"; in 300 of them a stored sat model of
    # one side falsifies the other, so only 23 reach the solver, and the
    # product keeps its 62 nodes and 144 edges (a memo keyed by formulas
    # made 423 checks, 30 of them in the solver)
    equivalent = solve.equivalent
    calls: list = []

    def counting_equivalent(a, b):
        calls.append((a, b))
        return equivalent(a, b)

    monkeypatch.setattr(solve, "equivalent", counting_equivalent)
    psi = parsing.parse_property("G (a < 7) | F (s > 8)", b4)
    v = verify(b4, psi)
    assert (v.kind, v.sizes["product_nodes"], v.sizes["product_edges"]) == ("witness", 62, 144)
    assert len(calls) == 23


if __name__ == "__main__" and sys.argv[1:] == ["--module-state"]:
    print(json.dumps(_containers_changed_by_goldens_and_certificates()))
