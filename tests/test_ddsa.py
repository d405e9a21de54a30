import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damc import oracle, parsing, product, solve
from damc.ddsa import (
    Config,
    Ddsa,
    UnknownAction,
    history_constraint,
    step_allowed,
    successors,
    transition_formula,
    update,
    validate,
    validate_run,
)
from damc.formula import INT, RAT, FormulaError, Term, VarId, atom, conj, disj, evaluate, free_vars
from damc.solve import equivalent, is_sat

from conftest import frac_grid, load_model, reference_update, with_domain

x, y = VarId("x"), VarId("y")


def test_transition_formula_b1(b1):
    out = transition_formula(b1, "a1")
    expected = conj(
        atom(VarId("x", "w"), ">", VarId("y", "r")),
        atom(VarId("y", "w"), "=", VarId("y", "r")),
    )
    assert out == expected


def test_transition_formula_trivial_guard(b1):
    d = Ddsa(
        states=("s",),
        initial="s",
        actions=("skip",),
        transitions=(("s", "skip", "s"),),
        finals=frozenset({"s"}),
        variables=(x, y),
        alpha0={x: F(0), y: F(0)},
        guards={"skip": conj()},
        domain=RAT,
    )
    out = transition_formula(d, "skip")
    assert out == conj(
        atom(VarId("x", "w"), "=", VarId("x", "r")),
        atom(VarId("y", "w"), "=", VarId("y", "r")),
    )


def test_transition_formula_auction_fee(auction):
    out = transition_formula(auction, "fee")
    fv = {v.name for v in free_vars(out)}
    assert fv == {"s", "o", "b", "d", "t"}
    # carryovers for everything but s
    carried = [a for a in out.args if str(a).endswith("^r") and "=" in str(a)]
    assert len(carried) == 4


def test_transition_formula_unknown_action(b1):
    with pytest.raises(UnknownAction):
        transition_formula(b1, "nope")


def test_update_first_steps(b1):
    phi0 = conj(atom(x, "=", 0), atom(y, "=", 0))
    u1 = update(b1, phi0, "a1")
    assert equivalent(u1, conj(atom(x, ">", 0), atom(y, "=", 0)), RAT)
    phi = conj(atom(x, ">", 0), atom(y, ">", x))
    u2 = update(b1, phi, "a1")
    assert equivalent(u2, conj(atom(x, ">", y), atom(y, ">", 0)), RAT)


def test_update_identity_for_pure_carryover():
    d = Ddsa(
        states=("s",),
        initial="s",
        actions=("skip",),
        transitions=(("s", "skip", "s"),),
        finals=frozenset({"s"}),
        variables=(x, y),
        alpha0={x: F(0), y: F(0)},
        guards={"skip": conj()},
        domain=RAT,
    )
    phi = conj(atom(x, ">", 0), atom(y, ">", x))
    assert equivalent(update(d, phi, "skip"), phi, RAT)


def test_update_preserves_unsat(b1):
    phi = conj(atom(x, ">", 0), atom(x, "<", 0))
    out = update(b1, phi, "a1")
    assert not is_sat(out, RAT).sat


# history constraints: acceptance criterion 2 lives in test_acceptance


def test_history_constraint_base(b1):
    h0 = history_constraint(b1, [])
    assert equivalent(h0, conj(atom(x, "=", 0), atom(y, "=", 0)), RAT)


def test_history_constraint_with_verification_sets(b1):
    h = history_constraint(b1, ["a1"], [[], [atom(x, ">", 5)]])
    assert equivalent(h, conj(atom(x, ">", 5), atom(y, "=", 0)), RAT)


def test_history_constraint_length_mismatch(b1):
    with pytest.raises(ValueError):
        history_constraint(b1, ["a1"], [[]])


def test_successors_b1(b1):
    cfg = Config.make("1", {x: F(0), y: F(0)})
    out = successors(b1, cfg, "a1", frac_grid(0, 2))
    assert [c.assignment()[x] for c in out] == [F(1), F(2)]
    assert all(c.state == "2" for c in out)
    assert successors(b1, cfg, "a2", frac_grid(0, 2)) == []


def test_successors_trivial_guard_dedup():
    d = Ddsa(
        states=("s",),
        initial="s",
        actions=("skip",),
        transitions=(("s", "skip", "s"),),
        finals=frozenset({"s"}),
        variables=(x,),
        alpha0={x: F(1)},
        guards={"skip": conj()},
        domain=RAT,
    )
    cfg = Config.make("s", {x: F(1)})
    out = successors(d, cfg, "skip", frac_grid(0, 3))
    assert out == [Config.make("s", {x: F(1)})]


def test_validate_clean_models(b1, b2, b3, b4, auction):
    for d in (b1, b2, b3, b4, auction):
        assert validate(d) == []


def test_validate_reports_problems(b1):
    broken = Ddsa(
        states=("1",),
        initial="1",
        actions=("a1",),
        transitions=(("1", "a1", "s9"),),
        finals=frozenset({"s9"}),
        variables=(x,),
        alpha0={x: F(0)},
        guards={"a1": atom(VarId("q", "w"), ">", 0)},
        domain=RAT,
    )
    issues = validate(broken)
    assert any("'s9'" in m for m in issues)
    assert any("unknown variable 'q'" in m for m in issues)


def test_validate_empty_finals_diagnostic(b1):
    d = Ddsa(
        states=b1.states,
        initial=b1.initial,
        actions=b1.actions,
        transitions=b1.transitions,
        finals=frozenset(),
        variables=b1.variables,
        alpha0=b1.alpha0,
        guards=b1.guards,
        domain=b1.domain,
    )
    assert any("no final states" in m for m in validate(d))


# ---------------------------------------------------------------------------
# correspondence between runs and history constraints


def test_run_final_assignment_satisfies_history(b1, b3):
    for d, grid in ((b1, frac_grid(0, 3, halves=True)), (b3, frac_grid(0, 6))):
        for run in oracle.enumerate_runs(d, 3, grid):
            h = history_constraint(d, list(run.actions))
            assert evaluate(h, run.configs[-1].assignment())


def test_history_model_realizes_into_valid_run(b1, b3):
    for d in (b1, b3):
        for actions in (["a1"], ["a1", "a2"], ["a1", "a2", "a1"]):
            cseq = [[] for _ in range(len(actions) + 1)]
            run = product.realize_run(d, actions, cseq)
            assert run is not None
            assert validate_run(d, run)
            h = history_constraint(d, actions)
            assert evaluate(h, run.configs[-1].assignment())


def test_step_allowed_agrees_with_guard(b1):
    pre = Config.make("1", {x: F(0), y: F(0)})
    good = Config.make("2", {x: F(2), y: F(0)})
    bad = Config.make("2", {x: F(0), y: F(0)})
    changed = Config.make("2", {x: F(2), y: F(5)})  # y must carry over
    assert step_allowed(b1, pre, "a1", good)
    assert not step_allowed(b1, pre, "a1", bad)
    assert not step_allowed(b1, pre, "a1", changed)


# ---------------------------------------------------------------------------
# The image on normal-form cubes equals substitution-then-QE: formula for
# formula over the rationals; over the integers, where the reference is the
# gap-order elimination on triples, up to equivalence over Z (and, given the
# leaf's K, up to equivalence of the cutoffs at K)


def image_or_error(image, d, phi, action):
    try:
        return image(d, phi, action)
    except FormulaError as e:
        return type(e)


def assert_same_images(d, phis, K=None):
    for phi in phis:
        for a in d.actions:
            want = image_or_error(reference_update, d, phi, a)
            got = image_or_error(update, d, phi, a)
            if d.domain == RAT or isinstance(want, type):
                assert got == want, (str(phi), a)
                continue
            assert not isinstance(got, type), (str(phi), a, got)
            assert equivalent(got, want, INT), (str(phi), a, str(got), str(want))
            if K is not None:
                assert solve.gc_equivalent(got, want, K), (str(phi), a, K)


GOLDEN = Path(__file__).parent / "golden"


def golden_queries():
    for name in ("auction", "disjunction"):
        for case in json.loads((GOLDEN / f"{name}_verdicts.json").read_text()).values():
            yield "auction.ddsa" if name == "auction" else "b1.ddsa", RAT, case["property"]
    for case in json.loads((GOLDEN / "integer_verdicts.json").read_text()).values():
        yield case["model"], INT, case["property"]


def test_update_equals_reference_on_golden_product_nodes():
    # every node formula of the auction, disjunction and integer golden
    # products, imaged under every action of its system; an integer image
    # is also compared after the cutoff at its gap-order leaf's K
    models = {}
    for model, dom, prop in golden_queries():
        d = with_domain(load_model(model), dom)
        v = product.verify(d, parsing.parse_property(prop, d))
        if v.product is not None:
            K = getattr(v.strategy, "K", None)
            models.setdefault((model, dom, K), (d, set()))[1].update(
                node.formula for node in v.product.nodes
            )
    assert sum(len(phis) for _, phis in models.values()) > 100
    for (_, _, K), (d, phis) in models.items():
        assert_same_images(d, sorted(phis, key=str), K)


def linear_atoms(names, gap_order):
    """Atoms over the named plain variables: integer combinations with
    coefficients in -3..3 and half-integer constants, or (gap_order) the
    gap-order shapes v >= k, v <= k, v - w >= k, v = w and v != k with
    k in 0..4."""
    vs = st.sampled_from([VarId(n) for n in names])
    if gap_order:
        const = st.integers(0, 4)
        return st.one_of(
            st.builds(lambda v, k: atom(v, ">=", k), vs, const),
            st.builds(lambda v, k: atom(v, "<=", k), vs, const),
            st.builds(lambda v, w, k: atom(Term.of(v) - Term.of(w), ">=", k), vs, vs, const),
            st.builds(lambda v, w: atom(v, "=", w), vs, vs),
            st.builds(lambda v, k: atom(v, "!=", k), vs, const),
        )
    term = st.lists(st.tuples(vs, st.integers(-3, 3)), min_size=1, max_size=3).map(
        lambda cs: Term.make((v, F(c)) for v, c in cs)
    )
    op = st.sampled_from(("<", "<=", "=", "!=", ">", ">="))
    return st.builds(lambda t, o, k: atom(t, o, F(k, 2)), term, op, st.integers(-8, 8))


def states(names, gap_order=False):
    """Disjunctions of conjunctions of atoms, as the product's states are."""
    cube = st.lists(linear_atoms(names, gap_order), min_size=1, max_size=4)
    return st.lists(cube, min_size=1, max_size=3).map(lambda cs: disj(*(conj(*c) for c in cs)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("b1.ddsa", "b2.ddsa", "b4.ddsa", "auction.ddsa")), st.data())
def test_update_equals_reference_on_random_rational_states(model, data):
    d = load_model(model)
    phi = data.draw(states([v.name for v in d.variables]))
    assert_same_images(d, [phi])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(("b1.ddsa", "b3.ddsa")), st.data())
def test_update_equals_reference_on_random_gap_order_states(model, data):
    d = with_domain(load_model(model), INT)
    phi = data.draw(states([v.name for v in d.variables], gap_order=True))
    assert_same_images(d, [phi])


def squeezes(names):
    """`v > k & v < k + 2`: over the integers v is k + 1, over the
    rationals anything strictly between."""
    return st.builds(
        lambda v, k: conj(atom(v, ">", k), atom(v, "<", k + 2)),
        st.sampled_from([VarId(n) for n in names]),
        st.integers(-1, 3),
    )


def gap_order_guards(names):
    """Guard atoms over read and write copies in gap-order shapes, strict
    differences between a write and a read included."""
    reads = st.sampled_from([VarId(n, "r") for n in names])
    writes = st.sampled_from([VarId(n, "w") for n in names])
    k = st.integers(0, 2)
    return st.one_of(
        st.builds(lambda w, r, k: atom(Term.of(w) - Term.of(r), ">", k), writes, reads, k),
        st.builds(lambda w, r, k: atom(Term.of(r) - Term.of(w), ">", k), writes, reads, k),
        st.builds(lambda w, r, k: atom(Term.of(w) - Term.of(r), ">=", k), writes, reads, k),
        st.builds(lambda w, k: atom(w, "<", k), writes, st.integers(0, 4)),
        st.builds(lambda w, r: atom(w, "=", r), writes, reads),
    )


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_update_equals_reference_on_squeezed_gap_order_snapshots(data):
    # a snapshot held strictly between two bounds and read by a strict
    # write: x > 0 & x < 2 imaged by x^w > x^r is x >= 2 over Z but x > 0
    # (x >= 1) when the strict bounds are eliminated over Q
    names = ("x", "y")
    guards = {
        a: conj(*data.draw(st.lists(gap_order_guards(names), min_size=1, max_size=2)))
        for a in ("a1", "a2")
    }
    d = Ddsa(
        states=("1", "2"),
        initial="1",
        actions=("a1", "a2"),
        transitions=(("1", "a1", "2"), ("2", "a2", "1")),
        finals=frozenset({"2"}),
        variables=(x, y),
        alpha0={x: 0, y: 0},
        guards=guards,
        domain=INT,
    )
    part = st.one_of(squeezes(names), linear_atoms(names, gap_order=True))
    cube = st.lists(part, min_size=1, max_size=3).map(lambda ps: conj(*ps))
    phi = data.draw(st.lists(cube, min_size=1, max_size=2).map(lambda cs: disj(*cs)))
    assert_same_images(d, [phi])


def test_squeezed_snapshot_image_is_the_integer_one():
    d = Ddsa(
        states=("1", "2"),
        initial="1",
        actions=("a1",),
        transitions=(("1", "a1", "2"),),
        finals=frozenset({"2"}),
        variables=(x,),
        alpha0={x: 0},
        guards={"a1": atom(VarId("x", "w"), ">", VarId("x", "r"))},
        domain=INT,
    )
    image = update(d, conj(atom(x, ">", 0), atom(x, "<", 2)), "a1")
    assert equivalent(image, atom(x, ">=", 2), INT)
