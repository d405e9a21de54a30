import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damc import ddsa as dd
from damc import oracle, parsing, product, solve
from damc.ddsa import (
    Config,
    Ddsa,
    UnknownAction,
    grounded_transition,
    history_constraint,
    step_allowed,
    successors,
    transition_formula,
    update,
    validate,
    validate_run,
)
from damc.formula import (
    INT,
    RAT,
    FormulaError,
    MissingVariable,
    Term,
    VarId,
    atom,
    atoms_of,
    conj,
    disj,
    evaluate,
    free_vars,
    norm_atom,
)
from damc.solve import dnf_to_formula, is_sat, to_dnf

from conftest import (
    cube_equivalent,
    equivalent,
    frac_grid,
    golden_queries,
    load_model,
    reference_update,
    with_domain,
)

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


def formula_image(d, phi, action):
    """`update` of a formula's cubes, written as a formula."""
    return dnf_to_formula(update(d, tuple(to_dnf(phi, d.domain)), action))


def test_update_first_steps(b1):
    phi0 = conj(atom(x, "=", 0), atom(y, "=", 0))
    u1 = formula_image(b1, phi0, "a1")
    assert equivalent(u1, conj(atom(x, ">", 0), atom(y, "=", 0)), RAT)
    phi = conj(atom(x, ">", 0), atom(y, ">", x))
    u2 = formula_image(b1, phi, "a1")
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
    assert equivalent(formula_image(d, phi, "skip"), phi, RAT)


def test_update_preserves_unsat(b1):
    phi = conj(atom(x, ">", 0), atom(x, "<", 0))
    out = update(b1, tuple(to_dnf(phi)), "a1")
    assert not is_sat(out, RAT).sat


# grounded transitions: the pre-states an action takes to a given post-state,
# which backward witness solving meets with each prefix


def test_grounded_transition_renames_reads_and_folds_writes(b1):
    # x^w > y^r and y^w = y^r, grounded on x = 5, y = 2: 5 > y and 2 = y
    out = grounded_transition(b1, "a1", {x: F(5), y: F(2)})
    assert out == to_dnf(conj(atom(y, "<", 5), atom(y, "=", 2)), RAT)


def test_grounded_transition_divides_by_the_gcd():
    # 2 x^w - 4 y^r = 0 grounded on x = 6 is -4 y = -12, primitive: y = 3,
    # which the inertia y^w = y^r grounded on y = 3 repeats
    guard = atom(Term.make([(x.write(), F(2)), (y.read(), F(-4))]), "=", 0)
    d = Ddsa(
        states=("s",),
        initial="s",
        actions=("g",),
        transitions=(("s", "g", "s"),),
        finals=frozenset({"s"}),
        variables=(x, y),
        alpha0={x: F(0), y: F(0)},
        guards={"g": guard},
        domain=RAT,
    )
    out = grounded_transition(d, "g", {x: F(6), y: F(3)})
    assert out == to_dnf(atom(y, "=", 3), RAT)


def test_grounded_transition_keeps_every_unwritten_value():
    # `x^r > 0` writes nothing: its only pre-state for the post-state
    # x = 3, y = 1 is that state itself, though the guard holds at x = 2 too
    d = Ddsa(
        states=("s",),
        initial="s",
        actions=("g",),
        transitions=(("s", "g", "s"),),
        finals=frozenset({"s"}),
        variables=(x, y),
        alpha0={x: F(0), y: F(0)},
        guards={"g": atom(VarId("x", "r"), ">", 0)},
        domain=RAT,
    )
    out = dnf_to_formula(grounded_transition(d, "g", {x: F(3), y: F(1)}))
    assert evaluate(out, {x: F(3), y: F(1)})
    assert not evaluate(out, {x: F(2), y: F(1)}) and not evaluate(out, {x: F(3), y: F(0)})


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(("b1.ddsa", "b2.ddsa", "b3.ddsa", "b4.ddsa", "auction.ddsa")),
    st.data(),
)
def test_grounded_transition_matches_composed_assignment(model, data):
    d = load_model(model)
    action = data.draw(st.sampled_from(d.actions))
    grid = frac_grid(-2, 3, halves=d.domain == RAT)
    post = {v: data.draw(st.sampled_from(grid)) for v in d.variables}
    pre = {v: data.draw(st.sampled_from(grid)) for v in d.variables}
    composed = {**{v.read(): pre[v] for v in d.variables}, **{v.write(): post[v] for v in d.variables}}
    grounded = dnf_to_formula(grounded_transition(d, action, post))
    assert evaluate(grounded, pre) == evaluate(transition_formula(d, action), composed)


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


def test_write_set_is_read_off_the_guard_once_per_action(b1, monkeypatch):
    # the write set is kept per action on the model: a second call returns
    # the same tuple without reading the guard's variables, and `replace`
    # starts the memo empty, so a replaced guard gets its own write set
    d = b1.replace()
    first = d.write_set("a1")
    assert first == (x,)

    def refused(*args):
        raise AssertionError("free_vars called")

    with monkeypatch.context() as m:
        m.setattr(dd, "free_vars", refused)
        assert d.write_set("a1") is first
    swapped = d.replace(guards={**d.guards, "a1": atom(y.write(), ">", x.read())})
    assert swapped.write_set("a1") == (y,)
    assert d.write_set("a1") is first


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


@pytest.mark.parametrize(
    "changes, problem",
    [
        (lambda d: {"guards": {"a1": d.guards["a1"]}}, "action 'a2' has no guard"),
        (lambda d: {"actions": ("a1",)}, "transition uses undeclared action 'a2'"),
        (lambda d: {"alpha0": {x: F(0)}}, "initial assignment missing variable 'y'"),
    ],
)
def test_validate_names_what_a_directly_built_system_lacks(b1, changes, problem):
    # the parser never builds these: it declares each action with its guard
    # and requires an init assignment for every variable
    assert validate(b1.replace(**changes(b1))) == [problem]


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


@pytest.mark.parametrize("name", ["b1.ddsa", "b2.ddsa", "b3.ddsa", "b4.ddsa", "auction.ddsa"])
def test_step_allowed_is_the_transition_formula(name):
    """`step_allowed` compares the unwritten variables' values and evaluates
    the guard alone; it agrees with evaluating `transition_formula`, inertia
    atoms included, on every step out of a configuration that a run of
    length <= 1 reaches, to every post-state whose variables all range over
    the grid (so unwritten variables change too)."""
    d = load_model(name)
    grid = (0, 1, 3)
    checked = allowed = 0
    for run in oracle.enumerate_runs(d, 1, grid):
        pre = run.configs[-1]
        for a, dst in d.outgoing(pre.state):
            delta = transition_formula(d, a)
            for vals in itertools.product(grid, repeat=len(d.variables)):
                post = Config.make(dst, dict(zip(d.variables, vals)))
                beta = {v.read(): val for v, val in pre.alpha}
                beta.update((v.write(), val) for v, val in post.alpha)
                got = step_allowed(d, pre, a, post)
                assert got == evaluate(delta, beta), (pre, a, post)
                checked, allowed = checked + 1, allowed + got
    assert 0 < allowed < checked


def test_step_allowed_misses_a_value_as_the_transition_formula_does(b1):
    pre = Config.make("1", {x: F(0), y: F(0)})
    post = Config.make("2", {x: F(2)})  # no value for the unwritten y
    beta = {x.read(): F(0), y.read(): F(0), x.write(): F(2)}
    with pytest.raises(MissingVariable):
        evaluate(transition_formula(b1, "a1"), beta)
    with pytest.raises(MissingVariable):
        step_allowed(b1, pre, "a1", post)


# ---------------------------------------------------------------------------
# The image on normal-form cubes equals substitution-then-QE on the full
# snapshot, up to equivalence: the image copies only the written variables,
# so its syntax differs from the reference's (`x = 0 && x - y < 0` against
# `x = 0 && y > 0`).  Over the integers, where the reference is the
# gap-order elimination on triples, it is equivalence over Z (and, given the
# leaf's K, equivalence of the cutoffs at K)


def image_or_error(image, d, phi, action):
    try:
        return image(d, phi, action)
    except FormulaError as e:
        return type(e)


def assert_same_images(d, phis, K=None):
    for phi in phis:
        for a in d.actions:
            want = image_or_error(reference_update, d, phi, a)
            got = image_or_error(formula_image, d, phi, a)
            if isinstance(want, type):
                assert got == want, (str(phi), a)
                continue
            assert not isinstance(got, type), (str(phi), a, got)
            # cube by cube: the negation of a wide image has more cubes
            # than `to_dnf` allows
            cubes = [tuple(to_dnf(f, d.domain)) for f in (got, want)]
            assert cube_equivalent(*cubes, d.domain), (str(phi), a, str(got), str(want))
            if K is not None:
                assert solve.gc_equivalent(*cubes, K), (str(phi), a, K)


def test_update_equals_reference_on_golden_product_nodes():
    # every node formula of the auction, disjunction and integer golden
    # products, imaged under every action of its system; an integer image
    # is also compared after the cutoff at its gap-order leaf's K
    models = {}
    for model, dom, prop in golden_queries():
        d = with_domain(load_model(model), dom)
        v = product.verify(d, parsing.parse_property(prop, d))
        if v.product is not None:
            K = v.product.strategy.parts[0][1].K
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


# a state of the random rational states above whose `dec` images, the
# library's and the reference's, have 26 cubes each: the reference decides
# them only by keeping whole a partial cube that already lies outside the
# next cube, since splitting each such cube atom by atom blows past the
# solver's cube budget
WIDE_DEC_STATE = (
    "-3*d + 3*s != -4 && d != -3 && s + 3*t < 0 && -b + 2*d != -3"
    " || -3*d + 3*t != -1/2 && t < -5/2 && s + 3*t < 0"
    " || -3*d + 2*o + 3*s != -4 && d != -3 && -3*s != -1 && -b + 2*d != -3"
)


def test_update_equals_reference_on_a_state_with_wide_dec_images(auction):
    phi = disj(*(parsing.parse_constraint(c) for c in WIDE_DEC_STATE.split(" || ")))
    assert_same_images(auction, [phi])
    images = [tuple(to_dnf(f(auction, phi, "dec"))) for f in (formula_image, reference_update)]
    assert len(images[0]) == 26 and solve.equivalent(*images)


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
    image = formula_image(d, conj(atom(x, ">", 0), atom(x, "<", 2)), "a1")
    assert equivalent(image, atom(x, ">=", 2), INT)


# The image copies only the variables the action writes.  The guards below
# come in four kinds: guards that write one variable and read another they
# leave alone, read-only guards, write-only guards and true guards; each
# replaces one action's guard of b1-b4, and the image of a random state
# under it is equivalent to the full-snapshot reference's


GUARD_KINDS = ("reads-unwritten", "read-only", "write-only", "true")


def guard_of_kind(kind, names, gap_order):
    """A guard of the kind over two distinct named variables v and u, of
    which it writes v at most: its first atom makes it of the kind, and up
    to two more atoms keep it so."""
    if kind == "true":
        return st.just(conj())
    pair = st.lists(st.sampled_from(names), min_size=2, max_size=2, unique=True)
    return pair.flatmap(lambda vu: _guard_atoms(kind, *vu, gap_order))


def _gap(p, q):
    return st.builds(lambda k: atom(Term.of(p) - Term.of(q), ">=", k), st.integers(0, 3))


def _bound(p):
    return st.builds(atom, st.just(p), st.sampled_from((">=", "<=")), st.integers(0, 3))


def _linear(*vs):
    """`sum(c * v) op k/2`, the coefficients 1-3 of one sign."""

    def build(cs, sign, op, k):
        return atom(Term.make((v, F(sign * c)) for v, c in zip(vs, cs)), op, F(k, 2))

    coeffs = st.tuples(*(st.integers(1, 3) for _ in vs))
    op = st.sampled_from(("<", "<=", "=", ">", ">="))
    return st.builds(build, coeffs, st.sampled_from((-1, 1)), op, st.integers(-4, 4))


def _guard_atoms(kind, v, u, gap_order):
    vw, vr, ur, uw = VarId(v, "w"), VarId(v, "r"), VarId(u, "r"), VarId(u, "w")
    if gap_order:
        first, rest = {
            "reads-unwritten": (_gap(vw, ur), [_gap(ur, vw), _bound(ur), _gap(vw, vr)]),
            "read-only": (_gap(ur, vr), [_bound(ur), _bound(vr)]),
            "write-only": (_bound(vw), [_gap(vw, uw), st.just(atom(vw, "=", uw))]),
        }[kind]
    else:
        first, rest = {
            "reads-unwritten": (_linear(vw, ur), [_linear(vw, vr, ur), _linear(ur)]),
            "read-only": (_linear(ur, vr), [_linear(ur)]),
            "write-only": (_linear(vw), [_linear(vw, uw)]),
        }[kind]
    return st.builds(lambda a, more: conj(a, *more), first, st.lists(st.one_of(*rest), max_size=2))


def system_with_guard(data, dom, gap_order):
    """One of b1-b4 over the domain with one action's guard replaced by a
    guard of a drawn kind, and that action."""
    model = data.draw(st.sampled_from(("b1.ddsa", "b2.ddsa", "b3.ddsa", "b4.ddsa")))
    d = with_domain(load_model(model), dom)
    names = [v.name for v in d.variables]
    kind = data.draw(st.sampled_from(GUARD_KINDS))
    guard = data.draw(guard_of_kind(kind, names, gap_order))
    action = data.draw(st.sampled_from(d.actions))
    written = {v.name for v in free_vars(guard) if v.kind == "w"}
    read = {v.name for v in free_vars(guard) if v.kind == "r"}
    assert bool(written) == (kind in ("reads-unwritten", "write-only"))
    assert bool(read - written) == (kind in ("reads-unwritten", "read-only"))
    return d.replace(guards={**d.guards, action: guard}), action


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_update_equals_the_full_snapshot_image_over_q(data):
    d, action = system_with_guard(data, RAT, gap_order=False)
    phi = data.draw(states([v.name for v in d.variables]))
    got = update(d, tuple(to_dnf(phi, RAT)), action)
    want = tuple(to_dnf(reference_update(d, phi, action), RAT))
    assert solve.equivalent(got, want), (str(phi), str(d.guard(action)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_update_equals_the_full_snapshot_image_over_z(data):
    # over Z every variable is copied, so the cutoffs agree too: an image
    # that leaves out the rows the unwritten copies imply can have a
    # strictly weaker cutoff (on b4, a - b >= 2 && s - a >= 2 under
    # a^w - s^r >= 0 && s^r <= 1 would cut b to -2 at K = 3, where the
    # full snapshot cuts it to -3)
    d, action = system_with_guard(data, INT, gap_order=True)
    phi = data.draw(states([v.name for v in d.variables], gap_order=True))
    got = update(d, tuple(to_dnf(phi, INT)), action)
    want = tuple(to_dnf(reference_update(d, phi, action), INT))
    assert cube_equivalent(got, want, INT), (str(phi), str(d.guard(action)))
    for K in range(1, 5):
        assert solve.gc_equivalent(got, want, K), (str(phi), str(d.guard(action)), K)
