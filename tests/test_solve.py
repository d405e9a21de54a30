import itertools
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from damc import solve
from damc.formula import (
    FALSE,
    INT,
    RAT,
    Atom,
    Term,
    VarId,
    atom,
    conj,
    disj,
    evaluate,
    exact,
    exact_div,
    free_vars,
    norm_atom,
)
from damc.solve import (
    NotGapOrder,
    cutoff,
    dnf_to_formula,
    entails,
    equivalent,
    gap_order_bound,
    gc_equivalent,
    is_gap_order,
    is_sat,
    qe_gc,
    qe_rational,
    to_dnf,
)
from damc import check_mc

from conftest import (
    assert_exact_formula,
    equivalent as reference_equivalent,
    gc_norm,
    is_exact,
    negate,
    reference_cube_cutoff,
    reference_entails,
    reference_gap_bound,
    reference_qe_gc,
    reference_sat_cube_rational,
    term_bound_eliminate,
    term_bound_resolvents,
)

x, y, z = VarId("x"), VarId("y"), VarId("z")


def gap(a, b, k):
    return atom(Term.of(a) - Term.of(b), ">=", k)


# ---------------------------------------------------------------------------
# DNF


def test_dnf_distribution():
    phi = conj(disj(atom(x, ">", 0), atom(y, ">", 0)), atom(z, "=", 1))
    cubes = to_dnf(phi)
    assert len(cubes) == 2
    assert all(len(c) == 2 for c in cubes)


def test_dnf_ne_expansion():
    cubes = to_dnf(atom(x, "!=", 1))
    assert len(cubes) == 2
    ops = sorted(c[0].op for c in cubes)
    assert ops == ["<", "<"]  # below and above, each strict


def test_normal_form_coefficients_are_ints():
    # x/2 - 3y/4 > 1 scales to -2x + 3y < -4; a constant is an int when it
    # is integral and a Fraction (5/2 here) only when it is not
    t = Term.make([(x, F(1, 2)), (y, F(-3, 4))])
    na = norm_atom(atom(t, ">", 1))
    assert na.coeffs == ((x, -2), (y, 3)) and na.const == F(-4)
    cubes = [(na,)]
    cubes += to_dnf(atom(t, "!=", 1))  # the != split
    cubes += to_dnf(negate(atom(t, "<=", 1)))  # a complemented atom
    cubes += to_dnf(conj(atom(x, ">=", 1), atom(x, "<=", 3)))  # a flipped lower bound
    cubes += to_dnf(negate(atom(t, "=", 1)))
    cubes += [
        solve._as_difference_cube(c)
        for c in to_dnf(conj(atom(Term.of(x) - Term.of(y), "=", 0), atom(x, "<", F(5, 2))))
    ]
    assert len(cubes) == 8 and all(len(c) for c in cubes)
    assert all(type(c) is int for cube in cubes for na in cube for _, c in na.coeffs)
    assert all(type(na.const) is int for cube in cubes for na in cube)
    assert type(norm_atom(atom(x, "<", F(5, 2))).const) is F


def test_exact_refuses_floats():
    with pytest.raises(TypeError):
        exact(0.5)
    with pytest.raises(TypeError):
        Term.of(0.5)
    assert type(exact(F(4, 2))) is int and exact(F(5, 2)) == F(5, 2)
    assert exact_div(6, 3) == 2 and type(exact_div(6, 3)) is int
    assert exact_div(5, 2) == F(5, 2) and exact_div(F(3, 2), F(1, 2)) == 3


# coefficients and constants with denominators 1 to 3: integral ones as
# ints and as Fractions (4/2), and non-integral ones such as 5/2 and -1/3
exact_values = st.builds(F, st.integers(-6, 6), st.integers(1, 3))


@st.composite
def exact_atoms(draw):
    """Atoms whose sides are sums and rescalings of terms over x, y and z,
    so that Fraction arithmetic meets integral results (1/2 + 1/2)."""
    terms = st.lists(st.tuples(st.sampled_from((x, y, z)), exact_values), max_size=3).map(
        Term.make
    )
    lhs = draw(terms) + draw(terms).scale(draw(exact_values)) + Term.of(draw(exact_values))
    op = draw(st.sampled_from(("<", "<=", "=", "!=", ">", ">=")))
    return Atom(lhs, op, Term.of(draw(exact_values)) - draw(terms))


@settings(max_examples=300, deadline=None)
@given(st.lists(exact_atoms(), min_size=1, max_size=4))
def test_values_are_ints_unless_not_integral(atoms):
    # every Term, NormAtom constant and model value is an int when it is
    # integral, a Fraction when it is not, and never a float
    phi = conj(*atoms)
    for a in atoms:
        assert_exact_formula(a)
        assert_exact_formula(norm_atom(a).to_atom())
        assert all(type(c) is int for _, c in norm_atom(a).coeffs)
    cubes = to_dnf(phi)
    assert all(is_exact(na.const) for cube in cubes for na in cube)
    for cube in cubes:
        tight = solve._as_difference_cube(cube)
        assert tight is None or all(type(na.const) is int for na in tight)
    res = is_sat(cubes, RAT)
    if res.sat:
        assert all(is_exact(v) for v in res.model.values()) and evaluate(phi, res.model)
    assert_exact_formula(dnf_to_formula(qe_rational([x], tuple(cubes))))
    try:
        res = is_sat(to_dnf(phi, INT), INT)
    except solve.UnsupportedInteger:
        return
    if res.sat:
        assert all(type(v) is int for v in res.model.values())


def test_dnf_false():
    assert to_dnf(FALSE) == []
    assert to_dnf(conj(atom(x, "<", x))) == []  # a < a contradiction


# ---------------------------------------------------------------------------
# Rational quantifier elimination (worked examples)


def test_qe_rational_first_step():
    x0, y0 = x.indexed(0), y.indexed(0)
    body = conj(atom(x0, "=", 0), atom(y0, "=", 0), atom(x, ">", y0), atom(y, "=", y0))
    out = qe_rational([x0, y0], tuple(to_dnf(body)))
    assert equivalent(out, to_dnf(conj(atom(x, ">", 0), atom(y, "=", 0))))


def test_qe_rational_second_step():
    x1, y1 = x.indexed(1), y.indexed(1)
    body = conj(atom(x1, ">", 0), atom(y1, "=", 0), atom(x, "=", x1), atom(y, ">", x1))
    out = qe_rational([x1, y1], tuple(to_dnf(body)))
    assert equivalent(out, to_dnf(conj(atom(x, ">", 0), atom(y, ">", x))))


def test_qe_rational_unused_var():
    out = qe_rational([x], tuple(to_dnf(atom(y, ">", 3))))
    assert equivalent(out, to_dnf(atom(y, ">", 3)))


@st.composite
def rational_cubes(draw):
    """Normalized cubes of atoms over x, y and z with coefficients in -4..4,
    so that combined rows meet gcds above 1 and negative leading
    coefficients, and a cube may hold several equalities on a variable."""
    lit = st.tuples(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        st.sampled_from(("<", "<=", "=", ">", ">=")),
        st.integers(-12, 12).map(lambda k: F(k, 3)),
    )
    atoms = [
        norm_atom(atom(Term.make(zip((x, y, z), map(F, cs))), op, k))
        for cs, op, k in draw(st.lists(lit, min_size=1, max_size=6))
    ]
    cube = solve.norm_cube(atoms)
    return () if cube is None else cube


def ground_as_truth(na):
    # a ground row's constant is only known up to a positive factor
    return na if na.coeffs else na.truth()


@settings(max_examples=400, deadline=None)
@given(rational_cubes())
def test_row_elimination_equals_term_bound_elimination(cube):
    # a row combination divided by its gcd (and sign-fixed for =) is the
    # atom norm_atom gives the combined Term bounds: the resolvents agree
    # atom for atom, and so do the eliminated cubes
    for v in (x, y, z):
        eqs, lowers, uppers, _ = solve._rows_on(cube, v)
        rows = solve._resolvents(eqs, lowers, uppers)
        want = term_bound_resolvents(cube, v)
        assert list(map(ground_as_truth, rows)) == list(map(ground_as_truth, want))
        assert solve._eliminate(cube, {v}) == term_bound_eliminate(cube, v)


# ---------------------------------------------------------------------------
# Gap-order quantifier elimination


def test_qe_gc_worked_example():
    x1, y1 = x.indexed(1), y.indexed(1)
    body = conj(gap(x1, y1, 2), atom(y1, "=", 0), atom(x, "=", x1), gap(y, y1, 3))
    out = dnf_to_formula(qe_gc([x1, y1], tuple(to_dnf(body, INT))))
    assert reference_equivalent(out, conj(atom(x, ">=", 2), atom(y, ">=", 3)), INT)


def test_qe_gc_brute_force_grid():
    # oracle: brute-force equivalence over the integer grid {-5..10}^2
    body = conj(gap(x, y, 1), gap(y, 0, 0))
    out = dnf_to_formula(qe_gc([y], tuple(to_dnf(body, INT))))
    assert free_vars(out) <= {x}
    for xv in range(-5, 11):
        truth = any(
            evaluate(body, {x: F(xv), y: F(yv)}) for yv in range(-5, 11)
        )
        assert evaluate(out, {x: F(xv)}) == truth


def test_qe_gc_unused_var():
    out = dnf_to_formula(qe_gc([y], tuple(to_dnf(gap(x, z, 2), INT))))
    assert reference_equivalent(out, gap(x, z, 2), INT)


def test_qe_gc_rejects_non_gap():
    with pytest.raises(NotGapOrder):
        qe_gc([y], tuple(to_dnf(atom(Term.of(x) - Term.of(y), "<=", 3), INT)))


def difference_atoms():
    """`v - w op c` and `v op c` with c integral or not: the shapes whose
    gap-order membership depends on the constant and the operator."""
    vs = st.sampled_from((x, y, z))
    ops = st.sampled_from(("<", "<=", "=", "!=", ">", ">="))
    return st.one_of(
        st.builds(lambda v, w, o, c: atom(Term.of(v) - w, o, c), vs, vs, ops, exact_values),
        st.builds(atom, vs, ops, exact_values),
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(difference_atoms(), min_size=1, max_size=4), st.sampled_from((x, y, z)))
@example([atom(Term.of(x) - y, "!=", F(5, 2)), atom(Term.of(y) - z, ">=", 1)], y)
def test_qe_gc_agrees_with_the_triple_reference(atoms, v):
    # both read the integer DNF, where a `!=` with a non-integral constant
    # is true
    phi = conj(*atoms)
    cubes = tuple(to_dnf(phi, INT))
    assume(all(is_gap_order(na) for cube in cubes for na in cube))
    got = dnf_to_formula(qe_gc([v], cubes))
    assert reference_equivalent(got, reference_qe_gc([v], phi), INT), (str(phi), v)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(exact_atoms(), difference_atoms()), min_size=1, max_size=3))
def test_gap_order_membership_from_tightened_rows(atoms):
    # qe_gc reads membership off the tightened rows; it rejects the atoms
    # that the reference triple view cannot write as gaps, and names the
    # first one
    cubes = to_dnf(conj(*atoms))
    for na in (na for cube in cubes for na in cube):
        assert (solve._gap_order_rows((na,)) is None) == (gc_norm(na) is None), na
    bad = [na for cube in cubes for na in cube if gc_norm(na) is None]
    if not bad:
        qe_gc([x], tuple(cubes))
        return
    with pytest.raises(NotGapOrder) as e:
        qe_gc([x], tuple(cubes))
    assert str(e.value) == f"not a gap-order atom: {bad[0].to_atom()}"


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.one_of(difference_atoms(), exact_atoms()), min_size=1, max_size=4),
    st.integers(1, 12),
)
@example([atom(Term.of(x) - y, "!=", 1)], 1)
@example([atom(Term.of(y) - x, "!=", -1)], 1)
def test_gap_order_reading_matches_the_triple_view_on_raw_atoms(atoms, K):
    # on atoms as written (a `!=`, an equality with a non-integral constant,
    # a ground atom), membership and K read off the tightened rows are the
    # ones the reference reads off (p, q, k) triples; the cutoff of each
    # atom's integer DNF (a `!=` split) is the reference's, atom by atom
    nas = [norm_atom(a) for a in atoms]
    for a, na in zip(atoms, nas):
        assert is_gap_order(na) == (gc_norm(na) is not None), na
        cubes = tuple(to_dnf(a, INT))
        if gc_norm(na) is None:
            with pytest.raises(NotGapOrder):
                cutoff(cubes, K)
        else:
            assert cutoff(cubes, K) == reference_cube_cutoff(cubes, K), (a, K)
    assert gap_order_bound(nas) == reference_gap_bound(nas)
    if all(map(is_gap_order, nas)):
        cubes = tuple(to_dnf(disj(atoms[0], conj(*atoms[1:])), INT))
        assert cutoff(cubes, K) == reference_cube_cutoff(cubes, K)


def test_gap_order_reading_keeps_the_triple_view_quirks():
    # over the integers x - y != 1 is the gaps y - x >= 0 | x - y >= 2, and
    # x - y != -1/3 is true; a two-variable disequality adds the gaps of its
    # alternatives to K, as its disjunctive spelling does, whichever way it
    # is oriented.  x - y != 2 has a row x - y <= 1, no gap.  x = 5/2 is the
    # gap 0 - 0 >= 1, so its cutoff at K = 1 is false
    for c, K in ((1, 3), (-1, 3), (F(-1, 3), 1), (0, 2)):
        ne = atom(Term.of(x) - y, "!=", c)
        assert is_gap_order(norm_atom(ne)) and gap_order_bound([norm_atom(ne)]) == K
        assert gap_order_bound([norm_atom(atom(Term.of(y) - x, "!=", -c))]) == K
    spelled = (atom(Term.of(x) - y, "<=", 0), atom(Term.of(x) - y, ">=", 2))
    assert gap_order_bound(map(norm_atom, spelled)) == 3
    assert not is_gap_order(norm_atom(atom(Term.of(x) - y, "!=", 2)))
    half = atom(x, "=", F(5, 2))
    assert gap_order_bound([norm_atom(half)]) == 2
    cubes = tuple(to_dnf(half, INT))
    assert cutoff(cubes, 1) == () and cutoff(cubes, 2) == cubes
    # an upper bound x <= u < 0 adds -u, a lower bound and an equality their
    # constant, each disequality also 1
    assert gap_order_bound([norm_atom(atom(x, "<=", -3))]) == 4
    assert gap_order_bound([norm_atom(atom(x, ">=", -3))]) == 4
    assert gap_order_bound(map(norm_atom, (atom(x, "<=", -3), atom(y, ">=", -3)))) == 7
    assert gap_order_bound([norm_atom(atom(x, "=", -2))]) == 3
    assert gap_order_bound([norm_atom(atom(x, "!=", -2))]) == 4


# ---------------------------------------------------------------------------
# Satisfiability


def test_is_sat_model_validated():
    phi = conj(atom(x, ">", 0), atom(y, ">", x))
    res = is_sat(to_dnf(phi), RAT)
    assert res.sat and evaluate(phi, res.model)


def test_is_sat_unsat():
    assert not is_sat(to_dnf(conj(atom(x, ">", y), atom(y, ">", x))), RAT).sat


def test_is_sat_cutoff_equisatisfiable_example():
    cubes = tuple(to_dnf(conj(gap(x, y, 2), atom(y, ">=", 3)), INT))
    assert is_sat(cubes, INT).sat == is_sat(cutoff(cubes, 4), INT).sat


def test_is_sat_integer_difference_exact():
    # 0 < x < 1 has rational but no integer solution
    phi = conj(atom(x, ">", 0), atom(x, "<", 1))
    assert is_sat(to_dnf(phi), RAT).sat
    assert not is_sat(to_dnf(phi, INT), INT).sat


def test_is_sat_integer_non_integral_bounds():
    # 2x >= 3 is x >= 2 and 2x <= 3 is x <= 1 over the integers
    two_x = Term.of(x).scale(F(2))
    assert not is_sat(to_dnf(conj(atom(two_x, ">=", 3), atom(two_x, "<=", 3)), INT), INT).sat
    res = is_sat(to_dnf(conj(atom(two_x, ">=", 3), atom(x, "<=", 2)), INT), INT)
    assert res.sat and res.model == {x: F(2)}


def test_is_sat_integer_model_is_integral():
    phi = conj(gap(x, y, 2), gap(y, 0, 3))
    res = is_sat(to_dnf(phi, INT), INT)
    assert res.sat
    assert all(v.denominator == 1 for v in res.model.values())
    assert evaluate(phi, res.model)


def reference_model(phi, dom):
    # is_sat's first model over the domain's DNF, each cube (tightened over
    # the integers) solved by the reference back-substitution
    for cube in to_dnf(phi, dom):
        model = reference_sat_cube_rational(
            cube if dom == RAT else solve._as_difference_cube(cube)
        )
        if model is not None:
            return model
    return None


@settings(max_examples=400, deadline=None, derandomize=True)
@given(rational_cubes())
def test_sat_model_equals_the_reference_on_rational_cubes(cube):
    # one elimination loop for QE and sat must pick the model, and so the
    # witness values, that sat's own loop picked
    phi = solve.dnf_to_formula([cube])
    assert is_sat(to_dnf(phi), RAT).model == reference_model(phi, RAT)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(difference_atoms(), min_size=1, max_size=4))
def test_sat_model_equals_the_reference_on_difference_cubes(atoms):
    phi = conj(*atoms)
    cubes = to_dnf(phi)
    assume(all(solve._as_difference_cube(c) is not None for c in cubes))
    assert is_sat(to_dnf(phi, INT), INT).model == reference_model(phi, INT)


def test_is_sat_integer_refuses_outside_fragment():
    # 2x = 2y + 1 has rational models only and 3x = 2y + 1 has integer ones;
    # both lie outside the difference fragment, so the solver refuses rather
    # than guess
    for cx in (2, 3):
        phi = atom(Term.of(x).scale(F(cx)), "=", Term.of(y).scale(F(2)) + Term.of(1))
        with pytest.raises(solve.UnsupportedInteger):
            is_sat(to_dnf(phi, INT), INT)


DIFF_TERMS = (
    Term.of(x), Term.of(y), Term.of(z), Term.of(x) - y, Term.of(y) - z, Term.of(z) - x
)


@st.composite
def boxed_difference_formulas(draw):
    """Disjunctions of cubes of difference atoms over x, y and z, each
    variable boxed into -4..4, with integer or half-integer constants.  A
    two-variable `=` keeps the constant 0, the only one gap order allows."""
    lit = st.tuples(
        st.sampled_from(DIFF_TERMS),
        st.sampled_from(("<", "<=", "=", "!=", ">", ">=")),
        st.integers(-10, 10).map(lambda k: F(k, 2)),
    )
    cubes = draw(st.lists(st.lists(lit, min_size=1, max_size=4), min_size=1, max_size=3))
    box = [atom(v, op, k) for v in (x, y, z) for op, k in ((">=", -4), ("<=", 4))]
    return conj(
        *box,
        disj(*(
            conj(*(atom(t, op, 0 if op == "=" and len(t.coeffs) == 2 else c) for t, op, c in cube))
            for cube in cubes
        )),
    )


@settings(max_examples=200, deadline=None)
@given(boxed_difference_formulas())
def test_integer_is_sat_agrees_with_brute_force(phi):
    box = range(-4, 5)
    expected = any(
        evaluate(phi, {x: F(a), y: F(b), z: F(c)}) for a in box for b in box for c in box
    )
    res = is_sat(to_dnf(phi, INT), INT)
    assert res.sat == expected
    if res.sat:
        assert all(v.denominator == 1 for v in res.model.values())
        assert evaluate(phi, res.model)


# ---------------------------------------------------------------------------
# Equivalence


def test_equivalent_redundant_atom():
    lhs = conj(atom(x, ">", 0), atom(y, ">", x))
    rhs = conj(atom(x, ">", 0), atom(y, ">", x), atom(y, ">", 0))
    assert equivalent(to_dnf(lhs), to_dnf(rhs))


def test_equivalent_reflexive():
    cubes = to_dnf(conj(atom(x, ">", 0), atom(y, "=", 0)))
    assert equivalent(cubes, cubes)


def test_equivalent_strict_vs_nonstrict():
    assert not equivalent(to_dnf(atom(x, ">", 0)), to_dnf(atom(x, ">=", 0)))


@st.composite
def rational_dnfs(draw):
    """DNFs of up to three `rational_cubes`, with their `=`, strict and
    non-strict atoms."""
    return tuple(draw(st.lists(rational_cubes(), max_size=3)))


@settings(max_examples=300, deadline=None)
@given(
    rational_dnfs(),
    st.one_of(rational_dnfs(), st.sampled_from(((), ((),)))),
)
def test_entails_agrees_with_the_formula_reference(a, b):
    # a's cubes each conjoined with b's negation, cube by cube, against the
    # formula a & !b renormalised through to_dnf; b ranges over several
    # cubes, false () and true ((),)
    want = reference_entails(dnf_to_formula(a), dnf_to_formula(b))
    assert entails(a, b) == want, (a, b)
    assert equivalent(a, b) == (want and reference_entails(dnf_to_formula(b), dnf_to_formula(a)))


def test_entails_keeps_whole_a_partial_cube_outside_the_next_cube(monkeypatch):
    # the 64 cubes of six `!=` atoms, each against the cubes in reverse
    # order: a partial cube that contradicts the next cube already lies in
    # its negation, so it is kept whole rather than split atom by atom
    calls = []
    counted = solve.norm_cube
    monkeypatch.setattr(solve, "norm_cube", lambda atoms: calls.append(1) or counted(atoms))
    vs = [VarId(n) for n in "abcdef"]
    cubes = to_dnf(conj(*(atom(v, "!=", k) for k, v in enumerate(vs))))
    assert len(cubes) == 64
    assert equivalent(cubes, cubes[::-1])
    assert len(calls) < 10_000


# ---------------------------------------------------------------------------
# Cutoff (on integer DNFs)


def int_dnf(phi):
    return tuple(to_dnf(phi, INT))


def test_cutoff_replaces_large_gaps():
    phi = conj(gap(x, 0, 5), gap(y, 0, 6))
    assert cutoff(int_dnf(phi), 4) == int_dnf(conj(gap(x, 0, 4), gap(y, 0, 4)))


def test_cutoff_keeps_small_gaps():
    cubes = int_dnf(gap(x, y, 2))
    assert cutoff(cubes, 4) == cubes


def test_cutoff_per_atom_in_disjunction():
    phi = disj(gap(x, y, 9), gap(x, 0, 1))
    assert cutoff(int_dnf(phi), 4) == int_dnf(disj(gap(x, y, 4), gap(x, 0, 1)))


def test_gc_equivalent_shifted_pair():
    a = conj(atom(x, ">=", 5), atom(y, ">=", 6))
    b = conj(atom(x, ">=", 8), atom(y, ">=", 9))
    assert gc_equivalent(int_dnf(a), int_dnf(b), 4)


def test_gc_equivalent_reflexive_and_negative():
    cubes = int_dnf(conj(gap(x, y, 2)))
    assert gc_equivalent(cubes, cubes, 4)
    assert not gc_equivalent(int_dnf(atom(x, ">=", 1)), int_dnf(atom(x, ">=", 2)), 4)


def test_cutoff_rejects_non_gap():
    with pytest.raises(NotGapOrder):
        cutoff(int_dnf(atom(Term.of(x) + Term.of(y), ">=", 2)), 4)


# ---------------------------------------------------------------------------
# Monotonicity constraints and gap-order membership


def test_mc_guard_is_mc_and_gap_order(b1):
    a = atom(VarId("x", "w"), ">", VarId("y", "r"))
    assert check_mc(b1, [a]) and is_gap_order(norm_atom(a))


def test_gap_is_gap_order_not_mc(b1):
    a = atom(Term.of(VarId("x", "w")) - Term.of(VarId("y", "r")), ">=", 2)
    assert is_gap_order(norm_atom(a)) and not check_mc(b1, [a])


def test_general_linear_is_neither(b1):
    a = atom(Term.of(VarId("s", "w")), "=", Term.of(VarId("s", "r")) + Term.of(VarId("b", "r")))
    assert not check_mc(b1, [a]) and not is_gap_order(norm_atom(a))


def test_equality_is_mc_and_a_gap_pair(b1):
    assert check_mc(b1, [atom(x, "=", 3)])
    assert not check_mc(b1, [conj(atom(x, "=", 3), gap(x, y, 1))])
    assert is_gap_order(norm_atom(atom(x, "=", 3))) and is_gap_order(norm_atom(gap(x, y, 1)))


def test_upper_bound_gap_is_not_gc(b1):
    a = atom(Term.of(VarId("x", "r")) - Term.of(VarId("x", "w")), "<=", 3)
    assert not is_gap_order(norm_atom(a)) and not check_mc(b1, [a])


# ---------------------------------------------------------------------------
# Equivalence-relation sanity on a fixed population


def test_equivalent_is_equivalence_relation():
    pop = [
        to_dnf(conj(atom(x, ">", 0), atom(y, ">", x))),
        to_dnf(conj(atom(x, ">", 0), atom(y, ">", x), atom(y, ">", 0))),
        to_dnf(conj(atom(x, ">=", 1))),
        to_dnf(conj(atom(x, ">", 0))),
    ]
    for f in pop:
        assert equivalent(f, f)
    for f, g in itertools.product(pop, pop):
        assert equivalent(f, g) == equivalent(g, f)
    for f, g, h in itertools.product(pop, pop, pop):
        if equivalent(f, g) and equivalent(g, h):
            assert equivalent(f, h)
