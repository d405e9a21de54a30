import dataclasses
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from damc.formula import (
    RAT,
    Atom,
    MissingVariable,
    Term,
    VarId,
    _norm_atom,
    atom,
    conj,
    disj,
    evaluate,
    free_vars,
    neg,
    norm_atom,
    substitute,
)

x, y, z = VarId("x"), VarId("y"), VarId("z")


def test_eval_satisfying_pair():
    phi = conj(atom(y, ">", 0), atom(x, ">", y))
    assert evaluate(phi, {x: F(9), y: F(7)}) is True


def test_eval_initial_identity():
    phi = conj(atom(x, "=", 0), atom(y, "=", 0))
    assert evaluate(phi, {x: F(0), y: F(0)}) is True


def test_eval_gap_false():
    phi = atom(Term.of(x) - Term.of(y), ">=", 2)
    assert evaluate(phi, {x: F(1), y: F(0)}) is False


def test_eval_errors():
    with pytest.raises(MissingVariable):
        evaluate(atom(x, ">", 0), {})
    # with a memo too, and an atom it cannot decide is not stored, so the
    # leaf's refutation keeps falling back to the solver
    truths = {}
    phi = conj(atom(y, ">", 0), atom(x, ">", 0))
    for _ in range(2):
        with pytest.raises(MissingVariable):
            evaluate(phi, {y: F(1)}, truths=truths)
    assert truths == {atom(y, ">", 0): True}


def test_free_vars():
    assert free_vars(conj(atom(x, "=", 0), atom(y, "=", 0))) == {x, y}
    assert free_vars(conj()) == set()


def test_substitute_renaming():
    xw, yr = VarId("x", "w"), VarId("y", "r")
    y0 = y.indexed(0)
    out = substitute(atom(xw, ">", yr), {xw: Term.of(x), yr: Term.of(y0)})
    assert out == atom(x, ">", y0)


def test_substitute_carryover_equality():
    vw, vr = VarId("v", "w"), VarId("v", "r")
    u, v = VarId("u"), VarId("v")
    out = substitute(atom(vw, "=", vr), {vw: Term.of(v), vr: Term.of(u)})
    assert out == atom(v, "=", u)


# ---------------------------------------------------------------------------
# invariants

terms = st.builds(
    lambda cx, cy, c: Term.make([(x, F(cx)), (y, F(cy))], F(c)),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(-5, 5),
)
ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
atoms = st.builds(Atom, terms, ops, terms)


@st.composite
def formulas(draw, depth=2):
    if depth == 0:
        return draw(atoms)
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(atoms)
    if kind == 1:
        return conj(draw(formulas(depth - 1)), draw(formulas(depth - 1)))
    if kind == 2:
        return disj(draw(formulas(depth - 1)), draw(formulas(depth - 1)))
    return neg(draw(formulas(depth - 1)))


grid_points = st.fixed_dictionaries(
    {x: st.integers(-4, 4), y: st.integers(-4, 4)}
).map(lambda m: {k: F(v) for k, v in m.items()})


@given(atoms)
def test_normalization_idempotent(a):
    # to_atom records its atom as normalized, so the uncached
    # normalization must map it back too
    na = norm_atom(a)
    assert norm_atom(na.to_atom()) == na
    assert _norm_atom(na.to_atom()) == na


@given(atoms, grid_points)
def test_norm_preserves_semantics(a, alpha):
    assert evaluate(a, alpha) == norm_atom(a).holds(alpha)


@settings(max_examples=200)
@given(formulas(), formulas(), grid_points)
def test_eval_homomorphism(f, g, alpha):
    assert evaluate(conj(f, g), alpha) == (evaluate(f, alpha) and evaluate(g, alpha))
    assert evaluate(disj(f, g), alpha) == (evaluate(f, alpha) or evaluate(g, alpha))
    assert evaluate(neg(f), alpha) == (not evaluate(f, alpha))


@settings(max_examples=200)
@given(st.lists(formulas(), min_size=1, max_size=4), grid_points)
def test_shared_truths_memo_agrees_with_evaluate(fs, alpha):
    # one memo per assignment, shared by every formula evaluated under it
    truths = {}
    for f in fs + fs:
        assert evaluate(f, alpha, truths) == evaluate(f, alpha)


@settings(max_examples=200)
@given(formulas(), st.integers(-3, 3), st.integers(-3, 3), grid_points)
def test_substitute_matches_composed_assignment(f, cx, cy, alpha):
    # ground substitution x -> cx, y -> cy
    m = {x: Term.of(F(cx)), y: Term.of(F(cy))}
    composed = {x: F(cx), y: F(cy)}
    assert evaluate(substitute(f, m), alpha) == evaluate(f, composed)


# ---------------------------------------------------------------------------
# hashes are computed once per object; a VarId is a tuple, hashed in C


def _ir_samples():
    t = Term.make([(x, F(1)), (y, F(-2))], F(3, 2))
    a = Atom(t, "<=", Term.of(z))
    return [
        x,
        VarId("x", "ix", 4),
        t,
        a,
        conj(a, atom(y, ">", 0)),
        disj(a, atom(y, ">", 0)),
        neg(a),
        norm_atom(a),
    ]


def _field_tuple(obj):
    if isinstance(obj, VarId):
        return (obj.name, obj.kind, obj.idx)
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def _rebuilt(obj):
    return type(obj)(*_field_tuple(obj))


_VARID_REPRS = {
    x: "VarId(name='x', kind='plain', idx=-1)",
    VarId("x", "ix", 4): "VarId(name='x', kind='ix', idx=4)",
}


def _assert_varid_as_before(obj):
    """What the tuple keeps of the frozen dataclass: the `repr`, and the
    (name, kind, idx) order that sorted coefficient vectors follow."""
    assert repr(obj) == _VARID_REPRS[obj]
    others = [VarId("w"), x, x.read(), x.write(), x.indexed(3), x.indexed(5), VarId("y")]
    for o in others:
        assert (obj < o) == (_field_tuple(obj) < _field_tuple(o))
        assert (obj == o) == (_field_tuple(obj) == _field_tuple(o))


@pytest.mark.parametrize("obj", _ir_samples(), ids=lambda o: type(o).__name__)
def test_hash_is_the_field_tuple_hash_stored_once(obj):
    assert hash(obj) == hash(_field_tuple(obj))
    fresh = _rebuilt(obj)
    if isinstance(obj, VarId):
        _assert_varid_as_before(obj)
    else:
        assert obj.__dict__["_hash"] == hash(obj)
        assert "_hash" not in fresh.__dict__
    # equality and repr ignore the stored value
    assert fresh == obj and repr(fresh) == repr(obj)
    assert {obj: 1}[fresh] == 1


@pytest.mark.parametrize("obj", _ir_samples(), ids=lambda o: type(o).__name__)
def test_pickle_drops_the_stored_hash(obj):
    hash(obj)
    back = pickle.loads(pickle.dumps(obj))
    if isinstance(obj, VarId):
        _assert_varid_as_before(back)
    else:
        assert "_hash" not in back.__dict__
    assert type(back) is type(obj) and repr(back) == repr(obj)
    assert back == obj and hash(back) == hash(obj)
    assert {obj: 1}[back] == 1
