import ast
import operator
import pickle
from fractions import Fraction as F
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import damc
from damc import ltlf as lt
from damc.ddsa import Config, Run
from damc.formula import (
    FALSE,
    INT,
    RAT,
    TRUE,
    Atom,
    MissingVariable,
    NormAtom,
    Term,
    TrueF,
    Value,
    VarId,
    _norm_atom,
    atom,
    conj,
    disj,
    evaluate,
    free_vars,
    norm_atom,
)
from damc.product import PEdge, PNode
from damc.solve import SatResult

from conftest import negate

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


def test_free_vars():
    assert free_vars(conj(atom(x, "=", 0), atom(y, "=", 0))) == {x, y}
    assert free_vars(conj()) == set()


# ---------------------------------------------------------------------------
# invariants

# rational coefficients and constants, so normalising scales by the lcm
# of the denominators
dens = st.integers(1, 4)
terms = st.builds(
    lambda cx, dx, cy, dy, c, dc: Term.make([(x, F(cx, dx)), (y, F(cy, dy))], F(c, dc)),
    st.integers(-3, 3),
    dens,
    st.integers(-3, 3),
    dens,
    st.integers(-5, 5),
    dens,
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
    return negate(draw(formulas(depth - 1)))


grid_points = st.fixed_dictionaries(
    {x: st.integers(-4, 4), y: st.integers(-4, 4)}
).map(lambda m: {k: F(v) for k, v in m.items()})


@given(atoms)
def test_normalization_idempotent(a):
    # the atom to_atom prints stores its normal form, so normalising that
    # atom afresh must give it back too
    na = norm_atom(a)
    assert norm_atom(na.to_atom()) == na
    assert _norm_atom(na.to_atom()) == na
    # primitive int coefficients, the first positive on `=` and `!=`
    cs = [c for _, c in na.coeffs]
    assert all(type(c) is int for c in cs)
    if cs:
        assert gcd(*cs) == 1
        assert na.op not in ("=", "!=") or cs[0] > 0


COMPARE = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


@given(atoms, grid_points)
def test_norm_preserves_semantics(a, alpha):
    assert evaluate(a, alpha) == norm_atom(a).holds(alpha)
    # `evaluate` reads the normal form, so compare with the terms' values
    assert norm_atom(a).holds(alpha) == COMPARE[a.op](a.lhs.value(alpha), a.rhs.value(alpha))


@settings(max_examples=200)
@given(formulas(), formulas(), grid_points)
def test_eval_homomorphism(f, g, alpha):
    assert evaluate(conj(f, g), alpha) == (evaluate(f, alpha) and evaluate(g, alpha))
    assert evaluate(disj(f, g), alpha) == (evaluate(f, alpha) or evaluate(g, alpha))
    assert evaluate(negate(f), alpha) == (not evaluate(f, alpha))


# ---------------------------------------------------------------------------
# Value classes: the hash, equality, `repr` and pickling of the frozen
# dataclasses they were.  A tree node stores its hash once; a flat record is
# a named tuple, hashed and compared in C


def _ir_samples():
    """(object, its field tuple, its `repr` as the dataclass printed it) for
    one instance of every value class, and two atoms that store their normal
    form (`_norm`): one normalised, and one printed by `NormAtom.to_atom`."""
    t = Term.make([(x, F(1)), (y, F(-2))], F(3, 2))
    a = Atom(t, "<=", Term.of(z))
    b = atom(y, ">", 0)
    normalised = atom(x, ">=", y)
    norm_atom(normalised)
    printed = NormAtom(((x, -2), (y, 1)), "<", 3).to_atom()
    z_term = Term(((z, 1),), 0)
    c, s, act = lt.Constr(b), lt.StateAtom("s1"), lt.ActionAtom("bid")
    sym = frozenset({s})
    c1, c2 = Config("s1", ((x, 0),)), Config("s2", ((x, 3),))
    X = "VarId(name='x', kind='plain', idx=-1)"
    Y = "VarId(name='y', kind='plain', idx=-1)"
    Z = "VarId(name='z', kind='plain', idx=-1)"
    T = f"Term(coeffs=(({X}, 1), ({Y}, -2)), const=Fraction(3, 2))"
    A = f"Atom(lhs={T}, op='<=', rhs=Term(coeffs=(({Z}, 1),), const=0))"
    B = f"Atom(lhs=Term(coeffs=(({Y}, 1),), const=0), op='>', rhs=Term(coeffs=(), const=0))"
    S = "frozenset({StateAtom(state='s1')})"
    return [
        (x, ("x", "plain", -1), X),
        (VarId("x", "ix", 4), ("x", "ix", 4), "VarId(name='x', kind='ix', idx=4)"),
        (INT, ("int",), "Domain(tag='int')"),
        (t, (((x, 1), (y, -2)), F(3, 2)), T),
        (TRUE, (), "TrueF()"),
        (FALSE, (), "FalseF()"),
        (a, (t, "<=", z_term), A),
        (conj(a, b), ((a, b),), f"And(args=({A}, {B}))"),
        (disj(a, b), ((a, b),), f"Or(args=({A}, {B}))"),
        (
            norm_atom(a),
            (((x, 1), (y, -2), (z, -1)), "<=", F(-3, 2)),
            f"NormAtom(coeffs=(({X}, 1), ({Y}, -2), ({Z}, -1)), op='<=', const=Fraction(-3, 2))",
        ),
        (lt.TOP, (), "Top()"),
        (lt.BOT, (), "Bot()"),
        (c, (b,), f"Constr(formula={B})"),
        (s, ("s1",), "StateAtom(state='s1')"),
        (act, ("bid",), "ActionAtom(action='bid')"),
        (lt.LAnd(c, s), (c, s), f"LAnd(left=Constr(formula={B}), right=StateAtom(state='s1'))"),
        (lt.LOr(c, act), (c, act), f"LOr(left=Constr(formula={B}), right=ActionAtom(action='bid'))"),
        (lt.Next(c), (c,), f"Next(sub=Constr(formula={B}))"),
        (lt.ActNext("bid", s), ("bid", s), "ActNext(action='bid', sub=StateAtom(state='s1'))"),
        (lt.Eventually(c), (c,), f"Eventually(sub=Constr(formula={B}))"),
        (lt.Always(s), (s,), "Always(sub=StateAtom(state='s1'))"),
        (lt.Until(s, c), (s, c), f"Until(left=StateAtom(state='s1'), right=Constr(formula={B}))"),
        (
            lt.DeltaEntry(c, sym, not_last=True),
            (c, sym, False, True),
            f"DeltaEntry(target=Constr(formula={B}), symbol={S}, last=False, not_last=True)",
        ),
        (lt.NfaEdge(0, sym, 1), (0, sym, 1), f"NfaEdge(src=0, symbol={S}, dst=1)"),
        (
            Config("s1", ((x, 0), (y, F(1, 2)))),
            ("s1", ((x, 0), (y, F(1, 2)))),
            f"Config(state='s1', alpha=(({X}, 0), ({Y}, Fraction(1, 2))))",
        ),
        (
            Run((c1, c2), ("bid",)),
            ((c1, c2), ("bid",)),
            f"Run(configs=(Config(state='s1', alpha=(({X}, 0),)), "
            f"Config(state='s2', alpha=(({X}, 3),))), actions=('bid',))",
        ),
        (PNode("s1", 0, b), ("s1", 0, b), f"PNode(state='s1', q=0, cls={B})"),
        (
            PEdge(0, "bid", sym, 1),
            (0, "bid", sym, 1),
            f"PEdge(src=0, action='bid', symbol={S}, dst=1)",
        ),
        (SatResult(False), (False, None), "SatResult(sat=False, model=None)"),
        (
            normalised,
            (Term(((x, 1),)), ">=", Term(((y, 1),))),
            f"Atom(lhs=Term(coeffs=(({X}, 1),), const=0), op='>=', "
            f"rhs=Term(coeffs=(({Y}, 1),), const=0))",
        ),
        (
            printed,
            (Term(((x, 2), (y, -1))), ">", Term((), -3)),
            f"Atom(lhs=Term(coeffs=(({X}, 2), ({Y}, -1)), const=0), op='>', "
            f"rhs=Term(coeffs=(), const=-3))",
        ),
    ]


_SAMPLES = _ir_samples()
_IDS = [type(o).__name__ for o, _, _ in _SAMPLES[:-2]] + ["Atom-normalised", "Atom-printed"]


def _rebuilt(obj, fields):
    return type(obj)(*fields)


_ORDERED = {
    VarId: [VarId("w"), x, x.read(), x.write(), x.indexed(3), x.indexed(5), VarId("y")],
    NormAtom: [
        NormAtom((), "<", 1),
        NormAtom(((x, 1),), "<=", 0),
        NormAtom(((x, 1), (y, -2), (z, -1)), "<", 0),
        NormAtom(((x, 1), (y, -2), (z, -1)), "<=", -2),
        NormAtom(((x, 1), (y, -2), (z, -1)), "<=", F(-3, 2)),
    ],
}


def _assert_tuple_as_before(obj, fields):
    """What a tuple keeps of the frozen dataclass: its items are the fields,
    it stores no hash, and it sorts in field order: the (name, kind, idx)
    of a sorted coefficient vector and the (coeffs, op, const) of a cube's
    atoms."""
    assert tuple(obj) == fields and obj == fields
    assert not hasattr(obj, "_hash")
    for o in _ORDERED.get(type(obj), ()):
        assert (obj < o) == (fields < tuple(o))
        assert (obj == o) == (fields == tuple(o))


@pytest.mark.parametrize("obj, fields, text", _SAMPLES, ids=_IDS)
def test_hash_is_the_field_tuple_hash_stored_once(obj, fields, text):
    assert hash(obj) == hash(fields)
    assert repr(obj) == text
    fresh = _rebuilt(obj, fields)
    if isinstance(obj, tuple):
        _assert_tuple_as_before(obj, fields)
    else:
        assert obj._hash == hash(obj)
        assert fresh._hash is None
        # once stored, the hash is read back, not computed again
        hash(fresh)
        object.__setattr__(fresh, "_hash", 12345)
        assert hash(fresh) == 12345
        object.__setattr__(fresh, "_hash", None)
    if isinstance(obj, Atom):
        # the stored normal form is a memo too, not a field: a rebuilt atom
        # has none until it is asked for
        assert obj._norm == _norm_atom(obj) and fresh._norm is None
        assert norm_atom(fresh) == obj._norm and fresh._norm is not None
        object.__setattr__(fresh, "_norm", None)
    # equality, the hash and repr ignore the stored values
    assert fresh == obj and repr(fresh) == repr(obj)
    assert {obj: 1}[fresh] == 1


@pytest.mark.parametrize("obj, fields, text", _SAMPLES, ids=_IDS)
def test_pickle_drops_the_stored_hash(obj, fields, text):
    hash(obj)
    back = pickle.loads(pickle.dumps(obj))
    if isinstance(obj, tuple):
        _assert_tuple_as_before(back, fields)
    else:
        assert back._hash is None
    if isinstance(obj, Atom):
        assert back._norm is None
    assert type(back) is type(obj) and repr(back) == text
    assert back == obj and hash(back) == hash(obj)
    assert {obj: 1}[back] == 1


@pytest.mark.parametrize("obj, fields, text", _SAMPLES, ids=_IDS)
def test_values_refuse_assignment(obj, fields, text):
    name = (obj._fields or ("anything",))[0]
    with pytest.raises(AttributeError):
        setattr(obj, name, None)
    assert repr(obj) == text


def test_equality_is_tagged_by_type():
    p = lt.StateAtom("p")
    assert lt.Next(p) != lt.Eventually(p)
    assert lt.Top() == lt.TOP and lt.Top() != lt.Bot()
    assert TRUE != lt.TOP
    assert lt.LAnd(p, p) != lt.LOr(p, p) and lt.LAnd(p, p) != lt.Until(p, p)
    assert Atom(Term.of(x), "<", Term.of(y)) != NormAtom(((x, 1),), "<", 0)
    assert (lt.Next(p) == (p,)) is False


@pytest.mark.parametrize(
    "make",
    [lambda: lt.Next(), lambda: lt.Until(lt.TOP), lambda: lt.Top(lt.TOP), lambda: TrueF(1)],
    ids=["Next()", "Until(1 field)", "Top(1 field)", "TrueF(1 field)"],
)
def test_a_tree_node_refuses_a_wrong_field_count(make):
    with pytest.raises(TypeError):
        make()


def _value_classes() -> list[type]:
    out, todo = [], Value.__subclasses__()
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return [c for c in out if c.__module__.startswith("damc.")]


def _stores_only(fn: ast.FunctionDef) -> bool:
    """Whether a constructor without defaults only fills slots with
    `_set(self, ...)`: `Value.__init__` written out."""
    body = [s for s in fn.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
    calls = [s.value for s in body if isinstance(s, ast.Expr) and isinstance(s.value, ast.Call)]
    return (
        not fn.args.defaults
        and len(calls) == len(body)
        and all(isinstance(c.func, ast.Name) and c.func.id == "_set" for c in calls)
    )


def test_no_value_class_writes_out_the_shared_constructor():
    """Only `Atom` (it checks `op`), `Term` (its defaults) and `Run` (its
    length check) define a constructor; a flat record is a named tuple, and
    a tree node takes `Value.__init__`."""
    own = {c.__name__ for c in _value_classes() if "__init__" in vars(c)}
    assert own == {"Atom", "Term", "Run"}
    names = {c.__name__ for c in _value_classes()}
    written_out = []
    for path in sorted(Path(damc.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and node.name in names:
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "__init__" and _stores_only(fn):
                        written_out.append(f"{path.name}:{node.name}")
    assert written_out == []
