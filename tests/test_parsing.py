from fractions import Fraction as F

import pytest

from damc import ltlf as lt
from damc.formula import FALSE, INT, RAT, Term, VarId, atom, conj, disj, neg
from damc.parsing import (
    ParseError,
    UnknownAtom,
    parse_constraint,
    parse_model,
    parse_property,
    print_model,
)

x, y = VarId("x"), VarId("y")


def test_parse_model_b1(b1):
    assert b1.states == ("1", "2")
    assert b1.actions == ("a1", "a2")
    assert b1.initial == "1" and b1.finals == frozenset({"2"})
    assert b1.domain == RAT
    assert b1.alpha0 == {x: F(0), y: F(0)}
    assert b1.guards["a1"] == atom(VarId("x", "w"), ">", VarId("y", "r"))


def test_parse_model_auction(auction):
    assert len(auction.states) == 5
    assert len(auction.actions) == 7
    assert [v.name for v in auction.variables] == ["d", "o", "b", "t", "s"]
    assert all(v == F(0) for v in auction.alpha0.values())


def test_parse_model_missing_init():
    src = "domain rat\nvars x\nstates s\ninitial s\nfinal s\n"
    with pytest.raises(ParseError, match="init"):
        parse_model(src)


def test_parse_model_bad_guard():
    src = (
        "domain rat\nvars x\ninit x=0\nstates s\ninitial s\nfinal s\n"
        "trans s a s [q^w > 0]\n"
    )
    with pytest.raises(ParseError, match="unknown variable"):
        parse_model(src)


def test_parse_model_disjunctive_guard_desugars():
    src = (
        "domain rat\nvars x\ninit x=0\nstates s t\ninitial s\nfinal t\n"
        "trans s a t [x^w > 1 || x^w < 0]\n"
    )
    d = parse_model(src)
    assert d.actions == ("a#1", "a#2")
    assert d.target("s", "a#1") == "t" and d.target("s", "a#2") == "t"
    assert d.guards["a#1"] == atom(VarId("x", "w"), ">", 1)
    assert d.guards["a#2"] == atom(VarId("x", "w"), "<", 0)


def test_parse_model_rejects_guard_conflict():
    src = (
        "domain rat\nvars x\ninit x=0\nstates s t\ninitial s\nfinal t\n"
        "trans s a t [x^w > 1]\n"
        "trans t a s [x^w > 2]\n"
    )
    with pytest.raises(ParseError, match="different guard"):
        parse_model(src)


ONE_LOOP = (
    "domain rat\nvars x y\ninit x=0 y=0\nstates 1\ninitial 1\nfinal 1\n"
    "trans 1 a 1 [x^w > x^r]\n"
)


@pytest.mark.parametrize(
    "line, twice",
    [
        ("vars x y", "vars x y x"),
        ("init x=0 y=0", "init x=0 x=1 y=0"),
        ("states 1", "states 1 1"),
        ("final 1", "final 1 1"),
    ],
)
def test_parse_model_rejects_a_name_declared_twice(line, twice):
    # a repeated variable would make a part `{x,x}` and print `init x=0 y=0
    # x=0`; a repeated init assignment would start the run at the last one
    assert line in ONE_LOOP and parse_model(ONE_LOOP)
    with pytest.raises(ParseError, match=r"'(x|1)' (declared|twice).* at line \d"):
        parse_model(ONE_LOOP.replace(line, twice))


@pytest.mark.parametrize(
    "second", ["domain int", "vars x y", "states 1", "initial 1", "final 1", "init x=0"]
)
def test_parse_model_rejects_a_second_declaration(second):
    # a second line would replace the first, or assign x again
    n = len(ONE_LOOP.splitlines()) + 1
    with pytest.raises(ParseError, match=rf"(second|x).* at line {n}$"):
        parse_model(ONE_LOOP + second + "\n")


# a `||` guard splits its action into `a#1` and `a#2`, which print as names
SPLIT = (
    "domain rat\nvars x\ninit x=0\nstates s t\ninitial s\nfinal t  # the end\n"
    "trans s a t [x^w > 1 || x^w < 0]\ntrans t b s []\n"
)


def test_model_round_trip(b1, b2, b3, b4, auction):
    for d in (b1, b2, b3, b4, auction, parse_model(SPLIT)):
        again = parse_model(print_model(d))
        assert again.states == d.states
        assert again.actions == d.actions
        assert again.transitions == d.transitions
        assert again.finals == d.finals
        assert again.alpha0 == d.alpha0
        assert again.domain == d.domain
        assert {a: again.guards[a] for a in again.actions} == {
            a: d.guards[a] for a in d.actions
        }


def test_a_hash_starts_a_comment_only_at_line_start_or_after_a_blank():
    d = parse_model(
        "# a model\ndomain rat            # or: int\nvars x\ninit x=0\n"
        "states s t\ninitial s\nfinal t\t# tab\n"
        "trans s a#1 t [x^w > 1]  # kept name\ntrans t b s []\n"
    )
    assert d.domain == RAT
    assert d.finals == frozenset({"t"})
    assert d.actions == ("a#1", "b")
    assert [a for (_, a, _) in d.transitions] == ["a#1", "b"]


def test_print_model_refuses_a_guard_the_format_cannot_state(b1):
    # `[]` would read false back as true, and the atoms of an `||` or `!`
    # guard as their conjunction
    x_w = VarId("x", "w")
    for g in (FALSE, disj(atom(x_w, ">", 1), atom(x_w, "<", 0)), neg(atom(x_w, ">", 1))):
        with pytest.raises(ValueError, match="action 'a2'"):
            print_model(b1.replace(guards={**b1.guards, "a2": g}))


def test_parse_constraint_rationals():
    f = parse_constraint("x >= 3/2 && y <= 100.5")
    assert f == conj(atom(x, ">=", F(3, 2)), atom(y, "<=", F(201, 2)))


def test_decimal_denominator_reads_the_same_everywhere(b1):
    # one number token wherever numbers appear: 1.5/0.5 is 3, as in `init`
    assert parse_property("F (x > 1.5/0.5)", b1) == parse_property("F (x > 3)", b1)
    assert parse_constraint("x^w > 1.5/0.5") == parse_constraint("x^w > 3")
    guarded = print_model(b1).replace("[x^w > y^r]", "[x^w > {}]")
    assert parse_model(guarded.format("1.5/0.5")) == parse_model(guarded.format("3"))
    for text in ("1/0", "1.5/0.0"):
        with pytest.raises(ParseError, match=f"zero denominator in '{text}'"):
            parse_property(f"F (x > {text})", b1)


def test_parse_constraint_coefficients():
    f = parse_constraint("2*x - y + 1 <= 0")
    assert f == atom(Term.of(x).scale(F(2)) - Term.of(y) + Term.of(1), "<=", 0)


def test_printed_formulas_reparse():
    fs = [
        atom(Term.of(x).scale(F(3, 2)) - Term.of(y), ">=", F(7, 3)),
        conj(atom(x, ">", 0), atom(Term.of(x) - Term.of(y), "<=", -2)),
        atom(-Term.of(x) + Term.of(2), "!=", y),
    ]
    for f in fs:
        from damc.formula import fmt_formula

        again = parse_constraint(fmt_formula(f))
        from damc.formula import evaluate

        for ax in (F(-2), F(0), F(5, 2)):
            for ay in (F(-1), F(3)):
                alpha = {x: ax, y: ay}
                assert evaluate(again, alpha) == evaluate(f, alpha)


def test_parse_property_eventually(auction):
    psi = parse_property("F (sold & d>0 & o<=t)", auction)
    assert isinstance(psi, lt.Eventually)
    inner = psi.sub
    assert isinstance(inner, lt.LAnd)


def test_parse_property_until(auction):
    psi = parse_property("(s=0) U (d<=0 | o>t)", auction)
    assert isinstance(psi, lt.Until)
    assert isinstance(psi.right, lt.LOr)


def test_parse_property_action_modality(auction):
    psi = parse_property("<bid> (o>t)", auction)
    assert psi == lt.ActNext("bid", lt.Constr(atom(VarId("o"), ">", VarId("t"))))


def test_parse_property_state_vs_action_resolution(auction):
    assert parse_property("sold", auction) == lt.StateAtom("sold")
    assert parse_property("bid", auction) == lt.ActionAtom("bid")
    with pytest.raises(UnknownAtom):
        parse_property("nonsense", auction)


def test_parse_property_true_encoding(auction):
    psi = parse_property("true", auction)
    assert isinstance(psi, lt.Constr)
    from damc.formula import evaluate

    assert evaluate(psi.formula, {})


def test_parse_property_unknown_variable(auction):
    with pytest.raises(UnknownAtom):
        parse_property("F (zz > 1)", auction)


def test_parse_property_modality_after_temporal(b1):
    psi = parse_property("F <a2> true", b1)
    assert isinstance(psi, lt.Eventually)
    assert isinstance(psi.sub, lt.ActNext)


def test_parse_property_numeric_state_atom(b1):
    assert parse_property("F 2", b1) == lt.Eventually(lt.StateAtom("2"))
    # plain numbers still parse as constants inside comparisons
    psi = parse_property("F (x > 2)", b1)
    assert isinstance(psi.sub, lt.Constr)


def test_property_round_trip(auction):
    texts = [
        "F (sold & d>0 & o<=t)",
        "F (b=1 & o>t & F (sold & b!=1))",
        "(s=0) U (d<=0 | o>t)",
        "G (s=0) | ((d>0 & o<=t) U (s!=0))",
        "<bid> (o>t)",
        "X (G (d>=0))",
    ]
    for t in texts:
        psi = parse_property(t, auction)
        assert parse_property(str(psi), auction) == psi
