"""Concrete syntax: the line-oriented model format and the property
language, with printers that round-trip.

Model format::

    domain rat
    vars x y
    init x=0 y=0
    states s1 s2
    initial s1
    final s2
    trans s1 a1 s2 [x^w > y^r && y^w = y^r]

A `||` at guard top level splits the transition into parallel ones with
suffixed action ids.  Properties use X/F/G/U, `<a>` for the action
modality, `&`/`|`, and linear comparisons as atoms; bare identifiers
resolve to state atoms first, then action atoms.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import NoReturn, Optional

from . import ltlf as lt
from .ddsa import Ddsa, validate
from .formula import (
    INT,
    RAT,
    TRUE,
    And,
    Atom,
    Domain,
    Exact,
    Formula,
    Term,
    VarId,
    conj,
    exact_div,
    fmt_rat,
)
from .ltlf import Ltlf


class ParseError(Exception):
    def __init__(self, msg: str, line: Optional[int] = None, col: Optional[int] = None):
        loc = ", ".join(f"{k} {n}" for k, n in (("line", line), ("column", col)) if n is not None)
        super().__init__(msg + (f" at {loc}" if loc else ""))
        self.line = line
        self.col = col


class UnknownAtom(ParseError):
    pass


# ---------------------------------------------------------------------------
# Tokenizer shared by guards, terms, and properties

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<num>\d+(?:\.\d+)?(?:/\d+(?:\.\d+)?)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*(?:\^[rw])?)
      | (?P<op><=|>=|!=|=|<|>)
      | (?P<punct>\(|\)|\[|\]|\+|-|\*|&&|\|\||&|\||\.|<|>)
    )""",
    re.VERBOSE,
)


_BLANKS = re.compile(r"\s*")


def _tokens(text: str, line: Optional[int] = None) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            bad = _BLANKS.match(text, pos).end()  # the first non-blank
            if bad == len(text):
                break
            raise ParseError(f"unexpected character {text[bad]!r}", line, bad + 1)
        kind = m.lastgroup
        out.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return out


# Deepest nesting of parentheses, unary operators and right-nested `U` the
# parsers accept; deeper input is a ParseError rather than a RecursionError,
# and the formulas it yields stay within the recursion limit downstream.
MAX_NESTING = 100


class _Stream:
    def __init__(self, toks, line=None):
        self.toks = toks
        self.i = 0
        self.line = line
        self.depth = 0
        # where peek points at the end of input: just past the last token
        self.end = (None, None, toks[-1][2] + len(toks[-1][1]) if toks else 0)

    def nested(self, parse, *args):
        """parse(self, *args) one nesting level deeper."""
        if self.depth >= MAX_NESTING:
            raise ParseError(
                f"nested more than {MAX_NESTING} levels deep", self.line, self.peek()[2] + 1
            )
        self.depth += 1
        try:
            return parse(self, *args)
        finally:
            self.depth -= 1

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else self.end

    def next(self):
        t = self.peek()
        if t[0] is None:
            raise ParseError("unexpected end of input", self.line)
        self.i += 1
        return t

    def accept(self, kind, value=None):
        k, v, _ = self.peek()
        if k == kind and (value is None or v == value):
            self.i += 1
            return v
        return None

    def expect(self, kind, value=None):
        got = self.accept(kind, value)
        if got is None:
            self.fail(f"expected {value or kind!r}")
        return got

    def fail(self, expected: str) -> NoReturn:
        """Raise `expected`, saying what peek points at, and where."""
        _, v, c = self.peek()
        found = "end of input" if v is None else repr(v)
        raise ParseError(f"{expected}, found {found}", self.line, c + 1)

    def done(self):
        return self.i >= len(self.toks)


def _parse_number(text: str, line: Optional[int] = None, col: Optional[int] = None) -> Exact:
    """A decimal, exactly, optionally over a denominator: `1.5/2` is 3/4."""
    num, slash, den = text.partition("/")
    try:
        if "/" in den:
            raise ValueError
        value, divisor = Fraction(num), Fraction(den if slash else 1)
    except ValueError:
        raise ParseError(f"not a number: {text!r}", line, col) from None
    if divisor == 0:
        raise ParseError(f"zero denominator in {text!r}", line, col)
    return exact_div(value, divisor)


def _var_of(name: str) -> VarId:
    if name.endswith("^r"):
        return VarId(name[:-2], "r")
    if name.endswith("^w"):
        return VarId(name[:-2], "w")
    return VarId(name)


def _parse_term(s: _Stream) -> Term:
    t = _parse_term_atom(s)
    while True:
        if s.accept("punct", "+"):
            t = t + _parse_term_atom(s)
        elif s.accept("punct", "-"):
            t = t - _parse_term_atom(s)
        else:
            return t


def _parse_term_atom(s: _Stream) -> Term:
    if s.accept("punct", "("):
        t = s.nested(_parse_term)
        s.expect("punct", ")")
        return t
    if s.accept("punct", "-"):
        return -s.nested(_parse_term_atom)
    k, v, c = s.peek()
    if k == "num":
        s.next()
        val = _parse_number(v, s.line, c + 1)
        if s.accept("punct", "*"):
            nk, nv, _ = s.next()
            if nk != "name":
                raise ParseError("expected a variable after '*'", s.line, c)
            return Term.of(_var_of(nv)).scale(val)
        return Term.of(val)
    if k == "name":
        s.next()
        return Term.of(_var_of(v))
    s.fail("expected a term")


def _parse_atom(s: _Stream) -> Atom:
    lhs = _parse_term(s)
    if s.peek()[0] != "op":
        s.fail("expected a comparison")
    _, v, _ = s.next()
    rhs = _parse_term(s)
    return Atom(lhs, v, rhs)


def _parse_conjunction(s: _Stream) -> Formula:
    parts = [_parse_atom(s)]
    while s.accept("punct", "&&") or s.accept("punct", "&"):
        parts.append(_parse_atom(s))
    return conj(*parts)


def _expect_done(s: _Stream) -> None:
    if not s.done():
        k, v, c = s.peek()
        raise ParseError(f"trailing input {v!r}", s.line, c + 1)


def parse_constraint(text: str, line: Optional[int] = None) -> Formula:
    """A conjunction of comparison atoms (no disjunction)."""
    s = _Stream(_tokens(text, line), line)
    phi = _parse_conjunction(s)
    _expect_done(s)
    return phi


def _parse_guard(text: str, line: Optional[int] = None) -> list[Formula]:
    """Top-level disjuncts of a guard, conjunctions of atoms between `||`
    tokens; columns in errors count from the start of the guard."""
    s = _Stream(_tokens(text, line), line)
    parts = [_parse_conjunction(s)]
    while s.accept("punct", "||"):
        parts.append(_parse_conjunction(s))
    _expect_done(s)
    return parts


# ---------------------------------------------------------------------------
# Model parser


# The directives a model gives at most once.
_ONCE = ("domain", "vars", "states", "initial", "final")


def _distinct(rest: str, what: str, line: int) -> list[str]:
    """The names of a declaration line, or a ParseError naming one that
    occurs twice."""
    names = rest.split()
    for i, n in enumerate(names):
        if n in names[:i]:
            raise ParseError(f"{what} {n!r} declared twice", line)
    return names


# A `#` at the start of a line or after a blank starts a comment; one right
# after a name belongs to it, as in the split action ids `a#1`, `a#2`.
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_model(text: str) -> Ddsa:
    domain: Optional[Domain] = None
    variables: list[VarId] = []
    init: dict[VarId, Exact] = {}
    states: list[str] = []
    initial: Optional[str] = None
    finals: list[str] = []
    transitions: list[tuple[str, str, str]] = []
    actions: list[str] = []
    guards: dict[str, Formula] = {}
    given: dict[str, int] = {}  # the line of each directive given once

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        kw, _, rest = line.partition(" ")
        rest = rest.strip()
        if kw in _ONCE:
            if kw in given:
                raise ParseError(f"second {kw!r} line (the first is line {given[kw]})", ln)
            given[kw] = ln
        if kw == "domain":
            if rest not in ("int", "rat"):
                raise ParseError(f"domain must be 'int' or 'rat', got {rest!r}", ln)
            domain = INT if rest == "int" else RAT
        elif kw == "vars":
            variables = [VarId(n) for n in _distinct(rest, "variable", ln)]
        elif kw == "init":
            for piece in rest.split():
                if "=" not in piece:
                    raise ParseError(f"init entries look like x=0, got {piece!r}", ln)
                name, val = piece.split("=", 1)
                if VarId(name) in init:
                    raise ParseError(f"'init' assigns {name!r} twice", ln)
                init[VarId(name)] = _parse_number(val, ln)
        elif kw == "states":
            states = _distinct(rest, "state", ln)
        elif kw == "initial":
            initial = rest
        elif kw == "final":
            finals = _distinct(rest, "final state", ln)
        elif kw == "trans":
            m = re.match(r"(\S+)\s+(\S+)\s+(\S+)\s*\[(.*)\]\s*$", rest)
            if not m:
                raise ParseError("trans lines look like: trans s a t [guard]", ln)
            src, act, dst, guard_text = m.groups()
            disjuncts = (
                [conj()] if guard_text.strip() in ("", "true") else _parse_guard(guard_text, ln)
            )
            if len(disjuncts) == 1:
                labels = [act]
            else:
                labels = [f"{act}#{i + 1}" for i in range(len(disjuncts))]
            for label, g in zip(labels, disjuncts):
                if label in guards:
                    if guards[label] != g:
                        raise ParseError(
                            f"action '{label}' reused with a different guard", ln
                        )
                else:
                    actions.append(label)
                    guards[label] = g
                transitions.append((src, label, dst))
        else:
            raise ParseError(f"unknown directive {kw!r}", ln)

    if domain is None:
        raise ParseError("missing 'domain' line")
    if not variables:
        raise ParseError("missing 'vars' line")
    if initial is None:
        raise ParseError("missing 'initial' line")
    missing = [v.name for v in variables if v not in init]
    if missing:
        raise ParseError(f"missing 'init' assignment for: {', '.join(missing)}")
    d = Ddsa(
        states=tuple(states),
        initial=initial,
        actions=tuple(actions),
        transitions=tuple(transitions),
        finals=frozenset(finals),
        variables=tuple(variables),
        alpha0=init,
        guards=guards,
        domain=domain,
    )
    return check_model(d)


def check_model(d: Ddsa) -> Ddsa:
    """`d` itself, or a ParseError naming what `validate` finds wrong with
    it (a model without final states passes: it has no witness)."""
    problems = [p for p in validate(d) if not p.startswith("no final states")]
    if problems:
        raise ParseError("invalid model: " + "; ".join(problems))
    return d


def print_model(d: Ddsa) -> str:
    lines = [f"domain {d.domain.tag}"]
    lines.append("vars " + " ".join(v.name for v in d.variables))
    if d.alpha0 is not None:
        lines.append(
            "init " + " ".join(f"{v.name}={fmt_rat(d.alpha0[v])}" for v in d.variables)
        )
    lines.append("states " + " ".join(d.states))
    lines.append(f"initial {d.initial}")
    lines.append("final " + " ".join(s for s in d.states if s in d.finals))
    for (s, a, t) in d.transitions:
        lines.append(f"trans {s} {a} {t} [{_print_guard(a, d.guards[a])}]")
    return "\n".join(lines) + "\n"


def _print_guard(action: str, g: Formula) -> str:
    """A guard as the model format states it: `true`, an atom, or a
    conjunction of atoms; any other guard is a ValueError naming the
    action."""
    if g == TRUE:
        return "true"
    parts = g.args if isinstance(g, And) else (g,)
    if not all(isinstance(p, Atom) for p in parts):
        raise ValueError(f"action {action!r}: the model format cannot state the guard {g}")
    return " && ".join(str(p) for p in parts)


# ---------------------------------------------------------------------------
# Property parser


def parse_property(text: str, model: Ddsa) -> Ltlf:
    """LTLf property linked against the model's states and actions."""
    s = _Stream(_tokens(text), None)
    psi = _parse_or(s, model)
    _expect_done(s)
    return psi


def _parse_or(s: _Stream, d: Ddsa) -> Ltlf:
    left = _parse_and(s, d)
    while s.accept("punct", "|") or s.accept("punct", "||"):
        left = lt.LOr(left, _parse_and(s, d))
    return left


def _parse_and(s: _Stream, d: Ddsa) -> Ltlf:
    left = _parse_until(s, d)
    while s.accept("punct", "&") or s.accept("punct", "&&"):
        left = lt.LAnd(left, _parse_until(s, d))
    return left


def _parse_until(s: _Stream, d: Ddsa) -> Ltlf:
    left = _parse_unary(s, d)
    k, v, _ = s.peek()
    if k == "name" and v == "U":
        s.next()
        return lt.Until(left, s.nested(_parse_until, d))
    return left


def _parse_unary(s: _Stream, d: Ddsa) -> Ltlf:
    k, v, c = s.peek()
    if k == "name" and v in ("X", "F", "G") and not _starts_comparison(s):
        s.next()
        sub = s.nested(_parse_unary, d)
        return {"X": lt.Next, "F": lt.Eventually, "G": lt.Always}[v](sub)
    if k in ("op", "punct") and v == "<":
        # action modality <a>
        save = s.i
        s.next()
        nk, nv, _ = s.peek()
        if nk == "name":
            s.next()
            if s.accept("op", ">") or s.accept("punct", ">"):
                if nv not in d.actions:
                    raise UnknownAtom(f"unknown action '{nv}' in modality")
                return lt.ActNext(nv, s.nested(_parse_unary, d))
        s.i = save
    if s.accept("punct", "("):
        inner = s.nested(_parse_or, d)
        s.expect("punct", ")")
        return inner
    return _parse_leaf(s, d)


def _starts_comparison(s: _Stream) -> bool:
    """X/F/G used as a variable, e.g. 'F > 3': next token is a comparison.

    A following `<name>` is the action modality, not a comparison.
    """
    if s.i + 1 >= len(s.toks):
        return True
    nk, nv, _ = s.toks[s.i + 1]
    if nv == "<" and s.i + 3 < len(s.toks):
        mk, _, _ = s.toks[s.i + 2]
        _, cv, _ = s.toks[s.i + 3]
        if mk == "name" and cv == ">":
            return False
    return nk == "op" or nv in ("+", "-", "*")


def _parse_leaf(s: _Stream, d: Ddsa) -> Ltlf:
    k, v, c = s.peek()
    if k in ("name", "num"):
        nk, nv, _ = s.toks[s.i + 1] if s.i + 1 < len(s.toks) else (None, None, -1)
        is_bare = nk not in ("op",) and nv not in ("+", "-", "*")
        # numeric tokens are state/action atoms only when declared as such
        if k == "num" and not (v in d.states or v in d.actions):
            is_bare = False
        if is_bare:
            s.next()
            if v == "true":
                return lt.Constr(Atom(Term.of(0), "=", Term.of(0)))
            in_states = v in d.states
            in_actions = v in d.actions
            if in_states and in_actions:
                raise UnknownAtom(f"'{v}' names both a state and an action")
            if in_states:
                return lt.StateAtom(v)
            if in_actions:
                return lt.ActionAtom(v)
            raise UnknownAtom(f"'{v}' is neither a state nor an action")
    # constraint atom
    a = _parse_atom(s)
    _check_vars(a, d)
    return lt.Constr(a)


def _check_vars(a: Atom, d: Ddsa) -> None:
    names = {v.name for v in d.variables}
    for v in a.lhs.vars() | a.rhs.vars():
        if v.kind != "plain":
            raise ParseError("property constraints use plain variables")
        if v.name not in names:
            raise UnknownAtom(f"unknown variable '{v.name}' in property")
