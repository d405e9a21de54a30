"""Finite-trace temporal formulas with arithmetic constraints: the AST,
the next-action preprocessing, the transition function delta, the NFA
construction, and the direct trace semantics used as its oracle."""
from __future__ import annotations

from functools import reduce
from typing import Iterator, NamedTuple, Optional, Sequence, Union

from .ddsa import Ddsa, Run, step_allowed
from .formula import Domain, Formula, Value, conj, evaluate
from . import solve


class LtlfError(Exception):
    pass


class LengthMismatch(LtlfError):
    pass


# ---------------------------------------------------------------------------
# AST.  The user-facing language has no negation; Top/Bot exist for the
# automaton construction only.


class Ltlf(Value):
    __slots__ = ()


class Top(Ltlf):
    __slots__ = ()

    def __str__(self):
        return "true"


class Bot(Ltlf):
    __slots__ = ()

    def __str__(self):
        return "false"


class Constr(Ltlf):
    __slots__ = ("formula",)

    def __str__(self):
        return str(self.formula)


class StateAtom(Ltlf):
    __slots__ = ("state",)

    def __str__(self):
        return self.state


class ActionAtom(Ltlf):
    __slots__ = ("action",)

    def __str__(self):
        return self.action


class LAnd(Ltlf):
    __slots__ = ("left", "right")

    def __str__(self):
        return f"({self.left} & {self.right})"


class LOr(Ltlf):
    __slots__ = ("left", "right")

    def __str__(self):
        return f"({self.left} | {self.right})"


class Next(Ltlf):
    """<.> psi: some successor position exists and satisfies psi."""

    __slots__ = ("sub",)

    def __str__(self):
        return f"X ({self.sub})"


class ActNext(Ltlf):
    """<a> psi: the next step uses action a and its target satisfies psi."""

    __slots__ = ("action", "sub")

    def __str__(self):
        return f"<{self.action}> ({self.sub})"


class Eventually(Ltlf):
    __slots__ = ("sub",)

    def __str__(self):
        return f"F ({self.sub})"


class Always(Ltlf):
    __slots__ = ("sub",)

    def __str__(self):
        return f"G ({self.sub})"


class Until(Ltlf):
    __slots__ = ("left", "right")

    def __str__(self):
        return f"({self.left} U {self.right})"


TOP = Top()
BOT = Bot()


def _sort_key(psi: Ltlf) -> tuple:
    return (psi.__class__.__name__, str(psi))


def _assoc_parts(psi: Ltlf, cls) -> list[Ltlf]:
    if isinstance(psi, cls):
        return _assoc_parts(psi.left, cls) + _assoc_parts(psi.right, cls)
    return [psi]


def _build_chain(parts: list[Ltlf], cls) -> Ltlf:
    out = parts[-1]
    for p in reversed(parts[:-1]):
        out = cls(p, out)
    return out


def land(a: Ltlf, b: Ltlf) -> Ltlf:
    """Conjunction with unit rules plus flatten/dedup/sort, so combined
    quoted formulas reach a canonical shape and the state space closes."""
    return _join(LAnd, TOP, BOT, a, b)


def lor(a: Ltlf, b: Ltlf) -> Ltlf:
    return _join(LOr, BOT, TOP, a, b)


def _join(cls, unit: Ltlf, zero: Ltlf, a: Ltlf, b: Ltlf) -> Ltlf:
    parts: list[Ltlf] = []
    for p in _assoc_parts(a, cls) + _assoc_parts(b, cls):
        if p == zero:
            return zero
        if p != unit and p not in parts:
            parts.append(p)
    # Beside its siblings, a sibling inside a part is the unit.  Without this,
    # the NFA states of (G p) U (F q), F q | (G p & (F q | (G p & ...))),
    # grow without end.
    simpler = [
        reduce(lambda p, q: _assume(p, q, unit), parts[:i] + parts[i + 1 :], p)
        if isinstance(p, (LAnd, LOr))
        else p
        for i, p in enumerate(parts)
    ]
    if simpler != parts:
        return reduce(lambda x, y: _join(cls, unit, zero, x, y), simpler, unit)
    if not parts:
        return unit
    return _build_chain(sorted(parts, key=_sort_key), cls)


def _assume(psi: Ltlf, fact: Ltlf, value: Ltlf) -> Ltlf:
    """psi with its Boolean occurrences of `fact` replaced by `value`."""
    if psi == fact:
        return value
    if not isinstance(psi, (LAnd, LOr)):
        return psi
    left, right = _assume(psi.left, fact, value), _assume(psi.right, fact, value)
    if left is psi.left and right is psi.right:
        return psi
    return (land if isinstance(psi, LAnd) else lor)(left, right)


def constraints_of(psi: Ltlf) -> list[Formula]:
    """Constraint leaves in first-occurrence order, deduplicated."""
    out: list[Formula] = []
    seen = set()
    for node in walk(psi):
        if isinstance(node, Constr) and node.formula not in seen:
            seen.add(node.formula)
            out.append(node.formula)
    return out


def walk(psi: Ltlf) -> Iterator[Ltlf]:
    yield psi
    if isinstance(psi, (LAnd, LOr, Until)):
        yield from walk(psi.left)
        yield from walk(psi.right)
    elif isinstance(psi, (Next, Eventually, Always, ActNext)):
        yield from walk(psi.sub)


def preprocess(psi: Ltlf) -> Ltlf:
    """Rewrite every <a> psi into X (a & psi), introducing action atoms."""
    if isinstance(psi, ActNext):
        return Next(land(ActionAtom(psi.action), preprocess(psi.sub)))
    if isinstance(psi, LAnd):
        return land(preprocess(psi.left), preprocess(psi.right))
    if isinstance(psi, LOr):
        return lor(preprocess(psi.left), preprocess(psi.right))
    if isinstance(psi, Next):
        return Next(preprocess(psi.sub))
    if isinstance(psi, Eventually):
        return Eventually(preprocess(psi.sub))
    if isinstance(psi, Always):
        return Always(preprocess(psi.sub))
    if isinstance(psi, Until):
        return Until(preprocess(psi.left), preprocess(psi.right))
    return psi


# ---------------------------------------------------------------------------
# Alphabet symbols.  A symbol is the set of the property's own atom nodes
# (`Constr`, `StateAtom`, `ActionAtom`) that a position must meet; the
# last/not-last flags exist only inside delta results.

SigmaSymbol = frozenset[Ltlf]

EMPTY_SYMBOL: SigmaSymbol = frozenset()


def constr_of(symbol: SigmaSymbol) -> list[Formula]:
    return sorted((s.formula for s in symbol if isinstance(s, Constr)), key=str)


def fmt_symbol(symbol: SigmaSymbol) -> str:
    if not symbol:
        return "{}"
    parts = sorted(str(s) for s in symbol)
    return "{" + ", ".join(parts) + "}"


class DeltaEntry(NamedTuple):
    target: Ltlf
    symbol: SigmaSymbol
    last: bool = False
    not_last: bool = False


def _combine(r1: list[DeltaEntry], r2: list[DeltaEntry], op) -> list[DeltaEntry]:
    """The pairwise combination, keeping per (target, last, not_last) only
    the entries with a ⊆-minimal symbol.  A word that meets a symbol meets
    every subset of it, and `op` and `| symbol` are monotone, so an entry
    with a smaller symbol beside it stays dominated in every later
    combination: acceptance over minimal-requirement symbols is unchanged."""
    entries: dict[DeltaEntry, None] = {}  # equal entries collapse, in order
    for e1 in r1:
        for e2 in r2:
            last = e1.last or e2.last
            nlast = e1.not_last or e2.not_last
            if last and nlast:
                continue  # can never label a transition
            entry = DeltaEntry(op(e1.target, e2.target), e1.symbol | e2.symbol, last, nlast)
            entries[entry] = None
    symbols: dict[tuple, list[SigmaSymbol]] = {}
    for e in entries:
        symbols.setdefault((e.target, e.last, e.not_last), []).append(e.symbol)
    return [
        e
        for e in entries
        if not any(s < e.symbol for s in symbols[(e.target, e.last, e.not_last)])
    ]


_DELTA_LAMBDA = [
    DeltaEntry(TOP, EMPTY_SYMBOL, last=True),
    DeltaEntry(BOT, EMPTY_SYMBOL, not_last=True),
]


def delta(psi: Ltlf) -> list[DeltaEntry]:
    """The transition function on quoted formulas.

    An atom reads itself: it goes to Top on the symbol that holds it.  Atom
    cases use the relaxed rule carrying (Bot, {}) instead of a negated
    requirement, so transition labels state minimal requirements only.
    """
    if isinstance(psi, Top):
        return [DeltaEntry(TOP, EMPTY_SYMBOL)]
    if isinstance(psi, Bot):
        return [DeltaEntry(BOT, EMPTY_SYMBOL)]
    if isinstance(psi, (Constr, StateAtom, ActionAtom)):
        return [DeltaEntry(TOP, frozenset({psi})), DeltaEntry(BOT, EMPTY_SYMBOL)]
    if isinstance(psi, LOr):
        return _combine(delta(psi.left), delta(psi.right), lor)
    if isinstance(psi, LAnd):
        return _combine(delta(psi.left), delta(psi.right), land)
    if isinstance(psi, Next):
        return [
            DeltaEntry(psi.sub, EMPTY_SYMBOL, not_last=True),
            DeltaEntry(BOT, EMPTY_SYMBOL, last=True),
        ]
    if isinstance(psi, Eventually):
        return _combine(delta(psi.sub), delta(Next(psi)), lor)
    if isinstance(psi, Always):
        inner = _combine(delta(Next(psi)), list(_DELTA_LAMBDA), lor)
        return _combine(delta(psi.sub), inner, land)
    if isinstance(psi, Until):
        step = _combine(delta(psi.left), delta(Next(psi)), land)
        return _combine(delta(psi.right), step, lor)
    if isinstance(psi, ActNext):
        raise LtlfError("preprocess() must run before delta()")
    raise TypeError(f"not an LTLf formula: {psi!r}")


# ---------------------------------------------------------------------------
# NFA


QE_STATE = "__qe__"  # sentinel name for the extra accepting state

# F true holds exactly at the positions that exist, so as a state it is Top
# for a word that must go on: it is not final, and it accepts every
# non-empty rest of the word.
_GO_ON = Eventually(TOP)


class NfaEdge(NamedTuple):
    src: int
    symbol: SigmaSymbol
    dst: int


class Nfa:
    """Automaton over minimal-requirement symbols.

    States are quoted formulas plus the extra accepting state `qe`, which
    consumes the last symbol of a word; state 0 is the initial state.
    `edges` keeps construction order; `outgoing(q)` lists q's edges
    smallest requirement sets first, then by the sorted text of their
    requirements, so the order never depends on frozenset iteration (it
    sets the product's BFS order, and so which witness is found).
    """

    def __init__(
        self, states: list[Union[Ltlf, str]], edges: list[NfaEdge], initial: int, finals: set[int]
    ):
        self.states = states
        self.edges = edges
        self.initial = initial
        self.finals = finals
        self._adj: dict[int, list[NfaEdge]] = {}
        for e in self.edges:
            self._adj.setdefault(e.src, []).append(e)
        for lst in self._adj.values():
            lst.sort(key=lambda e: (len(e.symbol), sorted(str(s) for s in e.symbol)))

    def outgoing(self, q: int) -> list[NfaEdge]:
        return self._adj.get(q, [])

    def state_name(self, q: int) -> str:
        s = self.states[q]
        return "q_e" if s == QE_STATE else str(s)


def build_nfa(psi: Ltlf, dom: Domain) -> Nfa:
    """Least-fixpoint construction from the quoted initial formula.

    An entry without the last flag yields an ordinary transition; an entry
    with the last flag targeting Top yields a transition into qe.  Top is
    final, so a not-last entry into Top goes to _GO_ON instead, unless a
    last entry into Top with a subset of its symbol already accepts where
    the word ends.  Entries into the Bot sink, which accepts nothing, and
    transitions whose constraint sets are unsatisfiable are dropped.  Each
    distinct constraint set is decided once per construction.
    """
    states: list[Union[Ltlf, str]] = [psi]
    satisfiable: dict[Formula, bool] = {}  # by the constraints' conjunction
    index: dict = {psi: 0}

    def state_id(q) -> int:
        if q not in index:
            index[q] = len(states)
            states.append(q)
        return index[q]

    edges: list[NfaEdge] = []
    # `states` is the worklist: a state is explored once, in index order
    for qi, q in enumerate(states):
        if q == QE_STATE:
            continue  # it consumes the last symbol and has no successors
        entries = delta(q)
        ends = [e.symbol for e in entries if e.last and e.target == TOP]
        for entry in entries:
            target = entry.target
            if target == BOT:
                continue
            if not entry.last:
                if entry.not_last and target == TOP and not any(s <= entry.symbol for s in ends):
                    target = _GO_ON
                ti = state_id(target)
            elif target == TOP:
                ti = state_id(QE_STATE)
            else:
                continue
            # the target is explored even when this label is unsatisfiable
            cs = constr_of(entry.symbol)
            if cs:
                label = conj(*cs)
                if label not in satisfiable:
                    satisfiable[label] = solve.is_sat(tuple(solve.to_dnf(label, dom)), dom).sat
                if not satisfiable[label]:
                    continue
            edges.append(NfaEdge(qi, entry.symbol, ti))
    return Nfa(states, edges, 0, {state_id(TOP), state_id(QE_STATE)})


# ---------------------------------------------------------------------------
# Direct finite-trace semantics (the oracle for NFA acceptance)


def run_models(d: Ddsa, run: Run, i: int, psi: Ltlf) -> bool:
    """Does the run satisfy psi at position i, by the recursive semantics?"""
    n = len(run)
    if not (0 <= i <= n):
        raise IndexError(f"position {i} outside run of length {n}")
    if isinstance(psi, Top):
        return True
    if isinstance(psi, Bot):
        return False
    if isinstance(psi, Constr):
        return evaluate(psi.formula, run.configs[i].assignment())
    if isinstance(psi, StateAtom):
        return run.configs[i].state == psi.state
    if isinstance(psi, ActionAtom):
        # introduced by preprocessing: the step into position i used the action
        return i > 0 and step_allowed(
            d, run.configs[i - 1], psi.action, run.configs[i]
        )
    if isinstance(psi, LAnd):
        return run_models(d, run, i, psi.left) and run_models(d, run, i, psi.right)
    if isinstance(psi, LOr):
        return run_models(d, run, i, psi.left) or run_models(d, run, i, psi.right)
    if isinstance(psi, ActNext):
        return (
            i < n
            and step_allowed(d, run.configs[i], psi.action, run.configs[i + 1])
            and run_models(d, run, i + 1, psi.sub)
        )
    if isinstance(psi, Next):
        return i < n and run_models(d, run, i + 1, psi.sub)
    if isinstance(psi, Eventually):
        return run_models(d, run, i, psi.sub) or (
            i < n and run_models(d, run, i + 1, psi)
        )
    if isinstance(psi, Always):
        return run_models(d, run, i, psi.sub) and (
            i == n or run_models(d, run, i + 1, psi)
        )
    if isinstance(psi, Until):
        return run_models(d, run, i, psi.right) or (
            i < n
            and run_models(d, run, i, psi.left)
            and run_models(d, run, i + 1, psi)
        )
    raise TypeError(f"not an LTLf formula: {psi!r}")


def word_consistent(d: Ddsa, word: Sequence[SigmaSymbol], run: Run) -> bool:
    """Is the word consistent with the run: each position's state and action
    atoms name its state and the action into it (`symbol_consistent_with_step`;
    position 0 has no action), and its constraints hold under its
    assignment."""
    n = len(run)
    if len(word) != n + 1:
        raise LengthMismatch(f"word length {len(word)} vs run positions {n + 1}")
    for i, symbol in enumerate(word):
        action = run.actions[i - 1] if i > 0 else None
        if not symbol_consistent_with_step(symbol, action, run.configs[i].state):
            return False
        alpha = run.configs[i].assignment()
        for c in constr_of(symbol):
            if not evaluate(c, alpha):
                return False
    return True


def symbol_consistent_with_step(
    symbol: SigmaSymbol, action: Optional[str], target: str
) -> bool:
    """Symbol consistency with a transition: no action atom other than the
    action taken (none at all without one), no state atom other than the
    target state."""
    for s in symbol:
        if isinstance(s, ActionAtom) and s.action != action:
            return False
        if isinstance(s, StateAtom) and s.state != target:
            return False
    return True
