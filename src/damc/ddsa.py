"""Data-aware dynamic systems: model, step semantics, symbolic runs,
transition formulas, the update operator, and history constraints."""
from __future__ import annotations

import itertools
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .formula import (
    INDEXED,
    INT,
    Atom,
    Domain,
    Exact,
    Formula,
    MissingVariable,
    NormAtom,
    Term,
    Value,
    VarId,
    conj,
    evaluate,
    exact,
    free_vars,
)
from . import solve


class ModelError(Exception):
    pass


class UnknownAction(ModelError):
    pass


Assignment = dict[VarId, Exact]


class Ddsa:
    """Labelled transition system with guarded actions over read/write
    variable copies.  Treated as immutable after construction: `replace`
    gives a changed copy.

    `alpha0` may be None for subsystems with a symbolic initial assignment
    (used by the sequential decomposition); such systems contribute no
    initial constraints.
    """

    def __init__(
        self,
        states: tuple[str, ...],
        initial: str,
        actions: tuple[str, ...],
        transitions: tuple[tuple[str, str, str], ...],  # (src, action, dst)
        finals: frozenset[str],
        variables: tuple[VarId, ...],
        alpha0: Optional[Assignment],
        guards: dict[str, Formula],
        domain: Domain,
        dummy: Optional[tuple[str, str]] = None,  # (dummy state, dummy action)
    ):
        self.states = states
        self.initial = initial
        self.actions = actions
        self.transitions = transitions
        self.finals = finals
        self.variables = variables
        self.alpha0 = alpha0
        self.guards = guards
        self.domain = domain
        self.dummy = dummy
        self._tmap = {(s, a): d for (s, a, d) in self.transitions}
        self._out: dict[str, list[tuple[str, str]]] = {}
        for (s, a, d) in self.transitions:
            self._out.setdefault(s, []).append((a, d))
        self._delta_cache: dict[str, Formula] = {}
        self._write_cache: dict[str, tuple[VarId, ...]] = {}
        # the snapshot and the renamed transition cubes per (action,
        # snapshot index), as `_transition_cubes` builds them
        self._cubes_cache: dict[tuple[str, int], tuple] = {}

    def _fields(self) -> dict:
        """The constructor's arguments: every attribute but the caches."""
        return {k: v for k, v in vars(self).items() if not k.startswith("_")}

    def replace(self, **changes) -> "Ddsa":
        """A copy with the given fields changed; its caches start empty."""
        return Ddsa(**{**self._fields(), **changes})

    def __eq__(self, other):
        if not isinstance(other, Ddsa):
            return NotImplemented
        return self._fields() == other._fields()

    def target(self, state: str, action: str) -> Optional[str]:
        return self._tmap.get((state, action))

    def outgoing(self, state: str) -> list[tuple[str, str]]:
        """(action, target) pairs in declaration order."""
        return self._out.get(state, [])

    def guard(self, action: str) -> Formula:
        if action not in self.guards:
            raise UnknownAction(action)
        return self.guards[action]

    def write_set(self, action: str) -> tuple[VarId, ...]:
        """The variables the guard writes, in declaration order, once."""
        hit = self._write_cache.get(action)
        if hit is None:
            written = {v.name for v in free_vars(self.guard(action)) if v.kind == "w"}
            hit = self._write_cache[action] = tuple(v for v in self.variables if v.name in written)
        return hit

    def initial_constraints(self) -> list[Formula]:
        """C_alpha0: one equality v = alpha0(v) per variable."""
        if self.alpha0 is None:
            return []
        return [Atom(Term.of(v), "=", Term.of(self.alpha0[v])) for v in self.variables]


class Config(NamedTuple):
    state: str
    alpha: tuple[tuple[VarId, Exact], ...]

    @staticmethod
    def make(state: str, alpha: Mapping[VarId, Exact]) -> "Config":
        return Config(state, tuple(sorted(alpha.items())))

    def assignment(self) -> Assignment:
        return dict(self.alpha)


class Run(Value):
    """Concrete run: configurations joined by action labels."""

    __slots__ = ("configs", "actions")

    def __init__(self, configs: tuple[Config, ...], actions: tuple[str, ...]):
        assert len(configs) == len(actions) + 1
        super().__init__(configs, actions)

    def __len__(self) -> int:
        return len(self.actions)


def symbolic_states(d: Ddsa, actions: Sequence[str]) -> list[str]:
    """State sequence of a symbolic run given by its action labels."""
    cur = d.initial
    out = [cur]
    for a in actions:
        nxt = d.target(cur, a)
        if nxt is None:
            raise ModelError(f"no transition from {cur} by {a}")
        cur = nxt
        out.append(cur)
    return out


def transition_formula(d: Ddsa, action: str) -> Formula:
    """guard(a) plus inertia equalities v^w = v^r for unwritten variables."""
    hit = d._delta_cache.get(action)
    if hit is not None:
        return hit
    g = d.guard(action)
    written = set(d.write_set(action))
    inertia = [
        Atom(Term.of(v.write()), "=", Term.of(v.read()))
        for v in d.variables
        if v not in written
    ]
    out = conj(g, *inertia)
    d._delta_cache[action] = out
    return out


def update(d: Ddsa, state: solve.Dnf, action: str) -> solve.Dnf:
    """One-step image of a state, a DNF in normal form over the system's
    domain, under the action's transition formula, as a DNF.  It is built by
    renaming instead of substitution: in the state's cubes each snapshot
    variable v becomes its copy v#idx, with idx above every index in the
    state, and in the transition cubes (`_transition_cubes`) a snapshot
    variable's read v^r becomes v#idx and each write v^w becomes v.  Over
    the rationals only the variables the action writes (`write_set`) are
    copied, and the cubes are the guard's: an unwritten variable keeps its
    value, so its read v^r is a read of the post-state, renamed to v, and
    no inertia row v^w = v^r is built.  Over the integers every variable is
    copied and the cubes are the full transition formula's: the gap-order
    leaf compares states by their cutoffs, which cap rows one by one, and
    the rows the unwritten copies imply keep the cutoff of the exact image.
    Renaming keeps the variable order, so a renamed atom is still
    normalized.  Each renamed state cube meets each transition cube, and
    the copies are eliminated at once by Fourier-Motzkin on integer rows;
    over the integers (`qe_gc`, where only gap-order systems are imaged)
    each cube is first tightened to integer difference bounds.  Each image
    makes exactly one QE call, also when nothing is copied.
    """
    idx = 1 + max((v.idx for cube in state for na in cube for v, _ in na.coeffs), default=-1)
    snapshot, trans = _transition_cubes(d, action, idx)
    cubes = []
    for cube in state:
        pre = tuple(_rename(na, snapshot) for na in cube)
        for t in trans:
            merged = solve.norm_cube(pre + t)
            if merged is not None:
                cubes.append(merged)
    qe = solve.qe_gc if d.domain == INT else solve.qe_rational
    return qe(list(snapshot.values()), tuple(cubes))


def _transition_cubes(
    d: Ddsa, action: str, idx: int
) -> tuple[dict[VarId, VarId], list[solve.Cube]]:
    """The snapshot v -> v#idx, of the written variables over the rationals
    and of every variable over the integers, and the DNF of the guard
    (rationals) or of the transition formula (integers) with a snapshot
    variable's read v^r renamed to v#idx, every other read v^r to v and
    each write v^w to v, once per (action, idx)."""
    key = (action, idx)
    hit = d._cubes_cache.get(key)
    if hit is None:
        if d.domain == INT:
            copied, delta = d.variables, transition_formula(d, action)
        else:
            copied, delta = d.write_set(action), d.guard(action)
        snapshot = {v: v.indexed(idx) for v in copied}
        copies = {v.read(): snapshot.get(v, v) for v in d.variables}
        copies.update((v.write(), v) for v in d.variables)
        cubes = solve.to_dnf(delta, d.domain)
        stray = {v for cube in cubes for na in cube for v, _ in na.coeffs} - copies.keys()
        if stray:
            names = ", ".join(sorted(map(str, stray)))
            raise ModelError(f"transition '{action}' uses {names}: not a read or write copy")
        renamed = [tuple(_rename(na, copies) for na in c) for c in cubes]
        hit = d._cubes_cache[key] = (snapshot, renamed)
    return hit


def _rename(na: NormAtom, copies: Mapping[VarId, VarId]) -> NormAtom:
    return NormAtom(tuple((copies.get(v, v), c) for v, c in na.coeffs), na.op, na.const)


def grounded_transition(d: Ddsa, action: str, post: Mapping[VarId, Exact]) -> list[solve.Cube]:
    """The pre-states the action takes to `post`, as a DNF: the cached
    transition cubes `update` uses (a snapshot variable's read is v#0, every
    write v, an unwritten variable's uncopied read v) with each write's
    value folded into the constant and each read renamed to v, and
    `v = post[v]` for each variable outside the snapshot, divided by the
    gcd as `norm_atom` would (`solve.primitive_atom`)."""
    snapshot, cubes = _transition_cubes(d, action, 0)
    kept = [solve.primitive_atom({v: 1}, "=", post[v]) for v in d.variables if v not in snapshot]
    out = []
    for cube in cubes:
        atoms = []
        for na in cube:
            const, reads = na.const, {}
            for v, c in na.coeffs:
                if v.kind == INDEXED:
                    reads[VarId(v.name)] = c
                elif v in snapshot:
                    const -= c * post[v]
                else:
                    reads[v] = c
            atoms.append(solve.primitive_atom(reads, na.op, const))
        grounded = solve.norm_cube(atoms + kept)
        if grounded is not None:
            out.append(grounded)
    return out


def history_prefixes(
    d: Ddsa,
    actions: Sequence[str],
    constraint_seq: Optional[Sequence[Iterable[Formula]]] = None,
) -> list[solve.Dnf]:
    """History constraints of every prefix of a symbolic run, the empty
    prefix first, as DNFs: each the image of the one before conjoined with
    its position's constraint cubes.

    `constraint_seq` has one constraint set per position (length n+1);
    omitted sets default to empty.  Unsatisfiable results are returned
    as-is.
    """
    n = len(actions)
    if constraint_seq is None:
        constraint_seq = [[] for _ in range(n + 1)]
    if len(constraint_seq) != n + 1:
        raise ValueError("constraint sequence must have run length + 1 entries")
    symbolic_states(d, actions)  # validates the run
    hist = [tuple(solve.to_dnf(conj(*d.initial_constraints(), *constraint_seq[0]), d.domain))]
    for i, a in enumerate(actions):
        cubes = solve.to_dnf(conj(*constraint_seq[i + 1]), d.domain)
        hist.append(tuple(solve.conj_cubes(update(d, hist[-1], a), cubes)))
    return hist


def history_constraint(
    d: Ddsa,
    actions: Sequence[str],
    constraint_seq: Optional[Sequence[Iterable[Formula]]] = None,
) -> Formula:
    """Accumulated constraint formula of a symbolic run: the last of
    `history_prefixes`, written as a formula."""
    return solve.dnf_to_formula(history_prefixes(d, actions, constraint_seq)[-1])


def step_allowed(d: Ddsa, pre: Config, action: str, post: Config) -> bool:
    """Def-style step check: the transition exists, the guard holds under
    the reads of `pre` and the writes of `post`, and every variable the
    action does not write keeps its value.  This is the truth of
    `transition_formula` under that assignment, read without building its
    inertia atoms."""
    if d.target(pre.state, action) != post.state:
        return False
    beta = {v.read(): val for v, val in pre.alpha}
    beta.update((v.write(), val) for v, val in post.alpha)
    if not evaluate(d.guard(action), beta):
        return False
    before, after, written = pre.assignment(), post.assignment(), d.write_set(action)
    return all(_value(before, v) == _value(after, v) for v in d.variables if v not in written)


def _value(alpha: Assignment, v: VarId) -> Exact:
    if v not in alpha:
        raise MissingVariable(f"no value for {v}")
    return alpha[v]


def validate_run(d: Ddsa, run: Run) -> bool:
    """Whether the run starts in the initial configuration, takes allowed
    steps and, on an integer domain, holds only integers."""
    if d.domain == INT and any(x.denominator != 1 for c in run.configs for _, x in c.alpha):
        return False
    if run.configs[0].state != d.initial:
        return False
    if d.alpha0 is not None and run.configs[0].assignment() != d.alpha0:
        return False
    for i, a in enumerate(run.actions):
        if not step_allowed(d, run.configs[i], a, run.configs[i + 1]):
            return False
    return True


def successors(d: Ddsa, cfg: Config, action: str, grid: Sequence[Exact]) -> list[Config]:
    """All one-step successors whose written values come from the grid, the
    first written variable varying fastest."""
    dst = d.target(cfg.state, action)
    if dst is None:
        if action not in d.actions:
            raise UnknownAction(action)
        return []
    written = d.write_set(action)[::-1]
    alpha = cfg.assignment()
    out: dict[Config, None] = {}
    for vals in itertools.product(map(exact, grid), repeat=len(written)):
        alpha.update(zip(written, vals))
        post = Config.make(dst, alpha)
        if post not in out and step_allowed(d, cfg, action, post):
            out[post] = None
    return list(out)


def validate(d: Ddsa) -> list[str]:
    """Structural diagnostics; empty list means the model is well-formed."""
    out: list[str] = []
    states = set(d.states)
    if d.initial not in states:
        out.append(f"initial state '{d.initial}' not in states")
    for f in d.finals:
        if f not in states:
            out.append(f"final state '{f}' not in states")
    if not d.finals:
        out.append("no final states: every verification task is trivially negative")
    seen_pairs = set()
    for (s, a, t) in d.transitions:
        if s not in states:
            out.append(f"transition source '{s}' not in states")
        if t not in states:
            out.append(f"transition target '{t}' not in states")
        if a not in d.actions:
            out.append(f"transition uses undeclared action '{a}'")
        if (s, a) in seen_pairs:
            out.append(f"duplicate transition for state '{s}' and action '{a}'")
        seen_pairs.add((s, a))
    varnames = {v.name for v in d.variables}
    for a in d.actions:
        if a not in d.guards:
            out.append(f"action '{a}' has no guard")
            continue
        for v in free_vars(d.guards[a]):
            if v.kind not in ("r", "w"):
                out.append(f"guard of '{a}' uses non read/write variable '{v}'")
            elif v.name not in varnames:
                out.append(f"guard of '{a}' mentions unknown variable '{v.name}'")
    if d.alpha0 is not None:
        for v in d.variables:
            if v not in d.alpha0:
                out.append(f"initial assignment missing variable '{v}'")
        for v in d.alpha0:
            if v not in d.variables:
                out.append(f"initial assignment names undeclared variable '{v}'")
        if d.domain == INT:
            for v, val in d.alpha0.items():
                if val.denominator != 1:
                    out.append(f"integer model initializes '{v}' to non-integer {val}")
    return out
