"""Finite-summary detection: the strategy `verify` runs.

A summary strategy packages the update procedure and the equivalence
relation the product quotients by (the constraint graph is the product
with the automaton of `true`).  There is one leaf class, `_Leaf`, and it
keeps that quotient itself: `canon` maps each state to the class of the
first equivalent state it has seen, so the product finds a node by its
class with a dict lookup (hash-consing modulo equivalence).  Every leaf
is exact and compares its states with one rational equivalence check:
over the rationals, Fourier-Motzkin QE and logical equivalence; over the
integers, with the gap-order bound `K` set, the same QE on cubes
tightened to integer difference bounds (`solve.qe_gc`) and equivalence of
the cutoffs at K, which is exact on the gap-order fragment.

A leaf's state is a DNF in the solver's normal form (`solve.Dnf`), and
everything a leaf does works on cubes.  A class is written as a formula
the first time it is read, where a product node is printed; `verify`
reads none.

`detect` gives the strategy `verify` runs, one `Strategy` of one or more
parts, and reads structure only.  An integer system is one part on the
gap-order leaf, and one outside that fragment gets no summary.  A rational
system is split once into the components of the conjunct co-occurrence
graph (`split_system`), each a part with its own leaf, solved apart.  The
split is the one composition that changes the work.  Every variable
partition goes by whole top-level conjuncts (`_by_names`): the split links
two variables that share a conjunct of a guard or constraint, and the
projected guards and a label's parts each take the conjuncts over their
variables.

The paper's certificates that the quotient is finite, which `damc summary`
prints, live in `certificates`, which reads this module; nothing here reads
that one, so no verdict reads a certificate.  Detection reads a formula's
conjuncts, names and atoms where it needs them and keeps no memo: an
atom's normal form comes from `norm_atom`, which keeps its own.  It reads
no gap-order over the rationals.

A leaf's image under an action whose guard on it is true is the state
itself: every variable keeps its value.  On a projected leaf that is every
action that moves none of its variables.
"""
from __future__ import annotations

from itertools import repeat
from typing import Optional, Sequence

from . import ddsa as dd
from . import solve
from .ddsa import Ddsa
from .formula import (
    INT,
    TRUE,
    And,
    Formula,
    NormAtom,
    TrueF,
    atoms_of,
    conj,
    free_vars,
    norm_atom,
)
from .solve import Dnf, SatResult


# ---------------------------------------------------------------------------
# Syntactic criteria


def used_actions(transitions: Sequence[tuple[str, str, str]]) -> list[str]:
    """Actions of the transitions, in first-use order."""
    return list(dict.fromkeys([a for (_, a, _) in transitions]))


def _conjuncts(f: Formula) -> tuple[Formula, ...]:
    """The top-level conjuncts of `f`."""
    return f.args if isinstance(f, And) else (f,)


def _criterion(d: Ddsa, constraints: Sequence[Formula]) -> list[Formula]:
    """The top-level conjuncts of the used guards and of the constraints.
    The initial assignment's atoms compare one variable with a constant, so
    they are MC and gap-order and no criterion but `K` reads them."""
    formulas = [d.guard(a) for a in used_actions(d.transitions)] + list(constraints)
    return [k for f in formulas for k in _conjuncts(f)]


def _norm_atoms(fs: Sequence[Formula]) -> list[NormAtom]:
    """The normalised atoms of the formulas, in order."""
    return [norm_atom(a) for f in fs for a in atoms_of(f)]


def check_gc(d: Ddsa, constraints: Sequence[Formula]) -> tuple[bool, Optional[int]]:
    """Gap-order criterion plus the cutoff bound K, over the atoms of
    guards, the initial assignment and the verification constraints, read
    off their tightened rows (`solve.gap_order_bound`)."""
    atoms = _norm_atoms(_criterion(d, constraints)) + _norm_atoms(d.initial_constraints())
    K = solve.gap_order_bound(atoms)
    return (K is not None, K)


# ---------------------------------------------------------------------------
# Variable splits


def _components(nodes, pairs) -> dict:
    """Each node's root in the graph with the given edges: a union-find
    with path halving that keeps the smaller root, so every root is the
    smallest node of its component, whatever the order of the edges.  It
    stops reading edges once one component holds every node."""
    parent = {n: n for n in nodes}
    left = len(parent)  # components

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs if left > 1 else ():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
            left -= 1
            if left == 1:
                break
    return {n: find(n) for n in parent}


def _groups(names: list[str], pairs) -> list[list[str]]:
    """The components of the names the pairs link, each in name order,
    ordered by their first name: renaming a name moves no component."""
    roots = _components(names, pairs)
    comps: dict[str, list[str]] = {}
    for n in names:
        comps.setdefault(roots[n], []).append(n)
    return list(comps.values())


def _by_names(f: Formula, names: set[str]) -> tuple[Formula, Formula]:
    """The conjunction of `f`'s top-level conjuncts whose variables all lie
    in `names` (a variable-free one too), and the conjunction of the rest:
    the one way a variable split divides a formula."""
    inside: list[Formula] = []
    outside: list[Formula] = []
    for k in _conjuncts(f):
        (inside if {v.name for v in free_vars(k)} <= names else outside).append(k)
    if not outside:
        return f, TRUE
    if not inside:
        return TRUE, f
    return conj(*inside), conj(*outside)


def _var_parts(d: Ddsa, constraints: Sequence[Formula]) -> list[list[str]]:
    """The components of the conjunct co-occurrence graph over `d`'s
    variable names, in `_groups` order: two variables are linked when they
    share a top-level conjunct of a used guard or of a constraint, so
    `_by_names` sends every such conjunct whole to one component."""
    names = [v.name for v in d.variables]
    linked = ({v.name for v in free_vars(k)} for k in _criterion(d, constraints))
    return _groups(names, ((next(iter(ns)), n) for ns in linked for n in ns))


def project_system(d: Ddsa, names: Sequence[str]) -> Ddsa:
    """Projection onto the named variables: each guard keeps the conjuncts
    over those names (`_by_names`; true when nothing remains)."""
    keep = set(names)
    guards = {a: _by_names(d.guard(a), keep)[0] for a in d.actions}
    variables = tuple(v for v in d.variables if v.name in keep)
    alpha0 = None if d.alpha0 is None else {v: d.alpha0[v] for v in variables}
    return d.replace(variables=variables, alpha0=alpha0, guards=guards)


def split_system(d: Ddsa, constraints: Sequence[Formula]) -> list[tuple[tuple[str, ...], Ddsa]]:
    """The parts a system is solved and certified in: each component of
    `_var_parts` and its projection, or the whole system if there is one."""
    parts = _var_parts(d, constraints)
    if len(parts) < 2:
        return [(tuple(v.name for v in d.variables), d)]
    return [(tuple(part), project_system(d, part)) for part in parts]


# ---------------------------------------------------------------------------
# Summary strategies


class _Class:
    """One class of a leaf's quotient: its representative state, the DNF
    the equivalence compares (over the integers the state's cutoff at K),
    and the state's stored sat model with the truths under it of compared
    atoms.  Its formula is written the first time it is read (a node
    prints it)."""

    __slots__ = ("state", "compared", "model", "truths", "_formula")

    def __init__(self, state: Dnf, compared: Dnf, model):
        self.state = state
        self.compared = compared
        self.model = model
        self.truths: dict = {}
        self._formula: Optional[Formula] = None

    @property
    def formula(self) -> Formula:
        """The representative state written as a formula, once."""
        if self._formula is None:
            self._formula = solve.dnf_to_formula(self.state)
        return self._formula


class _Leaf:
    """The one exact leaf: QE in the system's domain (`dd.update` picks it)
    and a rational equivalence check.  With the gap-order bound `K` set (an
    integer system), states are compared by their cutoffs at `K`.

    A state is a DNF in the solver's normal form over the system's domain,
    and a product node holds its `_Class` per part.  A label is the DNF of a
    constraint set.  Images, conjunction with a label, satisfiability, the
    canonisation memo and the equivalence check (`solve.equivalent`, cube
    entailment both ways) all work on cubes.  Over the integers it compares
    the cutoffs of the states' integer DNFs, never a formula's text.  A
    class's formula is written only when it is read."""

    def __init__(self, d: Ddsa, *, K: Optional[int] = None):
        self.d = d
        self.K = K
        # The memos live on the leaf: leaves differ in their system and K,
        # and live for one verify call.
        self._image_cache: dict[tuple[_Class, Formula], Dnf] = {}
        self._sat_cache: dict[Dnf, SatResult] = {}
        self._canon_cache: dict[Dnf, _Class] = {}
        self._classes: list[_Class] = []

    def describe(self) -> str:
        return "exact-fixpoint" if self.K is None else f"GC(K={self.K})"

    def label(self, formulas: Sequence[Formula]) -> Dnf:
        return tuple(solve.to_dnf(conj(*formulas), self.d.domain))

    def image(self, rep: _Class, action: Optional[str]) -> Dnf:
        # no action (the product root's step) and a true guard keep each
        # variable's value (on a projected leaf, an action that moves none of
        # its variables): the image is the state itself.  Otherwise one image
        # per (class, guard), the one image memo, shared by the product's
        # NFA edges and by the actions with that guard: on one system the
        # guard fixes the write set, and so the whole transition formula
        guard = None if action is None else self.d.guard(action)
        if guard is None or isinstance(guard, TrueF):
            return rep.state
        hit = self._image_cache.get((rep, guard))
        if hit is None:
            hit = self._image_cache[rep, guard] = dd.update(self.d, rep.state, action)
        return hit

    @staticmethod
    def meet(image: Dnf, label: Dnf) -> Dnf:
        """The image conjoined with the label: one `norm_cube` per pair of
        cubes, under the solver's cube budget (none for the true label)."""
        if label == ((),):
            return image
        return tuple(dict.fromkeys(solve.conj_cubes(image, label)))

    def sat(self, state: Dnf) -> bool:
        hit = self._sat_cache.get(state)
        if hit is None:
            hit = solve.is_sat(state, self.d.domain)
            if hit.model is not None:
                # a model of one cube leaves the other variables free
                zeros = dict.fromkeys(self.d.variables, 0)
                hit = SatResult(True, {**zeros, **hit.model})
            self._sat_cache[state] = hit
        return hit.sat

    def canon(self, state: Dnf) -> _Class:
        """The class of the first state canonised here that is equivalent to
        `state` (a new class, `state` its representative, if none is): one
        class per equivalence class, so that the product finds a node by
        lookup instead of by scan."""
        hit = self._canon_cache.get(state)
        if hit is None:
            hit = self._canon_cache[state] = self._classify(state)
        return hit

    def _classify(self, state: Dnf) -> _Class:
        new = self._class(state)
        for c in self._classes:
            if self.equiv(c, new):
                return c
        self._classes.append(new)
        return new

    def _class(self, state: Dnf) -> _Class:
        """A class of the state, with the state's stored sat model, if it
        has one."""
        compared = state if self.K is None else solve.cutoff(state, self.K)
        res = self._sat_cache.get(state)
        return _Class(state, compared, None if res is None else res.model)

    def equiv(self, c1: _Class, c2: _Class) -> bool:
        return not self._refuted(c1, c2) and solve.equivalent(c1.compared, c2.compared)

    def _refuted(self, c1: _Class, c2: _Class) -> bool:
        """Whether a stored model of one side falsifies the other's compared
        DNF.  It satisfies its own side's, the state or (over the integers)
        its cutoff, which only weakens bounds, so it witnesses exactly what
        the solver checks first, and a refutation is the solver's answer.
        `sat` gives every stored model a value for each of the leaf's
        variables, so no atom's truth lacks one."""
        for a, b in ((c1, c2), (c2, c1)):
            if a.model is not None and not self._holds(b, a):
                return True
        return False

    def _holds(self, c: _Class, under: _Class) -> bool:
        """The truth of `c`'s compared DNF under `under`'s model, read off
        the cubes, each atom's truth under a class's model computed once and
        kept on that class (`truths`)."""
        model, truths = under.model, under.truths
        for cube in c.compared:
            for na in cube:
                t = truths.get(na)
                if t is None:
                    t = truths[na] = na.holds(model)
                if not t:
                    break
            else:
                return True
        return False


class Strategy:
    """One exact leaf per part of the variables, solved apart: `parts` is
    one or more `(names, leaf)` pairs (an unsplit system is one part), and a
    class or a state is one leaf class or DNF per part, in part order.  The
    product asks for a `label` per NFA symbol, the `initial` class and one
    `successor` per edge it tries; only a leaf shares images, one per
    (class, guard)."""

    def __init__(self, parts: tuple[tuple[tuple[str, ...], _Leaf], ...]):
        self.parts = parts
        self._leaves = tuple(leaf for _, leaf in parts)

    def describe(self) -> str:
        if len(self.parts) == 1:
            return self._leaves[0].describe()
        inner = "; ".join(f"{{{','.join(ns)}}}: {leaf.describe()}" for ns, leaf in self.parts)
        return f"var-compose({inner})"

    def label(self, formulas: Sequence[Formula]) -> tuple[Dnf, ...]:
        """Each part's label, of the conjuncts peeled off for it in part
        order (`_by_names`); one part takes every conjunct."""
        if len(self._leaves) == 1:
            return (self._leaves[0].label(formulas),)
        rest, labels = conj(*formulas), []
        for names, leaf in self.parts:
            inside, rest = _by_names(rest, set(names))
            labels.append(leaf.label([inside]))
        if not isinstance(rest, TrueF):
            raise ValueError(f"a conjunct crosses the variable split: {rest}")
        return tuple(labels)

    def initial(self) -> tuple[_Class, ...]:
        """The class of each part's initial constraints."""
        return tuple(leaf.canon(leaf.label(leaf.d.initial_constraints())) for leaf in self._leaves)

    def successor(self, cls: tuple, action: Optional[str], label: tuple) -> Optional[tuple]:
        """Each part's class of its image under `action` met with its label,
        or None if a part is unsatisfiable: every image and meet come first,
        then `sat` in part order, then `canon` once all parts are satisfiable."""
        images = tuple(map(_Leaf.image, self._leaves, cls, repeat(action)))
        states = tuple(map(_Leaf.meet, images, label))
        if all(map(_Leaf.sat, self._leaves, states)):
            return tuple(map(_Leaf.canon, self._leaves, states))
        return None


# ---------------------------------------------------------------------------
# Detection


class NoSummaryFound(Exception):
    """No criterion applied; says nothing about the system itself."""


def _gap_order_bound(d: Ddsa, constraints: Sequence[Formula]) -> int:
    """`K` of an integer system.  Gap-order reasoning is an integer device,
    and a split cannot help outside it, since a non-gap-order atom lands in
    some part: such a system gets no summary."""
    gc_ok, K = check_gc(d, constraints)
    if not gc_ok:
        raise NoSummaryFound(
            "no finite-summary criterion applied; this says nothing about the "
            "system itself (the summary property is undecidable in general)"
        )
    return K


def detect(d: Ddsa, constraints: Sequence[Formula]) -> Strategy:
    """The strategy the product runs on: the structure that changes the
    work, and no certificate.  An integer system is one part, on the
    gap-order leaf (NoSummaryFound outside the fragment).  A rational
    system gets one exact leaf per part of `split_system`."""
    if d.domain == INT:
        whole = tuple(v.name for v in d.variables)
        return Strategy(((whole, _Leaf(d, K=_gap_order_bound(d, constraints))),))
    return Strategy(tuple((names, _Leaf(part)) for names, part in split_system(d, constraints)))
