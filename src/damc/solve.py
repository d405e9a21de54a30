"""Decision procedures over linear arithmetic.

DNF normalization, satisfiability with model extraction, quantifier
elimination, entailment and equivalence, the K-cutoff, and recognition of
the monotonicity / gap-order constraint classes.  Satisfiability and QE
are Fourier-Motzkin in both domains: over the integers a cube is first
tightened to non-strict integer difference bounds (rows with coefficients
+-1 and integer bounds), on which the rational answer is the integer one.
Those tightened rows are also the one reading of gap-order: a row
`t <= c` is the gap `-t >= -c`, so membership (`is_gap_order`), the bound
K (`gap_order_bound`) and the cutoff at K all come off them.

Everything works on the exact-rational formula IR from `formula`; there
is deliberately no SMT backend so every answer is reproducible.  The
solver's currency is the normal form: a cube is a tuple of `NormAtom`s,
whose coefficients are primitive integers, and a DNF is a tuple of cubes.
`to_dnf` is the way in from a formula and `dnf_to_formula` the way back;
every other entry point takes and returns DNFs.  Fourier-Motzkin runs on
the integer rows: two rows combine as positive integer multiples and are
divided by their gcd, the primitive normal form of the combined atom.
"""
from __future__ import annotations

from math import ceil, floor, gcd
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .formula import (
    INT,
    RAT,
    And,
    Atom,
    Domain,
    Exact,
    FalseF,
    Formula,
    FormulaError,
    NormAtom,
    Not,
    Or,
    TrueF,
    VarId,
    conj,
    disj,
    exact,
    exact_div,
    norm_atom,
)


class NotGapOrder(FormulaError):
    """An atom cannot be written as x - y >= k with k a natural number."""


class UnsupportedInteger(FormulaError):
    """Integer satisfiability outside the supported fragments."""


class BudgetExceeded(FormulaError):
    """A normalization or search exceeded its size budget."""


Cube = tuple[NormAtom, ...]
Dnf = tuple[Cube, ...]  # () is false, ((),) true

_DNF_CUBE_LIMIT = 200_000


class SatResult(NamedTuple):
    sat: bool
    model: Optional[dict[VarId, Exact]] = None


# ---------------------------------------------------------------------------
# Cube normalization

def norm_cube(atoms: Sequence[NormAtom]) -> Optional[Cube]:
    """Conjunction cleanup: dedup, constant folding, and per-direction
    bound subsumption.  Returns None when the cube is contradictory.

    Only pairwise reasoning on atoms sharing a coefficient vector is done;
    full entailment is not attempted.  The atoms carry no `!=`: `to_dnf`
    splits each into two strict atoms.
    """
    # vec -> (bound, strict, the atom that states it)
    lo: dict[tuple, tuple[Exact, bool, NormAtom]] = {}
    hi: dict[tuple, tuple[Exact, bool, NormAtom]] = {}
    eq: dict[tuple, tuple[Exact, NormAtom]] = {}
    order: dict[tuple, None] = {}  # the vectors in order of first use

    for na in atoms:
        t = na.truth()
        if t is True:
            continue
        if t is False:
            return None
        vec, const, op = na.coeffs, na.const, na.op
        # store bounds against the canonical-sign direction
        canon = vec if vec[0][1] > 0 else tuple((v, -c) for v, c in vec)
        flipped = canon is not vec
        order[canon] = None
        if op == "=":
            c = -const if flipped else const
            if canon in eq and eq[canon][0] != c:
                return None
            eq.setdefault(canon, (c, na))
        else:
            strict = op == "<"
            if flipped:  # -t <= const  <=>  t >= -const
                c = -const
                cur = lo.get(canon)
                if cur is None or c > cur[0] or (c == cur[0] and strict):
                    lo[canon] = (c, strict, na)
            else:
                cur = hi.get(canon)
                if cur is None or const < cur[0] or (const == cur[0] and strict):
                    hi[canon] = (const, strict, na)

    out: list[NormAtom] = []
    for vec in order:
        l, h, e = lo.get(vec), hi.get(vec), eq.get(vec)
        if e is not None:
            e, stated = e
            if l is not None and (e < l[0] or (e == l[0] and l[1])):
                return None
            if h is not None and (e > h[0] or (e == h[0] and h[1])):
                return None
            out.append(stated)  # an equality's input atom has the canonical sign
            continue
        if l is not None and h is not None:
            if l[0] > h[0]:
                return None
            if l[0] == h[0] and (l[1] or h[1]):
                return None
        # a kept bound is its input atom, whose hash is already stored
        if l is not None:
            out.append(l[2])
        if h is not None:
            out.append(h[2])
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# DNF

def to_dnf(phi: Formula, dom: Domain = RAT) -> list[Cube]:
    """Disjunctive normal form over the domain as a list of cubes, each
    once; [] is false, [()] true.

    `!=` atoms are expanded into the two strict alternatives, except that
    over the integers one with a constant that is not an integer is true
    (`_atom_cubes`).
    """
    return list(dict.fromkeys(_dnf(phi, True, dom == INT)))


def _dnf(phi: Formula, positive: bool, integers: bool) -> list[Cube]:
    if isinstance(phi, TrueF):
        return [()] if positive else []
    if isinstance(phi, FalseF):
        return [] if positive else [()]
    if isinstance(phi, Not):
        return _dnf(phi.arg, not positive, integers)
    if isinstance(phi, Atom):
        na = norm_atom(phi)
        if not positive:
            na = _negate(na)
        return _atom_cubes(na, integers)
    if isinstance(phi, (And, Or)):
        is_and = isinstance(phi, And) == positive
        parts = [_dnf(p, positive, integers) for p in phi.args]
        if not is_and:
            return [c for ds in parts for c in ds]
        if not all(parts):
            return []
        # the one-cube parts meet in one `norm_cube`: they change neither
        # the cubes nor the order of the others' products
        merged = norm_cube(tuple(a for ds in parts if len(ds) == 1 for a in ds[0]))
        acc: list[Cube] = [] if merged is None else [merged]
        for ds in parts:
            if len(ds) > 1:
                acc = conj_cubes(acc, ds)
        return acc
    raise TypeError(f"not a formula: {phi!r}")


def conj_cubes(left: Sequence[Cube], right: Sequence[Cube]) -> list[Cube]:
    """The cubes of the conjunction of two DNFs: one `norm_cube` per pair,
    the left cube outer, contradictions dropped.  More than
    `_DNF_CUBE_LIMIT` of them raise BudgetExceeded."""
    out: list[Cube] = []
    for l in left:
        for r in right:
            merged = norm_cube(l + r)
            if merged is not None:
                out.append(merged)
    if len(out) > _DNF_CUBE_LIMIT:
        raise BudgetExceeded("DNF blow-up")
    return out


def _negate(na: NormAtom) -> NormAtom:
    if na.op == "=":
        return NormAtom(na.coeffs, "!=", na.const)
    if na.op == "!=":
        return NormAtom(na.coeffs, "=", na.const)
    if na.op == "<=":  # not(t <= c)  <=>  -t < -c
        return NormAtom(tuple((v, -c) for v, c in na.coeffs), "<", -na.const)
    return NormAtom(tuple((v, -c) for v, c in na.coeffs), "<=", -na.const)


def _atom_cubes(na: NormAtom, integers: bool) -> list[Cube]:
    t = na.truth()
    # over the integers the left side, with int coefficients, is an integer
    if t is True or (integers and na.op == "!=" and na.const.denominator != 1):
        return [()]
    if t is False:
        return []
    if na.op == "!=":
        below = NormAtom(na.coeffs, "<", na.const)
        above = NormAtom(tuple((v, -c) for v, c in na.coeffs), "<", -na.const)
        return [(below,), (above,)]
    return [(na,)]


def dnf_to_formula(cubes: Sequence[Cube]) -> Formula:
    return disj(*(conj(*(na.to_atom() for na in cube)) for cube in cubes))


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination (both domains)

Rows = list[tuple[NormAtom, int]]  # atoms with their coefficient of the eliminated variable


def _rows_on(cube: Cube, x: VarId) -> tuple[Rows, Rows, Rows, list[NormAtom]]:
    """Split a cube by its relation to x: (eqs, lowers, uppers, rest), each
    row paired with x's coefficient in it (negative in a lower bound)."""
    eqs: Rows = []
    lowers: Rows = []
    uppers: Rows = []
    rest: list[NormAtom] = []
    for na in cube:
        a = dict(na.coeffs).get(x)
        if a is None:
            rest.append(na)
        elif na.op == "=":
            eqs.append((na, a))
        elif a > 0:
            uppers.append((na, a))
        else:
            lowers.append((na, a))
    return eqs, lowers, uppers, rest


def _resolve(p: NormAtom, a: int, q: NormAtom, b: int) -> NormAtom:
    """The row |b|*p - sgn(b)*a*q, in which the coefficients a (in p) and b
    (in q) of the eliminated variable cancel, as a normalized atom.

    p's multiplier is positive, so the row keeps p's direction; q is an
    equality or a bound of the opposite direction."""
    mp, mq = abs(b), (-a if b > 0 else a)
    acc = {v: mp * c for v, c in p.coeffs}
    for v, c in q.coeffs:
        acc[v] = acc.get(v, 0) + mq * c
    if p.op == "=" and q.op == "=":
        op = "="
    else:
        op = "<" if "<" in (p.op, q.op) else "<="
    return primitive_atom(acc, op, mp * p.const + mq * q.const)


def primitive_atom(acc: Mapping[VarId, int], op: str, const: Exact) -> NormAtom:
    """The atom `sum(c * v) op const` on integer coefficients as `norm_atom`
    gives it: divided by the gcd, with the sign fixed on an equality."""
    coeffs = tuple(sorted((v, c) for v, c in acc.items() if c))
    if coeffs:
        g = gcd(*(c for _, c in coeffs))
        if op == "=" and coeffs[0][1] < 0:
            g = -g
        if g != 1:
            coeffs = tuple((v, c // g) for v, c in coeffs)
            return NormAtom(coeffs, op, exact_div(const, g))
    return NormAtom(coeffs, op, exact(const))


def _resolvents(eqs: Rows, lowers: Rows, uppers: Rows) -> list[NormAtom]:
    """The rows a Fourier-Motzkin step adds: with an equality, the other
    rows resolved against the first one; without, every lower bound
    resolved against every upper bound."""
    if eqs:
        e, b = eqs[0]
        return [_resolve(p, a, e, b) for p, a in eqs[1:] + lowers + uppers]
    return [_resolve(p, a, q, b) for p, a in lowers for q, b in uppers]


def _elim_order(cube: Cube, xs: set[VarId]) -> Optional[VarId]:
    counts: dict[VarId, int] = {}
    for na in cube:
        for v, _ in na.coeffs:
            if v in xs:
                counts[v] = counts.get(v, 0) + 1
    if not counts:
        return None
    return min(counts, key=lambda v: (counts[v], v))


def _eliminate(
    cube: Cube, xs: set[VarId], trail: Optional[list] = None
) -> Optional[Cube]:
    """Fourier-Motzkin on the cube's integer rows until no variable of xs
    is left, the one in fewest rows first (ties by variable order); None
    when the cube is contradictory.  Each combined row is a positive
    integer combination divided by its gcd, so it is the normal form of the
    combined atom, and no bound passes through a rational `Term`.  With a
    `trail`, each step appends the eliminated variable and its (eqs,
    lowers, uppers) rows, for back-substitution."""
    cur: Optional[Cube] = cube
    while cur:
        x = _elim_order(cur, xs)
        if x is None:
            break
        eqs, lowers, uppers, rest = _rows_on(cur, x)
        if trail is not None:
            trail.append((x, eqs, lowers, uppers))
        cur = norm_cube(rest + _resolvents(eqs, lowers, uppers))
    return cur


def qe_rational(xs: Sequence[VarId], cubes: Dnf) -> Dnf:
    """Quantifier-free equivalent of (exists xs. cubes) over the rationals:
    each cube eliminated by Fourier-Motzkin on its integer rows."""
    return _qe_cubes(xs, cubes)


def qe_gc(xs: Sequence[VarId], cubes: Dnf) -> Dnf:
    """Quantifier-free gap-order equivalent of (exists xs. cubes) over Z;
    an atom outside gap-order raises NotGapOrder.  Each cube is tightened
    to non-strict integer difference bounds, as `is_sat` does, and
    eliminated by Fourier-Motzkin; membership is read off the tightened
    rows (`_gap_order_rows`).  Every row there has coefficients +-1 and an
    integer bound, and so has every sum of two rows, so each bound on an
    eliminated variable is an integer and the rational projection is the
    integer one.  Sums of non-negative gaps are non-negative: the image
    stays gap-order.
    """
    tight = []
    for cube in cubes:
        rows = _gap_order_rows(cube)
        if rows is None:
            bad = next(na for na in cube if _gap_order_rows((na,)) is None)
            raise NotGapOrder(f"not a gap-order atom: {bad.to_atom()}")
        tight.append(norm_cube(rows))
    return _qe_cubes(xs, tight)


def _gap_order_rows(cube: Cube) -> Optional[Cube]:
    """The cube's tightened rows (`_as_difference_cube`) when every atom is
    gap-order, else None.  A unary row always is; a difference row
    `x - y <= c` is `y - x >= -c`, a gap iff c <= 0.  A two-variable
    equality with a nonzero constant has no tightened rows at all."""
    rows = _as_difference_cube(cube)
    if rows is None or any(len(na.coeffs) == 2 and na.const > 0 for na in rows):
        return None
    return rows


def _qe_cubes(xs: Sequence[VarId], cubes: Sequence[Optional[Cube]]) -> Dnf:
    """The cubes' projections, each once; a None cube (a contradiction)
    contributes nothing."""
    targets = set(xs)
    out: dict[Cube, None] = {}
    for cube in cubes:
        r = None if cube is None else _eliminate(cube, targets)
        if r is not None:
            out[r] = None
    return tuple(out)


# ---------------------------------------------------------------------------
# Gap-order membership, the bound K, the MC test
#
# A gap-order constraint is x - y >= k with k a natural number and x, y
# variables or integer constants (Revesz, TCS 1993).  Membership, K and the
# cutoff read an atom off its tightened rows (`_as_difference_cube`): a row
# `t <= c` is the gap `-t >= -c`.

_FALSE_ROW = NormAtom((), "<=", -1)  # the gap 0 - 0 >= 1


def _gap_reading(na: NormAtom) -> Optional[tuple[Optional[NormAtom], tuple[Exact, ...]]]:
    """The row whose gap the cutoff caps (None for `=`, `!=` and a true
    atom) and the constants the atom adds to K; None outside gap-order.

    Every alternative of the atom over the integers (`to_dnf` splits a `!=`
    into two strict atoms) must have gap-order rows: `x - y != 1` is the
    gaps `y - x >= 0 | x - y >= 2`.  An atom false over the integers
    (`x = 5/2`) is the gap 0 - 0 >= 1; one true over them (`x - y != 3/2`)
    has no row and adds nothing.  An upper bound `x <= c` adds |c|, any
    other row its gap -c; an equality `t = e` adds e.  `x != e` adds e and
    1, and `x - y != e` the gaps of its two alternatives (0 and 2 for e = 1
    or -1, as its disjunctive spelling `x - y <= 0 | x - y >= 2` does).
    """
    alternatives = []
    for cube in _atom_cubes(na, integers=True):
        rows = _gap_order_rows(cube)
        if rows is None:
            return None
        alternatives.append(norm_cube(rows))
    if all(rows is None for rows in alternatives):
        return (_FALSE_ROW, (1,))
    if alternatives == [()]:
        return (None, ())
    if na.op == "=":
        return (None, (na.const,))
    if na.op == "!=":
        if len(na.coeffs) == 1:
            return (None, (na.const, 1))
        return (None, tuple(-row.const for rows in alternatives for row in rows or ()))
    ((row,),) = alternatives
    c = row.const
    upper = len(row.coeffs) == 1 and row.coeffs[0][1] > 0
    return (row, (abs(c) if upper else -c,))


def is_gap_order(na: NormAtom) -> bool:
    """Whether the atom is gap-order: every alternative of it has gap-order
    rows (`_gap_reading`)."""
    return _gap_reading(na) is not None


def gap_order_bound(atoms: Iterable[NormAtom]) -> Optional[int]:
    """The cutoff bound K of the atoms, or None when one is not gap-order.

    K is the largest distance between the constants the atoms add
    (`_gap_reading`), with 0 always among them, plus one."""
    consts: set[Exact] = {0}
    for na in atoms:
        reading = _gap_reading(na)
        if reading is None:
            return None
        consts.update(reading[1])
    return max(consts) - min(consts) + 1


def is_mc(na: NormAtom) -> bool:
    """Whether the atom compares two variables or a variable and a constant
    (a monotonicity constraint)."""
    if len(na.coeffs) == 0:
        return True
    if len(na.coeffs) == 1:
        return True  # a*x <> c rescales to x <> c/a
    if len(na.coeffs) == 2:
        (_, a1), (_, a2) = na.coeffs
        return a1 == -a2 and abs(a1) == 1 and na.const == 0
    return False


# ---------------------------------------------------------------------------
# Satisfiability

def is_sat(cubes: Sequence[Cube], dom: Domain) -> SatResult:
    """Satisfiability over the domain, with a checked model on success.

    The model is that of the DNF's first satisfiable cube.  Both domains
    run Fourier-Motzkin on each cube, which over the rationals is complete.
    Over the integers each cube is first tightened to non-strict integer
    difference bounds, on which the rational answer is the integer one;
    that covers the gap-order fragment and its negations.  When no such
    cube has a model and another cube remains, it raises UnsupportedInteger
    rather than guess.
    """
    outside: Optional[Cube] = None
    for cube in cubes:
        if dom == RAT:
            model = _sat_cube_rational(cube)
        else:
            tight = _as_difference_cube(cube)
            if tight is None:
                outside = outside or cube  # a non-empty cube
                continue
            model = _sat_cube_rational(tight)
        if model is not None:
            _check_model(cube, model)
            return SatResult(True, model)
    if outside is not None:
        bad = next(na for na in outside if _as_difference_cube((na,)) is None)
        raise UnsupportedInteger(
            f"integer satisfiability outside the difference fragment: {bad.to_atom()}"
        )
    return SatResult(False)


def _check_model(cube: Cube, model: Mapping[VarId, Exact]) -> None:
    for na in cube:
        if not na.holds(model):
            raise AssertionError(f"model {model} violates {na.to_atom()}")


def _sat_cube_rational(cube: Cube) -> Optional[dict[VarId, Exact]]:
    """Fourier-Motzkin to a ground cube, then back-substitution: each
    eliminated variable gets a value between the tightest bounds its trail
    rows give under the values already chosen."""
    trail: list[tuple[VarId, Rows, Rows, Rows]] = []
    if _eliminate(cube, {v for na in cube for v, _ in na.coeffs}, trail) is None:
        return None
    model: dict[VarId, Exact] = {}
    eliminated = {x for x, _, _, _ in trail}
    for _, eqs, lowers, uppers in trail:
        for na, _ in eqs + lowers + uppers:
            for v, _ in na.coeffs:
                if v not in eliminated:
                    model[v] = 0  # unconstrained by the residue
    for x, eqs, lowers, uppers in reversed(trail):
        if eqs:
            model[x] = _bound(eqs[0], x, model)
        else:
            model[x] = _pick_rational(
                _tightest(lowers, x, model, 1), _tightest(uppers, x, model, -1)
            )
    return model


def _tightest(rows: Rows, x: VarId, model: Mapping[VarId, Exact], sign: int):
    """The tightest bound (value, strict) the rows put on x under the model:
    the largest lower bound (sign 1) or the smallest upper bound (sign -1),
    a strict bound winning a tie; None without rows."""
    if not rows:
        return None
    v, strict = max((sign * _bound(row, x, model), row[0].op == "<") for row in rows)
    return sign * v, strict


def _bound(row: tuple[NormAtom, int], x: VarId, model: Mapping[VarId, Exact]) -> Exact:
    """The value of x at which the row a*x + rest op const is tight."""
    na, a = row
    rest = na.const
    for v, c in na.coeffs:
        if v != x:
            rest -= c * model[v]
    return exact_div(rest, a)


def _pick_rational(lo, hi) -> Exact:
    """A value between the bounds, at least one of which is set: a variable
    `_eliminate` takes has a row, and one without an equality a bound."""
    if lo is None:
        return hi[0] - 1 if hi[1] else min(hi[0], 0)
    if hi is None:
        return lo[0] + 1 if lo[1] else max(lo[0], 0)
    if not lo[1] and (lo[0] < hi[0] or (lo[0] == hi[0] and not hi[1])):
        return lo[0]
    return exact_div(lo[0] + hi[0], 2)


def _floor_bound(c: Exact, strict: bool) -> int:
    # largest integer value of t with t <= c (or < c)
    if c.denominator == 1:
        return int(c) - (1 if strict else 0)
    return floor(c)


def _as_difference_cube(cube: Cube) -> Optional[Cube]:
    """The cube over the integers as non-strict integer bounds on difference
    terms (x, -x, x - y), or None when an atom lies outside that fragment.

    `t < c` becomes `t <= ceil(c) - 1`, `t <= c` becomes `t <= floor(c)`, and
    a gap-order `t = c` becomes `t <= floor(c)` and `-t <= -ceil(c)`.  Such a
    system is totally unimodular: it has an integer model iff it has a
    rational one (Schrijver, Theory of Linear and Integer Programming, 1986),
    and Fourier-Motzkin back-substitution picks integer values for it.
    """
    out: list[NormAtom] = []
    for na in cube:
        vec, const, op = na.coeffs, na.const, na.op
        diff = len(vec) == 1 or (
            len(vec) == 2 and vec[0][1] == -vec[1][1] and abs(vec[0][1]) == 1
        )
        if not diff or (op == "=" and len(vec) == 2 and const != 0):
            return None
        if op == "=":
            out.append(NormAtom(vec, "<=", floor(const)))
            out.append(NormAtom(tuple((v, -c) for v, c in vec), "<=", -ceil(const)))
        else:
            out.append(NormAtom(vec, "<=", _floor_bound(const, op == "<")))
    return tuple(out)


# ---------------------------------------------------------------------------
# Entailment, equivalence, cutoff

def entails(a: Sequence[Cube], b: Sequence[Cube]) -> bool:
    """Whether every rational model of the DNF `a` is one of the DNF `b`:
    each cube of `a` conjoined with the negation of `b`, cube by cube, has
    no model.  A cube's negation splits a partial cube into one per atom
    (two for an equality); one with no model is pruned, and one whose model
    satisfies the negated atom keeps it without a solver call."""
    for cube in a:
        first = _sat_cube_rational(cube)
        partial = {} if first is None else {cube: first}
        for other in b:
            split: dict[Cube, dict[VarId, Exact]] = {}
            for p, model in partial.items():
                for na in other:
                    for (neg,) in _atom_cubes(_negate(na), integers=False):
                        q = norm_cube(p + (neg,))
                        if q is not None and q not in split:
                            kept = model if _holds_free(neg, model) else _sat_cube_rational(q)
                            if kept is not None:
                                split[q] = kept
            if len(split) > _DNF_CUBE_LIMIT:
                raise BudgetExceeded("DNF blow-up")
            partial = split
        if partial:
            return False
    return True


def _holds_free(na: NormAtom, model: Mapping[VarId, Exact]) -> bool:
    """A bound's truth under the model, a variable it leaves free read as 0."""
    val = sum(c * model.get(v, 0) for v, c in na.coeffs)
    return val < na.const if na.op == "<" else val <= na.const


def equivalent(a: Sequence[Cube], b: Sequence[Cube]) -> bool:
    """Logical equivalence of two DNFs over the rationals: `entails` both ways."""
    return entails(a, b) and entails(b, a)


def cutoff(cubes: Sequence[Cube], K: int) -> Dnf:
    """Replace every gap of at least K by the gap K, atom by atom, in an
    integer DNF: an atom whose row `t <= c` (`_gap_reading`) has `-c >= K`
    becomes `-t >= K`; one outside gap-order raises NotGapOrder.  It cuts
    the cubes as given (`to_dnf(., INT)` splits each `!=`), so the
    product's gap-order relation reads a class's integer DNF, not a
    formula's text: `x >= 1 && x != 1` is the cube `x > 1`, cut at K = 1
    to `x >= 1`, but kept at K = 3, where it differs from `x >= 2` over Q.
    """
    if K < 1:
        raise ValueError("cutoff bound must be positive")
    out: dict[Cube, None] = {}
    for cube in cubes:
        cut = []
        for na in cube:
            reading = _gap_reading(na)
            if reading is None:
                raise NotGapOrder(f"not a gap-order atom: {na.to_atom()}")
            row = reading[0]
            cut.append(NormAtom(row.coeffs, "<=", -K) if row and -row.const >= K else na)
        cut = norm_cube(cut)
        if cut is not None:
            out[cut] = None
    return tuple(out)


def gc_equivalent(a: Sequence[Cube], b: Sequence[Cube], K: int) -> bool:
    """Cutoff equivalence: integer DNFs agree after capping all gaps at K.

    The comparison of the capped DNFs runs over the rationals, which is
    sound for gap-order satisfiability questions (difference systems with
    integer offsets have integer solutions whenever they have any).
    """
    return equivalent(cutoff(a, K), cutoff(b, K))
