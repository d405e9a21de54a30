"""Linear-arithmetic terms, atoms, quantifier-free formulas, and variable
assignments.

Every coefficient, constant and assigned value is an exact rational, kept
as a Python `int` when it is integral and as a `fractions.Fraction` only
when it is not (`exact`, `exact_div`); the coefficients of a normalized
atom are primitive `int`s.  Equal ints and Fractions compare and hash
alike, so the choice never shows in a cache, an order or a printed value;
it only spares integral arithmetic the `Fraction` machinery.  Floats are
rejected at construction time.  Every value here is immutable and
hashable, so formulas can be shared freely across data structures.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Union


class FormulaError(Exception):
    """Base class for formula-level errors."""


class MissingVariable(FormulaError):
    """An assignment is not total on the formula's free variables."""


# Variable kinds: plain state variables, read/write transition copies, and
# numbered copies used for quantified snapshots.
PLAIN = "plain"
READ = "r"
WRITE = "w"
INDEXED = "ix"


def _hash_once(cls):
    """Store each object's structural hash on it the first time it is asked
    for (the hash half of Filliatre & Conchon's hash-consing).

    The value is the dataclass hash of the field tuple, so set and dict
    orders do not change.  It is not a field, so equality and `repr` ignore
    it; pickling drops it, because `str` hashes differ between
    interpreters.  `VarId` does without it: as a tuple it hashes, compares
    and sorts in C, to the same hash and order."""
    structural = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


class VarId(NamedTuple):
    """A variable: a tuple, so that coefficient vectors keyed or sorted on
    it hash and compare in C.  Its hash and order are those of the tuple
    (name, kind, idx)."""

    name: str
    kind: str = PLAIN
    idx: int = -1

    def __str__(self) -> str:
        if self.kind == READ:
            return f"{self.name}^r"
        if self.kind == WRITE:
            return f"{self.name}^w"
        if self.kind == INDEXED:
            return f"{self.name}#{self.idx}"
        return self.name

    def read(self) -> "VarId":
        return VarId(self.name, READ)

    def write(self) -> "VarId":
        return VarId(self.name, WRITE)

    def indexed(self, i: int) -> "VarId":
        return VarId(self.name, INDEXED, i)


@dataclass(frozen=True)
class Domain:
    tag: str  # "int" | "rat"

    def __str__(self) -> str:
        return self.tag


INT = Domain("int")
RAT = Domain("rat")

Exact = Union[int, Fraction]  # an int when integral, else a Fraction
RatLike = Union[int, str, Fraction]


def exact(x: RatLike) -> Exact:
    """The exact value of x: an `int` when it is integral, else a `Fraction`.
    Floats are refused, since their value is already rounded."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        if isinstance(x, float):
            raise TypeError("floats are forbidden; use Fraction or str")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def exact_div(a: Exact, b: Exact) -> Exact:
    """a / b as an exact value; `/` on two ints would give a float."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return exact(a / b)


def _merge(coeffs: Iterable[tuple[VarId, Exact]]) -> tuple[tuple[VarId, Exact], ...]:
    acc: dict[VarId, Exact] = {}
    for v, c in coeffs:
        acc[v] = acc.get(v, 0) + c
    return tuple(sorted((v, exact(c)) for v, c in acc.items() if c != 0))


@_hash_once
@dataclass(frozen=True)
class Term:
    """A linear expression in coefficient-map form: sum of c*v plus a constant.

    Zero coefficients are dropped and variables are kept sorted, so equal
    expressions have identical representations.
    """

    coeffs: tuple[tuple[VarId, Exact], ...] = ()
    const: Exact = 0

    @staticmethod
    def of(x: Union["Term", VarId, RatLike]) -> "Term":
        if isinstance(x, Term):
            return x
        if isinstance(x, VarId):
            return Term(((x, 1),))
        return Term((), exact(x))

    @staticmethod
    def make(coeffs: Iterable[tuple[VarId, Exact]], const: RatLike = 0) -> "Term":
        return Term(_merge(coeffs), exact(const))

    def __add__(self, other) -> "Term":
        o = Term.of(other)
        return Term(_merge(self.coeffs + o.coeffs), exact(self.const + o.const))

    def __sub__(self, other) -> "Term":
        return self + (-Term.of(other))

    def __neg__(self) -> "Term":
        return Term(tuple((v, -c) for v, c in self.coeffs), -self.const)

    def scale(self, k: Exact) -> "Term":
        if k == 0:
            return Term()
        return Term(tuple((v, exact(c * k)) for v, c in self.coeffs), exact(self.const * k))

    def vars(self) -> set[VarId]:
        return {v for v, _ in self.coeffs}

    def value(self, alpha: Mapping[VarId, Exact]) -> Exact:
        total = self.const
        for v, c in self.coeffs:
            if v not in alpha:
                raise MissingVariable(f"no value for {v}")
            total += c * alpha[v]
        return total

    def subst(self, mapping: Mapping[VarId, "Term"]) -> "Term":
        out = Term((), self.const)
        for v, c in self.coeffs:
            if v in mapping:
                out = out + mapping[v].scale(c)
            else:
                out = out + Term(((v, c),))
        return out

    def __str__(self) -> str:
        return fmt_term(self)


# ---------------------------------------------------------------------------
# Formulas


class Formula:
    __slots__ = ()


@dataclass(frozen=True)
class TrueF(Formula):
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True)
class FalseF(Formula):
    def __str__(self) -> str:
        return "false"


TRUE = TrueF()
FALSE = FalseF()

OPS = ("=", "!=", "<", "<=", ">", ">=")


@_hash_once
@dataclass(frozen=True)
class Atom(Formula):
    """lhs op rhs, kept as written; solving uses the normalized view."""

    lhs: Term
    op: str
    rhs: Term

    def __post_init__(self):
        if self.op not in OPS:
            raise ValueError(f"bad comparison operator {self.op!r}")

    def __str__(self) -> str:
        return f"{fmt_term(self.lhs)} {self.op} {fmt_term(self.rhs)}"


def atom(lhs, op: str, rhs) -> Atom:
    return Atom(Term.of(lhs), op, Term.of(rhs))


@_hash_once
@dataclass(frozen=True)
class And(Formula):
    args: tuple[Formula, ...]

    def __str__(self) -> str:
        return fmt_formula(self)


@_hash_once
@dataclass(frozen=True)
class Or(Formula):
    args: tuple[Formula, ...]

    def __str__(self) -> str:
        return fmt_formula(self)


@_hash_once
@dataclass(frozen=True)
class Not(Formula):
    arg: Formula

    def __str__(self) -> str:
        return fmt_formula(self)


def conj(*parts: Formula) -> Formula:
    """Flattened conjunction that keeps each conjunct's first occurrence."""
    flat: dict[Formula, None] = {}
    for p in parts:
        if isinstance(p, TrueF):
            continue
        if isinstance(p, FalseF):
            return FALSE
        flat.update(dict.fromkeys(p.args if isinstance(p, And) else (p,)))
    if not flat:
        return TRUE
    if len(flat) == 1:
        return next(iter(flat))
    return And(tuple(flat))


def disj(*parts: Formula) -> Formula:
    flat: list[Formula] = []
    for p in parts:
        if isinstance(p, FalseF):
            continue
        if isinstance(p, TrueF):
            return TRUE
        if isinstance(p, Or):
            flat.extend(p.args)
        else:
            flat.append(p)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def neg(p: Formula) -> Formula:
    if isinstance(p, TrueF):
        return FALSE
    if isinstance(p, FalseF):
        return TRUE
    if isinstance(p, Not):
        return p.arg
    return Not(p)


# ---------------------------------------------------------------------------
# Normalized atoms


@_hash_once
@dataclass(frozen=True)
class NormAtom:
    """Canonical form `sum(coeffs) op const` with op in {=, !=, <=, <}.

    Coefficients are scaled to primitive integers and stored as `int`; the
    constant is an `int` too unless it is not integral, so on integral data
    the solver's normal form hashes, compares and evaluates without
    `Fraction`.  Equalities additionally get a canonical sign.  Ground atoms
    have an empty coefficient vector.  The solver only builds atoms in this
    form, so `to_atom` records its result as already normalized and
    `norm_atom` maps it straight back.
    """

    coeffs: tuple[tuple[VarId, int], ...]
    op: str
    const: Exact

    def vars(self) -> set[VarId]:
        return {v for v, _ in self.coeffs}

    def truth(self) -> Optional[bool]:
        """Truth value of a ground atom, None if not ground."""
        if self.coeffs:
            return None
        if self.op == "=":
            return self.const == 0
        if self.op == "!=":
            return self.const != 0
        if self.op == "<=":
            return self.const >= 0
        return self.const > 0

    def to_atom(self) -> Atom:
        coeffs, op, const = self.coeffs, self.op, self.const
        # flip all-negative inequalities so they print as lower bounds
        if op in ("<=", "<") and coeffs and coeffs[0][1] < 0:
            coeffs = tuple((v, -c) for v, c in coeffs)
            op, const = (">=" if op == "<=" else ">"), -const
        lhs = Term(coeffs)
        out = Atom(lhs, op, Term((), const))
        if len(_NORM_CACHE) < 200_000:
            _NORM_CACHE.setdefault(out, self)
        return out

    def holds(self, alpha: Mapping[VarId, Exact]) -> bool:
        val = 0
        for v, c in self.coeffs:
            try:
                val += c * alpha[v]
            except KeyError:
                raise MissingVariable(f"no value for {v}") from None
        if self.op == "=":
            return val == self.const
        if self.op == "!=":
            return val != self.const
        if self.op == "<=":
            return val <= self.const
        return val < self.const


def _primitive_scale(coeffs: tuple[tuple[VarId, Exact], ...]) -> Exact:
    """Positive factor making the coefficient vector primitive integers."""
    dens = [c.denominator for _, c in coeffs]
    nums = [abs(c.numerator) for _, c in coeffs]
    l = lcm(*dens)
    return exact_div(l, gcd(*[n * l // d for n, d in zip(nums, dens)]))


_NORM_CACHE: dict = {}


def norm_atom(a: Atom) -> NormAtom:
    hit = _NORM_CACHE.get(a)
    if hit is not None:
        return hit
    out = _norm_atom(a)
    if len(_NORM_CACHE) < 200_000:
        _NORM_CACHE[a] = out
    return out


def _norm_atom(a: Atom) -> NormAtom:
    t = a.lhs - a.rhs
    op = a.op
    if op in (">", ">="):
        t = -t
        op = "<" if op == ">" else "<="
    coeffs, const = t.coeffs, -t.const
    if coeffs:
        k = _primitive_scale(coeffs)
        coeffs = tuple((v, int(c * k)) for v, c in coeffs)
        const = exact(const * k)
        if op in ("=", "!=") and coeffs[0][1] < 0:
            coeffs = tuple((v, -c) for v, c in coeffs)
            const = -const
    return NormAtom(coeffs, op, const)


# ---------------------------------------------------------------------------
# Core operations


def evaluate(
    phi: Formula,
    alpha: Mapping[VarId, Exact],
    truths: Optional[dict[Atom, bool]] = None,
) -> bool:
    """Standard boolean/arithmetic semantics.

    `truths`, when given, memoises each atom's truth under `alpha`; the
    caller keeps one dict per assignment and passes it to every formula it
    evaluates under that assignment.  An atom with a variable outside
    `alpha` raises MissingVariable and is not stored."""
    if isinstance(phi, TrueF):
        return True
    if isinstance(phi, FalseF):
        return False
    if isinstance(phi, Atom):
        if truths is None:
            return norm_atom(phi).holds(alpha)
        hit = truths.get(phi)
        if hit is None:
            hit = truths[phi] = norm_atom(phi).holds(alpha)
        return hit
    if isinstance(phi, And):
        return all(evaluate(p, alpha, truths) for p in phi.args)
    if isinstance(phi, Or):
        return any(evaluate(p, alpha, truths) for p in phi.args)
    if isinstance(phi, Not):
        return not evaluate(phi.arg, alpha, truths)
    raise TypeError(f"not a formula: {phi!r}")


def free_vars(phi: Formula) -> set[VarId]:
    if isinstance(phi, (TrueF, FalseF)):
        return set()
    if isinstance(phi, Atom):
        return phi.lhs.vars() | phi.rhs.vars()
    if isinstance(phi, (And, Or)):
        out: set[VarId] = set()
        for p in phi.args:
            out |= free_vars(p)
        return out
    if isinstance(phi, Not):
        return free_vars(phi.arg)
    raise TypeError(f"not a formula: {phi!r}")


def substitute(phi: Formula, mapping: Mapping[VarId, Term]) -> Formula:
    """Replace variables by terms."""
    if isinstance(phi, (TrueF, FalseF)):
        return phi
    if isinstance(phi, Atom):
        return Atom(phi.lhs.subst(mapping), phi.op, phi.rhs.subst(mapping))
    if isinstance(phi, And):
        return conj(*(substitute(p, mapping) for p in phi.args))
    if isinstance(phi, Or):
        return disj(*(substitute(p, mapping) for p in phi.args))
    if isinstance(phi, Not):
        return neg(substitute(phi.arg, mapping))
    raise TypeError(f"not a formula: {phi!r}")


def atoms_of(phi: Formula) -> Iterator[Atom]:
    if isinstance(phi, Atom):
        yield phi
    elif isinstance(phi, (And, Or)):
        for p in phi.args:
            yield from atoms_of(p)
    elif isinstance(phi, Not):
        yield from atoms_of(phi.arg)


# ---------------------------------------------------------------------------
# Printing


def fmt_rat(x: Exact) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def fmt_term(t: Term) -> str:
    if not t.coeffs:
        return fmt_rat(t.const)
    bits: list[str] = []
    for v, c in t.coeffs:
        if not bits:
            if c == 1:
                bits.append(str(v))
            elif c == -1:
                bits.append(f"-{v}")
            else:
                bits.append(f"{fmt_rat(c)}*{v}")
        else:
            sign = "+" if c > 0 else "-"
            mag = abs(c)
            core = str(v) if mag == 1 else f"{fmt_rat(mag)}*{v}"
            bits.append(f"{sign} {core}")
    if t.const != 0:
        sign = "+" if t.const > 0 else "-"
        bits.append(f"{sign} {fmt_rat(abs(t.const))}")
    return " ".join(bits)


def fmt_formula(phi: Formula) -> str:
    if isinstance(phi, TrueF):
        return "true"
    if isinstance(phi, FalseF):
        return "false"
    if isinstance(phi, Atom):
        return str(phi)
    if isinstance(phi, And):
        return " && ".join(_wrap(p, for_and=True) for p in phi.args)
    if isinstance(phi, Or):
        return " || ".join(_wrap(p, for_and=False) for p in phi.args)
    if isinstance(phi, Not):
        return f"!({fmt_formula(phi.arg)})"
    raise TypeError(f"not a formula: {phi!r}")


def _wrap(phi: Formula, for_and: bool) -> str:
    s = fmt_formula(phi)
    if for_and and isinstance(phi, Or):
        return f"({s})"
    return s
