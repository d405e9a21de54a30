"""Linear-arithmetic terms, atoms, quantifier-free formulas, and variable
assignments.

A formula is `TRUE`, `FALSE`, an atom, or an `And` or `Or` of formulas.
There is no negation node: the comparisons are closed under negation, so
a negated comparison is the atom with the complementary operator (`<=`
and `>`, `<` and `>=`, `=` and `!=`).

Every coefficient, constant and assigned value is an exact rational, kept
as a Python `int` when it is integral and as a `fractions.Fraction` only
when it is not (`exact`, `exact_div`); the coefficients of a normalized
atom are primitive `int`s.  Equal ints and Fractions compare and hash
alike, so the choice never shows in a cache, an order or a printed value;
it only spares integral arithmetic the `Fraction` machinery.  Floats are
rejected at construction time.  Every value here is immutable and
hashable, so formulas can be shared freely across data structures.

The value classes here and in the other modules state their fields once.
A flat record (`VarId`, `Domain`, `NormAtom`, and elsewhere
`DeltaEntry`, `NfaEdge`, `SatResult`, `Config`, `PNode`, `PEdge`,
`ProductAutomaton`, `ConstraintGraph`, `Verdict`) is a
`typing.NamedTuple`: it compares, sorts and prints in C, hashes when its
fields do (the last three hold lists, so they do not), and it is equal to
any tuple with equal items, so no container in damc mixes it with another
tuple of its shape.  A tree node (`Term`, the formulas, the LTLf nodes,
`Run`) derives from `Value`, which tags equality by class and stores
its hash: it lists its fields in `__slots__`, and `Value.__init__` fills
them without building code at import, as `dataclasses` would.  A memo lives on the value it describes, in a slot whose
name starts with `_` (`Value._hash`, `Atom._norm`), and no table in the
module remembers a value across calls.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter
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


# How a value's `__init__` fills a field: `Value.__setattr__` refuses.
_set = object.__setattr__


class Value:
    """An immutable tree node: each subclass lists its fields in `__slots__`,
    in the order `__init__` takes them positionally.

    A slot whose name starts with `_` is a memo, not a field: `_hash` on
    every value, and whatever a subclass adds; `__init__` sets each memo to
    None.  Two values are equal when they are of one class and their fields
    are equal.  The hash is that of the field tuple: set and dict orders
    reach the output, so it is the hash a frozen dataclass would have, and
    the hash a named tuple of the same fields has.  `repr` is
    `ClassName(field=value, ...)`.  The hash is stored on the object the
    first time it is asked for (the hash half of Filliatre & Conchon's
    hash-consing).  Equality, the hash and `repr` ignore the memos, and
    pickling drops them: `str` hashes differ between interpreters, and a
    memo is recomputed on demand."""

    __slots__ = ("_hash",)

    def __init_subclass__(cls):
        cls._fields = tuple(n for n in cls.__slots__ if n[0] != "_")
        cls._memos = ("_hash",) + tuple(n for n in cls.__slots__ if n[0] == "_")
        # (class, *fields), or the class alone without fields, read in C:
        # equal values have equal keys
        cls._key = attrgetter("__class__", *cls._fields)

    def __init__(self, *fields):
        if len(fields) != len(self._fields):
            raise TypeError(
                f"{self.__class__.__qualname__}() takes {len(self._fields)} "
                f"positional fields but {len(fields)} were given"
            )
        for name, value in zip(self._fields, fields):
            _set(self, name, value)
        for name in self._memos:
            _set(self, name, None)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Value):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self._key(self)[1:] if self._fields else ())  # the fields
            _set(self, "_hash", h)
        return h

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._key(self)[1:] if self._fields else ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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


class Domain(NamedTuple):
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


class Term(Value):
    """A linear expression in coefficient-map form: sum of c*v plus a constant.

    Zero coefficients are dropped and variables are kept sorted, so equal
    expressions have identical representations.
    """

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: tuple[tuple[VarId, Exact], ...] = (), const: Exact = 0):
        _set(self, "coeffs", coeffs)
        _set(self, "const", const)
        _set(self, "_hash", None)

    @staticmethod
    def of(x: "Union[Term, VarId, RatLike]") -> "Term":
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

    def __str__(self) -> str:
        return fmt_term(self)


# ---------------------------------------------------------------------------
# Formulas


class Formula(Value):
    __slots__ = ()


class TrueF(Formula):
    __slots__ = ()

    def __str__(self) -> str:
        return "true"


class FalseF(Formula):
    __slots__ = ()

    def __str__(self) -> str:
        return "false"


TRUE = TrueF()
FALSE = FalseF()

OPS = ("=", "!=", "<", "<=", ">", ">=")


class Atom(Formula):
    """lhs op rhs, kept as written; solving uses the normalized view, which
    `norm_atom` stores in the memo `_norm` the first time it is asked for."""

    __slots__ = ("lhs", "op", "rhs", "_norm")

    def __init__(self, lhs: Term, op: str, rhs: Term):
        if op not in OPS:
            raise ValueError(f"bad comparison operator {op!r}")
        _set(self, "lhs", lhs)
        _set(self, "op", op)
        _set(self, "rhs", rhs)
        _set(self, "_hash", None)
        _set(self, "_norm", None)

    def __str__(self) -> str:
        return f"{fmt_term(self.lhs)} {self.op} {fmt_term(self.rhs)}"


def atom(lhs, op: str, rhs) -> Atom:
    return Atom(Term.of(lhs), op, Term.of(rhs))


class And(Formula):
    __slots__ = ("args",)  # tuple[Formula, ...]

    def __str__(self) -> str:
        return fmt_formula(self)


class Or(Formula):
    __slots__ = ("args",)  # tuple[Formula, ...]

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


# ---------------------------------------------------------------------------
# Normalized atoms


class NormAtom(NamedTuple):
    """Canonical form `sum(coeffs) op const` with op in {=, !=, <=, <}.

    Coefficients are scaled to primitive integers and stored as `int`; the
    constant is an `int` too unless it is not integral, so on integral data
    the solver's normal form hashes, compares and evaluates without
    `Fraction`.  `=` and `!=` also get a canonical sign (`primitive_atom`).
    Ground atoms have an empty coefficient vector.  The solver only builds
    atoms in this form, so the atom `to_atom` prints stores this atom as its
    normal form, and `norm_atom` reads it back without normalising.  As a
    tuple it sorts by (coeffs, op, const), the order of a cube's atoms.
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
        out = Atom(Term(coeffs), op, Term((), const))
        _set(out, "_norm", self)
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


def primitive_atom(acc: Mapping[VarId, int], op: str, const: Exact) -> NormAtom:
    """The normalized atom `sum(c * v) op const` on integer coefficients:
    divided by their gcd, with the sign fixed on `=` and `!=` (the first
    coefficient positive).  `norm_atom`, Fourier-Motzkin and
    `ddsa.grounded_transition` all normalize a row here."""
    coeffs = tuple(sorted((v, c) for v, c in acc.items() if c))
    if coeffs:
        g = gcd(*(c for _, c in coeffs))
        if op in ("=", "!=") and coeffs[0][1] < 0:
            g = -g
        if g != 1:
            coeffs = tuple((v, c // g) for v, c in coeffs)
            return NormAtom(coeffs, op, exact_div(const, g))
    return NormAtom(coeffs, op, exact(const))


def norm_atom(a: Atom) -> NormAtom:
    out = a._norm
    if out is None:
        out = _norm_atom(a)
        _set(a, "_norm", out)
    return out


def _norm_atom(a: Atom) -> NormAtom:
    t = a.lhs - a.rhs
    op = a.op
    if op in (">", ">="):
        t = -t
        op = "<" if op == ">" else "<="
    # scaled by the lcm of the denominators, the coefficients are integers
    l = lcm(*(c.denominator for _, c in t.coeffs))
    return primitive_atom({v: int(c * l) for v, c in t.coeffs}, op, -t.const * l)


# ---------------------------------------------------------------------------
# Core operations


def evaluate(phi: Formula, alpha: Mapping[VarId, Exact]) -> bool:
    """Standard boolean/arithmetic semantics.  An atom with a variable
    outside `alpha` raises MissingVariable."""
    if isinstance(phi, TrueF):
        return True
    if isinstance(phi, FalseF):
        return False
    if isinstance(phi, Atom):
        return norm_atom(phi).holds(alpha)
    if isinstance(phi, And):
        return all(evaluate(p, alpha) for p in phi.args)
    if isinstance(phi, Or):
        return any(evaluate(p, alpha) for p in phi.args)
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
    raise TypeError(f"not a formula: {phi!r}")


def atoms_of(phi: Formula) -> Iterator[Atom]:
    if isinstance(phi, Atom):
        yield phi
    elif isinstance(phi, (And, Or)):
        for p in phi.args:
            yield from atoms_of(p)


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
    raise TypeError(f"not a formula: {phi!r}")


def _wrap(phi: Formula, for_and: bool) -> str:
    s = fmt_formula(phi)
    if for_and and isinstance(phi, Or):
        return f"({s})"
    return s
