import random
from fractions import Fraction
from pathlib import Path

import pytest

from damc import parsing
from damc.ddsa import Ddsa
from damc.formula import INT, RAT, VarId

MODELS = Path(__file__).resolve().parent.parent / "models"


def load_model(name: str) -> Ddsa:
    return parsing.parse_model((MODELS / name).read_text())


def with_domain(d: Ddsa, dom) -> Ddsa:
    return Ddsa(
        states=d.states,
        initial=d.initial,
        actions=d.actions,
        transitions=d.transitions,
        finals=d.finals,
        variables=d.variables,
        alpha0=d.alpha0,
        guards=d.guards,
        domain=dom,
    )


@pytest.fixture(scope="session")
def b1():
    return load_model("b1.ddsa")


@pytest.fixture(scope="session")
def b1_int(b1):
    return with_domain(b1, INT)


@pytest.fixture(scope="session")
def b2():
    return load_model("b2.ddsa")


@pytest.fixture(scope="session")
def b3():
    return load_model("b3.ddsa")


@pytest.fixture(scope="session")
def b4():
    return load_model("b4.ddsa")


@pytest.fixture(scope="session")
def auction():
    return load_model("auction.ddsa")


@pytest.fixture()
def rng():
    return random.Random(20240817)


def frac_grid(lo: int, hi: int, halves: bool = False) -> list[Fraction]:
    vals = [Fraction(k) for k in range(lo, hi + 1)]
    if halves:
        vals += [Fraction(2 * k + 1, 2) for k in range(lo, hi)]
    return sorted(vals)


# The paper's NFA for F (b & X (x - y >= 2)), as (src, symbol, dst) with p
# the initial state and m the state after reading b.
PAPER_NESTED_NEXT_EDGES = (
    ("p", (), "p"),
    ("p", ("b",), "m"),
    ("m", (), "p"),
    ("m", ("b",), "m"),
    ("m", ("b", "x - y >= 2"), "true"),
    ("m", ("x - y >= 2",), "true"),
    ("m", ("b", "x - y >= 2"), "q_e"),
    ("m", ("x - y >= 2",), "q_e"),
    ("true", (), "true"),
)


def minimal_edges(edges, names: dict[str, str]) -> list[tuple[str, str, str]]:
    """The edges whose symbol strictly contains no other symbol between the
    same two states, with state names mapped by `names` and symbols
    formatted as `fmt_symbol` does, sorted."""
    return sorted(
        (names.get(src, src), "{" + ", ".join(sorted(sym)) + "}", names.get(dst, dst))
        for src, sym, dst in edges
        if not any(s == src and d == dst and set(o) < set(sym) for s, o, d in edges)
    )
