import itertools
from fractions import Fraction as F

from damc import parsing
from damc.ddsa import Config, Run, validate_run
from damc.formula import INT, VarId, atom
from damc.ltlf import Constr, Eventually, StateAtom, land
from damc.oracle import brute_force_witness, default_grid, enumerate_runs
from damc.product import verify

from conftest import frac_grid, with_domain

x, y = VarId("x"), VarId("y")


def test_enumerate_runs_small(b1):
    runs = list(enumerate_runs(b1, 1, frac_grid(0, 1)))
    assert len(runs) == 2
    assert len(runs[0]) == 0
    assert runs[1].actions == ("a1",)
    assert runs[1].configs[1].assignment()[x] == F(1)


def test_enumerate_runs_zero_length(b1):
    runs = list(enumerate_runs(b1, 0, frac_grid(0, 5)))
    assert len(runs) == 1 and len(runs[0]) == 0


def test_enumerate_runs_unsat_guard_on_grid(b3):
    # first guard needs x - y >= 2 but the grid stops at 1
    runs = list(enumerate_runs(b3, 3, frac_grid(0, 1)))
    assert len(runs) == 1


def test_enumerated_runs_are_valid(b1, b2, b4):
    for d in (b1, b2, b4):
        for run in enumerate_runs(d, 2, frac_grid(0, 2)):
            assert validate_run(d, run)


def test_integer_runs_hold_only_integers(b1):
    # the grid of an integer model drops the constants that are not
    # integral, and a run through a non-integral value is not a run of it
    b1_int = with_domain(b1, INT)
    half = atom(x, "=", F(5, 2))
    assert F(5, 2) in default_grid(b1, [half])
    assert all(type(v) is int for v in default_grid(b1_int, [half]))
    configs = (Config.make("1", {x: 0, y: 0}), Config.make("2", {x: F(5, 2), y: 0}))
    assert validate_run(b1, Run(configs, ("a1",)))
    assert not validate_run(b1_int, Run(configs, ("a1",)))


def test_brute_force_witness_found(b1):
    run = brute_force_witness(b1, Eventually(Constr(atom(y, ">", 5))), 4, frac_grid(0, 9))
    assert run is not None
    assert any(c.assignment()[y] > 5 for c in run.configs)
    assert run.configs[-1].state in b1.finals


def test_brute_force_witness_unsat(b1):
    psi = Eventually(land(Constr(atom(y, ">", 5)), Constr(atom(y, "<", 0))))
    assert brute_force_witness(b1, psi, 4, frac_grid(0, 9)) is None


def test_brute_force_witness_takes_the_named_action(two_actions):
    # a run satisfies an action atom only by taking that action, as verify
    # reads it, so no run satisfies X (a & b)
    d = two_actions
    grid = default_grid(d, hi=3)
    for text, action in [("X a", "a"), ("X b", "b"), ("F b", "b"), ("<b> true", "b")]:
        run = brute_force_witness(d, parsing.parse_property(text, d), 2, grid)
        assert run is not None and run.actions == (action,), text
    psi = parsing.parse_property("X (a & b)", d)
    assert brute_force_witness(d, psi, 2, grid) is None
    assert verify(d, psi).kind == "no-witness"


def test_brute_force_empty_run_witness():
    from damc.ddsa import Ddsa
    from damc.formula import RAT, conj as fconj

    d = Ddsa(
        states=("s0",),
        initial="s0",
        actions=(),
        transitions=(),
        finals=frozenset({"s0"}),
        variables=(x,),
        alpha0={x: F(0)},
        guards={},
        domain=RAT,
    )
    run = brute_force_witness(d, StateAtom("s0"), 3, frac_grid(0, 2))
    assert run is not None and len(run) == 0


def test_grid_monotonicity(b1):
    psi = Eventually(Constr(atom(y, ">", 2)))
    small = brute_force_witness(b1, psi, 3, frac_grid(0, 4))
    assert small is not None
    bigger_grid = brute_force_witness(b1, psi, 3, frac_grid(0, 8))
    longer = brute_force_witness(b1, psi, 5, frac_grid(0, 4))
    assert bigger_grid is not None and longer is not None


def test_default_grid_contains_constants(auction):
    grid = default_grid(auction, [atom(VarId("o"), ">", VarId("t"))])
    assert F(0) in grid and F(8) in grid and F(10) in grid
    # rational domain: midpoints present
    assert F(1, 2) in grid


def _steps(run) -> str:
    return " ".join(
        f"{a}:" + ",".join(f"{v.name}={val}" for v, val in c.alpha)
        for a, c in zip(run.actions, run.configs[1:])
    )


# Depth-first order: actions as declared, then written values with the first
# written variable varying fastest.  b4's reset writes a and b; auction's
# init writes d and t, and bid writes o and b.
B4_RUNS = [
    "",
    "picka:a=1,b=0,s=0",
    "picka:a=1,b=0,s=0 picka:a=1,b=0,s=0",
    "picka:a=1,b=0,s=0 picka:a=1,b=0,s=0 picka:a=1,b=0,s=0",
    "picka:a=1,b=0,s=0 picka:a=1,b=0,s=0 picka:a=2,b=0,s=0",
    "picka:a=1,b=0,s=0 picka:a=1,b=0,s=0 seta:a=1,b=0,s=1",
    "picka:a=1,b=0,s=0 picka:a=2,b=0,s=0",
    "picka:a=1,b=0,s=0 picka:a=2,b=0,s=0 picka:a=1,b=0,s=0",
    "picka:a=1,b=0,s=0 picka:a=2,b=0,s=0 picka:a=2,b=0,s=0",
    "picka:a=1,b=0,s=0 picka:a=2,b=0,s=0 seta:a=2,b=0,s=2",
    "picka:a=1,b=0,s=0 seta:a=1,b=0,s=1",
    "picka:a=1,b=0,s=0 seta:a=1,b=0,s=1 pickb:a=1,b=1,s=1",
    "picka:a=1,b=0,s=0 seta:a=1,b=0,s=1 pickb:a=1,b=2,s=1",
    "picka:a=1,b=0,s=0 seta:a=1,b=0,s=1 addb:a=1,b=0,s=1",
    "picka:a=2,b=0,s=0",
    "picka:a=2,b=0,s=0 picka:a=1,b=0,s=0",
    "picka:a=2,b=0,s=0 picka:a=1,b=0,s=0 picka:a=1,b=0,s=0",
    "picka:a=2,b=0,s=0 picka:a=1,b=0,s=0 picka:a=2,b=0,s=0",
    "picka:a=2,b=0,s=0 picka:a=1,b=0,s=0 seta:a=1,b=0,s=1",
    "picka:a=2,b=0,s=0 picka:a=2,b=0,s=0",
    "picka:a=2,b=0,s=0 picka:a=2,b=0,s=0 picka:a=1,b=0,s=0",
    "picka:a=2,b=0,s=0 picka:a=2,b=0,s=0 picka:a=2,b=0,s=0",
    "picka:a=2,b=0,s=0 picka:a=2,b=0,s=0 seta:a=2,b=0,s=2",
    "picka:a=2,b=0,s=0 seta:a=2,b=0,s=2",
    "picka:a=2,b=0,s=0 seta:a=2,b=0,s=2 pickb:a=2,b=1,s=2",
    "picka:a=2,b=0,s=0 seta:a=2,b=0,s=2 pickb:a=2,b=2,s=2",
    "picka:a=2,b=0,s=0 seta:a=2,b=0,s=2 addb:a=2,b=0,s=2",
    "seta:a=0,b=0,s=0",
    "seta:a=0,b=0,s=0 pickb:a=0,b=1,s=0",
    "seta:a=0,b=0,s=0 pickb:a=0,b=1,s=0 pickb:a=0,b=1,s=0",
    "seta:a=0,b=0,s=0 pickb:a=0,b=1,s=0 pickb:a=0,b=2,s=0",
    "seta:a=0,b=0,s=0 pickb:a=0,b=1,s=0 addb:a=0,b=1,s=1",
    "seta:a=0,b=0,s=0 pickb:a=0,b=2,s=0",
    "seta:a=0,b=0,s=0 pickb:a=0,b=2,s=0 pickb:a=0,b=1,s=0",
    "seta:a=0,b=0,s=0 pickb:a=0,b=2,s=0 pickb:a=0,b=2,s=0",
    "seta:a=0,b=0,s=0 pickb:a=0,b=2,s=0 addb:a=0,b=2,s=2",
    "seta:a=0,b=0,s=0 addb:a=0,b=0,s=0",
    "seta:a=0,b=0,s=0 addb:a=0,b=0,s=0 reset:a=0,b=0,s=0",
]

AUCTION_RUNS = [
    "",
    "init:b=0,d=1,o=0,s=0,t=1",
    "init:b=0,d=1,o=0,s=0,t=1 check:b=0,d=1,o=0,s=0,t=1",
    "init:b=0,d=1,o=0,s=0,t=1 check:b=0,d=1,o=0,s=0,t=1 bid:b=1,d=1,o=1,s=0,t=1",
    "init:b=0,d=1,o=0,s=0,t=1 check:b=0,d=1,o=0,s=0,t=1 bid:b=1,d=1,o=2,s=0,t=1",
    "init:b=0,d=1,o=0,s=0,t=1 check:b=0,d=1,o=0,s=0,t=1 bid:b=2,d=1,o=1,s=0,t=1",
    "init:b=0,d=1,o=0,s=0,t=1 check:b=0,d=1,o=0,s=0,t=1 bid:b=2,d=1,o=2,s=0,t=1",
    "init:b=0,d=1,o=0,s=0,t=1 check:b=0,d=1,o=0,s=0,t=1 dec:b=0,d=0,o=0,s=0,t=1",
    "init:b=0,d=2,o=0,s=0,t=1",
    "init:b=0,d=2,o=0,s=0,t=1 check:b=0,d=2,o=0,s=0,t=1",
    "init:b=0,d=2,o=0,s=0,t=1 check:b=0,d=2,o=0,s=0,t=1 bid:b=1,d=2,o=1,s=0,t=1",
    "init:b=0,d=2,o=0,s=0,t=1 check:b=0,d=2,o=0,s=0,t=1 bid:b=1,d=2,o=2,s=0,t=1",
    "init:b=0,d=2,o=0,s=0,t=1 check:b=0,d=2,o=0,s=0,t=1 bid:b=2,d=2,o=1,s=0,t=1",
    "init:b=0,d=2,o=0,s=0,t=1 check:b=0,d=2,o=0,s=0,t=1 bid:b=2,d=2,o=2,s=0,t=1",
    "init:b=0,d=2,o=0,s=0,t=1 check:b=0,d=2,o=0,s=0,t=1 dec:b=0,d=0,o=0,s=0,t=1",
    "init:b=0,d=2,o=0,s=0,t=1 check:b=0,d=2,o=0,s=0,t=1 dec:b=0,d=1,o=0,s=0,t=1",
    "init:b=0,d=1,o=0,s=0,t=2",
    "init:b=0,d=1,o=0,s=0,t=2 check:b=0,d=1,o=0,s=0,t=2",
    "init:b=0,d=1,o=0,s=0,t=2 check:b=0,d=1,o=0,s=0,t=2 bid:b=1,d=1,o=1,s=0,t=2",
    "init:b=0,d=1,o=0,s=0,t=2 check:b=0,d=1,o=0,s=0,t=2 bid:b=1,d=1,o=2,s=0,t=2",
]


def test_enumerate_runs_order_b4(b4):
    runs = list(enumerate_runs(b4, 3, frac_grid(0, 2)))
    assert [_steps(r) for r in runs] == B4_RUNS


def test_enumerate_runs_order_auction(auction):
    runs = itertools.islice(enumerate_runs(auction, 3, frac_grid(0, 2)), len(AUCTION_RUNS))
    assert [_steps(r) for r in runs] == AUCTION_RUNS
