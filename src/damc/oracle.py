"""Brute-force ground truth: enumerate concrete runs over finite value
grids and decide witness existence directly from the step and trace
semantics.  A desk-scale referee for differential testing, not a
decision procedure."""
from __future__ import annotations

from typing import Iterator, Optional, Sequence

from . import ltlf as lt
from .ddsa import Config, Ddsa, Run, successors
from .formula import RAT, Exact, Formula, atoms_of, exact_div, norm_atom
from .ltlf import Ltlf


def default_grid(
    d: Ddsa,
    constraints: Sequence[Formula] = (),
    lo: int = 0,
    hi: int = 8,
) -> list[Exact]:
    """{lo..hi} plus every system/constraint constant, plus midpoints of
    consecutive values on rational domains so strict gaps are witnessable.
    On integer domains only the integral values stay."""
    vals = set(range(lo, hi + 1))
    if d.alpha0:
        vals |= set(d.alpha0.values())
    pool = [d.guard(a) for a in d.actions] + list(constraints)
    for f in pool:
        for a in atoms_of(f):
            na = norm_atom(a)
            vals |= {na.const, -na.const}
            if len(na.coeffs) == 1:
                vals.add(exact_div(na.const, na.coeffs[0][1]))
    if d.domain == RAT:
        srt = sorted(vals)
        for x, y in zip(srt, srt[1:]):
            vals.add(exact_div(x + y, 2))
    else:
        vals = {v for v in vals if v.denominator == 1}
    return sorted(vals)


def enumerate_runs(d: Ddsa, max_len: int, grid: Sequence[Exact]) -> Iterator[Run]:
    """All runs of length <= max_len whose written values come from the
    grid, depth-first in declaration order.  Every yielded run passes the
    step semantics by construction."""
    if d.alpha0 is None:
        raise ValueError("oracle needs a concrete initial assignment")
    configs = [Config.make(d.initial, d.alpha0)]
    actions: list[str] = []

    def go() -> Iterator[Run]:
        yield Run(tuple(configs), tuple(actions))
        if len(actions) >= max_len:
            return
        cur = configs[-1]
        for (a, _) in d.outgoing(cur.state):
            for post in successors(d, cur, a, grid):
                configs.append(post)
                actions.append(a)
                yield from go()
                actions.pop()
                configs.pop()

    yield from go()


def brute_force_witness(
    d: Ddsa,
    psi: Ltlf,
    max_len: int,
    grid: Optional[Sequence[Exact]] = None,
) -> Optional[Run]:
    """First enumerated run that ends in a final state and satisfies the
    (preprocessed) property, or None."""
    pre = lt.preprocess(psi)
    if grid is None:
        grid = default_grid(d, lt.constraints_of(pre))
    for run in enumerate_runs(d, max_len, grid):
        if run.configs[-1].state in d.finals and lt.run_models(d, run, 0, pre):
            return run
    return None
