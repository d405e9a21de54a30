"""Seeded query generators for the three benchmark workloads.

A workload is a list of models (by file name under ``models/``) and a
function from a seed to one pass of queries.  A query is the property text
plus the model it runs on; the program under test receives only that text.
The same seed always gives byte-identical query text.

Why each workload exists:

* ``auction``: the paper's five properties on the auction system.  The
  composed var/seq/GC/MC/lookback strategy makes the product and solver
  layers do most of the work; verdicts mix witness and no-witness.
* ``sweep``: the criterion-8e property templates on b1-b4 with seeded
  constants.  Many short queries over both domains; summary detection (the
  bounded-lookback probe on b4) dominates, and most queries go through
  witness extraction and revalidation.
* ``disjunction``: ``F (x>c1 & y<e1 | ...)`` on b1 at widths 1 to 3.  The
  NFA edge count drives the product size, so nearly all time is in
  building the product and almost none in detection.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Query:
    qid: str
    model: str  # file name under models/
    text: str
    expect: Optional[str] = None  # known verdict, when the workload fixes one


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple[str, ...]
    generate: Callable[[int, dict[str, str]], list[Query]]  # (seed, model texts)
    # Passes a 45-second run makes; a run of other length scales it.  The
    # count is fixed rather than timed, so that every commit compared gets
    # the same sample count.
    passes: int
    # Pass k belongs to group k mod groups.  A query's sample in a group is
    # the slowest of its runs there (passes / groups of them, spread over
    # the run), so a run gives groups samples per query.
    groups: int

    def passes_for(self, seconds: float) -> int:
        per_group = max(1, round(self.passes * seconds / 45 / self.groups))
        return per_group * self.groups


def rotated(queries: list, k: int, passes: int) -> list:
    """The order of pass k: the seed's order rotated, so that over a run
    every query runs at each point of a pass about equally often."""
    shift = (k * len(queries)) // passes
    return queries[shift:] + queries[:shift]


# ---------------------------------------------------------------------------
# auction: the seed sets only the order of the five properties

AUCTION_PROPERTIES = (
    ("psi11", "F (sold & d>0 & o<=t)", "no-witness"),
    ("psi12", "F (b=1 & o>t & F (sold & b!=1))", "witness"),
    ("psi13", "F (sold & b=0)", "no-witness"),
    ("psi14", "(s=0) U (d<=0 | o>t)", "witness"),
    ("psi15", "G (s=0) | ((d>0 & o<=t) U (s!=0))", "no-witness"),
)


def auction_queries(seed: int, model_texts: dict[str, str]) -> list[Query]:
    qs = [Query(name, "auction.ddsa", text, expect) for name, text, expect in AUCTION_PROPERTIES]
    random.Random(f"auction-{seed}").shuffle(qs)
    return qs


# ---------------------------------------------------------------------------
# sweep: criterion-8e templates on b1-b4, constants drawn from the seed


@dataclass(frozen=True)
class ModelShape:
    """The names the templates need, read from the model text."""

    variables: tuple[str, ...]
    first_action: str
    last_state: str


def model_shape(text: str) -> ModelShape:
    variables: tuple[str, ...] = ()
    states: tuple[str, ...] = ()
    actions: list[str] = []
    for line in text.splitlines():
        words = line.split("#", 1)[0].split()
        if not words:
            continue
        if words[0] == "vars":
            variables = tuple(words[1:])
        elif words[0] == "states":
            states = tuple(words[1:])
        elif words[0] == "trans":
            actions.append(words[2])
    if not (variables and states and actions):
        raise ValueError("model text lacks vars, states or trans lines")
    return ModelShape(variables, actions[0], states[-1])


def sweep_properties(shape: ModelShape, rng: random.Random) -> list[str]:
    """The criterion-8e templates (``properties_for`` in the acceptance
    tests) with each constant drawn from a range that keeps the template's
    meaning: ``F (v > c & v < e)`` stays contradictory, the others stay
    satisfiable on b1-b4.  ``G (v >= 0)`` and ``(v0 >= 0) U last`` keep 0,
    because any other constant turns them false at position 0 or leaves the
    gap-order fragment."""
    ri = rng.randint
    out = []
    for v in shape.variables:
        out.append(f"F ({v} > {ri(3, 7)})")
        c = ri(4, 7)
        out.append(f"F ({v} > {c} & {v} < {ri(1, c - 1)})")
        out.append(f"G ({v} >= 0)")
    v0, v1 = shape.variables[0], shape.variables[-1]
    out.append(f"({v0} = 0) U ({v0} > {ri(1, 4)})")
    out.append(f"F X ({v0} >= {ri(1, 4)})")
    out.append(f"<{shape.first_action}> true")
    out.append(f"F ({shape.last_state} & {v0} >= {ri(0, 3)})")
    out.append(f"({v0} >= 0) U {shape.last_state}")
    out.append(f"G ({v0} < {ri(4, 8)}) | F ({v1} > {ri(4, 8)})")
    out.append(f"X ({v0} > {ri(0, 3)})")
    return out


SWEEP_MODELS = ("b1.ddsa", "b2.ddsa", "b3.ddsa", "b4.ddsa")


def sweep_queries(seed: int, model_texts: dict[str, str]) -> list[Query]:
    rng = random.Random(f"sweep-{seed}")
    qs = []
    for m in SWEEP_MODELS:
        for k, text in enumerate(sweep_properties(model_shape(model_texts[m]), rng)):
            qs.append(Query(f"{m.split('.')[0]}:{k}", m, text))
    return qs


# ---------------------------------------------------------------------------
# disjunction: F (x>c1 & y<e1 | ...) on b1 at widths 1 to 3

# Each shape lists (rank of c_i, rank of e_i) per disjunct.  Rank 0 is the
# constant 0, the initial value of x and y; ranks 1.. are distinct values
# from 1..8 drawn by the seed in increasing order.  The product's size
# depends on how the constants are ordered, not on their values, so fixing
# the order and drawing the values keeps the cost of a pass steady across
# seeds while the query text changes.  The (0,0)-ladders are the ROADMAP's
# family (0.04 s, 0.5 s, 6 s at widths 1-3).  Sorted by cost, the shapes
# are three of width 1, seven copies of the width-2 ladder, then two of
# width 3.  With two samples per query the median and the tail sample fall
# in the middle of the width-2 block, away from its fastest samples, which
# depend most on the host's speed.  A width-3 ladder from rank 1 (about
# 15 s) and width 4 (42 s) are left out only because of run length.
DISJUNCTION_SHAPES = (
    ((0, 0),),
    ((1, 1),),
    ((1, 2),),
    ((0, 0), (1, 1)),
    ((0, 0), (1, 1)),
    ((0, 0), (1, 1)),
    ((0, 0), (1, 1)),
    ((0, 0), (1, 1)),
    ((0, 0), (1, 1)),
    ((0, 0), (1, 1)),
    ((1, 1), (2, 1), (3, 1)),
    ((0, 0), (1, 1), (2, 2)),
)


def disjunction_parts(shape: tuple[tuple[int, int], ...], rng: random.Random) -> frozenset[str]:
    top = max(r for pair in shape for r in pair)
    values = [0] + sorted(rng.sample(range(1, 9), top))
    return frozenset(f"x>{values[c]} & y<{values[e]}" for c, e in shape)


def disjunction_queries(seed: int, model_texts: dict[str, str]) -> list[Query]:
    """One query per shape, no two with the same set of disjuncts."""
    rng = random.Random(f"disjunction-{seed}")
    qs: list[Query] = []
    seen: set[frozenset[str]] = set()
    for k, shape in enumerate(DISJUNCTION_SHAPES):
        parts = disjunction_parts(shape, rng)
        while parts in seen:
            parts = disjunction_parts(shape, rng)
        seen.add(parts)
        order = sorted(parts)
        rng.shuffle(order)
        qs.append(Query(f"w{len(shape)}:{k}", "b1.ddsa", "F (" + " | ".join(order) + ")"))
    rng.shuffle(qs)
    return qs


# ---------------------------------------------------------------------------


def load_models(root, names) -> dict[str, str]:
    return {m: (root / "models" / m).read_text() for m in names}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("auction", ("auction.ddsa",), auction_queries, passes=10, groups=5),
        Workload("sweep", SWEEP_MODELS, sweep_queries, passes=2, groups=1),
        Workload("disjunction", ("b1.ddsa",), disjunction_queries, passes=4, groups=2),
    )
}
