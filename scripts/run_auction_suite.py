#!/usr/bin/env python3
"""Run the five auction properties and print verdicts with timings."""
import sys
from time import perf_counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from damc import certify, parsing
from damc.ltlf import constraints_of, preprocess
from damc.product import verify

MODELS = Path(__file__).resolve().parent.parent / "models"

PROPERTIES = [
    ("psi11", "F (sold & d>0 & o<=t)"),
    ("psi12", "F (b=1 & o>t & F (sold & b!=1))"),
    ("psi13", "F (sold & b=0)"),
    ("psi14", "(s=0) U (d<=0 | o>t)"),
    ("psi15", "G (s=0) | ((d>0 & o<=t) U (s!=0))"),
]


def main():
    auction = parsing.parse_model((MODELS / "auction.ddsa").read_text())
    label = certify(
        auction,
        constraints_of(preprocess(parsing.parse_property(PROPERTIES[1][1], auction))),
    )
    print("summary strategy:", label)
    print()
    marks = {"witness": "yes", "no-witness": "no", "inconclusive": "?"}
    for name, text in PROPERTIES:
        psi = parsing.parse_property(text, auction)
        t0 = perf_counter()
        v = verify(auction, psi)
        dt = perf_counter() - t0
        print(f"{name}  witness={marks[v.kind]:3s}  {dt:5.1f}s  {text}")
        if v.run is not None:
            steps = " ".join(v.run.actions)
            final = ", ".join(f"{vv.name}={val}" for vv, val in v.run.configs[-1].alpha)
            print(f"        run: {steps}")
            print(f"        final assignment: {final}")


if __name__ == "__main__":
    main()
