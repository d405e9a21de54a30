"""Witness checking for data-aware dynamic systems with linear arithmetic
over finite traces."""

import types

from .formula import (
    INT,
    RAT,
    Atom,
    Domain,
    Formula,
    Term,
    VarId,
    atom,
    conj,
    disj,
    evaluate,
    free_vars,
)
from .ddsa import Config, Ddsa, Run, history_constraint, transition_formula, update
from .solve import (
    SatResult,
    cutoff,
    equivalent,
    gc_equivalent,
    is_sat,
    qe_gc,
    qe_rational,
    to_dnf,
)
from .ltlf import build_nfa, preprocess, run_models, word_consistent
from .summary import NoSummaryFound, check_gc, detect
from .certificates import certify, check_bounded_lookback, check_feedback_free, check_mc
from .product import Verdict, constraint_graph, realize_run, verify
from .oracle import brute_force_witness, default_grid, enumerate_runs
from .parsing import parse_model, parse_property, print_model

__all__ = [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
]
__version__ = "0.1.0"
