"""Possibilistic local-friendliness analysis for extended Wigner's-friend
scenarios: modal-logic model checking, possibility-table feasibility, and
the Hardy-type quantum counterexample."""

from .formula import (
    And,
    Atom,
    Box,
    Diamond,
    Formula,
    FormulaSyntaxError,
    Iff,
    Implies,
    Not,
    Or,
    parse,
    render,
)
from .kripke import (
    Conditional,
    Depth1Problem,
    Forbidden,
    FragmentError,
    KripkeModel,
    Model,
    MustAll,
    Required,
    Unsat,
    UnknownWorldError,
    evaluate,
    recheck_model,
    solve_depth1,
    valid,
)
from .plfcheck import (
    ExtendedTable,
    ProofTrace,
    Verdict,
    maximal_subtable,
    plf_feasible,
    validate_extended_table,
)
from .quantum import born_table, hardy_behavior, hardy_state, measurement_effects
from .scenario import Behavior, PnsReport, ScenarioConfig, check_pns, encode

__version__ = "0.1.0"
