"""Possibilistic local-friendliness analysis for extended Wigner's-friend
scenarios: modal-logic model checking, possibility-table feasibility, and
the Hardy-type quantum counterexample."""

from importlib import import_module

# submodule -> the names the package re-exports from it.  A submodule is
# imported on the first access to one of its names (PEP 562), so a process
# loads only the modules it uses.
_EXPORTS = {
    "formula": ("And", "Atom", "Box", "Diamond", "Formula", "FormulaSyntaxError",
                "Iff", "Implies", "Not", "Or", "parse", "render"),
    "kripke": ("Conditional", "Depth1Problem", "Forbidden", "FragmentError",
               "KripkeModel", "Model", "MustAll", "Required", "Unsat",
               "UnknownWorldError", "evaluate", "recheck_model", "solve_depth1", "valid"),
    "plfcheck": ("ExtendedTable", "ProofTrace", "Verdict", "maximal_subtable",
                 "plf_feasible", "validate_extended_table"),
    "quantum": ("HARDY_BASES", "HARDY_STATE", "born_table", "hardy_behavior"),
    "scenario": ("Behavior", "PnsReport", "ScenarioConfig", "check_pns", "encode"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
