"""The package namespace: lazy re-exports of the submodules' public names."""

import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import plfkit

SRC = Path(__file__).resolve().parent.parent / "src"

# every name `plfkit` re-exports, by the submodule that defines it
EXPORTS = {
    "formula": ["And", "Atom", "Box", "Diamond", "Formula", "FormulaSyntaxError", "Iff",
                "Implies", "Not", "Or", "parse", "render"],
    "kripke": ["Conditional", "Depth1Problem", "Forbidden", "FragmentError", "KripkeModel",
               "Model", "MustAll", "Required", "Unsat", "UnknownWorldError", "evaluate",
               "recheck_model", "solve_depth1", "valid"],
    "plfcheck": ["ExtendedTable", "ProofTrace", "Verdict", "maximal_subtable", "plf_feasible",
                 "validate_extended_table"],
    "quantum": ["born_table", "hardy_behavior", "hardy_state", "measurement_effects"],
    "scenario": ["Behavior", "PnsReport", "ScenarioConfig", "check_pns", "encode"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


def test_all_lists_every_export():
    assert sorted(plfkit.__all__) == NAMES


@pytest.mark.parametrize("module, name", [(m, n) for m, names in EXPORTS.items()
                                          for n in names])
def test_export_is_the_submodule_object(module, name):
    assert getattr(plfkit, name) is getattr(import_module(f"plfkit.{module}"), name)


def test_submodules_are_attributes():
    assert plfkit.encode is plfkit.scenario.encode
    for module in EXPORTS:
        assert getattr(plfkit, module) is import_module(f"plfkit.{module}")


def test_dir_lists_exports_and_submodules():
    assert set(NAMES) | set(EXPORTS) <= set(dir(plfkit))


def test_star_import_binds_every_export():
    namespace = {}
    exec("from plfkit import *", namespace)
    assert {name: namespace[name] for name in NAMES} == {
        name: getattr(plfkit, name) for name in NAMES}


def test_unknown_attribute():
    with pytest.raises(AttributeError, match="^module 'plfkit' has no attribute 'nope'$"):
        plfkit.nope


def _loaded_after(code: str) -> list:
    """The plfkit modules a fresh interpreter has loaded after running `code`."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys; {code}; print(sorted(m for m in sys.modules if m.startswith('plfkit')))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return eval(proc.stdout)


@pytest.mark.parametrize("code, loaded", [
    ("import plfkit", ["plfkit"]),
    ("from plfkit import parse", ["plfkit", "plfkit._record", "plfkit.formula"]),
    ("import plfkit; plfkit.evaluate",
     ["plfkit", "plfkit._record", "plfkit.formula", "plfkit.kripke"]),
    ("import plfkit; plfkit.scenario.encode",
     ["plfkit", "plfkit._record", "plfkit.formula", "plfkit.scenario"]),
])
def test_a_submodule_loads_on_first_use(code, loaded):
    assert _loaded_after(code) == loaded
