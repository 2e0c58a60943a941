"""CLI output and the Hardy UnsatCore pinned byte for byte.

The files under tests/golden/ are the outputs of a known-good tree.  A
change that must not alter what plfkit prints or certifies keeps them
identical.  To rewrite them after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/ like any other code change.
"""

import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from plfkit.cli import main
from plfkit.formula import render
from plfkit.kripke import Unsat, clause_formula, solve_depth1
from plfkit.plfcheck import plf_feasible
from plfkit.quantum import hardy_behavior
from plfkit.scenario import ScenarioConfig, behavior_from_json, behavior_to_json, encode

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"


def _run(argv, stdin=""):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def _points(points) -> list:
    return [dict(pt) for pt in points]


def hardy_core_json() -> str:
    """The Hardy UnsatCore with every clause rendered and every point listed."""
    result = solve_depth1(encode(hardy_behavior()))
    assert isinstance(result, Unsat)
    core = result.core
    doc = {
        "required": render(core.required.body),
        "never_candidates": _points(core.never_candidates),
        "removals": [{"antecedent": render(cond.antecedent),
                      "consequent": render(cond.consequent),
                      "points": _points(points)}
                     for cond, points in core.removals],
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def hardy_repr_text() -> str:
    """repr of the Hardy behavior, of each of its clauses (one a line), of the
    modal route's result with its UnsatCore and of the table route's verdict."""
    beh = hardy_behavior()
    problem = encode(beh)
    lines = [repr(beh)] + [repr(c) for c in problem.constraints]
    lines += [repr(solve_depth1(problem)), repr(plf_feasible(beh))]
    return "\n".join(lines) + "\n"


PROVE = {
    "prove.stdout": ["prove"],
    "prove_json.stdout": ["prove", "--json"],
    "prove_drop_E4.stdout": ["prove", "--drop", "E4"],
}

# golden name -> (argv, behavior file on stdin, exit code).  The inputs pin
# the order of the PNS violations, a trace with marginal steps from both
# wings under non-integer labels, and the report digest of stdin.
CHECK = {
    "pns_2x2_json.stdout": (["check", "--mode", "pns", "--json"], "pns_2x2.json", 1),
    "infeasible_3x2_check.stdout": (["check"], "infeasible_3x2.json", 1),
}


def feasible_witness() -> tuple:
    """(exit code, stdout, the `check --out` witness file) of a feasible 3x2 behavior."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "witness.json"
        code, stdout, _ = _run(["check", str(INPUTS / "feasible_3x2.json"), "--out", str(out)])
        return code, stdout, out.read_text()


HARDY_OUT = ("hardy_probs.json", "hardy_behavior.json")


def hardy_out_files() -> dict:
    """File name -> text of each file `hardy --out` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        code, _, _ = _run(["hardy", "--out", tmp])
        assert code == 0
        return {name: (Path(tmp) / name).read_text() for name in HARDY_OUT}


# golden name -> behavior file whose modal encoding it pins; None is Hardy
ENCODE = {
    "encode_hardy.txt": None,
    "encode_pns_2x2.txt": "pns_2x2.json",
    "encode_infeasible_3x2.txt": "infeasible_3x2.json",
    "encode_feasible_3x2.txt": "feasible_3x2.json",
}


def encode_text(src) -> str:
    """`atom_domains` in insertion order, then every clause's formula, in order."""
    beh = hardy_behavior() if src is None else behavior_from_json((INPUTS / src).read_text())
    problem = encode(beh)
    lines = [json.dumps(problem.atom_domains)]
    lines += [render(clause_formula(c)) for c in problem.constraints]
    return "\n".join(lines) + "\n"


def outputs() -> dict:
    """File name -> text of every golden file, as the current tree makes them."""
    _, hardy_out, hardy_err = _run(["hardy"])
    return {
        **{name: _run(argv)[1] for name, argv in PROVE.items()},
        "hardy.stdout": hardy_out,
        "hardy.stderr": hardy_err,
        "hardy_check.stdout": _run(["check"], stdin=hardy_out)[1],
        "hardy_unsat_core.json": hardy_core_json(),
        "hardy_repr.txt": hardy_repr_text(),
        **{name: _run(argv, stdin=(INPUTS / src).read_text())[1]
           for name, (argv, src, _) in CHECK.items()},
        "feasible_3x2_witness.json": feasible_witness()[2],
        **hardy_out_files(),
        **{name: encode_text(src) for name, src in ENCODE.items()},
    }


@pytest.mark.parametrize("name", sorted(PROVE))
def test_prove_stdout(name):
    code, out, err = _run(PROVE[name])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / name).read_text()


def test_hardy_stdout_and_stderr():
    code, out, err = _run(["hardy"])
    assert code == 0
    assert out == (GOLDEN / "hardy.stdout").read_text()
    assert err == (GOLDEN / "hardy.stderr").read_text()


def test_check_on_hardy_output():
    code, out, err = _run(["check"], stdin=(GOLDEN / "hardy.stdout").read_text())
    assert (code, err) == (1, "")
    assert out == (GOLDEN / "hardy_check.stdout").read_text()


@pytest.mark.parametrize("name", sorted(CHECK))
def test_check_stdout(name):
    argv, src, exit_code = CHECK[name]
    code, out, err = _run(argv, stdin=(INPUTS / src).read_text())
    assert (code, err) == (exit_code, "")
    assert out == (GOLDEN / name).read_text()


def test_check_out_witness():
    code, out, witness = feasible_witness()
    assert (code, out) == (0, "possibilistic local friendliness: feasible\n")
    assert witness == (GOLDEN / "feasible_3x2_witness.json").read_text()


def test_hardy_out_files():
    for name, text in hardy_out_files().items():
        assert text == (GOLDEN / name).read_text(), name


def test_hardy_unsat_core():
    assert hardy_core_json() == (GOLDEN / "hardy_unsat_core.json").read_text()


def test_hardy_repr():
    assert hardy_repr_text() == (GOLDEN / "hardy_repr.txt").read_text()


@pytest.mark.parametrize("name", sorted(ENCODE))
def test_encode(name):
    assert encode_text(ENCODE[name]) == (GOLDEN / name).read_text()


def test_behavior_json_key_order():
    fields = ["x_values", "y_values", "a_values", "b_values",
              "friend_a", "friend_b", "read_x", "read_y"]
    assert list(ScenarioConfig._fields) == fields
    assert list(behavior_to_json(hardy_behavior())) == fields + ["possible"]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, text in outputs().items():
        (GOLDEN / name).write_text(text)
        print(f"wrote {GOLDEN / name}")
