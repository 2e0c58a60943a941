"""CLI output and the Hardy UnsatCore pinned byte for byte.

The files under tests/golden/ are the outputs of a known-good tree.  A
change that must not alter what plfkit prints or certifies keeps them
identical.  To rewrite them after an intended output change, run

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/ like any other code change.
"""

import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from plfkit.cli import build_parser, main
from plfkit.formula import render
from plfkit.kripke import Model, Unsat, clause_formula, recheck_model, solve_depth1
from plfkit.plfcheck import plf_feasible, validate_extended_table
from plfkit.quantum import hardy_behavior
from plfkit.scenario import (Behavior, ScenarioConfig, behavior_from_json, behavior_to_json,
                             check_pns, encode)
from oracles import naive_depth1_satisfiable

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = GOLDEN / "inputs"
SRC = GOLDEN.parent.parent / "src"


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


# a PNS behavior with no Hardy pattern whose refutation needs a 3-outcome party:
# x in {0, 1}, y in {0, 1, 2}, a in {0, 1, 2}, b in {0, 1}, friends reading setting 0
NONHARDY_CONFIG = dict(x_values=(0, 1), y_values=(0, 1, 2), a_values=(0, 1, 2), b_values=(0, 1),
                       read_x=0, read_y=0)
NONHARDY_IMPOSSIBLE = {(0, 1, 0, 2), (1, 0, 1, 0), (1, 0, 1, 2), (1, 1, 0, 1), (2, 1, 0, 0)}


def nonhardy_json() -> str:
    """The behavior file of the non-Hardy refutation, both friends present."""
    cfg = ScenarioConfig(friend_a=True, friend_b=True, **NONHARDY_CONFIG)
    beh = Behavior(cfg, {cell: cell not in NONHARDY_IMPOSSIBLE for cell in cfg.cells()})
    return json.dumps(behavior_to_json(beh), indent=2, sort_keys=True) + "\n"


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
        "nonhardy_2x3.json": nonhardy_json(),
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


# golden stdout -> (argv, the file on stdin); hardy's stderr is hardy.stderr
WRITER = {
    **{name: (argv, None) for name, argv in PROVE.items()},
    "hardy.stdout": (["hardy"], None),
    "hardy_check.stdout": (["check"], GOLDEN / "hardy.stdout"),
    **{name: (argv, INPUTS / src) for name, (argv, src, _) in CHECK.items()},
}


@pytest.mark.parametrize("name", sorted(WRITER))
def test_subcommand_writes_nothing(name, monkeypatch, capsys):
    """A subcommand prints nothing: its report holds the text that `main`
    prints, byte for byte, or under --json the report is that text."""
    argv, stdin = WRITER[name]
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin.read_text() if stdin else ""))
    args = build_parser().parse_args(argv)
    report = args.func(args)
    assert capsys.readouterr() == ("", "")
    assert (report.to_json() + "\n" if args.json else report.stdout) == (GOLDEN / name).read_text()
    assert report.stderr == ((GOLDEN / "hardy.stderr").read_text() if argv == ["hardy"] else "")


def test_subcommand_leaves_out_files_to_main(tmp_path, capsys):
    """`check --out` and `hardy --out` return their files in the report and
    write none of them; `hardy` only creates the directory."""
    out = tmp_path / "witness.json"
    args = build_parser().parse_args(["check", str(INPUTS / "feasible_3x2.json"), "--out", str(out)])
    assert args.func(args).files == {str(out): (GOLDEN / "feasible_3x2_witness.json").read_text()}
    args = build_parser().parse_args(["hardy", "--out", str(tmp_path / "hardy")])
    assert args.func(args).files == {str(tmp_path / "hardy" / name): (GOLDEN / name).read_text()
                                     for name in HARDY_OUT}
    assert capsys.readouterr() == ("", "")
    assert [p.name for p in tmp_path.iterdir()] == ["hardy"]
    assert list((tmp_path / "hardy").iterdir()) == []


# a two-world model, w0 seeing w1 where Q holds, for `eval` to read from a file
MODEL = {"worlds": ["w0", "w1"], "relation": [["w0", "w1"]], "valuation": {"Q": ["w1"]}}

# id -> (argv, stdin, exit code, stdout) of each subcommand run under python -S.
# stdin is a file, or the argv of a process piped in; "MODEL" in argv is a file
# holding MODEL; stdout is a golden file, the bytes themselves, or None where
# nothing pins it.
NO_SITE = {
    **{name: (argv, None, 0, GOLDEN / name) for name, argv in PROVE.items()},
    **{name: (argv, INPUTS / src, code, GOLDEN / name) for name, (argv, src, code) in CHECK.items()},
    "hardy_check.stdout": (["check"], ["hardy"], 1, GOLDEN / "hardy_check.stdout"),
    "parse": (["parse", "<>(A=1 & B=1)"], None, 0, None),
    "eval": (["eval", "MODEL", "w0", "<>Q"], None, 0, b"true\n"),
}


@pytest.mark.parametrize("name", sorted(NO_SITE))
def test_subcommand_without_site_packages(name, tmp_path):
    """With no site-packages (python -S), each subcommand runs on the
    standard library alone: it gives its exit code and, where a golden pins
    it, that stdout byte for byte.  A crash exits 3, so it cannot pass for a
    verdict."""
    argv, stdin, code, stdout = NO_SITE[name]
    cli, env = [sys.executable, "-S", "-m", "plfkit.cli"], dict(os.environ, PYTHONPATH=str(SRC))
    if "MODEL" in argv:
        model = tmp_path / "model.json"
        model.write_text(json.dumps(MODEL))
        argv = [str(model) if a == "MODEL" else a for a in argv]
    if isinstance(stdin, list):  # a pipe, as in `plfkit hardy | plfkit check`
        with subprocess.Popen(cli + stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as writer:
            proc = subprocess.run(cli + argv, stdin=writer.stdout, capture_output=True, env=env,
                                  timeout=60)
            assert (writer.wait(timeout=60), writer.stderr.read()) == \
                (0, (GOLDEN / "hardy.stderr").read_bytes())
    else:
        proc = subprocess.run(cli + argv, input=stdin.read_bytes() if stdin else b"",
                              capture_output=True, env=env, timeout=60)
    assert proc.returncode == code, proc.stderr
    if stdout is not None:
        assert proc.stdout == (stdout.read_bytes() if isinstance(stdout, Path) else stdout)


@pytest.mark.parametrize("name", sorted(ENCODE))
def test_encode(name):
    assert encode_text(ENCODE[name]) == (GOLDEN / name).read_text()


# (friend_a, friend_b) -> (feasible, clauses encode gives)
NONHARDY_VERDICTS = {
    (True, True): (False, 152),
    (True, False): (False, 100),
    (False, True): (True, 89),
    (False, False): (True, 66),
}


def test_nonhardy_file():
    assert nonhardy_json() == (GOLDEN / "nonhardy_2x3.json").read_text()


@pytest.mark.parametrize("friends", sorted(NONHARDY_VERDICTS, reverse=True))
def test_nonhardy_verdicts(friends):
    """Both routes and the naive modal oracle agree on each friend
    configuration, and a feasible verdict's two certificates pass."""
    pinned = behavior_from_json((GOLDEN / "nonhardy_2x3.json").read_text())
    cfg = ScenarioConfig(friend_a=friends[0], friend_b=friends[1], **NONHARDY_CONFIG)
    beh = Behavior(cfg, pinned.possible)
    assert check_pns(beh).holds
    feasible, clauses = NONHARDY_VERDICTS[friends]
    verdict, problem = plf_feasible(beh), encode(beh)
    result = solve_depth1(problem)
    assert len(problem.constraints) == clauses
    assert (verdict.feasible, isinstance(result, Model)) == (feasible, feasible)
    assert naive_depth1_satisfiable(problem) is feasible
    if feasible:
        assert validate_extended_table(verdict.witness, beh)
        assert recheck_model(problem, result.points)


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
