import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from plfkit import plfcheck
from plfkit.cli import EXIT_INTERNAL, main
from plfkit.scenario import behavior_from_json, behavior_to_json
from plfkit.quantum import hardy_behavior


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({
        "worlds": ["w0", "w1"],
        "relation": [["w0", "w1"]],
        "valuation": {"Q": ["w1"]},
    }))
    return str(path)


@pytest.fixture
def dead_end_model(tmp_path):
    path = tmp_path / "dead.json"
    path.write_text(json.dumps({"worlds": ["w"], "relation": [], "valuation": {}}))
    return str(path)


@pytest.fixture
def hardy_file(tmp_path):
    path = tmp_path / "hardy.json"
    path.write_text(json.dumps(behavior_to_json(hardy_behavior())))
    return str(path)


@pytest.fixture
def all_possible_file(tmp_path):
    beh = hardy_behavior()
    data = behavior_to_json(beh)
    data["possible"] = [[a, b, x, y] for a in (0, 1) for b in (0, 1)
                        for x in (1, 2) for y in (1, 2)]
    path = tmp_path / "allpossible.json"
    path.write_text(json.dumps(data))
    return str(path)


def assert_one_line_error(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return lines[0]


class TestParse:
    def test_echo(self, capsys):
        assert main(["parse", "<>(A=1 & B=1)"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "<>(A=1 & B=1)"

    def test_bad_formula(self, capsys):
        assert main(["parse", "A & & B"]) == 2


class TestEval:
    def test_true_formula(self, model_file, capsys):
        assert main(["eval", model_file, "w0", "<>Q"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_false_formula_exit_1(self, dead_end_model, capsys):
        assert main(["eval", dead_end_model, "w", "[]Q -> Q"]) == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_box_diamond_dead_end(self, dead_end_model):
        assert main(["eval", dead_end_model, "w", "[]Q -> <>Q"]) == 1

    def test_validity_flag(self, model_file):
        assert main(["eval", model_file, "w0", "Q | ~Q", "--validity"]) == 0
        assert main(["eval", model_file, "w0", "Q", "--validity"]) == 1

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["eval", str(tmp_path / "missing.json"), "w0", "Q"]) == 2

    def test_unknown_world_exit_2(self, model_file):
        assert main(["eval", model_file, "w9", "Q"]) == 2

    @pytest.mark.parametrize("data, message", [
        ({"worlds": [["w"]], "relation": [], "valuation": {}}, "world names"),
        ({"worlds": ["w"], "relation": [["w"]], "valuation": {}}, "pair"),
        ({"worlds": ["w"], "relation": [], "valuation": {"Q": "w"}}, "world names"),
        ({"worlds": ["w"], "relation": [], "valuation": {"Q": ["w"], "Q=true": []}},
         "atom Q more than once"),
    ], ids=["world-not-string", "short-pair", "valuation-value-string", "repeated-atom"])
    def test_malformed_model_exit_2(self, tmp_path, capsys, data, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        assert main(["eval", str(path), "w", "Q"]) == 2
        assert message in assert_one_line_error(capsys)


class TestCheck:
    def test_hardy_plf_infeasible(self, hardy_file, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["check", hardy_file, "--mode", "plf", "--out", str(out)]) == 1
        trace = json.loads(out.read_text())
        assert trace["target_cell"] == [1, 1, 2, 2]
        assert len(trace["branches"]) == 4
        assert "infeasible" in capsys.readouterr().out

    def test_all_possible_feasible(self, all_possible_file):
        assert main(["check", all_possible_file, "--mode", "plf"]) == 0

    def test_hardy_pns_holds(self, hardy_file, capsys):
        assert main(["check", hardy_file, "--mode", "pns"]) == 0
        assert "holds" in capsys.readouterr().out

    def test_modal_mode(self, hardy_file):
        assert main(["check", hardy_file, "--mode", "modal"]) == 1

    def test_malformed_behavior_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"nope\": 1}")
        assert main(["check", str(bad), "--mode", "plf"]) == 2

    def test_route_disagreement_is_an_internal_error(self, hardy_file, monkeypatch, capsys):
        real = plfcheck.plf_feasible
        monkeypatch.setattr(plfcheck, "plf_feasible",
                            lambda beh: SimpleNamespace(feasible=not real(beh).feasible))
        assert main(["check", hardy_file]) == EXIT_INTERNAL == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert "disagree" in line and "table: True" in line and "modal: False" in line

    def test_stdin_pipeline(self, monkeypatch, capsys):
        assert main(["hardy"]) == 0
        captured = capsys.readouterr()
        assert "P(1,1|2,2)=0.083333" in captured.err
        monkeypatch.setattr("sys.stdin", io.StringIO(captured.out))
        assert main(["check", "--mode", "plf"]) == 1


class TestHardy:
    def test_headline(self, capsys):
        assert main(["hardy"]) == 0
        err = capsys.readouterr().err
        assert "P(1,1|1,1)=0" in err
        assert "P(0,1|1,2)=0" in err
        assert "P(1,0|2,1)=0" in err
        assert "P(1,1|2,2)=0.083333" in err

    def test_stdout_is_behavior_json(self, capsys):
        assert main(["hardy"]) == 0
        beh = behavior_from_json(capsys.readouterr().out)
        assert beh == hardy_behavior()

    def test_epsilon_invariance_and_byte_stability(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["hardy", "--out", str(out1)]) == 0
        assert main(["hardy", "--epsilon", "1e-6", "--out", str(out2)]) == 0
        assert (out1 / "hardy_behavior.json").read_bytes() == \
               (out2 / "hardy_behavior.json").read_bytes()
        assert (out1 / "hardy_probs.json").read_bytes() == \
               (out2 / "hardy_probs.json").read_bytes()

    def test_epsilon_is_deprecated(self, capsys):
        assert main(["hardy"]) == 0
        plain = capsys.readouterr()
        assert main(["hardy", "--epsilon", "1e-6"]) == 0
        given = capsys.readouterr()
        assert given.out == plain.out
        note, *rest = given.err.splitlines()
        assert note.startswith("note: --epsilon is deprecated")
        assert rest == plain.err.splitlines()

    def test_json_report(self, capsys):
        assert main(["hardy", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["exit_code"] == 0
        assert [1, 1, 2, 2] in report["verdicts"]["behavior"]["possible"]


class TestProve:
    def test_full_run(self, capsys):
        assert main(["prove"]) == 0
        out = capsys.readouterr().out
        assert "UNSAT" in out
        for name in ("E2", "E3", "E4"):
            assert f"Dropping the impossibility of {name}" in out
        assert out.count("SAT") >= 3

    def test_drop_e4_witness_world(self, capsys):
        assert main(["prove", "--drop", "E4"]) == 0
        out = capsys.readouterr().out
        assert "(A=1, B=1, C=1, D=1, X=1, Y=1)" in out

    def test_json_report(self, capsys):
        assert main(["prove", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdicts"]["modal_unsat"] is True
        assert report["verdicts"]["table_infeasible"] is True
        assert all(v["satisfiable"] and v["recheck"]
                   for v in report["verdicts"]["relaxations"].values())


def _relabel_a0(data, label):
    """The behavior JSON with Alice's outcome 0 renamed to `label`, cells too."""
    return {**data, "a_values": [label, 1],
            "possible": [[label if a == 0 else a, b, x, y] for a, b, x, y in data["possible"]]}


class TestBoundaryErrors:
    """Bad inputs exit 2 with a one-line message, never 1 or a traceback."""

    def test_hardy_epsilon_out_of_range(self, capsys):
        assert main(["hardy", "--epsilon", "0.5"]) == 2
        assert_one_line_error(capsys)

    def test_check_out_into_missing_directory(self, hardy_file, tmp_path, capsys):
        out = tmp_path / "missing" / "trace.json"
        assert main(["check", hardy_file, "--out", str(out)]) == 2
        assert_one_line_error(capsys)

    def test_prove_out_into_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "prove.txt"
        assert main(["prove", "--out", str(out)]) == 2
        assert_one_line_error(capsys)

    def test_check_pns_out_has_nothing_to_write(self, hardy_file, tmp_path, capsys):
        out = tmp_path / "pns.json"
        assert main(["check", hardy_file, "--mode", "pns", "--out", str(out)]) == 2
        assert "--mode pns" in assert_one_line_error(capsys)
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["parse", "eval"])
    def test_out_not_accepted_where_nothing_is_written(self, sub, model_file, tmp_path, capsys):
        out = tmp_path / "out.txt"
        argv = {"parse": ["parse", "Q"], "eval": ["eval", model_file, "w0", "Q"]}[sub]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --out" in captured.err.splitlines()[-1]
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["parse", "check", "eval"])
    def test_deep_nesting(self, sub, model_file, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        argv = {"parse": ["parse", "~" * 3000 + "A"],
                "check": ["check", str(deep)],
                "eval": ["eval", model_file, "w0", "(" * 2000 + "A" + ")" * 2000]}[sub]
        assert main(argv) == 2
        assert assert_one_line_error(capsys) == "error: input nests too deeply"

    @pytest.mark.parametrize("edit", [
        lambda data: {**data, "possible": 5},
        lambda data: {**data, "a_values": [-1, 1],
                      "possible": [[-1 if a == 0 else a, b, x, y]
                                   for a, b, x, y in data["possible"]]},
        lambda data: {**data, "possible": data["possible"] + [[7, 7, 7, 7]]},
        lambda data: {**data, "possible": data["possible"] + [[1, 1, 1]]},
        lambda data: {**data, "a_values": [False, True]},
        lambda data: {**data, "a_values": [1, "1"],
                      "possible": [[1 if a == 0 else "1", b, x, y]
                                   for a, b, x, y in data["possible"]]},
        lambda data: {**data, "possible": [[False, True, 1, 1]] + data["possible"]},
        lambda data: {**data, "friend_a": "false"},
    ], ids=["possible-not-a-list", "outcome-not-an-atom-value", "cell-outside-domain",
            "cell-wrong-arity", "bool-outcomes", "outcomes-collide-as-text", "bool-in-cell",
            "friend-flag-not-bool"])
    def test_bad_behavior_file(self, tmp_path, capsys, edit):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(behavior_to_json(hardy_behavior()))))
        assert main(["check", str(path)]) == 2
        assert_one_line_error(capsys)

    @pytest.mark.parametrize("edit, fault", [
        (lambda data: 5, "behavior file must be a JSON object"),
        (lambda data: None, "behavior file must be a JSON object"),
        (lambda data: "abc", "behavior file must be a JSON object"),
        (lambda data: [data], "behavior file must be a JSON object"),
        (lambda data: {**data, "possible": data["possible"] + [[[0], 0, 1, 1]]},
         "possible cells outside the domain"),
        (lambda data: {**data, "possible": [[0, {"b": 0}, 1, 1]] + data["possible"]},
         "possible cells outside the domain"),
        (lambda data: _relabel_a0(data, float("nan")), "a_values: nan is not a label"),
        (lambda data: _relabel_a0(data, float("inf")), "a_values: inf is not a label"),
        (lambda data: _relabel_a0(data, None), "a_values: None is not a label"),
    ], ids=["int", "null", "string", "list", "list-in-cell", "object-in-cell",
            "nan-label", "infinity-label", "null-label"])
    def test_bad_behavior_file_names_the_fault(self, tmp_path, capsys, edit, fault):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(behavior_to_json(hardy_behavior()))))
        assert main(["check", str(path)]) == 2
        assert fault in assert_one_line_error(capsys)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_check_digest_of_a_pipe_is_the_bytes_read(hardy_file):
    """A pipe can be read once: the report's digest must hash what was decided."""
    data = Path(hardy_file).read_bytes()
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    r, w = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "plfkit.cli", "check", f"/dev/fd/{r}", "--json"],
            env=env, pass_fds=(r,), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(r)
    with os.fdopen(w, "wb") as pipe:
        pipe.write(data)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 1, err
    report = json.loads(out)
    assert report["verdicts"]["feasible"] is False
    assert report["inputs"] == {f"/dev/fd/{r}": hashlib.sha256(data).hexdigest()}


def test_cli_import_leaves_heavy_modules_out():
    """Importing the CLI loads none of: numpy, a test-only dependency;
    dataclasses, which pulls in inspect, ast and dis; hashlib, which loads
    OpenSSL and is imported only when an input is read."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    heavy = ("dataclasses", "hashlib", "inspect", "numpy")
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, plfkit.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
