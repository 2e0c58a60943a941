import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from plfkit import cli, kripke, plfcheck, quantum, scenario
from plfkit.cli import EXIT_INTERNAL, main
from plfkit.scenario import behavior_from_json, behavior_to_json
from plfkit.quantum import hardy_behavior

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


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

    def test_unknown_world_exit_2_with_validity(self, model_file, capsys):
        """--validity reads every world, but WORLD must still name one of them."""
        assert main(["eval", model_file, "nosuch", "Q | ~Q", "--validity"]) == 2
        assert assert_one_line_error(capsys) == "error: unknown world: 'nosuch'"

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
        for json_flag in ([], ["--json"]):
            assert main(["check", hardy_file, *json_flag]) == EXIT_INTERNAL == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert "disagree" in line and "table: True" in line and "modal: False" in line

    @pytest.mark.parametrize("module, checker, word", [
        (plfcheck, "validate_extended_table", "witness table"),
        (kripke, "recheck_model", "model fails its recheck"),
    ], ids=["witness", "model"])
    def test_failed_certificate_is_an_internal_error(self, all_possible_file, tmp_path,
                                                     monkeypatch, capsys, module, checker, word):
        """A feasible verdict whose witness table or model fails its check
        exits 3 with one line, and writes neither stdout nor the --out file."""
        monkeypatch.setattr(module, checker, lambda *args: False)
        out = tmp_path / "witness.json"
        for json_flag in ([], ["--json"]):
            assert main(["check", all_possible_file, "--out", str(out), *json_flag]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            [line] = captured.err.splitlines()
            assert line.startswith("internal error: ") and word in line

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

    def test_out_is_byte_stable(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["hardy", "--out", str(out1)]) == 0
        assert main(["hardy", "--out", str(out2)]) == 0
        assert (out1 / "hardy_behavior.json").read_bytes() == \
               (out2 / "hardy_behavior.json").read_bytes()
        assert (out1 / "hardy_probs.json").read_bytes() == \
               (out2 / "hardy_probs.json").read_bytes()

    def test_no_epsilon(self, capsys):
        """The probabilities are exact, so there is no threshold to set:
        `--epsilon` is an unknown argument and the report has no such key."""
        with pytest.raises(SystemExit) as exc:
            main(["hardy", "--epsilon", "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --epsilon" in capsys.readouterr().err
        assert main(["hardy", "--json"]) == 0
        assert "epsilon" not in json.loads(capsys.readouterr().out)["verdicts"]

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

    def test_names_are_the_hardy_zeros_in_config_order(self, monkeypatch, capsys):
        table = quantum.born_table(quantum.HARDY_STATE, quantum.HARDY_BASES)
        assert sum(p == 0 for p in table.values()) == 3
        zeros = [cell for cell in quantum.HARDY_CONFIG.cells() if table[cell] == 0]
        names = [f"{name}=(A={a},B={b}|X={x},Y={y})"
                 for name, (a, b, x, y) in zip(("E2", "E3", "E4"), zeros, strict=True)]
        assert main(["prove"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "  impossible superobserver events: " + ", ".join(names) in out
        for name in names:
            assert any(line.startswith("Dropping the impossibility of " + name.replace("=", " ", 1))
                       for line in out)
        dropped, real = [], scenario.drop_impossibility
        monkeypatch.setattr(scenario, "drop_impossibility",
                            lambda problem, cell: dropped.append(cell) or real(problem, cell))
        assert main(["prove", "--drop", "E4"]) == 0
        assert dropped == [(1, 1, 1, 1)]

    def test_json_report(self, capsys):
        assert main(["prove", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdicts"]["modal_unsat"] is True
        assert report["verdicts"]["table_infeasible"] is True
        assert all(v["satisfiable"] and v["recheck"]
                   for v in report["verdicts"]["relaxations"].values())

    def test_route_disagreement_is_an_internal_error(self, monkeypatch, capsys):
        real = plfcheck.plf_feasible
        monkeypatch.setattr(plfcheck, "plf_feasible",
                            lambda beh: SimpleNamespace(feasible=not real(beh).feasible))
        for json_flag in ([], ["--json"]):
            assert main(["prove", *json_flag]) == EXIT_INTERNAL == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            [line] = captured.err.splitlines()
            assert "disagree" in line and "table: True" in line and "modal: False" in line

    def test_failed_recheck_is_an_internal_error(self, monkeypatch, capsys):
        monkeypatch.setattr(kripke, "recheck_model", lambda p, points: False)
        assert main(["prove", "--drop", "E4"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("internal error:") and "E4" in line and "recheck" in line

    def test_unsat_relaxation_is_a_negative_verdict(self, monkeypatch, capsys):
        # a relaxation that drops nothing stays UNSAT: the assumption is not shown load-bearing
        monkeypatch.setattr(scenario, "drop_impossibility", lambda problem, cell: problem)
        assert main(["prove", "--drop", "E4"]) == 1
        out = capsys.readouterr().out
        assert "Dropping the impossibility of E4 (A=1,B=1|X=1,Y=1): UNSAT" in out


@pytest.mark.parametrize("sub", ["check", "prove"])
def test_modal_route_disagreement_is_an_internal_error(sub, hardy_file, monkeypatch, capsys):
    """A modal route that finds a model for the Hardy behavior, which the
    table route refutes, exits 3 with both verdicts on one line."""
    monkeypatch.setattr(kripke, "solve_depth1", lambda problem: kripke.Model(frozenset()))
    argv = {"check": ["check", hardy_file], "prove": ["prove"]}[sub]
    for json_flag in ([], ["--json"]):
        assert main(argv + json_flag) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert "disagree" in line and "table: False" in line and "modal: True" in line


# subcommand -> (argv, the module attribute it calls that is made to fail)
FAULTS = {
    "parse": (["parse", "A"], (cli, "parse_formula")),
    "eval": (["eval", "{model}", "w0", "<>Q"], (kripke, "evaluate")),
    "check": (["check", "{hardy}"], (scenario, "encode")),
    "hardy": (["hardy"], (quantum, "born_table")),
    "prove": (["prove"], (scenario, "check_pns")),
}


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["plain", "json"])
@pytest.mark.parametrize("sub", list(FAULTS))
def test_fault_inside_a_subcommand_exits_3(sub, json_flag, model_file, hardy_file,
                                           monkeypatch, capsys):
    """An unexpected exception is an internal error: exit 3 and one line,
    never a traceback and exit 1, which would read as a negative verdict."""
    argv, (module, name) = FAULTS[sub]

    def fail(*args, **kwargs):
        raise KeyError("planted")

    monkeypatch.setattr(module, name, fail)
    assert main([a.format(model=model_file, hardy=hardy_file) for a in argv] + json_flag) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line == "internal error: KeyError: 'planted'"


def _relabel_a0(data, label):
    """The behavior JSON with Alice's outcome 0 renamed to `label`, cells too."""
    return {**data, "a_values": [label, 1],
            "possible": [[label if a == 0 else a, b, x, y] for a, b, x, y in data["possible"]]}


class TestBoundaryErrors:
    """Bad inputs exit 2 with a one-line message, never 1 or a traceback."""

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

    def test_repeated_key_in_behavior_file(self, all_possible_file, tmp_path, capsys):
        """A behavior file that lists `possible` twice is refused, not decided
        on its last list: the first list alone is feasible, the last is Hardy."""
        first = json.loads(Path(all_possible_file).read_text())["possible"]
        path = tmp_path / "twice.json"
        path.write_text(f'{{"possible": {json.dumps(first)}, '
                        + json.dumps(behavior_to_json(hardy_behavior()))[1:])
        assert main(["check", all_possible_file]) == 0
        capsys.readouterr()
        assert main(["check", str(path)]) == 2
        assert "repeats the key 'possible'" in assert_one_line_error(capsys)

    def test_repeated_key_in_model_file(self, tmp_path, capsys):
        """A model file whose valuation lists `A=1` twice is refused, not
        evaluated on the last entry."""
        path = tmp_path / "twice.json"
        path.write_text('{"worlds": ["w0", "w1"], "relation": [["w0", "w1"]], '
                        '"valuation": {"A=1": ["w1"], "A=1": []}}')
        assert main(["eval", str(path), "w0", "<>A=1"]) == 2
        assert "repeats the key 'A=1'" in assert_one_line_error(capsys)

    def test_byte_order_mark(self, hardy_file, tmp_path, capsys):
        """A file that starts with a UTF-8 byte order mark is refused as
        `json.loads` refuses it, naming the mark."""
        path = tmp_path / "bom.json"
        path.write_text("\ufeff" + Path(hardy_file).read_text())
        assert main(["check", str(path)]) == 2
        assert "Unexpected UTF-8 BOM" in assert_one_line_error(capsys)

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


# -- fuzzing the behavior file ------------------------------------------------

_HARDY_DOC = behavior_to_json(hardy_behavior())
_LABEL_FIELDS = ("x_values", "y_values", "a_values", "b_values")
_MARK = "\x00raw{}"  # a string value that the file's text replaces by `_Raw` text

_json_leaf = (st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from([2, "1", "A B"])
              | st.sampled_from([10 ** 20, -(10 ** 30)]) | st.floats() | st.text(max_size=3))
_json_value = st.recursive(
    _json_leaf,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=6)


class _Raw(str):
    """JSON text that the file holds as written: NaN, an int past the digit
    limit, deep nesting."""


_raw_text = st.sampled_from(["NaN", "-Infinity", "1" + "0" * 5000, "1e400",
                             "[" * 5000 + "]" * 5000, "[" * 100_000]).map(_Raw)
_edit = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(sorted(_HARDY_DOC))),
    st.tuples(st.just("set"), st.sampled_from(sorted(_HARDY_DOC) + ["extra"]), _json_value),
    st.tuples(st.just("raw"), st.sampled_from(sorted(_HARDY_DOC)), _raw_text),
    st.tuples(st.just("label"), st.sampled_from(_LABEL_FIELDS), st.integers(0, 1),
              _json_leaf | _raw_text),
    st.tuples(st.just("duplicate"), st.sampled_from(_LABEL_FIELDS)),
    st.tuples(st.just("cell"), st.integers(0, 99), st.integers(0, 4), _json_leaf | _raw_text),
    st.tuples(st.just("cell-copy"), st.integers(0, 99)),
    st.tuples(st.just("cell-drop"), st.integers(0, 99)),
)


def _behavior_text(edits, top) -> str:
    """The Hardy behavior file with the edits applied, or `top` as the whole file."""
    if top is not None:
        return json.dumps(top)
    doc = json.loads(json.dumps(_HARDY_DOC))
    raw = []

    def value(v):
        if isinstance(v, _Raw):
            raw.append(v)
            return _MARK.format(len(raw) - 1)
        return v

    for kind, *args in edits:
        cells = doc.get("possible")
        if kind == "drop":
            doc.pop(args[0], None)
        elif kind in ("set", "raw"):
            doc[args[0]] = value(args[1])
        elif kind in ("label", "duplicate"):
            labels = doc.get(args[0])
            if isinstance(labels, list) and labels and kind == "label":
                labels[args[1] % len(labels)] = value(args[2])
            elif isinstance(labels, list) and labels:
                labels.append(labels[0])
        elif isinstance(cells, list) and cells and isinstance(cells[args[0] % len(cells)], list):
            i = args[0] % len(cells)
            if kind == "cell" and args[1] < len(cells[i]):
                cells[i][args[1]] = value(args[2])
            elif kind == "cell":
                cells[i].append(value(args[2]))
            elif kind == "cell-copy":
                cells.append(list(cells[i]))
            elif kind == "cell-drop":
                del cells[i]
    text = json.dumps(doc)
    for i, r in enumerate(raw):
        text = text.replace(json.dumps(_MARK.format(i)), r)
    return text


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# `top` is None in three examples of four: most files are edits of the Hardy behavior
@given(edits=st.lists(_edit, min_size=1, max_size=3),
       top=st.one_of(st.none(), st.none(), st.none(), _json_value))
def test_check_fuzzed_behavior_file(tmp_path_factory, edits, top):
    path = tmp_path_factory.getbasetemp() / "fuzzed-behavior.json"
    path.write_text(_behavior_text(edits, top))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""
        assert out.getvalue().startswith("possibilistic local friendliness: ")


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_check_digest_of_a_pipe_is_the_bytes_read(hardy_file):
    """A pipe can be read once: the report's digest must hash what was decided."""
    data = Path(hardy_file).read_bytes()
    env = dict(os.environ, PYTHONPATH=str(SRC))
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


CHAIN_300 = " & ".join(f"P{i}" for i in range(300))


@pytest.mark.parametrize("argv", [["prove"], ["prove", "--json"], ["parse", CHAIN_300]],
                         ids=["prove", "prove --json", "parse 300"])
def test_closed_stdout_exits_2(argv):
    """A reader gone before the output is written: exit 2 and one `error:`
    line, with no traceback and nothing more at interpreter exit."""
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "plfkit.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=str(SRC)), stdin=subprocess.DEVNULL,
                              stdout=w, stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(w)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: stdout was closed before the output was written\n"


def test_closed_stdout_in_process(capsys):
    """Under an in-process run the stdout object is not the process's own: the
    exit code and message are the same, and no fd is redirected."""
    class Closed(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    fd_target = os.fstat(1)
    with contextlib.redirect_stdout(Closed()):
        code = main(["parse", "A & B"])
    assert code == 2
    assert capsys.readouterr().err == "error: stdout was closed before the output was written\n"
    after = os.fstat(1)
    assert (after.st_dev, after.st_ino) == (fd_target.st_dev, fd_target.st_ino)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="RLIMIT_AS binds only on Linux; elsewhere the child runs unbounded")
def test_input_too_large_for_memory_exits_2(tmp_path):
    """An all-possible 8x8 behavior with both friends, checked under a child
    address-space limit of about 400 MB: the run out of memory is exit 2 and
    one `error:` line, with no traceback and nothing on stdout."""
    resource = pytest.importorskip("resource")
    labels = list(range(8))
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "x_values": labels, "y_values": labels, "a_values": labels, "b_values": labels,
        "friend_a": True, "friend_b": True, "read_x": 0, "read_y": 0,
        "possible": [[a, b, x, y] for a in labels for b in labels for x in labels for y in labels],
    }))
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 400 * 10**6 if hard == resource.RLIM_INFINITY else min(400 * 10**6, hard)

    def cap():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    proc = subprocess.run([sys.executable, "-m", "plfkit.cli", "check", str(path)],
                          env=dict(os.environ, PYTHONPATH=str(SRC)), stdin=subprocess.DEVNULL,
                          capture_output=True, text=True, timeout=60, preexec_fn=cap)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == "error: the input is too large to decide in the available memory\n"


def test_witness_file_does_not_depend_on_the_hash_seed(tmp_path):
    """A slice is a frozenset, whose order over str labels follows the hash
    seed; the witness file of an all-possible 3x3 behavior, feasible by full
    support, is the same under two seeds."""
    xs, outs = ["x0", "x1", "x2"], ["o0", "o1", "o2"]
    path = tmp_path / "strs.json"
    path.write_text(json.dumps({
        "x_values": xs, "y_values": xs, "a_values": outs, "b_values": outs,
        "friend_a": True, "friend_b": True, "read_x": "x0", "read_y": "x1",
        "possible": [[a, b, x, y] for a in outs for b in outs for x in xs for y in xs],
    }))
    witnesses = []
    for seed in ("0", "1"):
        out = tmp_path / f"witness{seed}.json"
        code, _, err = _cli_proc(["check", str(path), "--out", str(out)],
                                 env={"PYTHONHASHSEED": seed})
        assert code == 0, err
        witnesses.append(out.read_bytes())
    assert witnesses[0] == witnesses[1]


def _cli_proc(argv, stdin=b"", env=None):
    """(exit code, stdout, stderr) of `python -m plfkit.cli argv` fed `stdin` bytes."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **(env or {}))
    proc = subprocess.run([sys.executable, "-m", "plfkit.cli", *argv], input=stdin,
                          env=env, capture_output=True, timeout=60)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def test_cli_import_leaves_heavy_modules_out():
    """Importing the CLI loads only the formula layer and none of: numpy, a
    test-only dependency; dataclasses, which pulls in inspect, ast and dis;
    hashlib, which loads OpenSSL and is imported only by the --json report."""
    heavy = ("dataclasses", "hashlib", "inspect", "numpy")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, plfkit.cli; "
         f"print([m for m in {heavy!r} if m in sys.modules], "
         "sorted(m for m in sys.modules if m.startswith('plfkit')))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == (
        "[] ['plfkit', 'plfkit._record', 'plfkit.cli', 'plfkit.formula']")


# subcommand -> (argv, exit code, the plfkit modules it loads besides
# plfkit, plfkit._record and plfkit.formula, the heavy stdlib modules it
# loads); the CLI itself runs as __main__, as under `python -m plfkit.cli`
QUANTUM = {"plfkit.quantum", "plfkit.scenario"}
TABLE_ROUTE = {"plfkit.kripke", "plfkit.scenario", "plfkit.plfcheck"}
IMPORT_GRAPH = {
    "parse": (["parse", "A"], 0, set(), set()),
    "eval": (["eval", "{model}", "w0", "<>Q"], 0, {"plfkit.kripke"}, set()),
    "eval --json": (["eval", "{model}", "w0", "<>Q", "--json"], 0, {"plfkit.kripke"},
                    {"hashlib"}),
    "check --mode pns": (["check", "{hardy}", "--mode", "pns"], 0, {"plfkit.scenario"}, set()),
    "check": (["check", "{hardy}"], 1, TABLE_ROUTE, set()),
    "check --json": (["check", "{hardy}", "--json"], 1, TABLE_ROUTE, {"hashlib"}),
    "hardy": (["hardy"], 0, QUANTUM, {"fractions", "decimal"}),
    "prove": (["prove"], 0, QUANTUM | TABLE_ROUTE, {"fractions", "decimal"}),
}


def _traced_subcommand(sub, model_file, hardy_file, watch, flags=()):
    """(exit code, the plfkit modules loaded, the modules of `watch` loaded,
    stderr) after `python *flags` runs the IMPORT_GRAPH case `sub` of the CLI."""
    argv = [a.format(model=model_file, hardy=hardy_file) for a in IMPORT_GRAPH[sub][0]]
    script = (
        "import json, runpy, sys\n"
        f"sys.argv = ['plfkit', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('plfkit.cli', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('plfkit')),\n"
        f"                  [m for m in {watch!r} if m in sys.modules]]),\n"
        "      file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, *flags, "-c", script], stdin=subprocess.DEVNULL,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)
    return (*json.loads(proc.stderr.splitlines()[-1]), proc.stderr)


@pytest.mark.parametrize("sub", list(IMPORT_GRAPH))
def test_subcommand_import_graph(sub, model_file, hardy_file):
    """Each subcommand loads exactly the plfkit modules it runs, and only a
    --json report loads hashlib."""
    _, code, modules, stdlib = IMPORT_GRAPH[sub]
    got_code, loaded, heavy, err = _traced_subcommand(
        sub, model_file, hardy_file, ("hashlib", "fractions", "decimal"))
    assert got_code == code, err
    assert set(loaded) == {"plfkit", "plfkit._record", "plfkit.formula"} | modules
    assert set(heavy) == stdlib


@pytest.mark.parametrize("sub", ["parse", "eval", "check", "check --mode pns", "hardy", "prove"])
def test_subcommand_loads_no_typing(sub, model_file, hardy_file):
    """Run with no site-packages (python -S), whose .pth files may preload
    them, no subcommand loads typing, dataclasses or pathlib: a record's
    fields are its annotations, kept as strings, the clause and result
    aliases are `A | B` unions, and the CLI reads and writes files with
    `open` and `os`."""
    got_code, _, loaded, err = _traced_subcommand(
        sub, model_file, hardy_file, ("typing", "dataclasses", "pathlib"), flags=["-S"])
    assert got_code == IMPORT_GRAPH[sub][1], err
    assert loaded == []


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_check_json_digest(source):
    """`check --json` prints the sha256 of the bytes it decided, from a file or
    a pipe; on a pipe the report is the pinned golden, digest included."""
    path = GOLDEN / "inputs" / "pns_2x2.json"
    arg = str(path) if source == "file" else "-"
    code, out, err = _cli_proc(["check", "--mode", "pns", "--json", arg],
                               stdin=path.read_bytes() if source == "stdin" else b"")
    assert code == 1, err
    assert json.loads(out)["inputs"] == {arg: _digest(path)}
    if source == "stdin":
        assert out == (GOLDEN / "pns_2x2_json.stdout").read_text()


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_eval_json_digest(model_file, source):
    arg = model_file if source == "file" else "-"
    code, out, err = _cli_proc(["eval", arg, "w0", "<>Q", "--json"],
                               stdin=Path(model_file).read_bytes() if source == "stdin" else b"")
    assert code == 0, err
    report = json.loads(out)
    assert report["verdicts"]["result"] is True
    assert report["inputs"] == {arg: _digest(model_file)}


@pytest.mark.parametrize("errors", ["strict", "surrogateescape"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["plain", "json"])
@pytest.mark.parametrize("sub", ["check", "eval"])
def test_stdin_not_utf8_is_an_input_error(sub, json_flag, errors):
    """A byte that is not UTF-8 inside a label or world name on stdin exits 2
    with one line, whether stdin decoding fails or escapes it to a surrogate
    that a later encode would trip over."""
    if sub == "check":
        data = _relabel_a0(behavior_to_json(hardy_behavior()), "LABEL")
        argv = ["check", "-"]
    else:
        data = {"worlds": ["LABEL", "w1"], "relation": [["LABEL", "w1"]], "valuation": {}}
        argv = ["eval", "-", "LABEL", "<>Q"]
    stdin = json.dumps(data).encode().replace(b"LABEL", b"a\xffb")
    code, out, err = _cli_proc(argv + json_flag, stdin=stdin,
                               env={"PYTHONIOENCODING": f"utf-8:{errors}"})
    assert (code, out) == (2, ""), err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "utf-8" in lines[0], err
