"""Command-line front end.

Subcommands:
    parse   echo a formula and dump its AST
    eval    evaluate a formula at a world of a Kripke model file
    check   run a behavior file through pns / plf / modal analysis
    hardy   build the Hardy-type quantum behavior and probability table
    prove   end-to-end no-go reproduction with assumption-necessity runs

Exit codes: 0 success / feasible / sat / true; 1 infeasible / unsat /
violation / false; 2 usage or input error, an input too large to decide in
the available memory, or a closed stdout; 3 internal error (the routes
disagree, a witness table or model fails its check, or any other fault
inside a subcommand).  An error is one line on stderr.

A subcommand prints nothing but returns a `RunReport`; `main` writes its
--out files, then its text or, under --json, the report itself.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# Only the formula layer is imported here: each subcommand imports the modules
# it runs, so `parse` loads no model checker and only `hardy` and `prove`
# load the quantum layer with `fractions` and `decimal`.
from .formula import FormulaSyntaxError, parse as parse_formula, render

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# The conventional names of the Hardy behavior's impossible cells, in config order.
IMPOSSIBLE_EVENTS = ("E2", "E3", "E4")


class RunReport:
    def __init__(self, command: str):
        self.command = command
        self.inputs: dict = {}  # path -> the bytes that were decided
        self.verdicts: dict = {}
        self.exit_code = EXIT_OK
        self.files: dict = {}  # path -> text, for --out
        self.stdout = self.stderr = ""

    def to_json(self) -> str:
        # imported on use: hashlib loads OpenSSL, about 3.6 MB resident, and
        # only this report prints the digests
        import hashlib
        inputs = {path: hashlib.sha256(data).hexdigest() for path, data in self.inputs.items()}
        return _dumps({"command": self.command, "inputs": inputs,
                       "verdicts": self.verdicts, "exit_code": self.exit_code}, sort_keys=True)


def _dumps(obj, sort_keys: bool = False) -> str:
    """`json.dumps(obj, indent=2, sort_keys=sort_keys)` for str-keyed data,
    built without recursion: a formula's AST nests two containers a level,
    and json's indenting encoder spends a frame on each."""
    out, todo = [], [(obj, "")]
    while todo:
        item = todo.pop()
        if isinstance(item, str):  # literal text
            out.append(item)
            continue
        value, pad = item
        if isinstance(value, dict) and value:
            keys = sorted(value) if sort_keys else list(value)
            entries = [(value[k], json.dumps(k) + ": ") for k in keys]
            opener, closer = "{", "}"
        elif isinstance(value, (list, tuple)) and value:
            entries = [(v, "") for v in value]
            opener, closer = "[", "]"
        else:
            out.append(json.dumps(value))
            continue
        inner = pad + "  "
        out.append(opener)
        todo.append("\n" + pad + closer)
        for i in reversed(range(len(entries))):
            v, key = entries[i]
            todo.append((v, inner))
            todo.append(("," if i else "") + "\n" + inner + key)
    return "".join(out)


def _read_input(path: str) -> tuple[str, bytes]:
    """Returns (text, bytes) of one read, so a pipe is hashed as it was
    read; path '-' means stdin.  Encoding stdin here keeps its errors
    inside the caller's input-error handling."""
    if path == "-":
        text = sys.stdin.read()
        return text, text.encode()
    with open(path, "rb") as fh:
        data = fh.read()
    return data.decode(), data


class _InputError(Exception):
    pass


class _InternalError(Exception):
    """The table route and the modal route, or a model and its recheck, disagree."""


def _decide(beh):
    """(verdict, problem, result): the table route's verdict on `beh`, its
    modal encoding and the modal route's result, certified.  The two routes
    must agree, and a feasible verdict's witness table and model must pass
    their checks; anything else is an `_InternalError`."""
    from . import kripke, plfcheck, scenario
    verdict = plfcheck.plf_feasible(beh)
    problem = scenario.encode(beh)
    result = kripke.solve_depth1(problem)
    satisfiable = isinstance(result, kripke.Model)
    if verdict.feasible != satisfiable:
        raise _InternalError("table route and modal route disagree "
                             f"(table: {verdict.feasible}, modal: {satisfiable})")
    if verdict.feasible and not plfcheck.validate_extended_table(verdict.witness, beh):
        raise _InternalError("the table route's witness table fails its check")
    if verdict.feasible and not kripke.recheck_model(problem, result.points):
        raise _InternalError("the modal route's model fails its recheck")
    return verdict, problem, result


def _ast_dump(f) -> dict:
    from .formula import Atom, Box, Diamond, Not
    if isinstance(f, Atom):
        return {"atom": {"variable": f.variable, "value": f.value}}
    name = type(f).__name__.lower()
    if isinstance(f, (Not, Diamond, Box)):
        return {name: [_ast_dump(f.child)]}
    return {name: [_ast_dump(f.left), _ast_dump(f.right)]}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_parse(args) -> RunReport:
    report = RunReport(command="parse")
    try:
        f = parse_formula(args.formula)
    except FormulaSyntaxError as exc:
        raise _InputError(f"syntax error: {exc}") from exc
    report.verdicts = {"rendered": render(f), "ast": _ast_dump(f)}
    report.stdout = f"{report.verdicts['rendered']}\n{_dumps(report.verdicts['ast'])}\n"
    return report


def cmd_eval(args) -> RunReport:
    from . import kripke
    report = RunReport(command="eval")
    try:
        text, report.inputs[args.model] = _read_input(args.model)
        model = kripke.model_from_json(text)
        f = parse_formula(args.formula)
    except (OSError, ValueError, FormulaSyntaxError) as exc:
        raise _InputError(str(exc)) from exc
    # checked in both modes, though --validity reads every world
    if args.world not in model.worlds:
        raise _InputError(f"unknown world: {args.world!r}")
    result = kripke.valid(model, f) if args.validity else kripke.evaluate(model, args.world, f)
    report.verdicts = {"result": result, "validity": args.validity}
    report.exit_code = EXIT_OK if result else EXIT_NEGATIVE
    report.stdout = "true\n" if result else "false\n"
    return report


def cmd_check(args) -> RunReport:
    from . import scenario
    report = RunReport(command="check")
    if args.mode == "pns" and args.out:
        raise _InputError("--out has nothing to write in --mode pns")
    try:
        text, report.inputs[args.behavior] = _read_input(args.behavior)
        beh = scenario.behavior_from_json(text)
    except (OSError, ValueError, TypeError) as exc:
        raise _InputError(f"bad behavior file: {exc}") from exc

    if args.mode == "pns":
        pns = scenario.check_pns(beh)
        report.verdicts = {"pns_holds": pns.holds,
                           "violations": [list(map(str, v)) for v in pns.violations]}
        report.exit_code = EXIT_OK if pns.holds else EXIT_NEGATIVE
        report.stdout = "possibilistic no-signalling: " + (
            "holds\n" if pns.holds else f"violated ({len(pns.violations)} witnesses)\n")
        return report

    from . import kripke, plfcheck
    verdict, _, result = _decide(beh)
    report.verdicts = {"feasible": verdict.feasible,
                       "modal_satisfiable": isinstance(result, kripke.Model)}
    report.exit_code = EXIT_OK if verdict.feasible else EXIT_NEGATIVE
    report.stdout = "possibilistic local friendliness: " + (
        "feasible\n" if verdict.feasible
        else "infeasible\n" + plfcheck.trace_to_text(verdict.trace, beh.config) + "\n")
    if args.out:
        # the six-slot rows, sorted: a slice's iteration order depends on the hash seed
        payload = {"witness": sorted(
            ([a, b, c, d, x, y] for (c, d), sl in verdict.witness.slices.items()
             for a, b, x, y in sl), key=lambda row: [str(p) for p in row])
        } if verdict.feasible else verdict.trace.to_dict()
        report.files[args.out] = _dumps(payload, sort_keys=True) + "\n"
    return report


def cmd_hardy(args) -> RunReport:
    from . import quantum, scenario
    report = RunReport(command="hardy")
    table = quantum.born_table(quantum.HARDY_STATE, quantum.HARDY_BASES)
    beh = quantum.hardy_behavior(table=table)

    def fmt(p) -> str:
        return "0" if p == 0 else f"{float(p):.6f}"

    headline = (f"P(1,1|1,1)={fmt(table[(1, 1, 1, 1)])}  "
                f"P(0,1|1,2)={fmt(table[(0, 1, 1, 2)])}  "
                f"P(1,0|2,1)={fmt(table[(1, 0, 2, 1)])}  "
                f"P(1,1|2,2)={fmt(table[(1, 1, 2, 2)])}")
    behavior = scenario.behavior_to_json(beh)
    probabilities = {f"a={a} b={b} x={x} y={y}": float(p)
                     for (a, b, x, y), p in sorted(table.items())}
    # the headline goes to stderr so stdout stays a valid behavior file and
    # `plfkit hardy | plfkit check --mode plf` works
    report.stderr = headline + "\n"
    report.stdout = _dumps(behavior, sort_keys=True) + "\n"
    report.verdicts = {
        "headline": headline,
        "behavior": behavior,
        "probabilities": probabilities,
    }
    if args.out:
        outdir = args.out
        try:
            os.makedirs(outdir, exist_ok=True)
        except OSError as exc:
            raise _InputError(f"cannot create {outdir}: {exc.strerror or exc}") from exc
        report.files = {
            os.path.join(outdir, "hardy_probs.json"): _dumps(probabilities, sort_keys=True) + "\n",
            os.path.join(outdir, "hardy_behavior.json"): report.stdout}
    return report


def cmd_prove(args) -> RunReport:
    from . import kripke, plfcheck, quantum, scenario
    report = RunReport(command="prove")
    lines: list[str] = []
    ok = True
    beh = quantum.hardy_behavior()
    zeros = [cell for cell, possible in beh.possible.items() if not possible]
    impossible = dict(zip(IMPOSSIBLE_EVENTS, zeros, strict=True))
    cells = {name: "(A={},B={}|X={},Y={})".format(*c) for name, c in impossible.items()}
    pns = scenario.check_pns(beh)
    lines.append("Hardy-type behavior from the quantum model:")
    lines.append("  impossible superobserver events: "
                 + ", ".join(f"{name}={cells[name]}" for name in sorted(cells)))
    lines.append(f"  possibilistic no-signalling holds: {pns.holds}")
    ok &= pns.holds

    verdict, problem, sat = _decide(beh)
    modal_unsat = isinstance(sat, kripke.Unsat)
    lines.append(f"  modal route (depth-1 satisfiability): {'UNSAT' if modal_unsat else 'SAT'}")
    lines.append(f"  table route (extended-table feasibility): "
                 f"{'infeasible' if not verdict.feasible else 'feasible'}")
    ok &= modal_unsat

    if modal_unsat:
        a, b, x, y = verdict.trace.target_cell
        lines.append("")
        lines.append("Why no accessible-world network exists:")
        lines.append(f"  w1: some world realizes (A={a},B={b},X={x},Y={y}) with definite "
                     "friend records (C,D) = (c,d);")
        lines.append("  w2, w3, w4: changing X, Y, or both to the reading setting must "
                     "leave (c,d) possible, forcing worlds that copy the records;")
        lines.append("  every record assignment then hits an impossible event:")
        lines.append("")
        lines.append(plfcheck.trace_to_text(verdict.trace, beh.config))

    drops = [args.drop] if args.drop else IMPOSSIBLE_EVENTS
    relaxations = {}
    for name in drops:
        relaxed = scenario.drop_impossibility(problem, impossible[name])
        result = kripke.solve_depth1(relaxed)
        is_sat = isinstance(result, kripke.Model)
        if is_sat and not kripke.recheck_model(relaxed, result.points):
            raise _InternalError(f"the model without the impossibility of {name} fails its recheck")
        relaxations[name] = {"satisfiable": is_sat, "recheck": is_sat}
        lines.append("")
        lines.append(f"Dropping the impossibility of {name} {cells[name]}: "
                     f"{'SAT' if is_sat else 'UNSAT'}"
                     + (", witness re-verified by the evaluator" if is_sat else ""))
        if is_sat:
            worlds = [dict(pt) for pt in sorted(result.points)]
            lines.append(f"  witness world-set ({len(worlds)} worlds):")
            for w in worlds:
                lines.append("    (" + ", ".join(f"{k}={w[k]}" for k in sorted(w)) + ")")
        ok &= is_sat

    report.verdicts = {
        "pns_holds": pns.holds,
        "modal_unsat": modal_unsat,
        "table_infeasible": not verdict.feasible,
        "relaxations": relaxations,
    }
    report.exit_code = EXIT_OK if ok else EXIT_NEGATIVE
    report.stdout = "\n".join(lines) + "\n"
    if args.out:
        report.files[args.out] = report.stdout
    return report


# ---------------------------------------------------------------------------
# Argument parsing and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plfkit",
        description="Possibilistic local-friendliness analysis for extended "
                    "Wigner's-friend scenarios.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, out_help=None):
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable run report on stdout")
        if out_help:
            p.add_argument("--out", metavar="PATH", default=None, help=out_help)

    p = sub.add_parser("parse", help="parse a formula and dump its AST")
    p.add_argument("formula")
    common(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula on a Kripke model file")
    p.add_argument("model", help="model JSON file, or - for stdin")
    p.add_argument("world")
    p.add_argument("formula")
    p.add_argument("--validity", action="store_true",
                   help="check truth at every world instead of one")
    common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check", help="analyze a behavior file")
    p.add_argument("behavior", nargs="?", default="-",
                   help="behavior JSON file, or - for stdin (default)")
    p.add_argument("--mode", choices=("pns", "plf", "modal"), default="plf")
    common(p, "write the witness table or the proof trace to PATH (plf and modal modes)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("hardy", help="build the Hardy-type quantum behavior")
    common(p, "write hardy_probs.json and hardy_behavior.json into directory PATH")
    p.set_defaults(func=cmd_hardy)

    p = sub.add_parser("prove", help="end-to-end no-go reproduction")
    p.add_argument("--drop", choices=IMPOSSIBLE_EVENTS, default=None,
                   help="run only the named single-assumption relaxation")
    common(p, "write the proof text to PATH")
    p.set_defaults(func=cmd_prove)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
        for path, text in report.files.items():
            try:
                with open(path, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise _InputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        if args.json:
            print(report.to_json())
        else:
            sys.stderr.write(report.stderr)
            sys.stdout.write(report.stdout)
        sys.stdout.flush()  # a reader that has gone shows here, not at exit
    except BrokenPipeError:
        if sys.stdout is sys.__stdout__:  # a real process: its exit flush goes to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_USAGE
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except RecursionError:
        # the library's own formulas nest a few levels, so only input overflows
        print("error: input nests too deeply", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: the input is too large to decide in the available memory", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # any other fault: exit 3, never a code that reads as a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
