"""Command-line front end.

Subcommands:
    parse   echo a formula and dump its AST
    eval    evaluate a formula at a world of a Kripke model file
    check   run a behavior file through pns / plf / modal analysis
    hardy   build the Hardy-type quantum behavior and probability table
    prove   end-to-end no-go reproduction with assumption-necessity runs

Exit codes: 0 success / feasible / sat / true; 1 infeasible / unsat /
violation / false; 2 usage or input error; 3 internal error (the table
route and the modal route disagree).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import kripke, plfcheck, quantum, scenario
from .formula import FormulaSyntaxError, parse as parse_formula, render
from .kripke import Model, Unsat, recheck_model, solve_depth1
from .scenario import behavior_from_json, behavior_to_json, drop_impossibility

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

# The three impossibility clauses of the Hardy pattern, by conventional name.
IMPOSSIBLE_CELLS = {
    "E2": (0, 1, 1, 2),
    "E3": (1, 0, 2, 1),
    "E4": (1, 1, 1, 1),
}


class RunReport:
    def __init__(self, command: str):
        self.command = command
        self.inputs: dict = {}
        self.verdicts: dict = {}
        self.exit_code = EXIT_OK

    def to_json(self) -> str:
        return json.dumps(
            {"command": self.command, "inputs": self.inputs,
             "verdicts": self.verdicts, "exit_code": self.exit_code},
            indent=2, sort_keys=True)


def _read_input(path: str) -> tuple[str, str]:
    """Returns (text, digest) of one read, so a pipe is hashed as it was
    read; path '-' means stdin."""
    # imported on use: hashlib loads OpenSSL, about 3.6 MB resident, and
    # only reading an input needs it
    import hashlib
    if path == "-":
        text = sys.stdin.read()
        return text, hashlib.sha256(text.encode()).hexdigest()
    data = Path(path).read_bytes()
    return data.decode(), hashlib.sha256(data).hexdigest()


class _InputError(Exception):
    pass


def _write_output(path: Path, text: str) -> None:
    try:
        path.write_text(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


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
    if not args.json:
        print(render(f))
        print(json.dumps(_ast_dump(f), indent=2))
    return report


def cmd_eval(args) -> RunReport:
    report = RunReport(command="eval")
    try:
        text, digest = _read_input(args.model)
        report.inputs[args.model] = digest
        model = kripke.model_from_json(text)
        f = parse_formula(args.formula)
    except (OSError, ValueError, FormulaSyntaxError) as exc:
        raise _InputError(str(exc)) from exc
    try:
        if args.validity:
            result = kripke.valid(model, f)
        else:
            result = kripke.evaluate(model, args.world, f)
    except kripke.UnknownWorldError as exc:
        raise _InputError(f"unknown world: {exc}") from exc
    report.verdicts = {"result": result, "validity": args.validity}
    report.exit_code = EXIT_OK if result else EXIT_NEGATIVE
    if not args.json:
        print("true" if result else "false")
    return report


def cmd_check(args) -> RunReport:
    report = RunReport(command="check")
    if args.mode == "pns" and args.out:
        raise _InputError("--out has nothing to write in --mode pns")
    try:
        text, digest = _read_input(args.behavior)
        report.inputs[args.behavior] = digest
        beh = behavior_from_json(text)
    except (OSError, ValueError, TypeError) as exc:
        raise _InputError(f"bad behavior file: {exc}") from exc

    if args.mode == "pns":
        pns = scenario.check_pns(beh)
        report.verdicts = {"pns_holds": pns.holds,
                           "violations": [list(map(str, v)) for v in pns.violations]}
        report.exit_code = EXIT_OK if pns.holds else EXIT_NEGATIVE
        if not args.json:
            print("possibilistic no-signalling: "
                  + ("holds" if pns.holds else f"violated ({len(pns.violations)} witnesses)"))
        return report

    verdict = plfcheck.plf_feasible(beh)
    sat = solve_depth1(scenario.encode(beh))
    if verdict.feasible != isinstance(sat, Model):
        print("internal error: table route and modal route disagree "
              f"(table: {verdict.feasible}, modal: {isinstance(sat, Model)})",
              file=sys.stderr)
        report.exit_code = EXIT_INTERNAL
        return report

    report.verdicts = {"feasible": verdict.feasible,
                       "modal_satisfiable": isinstance(sat, Model)}
    report.exit_code = EXIT_OK if verdict.feasible else EXIT_NEGATIVE
    if args.out:
        if verdict.feasible:
            payload = {
                "witness": [list(k) for k, v in sorted(
                    verdict.witness.entries.items(),
                    key=lambda kv: tuple(str(p) for p in kv[0])) if v],
            }
        else:
            payload = verdict.trace.to_dict()
        _write_output(Path(args.out), json.dumps(payload, indent=2, sort_keys=True) + "\n")
    if not args.json:
        if verdict.feasible:
            print("possibilistic local friendliness: feasible")
        else:
            print("possibilistic local friendliness: infeasible")
            print(plfcheck.trace_to_text(verdict.trace, beh.config))
    return report


def cmd_hardy(args) -> RunReport:
    report = RunReport(command="hardy")
    if args.epsilon is not None:
        if not 0.0 < args.epsilon <= 1e-3:
            raise _InputError(f"epsilon must lie in (0, 1e-3], got {args.epsilon!r}")
        print("note: --epsilon is deprecated and has no effect: the probabilities are "
              "exact, so a cell is possible iff P != 0", file=sys.stderr)
    table = quantum.born_table(quantum.hardy_state())
    beh = quantum.hardy_behavior(table=table)

    def fmt(p) -> str:
        return "0" if p == 0 else f"{float(p):.6f}"

    headline = (f"P(1,1|1,1)={fmt(table.probs[(1, 1, 1, 1)])}  "
                f"P(0,1|1,2)={fmt(table.probs[(0, 1, 1, 2)])}  "
                f"P(1,0|2,1)={fmt(table.probs[(1, 0, 2, 1)])}  "
                f"P(1,1|2,2)={fmt(table.probs[(1, 1, 2, 2)])}")
    behavior = behavior_to_json(beh)
    probabilities = {f"a={a} b={b} x={x} y={y}": float(p)
                     for (a, b, x, y), p in sorted(table.probs.items())}
    behavior_json = json.dumps(behavior, indent=2, sort_keys=True) + "\n"
    report.verdicts = {
        "headline": headline,
        "epsilon": args.epsilon,
        "behavior": behavior,
        "probabilities": probabilities,
    }
    if args.out:
        outdir = Path(args.out)
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _InputError(f"cannot create {outdir}: {exc.strerror or exc}") from exc
        _write_output(outdir / "hardy_probs.json",
                      json.dumps(probabilities, indent=2, sort_keys=True) + "\n")
        _write_output(outdir / "hardy_behavior.json", behavior_json)
    if not args.json:
        # headline goes to stderr so stdout stays a valid behavior file and
        # `plfkit hardy | plfkit check --mode plf` works
        print(headline, file=sys.stderr)
        sys.stdout.write(behavior_json)
    return report


def cmd_prove(args) -> RunReport:
    report = RunReport(command="prove")
    lines: list[str] = []
    ok = True

    beh = quantum.hardy_behavior()
    pns = scenario.check_pns(beh)
    lines.append("Hardy-type behavior from the quantum model:")
    lines.append("  impossible superobserver events: "
                 + ", ".join(f"{name}=(A={a},B={b}|X={x},Y={y})"
                             for name, (a, b, x, y) in sorted(IMPOSSIBLE_CELLS.items())))
    lines.append(f"  possibilistic no-signalling holds: {pns.holds}")
    ok &= pns.holds

    problem = scenario.encode(beh)
    sat = solve_depth1(problem)
    modal_unsat = isinstance(sat, Unsat)
    lines.append(f"  modal route (depth-1 satisfiability): {'UNSAT' if modal_unsat else 'SAT'}")
    ok &= modal_unsat

    verdict = plfcheck.plf_feasible(beh)
    lines.append(f"  table route (extended-table feasibility): "
                 f"{'infeasible' if not verdict.feasible else 'feasible'}")
    ok &= not verdict.feasible

    if modal_unsat and not verdict.feasible:
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

    drops = [args.drop] if args.drop else sorted(IMPOSSIBLE_CELLS)
    relaxations = {}
    for name in drops:
        relaxed = drop_impossibility(problem, IMPOSSIBLE_CELLS[name])
        result = solve_depth1(relaxed)
        is_sat = isinstance(result, Model)
        rechecked = is_sat and recheck_model(relaxed, result.points)
        relaxations[name] = {"satisfiable": is_sat, "recheck": bool(rechecked)}
        lines.append("")
        lines.append(f"Dropping the impossibility of {name} "
                     f"(A={IMPOSSIBLE_CELLS[name][0]},B={IMPOSSIBLE_CELLS[name][1]}"
                     f"|X={IMPOSSIBLE_CELLS[name][2]},Y={IMPOSSIBLE_CELLS[name][3]}): "
                     f"{'SAT' if is_sat else 'UNSAT'}"
                     + (", witness re-verified by the evaluator" if rechecked else ""))
        if is_sat:
            worlds = [dict(pt) for pt in sorted(result.points)]
            lines.append(f"  witness world-set ({len(worlds)} worlds):")
            for w in worlds:
                lines.append("    (" + ", ".join(f"{k}={w[k]}" for k in sorted(w)) + ")")
        ok &= is_sat and rechecked

    report.verdicts = {
        "pns_holds": pns.holds,
        "modal_unsat": modal_unsat,
        "table_infeasible": not verdict.feasible,
        "relaxations": relaxations,
    }
    report.exit_code = EXIT_OK if ok else EXIT_NEGATIVE
    text = "\n".join(lines)
    if args.out:
        _write_output(Path(args.out), text + "\n")
    if not args.json:
        print(text)
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
    p.add_argument("--epsilon", type=float, default=None,
                   help="deprecated and ignored: the probabilities are exact, so a cell "
                        "is possible iff P != 0; still range-checked in (0, 1e-3]")
    common(p, "write hardy_probs.json and hardy_behavior.json into directory PATH")
    p.set_defaults(func=cmd_hardy)

    p = sub.add_parser("prove", help="end-to-end no-go reproduction")
    p.add_argument("--drop", choices=sorted(IMPOSSIBLE_CELLS), default=None,
                   help="run only the named single-assumption relaxation")
    common(p, "write the proof text to PATH")
    p.set_defaults(func=cmd_prove)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # the library's own formulas nest a few levels, so only input overflows
        print("error: input nests too deeply", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        print(report.to_json())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
