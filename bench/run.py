#!/usr/bin/env python3
"""plfkit benchmark: certified PLF decisions and CLI processes, closed loop.

    python3 bench/run.py --workload decide-hardy --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run it from the root of a plfkit checkout; it imports ``src/plfkit`` and
``tests/oracles.py`` from there and writes only under ``bench/out/``.
One caller runs one op at a time; the next op starts when the last ends.
The last line of stdout is the result JSON: end-to-end metrics with
``--trace 0``, per-layer metrics with ``--trace 1``.  See bench/README.md.
"""

import gc
import time

NOMINAL_CALIBRATION_NS = 2_000_000


def _reference_work(clock):
    t0 = clock()
    table = {}
    for i in range(4000):
        table[(i, i & 7)] = str(i)
    sorted(table.items(), key=lambda kv: kv[1])
    return clock() - t0


def calibrate(clock=time.perf_counter_ns):
    """ns taken by a fixed pure-Python workload that shares no code with plfkit.

    On a shared host the CPU's speed swings by up to 2x within seconds, and
    op times swing with it.  Every reported time is scaled to the speed at
    which this takes NOMINAL_CALIBRATION_NS, using calibrations run around it.
    The faster of two runs, with the collector off, ignores interruptions and
    the size of this process's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_reference_work(clock), _reference_work(clock))
    finally:
        if enabled:
            gc.enable()


_CAL0 = sorted(calibrate() for _ in range(3))[1]
_T0 = time.perf_counter()  # set-up time counts from here, before plfkit is imported

import argparse
import importlib.metadata
import io
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
REQUIRED = ("src/plfkit/__init__.py", "tests/oracles.py")

_missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
if _missing:
    print(f"bench: {', '.join(_missing)} not found under {ROOT}; "
          "run from the root of a plfkit checkout", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402  (tests/oracles.py: the independent reference deciders)
from plfkit import cli, kripke, plfcheck, quantum, scenario  # noqa: E402
from plfkit.formula import parse, render  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("decide-hardy", "decide-ladder", "cli")
CYCLE = ("hardy_check", "prove", "check", "check_pns", "eval", "parse")
CLI_SUBS = ("parse", "eval", "check", "check_pns", "hardy", "hardy_check", "prove")
CLI_FILES = 12           # behavior files the cli workload cycles through
CLI_MODELS = 4           # Kripke model files for `eval`
SETUP_PROBES = 4         # fresh processes that repeat set-up; setup_s is the median
PROC_TIMEOUT = 60
RECALIBRATE_NS = 100_000_000  # op time between two calibrations
ORACLE_SAMPLE = 32       # decide-hardy ops re-decided by tests/oracles.py
CENSUS_HARDY = 20        # traced Hardy decisions behind the hardy.* numbers
CENSUS_ALL_POSSIBLE = 5  # traced feasible decisions, so every certificate layer runs
IMPORT_PROBES = 5
# Hardy behavior per layer at the ROADMAP re-anchor (in-process perf_counter).
ROADMAP_HARDY = {"encode_ms": 6.5, "clauses": 338, "solve_depth1_ms": 0.84,
                 "plf_feasible_ms": 0.21}
SCOPE = ("Only this benchmark's own process and the processes it starts are measured. "
         "No page-cache dropping and no system-wide tracing; the page cache is warm.")
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# The in-process op: one certified decision
# ---------------------------------------------------------------------------


def decide(text, expected=None, tracer=None):
    """Decide one behavior by both routes and re-check the certificate.

    Returns (feasible, errors, excluded_ns); excluded_ns is the traced-only
    fragment re-check, which is not part of the op.
    """
    beh = scenario.behavior_from_json(text)
    pns = scenario.check_pns(beh)
    verdict = plfcheck.plf_feasible(beh)
    problem = scenario.encode(beh)
    excluded = 0
    if tracer is not None:
        with tracer.span("kripke.fragment_check") as rec:
            kripke.Depth1Problem(problem.atom_domains, problem.constraints)
        excluded = rec[tracing.END] - rec[tracing.START]
    sat = kripke.solve_depth1(problem)
    modal = isinstance(sat, kripke.Model)
    errors = []
    if verdict.feasible != modal:
        errors.append(f"routes disagree: table feasible={verdict.feasible}, modal sat={modal}")
    if verdict.feasible and not plfcheck.validate_extended_table(verdict.witness, beh):
        errors.append("witness table fails validate_extended_table")
    if modal and not kripke.recheck_model(problem, sat.points):
        errors.append("model fails recheck_model")
    if verdict.feasible and not pns.holds:
        errors.append("feasible behavior violates possibilistic no-signalling")
    if expected is not None and verdict.feasible != expected:
        errors.append(f"expected feasible={expected}, got {verdict.feasible}")
    return verdict.feasible, errors, excluded


def hardy_text():
    return json.dumps(scenario.behavior_to_json(quantum.hardy_behavior()))


def decide_stream(workload, seed, hardy):
    if workload == "decide-hardy":
        return inputs.hardy_stream(seed, hardy)
    return inputs.ladder_stream(seed)


class Tally:
    """Per-op times and checked outcomes of one phase."""

    def __init__(self, workload):
        self.workload = workload
        self.times = []      # ns per timed op, scaled to nominal speed
        self.raw = []        # the same, as measured
        self.factors = []    # the speed scale of each batch
        self.attempted = 0
        self.failures = []   # (op, message)
        self.decided = []    # (input, feasible) for the reference pass
        self._cal = calibrate()
        self._pending = []

    def time(self, ns):
        """Record one op's ns; calibrate after every RECALIBRATE_NS of ops."""
        self._pending.append(ns)
        if sum(self._pending) >= RECALIBRATE_NS:
            self.flush()

    def flush(self):
        if not self._pending:
            return
        cal = calibrate()
        factor = NOMINAL_CALIBRATION_NS / ((self._cal + cal) / 2)
        self._cal = cal
        self.factors.append(factor)
        self.raw += self._pending
        self.times += [ns * factor for ns in self._pending]
        self._pending = []

    def check(self, op, errors):
        self.attempted += 1
        for msg in errors:
            self.failures.append((op, msg))
            log(f"FAIL {self.workload} op {op}: {msg}")


def run_decide(workload, stream, seconds, tracer=None):
    tally = Tally(workload)
    end = time.perf_counter() + seconds
    for op in itertools.count():
        if time.perf_counter() >= end:
            break
        text, expected = next(stream)
        if tracer is not None:
            tracer.op = op
        t0 = perf_counter_ns()
        try:
            if tracer is None:
                feasible, errors, excluded = decide(text, expected)
            else:
                with tracer.span("bench.op"):
                    feasible, errors, excluded = decide(text, expected, tracer)
        except Exception:
            feasible, errors, excluded = None, [traceback.format_exc()], 0
        tally.time(perf_counter_ns() - t0 - excluded)
        tally.check(op, errors)
        tally.decided.append((text, feasible))
    tally.flush()
    return tally


# ---------------------------------------------------------------------------
# The cli workload: real processes
# ---------------------------------------------------------------------------


def first_line(text):
    return text.splitlines()[0] if text else ""


def verdict_word(line):
    if "infeasible" in line:
        return False
    return True if "feasible" in line else None


class CliInputs:
    """Behavior and model files, formulas and their in-process verdicts."""

    def __init__(self, seed, workdir):
        rng = random.Random(f"cli/{seed}")
        self.hardy = hardy_text()
        # what `plfkit hardy` prints: the same behavior, as indented sorted JSON
        self.hardy_out = json.dumps(json.loads(self.hardy), indent=2, sort_keys=True)
        self.behaviors = []  # (path, feasible, pns holds)
        self.models = []     # (path, formula, value at w0)
        self.formulas = []   # (formula, rendered)
        self.failures = []   # reference decisions that failed their own checks
        stream = inputs.hardy_stream(seed, self.hardy)
        while len(self.behaviors) < CLI_FILES or len(self.models) < CLI_MODELS:
            text, expected = next(stream)
            if expected is not None:
                continue  # the Hardy behavior itself runs through the pipe
            feasible, errors, _ = decide(text)
            self.failures += [f"reference decision of {text}: {e}" for e in errors]
            beh = scenario.behavior_from_json(text)
            if len(self.behaviors) < CLI_FILES:
                path = workdir / f"behavior{len(self.behaviors)}.json"
                path.write_text(text)
                self.behaviors.append((str(path), feasible, scenario.check_pns(beh).holds))
            problem = scenario.encode(beh)
            if feasible and len(self.models) < CLI_MODELS:
                points = kripke.solve_depth1(problem).points
                model_text = json.dumps(kripke.model_to_json(kripke.points_to_model(problem, points)))
                a, b, x, y = rng.choice(beh.config.cells())
                formula = f"<>(A={a} & B={b} & X={x} & Y={y})"
                value = kripke.evaluate(kripke.model_from_json(model_text), "w0", parse(formula))
                path = workdir / f"model{len(self.models)}.json"
                path.write_text(model_text)
                self.models.append((str(path), formula, value))
            clause = rng.choice(problem.constraints)
            formula = render(kripke.clause_formula(clause))
            self.formulas.append((formula, render(parse(formula))))

    def op(self, kind, k):
        """(argv, exit code wanted, test of stdout) for the k-th op of a kind.

        argv None stands for the `hardy | check` pipe.
        """
        if kind == "hardy_check":
            return None, 1, lambda out: verdict_word(first_line(out)) is False
        if kind == "prove":
            return ["prove"], 0, lambda out: True
        if kind == "hardy":
            return ["hardy"], 0, lambda out: out.strip() == self.hardy_out
        if kind == "check":
            path, feasible, _ = self.behaviors[k % len(self.behaviors)]
            return (["check", path], 0 if feasible else 1,
                    lambda out: verdict_word(first_line(out)) == feasible)
        if kind == "check_pns":
            path, _, holds = self.behaviors[k % len(self.behaviors)]
            return (["check", "--mode", "pns", path], 0 if holds else 1,
                    lambda out: first_line(out).endswith("holds") == holds)
        if kind == "eval":
            path, formula, value = self.models[k % len(self.models)]
            return (["eval", path, "w0", formula], 0 if value else 1,
                    lambda out: first_line(out) == ("true" if value else "false"))
        if kind == "parse":
            formula, rendered = self.formulas[k % len(self.formulas)]
            return ["parse", formula], 0, lambda out: first_line(out) == rendered
        raise ValueError(kind)


def _cli_argv(argv):
    return [sys.executable, "-m", "plfkit.cli", *argv]


def run_proc(argv):
    p = subprocess.Popen(_cli_argv(argv), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, text=True, env=CHILD_ENV, cwd=ROOT)
    try:
        out, _ = p.communicate(timeout=PROC_TIMEOUT)
    except subprocess.TimeoutExpired:
        p.kill()
        p.communicate()
        raise
    return p.returncode, out


def run_pipe():
    """`plfkit hardy | plfkit check`; returns the check side's (exit, stdout)."""
    hardy = subprocess.Popen(_cli_argv(["hardy"]), stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             env=CHILD_ENV, cwd=ROOT)
    check = None
    try:
        check = subprocess.Popen(_cli_argv(["check"]), stdin=hardy.stdout,
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                 text=True, env=CHILD_ENV, cwd=ROOT)
        hardy.stdout.close()
        out, _ = check.communicate(timeout=PROC_TIMEOUT)
        hardy_code = hardy.wait(timeout=PROC_TIMEOUT)
    finally:
        for p in (hardy, check):
            if p is not None and p.poll() is None:
                p.kill()
                p.wait()
    if hardy_code != 0:
        return hardy_code, f"hardy exited {hardy_code}"
    return check.returncode, out


def run_main(argv, stdin_text=""):
    """cli.main in this process, with its own stdin and captured stdout."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def cli_op(ctx, kind, k, tally, op, tracer=None):
    """Run one CLI op as processes (and, traced, in-process); returns its ns."""
    argv, want, stdout_ok = ctx.op(kind, k)
    label = " ".join(argv) if argv else "hardy | check"

    def check(code, out):
        if code == want and stdout_ok(out):
            return []
        return [f"{label}: exit {code} (want {want}), first line {first_line(out)!r}"]

    t0 = perf_counter_ns()
    try:
        if tracer is None:
            code, out = run_pipe() if argv is None else run_proc(argv)
        else:
            with tracer.span(f"cli.proc.{kind}"):
                code, out = run_pipe() if argv is None else run_proc(argv)
        errors = check(code, out)
    except Exception:
        errors = [traceback.format_exc()]
    elapsed = perf_counter_ns() - t0
    tally.check(op, errors)
    if tracer is not None:
        try:
            with tracer.span(f"cli.main.{kind}"):
                if argv is None:
                    with tracer.span("cli.main.hardy"):
                        _, behavior = run_main(["hardy"])
                    code, out = run_main(["check"], behavior)
                else:
                    code, out = run_main(argv)
            errors = check(code, out)
        except Exception:
            errors = [traceback.format_exc()]
        tally.check(f"{op} in-process", errors)
    return elapsed


def run_cli(ctx, seconds, tracer=None, first_op=0, cycles=None):
    """Closed loop over CYCLE; traced runs add a standalone `hardy` op per cycle."""
    tally = Tally("cli")
    kinds = CYCLE + (("hardy",) if tracer is not None else ())
    end = time.perf_counter() + seconds
    op = first_op
    for k in (itertools.count() if cycles is None else range(cycles)):
        for kind in kinds:
            if cycles is None and time.perf_counter() >= end:
                tally.flush()
                return tally
            if tracer is not None:
                tracer.op = op
            elapsed = cli_op(ctx, kind, k, tally, op, tracer)
            if kind in CYCLE:
                tally.time(elapsed)
            op += 1 if first_op >= 0 else -1
    tally.flush()
    return tally


# ---------------------------------------------------------------------------
# Set-up, reference pass, metrics
# ---------------------------------------------------------------------------


def setup(workload, seed, workdir):
    """Everything before the first timed op: inputs and a warm-up.

    Returns the workload's inputs and the failed checks met on the way.
    """
    if workload == "cli":
        ctx = CliInputs(seed, workdir)
        code, _ = run_proc(["parse", "A"])  # writes the byte-code caches
        return ctx, ctx.failures + ([f"warm-up `plfkit parse A` exited {code}"] if code else [])
    hardy = hardy_text()
    failures = []
    for text, expected in ((hardy, False),
                           (inputs.all_possible_text(inputs.HARDY_SCENARIO), True)):
        failures += [f"warm-up: {e}" for e in decide(text, expected)[1]]
    return hardy, failures


def setup_probes(args):
    """Set-up seconds, scaled and as measured, of fresh processes that repeat it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-probe"]
    values = []
    for _ in range(SETUP_PROBES):
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=PROC_TIMEOUT, cwd=ROOT)
        if p.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{p.stderr}")
        values.append(json.loads(p.stdout.splitlines()[-1]))
    return values


def reference_pass(decided, seed):
    """Re-decide a seeded sample with tests/oracles.py; returns (checked, mismatches)."""
    rng = random.Random(f"oracle/{seed}")
    sample = [d for d in decided if d[1] is not None]
    sample = rng.sample(sample, min(ORACLE_SAMPLE, len(sample)))
    mismatches = []
    for text, feasible in sample:
        beh = scenario.behavior_from_json(text)
        cfg = beh.config
        covered = set()
        for c in (cfg.a_values if cfg.friend_a else (None,)):
            for d in (cfg.b_values if cfg.friend_b else (None,)):
                for s in oracles.enumerate_valid_slices(beh, c, d):
                    covered |= s
        table = all(cell in covered for cell, v in beh.possible.items() if v)
        modal = oracles.naive_depth1_satisfiable(scenario.encode(beh))
        if table != feasible or modal != feasible:
            mismatches.append(f"oracle: recorded feasible={feasible}, slice enumeration "
                              f"{table}, naive depth-1 {modal} for {text}")
            log(f"FAIL reference pass: {mismatches[-1]}")
    return len(sample), mismatches


def quantile_ms(times_ns):
    ms = [t / 1e6 for t in times_ns]
    return statistics.median(ms), statistics.quantiles(ms, n=10)[8], len(ms) / (sum(ms) / 1e3)


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6  # ru_maxrss is KiB on Linux


def interpreter_probes():
    """Median ms of `python -c pass`, and of plfkit.cli / numpy from -X importtime."""
    bare, cli_us, numpy_us = [], [], []
    for _ in range(IMPORT_PROBES):
        t0 = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=PROC_TIMEOUT)
        bare.append((perf_counter_ns() - t0) / 1e6)
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import plfkit.cli"],
                           capture_output=True, text=True, env=CHILD_ENV, check=True,
                           timeout=PROC_TIMEOUT)
        found = {}
        for line in p.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2][1:].rstrip()  # indentation marks nested imports
                if name == "plfkit.cli" or name.strip() == "numpy":
                    found.setdefault(name.strip(), int(parts[1]))
        cli_us.append(found["plfkit.cli"])
        numpy_us.append(found.get("numpy", 0))
    return {"cli.interpreter_ms": statistics.median(bare),
            "cli.import_ms": statistics.median(cli_us) / 1e3,
            "cli.import_numpy_ms": statistics.median(numpy_us) / 1e3}


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans
# ---------------------------------------------------------------------------

SPANS = ["scenario.behavior_from_json", "scenario.check_pns", "scenario.encode",
         "kripke.fragment_check", "kripke.solve_depth1", "kripke.recheck_model",
         "plfcheck.plf_feasible", "plfcheck.maximal_subtable",
         "plfcheck.validate_extended_table", "quantum.born_table", "quantum.hardy_behavior",
         "formula.parse"] + [f"cli.{w}.{s}" for w in ("main", "proc") for s in CLI_SUBS]
MODULES = ("scenario", "kripke", "plfcheck", "quantum", "formula", "cli")
COUNTS = ["scenario.clauses", "scenario.clauses_conditional", "scenario.config_reuse_frac",
          "kripke.grid_points", "kripke.model_points", "kripke.unsat_removals",
          "plfcheck.removal_steps", "plfcheck.feasible_frac"]
HARDY_METRICS = ["hardy.encode_ms", "hardy.clauses", "hardy.solve_depth1_ms",
                 "hardy.plf_feasible_ms"]


def span_metric_names(span):
    """scenario.encode -> scenario.encode_ms, scenario.encode_total_ms;
    cli.main.check -> cli.main_ms.check, cli.main_total_ms.check."""
    if span.startswith(("cli.main.", "cli.proc.")):
        _, layer, kind = span.split(".", 2)
        return f"cli.{layer}_ms.{kind}", f"cli.{layer}_total_ms.{kind}"
    return f"{span}_ms", f"{span}_total_ms"


def per_layer_names():
    names = []
    for span in SPANS:
        names.extend(span_metric_names(span))
    names += [f"{m}.self_total_ms" for m in MODULES]
    names += COUNTS + HARDY_METRICS
    names += ["cli.interpreter_ms", "cli.import_ms", "cli.import_numpy_ms",
              "bench.trace_overhead_frac"]
    return names


def unit_of(name):
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    return "frac" if name.endswith("_frac") else "count"


def module_of(name):
    if name.startswith("cli.proc.") or name == "kripke.fragment_check" \
            or name.startswith("bench."):
        return None  # process wall time and bench-only work are not a module's self time
    return name.split(".")[0]


def layer_metrics(spans):
    """Every span-derived per-layer metric.

    A layer is measured on the workload's own ops (op id >= 0) when they call
    it, and otherwise on the census ops (op id < 0), which run every layer.
    """
    own = tracing.self_times(spans)
    stream, census = defaultdict(list), defaultdict(list)
    for i, s in enumerate(spans):
        (stream if s[tracing.OP] >= 0 else census)[s[tracing.NAME]].append(i)

    def pool(name):
        return stream.get(name) or census.get(name, [])

    def dur(i):
        return spans[i][tracing.END] - spans[i][tracing.START]

    def counts(name, key):
        for idx in (stream.get(name, []), census.get(name, [])):
            found = [spans[i][tracing.COUNTS][key] for i in idx
                     if key in spans[i][tracing.COUNTS]]
            if found:
                return found
        return []

    m = {}
    for span in SPANS:
        med, total = span_metric_names(span)
        durations = [dur(i) for i in pool(span)]
        m[med] = tracing.median_ms(durations)
        m[total] = sum(durations) / 1e6
    for module in MODULES:
        in_stream = any(module_of(n) == module for n in stream)
        m[f"{module}.self_total_ms"] = sum(
            own[i] for n, idx in (stream if in_stream else census).items()
            if module_of(n) == module for i in idx) / 1e6
    m["scenario.clauses"] = statistics.fmean(counts("scenario.encode", "clauses"))
    m["scenario.clauses_conditional"] = statistics.fmean(counts("scenario.encode", "conditional"))
    configs = counts("scenario.behavior_from_json", "config")
    seen, reused = set(), 0
    for cfg in configs:
        reused += cfg in seen
        seen.add(cfg)
    m["scenario.config_reuse_frac"] = reused / len(configs)
    m["kripke.grid_points"] = statistics.fmean(counts("kripke.solve_depth1", "grid_points"))
    m["kripke.model_points"] = statistics.fmean(counts("kripke.recheck_model", "model_points"))
    m["kripke.unsat_removals"] = statistics.fmean(counts("kripke.solve_depth1", "unsat_removals"))
    m["plfcheck.removal_steps"] = (sum(counts("plfcheck.maximal_subtable", "removal_steps"))
                                   / len(pool("plfcheck.plf_feasible")))
    m["plfcheck.feasible_frac"] = statistics.fmean(counts("plfcheck.plf_feasible", "feasible"))

    hardy_ops = set(range(-CENSUS_HARDY, 0))
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        if s[tracing.OP] in hardy_ops:
            by_name[s[tracing.NAME]].append(i)
    m["hardy.encode_ms"] = tracing.median_ms([dur(i) for i in by_name["scenario.encode"]])
    m["hardy.clauses"] = statistics.fmean(
        spans[i][tracing.COUNTS]["clauses"] for i in by_name["scenario.encode"])
    m["hardy.solve_depth1_ms"] = tracing.median_ms([dur(i) for i in by_name["kripke.solve_depth1"]])
    m["hardy.plf_feasible_ms"] = tracing.median_ms([dur(i) for i in by_name["plfcheck.plf_feasible"]])
    return m


def census(tracer, workload, hardy, ctx, tally):
    """Traced Hardy and all-possible decisions, plus one CLI cycle if not the cli workload."""
    all_possible = inputs.all_possible_text(inputs.HARDY_SCENARIO)
    jobs = [(hardy, False)] * CENSUS_HARDY + [(all_possible, True)] * CENSUS_ALL_POSSIBLE
    for j, (text, expected) in enumerate(jobs):
        tracer.op = -1 - j
        with tracer.span("bench.op"):
            _, errors, _ = decide(text, expected, tracer)
        tally.check(f"census {j}", errors)
    if workload != "cli":
        cycle = run_cli(ctx, 0, tracer, first_op=-1 - len(jobs), cycles=1)
        tally.attempted += cycle.attempted
        tally.failures += cycle.failures


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def provenance(args):
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"git_sha": sha or "unknown (not a git checkout)",
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "platform": platform.platform(),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "load": "closed loop, one caller, one op at a time",
            "scope": SCOPE}


def run(args, workdir):
    ctx, setup_failures = setup(args.workload, args.seed, workdir)
    raw_setup_s = time.perf_counter() - _T0
    cal = sorted(calibrate() for _ in range(3))[1]
    setup_s = raw_setup_s * NOMINAL_CALIBRATION_NS / ((_CAL0 + cal) / 2)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return None
    is_cli = args.workload == "cli"
    hardy = ctx.hardy if is_cli else ctx
    report = {"properties": {}}

    def timed(seconds, tracer=None):
        if is_cli:
            return run_cli(ctx, seconds, tracer)
        return run_decide(args.workload, decide_stream(args.workload, args.seed, hardy),
                          seconds, tracer)

    if not args.trace:
        tally = timed(args.seconds)
        rss = peak_rss_mb(args.workload)
        p50, p90, rate = quantile_ms(tally.times)
        probes = setup_probes(args)
        setups = [setup_s] + [p["setup_s"] for p in probes]
        metrics = {"ops_per_s": (rate, "1/s"), "op_ms_p50": (p50, "ms"),
                   "op_ms_p90": (p90, "ms"), "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (rss, "MB")}
        raw_p50, raw_p90, raw_rate = quantile_ms(tally.raw)
        report["as_measured"] = {
            "ops_per_s": raw_rate, "op_ms_p50": raw_p50, "op_ms_p90": raw_p90,
            "setup_s": statistics.median([raw_setup_s] + [p["raw_setup_s"] for p in probes])}
        report["speed_factor"] = {"median": statistics.median(tally.factors),
                                  "min": min(tally.factors), "max": max(tally.factors)}
        report["setup_s_samples"] = setups
        report["op_samples"] = len(tally.times)
    else:
        census_ctx = ctx if is_cli else CliInputs(args.seed, workdir)
        untraced = timed(args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tally = timed(args.seconds / 2, tracer)
            census(tracer, args.workload, hardy, census_ctx, tally)
        finally:
            tracer.uninstall()
        n = min(len(untraced.times), len(tally.times))
        values = layer_metrics(tracer.spans)
        values.update(interpreter_probes())
        values["bench.trace_overhead_frac"] = (sum(tally.times[:n]) / sum(untraced.times[:n])) - 1
        metrics = {name: (values[name], unit_of(name)) for name in per_layer_names()}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        report["properties"] = {k: values[k] for k in (
            "plfcheck.feasible_frac", "scenario.config_reuse_frac", "scenario.clauses",
            "kripke.grid_points")}
        report["hardy_vs_roadmap"] = {k: {"this_run": values[f"hardy.{k}"],
                                          "roadmap": v} for k, v in ROADMAP_HARDY.items()}
        if not is_cli:
            tally.check("census inputs", census_ctx.failures)
        tally.attempted += untraced.attempted
        tally.failures = untraced.failures + tally.failures
        tally.decided = untraced.decided

    tally.check("set-up", setup_failures)
    feasible = [f for _, f in tally.decided if f is not None]
    if feasible:
        report["properties"].setdefault("plfcheck.feasible_frac", sum(feasible) / len(feasible))
    if args.workload == "decide-hardy":
        checked, mismatches = reference_pass(tally.decided, args.seed)
    elif is_cli:
        checked, mismatches = reference_pass(
            [(Path(p).read_text(), f) for p, f, _ in ctx.behaviors], args.seed)
    else:
        checked, mismatches = 0, []
    report.update({
        "provenance": provenance(args),
        "attempted": tally.attempted, "failed": len({op for op, _ in tally.failures}),
        "failures": [f"op {op}: {msg}" for op, msg in tally.failures[:100]],
        "reference_pass": {"checked": checked, "mismatches": mismatches},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.4f} {unit}")
    failed = report["failed"]
    print(f"  attempted {tally.attempted}  failed {failed}  "
          f"failed_frac {failed / max(tally.attempted, 1):.4f}  "
          f"reference pass {checked - len(mismatches)}/{checked} agree")
    if args.trace:
        print("  Hardy behavior, this run vs the ROADMAP re-anchor table:")
        for k, row in report["hardy_vs_roadmap"].items():
            print(f"    {k:18s} {row['this_run']:10.3f} {row['roadmap']:10.3f}")
    return {"correct": failed == 0 and not mismatches, "attempted": tally.attempted,
            "failed": failed, "metrics": report["metrics"]}


def run_all(args):
    """Each workload in its own process, one after another."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                           timeout=args.seconds * 2 + 170)
        print(p.stdout, end="")
        if p.returncode != 0:
            print(f"{workload}: exit {p.returncode}", file=sys.stderr)
            return 1
        results[workload] = json.loads(p.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(parents=True, exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if result is not None:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
