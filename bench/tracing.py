"""In-memory spans around calls into plfkit's public functions.

The benchmark never edits the library: `Tracer.install` replaces each
traced function, in every loaded ``plfkit`` module that holds it, with a
wrapper that records a span, and `Tracer.uninstall` puts the originals
back.  A span is ``[name, start_ns, end_ns, parent_index, op_id, counts]``;
spans stay in memory until `Tracer.write` dumps them as JSON lines.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter_ns

from plfkit.kripke import Conditional, Model

NAME, START, END, PARENT, OP, COUNTS = range(6)


def _grid_points(problem) -> int:
    n = 1
    for values in problem.atom_domains.values():
        n *= len(values)
    return n


def _encode_counts(args, problem):
    return {"clauses": len(problem.constraints),
            "conditional": sum(isinstance(c, Conditional) for c in problem.constraints)}


def _solve_counts(args, result):
    counts = {"grid_points": _grid_points(args[0])}
    if not isinstance(result, Model):
        counts["unsat_removals"] = len(result.core.removals)
    return counts


# (module, function) -> counts taken from (args, result) after the span ends
TRACED = {
    ("scenario", "behavior_from_json"): lambda args, beh: {"config": beh.config},
    ("scenario", "check_pns"): None,
    ("scenario", "encode"): _encode_counts,
    ("kripke", "solve_depth1"): _solve_counts,
    ("kripke", "recheck_model"): lambda args, ok: {"model_points": len(args[1])},
    ("plfcheck", "plf_feasible"): lambda args, v: {"feasible": v.feasible},
    ("plfcheck", "maximal_subtable"): lambda args, s: {"removal_steps": len(s.steps)},
    ("plfcheck", "validate_extended_table"): None,
    ("quantum", "born_table"): None,
    ("quantum", "hardy_behavior"): None,
    ("formula", "parse"): None,
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.op = None
        self._patches: list = []

    def span(self, name: str):
        return _Span(self, name)

    def _wrap(self, name, fn, observe):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
            if observe is not None:
                rec[COUNTS] = observe(args, result)
            return result

        return traced

    def install(self):
        """Wrap every TRACED function wherever a plfkit module binds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "plfkit" or n.startswith("plfkit."))]
        for (module, fname), observe in TRACED.items():
            original = getattr(sys.modules[f"plfkit.{module}"], fname)
            wrapper = self._wrap(f"{module}.{fname}", original, observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, counts in self.spans:
                if counts and "config" in counts:
                    counts = {k: v for k, v in counts.items() if k != "config"}
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op, "counts": counts}) + "\n")


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.rec = [name, 0, 0, -1, None, None]

    def __enter__(self):
        t = self.tracer
        self.rec[PARENT] = t.stack[-1] if t.stack else -1
        self.rec[OP] = t.op
        t.stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[START] = perf_counter_ns()
        return self.rec

    def __exit__(self, *exc):
        self.rec[END] = perf_counter_ns()
        self.tracer.stack.pop()
        return False


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover (ns)."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def median_ms(durations_ns) -> float:
    return statistics.median(durations_ns) / 1e6
