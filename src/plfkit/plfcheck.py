"""Direct feasibility decision for possibilistic local friendliness.

A behavior is PLF-feasible iff there is an extended possibility table over
(a, b, c, d, x, y) that (i) never lets a reading context disagree with the
friend's record, (ii) keeps each wing's marginal possibilities independent
of the other wing's setting for every fixed (c, d), and (iii) ORs over
(c, d) to exactly the observed behavior.

Reading constraints and marginal equalities each fix a single (c, d), so
the table decomposes into independent slices coupled only through the OR
coverage.  Valid slices are closed under union (see docs/feasibility.md),
so each slice has a unique maximal valid sub-table, found by deflation;
the behavior is feasible iff the slice maxima jointly cover it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional

from .scenario import Behavior, ScenarioConfig

__all__ = [
    "RemovalStep",
    "SliceTable",
    "ExtendedTable",
    "ProofTrace",
    "Verdict",
    "ConfigMismatch",
    "maximal_subtable",
    "plf_feasible",
    "validate_extended_table",
    "cd_values",
    "trace_to_text",
]


class ConfigMismatch(ValueError):
    pass


def cd_values(cfg: ScenarioConfig):
    """All (c, d) slice labels; None stands for an absent friend."""
    cs = cfg.a_values if cfg.friend_a else (None,)
    ds = cfg.b_values if cfg.friend_b else (None,)
    return [(c, d) for c in cs for d in ds]


@dataclass(frozen=True)
class RemovalStep:
    """One elimination during slice deflation."""

    kind: str  # "reading" or "marginal"
    cells: tuple  # killed (a, b, x, y) cells
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "cells": [list(c) for c in self.cells], "detail": self.detail}


@dataclass(frozen=True)
class SliceTable:
    """Maximal valid sub-table for one (c, d), with its elimination log."""

    cd: tuple
    cells: Mapping[tuple, bool]
    steps: tuple


@dataclass(frozen=True)
class ExtendedTable:
    """Joint possibility table over (a, b, c, d, x, y).

    Keys always have six slots; c (resp. d) is None when the corresponding
    friend is absent.  Invariants are checked by validate_extended_table,
    not by the constructor, so counterexample tables can be built in tests.
    """

    config: ScenarioConfig
    entries: Mapping[tuple, bool]

    def marginal(self):
        """OR over (c, d), as a behavior-shaped table."""
        out = {cell: False for cell in self.config.cells()}
        for (a, b, c, d, x, y), v in self.entries.items():
            if v:
                out[(a, b, x, y)] = True
        return out


@dataclass(frozen=True)
class ProofTrace:
    """Infeasibility certificate: a possible cell no slice can retain."""

    target_cell: tuple
    branches: tuple  # ((c, d), (RemovalStep, ...)) per slice

    def to_dict(self) -> dict:
        return {
            "target_cell": list(self.target_cell),
            "branches": [
                {"cd": list(cd), "steps": [s.to_dict() for s in steps]}
                for cd, steps in self.branches
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


@dataclass(frozen=True)
class Verdict:
    feasible: bool
    witness: Optional[ExtendedTable]
    trace: Optional[ProofTrace]

    def __post_init__(self):
        assert self.feasible == (self.witness is not None)
        assert self.feasible == (self.trace is None)


def _cd_label(cfg: ScenarioConfig, c, d) -> str:
    parts = []
    if cfg.friend_a:
        parts.append(f"C={c}")
    if cfg.friend_b:
        parts.append(f"D={d}")
    return ", ".join(parts) if parts else "no friends"


def maximal_subtable(beh: Behavior, c=None, d=None) -> SliceTable:
    """Greatest sub-table of the behavior valid for friend records (c, d).

    Starts from the behavior masked by the reading constraints, then zeroes
    the witnessed side of any cross-setting marginal mismatch until a
    fixpoint.  Valid sub-tables are union-closed, so the fixpoint is the
    union of them all.
    """
    cfg = beh.config
    if cfg.friend_a != (c is not None):
        raise ValueError("c must be given exactly when friend_a is set")
    if cfg.friend_b != (d is not None):
        raise ValueError("d must be given exactly when friend_b is set")
    if cfg.friend_a and c not in cfg.a_values:
        raise ValueError(f"c={c!r} not in a_values")
    if cfg.friend_b and d not in cfg.b_values:
        raise ValueError(f"d={d!r} not in b_values")

    cells = dict(beh.possible)
    steps: list[RemovalStep] = []

    if cfg.friend_a:
        killed = tuple(cell for cell in cfg.cells()
                       if cell[2] == cfg.read_x and cell[0] != c and cells[cell])
        if killed:
            for cell in killed:
                cells[cell] = False
            steps.append(RemovalStep(
                "reading", killed,
                f"at X={cfg.read_x} Alice reads C={c}, so A={c} is forced",
            ))
    if cfg.friend_b:
        killed = tuple(cell for cell in cfg.cells()
                       if cell[3] == cfg.read_y and cell[1] != d and cells[cell])
        if killed:
            for cell in killed:
                cells[cell] = False
            steps.append(RemovalStep(
                "reading", killed,
                f"at Y={cfg.read_y} Bob reads D={d}, so B={d} is forced",
            ))

    label = _cd_label(cfg, c, d)
    changed = True
    while changed:
        changed = False
        # Alice-wing marginals: OR over a must not depend on x for fixed (b, y)
        for b in cfg.b_values:
            for y in cfg.y_values:
                marg = {x: any(cells[(a, b, x, y)] for a in cfg.a_values)
                        for x in cfg.x_values}
                if any(marg.values()) and not all(marg.values()):
                    dead_x = next(x for x in cfg.x_values if not marg[x])
                    for x in cfg.x_values:
                        if marg[x]:
                            killed = tuple((a, b, x, y) for a in cfg.a_values
                                           if cells[(a, b, x, y)])
                            for cell in killed:
                                cells[cell] = False
                            steps.append(RemovalStep(
                                "marginal", killed,
                                f"(B={b}, Y={y}, {label}) is impossible at X={dead_x} "
                                f"but was possible at X={x}",
                            ))
                            changed = True
        # Bob-wing marginals: OR over b must not depend on y for fixed (a, x)
        for a in cfg.a_values:
            for x in cfg.x_values:
                marg = {y: any(cells[(a, b, x, y)] for b in cfg.b_values)
                        for y in cfg.y_values}
                if any(marg.values()) and not all(marg.values()):
                    dead_y = next(y for y in cfg.y_values if not marg[y])
                    for y in cfg.y_values:
                        if marg[y]:
                            killed = tuple((a, b, x, y) for b in cfg.b_values
                                           if cells[(a, b, x, y)])
                            for cell in killed:
                                cells[cell] = False
                            steps.append(RemovalStep(
                                "marginal", killed,
                                f"(A={a}, X={x}, {label}) is impossible at Y={dead_y} "
                                f"but was possible at Y={y}",
                            ))
                            changed = True

    return SliceTable(cd=(c, d), cells=cells, steps=tuple(steps))


def plf_feasible(beh: Behavior) -> Verdict:
    """Decide PLF feasibility; witness table or per-(c, d) refutation trace."""
    cfg = beh.config
    slices = {cd: maximal_subtable(beh, *cd) for cd in cd_values(cfg)}

    uncovered = [cell for cell in cfg.cells()
                 if beh.possible[cell] and not any(s.cells[cell] for s in slices.values())]
    if not uncovered:
        entries = {}
        for (c, d), sl in slices.items():
            for (a, b, x, y), v in sl.cells.items():
                entries[(a, b, c, d, x, y)] = v
        return Verdict(True, ExtendedTable(cfg, entries), None)

    target = uncovered[0]
    branches = []
    for cd in cd_values(cfg):
        sl = slices[cd]
        branch: list[RemovalStep] = []
        for step in sl.steps:
            branch.append(step)
            if target in step.cells:
                break
        branches.append((cd, tuple(branch)))
    return Verdict(False, None, ProofTrace(target_cell=target, branches=tuple(branches)))


def trace_to_text(trace: ProofTrace, cfg: ScenarioConfig) -> str:
    """Human-readable rendition of an infeasibility trace."""
    a, b, x, y = trace.target_cell
    lines = [
        f"The possible outcome (A={a}, B={b}) at settings (X={x}, Y={y}) cannot be",
        "accounted for by any assignment of friend records:",
    ]
    for cd, steps in trace.branches:
        lines.append(f"  assuming {_cd_label(cfg, *cd)}:")
        for step in steps:
            lines.append(f"    - [{step.kind}] {step.detail}; rules out "
                         + ", ".join(f"(A={ca}, B={cb} | X={cx}, Y={cy})" for ca, cb, cx, cy in step.cells))
        lines.append(f"    => (A={a}, B={b} | X={x}, Y={y}) eliminated")
    lines.append("All friend-record assignments are exhausted; the behavior is infeasible.")
    return "\n".join(lines)


def validate_extended_table(t: ExtendedTable, beh: Behavior) -> bool:
    """Full invariant check of a witness table against a behavior."""
    cfg = t.config
    if cfg != beh.config:
        raise ConfigMismatch("extended table and behavior configs differ")

    cds = cd_values(cfg)
    keys = [(a, b, c, d, x, y)
            for a in cfg.a_values for b in cfg.b_values
            for (c, d) in cds
            for x in cfg.x_values for y in cfg.y_values]
    if set(t.entries) != set(keys):
        return False

    for (a, b, c, d, x, y), v in t.entries.items():
        if not v:
            continue
        if cfg.friend_a and x == cfg.read_x and a != c:
            return False
        if cfg.friend_b and y == cfg.read_y and b != d:
            return False

    for (c, d) in cds:
        for b in cfg.b_values:
            for y in cfg.y_values:
                margs = {any(t.entries[(a, b, c, d, x, y)] for a in cfg.a_values)
                         for x in cfg.x_values}
                if len(margs) > 1:
                    return False
        for a in cfg.a_values:
            for x in cfg.x_values:
                margs = {any(t.entries[(a, b, c, d, x, y)] for b in cfg.b_values)
                         for y in cfg.y_values}
                if len(margs) > 1:
                    return False

    if t.marginal() != beh.possible:
        return False
    for (x, y) in cfg.contexts():
        if not any(t.entries[(a, b, c, d, x, y)]
                   for a in cfg.a_values for b in cfg.b_values for (c, d) in cds):
            return False
    return True
