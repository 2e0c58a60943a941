"""Direct feasibility decision for possibilistic local friendliness.

A behavior is PLF-feasible iff there is an extended possibility table over
(a, b, c, d, x, y) that (i) never lets a reading context disagree with the
friend's record, (ii) keeps each wing's marginal possibilities independent
of the other wing's setting for every fixed (c, d), and (iii) ORs over
(c, d) to exactly the observed behavior.

Reading constraints and marginal equalities each fix a single (c, d), so
the table is its slices, one per (c, d), coupled only through the OR
coverage; a slice is the frozenset of its possible (a, b, x, y) cells.
Valid slices are closed under union (see docs/feasibility.md), so each
slice has a unique maximal valid sub-table, found by deflation; the
behavior is feasible iff the slice maxima jointly cover it.  Every slice
deflates one int from the behavior's `cell_mask` and its config's
`off_record` masks, each built once; the witness check reads the slices
as sets of cells, and never the masks.
"""

from __future__ import annotations

from ._record import Record
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
    cs, ds = (wing.outcomes if wing.friend else (None,) for wing in cfg.wings)
    return [(c, d) for c in cs for d in ds]


class RemovalStep(Record):
    """One elimination during slice deflation: its kind, "reading" or
    "marginal", the killed (a, b, x, y) cells and why they die."""

    __slots__ = _fields = ("kind", "cells", "detail")

    def __init__(self, kind: str, cells: tuple, detail: str):
        _set_kind(self, kind)
        _set_cells(self, cells)
        _set_detail(self, detail)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "cells": [list(c) for c in self.cells], "detail": self.detail}


# the slots' own setters, as for the formula nodes: a deflation logs many steps
_set_kind, _set_cells, _set_detail = (RemovalStep.kind.__set__, RemovalStep.cells.__set__,
                                      RemovalStep.detail.__set__)


class SliceTable(Record):
    """Maximal valid sub-table for one (c, d): its possible (a, b, x, y)
    cells, with its elimination log."""

    cd: tuple
    cells: frozenset
    steps: tuple


class ExtendedTable(Record):
    """Joint possibility table over (a, b, c, d, x, y) as its slices: each
    (c, d), in `cd_values` order, maps to the frozenset of its possible
    (a, b, x, y) cells; c (resp. d) is None when that friend is absent.
    Invariants are checked by validate_extended_table, not by the
    constructor, so counterexample tables can be built in tests."""

    config: ScenarioConfig
    slices: dict[tuple, frozenset]


class ProofTrace(Record):
    """Infeasibility certificate: a possible cell no slice can retain."""

    target_cell: tuple
    branches: tuple  # per slice, ((c, d), its steps through the first that removes target_cell)

    def to_dict(self) -> dict:
        return {
            "target_cell": list(self.target_cell),
            "branches": [
                {"cd": list(cd), "steps": [s.to_dict() for s in steps]}
                for cd, steps in self.branches
            ],
        }


class Verdict(Record):
    feasible: bool
    witness: ExtendedTable | None
    trace: ProofTrace | None

    def __post_init__(self):
        assert self.feasible == (self.witness is not None)
        assert self.feasible == (self.trace is None)


def _cd_label(cfg: ScenarioConfig, c, d) -> str:
    return ", ".join(f"{wing.record}={record}" for wing, record in zip(cfg.wings, (c, d))
                     if wing.friend) or "no friends"


def _cells_of(cells: tuple, mask: int) -> tuple:
    """The cells whose bits `mask` sets, in config order."""
    out = []
    while mask:
        low = mask & -mask
        out.append(cells[low.bit_length() - 1])
        mask ^= low
    return tuple(out)


def maximal_subtable(beh: Behavior, c=None, d=None) -> SliceTable:
    """Greatest sub-table of the behavior valid for friend records (c, d).

    Starts from the behavior masked by the reading constraints, then zeroes
    the witnessed side of any cross-setting marginal mismatch until a
    fixpoint.  Valid sub-tables are union-closed, so the fixpoint is the
    union of them all.  The slice is kept as a mask over the config's
    `cell_index`, starting from the behavior's `cell_mask`; the reading
    rule removes the config's `off_record` mask of each friend's record.
    The mask is decoded to cells for the record.
    """
    cfg = beh.config
    index = cfg.cell_index
    mask = beh.cell_mask
    steps: list[RemovalStep] = []

    for wing, record in zip(cfg.wings, (c, d)):
        # a bool would pass as 0 or 1, which labels never are
        if isinstance(record, bool) or record not in (wing.outcomes if wing.friend else (None,)):
            r, o = wing.record.lower(), wing.outcome.lower()
            raise ValueError(f"{r}={record!r}: expected one of {o}_values when friend_{o} "
                             "is set, else None")
        if not wing.friend:
            continue
        killed = mask & index.off_record[wing.index][record]
        if killed:
            mask ^= killed
            steps.append(RemovalStep(
                "reading", _cells_of(index.cells, killed),
                f"at {wing.setting}={wing.read} {wing.name} reads {wing.record}={record}, "
                f"so {wing.outcome}={record} is forced",
            ))

    label = _cd_label(cfg, c, d)
    alice, bob = cfg.wings
    changed = True
    while changed:
        changed = False
        # an event's possibility must not depend on the other party's setting;
        # Bob's events go first, which fixes the order of the trace
        for wing, other in ((bob, alice), (alice, bob)):
            for (outcome, setting), columns in index.events[wing.index].items():
                hits = [mask & col for col in columns.values()]
                if all(hits) or not any(hits):
                    continue
                dead = next(s for s, hit in zip(columns, hits) if not hit)
                for s, killed in zip(columns, hits):
                    if killed:
                        mask ^= killed
                        steps.append(RemovalStep(
                            "marginal", _cells_of(index.cells, killed),
                            f"({wing.outcome}={outcome}, {wing.setting}={setting}, {label}) "
                            f"is impossible at {other.setting}={dead} "
                            f"but was possible at {other.setting}={s}",
                        ))
                changed = True

    return SliceTable((c, d), frozenset(cell for cell, b in index.bit.items() if mask & b),
                      tuple(steps))


def plf_feasible(beh: Behavior) -> Verdict:
    """Decide PLF feasibility; witness table or per-(c, d) refutation trace."""
    cfg = beh.config
    # one call per slice through the module global, which bench/tracing.py
    # wraps to time each slice
    slices = {cd: maximal_subtable(beh, *cd) for cd in cd_values(cfg)}

    # the slices keep only possible cells: they cover them all iff they hold as many
    covered = frozenset().union(*(sl.cells for sl in slices.values()))
    if len(covered) == beh.cell_mask.bit_count():
        return Verdict(True, ExtendedTable(cfg, {cd: sl.cells for cd, sl in slices.items()}), None)

    # the target is possible and in no slice, so every slice's log removes it
    target = next(cell for cell in _cells_of(cfg.cell_index.cells, beh.cell_mask)
                  if cell not in covered)
    branches = tuple(
        (cd, sl.steps[:next(i for i, s in enumerate(sl.steps) if target in s.cells) + 1])
        for cd, sl in slices.items())
    return Verdict(False, None, ProofTrace(target_cell=target, branches=branches))


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
    """Full invariant check of a witness table against a behavior, over
    sets of cells read from `wings`, never from the cell index."""
    cfg = t.config
    if cfg != beh.config:
        raise ConfigMismatch("extended table and behavior configs differ")
    if t.slices.keys() != set(cd_values(cfg)):
        return False

    covered = set()
    for (c, d), sl in t.slices.items():
        covered |= sl
        for wing, record in zip(cfg.wings, (c, d)):
            for (outcome, setting), columns in wing.events.items():
                margs = {not sl.isdisjoint(col) for col in columns.values()}
                # one value in every column; at the read setting only the record's
                # outcome may be possible
                if len(margs) > 1 or (True in margs and wing.friend
                                      and setting == wing.read and outcome != record):
                    return False

    # a Behavior has a possible cell in every context, so coverage gives the table one too
    return covered == {cell for cell, v in beh.possible.items() if v}
