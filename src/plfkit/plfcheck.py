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

from itertools import compress
from typing import Mapping, Optional

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
    """One elimination during slice deflation."""

    _fields = ("kind", "cells", "detail")
    kind: str  # "reading" or "marginal"
    cells: tuple  # killed (a, b, x, y) cells
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "cells": [list(c) for c in self.cells], "detail": self.detail}


class SliceTable(Record):
    """Maximal valid sub-table for one (c, d), with its elimination log."""

    _fields = ("cd", "cells", "steps")
    cd: tuple
    cells: Mapping[tuple, bool]
    steps: tuple


class ExtendedTable(Record):
    """Joint possibility table over (a, b, c, d, x, y).

    Keys always have six slots; c (resp. d) is None when the corresponding
    friend is absent.  Invariants are checked by validate_extended_table,
    not by the constructor, so counterexample tables can be built in tests.
    """

    _fields = ("config", "entries")
    config: ScenarioConfig
    entries: Mapping[tuple, bool]


class ProofTrace(Record):
    """Infeasibility certificate: a possible cell no slice can retain."""

    _fields = ("target_cell", "branches")
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


class Verdict(Record):
    _fields = ("feasible", "witness", "trace")
    feasible: bool
    witness: Optional[ExtendedTable]
    trace: Optional[ProofTrace]

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


def _possible_mask(beh: Behavior) -> int:
    """The behavior's possible cells as a mask over its config's `cell_index`."""
    bit = beh.config.cell_index.bit
    return sum(compress(bit.values(), map(beh.possible.__getitem__, bit)))


def maximal_subtable(beh: Behavior, c=None, d=None) -> SliceTable:
    """Greatest sub-table of the behavior valid for friend records (c, d).

    Starts from the behavior masked by the reading constraints, then zeroes
    the witnessed side of any cross-setting marginal mismatch until a
    fixpoint.  Valid sub-tables are union-closed, so the fixpoint is the
    union of them all.  The slice is kept as a mask over the config's
    `cell_index` and decoded to cells for the record; the mask is also
    stored on the result as `_mask`.
    """
    cfg = beh.config
    index = cfg.cell_index
    mask = _possible_mask(beh)
    steps: list[RemovalStep] = []

    for wing, record in zip(cfg.wings, (c, d)):
        # a bool would pass as 0 or 1, which labels never are
        if isinstance(record, bool) or record not in (wing.outcomes if wing.friend else (None,)):
            r, o = wing.record.lower(), wing.outcome.lower()
            raise ValueError(f"{r}={record!r}: expected one of {o}_values when friend_{o} "
                             "is set, else None")
        if not wing.friend:
            continue
        events = index.events[wing.index]
        # the read setting's cells whose outcome is not the record
        off_record = sum(col for o in wing.outcomes if o != record
                         for col in events[(o, wing.read)].values())
        killed = mask & off_record
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

    sl = SliceTable((c, d), {cell: (mask & b) != 0 for cell, b in index.bit.items()},
                    tuple(steps))
    object.__setattr__(sl, "_mask", mask)
    return sl


def plf_feasible(beh: Behavior) -> Verdict:
    """Decide PLF feasibility; witness table or per-(c, d) refutation trace."""
    cfg = beh.config
    # one call per slice through the module global, which bench/tracing.py
    # wraps to time each slice
    slices = {cd: maximal_subtable(beh, *cd) for cd in cd_values(cfg)}

    covered = 0
    for sl in slices.values():
        covered |= sl._mask
    uncovered = _possible_mask(beh) & ~covered
    if not uncovered:
        entries = {(a, b, c, d, x, y): v
                   for (c, d), sl in slices.items() for (a, b, x, y), v in sl.cells.items()}
        return Verdict(True, ExtendedTable(cfg, entries), None)

    target = _cells_of(cfg.cell_index.cells, uncovered)[0]
    branches = []
    for cd, sl in slices.items():
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

    cells, cds, entries = cfg.cells(), cd_values(cfg), t.entries
    # as many keys as expected and each expected key there: the same key set
    if len(entries) != len(cells) * len(cds):
        return False

    marginal = dict.fromkeys(cells, False)
    for (c, d) in cds:
        # the slice keyed like the behavior, its possible cells ORed into the marginal
        sl = {}
        for cell in cells:
            a, b, x, y = cell
            key = (a, b, c, d, x, y)
            if key not in entries:
                return False
            v = sl[cell] = entries[key]
            if v:
                marginal[cell] = True
        for wing, record in zip(cfg.wings, (c, d)):
            for (outcome, setting), columns in wing.events.items():
                margs = {any(map(sl.__getitem__, col)) for col in columns.values()}
                # one value in every column; at the read setting only the record's
                # outcome may be possible
                if len(margs) > 1 or (True in margs and wing.friend
                                      and setting == wing.read and outcome != record):
                    return False

    # a Behavior has a possible cell in every context, so coverage gives the table one too
    return marginal == beh.possible
