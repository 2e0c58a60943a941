"""Quantum model of the Hardy-type counterexample, in exact arithmetic.

Each friend's sealed lab is modeled as a qubit: after the friend's
measurement the lab state lies in the span of the two record states, and
every superobserver effect acts within that span, so the two-dimensional
model is exact (the explicit ready-state/isometry construction is kept as
a cross-check in the test suite).

The Born rule is taken over vectors: a rational state psi, not normalised,
first wing most significant (index 2*c + d holds Alice's record c and Bob's
record d), and per wing and setting an orthogonal basis of rational outcome
vectors u give P = <u_1 (x) u_2 (x) ..., psi>^2 / (|psi|^2 |u_1|^2 |u_2|^2 ...)
as an exact `Fraction`: the Hardy zeros are exactly 0, the headline value 1/12.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .scenario import Behavior, ScenarioConfig

__all__ = ["HARDY_BASES", "HARDY_CONFIG", "HARDY_STATE", "born_table", "hardy_behavior"]

HARDY_CONFIG = ScenarioConfig(friend_a=True, friend_b=True, read_x=1, read_y=1)

# Shared lab state (|00> + |01> + |10>)/sqrt(3): the record-(1,1) component is absent.
HARDY_STATE = (1, 1, 1, 0)

# Per wing, setting -> outcome vectors: setting 1 reads the friend's record
# (outcome 0 is the record-0 state, matching the reading protocol), setting 2
# measures the lab in the (|0> +- |1>)/sqrt(2) basis.  Alice's and Bob's alike.
HARDY_BASES = ({1: ((1, 0), (0, 1)), 2: ((1, 1), (1, -1))},) * 2


def _dot(u, v):
    return sum(p * q for p, q in zip(u, v))


def _dimension(wing: int, settings) -> int:
    """A wing's dimension, its first setting's outcome count, once every setting
    is checked to give that many nonzero, pairwise orthogonal vectors of that length."""
    if not settings:
        raise ValueError(f"wing {wing} has no setting")
    dim = len(next(iter(settings.values())))
    for setting, vectors in settings.items():
        where = f"wing {wing} setting {setting!r}"
        if len(vectors) != dim or any(len(u) != dim for u in vectors):
            raise ValueError(f"{where}: needs {dim} outcome vectors of length {dim}")
        for a, u in enumerate(vectors):
            if not any(u):
                raise ValueError(f"{where}: outcome {a} is the zero vector")
            for b in range(a):
                if _dot(u, vectors[b]):
                    raise ValueError(f"{where}: outcomes {b} and {a} are not orthogonal")
    return dim


def born_table(psi, bases) -> dict:
    """P(outcomes | settings) for the state `psi` measured in `bases`, exactly.

    `bases` holds one map per wing from setting to that setting's outcome
    vectors.  A cell is each wing's outcome, then each wing's setting, so two
    wings give (a, b, x, y).  Raises ValueError on a setting that is not an
    orthogonal basis, on a zero state or one of the wrong length, and on a
    context that does not sum to 1.
    """
    dims = [_dimension(wing, settings) for wing, settings in enumerate(bases)]
    if len(psi) != math.prod(dims):
        raise ValueError(f"state has length {len(psi)}, not {math.prod(dims)} "
                         f"(wing dimensions {dims})")
    norm = _dot(psi, psi)
    if not norm:
        raise ValueError("state is the zero vector")
    table = {}
    for settings in itertools.product(*bases):
        per_wing = [list(enumerate(wing[s])) for wing, s in zip(bases, settings)]
        total = 0
        for outcome in itertools.product(*per_wing):
            vectors = [u for _, u in outcome]
            amp = _dot(psi, map(math.prod, itertools.product(*vectors)))
            p = Fraction(amp * amp, norm * math.prod(_dot(u, u) for u in vectors))
            table[tuple(a for a, _ in outcome) + settings] = p
            total += p
        if total != 1:
            raise ValueError(f"context {settings} probabilities sum to {total}, not 1")
    return table


def hardy_behavior(*, table: dict | None = None) -> Behavior:
    """Possibility pattern of the Hardy model: a cell is possible iff P != 0.

    `table` is the model's Born table; it is computed when not given.
    """
    if table is None:
        table = born_table(HARDY_STATE, HARDY_BASES)
    return Behavior(HARDY_CONFIG, {cell: p != 0 for cell, p in table.items()})
