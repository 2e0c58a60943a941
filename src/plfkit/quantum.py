"""Quantum model of the Hardy-type counterexample, in exact arithmetic.

Each friend's sealed lab is modeled as a qubit: after the friend's
measurement the lab state lies in the span of the two record states, and
every superobserver effect acts within that span, so the two-dimensional
model is exact (the explicit ready-state/isometry construction is kept as
a cross-check in the test suite).

Every state and effect is real, and rational once written as a projector,
so matrices are tuples of `Fraction` rows and every Born probability is an
exact rational: the Hardy zeros are exactly 0, the headline value 1/12.

Basis order for the joint state is Alice-lab-major: index 2*c + d holds
the Alice record c, Bob record d basis state.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from ._record import Record
from .scenario import Behavior, ScenarioConfig

__all__ = [
    "StateVector",
    "Effect",
    "ProbTable",
    "NormalizationError",
    "hardy_state",
    "measurement_effects",
    "born_table",
    "hardy_behavior",
    "HARDY_CONFIG",
]

HARDY_CONFIG = ScenarioConfig(friend_a=True, friend_b=True, read_x=1, read_y=1)


class NormalizationError(ValueError):
    pass


def _projector(rows, what: str, unit_trace: bool = False) -> tuple:
    """`rows` as a tuple of `Fraction` rows, checked to be an orthogonal projector.

    Raises ValueError unless the matrix is square, symmetric and idempotent,
    and NormalizationError if `unit_trace` is set and the trace is not 1.
    """
    m = tuple(tuple(Fraction(v) for v in row) for row in rows)
    n = len(m)
    if not n or any(len(row) != n for row in m):
        raise ValueError(f"{what} matrix must be square")
    if unit_trace and sum(m[i][i] for i in range(n)) != 1:
        raise NormalizationError(f"{what} trace is not 1")
    if any(m[i][j] != m[j][i] for i in range(n) for j in range(i)):
        raise ValueError(f"{what} matrix is not symmetric")
    square = tuple(tuple(sum(m[i][k] * m[k][j] for k in range(n)) for j in range(n))
                   for i in range(n))
    if square != m:
        raise ValueError(f"{what} matrix is not idempotent")
    return m


class StateVector(Record):
    """Pure state held as its density matrix |psi><psi| (trace-1 projector)."""

    _fields = ("density",)
    density: tuple

    def __post_init__(self):
        object.__setattr__(self, "density", _projector(self.density, "state", unit_trace=True))


class Effect(Record):
    """Projective measurement effect (symmetric idempotent rational matrix)."""

    _fields = ("matrix",)
    matrix: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix", _projector(self.matrix, "effect"))


class ProbTable(Record):
    """Exact outcome probabilities per context; each context sums to one."""

    _fields = ("probs",)
    probs: Mapping[tuple, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "probs", dict(self.probs))
        for key, p in self.probs.items():
            if not 0 <= p <= 1:
                raise ValueError(f"probability out of range at {key}: {p}")


def hardy_state() -> StateVector:
    """Shared lab state (|00> + |01> + |10>)/sqrt(3): the record-(1,1) component is absent."""
    psi = (1, 1, 1, 0)  # times 1/sqrt(3)
    return StateVector(tuple(tuple(Fraction(u * v, 3) for v in psi) for u in psi))


# Outcome-0 projectors: setting 1 onto record 0, setting 2 onto (|0> + |1>)/sqrt(2).
_OUTCOME0 = {1: ((1, 0), (0, 0)), 2: ((Fraction(1, 2),) * 2,) * 2}


def measurement_effects(setting: int) -> list[Effect]:
    """Two-outcome projective measurement on one lab qubit, Alice's and Bob's alike.

    Setting 1 projects onto the friend's record basis (outcome 0 is the
    record-0 state, matching the reading protocol); setting 2 measures in
    the superposition basis.
    """
    if isinstance(setting, bool) or setting not in _OUTCOME0:
        raise ValueError(f"setting must be 1 or 2, got {setting!r}")
    p0 = _OUTCOME0[setting]
    p1 = tuple(tuple(int(i == j) - p0[i][j] for j in range(2)) for i in range(2))
    return [Effect(p0), Effect(p1)]


def born_table(state: StateVector) -> ProbTable:
    """P(a, b | x, y) = tr(rho (A_x(a) (x) B_y(b))) over HARDY_CONFIG, computed exactly."""
    if len(state.density) != 4:
        raise ValueError("born_table expects the 4-dimensional joint state")
    # tr(rho M) = sum of rho[i][j] * M[j][i] over the nonzero entries of rho,
    # where M = A (x) B has M[j][i] = A[j // 2][i // 2] * B[j % 2][i % 2]
    rho = [(i, j, r) for i, row in enumerate(state.density) for j, r in enumerate(row) if r]
    effects = {s: [e.matrix for e in measurement_effects(s)] for s in _OUTCOME0}
    probs = {}
    for x, effects_a in effects.items():
        for y, effects_b in effects.items():
            total = 0
            for a, ma in enumerate(effects_a):
                for b, mb in enumerate(effects_b):
                    p = sum(r * ma[j // 2][i // 2] * mb[j % 2][i % 2] for i, j, r in rho)
                    probs[(a, b, x, y)] = p
                    total += p
            if total != 1:
                raise NormalizationError(
                    f"context (x={x}, y={y}) probabilities sum to {total}, not 1")
    return ProbTable(probs)


def hardy_behavior(*, table: ProbTable | None = None) -> Behavior:
    """Possibility pattern of the Hardy model: a cell is possible iff P != 0.

    `table` is the model's Born table; it is computed when not given.
    """
    if table is None:
        table = born_table(hardy_state())
    return Behavior(HARDY_CONFIG, {cell: p != 0 for cell, p in table.probs.items()})
