import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from plfkit.quantum import (
    HARDY_CONFIG,
    Effect,
    NormalizationError,
    StateVector,
    born_table,
    hardy_behavior,
    hardy_state,
    measurement_effects,
)
from plfkit.scenario import check_pns

TOL = 1e-12


# ---------------------------------------------------------------------------
# Symbolic oracle: every effect here is a rank-1 projector onto a product of
# single-lab vectors, so P(a,b|x,y) = |<phi_a phi_b|Psi>|^2 with exact surds.
# Written before and independently of the numeric path.
# ---------------------------------------------------------------------------

_SQ2 = sp.sqrt(2)
_SYM_VECTORS = {
    # (setting, outcome) -> lab vector in the record basis
    (1, 0): (sp.Integer(1), sp.Integer(0)),
    (1, 1): (sp.Integer(0), sp.Integer(1)),
    (2, 0): (1 / _SQ2, 1 / _SQ2),
    (2, 1): (1 / _SQ2, -1 / _SQ2),
}
_SYM_STATE = {(0, 0): 1 / sp.sqrt(3), (0, 1): 1 / sp.sqrt(3),
              (1, 0): 1 / sp.sqrt(3), (1, 1): sp.Integer(0)}


def symbolic_prob(a, b, x, y):
    va = _SYM_VECTORS[(x, a)]
    vb = _SYM_VECTORS[(y, b)]
    amp = sp.simplify(sum(sp.conjugate(va[c]) * sp.conjugate(vb[d]) * _SYM_STATE[(c, d)]
                          for c in (0, 1) for d in (0, 1)))
    return sp.simplify(sp.Abs(amp) ** 2)


class TestSymbolicOracle:
    def test_headline_overlap_is_minus_half_over_sqrt3(self):
        va = _SYM_VECTORS[(2, 1)]
        vb = _SYM_VECTORS[(2, 1)]
        amp = sp.simplify(sum(va[c] * vb[d] * _SYM_STATE[(c, d)]
                              for c in (0, 1) for d in (0, 1)))
        assert sp.simplify(amp + 1 / (2 * sp.sqrt(3))) == 0

    def test_exact_values(self):
        assert symbolic_prob(1, 1, 2, 2) == sp.Rational(1, 12)
        assert symbolic_prob(0, 0, 1, 1) == sp.Rational(1, 3)
        assert symbolic_prob(1, 1, 1, 1) == 0
        assert symbolic_prob(0, 1, 1, 2) == 0
        assert symbolic_prob(1, 0, 2, 1) == 0

    def test_full_table_matches_numeric(self):
        table = born_table(hardy_state())
        for (a, b, x, y), p in table.probs.items():
            assert isinstance(p, Fraction)
            assert p == symbolic_prob(a, b, x, y)


class TestStateAndEffects:
    def test_hardy_state_normalized(self):
        rho = hardy_state().density
        assert sum(rho[i][i] for i in range(4)) == 1

    def test_record11_amplitude_absent(self):
        rho = hardy_state().density
        assert all(rho[3][i] == 0 == rho[i][3] for i in range(4))

    def test_overlap_with_equal_superposition_of_first_two(self):
        # |<other|psi>|^2 = <other| rho |other> for other = (|00> + |01>)/sqrt(2)
        rho = hardy_state().density
        assert sum(rho[i][j] for i in (0, 1) for j in (0, 1)) / 2 == Fraction(2, 3)

    def test_bad_norm_rejected(self):
        # |v><v| for the unnormalised v = |00> + |01>
        v = (1, 1, 0, 0)
        with pytest.raises(NormalizationError):
            StateVector(tuple(tuple(a * b for b in v) for a in v))

    def test_setting1_outcome0_is_record_projector(self):
        eff = measurement_effects(1)[0]
        assert eff.matrix == ((1, 0), (0, 0))

    def test_setting2_outcome0_is_plus_projector(self):
        eff = measurement_effects(2)[0]
        half = Fraction(1, 2)
        assert eff.matrix == ((half, half), (half, half))

    @pytest.mark.parametrize("party", ["A", "B"])
    @pytest.mark.parametrize("setting", [1, 2])
    def test_effects_complete_hermitian_idempotent(self, party, setting):
        # each effect acts on the party's factor of the Alice-lab-major joint space
        eye = np.eye(2, dtype=int)
        effects = [np.kron(m, eye) if party == "A" else np.kron(eye, m)
                   for m in (np.array(e.matrix, dtype=object) for e in measurement_effects(setting))]
        assert (sum(effects) == np.eye(4, dtype=int)).all()
        for m in effects:
            assert (m == m.T).all()
            assert (m @ m == m).all()

    @pytest.mark.parametrize("cls", [StateVector, Effect])
    def test_non_symmetric_rejected(self, cls):
        # idempotent with trace 1, but not symmetric
        with pytest.raises(ValueError, match="not symmetric"):
            cls(((1, 1), (0, 0)))

    def test_non_projector_rejected(self):
        with pytest.raises(ValueError):
            Effect(np.array([[0.5, 0.0], [0.0, 0.5]]) * 0.5)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            measurement_effects(3)

    def test_bool_setting_rejected(self):
        # True == 1, but a bool names no setting
        with pytest.raises(ValueError):
            measurement_effects(True)


class TestBornTable:
    def test_zero_probability_cells(self):
        table = born_table(hardy_state())
        for cell in [(1, 1, 1, 1), (0, 1, 1, 2), (1, 0, 2, 1)]:
            assert abs(table.probs[cell]) <= TOL

    def test_headline_nonzero_is_one_twelfth(self):
        table = born_table(hardy_state())
        assert abs(table.probs[(1, 1, 2, 2)] - 1 / 12) <= TOL

    def test_reading_context_value(self):
        assert abs(born_table(hardy_state()).probs[(0, 0, 1, 1)] - 1 / 3) <= TOL

    def test_contexts_sum_to_one(self):
        table = born_table(hardy_state())
        for (x, y) in HARDY_CONFIG.contexts():
            total = sum(table.probs[(a, b, x, y)] for a in (0, 1) for b in (0, 1))
            assert abs(total - 1.0) <= 1e-9

    def test_probabilities_in_range(self):
        assert all(-TOL <= p <= 1 + TOL for p in born_table(hardy_state()).probs.values())


class TestHardyBehavior:
    def test_exactly_three_impossible_cells(self):
        beh = hardy_behavior()
        impossible = {cell for cell, v in beh.possible.items() if not v}
        assert impossible == {(1, 1, 1, 1), (0, 1, 1, 2), (1, 0, 2, 1)}

    def test_headline_cell_possible(self):
        assert hardy_behavior().possible[(1, 1, 2, 2)]

    def test_pns_holds(self):
        assert check_pns(hardy_behavior()).holds

    def test_given_table_gives_the_same_behavior(self):
        assert hardy_behavior(table=born_table(hardy_state())) == hardy_behavior()


class TestFriendLabEquivalence:
    """The qubit lab model against the explicit ready-state construction.

    Each lab is system qubit (x) memory qubit; the friend's measurement is
    the unitary copying the system value into the memory, after which the
    record states are |c>|c>.  All superobserver effects act inside the
    span of those, so both constructions give identical tables.
    """

    @staticmethod
    def _lift(vec2):
        # lab vector in record basis -> 4-dim lab vector, record c -> |c>|c>
        out = np.zeros(4, dtype=complex)
        out[0] = vec2[0]   # |00>
        out[3] = vec2[1]   # |11>
        return out

    def test_tables_agree(self):
        copy = np.eye(4, dtype=complex)[:, [0, 1, 3, 2]]  # system-controlled copy
        s = 1 / math.sqrt(3)
        psi_systems = np.array([s, s, s, 0.0], dtype=complex)  # S_A (x) S_B
        ready = np.zeros(2, dtype=complex)
        ready[0] = 1.0

        # order factors as S_A, F_A, S_B, F_B; start both memories ready
        amp = np.zeros(16, dtype=complex)
        for sa in (0, 1):
            for sb in (0, 1):
                vec = np.zeros(16, dtype=complex)
                base = np.kron(np.kron(np.eye(2)[sa], ready), np.kron(np.eye(2)[sb], ready))
                amp += psi_systems[2 * sa + sb] * base
        big_state = np.kron(copy, copy) @ amp.reshape(16)

        lab_vectors = {
            (1, 0): np.array([1, 0], dtype=complex),
            (1, 1): np.array([0, 1], dtype=complex),
            (2, 0): np.array([1, 1], dtype=complex) / math.sqrt(2),
            (2, 1): np.array([1, -1], dtype=complex) / math.sqrt(2),
        }
        small_table = born_table(hardy_state())
        eye4 = np.eye(4, dtype=complex)
        for x in (1, 2):
            for y in (1, 2):
                for a in (0, 1):
                    for b in (0, 1):
                        va = self._lift(lab_vectors[(x, 0)])
                        vb = self._lift(lab_vectors[(y, 0)])
                        pa = np.outer(va, va.conj())
                        pb = np.outer(vb, vb.conj())
                        ea = pa if a == 0 else eye4 - pa
                        eb = pb if b == 0 else eye4 - pb
                        big_p = np.vdot(big_state, np.kron(ea, eb) @ big_state).real
                        assert abs(big_p - small_table.probs[(a, b, x, y)]) <= 1e-11
