import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from plfkit.quantum import HARDY_BASES, HARDY_CONFIG, HARDY_STATE, born_table, hardy_behavior
from plfkit.scenario import check_pns


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
        table = born_table(HARDY_STATE, HARDY_BASES)
        for (a, b, x, y), p in table.items():
            assert isinstance(p, Fraction)
            assert p == symbolic_prob(a, b, x, y)


class TestStateAndEffects:
    def test_hardy_state_normalized(self):
        # the unnormalised state has |psi|^2 = 3, i.e. each amplitude is 1/sqrt(3)
        assert HARDY_STATE == (1, 1, 1, 0)
        assert sum(v * v for v in HARDY_STATE) == 3

    def test_record11_amplitude_absent(self):
        assert HARDY_STATE[3] == 0

    def test_overlap_with_equal_superposition_of_first_two(self):
        # |<other|psi>|^2 for other = (|00> + |01>)/sqrt(2) = |0> (x) |+>: Alice
        # reads record 0 (x = 1, a = 0) and Bob finds + (y = 2, b = 0)
        assert born_table(HARDY_STATE, HARDY_BASES)[(0, 0, 1, 2)] == Fraction(2, 3)

    def test_setting1_outcome0_is_record_projector(self):
        # setting 1 is the record basis, outcome 0 the record-0 state
        assert [wing[1] for wing in HARDY_BASES] == [((1, 0), (0, 1))] * 2

    def test_setting2_outcome0_is_plus_projector(self):
        # setting 2 is the +- basis, outcome 0 the + state
        assert [wing[2] for wing in HARDY_BASES] == [((1, 1), (1, -1))] * 2

    @pytest.mark.parametrize("party", ["A", "B"])
    @pytest.mark.parametrize("setting", [1, 2])
    def test_effects_complete_hermitian_idempotent(self, party, setting):
        # each outcome vector u is the projector u u^T / |u|^2 on the party's
        # factor of the Alice-lab-major joint space
        eye = np.eye(2, dtype=int)
        wing = HARDY_BASES["AB".index(party)]
        projectors = [np.outer(u, u).astype(object) * Fraction(1, int(np.dot(u, u)))
                      for u in wing[setting]]
        effects = [np.kron(m, eye) if party == "A" else np.kron(eye, m) for m in projectors]
        assert (sum(effects) == np.eye(4, dtype=int)).all()
        for m in effects:
            assert (m == m.T).all()
            assert (m @ m == m).all()

    def test_non_projector_rejected(self):
        # outcome vectors that are not orthogonal make no projective measurement
        bases = (HARDY_BASES[0], {1: ((1, 0), (0, 1)), 2: ((1, 1), (1, 0))})
        with pytest.raises(ValueError, match="wing 1 setting 2: outcomes 0 and 1 are not orth"):
            born_table(HARDY_STATE, bases)

    def test_bad_arguments(self):
        # a setting with fewer outcome vectors than the wing's dimension is incomplete
        with pytest.raises(ValueError, match="wing 0 setting 2: needs 2 outcome vectors"):
            born_table(HARDY_STATE, ({1: ((1, 0), (0, 1)), 2: ((1, 1),)}, HARDY_BASES[1]))

    def test_wrong_vector_length_rejected(self):
        bases = (HARDY_BASES[0], {1: ((1, 0, 0), (0, 1, 0)), 2: ((1, 1), (1, -1))})
        with pytest.raises(ValueError, match="wing 1 setting 1: needs 2 .* of length 2"):
            born_table(HARDY_STATE, bases)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="wing 0 setting 1: outcome 1 is the zero vector"):
            born_table(HARDY_STATE, ({1: ((1, 0), (0, 0)), 2: ((1, 1), (1, -1))}, HARDY_BASES[1]))

    def test_bad_norm_rejected(self):
        # psi may have any norm but 0
        with pytest.raises(ValueError, match="state is the zero vector"):
            born_table((0, 0, 0, 0), HARDY_BASES)

    @pytest.mark.parametrize("psi", [(1, 1, 1), (1, 1, 1, 0, 0)])
    def test_wrong_state_length_rejected(self, psi):
        with pytest.raises(ValueError, match=f"state has length {len(psi)}, not 4"):
            born_table(psi, HARDY_BASES)

    def test_a_wing_with_no_setting_rejected(self):
        with pytest.raises(ValueError, match="wing 1 has no setting"):
            born_table(HARDY_STATE, (HARDY_BASES[0], {}))


class TestBornTable:
    def test_zero_probability_cells(self):
        table = born_table(HARDY_STATE, HARDY_BASES)
        for cell in [(1, 1, 1, 1), (0, 1, 1, 2), (1, 0, 2, 1)]:
            assert table[cell] == 0

    def test_headline_nonzero_is_one_twelfth(self):
        table = born_table(HARDY_STATE, HARDY_BASES)
        assert table[(1, 1, 2, 2)] == Fraction(1, 12)

    def test_reading_context_value(self):
        assert born_table(HARDY_STATE, HARDY_BASES)[(0, 0, 1, 1)] == Fraction(1, 3)

    def test_contexts_sum_to_one(self):
        table = born_table(HARDY_STATE, HARDY_BASES)
        assert set(table) == set(HARDY_CONFIG.cells())
        for (x, y) in HARDY_CONFIG.contexts():
            assert sum(table[(a, b, x, y)] for a in (0, 1) for b in (0, 1)) == 1

    def test_probabilities_in_range(self):
        assert all(0 <= p <= 1 for p in born_table(HARDY_STATE, HARDY_BASES).values())

    def test_scaled_state_and_vectors_give_the_same_table(self):
        # psi and every outcome vector enter up to scale only
        scaled = ({1: ((3, 0), (0, -2)), 2: ((2, 2), (-1, 1))}, HARDY_BASES[1])
        assert born_table((5, 5, 5, 0), scaled) == born_table(HARDY_STATE, HARDY_BASES)

    def test_first_wing_is_most_significant(self):
        # index 2*c + d holds Alice's record c and Bob's record d: psi = |0>|1>
        table = born_table((0, 1, 0, 0), HARDY_BASES)
        assert table[(0, 1, 1, 1)] == 1


class TestGraphState:
    """Three wings: the graph state psi[a,b,c] = (-1)^(ab+bc+ca) read in Z or X."""

    PSI = tuple((-1) ** (a * b + b * c + c * a) for a in (0, 1) for b in (0, 1) for c in (0, 1))
    WING = {"Z": ((1, 0), (0, 1)), "X": ((1, 1), (1, -1))}

    def test_supports(self):
        table = born_table(self.PSI, (self.WING,) * 3)
        outcomes = list(itertools.product((0, 1), repeat=3))
        even = {o for o in outcomes if sum(o) % 2 == 0}
        odd = set(outcomes) - even
        expected = {"XZZ": even, "ZXZ": even, "ZZX": even, "XXX": odd}
        for settings in itertools.product("ZX", repeat=3):
            support = {o for o in outcomes if table[o + settings]}
            assert support == expected.get("".join(settings), set(outcomes)), settings


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
        assert hardy_behavior(table=born_table(HARDY_STATE, HARDY_BASES)) == hardy_behavior()


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
        small_table = born_table(HARDY_STATE, HARDY_BASES)
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
                        assert abs(big_p - small_table[(a, b, x, y)]) <= 1e-11
