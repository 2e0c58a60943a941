import random

import pytest

from plfkit.kripke import Model, solve_depth1
from plfkit.plfcheck import (
    ConfigMismatch,
    ExtendedTable,
    cd_values,
    maximal_subtable,
    plf_feasible,
    trace_to_text,
    validate_extended_table,
)
from plfkit.scenario import Behavior, ScenarioConfig, check_pns, encode
from conftest import random_behavior
from oracles import DomainTooLarge, brute_force_feasible, enumerate_valid_slices, slice_cells_valid

BOTH_FRIENDS = ScenarioConfig(friend_a=True, friend_b=True)
NO_FRIENDS = ScenarioConfig()


def all_true(config=BOTH_FRIENDS):
    return Behavior(config, {cell: True for cell in config.cells()})


class TestMaximalSubtable:
    def test_hardy_slice_00_kills_the_target_cell(self, hardy_beh):
        sl = maximal_subtable(hardy_beh, 0, 0)
        assert sl.cells[(1, 1, 2, 2)] is False

    def test_all_possible_closed_form(self):
        beh = all_true()
        for (c, d) in cd_values(BOTH_FRIENDS):
            sl = maximal_subtable(beh, c, d)
            for (a, b, x, y), v in sl.cells.items():
                expected = (x != 1 or a == c) and (y != 1 or b == d)
                assert v == expected

    def test_matching_deterministic_behavior_is_a_fixpoint(self):
        # one possible cell per context, following the (c, d) = (0, 0) reading
        cells = [(0, 0, 1, 1), (0, 0, 1, 2), (0, 0, 2, 1), (0, 0, 2, 2)]
        beh = Behavior.from_cells(BOTH_FRIENDS, cells)
        sl = maximal_subtable(beh, 0, 0)
        assert sl.cells == beh.possible
        assert sl.steps == ()

    def test_slice_argument_validation(self, hardy_beh):
        with pytest.raises(ValueError):
            maximal_subtable(hardy_beh)  # friends require c and d
        with pytest.raises(ValueError):
            maximal_subtable(hardy_beh, 7, 0)
        with pytest.raises(ValueError):
            maximal_subtable(all_true(NO_FRIENDS), 0, 0)

    @pytest.mark.parametrize("c, d", [(True, 0), (0, False)])
    def test_bool_record_rejected(self, hardy_beh, c, d):
        # True == 1 and False == 0 on these 0/1 labels, but a bool is no label
        with pytest.raises(ValueError, match="expected one of"):
            maximal_subtable(hardy_beh, c, d)

    def test_maximality_against_enumeration(self, rng):
        for _ in range(40):
            beh = random_behavior(rng)
            cd = rng.choice(cd_values(BOTH_FRIENDS))
            union = frozenset().union(*enumerate_valid_slices(beh, *cd))
            sl = maximal_subtable(beh, *cd)
            assert {cell for cell, v in sl.cells.items() if v} == set(union)

    def test_union_closure_of_valid_subtables(self, rng):
        checked = 0
        while checked < 40:
            beh = random_behavior(rng)
            cd = rng.choice(cd_values(BOTH_FRIENDS))
            valid_tables = enumerate_valid_slices(beh, *cd)
            if len(valid_tables) < 2:
                continue
            t1, t2 = rng.sample(valid_tables, 2)
            assert slice_cells_valid(beh, *cd, t1 | t2)
            checked += 1


class TestPlfFeasible:
    def test_hardy_infeasible_with_trace(self, hardy_beh):
        verdict = plf_feasible(hardy_beh)
        assert not verdict.feasible
        assert verdict.witness is None
        trace = verdict.trace
        assert trace.target_cell == (1, 1, 2, 2)
        assert [cd for cd, _ in trace.branches] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for cd, steps in trace.branches:
            assert steps
            assert trace.target_cell in steps[-1].cells

    def test_hardy_branch_step_kinds(self, hardy_beh):
        # each record assignment dies through reading plus one marginal clash
        branches = dict(plf_feasible(hardy_beh).trace.branches)
        assert branches[(0, 0)][-1].kind == "marginal"
        assert any(s.kind == "reading" for s in branches[(0, 0)])
        assert any(s.kind == "reading" for s in branches[(1, 1)])

    def test_all_possible_feasible(self):
        verdict = plf_feasible(all_true())
        assert verdict.feasible
        assert validate_extended_table(verdict.witness, all_true())

    def test_deterministic_behavior_feasible(self):
        beh = Behavior(BOTH_FRIENDS,
                       {cell: cell[0] == 0 and cell[1] == 0 for cell in BOTH_FRIENDS.cells()})
        verdict = plf_feasible(beh)
        assert verdict.feasible
        on = {k for k, v in verdict.witness.entries.items() if v}
        assert on and all(c == 0 and d == 0 for (_, _, c, d, _, _) in on)

    def test_trace_replay_reproduces_fixpoint(self, hardy_beh, rng):
        behaviors = [hardy_beh] + [random_behavior(rng) for _ in range(20)]
        for beh in behaviors:
            for cd in cd_values(beh.config):
                sl = maximal_subtable(beh, *cd)
                replay = dict(beh.possible)
                for step in sl.steps:
                    for cell in step.cells:
                        assert replay[cell], "step kills an already-dead cell"
                        replay[cell] = False
                assert replay == dict(sl.cells)

    def test_trace_text_mentions_every_record_assignment(self, hardy_beh):
        text = trace_to_text(plf_feasible(hardy_beh).trace, hardy_beh.config)
        for c in (0, 1):
            for d in (0, 1):
                assert f"assuming C={c}, D={d}" in text

    def test_trace_json_roundtrips_through_dict(self, hardy_beh):
        trace = plf_feasible(hardy_beh).trace
        data = trace.to_dict()
        assert data["target_cell"] == [1, 1, 2, 2]
        assert len(data["branches"]) == 4


class TestBruteForce:
    def test_hardy(self, hardy_beh):
        assert brute_force_feasible(hardy_beh) is False

    def test_all_possible(self):
        assert brute_force_feasible(all_true()) is True

    def test_domain_bound(self):
        cfg = ScenarioConfig(x_values=(1, 2, 3), y_values=(1, 2, 3))
        with pytest.raises(DomainTooLarge):
            brute_force_feasible(all_true(cfg))

    def test_agreement_with_deflation_route(self, rng):
        for _ in range(150):
            beh = random_behavior(rng)
            assert plf_feasible(beh).feasible == brute_force_feasible(beh)

    def test_agreement_on_friendless_signalling_behaviors(self, rng):
        for _ in range(100):
            beh = random_behavior(rng, NO_FRIENDS, p=0.4)
            assert plf_feasible(beh).feasible == brute_force_feasible(beh)


class TestValidateExtendedTable:
    def test_witness_validates(self, rng):
        found = 0
        while found < 20:
            beh = random_behavior(rng, p=0.8)
            verdict = plf_feasible(beh)
            if verdict.feasible:
                assert validate_extended_table(verdict.witness, beh)
                found += 1

    def test_reading_violation_detected(self):
        beh = all_true()
        witness = plf_feasible(beh).witness
        # a != c (or b != d) at the reading setting in slice (0, 0): one cell, which
        # also unbalances a marginal, then a whole event of Alice's and of Bob's,
        # which keeps every marginal balanced
        for added in ([(1, 0, 1, 2)],
                      [(1, 0, 1, 1), (1, 0, 1, 2), (1, 1, 1, 2)],
                      [(0, 1, 1, 1), (0, 1, 2, 1), (1, 1, 2, 1)]):
            entries = dict(witness.entries)
            for a, b, x, y in added:
                entries[(a, b, 0, 0, x, y)] = True
            assert not validate_extended_table(ExtendedTable(beh.config, entries), beh)

    def test_lost_coverage_detected(self):
        beh = all_true()
        witness = plf_feasible(beh).witness
        entries = dict(witness.entries)
        # (0, 0 | 2, 2) is covered by every slice; kill it everywhere
        for (c, d) in cd_values(beh.config):
            entries[(0, 0, c, d, 2, 2)] = False
        assert not validate_extended_table(ExtendedTable(beh.config, entries), beh)

    def test_config_mismatch_raises(self, hardy_beh):
        witness = plf_feasible(all_true()).witness
        with pytest.raises(ConfigMismatch):
            validate_extended_table(
                ExtendedTable(NO_FRIENDS, witness.entries), hardy_beh)


class TestRouteEquivalences:
    def test_table_route_matches_modal_route(self, rng):
        for _ in range(120):
            beh = random_behavior(rng)
            table = plf_feasible(beh).feasible
            modal = isinstance(solve_depth1(encode(beh)), Model)
            assert table == modal

    def test_friendless_reduction_to_pns(self, rng):
        for _ in range(120):
            beh = random_behavior(rng, NO_FRIENDS)
            assert plf_feasible(beh).feasible == check_pns(beh).holds

    def test_friendless_reduction_exhaustive_tiny(self):
        cfg = ScenarioConfig(x_values=(1,), y_values=(1,))
        cells = cfg.cells()
        for bits in range(1, 1 << len(cells)):
            table = {cell: bool(bits >> i & 1) for i, cell in enumerate(cells)}
            beh = Behavior(cfg, table)
            assert plf_feasible(beh).feasible == check_pns(beh).holds
