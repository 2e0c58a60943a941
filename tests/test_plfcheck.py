import random

import pytest

from plfkit import plfcheck, scenario
from plfkit.kripke import Model, solve_depth1
from plfkit.plfcheck import (
    ConfigMismatch,
    ExtendedTable,
    ProofTrace,
    RemovalStep,
    SliceTable,
    Verdict,
    cd_values,
    maximal_subtable,
    plf_feasible,
    trace_to_text,
    validate_extended_table,
)
from plfkit.scenario import Behavior, ScenarioConfig, check_pns, encode
from conftest import names_reached, random_behavior
from oracles import (DomainTooLarge, brute_force_feasible, enumerate_valid_slices,
                     naive_depth1_satisfiable, slice_cells_valid)

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
        found = draws = 0
        while found < 20:  # 36 draws while the library is correct
            assert draws < 400, f"{found} of 20 feasible behaviors in {draws} draws"
            draws += 1
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

    def test_three_way_agreement_beyond_2x2(self):
        # settings x outcomes 3x3 and 4x2, both friends, random read settings;
        # the naive oracle costs tens to hundreds of ms a behavior here
        rng = random.Random(41)
        verdicts = []
        for settings, outcomes, count in [(3, 3, 2), (4, 2, 4)]:
            for _ in range(count):
                x, a = tuple(range(settings)), tuple(range(outcomes))
                cfg = ScenarioConfig(x, x, a, a, True, True, rng.choice(x), rng.choice(x))
                beh = random_behavior(rng, cfg, p=rng.choice((0.8, 0.9)))
                problem = encode(beh)
                table = plf_feasible(beh).feasible
                assert isinstance(solve_depth1(problem), Model) is table
                assert naive_depth1_satisfiable(problem) is table
                for cd in cd_values(cfg):
                    sl = maximal_subtable(beh, *cd)
                    assert slice_cells_valid(beh, *cd, [cell for cell, v in sl.cells.items() if v])
                verdicts.append((settings, table))
        assert set(verdicts) == {(3, True), (3, False), (4, True), (4, False)}

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


# -- the mask deflation against the cell-dict deflation it replaced ----------


def _reference_cd_label(cfg, c, d):
    return ", ".join(f"{wing.record}={record}" for wing, record in zip(cfg.wings, (c, d))
                     if wing.friend) or "no friends"


def _reference_maximal_subtable(beh, c=None, d=None):
    """The deflation over {cell: bool} dicts that the mask deflation replaced."""
    cfg = beh.config
    cells = dict(beh.possible)
    steps = []
    for wing, record in zip(cfg.wings, (c, d)):
        if not wing.friend:
            continue
        i, read = wing.index, wing.read
        killed = tuple(cell for cell in cfg.cells()
                       if cell[i + 2] == read and cell[i] != record and cells[cell])
        if killed:
            for cell in killed:
                cells[cell] = False
            steps.append(RemovalStep(
                "reading", killed,
                f"at {wing.setting}={read} {wing.name} reads {wing.record}={record}, "
                f"so {wing.outcome}={record} is forced",
            ))
    label = _reference_cd_label(cfg, c, d)
    alice, bob = cfg.wings
    changed = True
    while changed:
        changed = False
        for wing, other in ((bob, alice), (alice, bob)):
            for (outcome, setting), columns in wing.events.items():
                marg = {s: any(cells[cell] for cell in col) for s, col in columns.items()}
                if any(marg.values()) and not all(marg.values()):
                    dead = next(s for s, m in marg.items() if not m)
                    for s, col in columns.items():
                        if marg[s]:
                            killed = tuple(cell for cell in col if cells[cell])
                            for cell in killed:
                                cells[cell] = False
                            steps.append(RemovalStep(
                                "marginal", killed,
                                f"({wing.outcome}={outcome}, {wing.setting}={setting}, {label}) "
                                f"is impossible at {other.setting}={dead} "
                                f"but was possible at {other.setting}={s}",
                            ))
                            changed = True
    return SliceTable(cd=(c, d), cells=cells, steps=tuple(steps))


def _reference_plf_feasible(beh):
    cfg = beh.config
    slices = {cd: _reference_maximal_subtable(beh, *cd) for cd in cd_values(cfg)}
    uncovered = [cell for cell in cfg.cells()
                 if beh.possible[cell] and not any(s.cells[cell] for s in slices.values())]
    if not uncovered:
        entries = {(a, b, c, d, x, y): v
                   for (c, d), sl in slices.items() for (a, b, x, y), v in sl.cells.items()}
        return Verdict(True, ExtendedTable(cfg, entries), None)
    target = uncovered[0]
    branches = []
    for cd in cd_values(cfg):
        branch = []
        for step in slices[cd].steps:
            branch.append(step)
            if target in step.cells:
                break
        branches.append((cd, tuple(branch)))
    return Verdict(False, None, ProofTrace(target_cell=target, branches=tuple(branches)))


def _labels(rng, n, prefix):
    return tuple(range(n)) if rng.random() < 0.5 else tuple(f"{prefix}{i}" for i in range(n))


def _random_config(rng, friend_a, friend_b):
    x, y = _labels(rng, rng.randint(1, 3), "x"), _labels(rng, rng.randint(1, 3), "y")
    return ScenarioConfig(x_values=x, y_values=y,
                          a_values=_labels(rng, rng.randint(1, 3), "a"),
                          b_values=_labels(rng, rng.randint(1, 3), "b"),
                          friend_a=friend_a, friend_b=friend_b,
                          read_x=rng.choice(x), read_y=rng.choice(y))


@pytest.mark.parametrize("friend_a, friend_b",
                         [(False, False), (True, False), (False, True), (True, True)])
def test_mask_deflation_matches_the_cell_dict_reference(friend_a, friend_b):
    rng = random.Random(1300 + 2 * friend_a + friend_b)
    verdicts, kinds = set(), set()
    for _ in range(100):
        cfg = _random_config(rng, friend_a, friend_b)
        beh = random_behavior(rng, cfg, p=rng.uniform(0.3, 1.0))
        for cd in cd_values(cfg):
            sl, ref = maximal_subtable(beh, *cd), _reference_maximal_subtable(beh, *cd)
            assert sl == ref
            assert list(sl.cells.items()) == list(ref.cells.items())
            kinds.update(step.kind for step in sl.steps)
        verdict, ref = plf_feasible(beh), _reference_plf_feasible(beh)
        assert verdict == ref
        if verdict.feasible:
            assert list(verdict.witness.entries.items()) == list(ref.witness.entries.items())
        else:
            assert verdict.trace.to_dict() == ref.trace.to_dict()
        verdicts.add(verdict.feasible)
    assert verdicts == {True, False}
    assert kinds == ({"reading", "marginal"} if friend_a or friend_b else {"marginal"})


# -- the witness check against the key-set check it replaced -----------------


def _reference_validate_extended_table(t, beh):
    cfg = t.config
    if cfg != beh.config:
        raise ConfigMismatch("extended table and behavior configs differ")
    cds = cd_values(cfg)
    if set(t.entries) != {(a, b, c, d, x, y) for a, b, x, y in cfg.cells() for c, d in cds}:
        return False
    for (c, d) in cds:
        for wing, record in zip(cfg.wings, (c, d)):
            for (outcome, setting), columns in wing.events.items():
                margs = {any(t.entries[(a, b, c, d, x, y)] for a, b, x, y in col)
                         for col in columns.values()}
                if len(margs) > 1 or (True in margs and wing.friend
                                      and setting == wing.read and outcome != record):
                    return False
    # the OR over (c, d), as a behavior-shaped table
    marginal = {cell: False for cell in cfg.cells()}
    for (a, b, c, d, x, y), v in t.entries.items():
        if v:
            marginal[(a, b, x, y)] = True
    return marginal == beh.possible


def _mutants(rng, entries):
    """The entries, then tables that differ from them in one way each."""
    key = rng.choice(list(entries))
    a, b, c, d, x, y = key
    foreign = ("foreign", b, c, d, x, y)

    def changed(drop, add):
        out = {k: v for k, v in entries.items() if k != drop}
        out.update(add)
        return out

    yield entries
    yield changed(key, {})  # a dropped key
    yield changed(key, {foreign: entries[key]})  # a foreign key, same count
    yield changed(key, {key[:5]: entries[key]})  # a short key, same count
    yield changed(None, {foreign: False})  # an extra key
    if type(a) is int and a in (0, 1):  # a bool in a key equals its int
        yield changed(key, {(bool(a), b, c, d, x, y): entries[key]})
    # truthy and falsy values that are not bools
    yield {k: rng.choice((1, "x")) if v else rng.choice((0, "", None)) for k, v in entries.items()}
    flipped = rng.sample(list(entries), rng.randint(1, min(3, len(entries))))
    yield changed(None, {k: not entries[k] for k in flipped})  # flipped cells
    # flipped cells, written as values that are not bools
    yield changed(None, {k: rng.choice((0, None)) if entries[k] else rng.choice((1, "x"))
                         for k in flipped})


@pytest.mark.parametrize("friend_a, friend_b",
                         [(False, False), (True, False), (False, True), (True, True)])
def test_witness_check_matches_the_key_set_reference(friend_a, friend_b):
    rng = random.Random(1500 + 2 * friend_a + friend_b)
    verdicts = set()
    for _ in range(60):
        cfg = _random_config(rng, friend_a, friend_b)
        beh = random_behavior(rng, cfg, p=rng.uniform(0.5, 1.0))
        other = random_behavior(rng, cfg, p=rng.uniform(0.5, 1.0))
        verdict = plf_feasible(beh)
        # the witness, or the slice maxima that fail to cover the behavior
        entries = verdict.witness.entries if verdict.feasible else {
            (a, b, c, d, x, y): v for c, d in cd_values(cfg)
            for (a, b, x, y), v in maximal_subtable(beh, c, d).cells.items()}
        for mutant in _mutants(rng, entries):
            t = ExtendedTable(cfg, mutant)
            for target in (beh, other):
                expected = _reference_validate_extended_table(t, target)
                assert validate_extended_table(t, target) is expected
                verdicts.add(expected)
    assert verdicts == {True, False}


# -- the checks stay on cell lists; the benchmark's span stays in place --------


def test_checks_and_oracles_never_reach_the_cell_index():
    import oracles
    modules = (plfcheck, scenario, oracles)
    index_names = {"cell_index", "CellIndex", "_mask", "_cells_of", "_possible_mask"}
    assert {"cell_index", "_mask", "_possible_mask"} <= names_reached(modules, plf_feasible)
    deciders = (check_pns, validate_extended_table, oracles.naive_depth1_satisfiable,
                oracles.set_satisfies, oracles.slice_cells_valid, oracles.enumerate_valid_slices,
                oracles.brute_force_feasible, oracles.naive_evaluate)
    reached = names_reached(modules, *deciders)
    assert {"wings", "events", "cells"} <= reached
    assert not reached & index_names


@pytest.mark.parametrize("config", [NO_FRIENDS, ScenarioConfig(friend_a=True),
                                    ScenarioConfig(friend_b=True), BOTH_FRIENDS])
def test_plf_feasible_deflates_each_slice_through_the_module_global(config, monkeypatch, rng):
    # the benchmark times each slice by wrapping plfcheck.maximal_subtable
    calls = []
    original = plfcheck.maximal_subtable

    def counting(beh, *cd):
        calls.append(cd)
        return original(beh, *cd)

    monkeypatch.setattr(plfcheck, "maximal_subtable", counting)
    for _ in range(10):
        calls.clear()
        plf_feasible(random_behavior(rng, config))
        assert calls == cd_values(config)
