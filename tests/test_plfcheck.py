import enum
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
        assert (1, 1, 2, 2) not in sl.cells

    def test_all_possible_closed_form(self):
        beh = all_true()
        for (c, d) in cd_values(BOTH_FRIENDS):
            sl = maximal_subtable(beh, c, d)
            for (a, b, x, y) in BOTH_FRIENDS.cells():
                expected = (x != 1 or a == c) and (y != 1 or b == d)
                assert ((a, b, x, y) in sl.cells) == expected

    def test_matching_deterministic_behavior_is_a_fixpoint(self):
        # one possible cell per context, following the (c, d) = (0, 0) reading
        cells = [(0, 0, 1, 1), (0, 0, 1, 2), (0, 0, 2, 1), (0, 0, 2, 2)]
        beh = Behavior.from_cells(BOTH_FRIENDS, cells)
        sl = maximal_subtable(beh, 0, 0)
        assert sl.cells == set(cells)
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
            assert sl.cells == union

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

    def test_all_possible_8x8_feasible_with_a_valid_witness(self):
        # 4,096 cells: every mask spans many machine words, so the sweep's shifts
        # carry bits across word boundaries
        labels = tuple(range(8))
        cfg = ScenarioConfig(x_values=labels, y_values=labels, a_values=labels,
                             b_values=labels, friend_a=True, friend_b=True, read_x=0, read_y=0)
        beh = all_true(cfg)
        verdict = plf_feasible(beh)
        assert verdict.feasible and len(verdict.witness.slices) == 64
        assert validate_extended_table(verdict.witness, beh)

    def test_all_possible_feasible(self):
        verdict = plf_feasible(all_true())
        assert verdict.feasible
        assert validate_extended_table(verdict.witness, all_true())

    def test_deterministic_behavior_feasible(self):
        beh = Behavior(BOTH_FRIENDS,
                       {cell: cell[0] == 0 and cell[1] == 0 for cell in BOTH_FRIENDS.cells()})
        verdict = plf_feasible(beh)
        assert verdict.feasible
        on = {cd for cd, sl in verdict.witness.slices.items() if sl}
        assert on == {(0, 0)}

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
                assert {cell for cell, v in replay.items() if v} == sl.cells

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
            slices = dict(witness.slices)
            slices[0, 0] |= frozenset(added)
            assert not validate_extended_table(ExtendedTable(beh.config, slices), beh)

    def test_lost_coverage_detected(self):
        beh = all_true()
        witness = plf_feasible(beh).witness
        # (0, 0 | 2, 2) is covered by every slice; kill it everywhere
        slices = {cd: sl - {(0, 0, 2, 2)} for cd, sl in witness.slices.items()}
        assert not validate_extended_table(ExtendedTable(beh.config, slices), beh)

    @pytest.mark.parametrize("c, d", [(True, 0), (0, False)])
    def test_bool_record_in_a_label_refused(self, c, d):
        # True == 1 and False == 0, but maximal_subtable refuses them as records
        beh = all_true()
        witness = plf_feasible(beh).witness
        slices = {(c, d) if cd == (c, d) else cd: sl for cd, sl in witness.slices.items()}
        assert slices == witness.slices and validate_extended_table(witness, beh)
        assert not validate_extended_table(ExtendedTable(beh.config, slices), beh)

    @pytest.mark.parametrize("wrong", [True, 1.0])
    def test_wrong_typed_cell_entry_refused(self, wrong):
        # (1, 0, 2, 2) is in every slice; one slice holds an equal cell instead
        beh = all_true()
        witness = plf_feasible(beh).witness
        slices = dict(witness.slices)
        slices[1, 1] = slices[1, 1] - {(1, 0, 2, 2)} | {(wrong, 0, 2, 2)}
        assert slices == witness.slices
        assert not validate_extended_table(ExtendedTable(beh.config, slices), beh)

    def test_int_subclass_labels_validate(self):
        # a label may be an int subclass; a plain int equal to it is refused
        labels = tuple(enum.IntEnum("Setting", "P Q"))
        cfg = ScenarioConfig(x_values=labels, y_values=labels, friend_a=True, friend_b=True,
                             read_x=labels[0], read_y=labels[0])
        beh = all_true(cfg)
        witness = plf_feasible(beh).witness
        assert validate_extended_table(witness, beh)
        slices = {cd: {(a, b, int(x), y) for a, b, x, y in sl} for cd, sl in witness.slices.items()}
        assert not validate_extended_table(ExtendedTable(cfg, slices), beh)

    def test_config_mismatch_raises(self, hardy_beh):
        witness = plf_feasible(all_true()).witness
        with pytest.raises(ConfigMismatch):
            validate_extended_table(
                ExtendedTable(NO_FRIENDS, witness.slices), hardy_beh)


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
                    assert slice_cells_valid(beh, *cd, sl.cells)
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
    return SliceTable(cd=(c, d), cells=frozenset(cell for cell, v in cells.items() if v),
                      steps=tuple(steps))


def _reference_plf_feasible(beh):
    cfg = beh.config
    slices = {cd: _reference_maximal_subtable(beh, *cd) for cd in cd_values(cfg)}
    uncovered = [cell for cell in cfg.cells()
                 if beh.possible[cell] and not any(cell in s.cells for s in slices.values())]
    if not uncovered:
        return Verdict(True, ExtendedTable(cfg, {cd: sl.cells for cd, sl in slices.items()}),
                       None)
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


def _random_config(rng, friend_a, friend_b, most=3):
    """Each party's settings and outcomes number 1 to `most`, each drawn alone."""
    x, y = _labels(rng, rng.randint(1, most), "x"), _labels(rng, rng.randint(1, most), "y")
    return ScenarioConfig(x_values=x, y_values=y,
                          a_values=_labels(rng, rng.randint(1, most), "a"),
                          b_values=_labels(rng, rng.randint(1, most), "b"),
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
            kinds.update(step.kind for step in sl.steps)
        verdict, ref = plf_feasible(beh), _reference_plf_feasible(beh)
        assert verdict == ref
        if verdict.feasible:
            assert list(verdict.witness.slices.items()) == list(ref.witness.slices.items())
        else:
            assert verdict.trace.to_dict() == ref.trace.to_dict()
        verdicts.add(verdict.feasible)
    assert verdicts == {True, False}
    assert kinds == ({"reading", "marginal"} if friend_a or friend_b else {"marginal"})


@pytest.mark.parametrize("friend_a, friend_b",
                         [(False, False), (True, False), (False, True), (True, True)])
def test_sweep_deflation_matches_the_cell_dict_reference_at_wider_shapes(friend_a, friend_b):
    # up to 4 settings and 4 outcomes a party: masks of up to 256 cells, and
    # shapes where one party's strides differ from the other's
    rng = random.Random(3400 + 2 * friend_a + friend_b)
    verdicts, widest = set(), 0
    for _ in range(80):
        cfg = _random_config(rng, friend_a, friend_b, most=4)
        beh = random_behavior(rng, cfg, p=rng.uniform(0.3, 1.0))
        for cd in cd_values(cfg):
            assert maximal_subtable(beh, *cd) == _reference_maximal_subtable(beh, *cd)
        verdict, ref = plf_feasible(beh), _reference_plf_feasible(beh)
        assert verdict == ref
        if not verdict.feasible:
            assert verdict.trace.to_dict() == ref.trace.to_dict()
        verdicts.add(verdict.feasible)
        widest = max(widest, len(cfg.cells()))
    assert verdicts == {True, False} and widest > 81


@pytest.mark.parametrize("friend_a, friend_b",
                         [(False, False), (True, False), (False, True), (True, True)])
def test_sweep_tables_are_the_event_columns_shifted_onto_their_base_bits(friend_a, friend_b):
    rng = random.Random(3500 + 2 * friend_a + friend_b)
    for _ in range(40):
        cfg = _random_config(rng, friend_a, friend_b, most=4)
        index = cfg.cell_index
        bit = {cell: 1 << i for i, cell in enumerate(cfg.cells())}
        for wing in cfg.wings:
            fold, spread, base, events = index.sweeps[wing.index]
            expected = {}
            for event, columns in wing.events.items():
                masks = {s: sum(bit[cell] for cell in col) for s, col in columns.items()}
                first = next(iter(masks.values()))
                low = (first & -first).bit_length() - 1
                expected[low] = (event, masks)
                # the shifts take the base bit to every cell of each column, and only there
                for k, col in zip((0, *spread), masks.values(), strict=True):
                    assert sum(1 << (low + f + k) for f in (0, *fold)) == col
            assert list(events.items()) == list(expected.items())
            assert base == sum(1 << low for low in expected)


@pytest.mark.parametrize("friend_a, friend_b",
                         [(False, False), (True, False), (False, True), (True, True)])
def test_off_record_masks_are_the_read_setting_cells_of_the_other_outcomes(friend_a, friend_b):
    rng = random.Random(1400 + 2 * friend_a + friend_b)
    for _ in range(100):
        cfg = _random_config(rng, friend_a, friend_b)
        index = cfg.cell_index
        bit = {cell: 1 << i for i, cell in enumerate(cfg.cells())}
        for wing, off_record in zip(cfg.wings, index.off_record):
            if not wing.friend:
                assert off_record == {}
                continue
            i = wing.index
            assert list(off_record) == list(wing.outcomes)
            for record, mask in off_record.items():
                assert mask == sum(bit[cell] for cell in cfg.cells()
                                   if cell[i + 2] == wing.read and cell[i] != record)


# (a, b) outcome counts whose products are mask widths on both sides of the
# interpreter's 30-bit limbs and a 64-bit word
_WIDTH_SHAPES = ((1, 1), (29, 1), (6, 5), (31, 1), (10, 6), (61, 1), (8, 8), (27, 27), (64, 64))


def test_slice_read_decodes_a_mask_as_its_bits_read_one_by_one():
    # one setting each: a slice is the possible cells whose A matches the record
    rng, empty = random.Random(3501), 0
    for na, nb in _WIDTH_SHAPES:
        cfg = ScenarioConfig(x_values=(0,), y_values=(0,), a_values=tuple(range(na)),
                             b_values=tuple(range(nb)), friend_a=True, read_x=0)
        cells = cfg.cells()
        width = len(cells)
        top = 1 << width - 1
        for mask in ((1 << width) - 1, top, top | rng.getrandbits(width)):
            beh = Behavior.from_cells(cfg, [cell for i, cell in enumerate(cells) if mask >> i & 1])
            assert beh.cell_mask == mask
            for c in {0, na - 1}:
                keep = mask & sum(1 << i for i, cell in enumerate(cells) if cell[0] == c)
                expected = frozenset(cell for i, cell in enumerate(cells) if keep >> i & 1)
                assert maximal_subtable(beh, c).cells == expected
                empty += not expected
    # the lone top cell is off the first record, so that slice is empty
    assert empty >= len(_WIDTH_SHAPES) - 1


def test_all_possible_8x8_slices_are_the_cells_their_logs_leave():
    labels = tuple(range(8))
    cfg = ScenarioConfig(x_values=labels, y_values=labels, a_values=labels, b_values=labels,
                         friend_a=True, friend_b=True, read_x=0, read_y=0)
    beh = all_true(cfg)
    for cd in cd_values(cfg):
        sl = maximal_subtable(beh, *cd)
        removed = {cell for step in sl.steps for cell in step.cells}
        assert sl.cells == frozenset(cell for cell in cfg.cells() if cell not in removed)


class _CountingReads(dict):
    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_plf_feasible_reads_the_behavior_once():
    # 9 slices and the coverage test share one possible mask per behavior
    cfg = ScenarioConfig(x_values=(0, 1, 2), y_values=(0, 1, 2), a_values=(0, 1, 2),
                         b_values=(0, 1, 2), friend_a=True, friend_b=True, read_x=0, read_y=0)
    beh = random_behavior(random.Random(1600), cfg, p=0.8)
    expected = plf_feasible(Behavior(cfg, beh.possible))
    possible = _CountingReads(beh.possible)
    object.__setattr__(beh, "possible", possible)
    assert plf_feasible(beh) == expected
    assert len(cd_values(cfg)) == 9
    assert possible.reads == len(cfg.cells())


# -- the witness check against the key-set check it replaced -----------------


def _reference_validate_extended_table(cfg, entries, beh):
    """The check over a table of six-slot keys (a, b, c, d, x, y), as the
    paper states it."""
    if cfg != beh.config:
        raise ConfigMismatch("extended table and behavior configs differ")
    cds = cd_values(cfg)
    keys = {(a, b, c, d, x, y) for a, b, x, y in cfg.cells() for c, d in cds}
    # each key with its types, so that a bool record does not pass for 0 or 1
    if {(k, *map(type, k)) for k in entries} != {(k, *map(type, k)) for k in keys}:
        return False
    for (c, d) in cds:
        for wing, record in zip(cfg.wings, (c, d)):
            for (outcome, setting), columns in wing.events.items():
                margs = {any(entries[(a, b, c, d, x, y)] for a, b, x, y in col)
                         for col in columns.values()}
                if len(margs) > 1 or (True in margs and wing.friend
                                      and setting == wing.read and outcome != record):
                    return False
    # the OR over (c, d), as a behavior-shaped table
    marginal = {cell: False for cell in cfg.cells()}
    for (a, b, c, d, x, y), v in entries.items():
        if v:
            marginal[(a, b, x, y)] = True
    return marginal == beh.possible


def _six_slot(t):
    """The six-slot keys of a table's slices: each cell of the config under
    each slice label, and each foreign cell a slice holds as one more key.
    A cell equal to a config cell with an entry of another type is foreign
    too; foreign cells go first, so that such a key keeps its types."""
    domain = {cell: cell for cell in t.config.cells()}
    return {(a, b, c, d, x, y): (a, b, x, y) in sl for (c, d), sl in t.slices.items()
            for a, b, x, y in [*(cell for cell in sl if not scenario._in_domain(domain, cell)),
                               *domain]}


def _mutants(rng, cfg, slices):
    """The slices, then tables that differ from them in one way each."""
    cd = rng.choice(list(slices))
    a, b, x, y = rng.choice(cfg.cells())

    def changed(drop, add):
        out = {k: v for k, v in slices.items() if k != drop}
        out.update(add)
        return out

    yield slices
    yield changed(cd, {})  # a dropped slice
    yield changed(None, {("foreign", cd[1]): slices[cd]})  # an extra slice label
    pairs = [(k, cell) for k in slices for cell in cfg.cells()]
    flipped = rng.sample(pairs, rng.randint(1, min(3, len(pairs))))
    out = dict(slices)
    for k, cell in flipped:
        out[k] = out[k] ^ {cell}
    yield out  # flipped cells
    yield changed(None, {cd: slices[cd] | {("foreign", b, x, y)}})  # a foreign cell
    # a bool in a label, which equals its int but is no record
    for i, record in enumerate(cd):
        if type(record) is int and record in (0, 1):
            label = (*cd[:i], bool(record), *cd[i + 1:])
            yield {label if k == cd else k: v for k, v in slices.items()}
            break
    # a cell entry that equals its label but is a bool or a float, in place of
    # the cell, which other slices may hold as it is
    held = [k for k in slices if slices[k]]
    if held:
        k = rng.choice(held)
        cell = rng.choice(sorted(slices[k], key=cfg.cells().index))
        for i, entry in enumerate(cell):
            if type(entry) is int:
                for wrong in ({0: False, 1: True}.get(entry), float(entry)):
                    if wrong is not None:
                        mutated = slices[k] - {cell} | {(*cell[:i], wrong, *cell[i + 1:])}
                        yield changed(None, {k: mutated})
                break


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
        slices = verdict.witness.slices if verdict.feasible else {
            cd: maximal_subtable(beh, *cd).cells for cd in cd_values(cfg)}
        for mutant in _mutants(rng, cfg, slices):
            t = ExtendedTable(cfg, mutant)
            for target in (beh, other):
                expected = _reference_validate_extended_table(cfg, _six_slot(t), target)
                assert validate_extended_table(t, target) is expected
                verdicts.add(expected)
    assert verdicts == {True, False}


# -- the checks stay on cell lists; the benchmark's span stays in place --------


def test_checks_and_oracles_never_reach_the_cell_index():
    import oracles
    modules = (plfcheck, scenario, oracles)
    index_names = {"cell_index", "CellIndex", "_cells_of", "cell_mask", "off_record", "sweeps"}
    assert index_names - {"CellIndex"} <= names_reached(modules, plf_feasible)
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
