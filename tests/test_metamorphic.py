"""Metamorphic tests: relabelling a scenario must relabel every answer.

Swapping Alice and Bob maps a cell (a, b, x, y) to (b, a, y, x) and swaps
the parties' value lists, friend flags and read settings.  Both routes must
keep their verdict, the no-signalling violations must swap party, and each
slice's maximal sub-table must be the mirror of the mirrored slice's.

Renaming one party's outcomes (its friend's records with them), or
permuting its settings other than the read one, renames the labels in
place: each label keeps its position in the config.  Both routes must keep
their verdict, the modal route's model must map onto the renamed
problem's model and pass recheck_model there, and the certificates keep
their shape: the UnsatCore's field lengths and each slice's kept cells.
"""

import itertools

import pytest

from plfkit.kripke import Model, recheck_model, solve_depth1
from plfkit.plfcheck import cd_values, maximal_subtable, plf_feasible
from plfkit.scenario import Behavior, ScenarioConfig, check_pns, encode
from conftest import random_behavior

SIZES = [(2, 2), (3, 2), (2, 3)]  # (settings, outcomes) per party
FRIENDS = list(itertools.product((False, True), repeat=2))


def mirror(cell):
    a, b, x, y = cell
    return (b, a, y, x)


def swap_parties(beh: Behavior) -> Behavior:
    cfg = beh.config
    swapped = ScenarioConfig(
        x_values=cfg.y_values, y_values=cfg.x_values,
        a_values=cfg.b_values, b_values=cfg.a_values,
        friend_a=cfg.friend_b, friend_b=cfg.friend_a,
        read_x=cfg.read_y, read_y=cfg.read_x,
    )
    return Behavior(swapped, {mirror(cell): v for cell, v in beh.possible.items()})


def mirror_violation(violation):
    party, outcome, (x1, y1), (x2, y2) = violation
    return ({"A": "B", "B": "A"}[party], outcome, (y1, x1), (y2, x2))


def random_config(rng, settings, outcomes, friend_a, friend_b) -> ScenarioConfig:
    """Distinct label types per party and random read settings, so a mix-up shows."""
    xs = tuple(rng.sample(range(1, 10), settings))
    ys = tuple(rng.sample("pqrst", settings))
    return ScenarioConfig(
        x_values=xs, y_values=ys,
        a_values=tuple(rng.sample(range(10), outcomes)),
        b_values=tuple(rng.sample(["L", "R", "M"], outcomes)),
        friend_a=friend_a, friend_b=friend_b,
        read_x=rng.choice(xs), read_y=rng.choice(ys),
    )


@pytest.mark.parametrize("friends", FRIENDS, ids=["none", "b", "a", "both"])
@pytest.mark.parametrize("size", SIZES, ids=["2x2", "3x2", "2x3"])
def test_party_swap(rng, size, friends):
    for _ in range(15):
        cfg = random_config(rng, *size, *friends)
        beh = random_behavior(rng, cfg, p=rng.choice([0.5, 0.7, 0.85, 0.95]))
        swapped = swap_parties(beh)

        table = plf_feasible(beh).feasible
        modal = isinstance(solve_depth1(encode(beh)), Model)
        assert table == modal
        assert plf_feasible(swapped).feasible == table
        assert isinstance(solve_depth1(encode(swapped)), Model) == modal

        violations = check_pns(beh).violations
        swapped_violations = check_pns(swapped).violations
        assert len(swapped_violations) == len(violations)
        assert set(swapped_violations) == {mirror_violation(v) for v in violations}

        for c, d in cd_values(cfg):
            assert {mirror(cell) for cell in maximal_subtable(beh, c, d).cells} \
                == maximal_subtable(swapped, d, c).cells


FIELDS = {("A", "outcome"): "a_values", ("B", "outcome"): "b_values",
          ("A", "setting"): "x_values", ("B", "setting"): "y_values"}


def rename(beh: Behavior, party: str, kind: str, mapping: dict) -> Behavior:
    """The behavior with one party's outcome or setting labels renamed in place."""
    cfg = beh.config
    field = FIELDS[party, kind]
    read = {"x_values": "read_x", "y_values": "read_y"}.get(field)
    changes = {field: tuple(mapping[v] for v in getattr(cfg, field))}
    if read:
        changes[read] = mapping.get(getattr(cfg, read), getattr(cfg, read))
    renamed = ScenarioConfig(**{**{f: getattr(cfg, f) for f in ScenarioConfig._fields}, **changes})
    i = "AB".index(party) + (2 if kind == "setting" else 0)
    return Behavior(renamed, {cell[:i] + (mapping[cell[i]],) + cell[i + 1:]: v
                              for cell, v in beh.possible.items()})


def rename_points(points, party, kind, mapping):
    """Model points with the same renaming: the outcome's and the record's
    atoms for outcomes, the setting's atom for settings."""
    wing = "AB".index(party)
    variables = {"outcome": ("AB"[wing], "CD"[wing]), "setting": ("XY"[wing],)}[kind]
    text = {str(k): str(v) for k, v in mapping.items()}
    return frozenset(tuple((var, text[val] if var in variables else val) for var, val in pt)
                     for pt in points)


def core_shape(core):
    return len(core.never_candidates), [len(points) for _, points in core.removals]


def assert_renamed_answers(beh, party, kind, mapping):
    renamed = rename(beh, party, kind, mapping)
    wing = "AB".index(party)

    table = plf_feasible(beh).feasible
    result = solve_depth1(encode(beh))
    assert isinstance(result, Model) == table
    assert plf_feasible(renamed).feasible == table
    problem = encode(renamed)
    renamed_result = solve_depth1(problem)
    assert isinstance(renamed_result, Model) == table
    if table:
        points = rename_points(result.points, party, kind, mapping)
        assert renamed_result.points == points
        assert recheck_model(problem, points)
    else:
        assert core_shape(renamed_result.core) == core_shape(result.core)

    i = wing + (2 if kind == "setting" else 0)
    for cd in cd_values(beh.config):
        new_cd = cd
        if kind == "outcome" and cd[wing] is not None:
            new_cd = cd[:wing] + (mapping[cd[wing]],) + cd[wing + 1:]
        cells = maximal_subtable(beh, *cd).cells
        assert {cell[:i] + (mapping[cell[i]],) + cell[i + 1:] for cell in cells} \
            == maximal_subtable(renamed, *new_cd).cells


@pytest.mark.parametrize("party", ["A", "B"])
@pytest.mark.parametrize("friends", FRIENDS, ids=["none", "b", "a", "both"])
@pytest.mark.parametrize("size", SIZES, ids=["2x2", "3x2", "2x3"])
def test_rename_one_party_outcomes(rng, size, friends, party):
    for _ in range(10):
        cfg = random_config(rng, *size, *friends)
        beh = random_behavior(rng, cfg, p=rng.choice([0.5, 0.7, 0.85, 0.95]))
        old = getattr(cfg, FIELDS[party, "outcome"])
        # fresh labels of the same type, in a random order against the old
        fresh = rng.sample(range(10, 20), len(old)) if party == "A" else rng.sample("uvwz", len(old))
        assert_renamed_answers(beh, party, "outcome", dict(zip(old, fresh)))


@pytest.mark.parametrize("party", ["A", "B"])
@pytest.mark.parametrize("friends", FRIENDS, ids=["none", "b", "a", "both"])
@pytest.mark.parametrize("size", [(3, 2), (4, 2), (3, 3)], ids=["3x2", "4x2", "3x3"])
def test_permute_non_read_settings(rng, size, friends, party):
    for _ in range(6):
        cfg = random_config(rng, *size, *friends)
        beh = random_behavior(rng, cfg, p=rng.choice([0.5, 0.7, 0.85, 0.95]))
        wing = cfg.wings["AB".index(party)]
        movable = [s for s in wing.settings if not (wing.friend and s == wing.read)]
        shuffled = movable[:]
        while shuffled == movable:
            rng.shuffle(shuffled)
        assert_renamed_answers(beh, party, "setting", dict(zip(wing.settings, wing.settings))
                               | dict(zip(movable, shuffled)))
