"""Metamorphic tests: relabelling a scenario must relabel every answer.

Swapping Alice and Bob maps a cell (a, b, x, y) to (b, a, y, x) and swaps
the parties' value lists, friend flags and read settings.  Both routes must
keep their verdict, the no-signalling violations must swap party, and each
slice's maximal sub-table must be the mirror of the mirrored slice's.
"""

import itertools

import pytest

from plfkit.kripke import Model, solve_depth1
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


def kept(sl):
    return {cell for cell, v in sl.cells.items() if v}


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
            assert {mirror(cell) for cell in kept(maximal_subtable(beh, c, d))} \
                == kept(maximal_subtable(swapped, d, c))
