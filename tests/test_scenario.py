import itertools
import json
import random
from pathlib import Path

import pytest

from plfkit.formula import Atom, Box, Diamond, Formula, Not, conj, render
from plfkit.kripke import (
    Conditional,
    Depth1Problem,
    Forbidden,
    Model,
    MustAll,
    Required,
    clause_formula,
    solve_depth1,
)
from plfkit.scenario import (
    Behavior,
    ScenarioConfig,
    behavior_from_json,
    behavior_to_json,
    check_pns,
    drop_impossibility,
    encode,
)
from conftest import random_behavior
from oracles import eval_prop

GOLDEN = Path(__file__).resolve().parent / "golden"


def atoms_of(f: Formula) -> set[Atom]:
    """All atoms occurring in f."""
    out: set[Atom] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            out.add(node)
        elif isinstance(node, (Not, Diamond, Box)):
            stack.append(node.child)
        else:
            stack.append(node.left)
            stack.append(node.right)
    return out


BOTH_FRIENDS = ScenarioConfig(friend_a=True, friend_b=True)
NO_FRIENDS = ScenarioConfig()


def all_true(config=BOTH_FRIENDS):
    return Behavior(config, {cell: True for cell in config.cells()})


class TestConfig:
    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.x_values == (1, 2)
        assert cfg.a_values == (0, 1)
        assert not cfg.friend_a

    def test_read_setting_must_be_a_setting(self):
        with pytest.raises(ValueError):
            ScenarioConfig(friend_a=True, read_x=7)

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            ScenarioConfig(x_values=())

    @pytest.mark.parametrize("kwargs, message", [
        ({"a_values": (False, True)}, "bool"),
        ({"x_values": (1, "1")}, "coincide"),
        ({"b_values": (0, 0)}, "coincide"),
        ({"y_values": (-1, 1)}, "not a label"),
        ({"a_values": (0, 1.5)}, "not a label"),
        ({"read_x": True}, "bool"),
    ])
    def test_labels_must_be_distinct_atom_values(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            ScenarioConfig(**kwargs)

    def test_integer_and_word_labels_accepted(self):
        cfg = ScenarioConfig(x_values=(0, 999), y_values=("up", "down_2"), read_x=999)
        assert cfg.x_values == (0, 999)


class TestBehavior:
    def test_must_be_total(self):
        with pytest.raises(ValueError):
            Behavior(NO_FRIENDS, {(0, 0, 1, 1): True})

    def test_empty_context_rejected(self):
        table = {cell: cell[2:] != (1, 1) for cell in NO_FRIENDS.cells()}
        with pytest.raises(ValueError):
            Behavior(NO_FRIENDS, table)

    def test_from_cells(self):
        beh = all_true()
        assert Behavior.from_cells(BOTH_FRIENDS, list(beh.possible)) == beh

    @pytest.mark.parametrize("cell", [(7, 7, 7, 7), (1, 1, 1), (True, 0, 1, 1), (1.0, 0, 1, 1)])
    def test_from_cells_rejects_cells_outside_domain(self, cell):
        with pytest.raises(ValueError, match="outside the domain"):
            Behavior.from_cells(BOTH_FRIENDS, list(BOTH_FRIENDS.cells()) + [cell])


class TestCheckPns:
    def test_hardy_holds(self, hardy_beh):
        assert check_pns(hardy_beh).holds

    def test_all_true_holds(self):
        assert check_pns(all_true()).holds

    def test_constructed_signalling(self):
        # a=0 impossible in every context except (1,2)
        table = {cell: cell[0] != 0 for cell in BOTH_FRIENDS.cells()}
        table[(0, 0, 1, 2)] = True
        report = check_pns(Behavior(BOTH_FRIENDS, table))
        assert not report.holds
        assert ("A", 0, (1, 1), (1, 2)) in report.violations


class TestEncode:
    def test_hardy_clause_counts(self, hardy_beh):
        prob = encode(hardy_beh)
        kinds = {k: sum(isinstance(c, k) for c in prob.constraints)
                 for k in (Required, Forbidden, MustAll, Conditional)}
        assert kinds[Required] == 13
        assert kinds[Forbidden] == 3
        assert kinds[MustAll] == 2
        # two interventions, one finest assignment per value of the four
        # variables outside each light cone, two intervention values: 2 * 2^4 * 2
        assert kinds[Conditional] == 64

    def test_hardy_forbidden_cells(self, hardy_beh):
        prob = encode(hardy_beh)
        forbidden = [c.body for c in prob.constraints if isinstance(c, Forbidden)]
        expected = {
            frozenset({Atom("A", "1"), Atom("B", "1"), Atom("X", "1"), Atom("Y", "1")}),
            frozenset({Atom("A", "0"), Atom("B", "1"), Atom("X", "1"), Atom("Y", "2")}),
            frozenset({Atom("A", "1"), Atom("B", "0"), Atom("X", "2"), Atom("Y", "1")}),
        }
        assert {frozenset(atoms_of(f)) for f in forbidden} == expected

    def test_friendless_has_no_reading_clauses(self):
        prob = encode(all_true(NO_FRIENDS))
        assert not any(isinstance(c, MustAll) for c in prob.constraints)
        assert set(prob.atom_domains) == {"A", "B", "X", "Y"}
        cond_vars = {v for c in prob.constraints if isinstance(c, Conditional)
                     for v in (a.variable for a in atoms_of(c.antecedent))}
        assert cond_vars <= {"A", "B", "X", "Y"}

    def test_all_possible_has_no_forbidden(self):
        prob = encode(all_true())
        assert not any(isinstance(c, Forbidden) for c in prob.constraints)

    def test_deterministic(self, hardy_beh):
        assert encode(hardy_beh) == encode(hardy_beh)

    def test_drop_impossibility(self, hardy_beh):
        prob = encode(hardy_beh)
        relaxed = drop_impossibility(prob, (1, 1, 1, 1))
        assert len(relaxed.constraints) == len(prob.constraints) - 1
        assert sum(isinstance(c, Forbidden) for c in relaxed.constraints) == 2
        with pytest.raises(ValueError):
            drop_impossibility(prob, (0, 0, 1, 1))  # that cell is possible
        # dropping any forbidden cell removes exactly its clause: encode
        # emits one Required or Forbidden clause per cell, in cell order
        labelled = behavior_from_json((GOLDEN / "inputs" / "infeasible_3x2.json").read_text())
        for beh in (hardy_beh, labelled):
            prob, cells = encode(beh), beh.config.cells()
            forbidden = [k for k, cell in enumerate(cells) if not beh.possible[cell]]
            assert len(forbidden) >= 3
            for k in forbidden:
                relaxed = drop_impossibility(prob, cells[k])
                assert relaxed.constraints == prob.constraints[:k] + prob.constraints[k + 1:]
                assert relaxed.atom_domains == prob.atom_domains


def _clause_per_chain_conditionals(beh):
    """encode's finest Conditionals, each built with chains of its own.

    The reference for the shared chains: the same light-cone rule, with
    every antecedent and consequent a fresh right-nested conj.
    """
    cfg = beh.config
    labels = {w.outcome: w.outcomes for w in cfg.wings}
    labels |= {w.setting: w.settings for w in cfg.wings}
    labels |= {w.record: w.outcomes for w in cfg.wings if w.friend}
    out = []
    for w in cfg.wings:
        pool = sorted(var for var in labels if var not in (w.outcome, w.setting))
        for values in itertools.product(*(labels[var] for var in pool)):
            event = [Atom(var, str(v)) for var, v in zip(pool, values)]
            for z in w.settings:
                out.append(Conditional(conj(event), conj(event + [Atom(w.setting, str(z))])))
    return tuple(out)


def _random_labels(rng):
    n = rng.randint(1, 3)
    if rng.random() < 0.5:
        return tuple(rng.sample(range(10), n))
    return tuple(rng.sample(["u", "v", "on", "off", "k_2"], n))


def test_encode_conditionals_match_clause_per_chain_builder(rng):
    for friend_a, friend_b in itertools.product((False, True), repeat=2):
        for _ in range(10):
            xs, ys = _random_labels(rng), _random_labels(rng)
            cfg = ScenarioConfig(x_values=xs, y_values=ys,
                                 a_values=_random_labels(rng), b_values=_random_labels(rng),
                                 friend_a=friend_a, friend_b=friend_b,
                                 read_x=rng.choice(xs), read_y=rng.choice(ys))
            beh = random_behavior(rng, cfg, p=rng.choice([0.5, 0.9]))
            constraints = encode(beh).constraints
            expected = _clause_per_chain_conditionals(beh)
            head = tuple(c for c in constraints if not isinstance(c, Conditional))
            assert constraints == head + expected
            assert ([render(clause_formula(c)) for c in constraints[len(head):]]
                    == [render(clause_formula(c)) for c in expected])


def _coarse_conditionals(prob):
    """Light-cone clauses for the partial assignments `encode` leaves out.

    For each intervention, every proper non-empty subset of the variables
    outside its light cone, each assignment to that subset, and each value
    of the intervention.
    """
    domains = prob.atom_domains
    out = []
    for z, pool in (("X", ("B", "C", "D", "Y")), ("Y", ("A", "C", "D", "X"))):
        pool = [v for v in pool if v in domains]
        for size in range(1, len(pool)):
            for subset in itertools.combinations(pool, size):
                for values in itertools.product(*(domains[v] for v in subset)):
                    event = [Atom(var, val) for var, val in zip(subset, values)]
                    for zval in domains[z]:
                        out.append(Conditional(conj(event), conj(event + [Atom(z, zval)])))
    return out


def test_coarse_conditionals_follow_from_finest(rng):
    for _ in range(20):
        beh = random_behavior(rng)
        prob = encode(beh)
        finest = [c for c in prob.constraints if isinstance(c, Conditional)]
        coarser = _coarse_conditionals(prob)
        assert finest and coarser
        variables = sorted(prob.atom_domains)
        grid = [dict(zip(variables, combo))
                for combo in itertools.product(*(prob.atom_domains[v] for v in variables))]
        for _ in range(30):
            candidate = [p for p in grid if rng.random() < 0.3]

            def holds(c):
                return (not any(eval_prop(c.antecedent, p) for p in candidate)
                        or any(eval_prop(c.consequent, p) for p in candidate))

            if all(holds(c) for c in finest):
                assert all(holds(c) for c in coarser)


MIXED_CONFIGS = [
    NO_FRIENDS,
    ScenarioConfig(friend_a=True),
    ScenarioConfig(friend_b=True),
    BOTH_FRIENDS,
    ScenarioConfig(x_values=(1, 2, 3), y_values=(1, 2, 3), friend_a=True, friend_b=True),
    ScenarioConfig(a_values=(0, 1, 2), b_values=(0, 1, 2), friend_a=True, friend_b=True),
]


@pytest.mark.parametrize("cfg", MIXED_CONFIGS, ids=["none", "a", "b", "both", "3x2", "2x3"])
def test_finest_family_solves_like_full_family(rng, cfg):
    for _ in range(12):
        beh = random_behavior(rng, cfg, p=rng.choice([0.5, 0.7, 0.9]))
        prob = encode(beh)
        full = Depth1Problem(prob.atom_domains,
                             prob.constraints + tuple(_coarse_conditionals(prob)))
        slim, wide = solve_depth1(prob), solve_depth1(full)
        assert type(slim) is type(wide)
        if isinstance(slim, Model):
            assert slim.points == wide.points
        else:
            assert slim.core.required == wide.core.required
            assert slim.core.never_candidates == wide.core.never_candidates


def test_friendless_satisfiability_is_pns(rng):
    for _ in range(60):
        beh = random_behavior(rng, NO_FRIENDS)
        sat = isinstance(solve_depth1(encode(beh)), Model)
        assert sat == check_pns(beh).holds


class TestBehaviorJson:
    def test_roundtrip(self, hardy_beh):
        data = behavior_to_json(hardy_beh)
        assert behavior_from_json(json.dumps(data)) == hardy_beh

    def test_field_names(self, hardy_beh):
        data = behavior_to_json(hardy_beh)
        assert set(data) == {"x_values", "y_values", "a_values", "b_values",
                             "friend_a", "friend_b", "read_x", "read_y", "possible"}
        assert [1, 1, 2, 2] in data["possible"]
        assert [1, 1, 1, 1] not in data["possible"]

    def test_unknown_keys_rejected(self, hardy_beh):
        data = behavior_to_json(hardy_beh)
        data["bogus"] = 1
        with pytest.raises(ValueError):
            behavior_from_json(data)

    def test_consecutive_equal_configs_are_shared(self, hardy_beh):
        data = behavior_to_json(hardy_beh)
        all_possible = dict(data, possible=[list(c) for c in hardy_beh.config.cells()])
        first = behavior_from_json(json.dumps(data))
        second = behavior_from_json(json.dumps(all_possible))
        assert second.config is first.config
        assert second.config.wings is first.config.wings
        # True == 1, yet the shared config does not let a bool label through
        with pytest.raises(ValueError, match="bool"):
            behavior_from_json(json.dumps(dict(data, read_x=True)))
        other = behavior_from_json(json.dumps(dict(data, friend_b=False)))
        assert other.config != first.config
        assert other.config.wings is not first.config.wings
        # one entry: the config read last is the one shared
        again = behavior_from_json(json.dumps(data))
        assert again.config == first.config and again.config is not first.config
