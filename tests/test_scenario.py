import itertools
import json
import random
from pathlib import Path

import pytest

from plfkit.formula import And, Atom, Box, Diamond, Formula, Not, conj, render
from plfkit.kripke import (
    Conditional,
    Depth1Problem,
    Forbidden,
    Model,
    MustAll,
    Required,
    clause_formula,
    recheck_model,
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
from plfkit.plfcheck import plf_feasible, validate_extended_table
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
CONFIG_3X3 = ScenarioConfig(x_values=(1, 2, 3), y_values=(1, 2, 3), a_values=(0, 1, 2),
                            b_values=(0, 1, 2), friend_a=True, friend_b=True)


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

    def test_a_certified_decision_leaves_the_behavior_as_it_was(self, rng):
        # `cell_mask` is built once from `possible`, so no decision may edit it
        feasible = set()
        for _ in range(30):
            beh = random_behavior(rng, p=rng.uniform(0.5, 1.0))
            before = dict(beh.possible)
            check_pns(beh)
            verdict, problem = plf_feasible(beh), encode(beh)
            result = solve_depth1(problem)
            assert verdict.feasible is isinstance(result, Model)
            if verdict.feasible:
                assert validate_extended_table(verdict.witness, beh)
                assert recheck_model(problem, result.points)
            feasible.add(verdict.feasible)
            assert beh.possible == before
            assert beh.cell_mask == Behavior(beh.config, before).cell_mask
        assert feasible == {True, False}


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
        # variables outside each light cone, two intervention values: 2 * 2^4 * 2,
        # less the 2 * 4 * 2 whose event puts the other wing at its read
        # setting with an outcome off its friend's record, and the 4 * 2 of
        # Y whose event puts Alice's wing at X=1 with A=C
        assert kinds[Conditional] == 40

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

    def test_drop_impossibility(self, hardy_beh, rng):
        prob = encode(hardy_beh)
        relaxed = drop_impossibility(prob, (1, 1, 1, 1))
        assert len(relaxed.constraints) == len(prob.constraints) - 1
        assert sum(isinstance(c, Forbidden) for c in relaxed.constraints) == 2
        with pytest.raises(ValueError):
            drop_impossibility(prob, (0, 0, 1, 1))  # that cell is possible
        # dropping any forbidden cell removes exactly its clause: encode
        # emits one Required or Forbidden clause per cell, in cell order,
        # and the cell bodies share their B & (X & Y) tails
        labelled = behavior_from_json((GOLDEN / "inputs" / "infeasible_3x2.json").read_text())
        seeded = [random_behavior(rng, CONFIG_3X3, p=rng.choice([0.5, 0.7])) for _ in range(4)]
        # str labels with no friend, Alice's only and Bob's only: atom_domains
        # holds no record or one after the cell's variables
        partial = [random_behavior(rng, ScenarioConfig(("p", "q", "r"), ("s_1", "t"), ("u", "v"),
                                                       ("on", "off", "k_2"), fa, fb, "r", "t"),
                                   p=rng.choice([0.5, 0.7]))
                   for fa, fb in ((False, False), (True, False), (False, True))]
        for beh in (hardy_beh, labelled, *seeded, *partial):
            prob, cells = encode(beh), beh.config.cells()
            forbidden = [k for k, cell in enumerate(cells) if not beh.possible[cell]]
            assert len(forbidden) >= 3
            for k, cell in enumerate(cells):
                if k not in forbidden:
                    with pytest.raises(ValueError, match="not forbidden"):
                        drop_impossibility(prob, cell)
                    continue
                relaxed = drop_impossibility(prob, cell)
                assert relaxed.constraints == prob.constraints[:k] + prob.constraints[k + 1:]
                assert relaxed.atom_domains == prob.atom_domains
        # 81 cells over 27 B & (X & Y) tails over 9 X & Y tails
        bodies = [c.body for c in encode(seeded[0]).constraints[:81]]
        assert len({id(node) for f in bodies for node in _and_nodes(f)}) == 81 + 27 + 9

    def test_and_node_counts(self, hardy_beh):
        # cell bodies, reading clauses, every wing's events with their
        # shared tails, and one Z=z & E node per Conditional
        for beh, count in ((hardy_beh, 110), (all_true(CONFIG_3X3), 651)):
            formulas = [clause_formula(c) for c in encode(beh).constraints]
            assert len({id(node) for f in formulas for node in _and_nodes(f)}) == count

    def test_consequent_is_built_on_its_antecedent(self, hardy_beh, rng):
        # each Conditional is <>E -> <>(Z=z & E) with E the antecedent's own node
        seeded = [random_behavior(rng, ScenarioConfig(x_values=(1, 2, 3), a_values=("u", "v"),
                                                      friend_a=fa, friend_b=fb, read_x=3))
                  for fa, fb in itertools.product((False, True), repeat=2)]
        for beh in (hardy_beh, *seeded):
            conds = [c for c in encode(beh).constraints if isinstance(c, Conditional)]
            assert conds
            for c in conds:
                assert isinstance(c.consequent, And)
                assert c.consequent.right is c.antecedent
                assert c.consequent.left.variable in ("X", "Y")


def _and_nodes(f):
    """Every And node of f, once per occurrence."""
    stack, out = [f], []
    while stack:
        node = stack.pop()
        if isinstance(node, And):
            out.append(node)
        if isinstance(node, (Not, Diamond, Box)):
            stack.append(node.child)
        elif not isinstance(node, Atom):
            stack += [node.left, node.right]
    return out


def _clause_per_chain_conditionals(beh):
    """Every finest Conditional of the light-cone rule, vacuous or not, each
    built with chains of its own.

    The full reference encoding: the same light-cone rule with no clause
    left out, and every antecedent and consequent a fresh right-nested conj.
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
                out.append(Conditional(conj(event), And(Atom(w.setting, str(z)), conj(event))))
    return tuple(out)


def _random_labels(rng):
    n = rng.randint(1, 3)
    if rng.random() < 0.5:
        return tuple(rng.sample(range(10), n))
    return tuple(rng.sample(["u", "v", "on", "off", "k_2"], n))


def _full_reference_problem(beh):
    """encode's problem with every finest Conditional of the reference in
    place of encode's own."""
    prob = encode(beh)
    head = tuple(c for c in prob.constraints if not isinstance(c, Conditional))
    return Depth1Problem(prob.atom_domains, head + _clause_per_chain_conditionals(beh))


def _admitted_points(prob):
    """The grid points, as assignment dicts, where every MustAll body holds."""
    variables = sorted(prob.atom_domains)
    bodies = [c.body for c in prob.constraints if isinstance(c, MustAll)]
    grid = (dict(zip(variables, combo))
            for combo in itertools.product(*(prob.atom_domains[v] for v in variables)))
    return [p for p in grid if all(eval_prop(body, p) for body in bodies)]


def test_encode_conditionals_match_clause_per_chain_builder(rng):
    # encode emits a finest event's clauses exactly when some grid point
    # satisfies the event and every MustAll body and, if some friend's wing
    # has two settings or more, puts the first such wing off its read
    # setting; in the reference's order
    for friend_a, friend_b in itertools.product((False, True), repeat=2):
        for _ in range(10):
            xs, ys = _random_labels(rng), _random_labels(rng)
            cfg = ScenarioConfig(x_values=xs, y_values=ys,
                                 a_values=_random_labels(rng), b_values=_random_labels(rng),
                                 friend_a=friend_a, friend_b=friend_b,
                                 read_x=rng.choice(xs), read_y=rng.choice(ys))
            beh = random_behavior(rng, cfg, p=rng.choice([0.5, 0.9]))
            constraints = encode(beh).constraints
            full = _full_reference_problem(beh)
            read = [(w.setting, str(w.read)) for w in cfg.wings
                    if w.friend and len(w.settings) > 1][:1]
            live = [p for p in _admitted_points(full) if all(p[var] != v for var, v in read)]
            expected = tuple(c for c in full.constraints if isinstance(c, Conditional)
                             and any(eval_prop(c.antecedent, p) for p in live))
            head = tuple(c for c in constraints if not isinstance(c, Conditional))
            assert constraints == head + expected
            assert ([render(clause_formula(c)) for c in constraints[len(head):]]
                    == [render(clause_formula(c)) for c in expected])
            # a friend with two outcomes or more leaves the other wing vacuous
            # events, and one with two settings or more its read-setting events
            pruned = len(expected) < len(full.constraints) - len(head)
            assert pruned == any(w.friend and (len(w.outcomes) > 1 or len(w.settings) > 1)
                                 for w in cfg.wings)


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
    # every world-set of admitted points that satisfies encode's finest
    # clauses satisfies the coarse ones: each random set is first deflated
    # to its greatest subset that satisfies the finest clauses
    nonempty = 0
    for _ in range(10):
        beh = random_behavior(rng)
        prob = encode(beh)
        finest = [c for c in prob.constraints if isinstance(c, Conditional)]
        coarser = _coarse_conditionals(prob)
        assert finest and coarser
        admitted = _admitted_points(prob)

        def extension(f):
            return {i for i, p in enumerate(admitted) if eval_prop(f, p)}

        finest = [(extension(c.antecedent), extension(c.consequent)) for c in finest]
        coarser = [(extension(c.antecedent), extension(c.consequent)) for c in coarser]
        for _ in range(30):
            candidate = {i for i in range(len(admitted)) if rng.random() < 0.7}
            changed = True
            while changed:
                changed = False
                for ant, cons in finest:
                    if candidate & ant and not candidate & cons:
                        candidate -= ant
                        changed = True
            nonempty += bool(candidate)
            assert all(not candidate & ant or candidate & cons for ant, cons in coarser)
    assert nonempty >= 100


MIXED_CONFIGS = [
    NO_FRIENDS,
    ScenarioConfig(friend_a=True),
    ScenarioConfig(friend_b=True),
    BOTH_FRIENDS,
    ScenarioConfig(x_values=(1, 2, 3), y_values=(1, 2, 3), friend_a=True, friend_b=True),
    ScenarioConfig(a_values=(0, 1, 2), b_values=(0, 1, 2), friend_a=True, friend_b=True),
    CONFIG_3X3,
]


@pytest.mark.parametrize("cfg", MIXED_CONFIGS,
                         ids=["none", "a", "b", "both", "3x2", "2x3", "3x3"])
def test_finest_family_solves_like_full_family(rng, cfg):
    # encode's problem, the full reference with every finest clause, and
    # that reference with the coarse clauses too
    for _ in range(12):
        beh = random_behavior(rng, cfg, p=rng.choice([0.5, 0.7, 0.9]))
        prob, full = encode(beh), _full_reference_problem(beh)
        wide = Depth1Problem(full.atom_domains,
                             full.constraints + tuple(_coarse_conditionals(full)))
        slim, ref, broad = solve_depth1(prob), solve_depth1(full), solve_depth1(wide)
        assert type(slim) is type(ref) is type(broad)
        if isinstance(slim, Model):
            assert slim.points == ref.points == broad.points
            # the clauses encode leaves out hold in its model too
            assert recheck_model(full, slim.points)
            assert recheck_model(wide, slim.points)
        else:
            # the greatest fixpoints are equal, so the same Required clause
            # fails over the same excluded and removed points; a clause left
            # out may still fire in the reference, so a removal may name
            # another clause
            for core in (ref.core, broad.core):
                assert slim.core.required == core.required
                assert slim.core.never_candidates == core.never_candidates
                assert _removed(slim.core) == _removed(core)


def _removed(core):
    """The union of the points an UnsatCore's removals name."""
    return {point for _, points in core.removals for point in points}


def test_friendless_satisfiability_is_pns(rng):
    for _ in range(60):
        beh = random_behavior(rng, NO_FRIENDS)
        sat = isinstance(solve_depth1(encode(beh)), Model)
        assert sat == check_pns(beh).holds


def _compiled_masks(prob):
    return (prob._start, [(ant, cons) for _, ant, cons in prob._conds],
            [mask for _, mask in prob._reqs])


@pytest.mark.parametrize("settings, outcomes", [(3, 2), (2, 3), (3, 3)],
                         ids=["3x2", "2x3", "3x3"])
def test_compiled_masks_depend_only_on_the_shape(rng, settings, outcomes):
    # a behavior and its copy with every label replaced by a fresh one in
    # the same position (same sizes, friends and read-setting positions)
    # compile to the same masks: the grid runs over each domain in label
    # order, whatever the labels are
    fresh = [*range(10, 40), *"pqrstuvw"]
    for friend_a, friend_b in itertools.product((False, True), repeat=2):
        for _ in range(3):
            sizes = {"x_values": settings, "y_values": settings,
                     "a_values": outcomes, "b_values": outcomes}
            old = {name: tuple(range(n)) for name, n in sizes.items()}
            new = {name: tuple(rng.sample(fresh, n)) for name, n in sizes.items()}
            read_x, read_y = rng.randrange(settings), rng.randrange(settings)
            cfg = ScenarioConfig(**old, friend_a=friend_a, friend_b=friend_b,
                                 read_x=read_x, read_y=read_y)
            twin = ScenarioConfig(**new, friend_a=friend_a, friend_b=friend_b,
                                  read_x=new["x_values"][read_x], read_y=new["y_values"][read_y])
            beh = random_behavior(rng, cfg, p=rng.choice([0.5, 0.7]))
            relabel = [dict(zip(old[name], new[name]))
                       for name in ("a_values", "b_values", "x_values", "y_values")]
            renamed = Behavior(twin, {tuple(m[v] for m, v in zip(relabel, cell)): possible
                                      for cell, possible in beh.possible.items()})
            prob, twin_prob = (Depth1Problem(p.atom_domains, p.constraints)
                               for p in (encode(beh), encode(renamed)))
            assert prob.atom_domains != twin_prob.atom_domains
            assert _compiled_masks(prob) == _compiled_masks(twin_prob)


def _labels(rng, n):
    # ints or strs, fresh and in no particular order
    return tuple(rng.sample([*range(10, 40)] if rng.random() < 0.5 else [*"pqrstuvw", "s_1"], n))


def _sweep_configs(rng):
    """Every pairing of 1-3 settings and 1-3 outcomes per party but a party
    with a single setting or outcome against a 3x3 one, each with every
    friend configuration and read position, in a shuffled order, so the
    shapes come interleaved."""
    configs = []
    party = list(itertools.product((1, 2, 3), repeat=2))  # (settings, outcomes)
    for (xs, a), (ys, b) in itertools.product(party, repeat=2):
        if 1 in (xs, a, ys, b) and (3, 3) in ((xs, a), (ys, b)):
            continue
        for friend_a, friend_b in itertools.product((False, True), repeat=2):
            reads = itertools.product(range(xs if friend_a else 1), range(ys if friend_b else 1))
            for rx, ry in reads:
                x_values, y_values = _labels(rng, xs), _labels(rng, ys)
                configs.append(ScenarioConfig(x_values, y_values, _labels(rng, a), _labels(rng, b),
                                              friend_a, friend_b, x_values[rx], y_values[ry]))
    rng.shuffle(configs)
    return configs


def test_one_atom_object_per_variable_and_value(rng):
    # cell bodies, reading clauses, antecedents and consequents all take their
    # atoms from one table, and the cell's variables come first in atom_domains
    for cfg in _sweep_configs(rng):
        prob = encode(random_behavior(rng, cfg, p=rng.choice([0.5, 0.8])))
        assert list(prob.atom_domains)[:4] == ["A", "B", "X", "Y"]
        ids, seen = {}, set()
        stack = [clause_formula(c) for c in prob.constraints]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            if isinstance(node, Atom):
                ids.setdefault((node.variable, node.value), set()).add(id(node))
            elif isinstance(node, (Not, Diamond, Box)):
                stack.append(node.child)
            else:
                stack += [node.left, node.right]
        assert ids.keys() == {(var, v) for var, vals in prob.atom_domains.items() for v in vals}
        assert all(len(objects) == 1 for objects in ids.values()), cfg


def test_encode_compiles_as_the_constructor_does(rng):
    # and decides as the full finest family does: the sweep holds wings with
    # one setting, which keep their read-setting events
    configs = _sweep_configs(rng)
    assert len(configs) == 625
    for cfg in configs:
        beh = random_behavior(rng, cfg, p=rng.choice([0.5, 0.8]))
        prob = encode(beh)
        full = Depth1Problem(prob.atom_domains, prob.constraints)
        assert prob._grid == full._grid
        assert prob._start == full._start
        assert prob._reqs == full._reqs
        assert prob._conds == full._conds
        assert prob == full and repr(prob) == repr(full)
        # each compiled Conditional is the problem's own clause, in order
        conditionals = [c for c in prob.constraints if isinstance(c, Conditional)]
        assert all(c is d for (c, _, _), d in zip(prob._conds, conditionals, strict=True))
        slim, ref = solve_depth1(prob), solve_depth1(_full_reference_problem(beh))
        assert type(slim) is type(ref), cfg
        assert not isinstance(slim, Model) or slim.points == ref.points, cfg


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
