import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from plfkit.formula import And, Atom, Box, Diamond, Iff, Implies, Not, Or, parse
from plfkit.kripke import (
    Conditional,
    Depth1Problem,
    Forbidden,
    FragmentError,
    KripkeModel,
    Model,
    MustAll,
    Required,
    Unsat,
    UnknownWorldError,
    UnsatCore,
    evaluate,
    model_from_json,
    model_to_json,
    points_to_model,
    recheck_model,
    solve_depth1,
    valid,
)
from plfkit.scenario import drop_impossibility, encode
from oracles import naive_depth1_satisfiable, naive_evaluate, set_satisfies

Q = Atom("Q")


def single_world_q_false():
    return KripkeModel({"w"}, set(), {})


def two_world_chain():
    # w0 sees w1; Q true only at w1
    return KripkeModel({"w0", "w1"}, {("w0", "w1")}, {Q: {"w1"}})


class TestEvaluate:
    def test_box_implies_self_fails_without_reflexivity(self):
        m = single_world_q_false()
        assert evaluate(m, "w", parse("[]Q -> Q")) is False

    def test_box_implies_diamond_fails_at_dead_end(self):
        m = single_world_q_false()
        assert evaluate(m, "w", parse("[]Q -> <>Q")) is False

    def test_diamond_looks_one_step_ahead(self):
        m = two_world_chain()
        assert evaluate(m, "w0", parse("<>Q")) is True
        assert evaluate(m, "w1", parse("<>Q")) is False

    def test_unknown_world(self):
        with pytest.raises(UnknownWorldError):
            evaluate(two_world_chain(), "nope", Q)

    def test_connectives(self):
        m = two_world_chain()
        assert evaluate(m, "w1", parse("Q & ~Q")) is False
        assert evaluate(m, "w1", parse("Q | ~Q")) is True
        assert evaluate(m, "w0", parse("Q -> R")) is True  # false antecedent
        assert evaluate(m, "w1", parse("Q <-> R")) is False

    def test_absent_atoms_are_false_everywhere(self):
        m = two_world_chain()
        assert evaluate(m, "w0", Atom("Missing")) is False


class TestValid:
    def test_tautology(self):
        for m in (single_world_q_false(), two_world_chain()):
            assert valid(m, parse("Q | ~Q")) is True

    def test_reflexive_relation_restores_box_implies_self(self):
        m = KripkeModel({"u", "v"}, {("u", "u"), ("v", "v")}, {Q: {"u", "v"}})
        assert valid(m, parse("[]Q -> Q")) is True

    def test_partial_truth_is_not_validity(self):
        m = KripkeModel({"u", "v"}, set(), {Q: {"u"}})
        assert valid(m, Q) is False


class TestModelJson:
    def test_roundtrip(self):
        m = two_world_chain()
        data = model_to_json(m)
        assert model_from_json(json.dumps(data)) == m

    def test_documented_shape(self):
        m = model_from_json({"worlds": ["w0", "w1"], "relation": [["w0", "w1"]],
                             "valuation": {"A=1": ["w1"]}})
        assert evaluate(m, "w0", parse("<>A=1")) is True

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            model_from_json({"worlds": ["w"], "relation": [], "valuation": {}, "extra": 1})

    def test_unknown_world_in_relation_rejected(self):
        with pytest.raises(ValueError):
            KripkeModel({"w"}, {("w", "v")}, {})

    def test_empty_worlds_rejected(self):
        with pytest.raises(ValueError):
            KripkeModel(set(), set(), {})

    @pytest.mark.parametrize("data, message", [
        (["w"], "JSON object"),
        ({"worlds": [["w"]], "relation": [], "valuation": {}}, "world names"),
        ({"worlds": "w", "relation": [], "valuation": {}}, "world names"),
        ({"worlds": ["w"], "relation": [["w"]], "valuation": {}}, "pair"),
        ({"worlds": ["w"], "relation": [["w", "w", "w"]], "valuation": {}}, "pair"),
        ({"worlds": ["w"], "relation": [], "valuation": {"Q": "w"}}, "world names"),
        ({"worlds": ["w"], "relation": [], "valuation": ["Q"]}, "valuation must be an object"),
        ({"worlds": ["w"], "relation": [], "valuation": {"Q": ["w"], "Q=true": []}},
         "atom Q more than once"),
    ], ids=["not-object", "world-not-string", "worlds-not-list", "short-pair",
            "long-pair", "valuation-value-string", "valuation-not-object", "repeated-atom"])
    def test_malformed_shapes_rejected(self, data, message):
        with pytest.raises(ValueError, match=message):
            model_from_json(data)


# -- duality property --------------------------------------------------------

_world_names = ["u", "v", "x"]
_atom_pool = [Atom("P"), Atom("Q"), Atom("R", "1")]

_models = st.builds(
    lambda rel, val: KripkeModel(
        frozenset(_world_names),
        frozenset(rel),
        {a: frozenset(ws) for a, ws in zip(_atom_pool, val)},
    ),
    st.sets(st.tuples(st.sampled_from(_world_names), st.sampled_from(_world_names))),
    st.tuples(*(st.sets(st.sampled_from(_world_names)) for _ in _atom_pool)),
)

_prop_formulas = st.recursive(
    st.sampled_from(_atom_pool),
    lambda ch: st.one_of(st.builds(Not, ch), st.builds(And, ch, ch), st.builds(Or, ch, ch)),
    max_leaves=6,
)


@given(_models, _prop_formulas, st.sampled_from(_world_names))
def test_box_diamond_duality(m, f, w):
    assert evaluate(m, w, Box(f)) == evaluate(m, w, Not(Diamond(Not(f))))


# -- evaluator against the per-world oracle -----------------------------------

# S=0 never gets a valuation, and the others only sometimes: absent atoms
_modal_atoms = [Atom("P"), Atom("Q"), Atom("R", "1"), Atom("S", "0")]


@st.composite
def _any_models(draw):
    """Models on 1-4 worlds with arbitrary relations (self-loops, dead ends)."""
    worlds = sorted(draw(st.sets(st.sampled_from(["u", "v", "x", "y"]), min_size=1)))
    relation = draw(st.sets(st.tuples(st.sampled_from(worlds), st.sampled_from(worlds))))
    valued = draw(st.lists(st.sampled_from(_modal_atoms[:3]), unique=True))
    valuation = {a: draw(st.frozensets(st.sampled_from(worlds))) for a in valued}
    return KripkeModel(frozenset(worlds), frozenset(relation), valuation)


_modal_formulas = st.recursive(
    st.sampled_from(_modal_atoms),
    lambda ch: st.one_of(
        st.builds(Not, ch), st.builds(Diamond, ch), st.builds(Box, ch),
        st.builds(And, ch, ch), st.builds(Or, ch, ch),
        st.builds(Implies, ch, ch), st.builds(Iff, ch, ch),
    ),
    max_leaves=8,
)


@settings(max_examples=300)
@given(_any_models(), _modal_formulas)
def test_evaluate_matches_naive_oracle(m, f):
    truth = {w: naive_evaluate(m, w, f) for w in m.worlds}
    for w in m.worlds:
        assert evaluate(m, w, f) == truth[w]
    assert valid(m, f) == all(truth.values())


@st.composite
def _wide_models(draw):
    """Models on 60-200 worlds, so that a world mask spans several machine words.

    Like points_to_model, w0 sees a subset of the other worlds; random extra
    edges, self-loops and worlds with no successors are added on top.  The
    other worlds are named by ints: names need only be hashable.
    """
    n = draw(st.integers(60, 200))
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    others = list(range(1, n))
    worlds = ["w0"] + others
    relation = {("w0", v) for v in others if rnd.random() < 0.5}
    relation |= {(rnd.choice(worlds), rnd.choice(worlds)) for _ in range(rnd.randrange(2 * n))}
    relation |= {(w, w) for w in rnd.sample(worlds, rnd.randrange(8))}
    valuation = {a: frozenset(w for w in worlds if rnd.random() < 0.5)
                 for a in _modal_atoms[:3] if rnd.random() < 0.8}
    return KripkeModel(frozenset(worlds), frozenset(relation), valuation)


@settings(max_examples=100, deadline=None)
@given(_wide_models(), _modal_formulas)
def test_evaluate_matches_naive_oracle_on_wide_models(m, f):
    truth = {w: naive_evaluate(m, w, f) for w in m.worlds}
    assert {w for w in m.worlds if evaluate(m, w, f)} == {w for w, t in truth.items() if t}
    assert valid(m, f) == all(truth.values())


# -- depth-1 solver ----------------------------------------------------------


class TestSolveDepth1:
    def test_single_required_boolean(self):
        prob = Depth1Problem({"Q": ("true", "false")}, (Required(Atom("Q")),))
        result = solve_depth1(prob)
        assert isinstance(result, Model)
        assert (("Q", "true"),) in result.points
        assert recheck_model(prob, result.points)

    def test_required_vs_forbidden_conflict(self):
        prob = Depth1Problem(
            {"Q": ("true", "false")},
            (Required(Atom("Q")), Forbidden(Atom("Q"))),
        )
        result = solve_depth1(prob)
        assert isinstance(result, Unsat)
        assert result.core.required == Required(Atom("Q"))
        assert len(result.core.never_candidates) == 1

    def test_conditional_chain_unsat_core_has_removals(self):
        # Required(P), but P's only point is deflated away by a conditional
        # whose consequent is forbidden.
        prob = Depth1Problem(
            {"P": ("0", "1"), "R": ("0", "1")},
            (
                Required(And(Atom("P", "1"), Atom("R", "0"))),
                Conditional(Atom("P", "1"), And(Atom("P", "1"), Atom("R", "1"))),
                Forbidden(Atom("R", "1")),
            ),
        )
        result = solve_depth1(prob)
        assert isinstance(result, Unsat)
        assert result.core.removals  # the deflation chain is reported

    def test_empty_model_allowed_without_required(self):
        prob = Depth1Problem({"Q": ("true", "false")}, (Forbidden(Atom("Q")), Forbidden(Not(Atom("Q")))))
        result = solve_depth1(prob)
        assert isinstance(result, Model)
        assert result.points == frozenset()

    @pytest.mark.parametrize("clause", [
        Required(Diamond(Atom("Q"))),
        MustAll(Box(Atom("Q"))),
        Forbidden(Diamond(Atom("Q"))),
        Conditional(And(Atom("Q"), Not(Box(Atom("Q")))), Atom("Q")),
        Conditional(Atom("Q"), Diamond(Atom("Q"))),
        Atom("Q"),
    ], ids=["required", "must-all", "forbidden", "nested-in-antecedent", "consequent",
            "bare-atom-constraint"])
    def test_fragment_rejects_modal_bodies(self, clause):
        with pytest.raises(FragmentError):
            Depth1Problem({"Q": ("true", "false")}, (clause,))

    @pytest.mark.parametrize("clause", [
        Required(Atom("Other")),
        Conditional(Atom("Q"), And(Atom("Q"), Atom("Other"))),
        MustAll(Implies(Atom("Q"), Atom("Other"))),
    ], ids=["required", "consequent", "inside-implies"])
    def test_unknown_variable_rejected(self, clause):
        with pytest.raises(ValueError, match="Other not in atom_domains"):
            Depth1Problem({"Q": ("true", "false")}, (clause,))

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError, match="empty domain"):
            Depth1Problem({"Q": ("true", "false"), "E": ()}, (Required(Atom("Q")),))

    def test_value_outside_domain_holds_nowhere(self):
        maybe = Required(Atom("Q", "maybe"))
        result = solve_depth1(Depth1Problem({"Q": ("true", "false")}, (maybe,)))
        assert isinstance(result, Unsat)
        assert result.core == UnsatCore(required=maybe, never_candidates=(), removals=())

    def test_atom_keeps_exactly_its_points(self):
        rng = random.Random(29)
        shapes = set()
        for _ in range(30):
            domains = {}
            for var in rng.sample(["P", "Q", "R", "S"], rng.randint(1, 4)):
                vals = [str(v) for v in rng.sample(range(5), rng.randint(1, 4))]
                if rng.random() < 0.3:
                    vals.insert(rng.randrange(len(vals) + 1), rng.choice(vals))
                domains[var] = tuple(vals)
                shapes.add("one-value" if len(set(vals)) == 1 else
                           "duplicate" if len(set(vals)) < len(vals) else "distinct")
            variables = sorted(domains)
            grid = [dict(zip(variables, combo))
                    for combo in itertools.product(*(domains[v] for v in variables))]
            for var in variables:
                for val in set(domains[var]):
                    atom = Atom(var, val)
                    expected = tuple(tuple(sorted(p.items())) for p in grid if p[var] == val)
                    kept = solve_depth1(Depth1Problem(domains, (MustAll(atom),)))
                    assert kept.points == set(expected)
                    # the core lists every grid point, duplicates too, in grid order
                    core = solve_depth1(Depth1Problem(domains, (Required(atom), Forbidden(atom)))).core
                    assert core.never_candidates == expected
                nowhere = solve_depth1(Depth1Problem(domains, (MustAll(Atom(var, "x")),)))
                assert nowhere.points == frozenset()
        assert shapes == {"one-value", "duplicate", "distinct"}


def _random_prop(rng, variables, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return Atom(rng.choice(variables), rng.choice(("0", "1")))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(_random_prop(rng, variables, depth - 1))
    ctor = (And, Or, Implies)[kind - 1]
    return ctor(_random_prop(rng, variables, depth - 1),
                _random_prop(rng, variables, depth - 1))


def _random_problem(rng):
    n = rng.randint(1, 6)
    variables = [f"v{i}" for i in range(n)]
    domains = {v: ("0", "1") for v in variables}
    constraints = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.randrange(4)
        if kind == 0:
            constraints.append(MustAll(_random_prop(rng, variables)))
        elif kind == 1:
            constraints.append(Forbidden(_random_prop(rng, variables)))
        elif kind == 2:
            constraints.append(Required(_random_prop(rng, variables)))
        else:
            constraints.append(Conditional(_random_prop(rng, variables),
                                           _random_prop(rng, variables)))
    return Depth1Problem(domains, tuple(constraints))


def test_solver_matches_naive_oracle_on_random_problems():
    rng = random.Random(7)
    for _ in range(300):
        prob = _random_problem(rng)
        result = solve_depth1(prob)
        assert isinstance(result, Model) == naive_depth1_satisfiable(prob)
        if isinstance(result, Model):
            assert recheck_model(prob, result.points)


def test_recheck_matches_set_oracle_on_arbitrary_subsets():
    rng = random.Random(13)
    verdicts = set()
    for _ in range(200):
        prob = _random_problem(rng)
        variables = sorted(prob.atom_domains)
        grid = [dict(zip(variables, combo))
                for combo in itertools.product(*(prob.atom_domains[v] for v in variables))]
        subsets = [[], grid] + [[p for p in grid if rng.random() < 0.5] for _ in range(3)]
        for subset in subsets:
            expected = set_satisfies(prob, subset)
            assert recheck_model(prob, {tuple(sorted(p.items())) for p in subset}) == expected
            verdicts.add(expected)
    assert verdicts == {True, False}


def test_recheck_rejects_model_with_a_point_removed(hardy_beh):
    problem = drop_impossibility(encode(hardy_beh), (1, 1, 1, 1))
    result = solve_depth1(problem)
    assert isinstance(result, Model) and recheck_model(problem, result.points)
    witness = tuple(sorted({"A": "1", "B": "1", "C": "1", "D": "1", "X": "1", "Y": "1"}.items()))
    assert witness in result.points
    smaller = result.points - {witness}
    assert not set_satisfies(problem, [dict(pt) for pt in smaller])
    assert recheck_model(problem, smaller) is False


def test_union_closure_of_satisfying_sets():
    rng = random.Random(11)
    found = 0
    while found < 50:
        prob = _random_problem(rng)
        variables = sorted(prob.atom_domains)
        grid = [dict(zip(variables, combo))
                for combo in itertools.product(*(prob.atom_domains[v] for v in variables))]
        s1 = [p for p in grid if rng.random() < 0.5]
        s2 = [p for p in grid if rng.random() < 0.5]
        if set_satisfies(prob, s1) and set_satisfies(prob, s2):
            union = s1 + [p for p in s2 if p not in s1]
            assert set_satisfies(prob, union)
            found += 1


def test_points_to_model_builds_expected_shape():
    prob = Depth1Problem({"Q": ("true", "false")}, (Required(Atom("Q")),))
    pts = {(("Q", "true"),)}
    m = points_to_model(prob, pts)
    assert m.worlds == {"w0", "w1"}
    assert m.relation == {("w0", "w1")}
    assert evaluate(m, "w0", Diamond(Atom("Q"))) is True
