import contextlib
import copy
import gc
import itertools
import json
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from plfkit import kripke, scenario
from plfkit.formula import And, Atom, Box, Diamond, Iff, Implies, Not, Or, conj, parse, render
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
    clause_formula,
    evaluate,
    model_from_json,
    model_to_json,
    points_to_model,
    recheck_model,
    solve_depth1,
    valid,
)
from plfkit.plfcheck import plf_feasible, validate_extended_table
from plfkit.scenario import (
    Behavior,
    ScenarioConfig,
    behavior_from_json,
    behavior_to_json,
    check_pns,
    drop_impossibility,
    encode,
)
from conftest import names_reached, random_behavior
from oracles import eval_prop, naive_depth1_satisfiable, naive_evaluate, set_satisfies

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

    def test_duplicate_worlds_and_list_pairs_give_one_model(self):
        m = model_from_json({"worlds": ["w0", "w1", "w0"],
                             "relation": [["w0", "w1"], ["w1", "w1"], ["w0", "w1"]],
                             "valuation": {"Q": ["w1", "w1"], "R=2": []}})
        assert m == KripkeModel(frozenset({"w0", "w1"}), frozenset({("w0", "w1"), ("w1", "w1")}),
                                {Q: frozenset({"w1"}), Atom("R", "2"): frozenset()})
        assert type(m.worlds) is frozenset and all(type(p) is tuple for p in m.relation)
        assert model_from_json(model_to_json(m)) == m
        assert evaluate(m, "w0", parse("<>Q & []<>Q & ~<>R=2")) is True

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            model_from_json({"worlds": ["w"], "relation": [], "valuation": {}, "extra": 1})

    def test_unknown_world_in_relation_rejected(self):
        with pytest.raises(ValueError):
            KripkeModel({"w"}, {("w", "v")}, {})

    @pytest.mark.parametrize("pairs", [
        frozenset({("u", "v"), ("v", "v")}), {("u", "v"), ("v", "v")},
        [["u", "v"], ["v", "v"]], (p for p in [["u", "v"], ("v", "v")]),
    ], ids=["frozenset", "set", "lists", "generator"])
    def test_relation_pairs_become_tuples(self, pairs):
        m = KripkeModel({"u", "v"}, pairs, {Q: ["v"]})
        assert m.relation == frozenset({("u", "v"), ("v", "v")})
        assert all(type(p) is tuple for p in m.relation)
        assert evaluate(m, "u", parse("[]Q & <><>Q")) is True

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

    @pytest.mark.parametrize("vals, bad", [((1, 2), 1), (("1", 2), 2), ((None, "1"), None),
                                           ((b"1",), b"1"), (("1", 1.0), 1.0)],
                             ids=["ints", "int-after-str", "none", "bytes", "float"])
    def test_domain_value_that_is_not_text_rejected(self, vals, bad):
        # the compile would match 1 as it is and the recheck as "1": X=1
        # forbidden kept both points, and the recheck refused that model
        with pytest.raises(ValueError, match=re.escape(f"domain of X holds {bad!r}, not a str")):
            Depth1Problem({"X": vals}, (Forbidden(Atom("X", "1")),))

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


def test_points_are_the_reference_grid_in_its_order():
    # a point is the tuple of its (variable, value) pairs over the sorted
    # variables, listed in product order, whatever the grid shares inside
    rng = random.Random(43)
    for _ in range(60):
        domains = {var: tuple(rng.sample(("0", "1", "2"), rng.randint(1, 3)))
                   for var in rng.sample(["v3", "v1", "v0", "v2"], rng.randint(1, 4))}
        variables = sorted(domains)
        reference = [tuple(zip(variables, combo))
                     for combo in itertools.product(*(domains[v] for v in variables))]
        body = _random_prop(rng, variables)
        expected = tuple(pt for pt in reference if eval_prop(body, dict(pt)))
        kept = solve_depth1(Depth1Problem(domains, (MustAll(body),)))
        assert type(kept.points) is frozenset and kept.points == frozenset(expected)
        core = solve_depth1(Depth1Problem(domains, (Required(body), Forbidden(body)))).core
        assert core.never_candidates == expected
        # a consequent that holds nowhere removes every antecedent point
        cond = Conditional(body, And(body, Atom(variables[0], "x")))
        core = solve_depth1(Depth1Problem(domains, (Required(body), cond))).core
        assert core.never_candidates == ()
        assert core.removals == (((cond, expected),) if expected else ())
        for pt in (*kept.points, *core.never_candidates):
            assert type(pt) is tuple and all(type(pair) is tuple for pair in pt)


# mask widths on both sides of the interpreter's 30-bit limbs and a 64-bit word
_WIDTHS = (0, 1, 29, 30, 31, 60, 61, 64, 729, 4096)


def test_points_decode_a_mask_as_its_bits_read_one_by_one():
    # 4,096 points: every width's mask selects from the front of the grid
    prob = Depth1Problem({"u": tuple(map(str, range(64))), "v": tuple(map(str, range(64)))}, ())
    grid = _grid(prob)
    rng = random.Random(35)
    for width in _WIDTHS:
        top = 1 << width >> 1  # 0 at width 0: the empty mask
        for mask in (0, (1 << width) - 1, top, top | rng.getrandbits(width)):
            expected = tuple(pt for i, pt in enumerate(grid) if mask >> i & 1)
            assert kripke._points(prob, mask) == expected
    assert kripke._points(prob, (1 << 4096) - 1) == tuple(grid)


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


@pytest.mark.parametrize("friends", list(itertools.product((False, True), repeat=2)),
                         ids=["none", "b", "a", "both"])
@pytest.mark.parametrize("n_settings, n_outcomes", [(2, 2), (3, 2), (2, 3)],
                         ids=["2x2", "3x2", "2x3"])
def test_unsat_core_partitions_the_required_body(n_settings, n_outcomes, friends):
    """An encoded problem's core: never_candidates and the points of each
    removal, every removal nonempty, are pairwise disjoint and together are
    exactly the grid points where the failing Required body holds."""
    rng = random.Random(31 + 10 * n_settings + n_outcomes)
    unsat = 0
    for _ in range(25):
        xs, labels = tuple(range(1, n_settings + 1)), tuple(range(n_outcomes))
        cfg = ScenarioConfig(x_values=xs, y_values=xs, a_values=labels, b_values=labels,
                             friend_a=friends[0], friend_b=friends[1],
                             read_x=rng.choice(xs), read_y=rng.choice(xs))
        problem = encode(random_behavior(rng, cfg, p=rng.choice([0.5, 0.7, 0.85])))
        result = solve_depth1(problem)
        if isinstance(result, Model):
            continue
        unsat += 1
        core = result.core
        assert all(points for _, points in core.removals)
        parts = [core.never_candidates, *(points for _, points in core.removals)]
        listed = [pt for part in parts for pt in part]
        assert len(listed) == len(set(listed))
        variables = sorted(problem.atom_domains)
        body = {tuple(zip(variables, combo))
                for combo in itertools.product(*(problem.atom_domains[v] for v in variables))
                if eval_prop(core.required.body, dict(zip(variables, combo)))}
        assert set(listed) == body
    assert unsat, "no unsatisfiable problem drawn"


def test_union_closure_of_satisfying_sets():
    rng = random.Random(11)
    found = draws = 0
    while found < 50:  # 445 draws while the library is correct
        assert draws < 5000, f"{found} of 50 satisfying pairs in {draws} draws"
        draws += 1
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


# -- nesting depth -----------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"

# the model w0 -> w1 -> w1 with Q true at w1 only, and each shape's truth at
# w0 for any depth n: the labelling must answer whatever parse accepts
_DEEP_MODEL = {"worlds": ["w0", "w1"], "relation": [["w0", "w1"], ["w1", "w1"]],
               "valuation": {"Q": ["w1"]}}
_DEEP_SHAPES = {
    "not": (lambda n: "~" * n + "Q", lambda n: n % 2 == 1),
    "diamond": (lambda n: "<>" * n + "Q", lambda n: n >= 1),
    "box": (lambda n: "[]" * n + "Q", lambda n: n >= 1),
    "parens": (lambda n: "(" * n + "Q" + ")" * n, lambda n: False),
    "and-chain": (lambda n: " & ".join(["<>Q"] * n), lambda n: True),
}


def _deepest_parsed(text_of) -> int:
    """The largest n whose text parse accepts at this stack depth."""
    lo, hi = 1, 8192
    parse(text_of(lo))
    with pytest.raises(RecursionError):
        parse(text_of(hi))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            parse(text_of(mid))
            lo = mid
        except RecursionError:
            hi = mid
    return lo


@contextlib.contextmanager
def _fails_if_recursing():
    """Turns a RecursionError into a one-line failure: pytest takes minutes
    to report a traceback a thousand frames deep."""
    try:
        yield
    except RecursionError:
        raise AssertionError("recursed once per nesting level") from None


@pytest.mark.parametrize("shape", list(_DEEP_SHAPES))
def test_evaluate_answers_the_deepest_parsed_formula(shape, tmp_path):
    text_of, truth = _DEEP_SHAPES[shape]
    n = _deepest_parsed(text_of)
    assert n > 150  # parentheses cost the parser two frames a level
    with _fails_if_recursing():
        m = model_from_json(_DEEP_MODEL)
        f = parse(text_of(n))
        assert evaluate(m, "w0", f) is truth(n)
        assert valid(m, f) is (truth(n) and evaluate(m, "w1", f))
        # a fresh process starts shallower than this test, so it parses the
        # same text, and eval must answer it rather than report it as too deep
        path = tmp_path / "m.json"
        path.write_text(json.dumps(_DEEP_MODEL))
        proc = subprocess.run([sys.executable, "-m", "plfkit.cli", "eval", str(path), "w0",
                               text_of(n)],
                              env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0 if truth(n) else 1, "true\n" if truth(n) else "false\n", "")


def _same_tree(f, g) -> bool:
    """Structural equality without recursion, written apart from the
    formula classes' own `==`."""
    todo = [(f, g)]
    while todo:
        f, g = todo.pop()
        if type(f) is not type(g):
            return False
        if isinstance(f, Atom):
            if f != g:
                return False
        elif isinstance(f, (Not, Diamond, Box)):
            todo.append((f.child, g.child))
        else:
            todo += [(f.left, g.left), (f.right, g.right)]
    return True


# each shape's repr at depth n, spelled out from the text's shape
_Q = "Atom(variable='Q', value='true')"
_DEEP_REPRS = {
    "not": lambda n: "Not(child=" * n + _Q + ")" * n,
    "diamond": lambda n: "Diamond(child=" * n + _Q + ")" * n,
    "box": lambda n: "Box(child=" * n + _Q + ")" * n,
    "parens": lambda n: _Q,
    "and-chain": lambda n: f"And(left=Diamond(child={_Q}), right=" * (n - 1)
                           + f"Diamond(child={_Q})" + ")" * (n - 1),
}


@pytest.mark.parametrize("shape", list(_DEEP_SHAPES))
def test_equality_hash_and_repr_answer_the_deepest_parsed_formula(shape):
    text_of, _ = _DEEP_SHAPES[shape]
    n = _deepest_parsed(text_of)
    with _fails_if_recursing():
        f, again, shallower = parse(text_of(n)), parse(text_of(n)), parse(text_of(n - 1))
        assert f == again and hash(f) == hash(again) and _same_tree(f, again)
        assert (f == shallower) is _same_tree(f, shallower) is (shape == "parens")
        assert len({f, again, shallower}) == (1 if shape == "parens" else 2)
        assert repr(f) == _DEEP_REPRS[shape](n)


@pytest.mark.parametrize("shape", list(_DEEP_SHAPES))
def test_parse_echoes_the_deepest_parsed_formula(shape):
    text_of, _ = _DEEP_SHAPES[shape]
    n = _deepest_parsed(text_of)
    with _fails_if_recursing():
        f = parse(text_of(n))
        assert _same_tree(parse(render(f)), f)
        assert not _same_tree(parse(render(f)), parse(text_of(n - 1))) or shape == "parens"
        # a fresh process renders the formula and dumps its AST, in text and (for
        # one shape: the and-chain's AST text runs to tens of MB) as the --json
        # report, rather than report it as too deep
        for json_flag in ([], ["--json"]) if shape == "not" else ([],):
            proc = subprocess.run([sys.executable, "-m", "plfkit.cli", "parse", *json_flag,
                                   text_of(n)],
                                  env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True,
                                  text=True, timeout=60)
            assert (proc.returncode, proc.stderr) == (0, "")
            # json.loads of the whole report would nest as deep as the AST
            rendered = (proc.stdout.split("\n", 1)[0] if not json_flag else
                        json.loads(re.search(r'^    "rendered": (".*")$', proc.stdout, re.M)[1]))
            assert _same_tree(parse(rendered), f)


def _copies(x) -> list:
    return [copy.deepcopy(x), pickle.loads(pickle.dumps(x)), copy.copy(x)]


@pytest.mark.parametrize("shape", list(_DEEP_SHAPES))
def test_copy_and_pickle_answer_the_deepest_parsed_formula(shape):
    text_of, _ = _DEEP_SHAPES[shape]
    n = _deepest_parsed(text_of)
    with _fails_if_recursing():
        f = parse(text_of(n))
        for again in _copies(f):
            assert again is not f and again == f and _same_tree(again, f)
        # a clause holding the formula copies and pickles through it
        for again in _copies(Required(f)):
            assert again == Required(f) and _same_tree(again.body, f)


# -- the And-node memos ------------------------------------------------------


def test_non_formulas_are_rejected_by_type():
    m = two_world_chain()
    with pytest.raises(TypeError, match=r"\Anot a Formula: 'A'\Z"):
        evaluate(m, "w0", "A")
    with pytest.raises(TypeError, match=r"\Anot a Formula: 'A'\Z"):
        valid(m, And(Q, "A"))
    with pytest.raises(TypeError, match=r"\Anot a propositional formula: 'Q'\Z"):
        Depth1Problem({"Q": ("true", "false")}, (Required("Q"),))
    with pytest.raises(TypeError, match=r"\Anot a propositional formula: None\Z"):
        Depth1Problem({"Q": ("true", "false")}, (Conditional(Q, And(Q, None)),))


def _and_nodes(f):
    if isinstance(f, Atom):
        return []
    if isinstance(f, (Not, Diamond, Box)):
        return _and_nodes(f.child)
    return ([f] if isinstance(f, And) else []) + _and_nodes(f.left) + _and_nodes(f.right)


def _clause_parts(c):
    return (c.antecedent, c.consequent) if isinstance(c, Conditional) else (c.body,)


def test_clause_formula_builds_no_and_node(hardy_beh):
    # a clause's formula wraps its bodies as they are, so a memo keyed by
    # id() over clause formulas finds every And node alive in p.constraints
    for c in encode(hardy_beh).constraints + (MustAll(Q), Required(Not(Q))):
        inside = {id(node) for part in _clause_parts(c) for node in _and_nodes(part)}
        assert {id(node) for node in _and_nodes(clause_formula(c))} == inside


def _grid(prob):
    variables = sorted(prob.atom_domains)
    return [tuple(zip(variables, combo))
            for combo in itertools.product(*(prob.atom_domains[v] for v in variables))]


def _shared_problem(rng, fresh_copies):
    """Clauses whose bodies reuse a few And nodes in many places or, with
    fresh_copies, hold structurally equal but distinct copies of them."""
    variables = ["v0", "v1", "v2", "v3"]
    pool = [And(_random_prop(rng, variables, 1), _random_prop(rng, variables, 1)) for _ in range(3)]

    def node():
        f = rng.choice(pool)
        return And(f.left, f.right) if fresh_copies else f

    def body():
        ctor = rng.choice((And, Or, Implies, Iff))
        return rng.choice((node(), ctor(node(), node()), Not(And(node(), _random_prop(rng, variables)))))

    constraints = []
    for _ in range(rng.randint(2, 8)):
        kind = rng.choice((MustAll, Forbidden, Required, Conditional))
        constraints.append(Conditional(body(), body()) if kind is Conditional else kind(body()))
    return Depth1Problem({v: ("0", "1") for v in variables}, tuple(constraints))


@pytest.mark.parametrize("fresh_copies", [False, True], ids=["shared", "equal-copies"])
def test_memos_match_the_oracles_on_shared_and_nodes(fresh_copies):
    rng = random.Random(41)
    verdicts = set()
    for _ in range(80):
        prob = _shared_problem(rng, fresh_copies)
        assert isinstance(solve_depth1(prob), Model) == naive_depth1_satisfiable(prob)
        grid = _grid(prob)
        for subset in ([], grid, *([p for p in grid if rng.random() < 0.5] for _ in range(3))):
            expected = set_satisfies(prob, [dict(p) for p in subset])
            assert recheck_model(prob, set(subset)) is expected
            verdicts.add(expected)
        # one formula over every body: the evaluator's own memo at each world
        m = points_to_model(prob, grid[::3])
        f = conj(Diamond(part) for c in prob.constraints for part in _clause_parts(c))
        for w in m.worlds:
            assert evaluate(m, w, f) == naive_evaluate(m, w, f)
    assert verdicts == {True, False}


@pytest.mark.parametrize("size, seed", [((3, 3), 5), ((4, 2), 6)], ids=["3x3", "4x2"])
def test_recheck_matches_set_oracle_near_the_model(size, seed):
    settings, outcomes = size
    rng = random.Random(seed)
    cfg = ScenarioConfig(x_values=tuple(range(settings)), y_values=tuple(range(settings)),
                         a_values=tuple(range(outcomes)), b_values=tuple(range(outcomes)),
                         friend_a=True, friend_b=True, read_x=0, read_y=0)
    checked = draws = 0
    while checked < 2:  # 3 and 8 draws while the library is correct
        assert draws < 100, f"{checked} of 2 satisfiable problems in {draws} draws"
        draws += 1
        prob = encode(random_behavior(rng, cfg, p=0.9))
        result = solve_depth1(prob)
        if not isinstance(result, Model) or not result.points:
            continue
        points = result.points
        excluded = [pt for pt in _grid(prob) if pt not in points]
        assert excluded  # the no-signalling-free grid is never all kept
        # twice over one problem, alternating: no mask outlives its call
        for subset, expected in [(points, True),
                                 (points - {rng.choice(sorted(points))}, None),
                                 (points | {rng.choice(excluded)}, False),
                                 (points, True)]:
            truth = set_satisfies(prob, [dict(pt) for pt in subset])
            assert expected in (None, truth)
            assert recheck_model(prob, subset) is truth
        checked += 1


def _satisfiable_problem(size, seed, hardy_beh):
    """The Hardy problem without the impossibility of (1, 1, 1, 1), or the
    first satisfiable encoding of a seeded random behavior of the given size."""
    if size is None:
        return drop_impossibility(encode(hardy_beh), (1, 1, 1, 1))
    settings, outcomes = size
    rng = random.Random(seed)
    cfg = ScenarioConfig(x_values=tuple(range(settings)), y_values=tuple(range(settings)),
                         a_values=tuple(range(outcomes)), b_values=tuple(range(outcomes)),
                         friend_a=True, friend_b=True, read_x=0, read_y=0)
    for _ in range(100):  # 2 and 1 draws while the library is correct
        prob = encode(random_behavior(rng, cfg, p=0.9))
        result = solve_depth1(prob)
        if isinstance(result, Model) and result.points:
            return prob
    raise AssertionError(f"no satisfiable {size} problem in 100 draws")


@pytest.mark.parametrize("size, seed", [(None, 15), ((3, 3), 5), ((4, 2), 6)],
                         ids=["hardy", "3x3", "4x2"])
def test_recheck_reads_each_clause_as_its_formula(size, seed, hardy_beh):
    prob = _satisfiable_problem(size, seed, hardy_beh)
    kinds = [type(c) for c in prob.constraints]
    assert set(kinds) == {MustAll, Forbidden, Required, Conditional}
    points = solve_depth1(prob).points
    excluded = [pt for pt in _grid(prob) if pt not in points]
    rng = random.Random(seed)
    read = set()
    for subset in (points, points - {rng.choice(sorted(points))}, points | {rng.choice(excluded)}):
        m = points_to_model(prob, subset)
        truths = list(kripke._clause_truths(m, prob.constraints))
        assert truths == [evaluate(m, "w0", clause_formula(c)) for c in prob.constraints]
        assert recheck_model(prob, subset) is all(truths)
        read.update(zip(kinds, truths))
        # the recheck reads the points in any order, and none, as the named model
        for given in (subset, rng.sample(sorted(subset), len(subset)), set()):
            named = points_to_model(prob, given)
            assert recheck_model(prob, given) is all(kripke._clause_truths(named, prob.constraints))
    # every kind is read true, and the changed models make some clause false
    assert {kind for kind, truth in read if truth} == set(kinds)
    assert any(not truth for _, truth in read)


@pytest.mark.parametrize("size, seed", [(None, 15), ((3, 3), 5)], ids=["hardy", "3x3"])
def test_recheck_reads_fresh_equal_copies_of_the_points(size, seed, hardy_beh):
    # the recheck groups the points' pairs by value: copies that share no
    # object with the solver's points, in any order, get the same verdict
    prob = _satisfiable_problem(size, seed, hardy_beh)
    points = solve_depth1(prob).points
    solver_pairs = {id(pair) for pt in points for pair in pt}
    excluded = [pt for pt in _grid(prob) if pt not in points]
    rng = random.Random(seed)
    verdicts = []
    for subset in (points, points - {rng.choice(sorted(points))}, points | {rng.choice(excluded)}):
        fresh = [tuple(map(tuple, pt)) for pt in json.loads(json.dumps(sorted(subset)))]
        rng.shuffle(fresh)
        assert set(fresh) == subset
        assert not any(id(pair) in solver_pairs for pt in fresh for pair in pt)
        verdicts.append(recheck_model(prob, subset))
        assert recheck_model(prob, fresh) is verdicts[-1]
    assert verdicts[0] and not verdicts[-1]


def _seeded_problems(seed, count):
    """Encoded problems of seeded random behaviors, 1-4 settings by 1-3
    outcomes, with random friends and read settings, each with the rng."""
    rng = random.Random(seed)
    for _ in range(count):
        xs, labels = tuple(range(rng.randint(1, 4))), tuple(range(rng.randint(1, 3)))
        cfg = ScenarioConfig(x_values=xs, y_values=xs, a_values=labels, b_values=labels,
                             friend_a=rng.random() < 0.5, friend_b=rng.random() < 0.5,
                             read_x=rng.choice(xs), read_y=rng.choice(xs))
        yield rng, encode(random_behavior(rng, cfg, p=rng.choice([0.5, 0.8, 1.0])))


def _point_sets(rng, prob):
    """The solver's model, if any, and the model with one excluded grid point
    added; a random half of the grid; a single point; and none."""
    grid = _grid(prob)
    result = solve_depth1(prob)
    sets = [[], [rng.choice(grid)], [pt for pt in grid if rng.random() < 0.5]]
    if isinstance(result, Model):
        excluded = [pt for pt in grid if pt not in result.points]
        sets.append(result.points)
        if excluded:
            sets.append(result.points | {rng.choice(excluded)})
    return sets


def test_recheck_agrees_with_the_evaluator_clause_by_clause():
    verdicts = set()
    for rng, prob in _seeded_problems(61, 24):
        clauses = prob.constraints
        for points in _point_sets(rng, prob):
            m = points_to_model(prob, points)
            truths = [evaluate(m, "w0", clause_formula(c)) for c in clauses]
            assert recheck_model(prob, points) is all(truths)
            verdicts.add(all(truths))
            # each clause alone, on a sample of the larger problems' clauses
            for i in sorted(rng.sample(range(len(clauses)), min(len(clauses), 20))):
                alone = Depth1Problem(prob.atom_domains, (clauses[i],))
                assert recheck_model(alone, points) is truths[i], clauses[i]
    assert verdicts == {True, False}


def test_recheck_reads_points_as_any_iterable_of_equal_pairs():
    # a frozenset, a list, a one-shot generator, or points whose pairs are
    # equal to the grid's but not the same objects: the same verdict
    for rng, prob in _seeded_problems(62, 24):
        for points in _point_sets(rng, prob):
            expected = recheck_model(prob, frozenset(points))
            ordered = rng.sample(sorted(points), len(points))
            fresh = [tuple(sorted(dict(pt).items())) for pt in ordered]
            assert fresh == ordered
            shared = {id(pair) for pt in ordered for pair in pt}
            assert not any(id(pair) in shared for pt in fresh for pair in pt)
            assert recheck_model(prob, ordered) is expected
            assert recheck_model(prob, (pt for pt in ordered)) is expected
            assert recheck_model(prob, fresh) is expected


def test_recheck_refuses_a_point_a_forbidden_or_must_all_clause_excludes():
    refused = set()
    for rng, prob in _seeded_problems(63, 40):
        result = solve_depth1(prob)
        if not isinstance(result, Model):
            continue
        assert recheck_model(prob, result.points)
        for c in prob.constraints:
            if type(c) not in (Forbidden, MustAll):
                continue
            excluded = [pt for pt in _grid(prob)
                        if eval_prop(c.body, dict(pt)) is (type(c) is Forbidden)]
            if excluded:
                assert recheck_model(prob, result.points | {rng.choice(excluded)}) is False
                refused.add(type(c))
    assert refused == {Forbidden, MustAll}


def test_points_to_model_is_the_model_built_pair_by_pair():
    # one Atom per (variable, value): the model each pair's own Atom builds
    for rng, prob in _seeded_problems(64, 24):
        for points in _point_sets(rng, prob):
            names, valuation = [], {}
            for i, pt in enumerate(sorted(points), 1):
                names.append(f"w{i}")
                for var, val in pt:
                    valuation.setdefault(Atom(var, val), []).append(f"w{i}")
            old = KripkeModel(["w0", *names], [("w0", name) for name in names], valuation)
            assert points_to_model(prob, points) == old


def _all_possible_3x3(first_label):
    labels = tuple(range(first_label, first_label + 3))
    cfg = ScenarioConfig(x_values=labels, y_values=labels, a_values=labels, b_values=labels,
                         friend_a=True, friend_b=True, read_x=first_label, read_y=first_label)
    return Behavior(cfg, dict.fromkeys(cfg.cells(), True))


def _certified_decision(text):
    """One certified decision as the benchmark's decide op runs it: both
    routes from the behavior file, and both certificates of a feasible
    verdict."""
    beh = behavior_from_json(text)
    check_pns(beh)
    verdict = plf_feasible(beh)
    problem = encode(beh)
    sat = solve_depth1(problem)
    assert verdict.feasible == isinstance(sat, Model)
    if verdict.feasible:
        assert validate_extended_table(verdict.witness, beh)
        assert recheck_model(problem, sat.points)
    return verdict.feasible


@pytest.mark.parametrize("which", ["hardy", "3x3"])
def test_a_certified_decision_leaves_no_reference_cycle(which, hardy_beh):
    # everything a decision builds is freed by reference counting alone:
    # with the collector off, a cycle per op would grow the heap without bound
    if which == "hardy":  # as on the hardy stream, the decision reuses the config
        warm = text = json.dumps(behavior_to_json(hardy_beh))
    else:  # as on the ladder stream, fresh labels: a fresh config
        warm, text = (json.dumps(behavior_to_json(_all_possible_3x3(first))) for first in (0, 3))
    assert _certified_decision(warm) is (which == "3x3")
    gc.collect()
    gc.disable()
    try:
        assert _certified_decision(text) is (which == "3x3")
        assert gc.collect() == 0
    finally:
        gc.enable()


@st.composite
def _w0_models(draw):
    """A `_models` model with a world w0 that sees a drawn set of worlds, none
    (a dead end), itself or others with successors of their own, and holds
    drawn atoms.  With int-named worlds drawn, 0 holds the first bit (an int
    hashes to itself and is put in first), so w0 is not the first world."""
    m = draw(_models)
    ints = list(range(draw(st.integers(0, 2))))
    seen = draw(st.sets(st.sampled_from([*ints, *_world_names, "w0"])))
    at_w0 = draw(st.sets(st.sampled_from(_atom_pool)))
    valuation = {a: m.valuation.get(a, frozenset()) | ({"w0"} if a in at_w0 else set())
                 for a in _atom_pool}
    return KripkeModel(frozenset([*ints, *m.worlds, "w0"]),
                       m.relation | {("w0", v) for v in seen}, valuation)


@st.composite
def _shared_bodies(draw):
    """Drawn bodies and bodies that share an And of two of them, whose left
    child is a Not, never an Atom."""
    parts = draw(st.lists(_prop_formulas, min_size=2, max_size=4))
    shared = And(Not(parts[0]), parts[1])
    return [*parts, shared, And(parts[-1], shared), And(shared, parts[0]),
            Or(shared, Not(shared)), And(Atom("P"), shared)]


@settings(max_examples=300)
@given(_w0_models(), _shared_bodies())
def test_clause_truths_take_each_modal_step_at_w0_alone(m, bodies):
    clauses = [kind(body) for body in bodies for kind in (MustAll, Forbidden, Required)]
    clauses += [Conditional(f, g) for f, g in zip(bodies, bodies[1:] + bodies[:1])]
    clauses += [Conditional(g, f) for f, g in zip(bodies, bodies[1:] + bodies[:1])]
    assert list(kripke._clause_truths(m, clauses)) == [
        evaluate(m, "w0", clause_formula(c)) for c in clauses]
    # the bodies' shared And nodes in one formula, at every world
    for f in (conj(bodies), conj(Diamond(body) for body in bodies)):
        for w in m.worlds:
            assert evaluate(m, w, f) == naive_evaluate(m, w, f)


# -- the two walks stay independent ------------------------------------------


def test_evaluator_and_compiler_share_no_code():
    evaluator = (kripke._extension, kripke._diamond, kripke._box, kripke.evaluate, kripke.valid,
                 kripke.recheck_model, kripke._clause_truths, kripke.points_to_model,
                 kripke.KripkeModel.__post_init__)
    recheck = names_reached((kripke,), kripke.recheck_model)
    assert {"_extension", "_diamond", "_box"} <= recheck
    # the recheck reads the points as they are: it names and sorts no world
    assert not recheck & {"KripkeModel", "points_to_model", "sorted"}
    assert not names_reached((kripke,), *evaluator) & {
        "_compile", "_sat", "atom_masks", "_grid", "_start", "_conds", "_reqs", "_variables",
        "_combos", "_points", "_grid_masks"}
    assert "atom_masks" in names_reached((kripke,), kripke.Depth1Problem.__post_init__)
    # encode builds its masks by the chain builder, never by the clause compile
    encode = names_reached((scenario, kripke), scenario.encode)
    assert {"_chains", "_grid_masks", "_sat"} <= encode
    assert "_compile" not in encode
    assert not names_reached((kripke,), kripke._compile) & {
        "_extension", "_diamond", "_box", "_clause_truths", "evaluate", "valid", "recheck_model"}
