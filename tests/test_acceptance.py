"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they happen.
"""

import random
import time
from fractions import Fraction

import sympy as sp

from plfkit.formula import (
    And, Atom, Box, Diamond, Iff, Implies, Not, Or, parse, render,
)
from plfkit.kripke import KripkeModel, Model, Unsat, evaluate, recheck_model, solve_depth1
from plfkit.plfcheck import cd_values, maximal_subtable, plf_feasible
from plfkit.quantum import HARDY_BASES, HARDY_STATE, born_table, hardy_behavior
from plfkit.scenario import Behavior, ScenarioConfig, check_pns, drop_impossibility, encode
from plfkit.cli import IMPOSSIBLE_CELLS
from conftest import random_behavior
from oracles import brute_force_feasible, enumerate_valid_slices, slice_cells_valid
from test_quantum import symbolic_prob

BOTH_FRIENDS = ScenarioConfig(friend_a=True, friend_b=True)
NO_FRIENDS = ScenarioConfig()


def _report(number, name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {status}" + (f" ({extra})" if extra else ""))
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_1_hardy_zeros():
    born_table(HARDY_STATE, HARDY_BASES)  # warm-up
    t0 = time.perf_counter()
    table = born_table(HARDY_STATE, HARDY_BASES)
    elapsed = time.perf_counter() - t0
    zeros_ok = all(table[cell] == 0 for cell in [(1, 1, 1, 1), (0, 1, 1, 2), (1, 0, 2, 1)])
    _report(1, "hardy zeros", zeros_ok and elapsed < 0.010, f"{elapsed * 1e3:.2f} ms")


def test_criterion_2_hardy_nonzero_one_twelfth():
    oracle_value = symbolic_prob(1, 1, 2, 2)  # independent symbolic route
    oracle_ok = oracle_value == sp.Rational(1, 12)
    numeric = born_table(HARDY_STATE, HARDY_BASES)[(1, 1, 2, 2)]
    _report(2, "hardy nonzero = 1/12",
            oracle_ok and numeric == Fraction(1, 12), f"numeric {numeric!r}")


def test_criterion_3_no_go_reproduction():
    beh = hardy_behavior()
    t0 = time.perf_counter()
    table_infeasible = not plf_feasible(beh).feasible
    modal_unsat = isinstance(solve_depth1(encode(beh)), Unsat)
    elapsed = time.perf_counter() - t0
    _report(3, "no-go reproduction",
            table_infeasible and modal_unsat and elapsed < 1.0, f"{elapsed * 1e3:.1f} ms")


def test_criterion_4_assumption_necessity():
    beh = hardy_behavior()
    ok = True
    times = []
    for name in sorted(IMPOSSIBLE_CELLS):
        relaxed = drop_impossibility(encode(beh), IMPOSSIBLE_CELLS[name])
        t0 = time.perf_counter()
        result = solve_depth1(relaxed)
        elapsed = time.perf_counter() - t0
        times.append(elapsed)
        sat = isinstance(result, Model)
        ok &= sat and elapsed < 1.0 and recheck_model(relaxed, result.points)
    _report(4, "assumption necessity", ok,
            "per-relaxation " + ", ".join(f"{t * 1e3:.1f} ms" for t in times))


def test_criterion_5_oracle_equivalence():
    rng = random.Random(5)
    t0 = time.perf_counter()
    disagreements = 0
    for _ in range(1000):
        beh = random_behavior(rng, BOTH_FRIENDS)
        table = plf_feasible(beh).feasible
        brute = brute_force_feasible(beh)
        modal = isinstance(solve_depth1(encode(beh)), Model)
        if not (table == brute == modal):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    _report(5, "oracle equivalence", disagreements == 0 and elapsed < 60.0,
            f"1000 behaviors, {disagreements} disagreements, {elapsed:.1f} s")


def test_criterion_6_bell_scenario_reduction():
    rng = random.Random(6)
    disagreements = 0
    for _ in range(1000):
        beh = random_behavior(rng, NO_FRIENDS)
        if plf_feasible(beh).feasible != check_pns(beh).holds:
            disagreements += 1
    tiny = ScenarioConfig(x_values=(1,), y_values=(1,))
    cells = tiny.cells()
    for bits in range(1, 1 << len(cells)):
        beh = Behavior(tiny, {cell: bool(bits >> i & 1) for i, cell in enumerate(cells)})
        if plf_feasible(beh).feasible != check_pns(beh).holds:
            disagreements += 1
    _report(6, "Bell-scenario reduction", disagreements == 0,
            f"{disagreements} disagreements")


def test_criterion_7_pns_of_hardy():
    _report(7, "PNS of Hardy", check_pns(hardy_behavior()).holds)


def _random_ast(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        var = rng.choice("pqrsAB") + (rng.choice("_0x") if rng.random() < 0.3 else "")
        val = rng.choice(["true", "0", "1", "v2"])
        return Atom(var, val)
    ctor = rng.choice((Not, Diamond, Box, And, Or, Implies, Iff))
    if ctor in (Not, Diamond, Box):
        return ctor(_random_ast(rng, depth - 1))
    return ctor(_random_ast(rng, depth - 1), _random_ast(rng, depth - 1))


def test_criterion_8_semantics_properties():
    q = Atom("Q")
    dead_end = KripkeModel({"w"}, set(), {})
    ok = evaluate(dead_end, "w", parse("[]Q -> Q")) is False
    ok &= evaluate(dead_end, "w", parse("[]Q -> <>Q")) is False

    rng = random.Random(8)
    worlds = ["u", "v", "x"]
    for _ in range(200):
        rel = {(a, b) for a in worlds for b in worlds if rng.random() < 0.4}
        val = {q: frozenset(w for w in worlds if rng.random() < 0.5)}
        m = KripkeModel(frozenset(worlds), frozenset(rel), val)
        f = _random_ast(rng, 3)
        for w in worlds:
            ok &= evaluate(m, w, Box(f)) == evaluate(m, w, Not(Diamond(Not(f))))

    failures = 0
    for _ in range(10000):
        f = _random_ast(rng, 5)
        if parse(render(f)) != f:
            failures += 1
    _report(8, "semantics properties", ok and failures == 0,
            f"{failures} roundtrip failures in 10000")


def test_criterion_9_union_closure_and_maximality():
    rng = random.Random(9)
    checked = 0
    ok = True
    while checked < 200:
        beh = random_behavior(rng, BOTH_FRIENDS)
        cd = rng.choice(cd_values(BOTH_FRIENDS))
        valid_tables = enumerate_valid_slices(beh, *cd)
        if len(valid_tables) >= 2:
            t1, t2 = rng.sample(valid_tables, 2)
            ok &= slice_cells_valid(beh, *cd, t1 | t2)
        union = frozenset().union(*valid_tables)
        sl = maximal_subtable(beh, *cd)
        ok &= {cell for cell, v in sl.cells.items() if v} == set(union)
        checked += 1
    _report(9, "union closure and maximality", ok, f"{checked} slices")
