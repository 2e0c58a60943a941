"""Independent reference implementations used only by the tests.

Nothing here shares code with the library's decision procedures: formulas
are evaluated against plain dict assignments, modal formulas world by world
by the recursive truth conditions, the depth-1 oracle is a naive set-based
deflation, slice enumeration walks every sub-table explicitly, and the
brute-force decider enumerates bitmask sub-tables.
"""

from __future__ import annotations

import itertools

from plfkit.formula import And, Atom, Box, Diamond, Iff, Implies, Not, Or
from plfkit.kripke import Conditional, Forbidden, MustAll, Required


def eval_prop(f, assignment: dict) -> bool:
    """Propositional truth under a total variable assignment."""
    if isinstance(f, Atom):
        return assignment.get(f.variable) == f.value
    if isinstance(f, Not):
        return not eval_prop(f.child, assignment)
    if isinstance(f, And):
        return eval_prop(f.left, assignment) and eval_prop(f.right, assignment)
    if isinstance(f, Or):
        return eval_prop(f.left, assignment) or eval_prop(f.right, assignment)
    if isinstance(f, Implies):
        return (not eval_prop(f.left, assignment)) or eval_prop(f.right, assignment)
    if isinstance(f, Iff):
        return eval_prop(f.left, assignment) == eval_prop(f.right, assignment)
    raise TypeError(f"unexpected node {f!r}")


def naive_evaluate(m, w, f) -> bool:
    """Truth of f at world w of a KripkeModel, by recursion on f at each world.

    Reads only the model's worlds, relation and valuation fields; successors
    are found by scanning the relation.
    """
    if isinstance(f, Atom):
        return w in m.valuation.get(f, frozenset())
    if isinstance(f, Not):
        return not naive_evaluate(m, w, f.child)
    if isinstance(f, And):
        return naive_evaluate(m, w, f.left) and naive_evaluate(m, w, f.right)
    if isinstance(f, Or):
        return naive_evaluate(m, w, f.left) or naive_evaluate(m, w, f.right)
    if isinstance(f, Implies):
        return (not naive_evaluate(m, w, f.left)) or naive_evaluate(m, w, f.right)
    if isinstance(f, Iff):
        return naive_evaluate(m, w, f.left) == naive_evaluate(m, w, f.right)
    successors = [v for (u, v) in m.relation if u == w]
    if isinstance(f, Box):
        return all(naive_evaluate(m, v, f.child) for v in successors)
    if isinstance(f, Diamond):
        return any(naive_evaluate(m, v, f.child) for v in successors)
    raise TypeError(f"unexpected node {f!r}")


def naive_depth1_satisfiable(problem) -> bool:
    """Naive deflation over explicit assignment dicts."""
    variables = sorted(problem.atom_domains)
    points = [dict(zip(variables, combo))
              for combo in itertools.product(*(problem.atom_domains[v] for v in variables))]

    survivors = []
    for p in points:
        if all(eval_prop(c.body, p) for c in problem.constraints if isinstance(c, MustAll)) \
                and not any(eval_prop(c.body, p) for c in problem.constraints
                            if isinstance(c, Forbidden)):
            survivors.append(p)

    conditionals = [c for c in problem.constraints if isinstance(c, Conditional)]
    changed = True
    while changed:
        changed = False
        for c in conditionals:
            has_ant = any(eval_prop(c.antecedent, p) for p in survivors)
            has_cons = any(eval_prop(c.consequent, p) for p in survivors)
            if has_ant and not has_cons:
                survivors = [p for p in survivors if not eval_prop(c.antecedent, p)]
                changed = True

    return all(any(eval_prop(c.body, p) for p in survivors)
               for c in problem.constraints if isinstance(c, Required))


def set_satisfies(problem, assignments) -> bool:
    """Whether a set of assignment dicts satisfies every clause of a problem."""
    for c in problem.constraints:
        if isinstance(c, MustAll):
            if not all(eval_prop(c.body, p) for p in assignments):
                return False
        elif isinstance(c, Forbidden):
            if any(eval_prop(c.body, p) for p in assignments):
                return False
        elif isinstance(c, Required):
            if not any(eval_prop(c.body, p) for p in assignments):
                return False
        elif isinstance(c, Conditional):
            if any(eval_prop(c.antecedent, p) for p in assignments) \
                    and not any(eval_prop(c.consequent, p) for p in assignments):
                return False
        else:
            raise TypeError(f"unexpected clause {c!r}")
    return True


def slice_cells_valid(beh, c, d, true_cells) -> bool:
    """Whether a set of (a, b, x, y) cells is a valid sub-table for records (c, d)."""
    cfg = beh.config
    true_cells = set(true_cells)
    for cell in true_cells:
        a, b, x, y = cell
        if not beh.possible[cell]:
            return False
        if cfg.friend_a and x == cfg.read_x and a != c:
            return False
        if cfg.friend_b and y == cfg.read_y and b != d:
            return False
    for b in cfg.b_values:
        for y in cfg.y_values:
            margs = {any((a, b, x, y) in true_cells for a in cfg.a_values)
                     for x in cfg.x_values}
            if len(margs) > 1:
                return False
    for a in cfg.a_values:
        for x in cfg.x_values:
            margs = {any((a, b, x, y) in true_cells for b in cfg.b_values)
                     for y in cfg.y_values}
            if len(margs) > 1:
                return False
    return True


def enumerate_valid_slices(beh, c, d):
    """All valid sub-tables for records (c, d), as frozensets of cells."""
    cfg = beh.config
    candidates = [cell for cell in cfg.cells()
                  if beh.possible[cell]
                  and not (cfg.friend_a and cell[2] == cfg.read_x and cell[0] != c)
                  and not (cfg.friend_b and cell[3] == cfg.read_y and cell[1] != d)]
    out = []
    for r in range(len(candidates) + 1):
        for combo in itertools.combinations(candidates, r):
            if slice_cells_valid(beh, c, d, combo):
                out.append(frozenset(combo))
    return out


# ---------------------------------------------------------------------------
# Brute-force feasibility (bitmask enumeration; shares no code with the
# deflation path)
# ---------------------------------------------------------------------------


class DomainTooLarge(ValueError):
    pass


def brute_force_feasible(beh) -> bool:
    """Feasibility by exhaustive enumeration of valid sub-tables per slice."""
    cfg = beh.config
    cells = cfg.cells()
    if len(cells) > 24:
        raise DomainTooLarge(f"{len(cells)} cells per slice exceeds the oracle bound of 24")
    index = {cell: i for i, cell in enumerate(cells)}

    possible_mask = 0
    for cell in cells:
        if beh.possible[cell]:
            possible_mask |= 1 << index[cell]

    groups_a = []  # per (b, y): list over x of cell masks
    for b in cfg.b_values:
        for y in cfg.y_values:
            groups_a.append([
                sum(1 << index[(a, b, x, y)] for a in cfg.a_values)
                for x in cfg.x_values
            ])
    groups_b = []  # per (a, x): list over y of cell masks
    for a in cfg.a_values:
        for x in cfg.x_values:
            groups_b.append([
                sum(1 << index[(a, b, x, y)] for b in cfg.b_values)
                for y in cfg.y_values
            ])

    def slice_valid(s: int) -> bool:
        for group in groups_a:
            hits = [bool(s & g) for g in group]
            if any(hits) and not all(hits):
                return False
        for group in groups_b:
            hits = [bool(s & g) for g in group]
            if any(hits) and not all(hits):
                return False
        return True

    covered = 0
    for c in (cfg.a_values if cfg.friend_a else (None,)):
        for d in (cfg.b_values if cfg.friend_b else (None,)):
            allowed = possible_mask
            for cell in cells:
                a, b, x, y = cell
                if (cfg.friend_a and x == cfg.read_x and a != c) or \
                   (cfg.friend_b and y == cfg.read_y and b != d):
                    allowed &= ~(1 << index[cell])
            s = allowed
            while True:
                if slice_valid(s):
                    covered |= s
                if s == 0:
                    break
                s = (s - 1) & allowed

    return covered & possible_mask == possible_mask
