"""Which on-record light-cone clauses of the 2x2 scenario can be left out?

`scenario.encode` leaves out the finest Conditionals whose event puts the
other friend's wing at its read setting with an outcome off the friend's
record: the reading clause makes them vacuous (docs/feasibility.md).  This
script asks the same of the clauses whose event puts that wing at its read
setting with the outcome *on* the record.  Over every 2x2 behavior with no
empty context (15 nonempty cell sets per context, 15^4 = 50,625), it counts
the verdicts that change when one such clause is dropped, and when all of
them are dropped at once, for Hardy's scenario (both friends, read settings
1) and for Alice's friend alone.

Run:  PYTHONPATH=src python3 docs/redundant_conditionals.py

It takes about 10 s per configuration on a 2-vCPU Intel Xeon host.  The
deflation below is the solver's, run on the masks of one compiled problem,
since the Conditionals do not depend on the behavior; a sample of behaviors
is checked against `kripke.solve_depth1` on problems built in full.
"""

import itertools
import sys

from plfkit.formula import Atom, render
from plfkit.kripke import Conditional, Depth1Problem, Model, solve_depth1
from plfkit.scenario import Behavior, ScenarioConfig, encode

CONFIGS = {
    "both friends (Hardy)": ScenarioConfig(friend_a=True, friend_b=True),
    "Alice's friend alone": ScenarioConfig(friend_a=True),
}
SAMPLE = 997  # every SAMPLE-th behavior is also decided by solve_depth1


def on_record(cfg, clause) -> bool:
    """True iff the Conditional's event puts the other friend's wing at its
    read setting with the outcome on the friend's record."""
    atoms = {}
    node = clause.antecedent
    while not isinstance(node, Atom):  # a right-nested chain of atoms
        atoms[node.left.variable] = node.left.value
        node = node.right
    atoms[node.variable] = node.value
    setting = clause.consequent.left.variable
    return any(o.setting != setting and o.friend and atoms[o.setting] == str(o.read)
               and atoms[o.outcome] == atoms[o.record] for o in cfg.wings)


def behaviors(cfg):
    """Every behavior of cfg with a possible cell in each context."""
    per_context = []
    for x, y in cfg.contexts():
        cells = [(a, b, x, y) for a in cfg.a_values for b in cfg.b_values]
        per_context.append([subset for n in range(1, len(cells) + 1)
                            for subset in itertools.combinations(cells, n)])
    for choice in itertools.product(*per_context):
        yield [cell for subset in choice for cell in subset]


def satisfiable(start, conds, reqs) -> bool:
    """solve_depth1's verdict: deflate, then cover every Required mask."""
    current, changed = start, True
    while changed:
        changed = False
        for ant, cons in conds:
            if current & ant and not current & cons:
                current &= ~ant
                changed = True
    return all(current & req for req in reqs)


def survey(cfg):
    cells = cfg.cells()
    # one compiled problem: with every cell possible, the start mask is the
    # MustAll mask and the Required masks are the cell masks, in cell order
    prob = encode(Behavior.from_cells(cfg, cells))
    must, cell_mask = prob._start, dict(zip(cells, (mask for _, mask in prob._reqs)))
    conds = list(prob._conds)
    family = [i for i, (c, _, _) in enumerate(conds) if on_record(cfg, c)]
    variants = {"all": set(family), **{i: {i} for i in family}}
    changed = dict.fromkeys(variants, 0)
    count = 0
    for true_cells in behaviors(cfg):
        count += 1
        forbidden = sum(cell_mask[c] for c in cells) - sum(cell_mask[c] for c in true_cells)
        start, reqs = must & ~forbidden, [cell_mask[c] for c in true_cells]
        full = satisfiable(start, [(a, b) for _, a, b in conds], reqs)
        verdicts = {}
        for name, dropped in variants.items():
            # dropping clauses only grows the greatest fixpoint: a
            # satisfiable problem stays satisfiable
            verdicts[name] = full or satisfiable(
                start, [(a, b) for i, (_, a, b) in enumerate(conds) if i not in dropped], reqs)
            changed[name] += verdicts[name] != full
        if count % SAMPLE == 1:
            beh = Behavior.from_cells(cfg, true_cells)
            problem = encode(beh)
            assert isinstance(solve_depth1(problem), Model) == full
            for name in ("all", family[0]):
                kept = tuple(c for c in problem.constraints
                             if not (isinstance(c, Conditional)
                                     and any(c == conds[i][0] for i in variants[name])))
                relaxed = Depth1Problem(problem.atom_domains, kept)
                assert isinstance(solve_depth1(relaxed), Model) == verdicts[name]
    return count, len(conds), family, conds, changed


def main() -> int:
    for label, cfg in CONFIGS.items():
        count, total, family, conds, changed = survey(cfg)
        print(f"{label}: {count} behaviors, {total} Conditionals, "
              f"{len(family)} with the other friend's wing read on the record")
        for i in family:
            print(f"  drop the clause to <>({render(conds[i][0].consequent)}): "
                  f"{changed[i]} verdicts change")
        print(f"  drop all {len(family)}: {changed['all']} verdicts change")
    return 0


if __name__ == "__main__":
    sys.exit(main())
