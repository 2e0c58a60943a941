"""The no-go argument end to end, through both decision routes.

The Hardy behavior is no-signalling at the possibilistic level, yet no
joint possibility table over superobserver *and* friend outcomes can
reproduce it once reading consistency and intervention-independence are
demanded.  The same verdict falls out of depth-1 modal satisfiability.

Run:  python3 demos/03_no_go.py
"""

from plfkit import encode, hardy_behavior, plf_feasible, solve_depth1
from plfkit.cli import IMPOSSIBLE_EVENTS
from plfkit.kripke import Model, recheck_model
from plfkit.plfcheck import trace_to_text
from plfkit.scenario import drop_impossibility

beh = hardy_behavior()

# Route 1: extended-table feasibility with a per-record-assignment trace.
verdict = plf_feasible(beh)
print("extended-table route: feasible =", verdict.feasible)
print()
print(trace_to_text(verdict.trace, beh.config))
print()

# Route 2: encode to modal clauses at a reference world and decide.
problem = encode(beh)
result = solve_depth1(problem)
print(f"modal route: {len(problem.constraints)} clauses ->",
      "SAT" if isinstance(result, Model) else "UNSAT")
print()

# Each impossibility is load-bearing: drop any one and a world-network
# exists (and survives independent re-verification by the evaluator).
# The impossible cells are the behavior's own zeros, named in config order.
zeros = [cell for cell, possible in beh.possible.items() if not possible]
for name, cell in zip(IMPOSSIBLE_EVENTS, zeros, strict=True):
    relaxed = drop_impossibility(encode(beh), cell)
    r = solve_depth1(relaxed)
    sat = isinstance(r, Model)
    print(f"without the impossibility of {name} {cell}:",
          "SAT" if sat else "UNSAT",
          f"- witness has {len(r.points)} worlds,"
          f" evaluator recheck {recheck_model(relaxed, r.points)}" if sat else "")
