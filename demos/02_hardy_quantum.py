"""Build the Hardy-type quantum behavior from first principles.

Two friends share the entangled pair (|00> + |01> + |10>)/sqrt(3) and
record their qubits; the superobservers either read the record (setting 1)
or measure the whole lab in the superposition basis (setting 2).  Every
quantity is an exact rational, so the impossible events have probability
exactly 0.

Run:  python3 demos/02_hardy_quantum.py
"""

from plfkit import HARDY_BASES, HARDY_STATE, born_table, hardy_behavior
from plfkit.scenario import check_pns

print("shared lab state, unnormalised (records 00, 01, 10, 11):", HARDY_STATE)
print()

print("each lab's outcome vectors per setting, unnormalised (Alice's and Bob's alike):")
for setting, vectors in HARDY_BASES[0].items():
    print(f"  setting {setting}:", "  ".join(f"outcome {a} = {u}" for a, u in enumerate(vectors)))
print()

table = born_table(HARDY_STATE, HARDY_BASES)
print("Born probabilities per context:")
for x in (1, 2):
    for y in (1, 2):
        row = "  ".join(f"P({a},{b}|{x},{y})={str(table[(a, b, x, y)]):<4}"
                        for a in (0, 1) for b in (0, 1))
        print(" ", row.rstrip())
print()

beh = hardy_behavior(table=table)
impossible = sorted(cell for cell, ok in beh.possible.items() if not ok)
print("impossible superobserver events (P = 0 exactly):", impossible)
print("the headline cell (1,1|2,2) is possible with P =", table[(1, 1, 2, 2)])
print("possibilistic no-signalling holds:", check_pns(beh).holds)
